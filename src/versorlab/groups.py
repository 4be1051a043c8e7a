"""Finite versor groups: Pin and Spin covers of reflection groups.

Pin(rs) is generated by the simple-root vectors s_i and Spin(rs), its even
part, by the products s_i s_j (i < j): each is the orbit of +-1 under right
products with its generators, unrounded.  Elements are unit versors, +R and
-R distinct; quotient_by_sign collapses the double cover onto the plain
rotation (from spin) or full reflection (from pin) group.

Each group keeps the graph its closure walked, ``graph[j, k]`` = index of
g_j s_k, and answers in integers on it, with no float product: left
products follow each element's first path from +-1, and give the lazy
``table[i, j]`` = index of g_i g_j and the powers behind element orders.
Root systems are positive definite, so ~G = G^-1 (inverses are a lookup of
the reversed rows) and the classes R -> ~G R G are the orbits of
x -> s^-1 x s over the generators s.  Classes are ordered by (size,
lexicographically smallest quantized representative) so tables print
identically run to run.  Elements are looked up in one dict of their
``Multivector.key()`` bytes; a quotient holds the keys of both signs.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np

from .algebra import (
    BLOCK,
    DEFAULT_EPS,
    Multivector,
    Signature,
    Versor,
    _check_cap,
    _check_eps,
    find_ids,
    kernel_for,
    key_ids,
    lex_order,
    orbit,
    qkey,
    quantize,
    row_keys,
    vector_rows,
)
from .errors import VersorlabError
from .roots import RootSystem, _reflect_pairs

__all__ = [
    "ConjugacyClass",
    "QuotientGroup",
    "VersorGroup",
    "conjugacy_classes",
    "coxeter_number",
    "element_order",
    "generate_pin",
    "generate_spin",
    "group_table_dict",
    "quotient_by_sign",
]

MAX_GROUP = 20_000


def _sign_canonical(arr: np.ndarray) -> np.ndarray:
    """Flip each row so its first nonzero quantized coefficient is positive."""
    q = quantize(arr)
    idx = np.argmax(q != 0, axis=1)
    lead = q[np.arange(q.shape[0]), idx]
    s = np.where(lead < 0, -1.0, 1.0)
    return arr * s[:, None]


class _GroupBase:
    """Shared machinery for VersorGroup and QuotientGroup: lookup, graph, table, classes."""

    def __init__(self, kind: str, sig: Signature, arr: np.ndarray, graph: np.ndarray,
                 source: Optional[RootSystem]):
        self.kind, self.sig, self.source, self._kern = kind, sig, source, kernel_for(sig)
        self._arr, self._graph = arr, graph  # graph[j, k]: index of g_j s_k
        arr.setflags(write=False)
        graph.setflags(write=False)
        self._lookup = {}
        key_ids(arr, self._lookup)  # the elements are distinct: row i has id i
        self._e = self._lookup[qkey(np.eye(1, self._kern.D)[0])]  # the identity

    @property
    def order(self) -> int:
        return self._arr.shape[0]

    def __len__(self):
        return self.order

    @property
    def elements(self) -> tuple[Versor, ...]:
        return Versor._trusted(self.sig, self._arr)

    def element_arr(self) -> np.ndarray:
        return self._arr

    def __repr__(self):
        src = self.source.name if self.source is not None and self.source.name else "?"
        return f"<{type(self).__name__} {self.kind}({src}) order {self.order}>"

    def _coerce_arr(self, v) -> np.ndarray:
        if isinstance(v, Versor):
            v = v.mv
        if isinstance(v, Multivector):
            if v.sig != self.sig:
                raise VersorlabError("element lives in a different algebra")
            return v.coeffs
        return np.asarray(v, dtype=np.float64)

    def indices_of(self, rows: np.ndarray) -> np.ndarray:
        """Index of each row of an (n, D) array; raises unless all are elements."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self._kern.D:
            raise VersorlabError(f"expected an (n, {self._kern.D}) array, got shape {rows.shape}")
        idx = find_ids(rows, self._lookup)
        if np.any(idx < 0):
            raise VersorlabError("element is not in the group")
        return idx

    def index_of(self, v) -> int:
        row = self._coerce_arr(v)
        i = self._lookup.get(qkey(row)) if row.shape[-1:] == (self._kern.D,) else None
        if i is None:
            raise VersorlabError("element is not in the group")
        return i

    def contains(self, v) -> bool:
        try:
            self.index_of(v)
            return True
        except VersorlabError:
            return False

    @cached_property
    def _negatives(self) -> np.ndarray:
        """Index of -g_i for each i."""
        return self.indices_of(-self._arr)

    def _left_products(self, starts: np.ndarray, dtype=np.intp) -> np.ndarray:
        """``out[j, c]`` = index of g_starts[c] g_j: breadth-first from +-1, each
        g_j first reached as g_q s_k gets row j = ``graph[out[q], k]``."""
        graph, e, neg = self._graph, self._e, self._negatives
        out = np.empty((self.order, starts.size), dtype=dtype)
        out[neg[e]], out[e] = neg[starts], starts
        seen = np.zeros(self.order, dtype=bool)
        seen[[e, neg[e]]] = True
        frontier, step = np.flatnonzero(seen), max(1, BLOCK // max(starts.size, 1))
        while frontier.size:
            j = graph[frontier].ravel()
            fresh = np.flatnonzero(~seen[j])
            j, first = np.unique(j[fresh], return_index=True)
            q, k = np.divmod(fresh[first], graph.shape[1])
            seen[j], q = True, frontier[q]
            for a in range(0, j.size, step):
                out[j[a:a + step]] = graph[out[q[a:a + step]], k[a:a + step, None]]
            frontier = j
        return out

    @cached_property
    def table(self) -> np.ndarray:
        """Read-only (n, n) int16/int32 table, ``table[i, j]`` = index of g_i g_j:
        the transpose of ``_left_products`` of every element, which writes rows."""
        n = self.order
        t = self._left_products(np.arange(n), np.int16 if n <= np.iinfo(np.int16).max else np.int32).T
        t.setflags(write=False)
        return t

    def inverses(self) -> np.ndarray:
        """Index of g_i^-1 for each i: ~g = g^-1 in a positive-definite group."""
        return self.indices_of(self._kern.rev(self._arr))

    def element_order(self, v) -> int:
        """Least k with v^k = 1."""
        return int(self._class_split[1][self.index_of(v)])

    def conjugacy_classes(self) -> tuple["ConjugacyClass", ...]:
        return self._class_split[0]

    @cached_property
    def _class_split(self) -> tuple[tuple["ConjugacyClass", ...], np.ndarray]:
        """The classes, each element labelled with the least index in its orbit
        by label propagation, and every element's order from its class
        representative r, whose powers are left multiplications by r."""
        arr, n, e, graph = self._arr, self.order, self._e, self._graph
        conj = graph[self._left_products(self.inverses()[graph[e]]), np.arange(graph.shape[1])]
        label, last = np.arange(n), None
        while not np.array_equal(label, last):
            last, label = label, np.minimum(label, label[conj].min(axis=1, initial=n))
            label = label[label]
        by_class = np.argsort(label, kind="stable")
        reps, first = np.unique(label[by_class], return_index=True)
        powers, cols = self._left_products(reps), np.arange(reps.size)
        acc, rep_orders, k = reps, np.zeros(reps.size, dtype=np.intp), 1
        while not rep_orders.all():  # acc = r^k
            if k > n:
                raise VersorlabError("element order exceeded group order; inconsistent group")
            rep_orders[(acc == e) & (rep_orders == 0)] = k
            acc, k = powers[acc, cols], k + 1
        ranked = sorted(zip(np.split(by_class, first[1:]), rep_orders.tolist()),
                        key=lambda mo: (mo[0].size, tuple(quantize(arr[mo[0][0]]))))
        classes = tuple(ConjugacyClass(self.sig, arr, m, o) for m, o in ranked)
        return classes, rep_orders[np.searchsorted(reps, label)]


class VersorGroup(_GroupBase):
    """A finite group of unit versors, closed under product and reverse."""

    def __init__(self, kind: str, sig: Signature, arr: np.ndarray, graph: np.ndarray,
                 source: Optional[RootSystem] = None):
        if kind not in ("pin", "spin"):
            raise ValueError(f"bad versor group kind {kind!r}")
        super().__init__(kind, sig, arr, graph, source)


class QuotientGroup(_GroupBase):
    """Versor group with R and -R identified; elements are sign-canonical reps,
    looked up by the key of either sign."""

    def __init__(self, kind: str, covering: VersorGroup, arr: np.ndarray, graph: np.ndarray):
        super().__init__(kind, covering.sig, arr, graph, covering.source)
        self.covering = covering
        self._lookup.update(zip(row_keys(-arr).tolist(), range(self.order)))


class ConjugacyClass:
    """Member indices into the group's rows (not the group: no cycle); Versors built when read."""

    def __init__(self, sig: Signature, rows: np.ndarray, indices: np.ndarray, element_order: int):
        self.sig, self.rows, self.indices, self.element_order = sig, rows, indices, element_order
        self.size = len(indices)

    @cached_property
    def representative(self) -> Versor:
        return Versor._trusted(self.sig, self.rows[self.indices[:1]])[0]

    @cached_property
    def members(self) -> tuple:
        return Versor._trusted(self.sig, self.rows[self.indices])


def _lex_sorted(arr: np.ndarray, to: np.ndarray, graph: np.ndarray):
    """Rows of arr in lex order, and the graph of rows ``to[i]`` of arr, renumbered to match."""
    order = lex_order(arr)
    at = np.empty_like(order)
    at[order] = np.arange(order.size)
    to = at[to]
    out = np.empty((arr.shape[0], graph.shape[1]), dtype=graph.dtype)
    out[to] = to[graph]
    return arr[order], out


def _generate(kind: str, rs: RootSystem, gens: np.ndarray, cap: int) -> VersorGroup:
    """Orbit of +-1 under the right products g -> g s with each generator s."""
    _check_cap("max_elements", cap)
    kern = kernel_for(rs.sig)
    seeds = np.eye(1, kern.D) * [[1.0], [-1.0]]
    arr, graph = orbit(seeds, gens, kern.gp_pairs, cap, "versor closure exceeded {cap} elements")
    arr, graph = _lex_sorted(arr, np.arange(arr.shape[0]), graph)
    return VersorGroup(kind, rs.sig, arr, graph, source=rs)


def generate_pin(rs: RootSystem, *, max_elements: int = MAX_GROUP) -> VersorGroup:
    """The group generated by the simple-root vectors, with +-1."""
    return _generate("pin", rs, vector_rows(rs.sig, rs.simple_coords), max_elements)


def generate_spin(rs: RootSystem, *, max_elements: int = MAX_GROUP) -> VersorGroup:
    """The even subgroup of Pin, generated by the products s_i s_j (i < j), with +-1."""
    s = vector_rows(rs.sig, rs.simple_coords)
    i, j = np.triu_indices(rs.rank, 1)
    return _generate("spin", rs, kernel_for(rs.sig).gp_elemwise(s[i], s[j]), max_elements)


def conjugacy_classes(group) -> tuple[ConjugacyClass, ...]:
    return group.conjugacy_classes()


def element_order(group, v) -> int:
    return group.element_order(v)


def quotient_by_sign(group: VersorGroup) -> QuotientGroup:
    """Collapse +-R pairs; spin groups map to rotation groups, pin to full ones."""
    if not isinstance(group, VersorGroup):
        raise VersorlabError("quotient_by_sign expects a pin or spin group")
    canon = _sign_canonical(group.element_arr())
    to = key_ids(canon, {})  # cover row i is row to[i] of canon[first]
    first = np.unique(to, return_index=True)[1]
    if 2 * first.size != group.order:
        raise VersorlabError("group is not symmetric under negation")
    arr, graph = _lex_sorted(canon[first], to, group._graph)  # [g] s = [g s]
    kind = "rotation" if group.kind == "spin" else "reflection"
    return QuotientGroup(kind, group, arr, graph)


# -- spinor coordinates ---------------------------------------------------------

# (a0, a23, a31, a12) of an even Cl(3,0) element: the scalar, e2e3, e3e1 = -e1e3
# and e1e2 coefficients, blades 0, 0b110, 0b101 (negated) and 0b011
_SPINOR_COLS, _SPINOR_SIGNS = [0, 0b110, 0b101, 0b011], np.array([1.0, 1.0, -1.0, 1.0])


def _spinor_coords(arr: np.ndarray) -> np.ndarray:
    """Spinor coordinates of each row of an (..., 8) array of Cl(3,0) coefficients."""
    return arr[..., _SPINOR_COLS] * _SPINOR_SIGNS


# -- Coxeter number --------------------------------------------------------------


def coxeter_number(rs: RootSystem) -> int:
    """Order of the product of all simple-root vectors, as the order of the
    permutation it makes of the roots: the product of the simple reflections'
    root permutations, each looked up by key."""
    if rs.rank != rs.sig.dim:
        raise VersorlabError("coxeter_number needs a full-rank root system")
    index = {}
    key_ids(rs.coords, index)
    images = find_ids(_reflect_pairs(rs.coords, rs.simple_coords), index)
    every = np.arange(rs.root_count)
    if not np.all(np.sort(images, axis=0) == every[:, None]):
        raise VersorlabError("the Coxeter element does not permute the roots")
    perm = every
    for k in range(rs.rank):  # reflect in s_1 first, then s_2, ...
        perm = images[perm, k]
    power, k = perm, 1
    while not np.array_equal(power, every):
        power, k = perm[power], k + 1
    return k


# -- serialization ---------------------------------------------------------------


def group_table_dict(group, eps: float = DEFAULT_EPS) -> dict:
    """Group-table JSON form: kind, order, and the conjugacy class list."""
    _check_eps(eps)
    def coeffs(row):
        return Multivector._wrap(group.sig, row).to_json_dict(eps)

    classes = [{"size": cl.size,
                "order": cl.element_order,
                "representative": coeffs(cl.rows[cl.indices[0]]),
                "members": [coeffs(row) for row in cl.rows[cl.indices]]}
               for cl in group.conjugacy_classes()]
    return {"kind": group.kind, "order": group.order, "classes": classes}
