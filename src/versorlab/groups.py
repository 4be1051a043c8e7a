"""Finite versor groups: Pin and Spin covers of reflection groups.

Pin(rs) is generated by the simple-root vectors s_i and Spin(rs), its even
part, by the products s_i s_j (i < j): each is {+-v_w} over the reflection
group W, or its rotation subgroup, closed in integers as permutations of the
roots, on which W acts faithfully (Humphreys 1990, 1.5-1.7), so every
antipode is exact; the simple reflections' permutations are the graph
``close_roots`` kept.  One class, ``VersorGroup``, holds every kind: the pin
or spin double cover of unit versors, +R and -R distinct, and the full
reflection (from pin) or plain rotation (from spin) group that
quotient_by_sign makes of it, the cover modulo +-1.

Each group keeps its source root system, W's graph lifted by each edge's sign,
``graph[j, k]`` = index of g_j s_k, and the breadth-first tree and layers that
``orbit`` returned for W, each g_j = g_p s_k from the layer before.  Integer answers replay the tree, with
no float product or search: left products give the lazy ``table[i, j]`` =
index of g_i g_j and the powers behind element orders; inverses follow
(g_p s_k)^-1 = s_k^-1 g_p^-1.  Root systems are positive definite, so the
classes R -> ~G R G are the orbits of x -> s^-1 x s over the generators s,
ordered by (size, least index), the rows being in quantized lex order, to
print identically run to run.  A value is found by its bytes among the rows, else by its
``Multivector.key()``, either sign in a quotient; each dict is built on first use.
"""

from __future__ import annotations

from functools import cached_property, reduce

import numpy as np

from .algebra import (
    BLOCK,
    DEFAULT_EPS,
    Multivector,
    Signature,
    Versor,
    _check_cap,
    _einsum,
    _json_dicts,
    kernel_for,
    lex_sorted,
    orbit,
    qkey,
    row_keys,
    vector_rows,
)
from .errors import VersorlabError
from .roots import RootSystem

__all__ = [
    "ConjugacyClass",
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
_QUOTIENTS = {"pin": "reflection", "spin": "rotation"}  # a double cover's kind -> its quotient's


class VersorGroup:
    """A finite group of unit versors, its rows in lex order.  Of kind pin or spin: a double
    cover, closed under product, reverse and negation, which reverses the rows (``np.rint`` is
    symmetric), so -g_i is row n-1-i.  Of kind rotation or reflection: that cover modulo +-1,
    each element the one of +-R whose first nonzero quantized coefficient is positive."""

    def __init__(self, kind: str, source: RootSystem, arr: np.ndarray, graph: np.ndarray,
                 tree: tuple):
        if kind not in (*_QUOTIENTS, *_QUOTIENTS.values()):
            raise ValueError(f"bad versor group kind {kind!r}")
        self.kind, self.source, self.sig = kind, source, source.sig
        self._arr, self._graph = arr, graph  # graph[j, k]: index of g_j s_k
        arr.setflags(write=False)
        graph.setflags(write=False)
        self._e, *self._tree, self._layers = tree  # e; edges g_j = g_p s_k; layers' edge bounds
        n = arr.shape[0]  # index of -g_i for each i; in a quotient [-g] = [g]
        self._negatives = np.arange(n)[::-1] if kind in _QUOTIENTS else np.arange(n)

    @cached_property
    def _rows(self) -> dict:  # each row's own bytes -> its index, built on the first lookup
        rows = np.ascontiguousarray(self._arr)
        return dict(zip(rows.view((np.void, rows[0].nbytes)).ravel().tolist(), range(self.order)))

    @cached_property
    def _lookup(self) -> dict:
        """Element key bytes -> index, built on the first lookup ``_rows`` misses; an element
        that is its own negative, as each of a quotient's is, is found by the key of -R too."""
        own = np.flatnonzero(self._negatives == np.arange(self.order))
        keys = row_keys(np.vstack([self._arr, -self._arr[own]])).tolist()
        return dict(zip(keys, [*range(self.order), *own.tolist()]))

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
        return f"<{type(self).__name__} {self.kind}({self.source.name or '?'}) order {self.order}>"

    def index_of(self, v) -> int:
        if isinstance(v, Versor):
            v = v.mv
        if isinstance(v, Multivector):
            if v.sig != self.sig:
                raise VersorlabError("element lives in a different algebra")
            v = v.coeffs
        row, i = np.asarray(v, dtype=np.float64), None
        if row.shape[-1:] == self._arr.shape[1:]:  # its own bytes among the rows, else its key
            i = self._rows.get(row.tobytes())
            i = self._lookup.get(qkey(row)) if i is None else i
        if i is None:
            raise VersorlabError("element is not in the group")
        return i

    def _left_products(self, starts: np.ndarray, dtype=np.intp, hops=None) -> np.ndarray:
        """``out[j, c]`` = index of g_starts[c] g_j: out[e] = starts, then down the tree by layers,
        out[j] = ``hops[out[p], k]`` for g_j = g_p s_k (hops: the graph) and out[-g_j] = -out[j]."""
        (j, p, k), neg, hops = self._tree, self._negatives, self._graph if hops is None else hops
        out, step = np.empty((self.order, starts.size), dtype), max(1, BLOCK // max(starts.size, 1))
        out[self._e] = starts
        for lo, hi in zip(self._layers, self._layers[1:]):
            for a in range(lo, hi, step):
                edges = slice(a, min(hi, a + step))
                out[j[edges]] = hops[out[p[edges]], k[edges, None]]
        w = np.append(j, self._e)  # the tree's elements; in a quotient all, each its own -g
        out[neg[w]] = neg.astype(dtype)[out[w]]
        return out

    @cached_property
    def _left_by_inverses(self) -> np.ndarray:
        """``[j, k]`` = index of s_k^-1 g_j; s_k^-1 is the row whose k-th product is e."""
        return self._left_products(np.argmax(self._graph == self._e, axis=0))

    @cached_property
    def table(self) -> np.ndarray:
        """Read-only (n, n) int16/int32 table, ``table[i, j]`` = index of g_i g_j:
        the transpose of ``_left_products`` of every element, which writes rows."""
        n = self.order
        t = self._left_products(np.arange(n), np.int16 if n <= np.iinfo(np.int16).max else np.int32).T
        t.setflags(write=False)
        return t

    @cached_property
    def _inverses(self) -> np.ndarray:
        inv = self._left_products(np.array([self._e]), hops=self._left_by_inverses)[:, 0]
        inv.setflags(write=False)
        return inv

    def inverses(self) -> np.ndarray:
        """Index of g_i^-1 for each i, replayed once on the tree: (g_p s_k)^-1 = s_k^-1 g_p^-1."""
        return self._inverses

    def element_order(self, v) -> int:
        """Least k with v^k = 1, read off a list of each element's order."""
        return self._element_orders[self.index_of(v)]

    @cached_property
    def _element_orders(self) -> list:
        classes, label, _ = self._class_split
        return np.array([c.element_order for c in classes])[label].tolist()

    def conjugacy_classes(self) -> tuple["ConjugacyClass", ...]:
        return self._class_split[0]

    @cached_property
    def _class_split(self) -> tuple[tuple["ConjugacyClass", ...], np.ndarray, np.ndarray]:
        """The classes, ranked by (size, least index), found by labelling each
        element with the least index in its orbit by label propagation; each element's
        ranked class; and ``powers[j, c]`` = index of z_c g_j, z_c the representative of
        class c, whose powers are left multiplications by z_c."""
        arr, n, e, graph = self._arr, self.order, self._e, self._graph
        conj = graph[self._left_by_inverses, np.arange(graph.shape[1])]
        label, last = np.arange(n), None
        while not np.array_equal(label, last):
            last, label = label, np.minimum(label, label[conj].min(axis=1, initial=n))
            label = label[label]
        by_class = np.argsort(label, kind="stable")
        first = np.unique(label[by_class], return_index=True)[1]
        members = sorted(np.split(by_class, first[1:]), key=lambda m: (m.size, m[0]))
        reps, cols = np.array([m[0] for m in members]), np.arange(len(members))
        powers = self._left_products(reps)
        acc, rep_orders, k = reps, np.zeros(reps.size, dtype=np.intp), 1
        while not rep_orders.all():  # acc = z^k
            if k > n:
                raise VersorlabError("element order exceeded group order; inconsistent group")
            rep_orders[(acc == e) & (rep_orders == 0)] = k
            acc, k = powers[acc, cols], k + 1
        classes = tuple(ConjugacyClass(self.sig, arr, m, o)
                        for m, o in zip(members, rep_orders.tolist()))
        ranked = np.empty(n, np.intp)
        ranked[reps] = cols
        return classes, ranked[label], powers


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


def _generate(kind: str, rs: RootSystem, perms: np.ndarray, factors: np.ndarray,
              cap: int) -> VersorGroup:
    """{+-v_w} over W, the orbit of the simple roots' indices ``rs.simple`` under the root
    permutations ``perms`` (w, then generator k maps images b to perms[k][b]).
    Versor generator k, the product of the rows ``factors[k]``, lifts W layer by
    layer down the orbit's breadth-first tree of first edges (q, k), v = v_q s_k,
    which the group keeps, in blocks of at most ``BLOCK`` floats.  Each edge's
    product must be +-v of its end to DEFAULT_EPS, checked per ``BLOCK`` of held products,
    whose ends are all known, and that sign lifts W's graph to the cover's."""
    _check_cap("max_elements", cap)
    _, graph, first, layers = orbit(rs.simple[None], perms, lambda b, p: p[:, b].swapaxes(0, 1),
                                    cap // 2, f"versor closure exceeded {cap} elements")
    kern, (n, m) = kernel_for(rs.sig), graph.shape
    gens = reduce(kern.gp_elemwise, factors.swapaxes(0, 1))
    v, dots, held = np.zeros((n, kern.D)), np.empty((n, m)), []
    v[0, 0], step, checked = 1.0, max(1, BLOCK // max(m * kern.D, 1)), 0
    for lo, hi in zip(layers, layers[1:]):
        for a in range(lo, hi, step):
            b = min(hi, a + step)
            if b - checked > step:  # the held products' ends are all known: check them
                dots[checked:a], held, checked = _einsum(
                    "qkd,qkd->qk", np.concatenate(held), v[graph[checked:a]]), [], a
            held.append(kern.gp_elemwise(v[a:b, None], gens))
            c, d = np.searchsorted(first, [a * m, b * m])  # the rows first reached from a..b-1
            v[1 + c:1 + d] = held[-1].reshape(-1, kern.D)[first[c:d] - a * m]
    dots[checked:] = _einsum("qkd,qkd->qk", np.concatenate(held), v[graph[checked:]])
    if not np.all(np.abs(np.abs(dots) - 1.0) <= DEFAULT_EPS):  # NaN fails too
        raise VersorlabError("the versor generators do not lift the root permutations")
    cover = graph + np.where(dots < 0, n, 0)  # row i + n is -v_i
    arr, graph, plus = lex_sorted(np.vstack([v, -v]), np.vstack([cover, (cover + n) % (2 * n)]),
                                  np.arange(n))  # plus[i]: the row of +v_i
    tree = (int(plus[0]), plus[1:], plus[first // m], first % m, layers[1:] - 1)
    return VersorGroup(kind, rs, arr, graph, tree)


def generate_pin(rs: RootSystem, *, max_elements: int = MAX_GROUP) -> VersorGroup:
    """The group generated by the simple-root vectors, with +-1."""
    s = vector_rows(rs.sig, rs.simple_coords)
    return _generate("pin", rs, rs.reflections, s[:, None], max_elements)


def generate_spin(rs: RootSystem, *, max_elements: int = MAX_GROUP) -> VersorGroup:
    """The even subgroup of Pin, generated by the products s_i s_j (i < j), with +-1."""
    perms, s = rs.reflections, vector_rows(rs.sig, rs.simple_coords)
    i, j = np.triu_indices(rs.rank, 1)  # s_i s_j permutes the roots as s_i, then s_j
    return _generate("spin", rs, perms[j[:, None], perms[i]], np.stack([s[i], s[j]], 1),
                     max_elements)


def conjugacy_classes(group) -> tuple[ConjugacyClass, ...]:
    return group.conjugacy_classes()


def element_order(group, v) -> int:
    return group.element_order(v)


def quotient_by_sign(group: VersorGroup) -> VersorGroup:
    """Collapse +-R pairs; spin groups map to rotation groups, pin to full ones."""
    if not isinstance(group, VersorGroup) or group.kind not in _QUOTIENTS:
        raise VersorlabError("quotient_by_sign expects a pin or spin group")
    neg = group._negatives
    # of each pair the later row in lex order, whose leading coefficient is positive
    keep = np.flatnonzero(neg < np.arange(group.order))
    to = np.searchsorted(keep, np.maximum(neg, np.arange(group.order)))  # [g] = [-g]; [g] s = [g s]
    (j, p, k), layers = group._tree, group._layers
    return VersorGroup(_QUOTIENTS[group.kind], group.source, group.element_arr()[keep],
                       to[group._graph[keep]], (int(to[group._e]), to[j], to[p], k, layers))


# -- spinor coordinates ---------------------------------------------------------

# (a0, a23, a31, a12) of an even Cl(3,0) element: the scalar, e2e3, e3e1 = -e1e3
# and e1e2 coefficients, blades 0, 0b110, 0b101 (negated) and 0b011
_SPINOR_COLS, _SPINOR_SIGNS = [0, 0b110, 0b101, 0b011], np.array([1.0, 1.0, -1.0, 1.0])


def _spinor_coords(arr: np.ndarray) -> np.ndarray:
    """Spinor coordinates of each row of an (..., 8) array of Cl(3,0) coefficients."""
    return arr[..., _SPINOR_COLS] * _SPINOR_SIGNS


# -- Coxeter number --------------------------------------------------------------


def _order(perms: np.ndarray) -> np.ndarray:
    """Least k with perm^k the identity, for each permutation along the last axis."""
    power, k, out = perms, 1, np.zeros(perms.shape[:-1], dtype=np.intp)
    while not out.all():
        out[(out == 0) & (power == np.arange(perms.shape[-1])).all(axis=-1)] = k
        power, k = np.take_along_axis(perms, power, axis=-1), k + 1
    return out


def coxeter_number(rs: RootSystem) -> int:
    """Order of the product of all simple-root vectors, as the order of the
    permutation it makes of the roots: the product of the simple reflections'
    root permutations, which ``close_roots`` kept."""
    if rs.rank != rs.sig.dim:
        raise VersorlabError("coxeter_number needs a full-rank root system")
    return int(_order(reduce(lambda acc, p: p[acc], rs.reflections)))  # s_1 first


# -- serialization ---------------------------------------------------------------


def group_table_dict(group) -> dict:
    """Group-table JSON form: kind, order, and the conjugacy class list, each element
    as its ``Multivector.to_json_dict()``, written once per element."""
    members = _json_dicts(group.sig, group.element_arr())
    return {"kind": group.kind, "order": group.order,
            "classes": [{"size": cl.size,
                         "order": cl.element_order,
                         "representative": members[cl.indices[0]],
                         "members": [members[j] for j in cl.indices.tolist()]}
                        for cl in group.conjugacy_classes()]}
