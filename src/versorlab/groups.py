"""Finite versor groups: Pin and Spin covers of reflection groups.

Pin(rs) is the multiplicative closure of the unit root vectors of a root
system; Spin(rs) is the closure of their pairwise products (the even part).
Elements are unit versors kept as explicit multivectors, with +R and -R
distinct; quotient_by_sign collapses the double cover onto the plain
rotation (from spin) or full reflection (from pin) group.

Each group has one integer multiplication table, ``table[i, j]`` = index of
g_i g_j, and element orders and conjugacy classes are gathers on it.  Root
systems are positive definite, so ~G = G^-1 and the classes R -> ~G R G are
G^-1 R G.  Classes are ordered deterministically by (size, lexicographically
smallest quantized representative) so tables print identically run to run.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .algebra import (
    DEFAULT_EPS,
    KeyIndex,
    Multivector,
    Signature,
    Versor,
    close,
    dedup,
    kernel_for,
    lex_order,
    quantize,
)
from .errors import ClosureCapExceeded, VersorlabError
from .roots import RootSystem

__all__ = [
    "ConjugacyClass",
    "ExpDecomposition",
    "ExpTerm",
    "QuotientGroup",
    "VersorGroup",
    "conjugacy_classes",
    "coxeter_number",
    "element_order",
    "exp_decomposition",
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
    """Shared table machinery for VersorGroup and QuotientGroup."""

    kind: str
    sig: Signature
    source: Optional[RootSystem]

    def __init__(self, sig: Signature, arr: np.ndarray):
        self.sig = sig
        self._arr = arr
        self._arr.setflags(write=False)
        self._lookup = KeyIndex(arr)
        self._classes = None
        self._kern = kernel_for(sig)

    @property
    def order(self) -> int:
        return self._arr.shape[0]

    def __len__(self):
        return self.order

    @property
    def elements(self) -> tuple[Versor, ...]:
        return tuple(Versor(Multivector(self.sig, row)) for row in self._arr)

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

    def _canon(self, rows: np.ndarray) -> np.ndarray:
        return rows

    def indices_of(self, rows: np.ndarray) -> np.ndarray:
        """Index of each row of an (n, D) array; raises unless all are elements."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape[-1:] != (self._kern.D,):
            raise VersorlabError("element is not in the group")
        idx = self._lookup.find(self._canon(rows))
        if np.any(idx < 0):
            raise VersorlabError("element is not in the group")
        return idx

    def index_of(self, v) -> int:
        return int(self.indices_of(self._coerce_arr(v)[None, :])[0])

    def contains(self, v) -> bool:
        try:
            self.index_of(v)
            return True
        except VersorlabError:
            return False

    def _identity_index(self) -> int:
        return self.index_of(np.eye(1, self._kern.D)[0])

    @cached_property
    def table(self) -> np.ndarray:
        """Read-only (n, n) int64 table, ``table[i, j]`` = index of g_i g_j.

        Only generator rows are float products: s g_j for all j, with s the
        first element no row so far reaches, looked up by key (which checks
        closure).  Every other row is ``table[i] = row_s[table[p]]``, g_i = s g_p.
        """
        arr, n, e = self._arr, self.order, self._identity_index()
        t = np.empty((n, n), dtype=np.int64)
        t[e] = np.arange(n)
        filled = np.arange(n) == e
        rows = []
        while not filled.all():
            s = int(np.argmin(filled))
            rows.append(self.indices_of(self._kern.gp_pairs(arr[[s]], arr).reshape(n, -1)))
            frontier = np.flatnonzero(filled)
            while frontier.size:
                grown = []
                for row in rows:  # a permutation, so no target repeats
                    src = frontier[~filled[row[frontier]]]
                    dst = row[src]
                    t[dst] = row[t[src]]
                    filled[dst] = True
                    grown.append(dst)
                frontier = np.concatenate(grown)
        t.setflags(write=False)
        return t

    def inverses(self) -> np.ndarray:
        """Index of g_i^-1 for each i, read off the table."""
        return np.argmax(self.table == self._identity_index(), axis=1)

    def element_order(self, v) -> int:
        """Least k with v^k = 1, i.e. with v^(k+1) back at v."""
        i = self.index_of(v)
        col, acc = self.table[:, i], i
        for k in range(1, self.order + 1):
            acc = col[acc]
            if acc == i:
                return k
        raise VersorlabError("element order exceeded group order; inconsistent group")

    def conjugacy_classes(self) -> tuple["ConjugacyClass", ...]:
        if self._classes is not None:
            return self._classes
        arr, n, t = self._arr, self.order, self.table
        inv, every = self.inverses(), np.arange(n)
        assigned = np.zeros(n, dtype=bool)
        classes = []
        for idx in range(n):
            if assigned[idx]:
                continue
            member_idx = np.unique(t[t[inv, idx], every])  # g^-1 x g over all g
            assigned[member_idx] = True
            classes.append((len(member_idx), int(member_idx[0]), member_idx))
        classes.sort(key=lambda c: (c[0], tuple(quantize(arr[c[1]]))))
        out = []
        for size, rep_i, member_idx in classes:
            rep = Versor(Multivector(self.sig, arr[rep_i]))
            members = tuple(Versor(Multivector(self.sig, arr[i])) for i in member_idx)
            out.append(ConjugacyClass(rep, members, size, self.element_order(arr[rep_i])))
        self._classes = tuple(out)
        return self._classes


class VersorGroup(_GroupBase):
    """A finite group of unit versors, closed under product and reverse."""

    def __init__(self, kind: str, sig: Signature, arr: np.ndarray,
                 source: Optional[RootSystem] = None):
        if kind not in ("pin", "spin"):
            raise ValueError(f"bad versor group kind {kind!r}")
        super().__init__(sig, arr)
        self.kind = kind
        self.source = source


class QuotientGroup(_GroupBase):
    """Versor group with R and -R identified; elements are sign-canonical reps."""

    def __init__(self, kind: str, covering: VersorGroup, arr: np.ndarray):
        super().__init__(covering.sig, arr)
        self.kind = kind
        self.covering = covering
        self.source = covering.source

    def _canon(self, rows: np.ndarray) -> np.ndarray:
        return _sign_canonical(rows)


class ConjugacyClass(NamedTuple):
    representative: Versor
    members: tuple
    size: int
    element_order: int


def _root_vector_arr(rs: RootSystem) -> np.ndarray:
    arr = np.zeros((rs.root_count, kernel_for(rs.sig).D))
    arr[:, 1 << np.arange(rs.sig.dim)] = rs.coords  # grade-1 blades are the bits 1 << i
    return arr


def _generate(kind: str, rs: RootSystem, seeds: np.ndarray, cap: int) -> VersorGroup:
    """Closure of ``seeds`` under the product, each layer rounded to 12 decimals."""
    kern = kernel_for(rs.sig)
    arr = close(np.round(seeds, 12), lambda a, b: np.round(kern.gp_pairs(a, b), 12), cap,
                "versor closure exceeded {cap} elements")
    return VersorGroup(kind, rs.sig, arr[lex_order(arr)], source=rs)


def generate_pin(rs: RootSystem, *, max_elements: int = MAX_GROUP) -> VersorGroup:
    """Multiplicative closure of the root vectors of a root system."""
    return _generate("pin", rs, _root_vector_arr(rs), max_elements)


def generate_spin(rs: RootSystem, *, max_elements: int = MAX_GROUP) -> VersorGroup:
    """Closure of pairwise products of root vectors (the even subgroup of Pin)."""
    vecs = _root_vector_arr(rs)
    seeds = kernel_for(rs.sig).gp_pairs(vecs, vecs).reshape(-1, vecs.shape[1])
    return _generate("spin", rs, seeds, max_elements)


def conjugacy_classes(group) -> tuple[ConjugacyClass, ...]:
    return group.conjugacy_classes()


def element_order(group, v) -> int:
    return group.element_order(v)


def quotient_by_sign(group: VersorGroup) -> QuotientGroup:
    """Collapse +-R pairs; spin groups map to rotation groups, pin to full ones."""
    if not isinstance(group, VersorGroup):
        raise VersorlabError("quotient_by_sign expects a pin or spin group")
    arr = dedup(_sign_canonical(group.element_arr()))
    if 2 * arr.shape[0] != group.order:
        raise VersorlabError("group is not symmetric under negation")
    arr = arr[lex_order(arr)]
    kind = "rotation" if group.kind == "spin" else "reflection"
    return QuotientGroup(kind, group, arr)


# -- exponential structure ------------------------------------------------------

_E23, _E13, _E12 = 0b110, 0b101, 0b011


class ExpTerm(NamedTuple):
    element: Multivector
    kind: str  # "scalar" or "exponential"
    sign: int
    bivector: Optional[Multivector]
    theta: Optional[float]


class ExpDecomposition(NamedTuple):
    terms: tuple

    def scalars(self) -> list[ExpTerm]:
        return [t for t in self.terms if t.kind == "scalar"]

    def at_angle(self, theta: float, tol: float = 1e-9) -> list[ExpTerm]:
        return [t for t in self.terms
                if t.kind == "exponential" and abs(t.theta - theta) <= tol]

    def angle_counts(self) -> dict:
        out = {}
        for t in self.terms:
            if t.kind == "exponential":
                key = round(t.theta, 9)
                out[key] = out.get(key, 0) + 1
        return out


def exp_decomposition(group: VersorGroup, eps: float = DEFAULT_EPS) -> ExpDecomposition:
    """Write each spin element of Cl(3,0) as +-exp(B theta), B a unit bivector.

    Scalars +-1 are reported as kind "scalar".  Every other element R has a
    unique form sign * (cos theta + B sin theta) with theta in (0, pi/2] and
    cos theta >= 0; theta = pi/2 picks out the pure bivectors.
    """
    if group.sig != Signature(3, 0) or group.kind != "spin":
        raise VersorlabError("exp_decomposition needs a spin group in Cl(3,0)")
    sig = group.sig
    terms = []
    for row in group.element_arr():
        a0 = row[0]
        b = np.array([row[_E23], -row[_E13], row[_E12]])  # e23, e31, e12 parts
        bmag = float(np.linalg.norm(b))
        element = Multivector(sig, row)
        if bmag <= eps:
            terms.append(ExpTerm(element, "scalar", 1 if a0 > 0 else -1, None, None))
            continue
        s = -1 if a0 < -eps else 1
        theta = math.atan2(bmag, s * a0)
        bu = s * b / bmag
        arr = np.zeros(8)
        arr[_E23], arr[_E13], arr[_E12] = bu[0], -bu[1], bu[2]
        bhat = Multivector(sig, arr)
        recon = s * (math.cos(theta) + 0.0) * np.eye(1, 8, 0)[0] + s * math.sin(theta) * arr
        if np.max(np.abs(recon - row)) > 1e-9:
            raise VersorlabError("exponential reconstruction failed")
        terms.append(ExpTerm(element, "exponential", s, bhat, theta))
    return ExpDecomposition(tuple(terms))


# -- Coxeter number --------------------------------------------------------------


def coxeter_number(rs: RootSystem, max_power: int = 10_000) -> int:
    """Order of the sandwich action of the product of all simple-root vectors."""
    kern = kernel_for(rs.sig)
    n = rs.sig.dim
    if rs.rank != n:
        raise VersorlabError("coxeter_number needs a full-rank root system")
    w = None
    for row in rs.simple_coords:
        arr = np.zeros(kern.D)
        for i in range(n):
            arr[1 << i] = row[i]
        w = arr if w is None else kern.gp(w, arr)
    sign = -1.0 if rs.rank % 2 else 1.0
    wrev = kern.rev(w)
    mat = np.empty((n, n))
    for j in range(n):
        ej = np.zeros(kern.D)
        ej[1 << j] = 1.0
        img = sign * kern.gp(kern.gp(wrev, ej), w)
        mat[:, j] = img[[1 << i for i in range(n)]]
    power = mat.copy()
    eye = np.eye(n)
    for k in range(1, max_power + 1):
        if np.max(np.abs(power - eye)) <= 1e-9:
            return k
        power = power @ mat
    raise ClosureCapExceeded(f"coxeter element order exceeded {max_power}")


# -- serialization ---------------------------------------------------------------


def group_table_dict(group, eps: float = DEFAULT_EPS) -> dict:
    """Group-table JSON form: kind, order, and the conjugacy class list."""
    classes = []
    for cl in group.conjugacy_classes():
        classes.append({
            "size": cl.size,
            "order": cl.element_order,
            "representative": cl.representative.mv.to_json_dict(eps),
            "members": [m.mv.to_json_dict(eps) for m in cl.members],
        })
    return {"kind": group.kind, "order": group.order, "classes": classes}
