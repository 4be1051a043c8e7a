"""Root systems generated by reflection closure.

A root system here is a finite set of unit grade-1 multivectors in Cl(n,0)
closed under reflection in each of its members, with no scalar multiples
beyond the antipode.  Systems are built by closing a simple-root seed set
under all reflections; the catalog provides standard seeds whose closures
have the classical root counts (A3 -> 12, B3 -> 18, H3 -> 30, E8 -> 240, ...).

Simple roots in the catalog are unit length and pairwise at the obtuse
angles pi - pi/m read off the Coxeter diagram.  Where no explicit coordinate
choice matters, seeds are constructed from the diagram Gram matrix by
Cholesky factorization.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .algebra import (
    BLOCK,
    DEFAULT_EPS,
    KEY_BOUND,
    Multivector,
    Signature,
    _check_cap,
    find_ids,
    key_ids,
    lex_sorted,
    orbit,
    vector,
)
from .errors import UnknownCatalogName, VersorlabError

__all__ = [
    "AxiomReport",
    "CartanMatrix",
    "DiagramEdge",
    "RootSystem",
    "cartan_matrix",
    "catalog",
    "catalog_names",
    "check_axioms",
    "close_roots",
    "diagram",
    "rootsystem_from_dict",
]

MAX_ROOTS = 10_000


class RootSystem:
    """Finite reflection-closed set of unit vectors, with its simple-root seed and, from
    ``close_roots``, its closure's reflection graph: ``simple[k]``, the row of simple root k,
    and ``reflections[k, i]``, the row of root i reflected in simple root k.  A system built
    by hand has neither, and Pin, Spin, ``coxeter_matrix`` and all else that reads them refuse it."""

    def __init__(self, sig: Signature, simple_coords: np.ndarray, coords: np.ndarray,
                 name: Optional[str] = None, simple=None, reflections=None):
        self.sig, self.name, self.simple, self.reflections = sig, name, simple, reflections
        self.simple_coords = np.asarray(simple_coords, dtype=np.float64)
        self.coords = np.asarray(coords, dtype=np.float64)
        for arr in (self.simple_coords, self.coords, simple, reflections):
            if arr is not None:
                arr.setflags(write=False)
        if reflections is not None and not (
                (self.coords[simple] == self.simple_coords).all()
                and (np.sort(reflections, axis=1) == np.arange(self.root_count)).all()):
            raise VersorlabError("the simple reflections do not permute the roots")

    def simple_reflections(self) -> tuple[np.ndarray, np.ndarray]:
        """``(simple, reflections)``, or a ``VersorlabError`` for a system built by hand."""
        if self.reflections is None:
            raise VersorlabError(f"{self!r} was built by hand and has no reflection graph; "
                                 "build it with close_roots or catalog")
        return self.simple, self.reflections

    @cached_property
    def coxeter_matrix(self) -> np.ndarray:
        """Read-only m[a, b], the order of s_a s_b (Humphreys 1990, 5.3), 1 on the diagonal.
        s_a s_b rotates the plane of simple roots a and b and fixes its complement, so m_ab is
        the least k with (s_a s_b)^k a = a: one gather per step on the graph, every pair at once."""
        simple, refl = self.simple_reflections()
        a, b = np.indices((self.rank, self.rank))
        m, x, k = np.zeros(a.shape, dtype=np.intp), simple[a], 0
        while not m.all():  # each s_a s_b permutes the roots, so every pair returns
            x, k = refl[a, refl[b, x]], k + 1
            m[(m == 0) & (x == simple[a])] = k
        m.setflags(write=False)
        return m

    @property
    def rank(self) -> int:
        return self.simple_coords.shape[0]

    @property
    def root_count(self) -> int:
        return self.coords.shape[0]

    @property
    def roots(self) -> tuple[Multivector, ...]:
        return tuple(vector(self.sig, r) for r in self.coords)

    def __repr__(self):
        label = self.name or "?"
        return f"<RootSystem {label}: rank {self.rank}, {self.root_count} roots in Cl{tuple(self.sig)}>"


def _reflect_pairs(roots: np.ndarray, mirrors: np.ndarray) -> np.ndarray:
    """[i, j] = root i reflected in unit mirror j (einsum: BLAS rounding varies by shape)."""
    dots = np.einsum("id,jd->ij", roots, mirrors)
    return roots[:, None, :] - 2.0 * dots[:, :, None] * mirrors[None, :, :]


def close_roots(simple_roots, sig: Optional[Signature] = None, *, name: Optional[str] = None,
                max_roots: int = MAX_ROOTS) -> RootSystem:
    """Reflection closure of +-(normalized simple roots).

    The orbit of +-simple under the reflections in the simple mirrors.  The
    reflection in w(s) is w s w^-1, so this is also the closure under
    reflection in every root found (Humphreys 1990, section 1.5), and the orbit's
    graph is W acting on the roots.  Raises ClosureCapExceeded past ``max_roots``
    roots, which signals a non-finite (or degenerate) seed configuration.
    """
    simple = np.asarray(simple_roots, dtype=np.float64)
    with np.errstate(over="ignore"):
        finite = simple.ndim == 2 and np.isfinite(np.sum(simple * simple, axis=1)).all()
    if not (finite and simple.size):
        raise VersorlabError("simple_roots must be a non-empty list of coordinate rows, "
                             "finite and with finite squared lengths")
    sig = Signature(simple.shape[1], 0) if sig is None else sig
    if sig.q != 0:
        raise ValueError("root systems require a positive-definite signature")
    if simple.shape[1] != sig.dim:
        raise ValueError("coordinate length does not match signature dimension")
    _check_cap("max_roots", max_roots)
    norms = np.linalg.norm(simple, axis=1)
    if np.any(short := norms < DEFAULT_EPS):
        i = int(np.argmax(short))
        raise ValueError(f"simple root {i + 1} has length {float(norms[i])!r}, below the "
                         f"tolerance {DEFAULT_EPS!r}")
    if np.linalg.matrix_rank(simple, tol=1e-8) < simple.shape[0]:
        raise ValueError("simple roots must be linearly independent")
    simple = simple / norms[:, None]
    coords, graph = orbit(np.vstack([simple, -simple]), simple, _reflect_pairs, max_roots,
                   "reflection closure exceeded {cap} roots; seed is likely not a finite system")
    # the orbit's first rows are its distinct seeds: simple root k is row k (RootSystem checks)
    coords, graph, ids = lex_sorted(coords, graph, np.arange(simple.shape[0]))
    return RootSystem(sig, simple, coords, name=name, simple=ids, reflections=graph.T)


class AxiomViolation(NamedTuple):
    reason: str
    witness: tuple


class AxiomReport(NamedTuple):
    """Outcome of the two root-system axioms, with first counterexamples."""

    scalar_multiples_ok: bool
    reflection_closed: bool
    scalar_violation: Optional[AxiomViolation]
    reflection_violation: Optional[AxiomViolation]

    @property
    def ok(self) -> bool:
        return self.scalar_multiples_ok and self.reflection_closed


def check_axioms(roots) -> AxiomReport:
    """Check the two defining axioms on an explicit root set.

    Axiom 1: the only scalar multiples of a root in the set are itself and
    its antipode (which must be present).  Axiom 2: the set is closed under
    reflection in each of its members.  Each reports the first witness of a
    scan over (mirror, root) pairs in row order, skipping row i where the
    first row with -row i's key is earlier and exactly -row i: as a mirror it
    repeats that row's images and, with every antipode present, as a root it
    fails where that row does.  E8 thus makes 14 400 images, not 57 600.  Parallel means
    within ``DEFAULT_EPS``.  ``roots``: non-empty 2-D, rows of length in (0, ``KEY_BOUND``).
    """
    coords = roots.coords if isinstance(roots, RootSystem) else np.asarray(roots, np.float64)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(coords, axis=1) if coords.ndim == 2 and coords.size else None
    if norms is None or not ((norms > 0) & (norms < KEY_BOUND)).all():  # NaN fails both
        raise VersorlabError("roots must be a non-empty 2-D array of finite coordinate rows "
                             f"with lengths above 0 and below KEY_BOUND = {KEY_BOUND:.4g}")
    n, d = coords.shape
    index = {}
    # ids[j] == neg_ids[i] iff root j has the quantized key of -root i
    ids, neg_ids = key_ids(coords, index), find_ids(-coords, index)
    partner = np.unique(ids, return_index=True)[1][neg_ids]  # if absent, a row not -row i
    mirror = ~((partner < np.arange(n)) & np.all(coords[partner] == -coords, axis=1))
    src = np.flatnonzero(mirror) if np.all(neg_ids >= 0) else np.arange(n)
    unit = coords / norms[:, None]
    scalar_bad = refl_bad = None
    # roots i in blocks, scanned in order: each axiom keeps its first witness
    step = max(1, BLOCK // (n * d))
    for i0 in range(0, n, step):
        rows = np.arange(i0, min(i0 + step, n))
        if scalar_bad is None:
            # parallel pairs must be exact antipodes; the antipode is tested first
            par = np.abs(np.abs(coords[rows] @ coords.T) - norms[rows, None] * norms) <= DEFAULT_EPS
            par[np.arange(rows.size), rows] = False
            bad = np.column_stack([neg_ids[rows] < 0, par & (ids != neg_ids[rows, None])])
            hits = np.argwhere(bad)
            if hits.size:
                i, j = rows[hits[0, 0]], hits[0, 1] - 1
                scalar_bad = (AxiomViolation("missing antipode", (tuple(coords[i]),)) if j < 0
                              else AxiomViolation("scalar multiple besides the antipode",
                                                  (tuple(coords[i]), tuple(coords[j]))))
        if refl_bad is None:
            # imgs[j, r]: each source root j reflected in each mirror r of the block
            mirrors = rows[mirror[rows]]
            imgs = _reflect_pairs(coords[src], unit[mirrors])
            hits = np.argwhere(find_ids(imgs, index).T < 0)
            if hits.size:
                r, j = hits[0]
                refl_bad = AxiomViolation(
                    "reflection image not in set",
                    (tuple(coords[mirrors[r]]), tuple(coords[src[j]]), tuple(imgs[j, r])))
        if scalar_bad is not None and refl_bad is not None:
            break
    return AxiomReport(scalar_bad is None, refl_bad is None, scalar_bad, refl_bad)


class CartanMatrix:
    """Matrix of 2(a_i|a_j)/(a_j|a_j) over the simple roots."""

    def __init__(self, entries: np.ndarray):
        self.entries = np.asarray(entries, dtype=np.float64)
        self.entries.setflags(write=False)

    @property
    def rank(self) -> int:
        return self.entries.shape[0]

    def is_integral(self) -> bool:
        return bool(np.max(np.abs(self.entries - np.round(self.entries))) <= DEFAULT_EPS)

    def __repr__(self):
        return f"CartanMatrix({np.round(self.entries, 6).tolist()})"


def cartan_matrix(rs: RootSystem) -> CartanMatrix:
    s = rs.simple_coords
    gram = s @ s.T
    return CartanMatrix(2.0 * gram / np.diag(gram)[None, :])


class DiagramEdge(NamedTuple):
    i: int  # 1-based simple root indices
    j: int
    m: int


def diagram(rs: RootSystem) -> list[DiagramEdge]:
    """Coxeter diagram edges (i, j, m), 1-based, for each pair with m > 2 in
    ``rs.coxeter_matrix``.  Each pair of simple roots must sit at the angle pi - pi/m its m
    names: a cosine within ``DEFAULT_EPS`` of 0 for m = 2, else pi / acos(-cos) within 1e-6 m
    of m.  An acute or non-simple seed raises ValueError naming the pair."""
    s, m, edges = rs.simple_coords, rs.coxeter_matrix.tolist(), []
    cos = (s @ s.T).tolist()  # unit roots
    for i in range(rs.rank):
        for j in range(i + 1, rs.rank):
            c, mij = cos[i][j], m[i][j]
            if mij == 2 and abs(c) <= DEFAULT_EPS:
                continue
            if not (mij > 2 and -1 < c < 0 and abs(math.pi / math.acos(-c) - mij) <= 1e-6 * mij):
                raise ValueError(f"simple roots {i + 1},{j + 1} are not at the angle "
                                 f"pi - pi/{mij} of their Coxeter label (cos = {c})")
            edges.append(DiagramEdge(i + 1, j + 1, mij))
    return edges


# -- catalog -------------------------------------------------------------------

_SQ2 = math.sqrt(2)

_EXPLICIT_SEEDS = {
    "A1": [[1.0]],
    "A1^3": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]],
    "A1^4": [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]],
    # the tetrahedral choice: a1 = (e2-e1)/sqrt2, a2 = (e3-e2)/sqrt2, a3 = (e1+e2)/sqrt2
    "A3": [[-1 / _SQ2, 1 / _SQ2, 0], [0, -1 / _SQ2, 1 / _SQ2], [1 / _SQ2, 1 / _SQ2, 0]],
    "B3": [[1 / _SQ2, -1 / _SQ2, 0], [0, 1 / _SQ2, -1 / _SQ2], [0, 0, 1.0]],
    "D4": [[1 / _SQ2, -1 / _SQ2, 0, 0], [0, 1 / _SQ2, -1 / _SQ2, 0],
           [0, 0, 1 / _SQ2, -1 / _SQ2], [0, 0, 1 / _SQ2, 1 / _SQ2]],
    "F4": [[0, 1 / _SQ2, -1 / _SQ2, 0], [0, 0, 1 / _SQ2, -1 / _SQ2],
           [0, 0, 0, 1.0], [0.5, -0.5, -0.5, -0.5]],
}

# (rank, [(i, j, m), ...]); plain edges carry m = 3
_DIAGRAM_SEEDS = {
    "H3": (3, [(1, 2, 5), (2, 3, 3)]),
    "H4": (4, [(1, 2, 5), (2, 3, 3), (3, 4, 3)]),
    "E6": (6, [(1, 2, 3), (1, 3, 3), (3, 4, 3), (1, 5, 3), (5, 6, 3)]),
    "E7": (7, [(1, 2, 3), (1, 3, 3), (3, 4, 3), (1, 5, 3), (5, 6, 3), (6, 7, 3)]),
    "E8": (8, [(1, 2, 3), (1, 3, 3), (3, 4, 3), (1, 5, 3), (5, 6, 3), (6, 7, 3), (7, 8, 3)]),
}

_I2_RE = re.compile(r"^I2\((\d+)\)$")


def _seeds_from_diagram(rank: int, edges) -> np.ndarray:
    gram = np.eye(rank)
    for i, j, m in edges:
        gram[i - 1, j - 1] = gram[j - 1, i - 1] = -math.cos(math.pi / m)
    return np.linalg.cholesky(gram)


def catalog_names() -> list[str]:
    return sorted(_EXPLICIT_SEEDS) + sorted(_DIAGRAM_SEEDS) + ["I2(n)"]


def _catalog_seed(name: str) -> np.ndarray:  # the name's standard simple roots, one per row
    if name in _EXPLICIT_SEEDS:
        return np.asarray(_EXPLICIT_SEEDS[name], dtype=np.float64)
    if name in _DIAGRAM_SEEDS:
        return _seeds_from_diagram(*_DIAGRAM_SEEDS[name])
    if m := _I2_RE.match(name):
        if int(m.group(1)) < 3:
            raise UnknownCatalogName(f"I2(n) needs n >= 3, got {name}")
        return _seeds_from_diagram(2, [(1, 2, int(m.group(1)))])
    raise UnknownCatalogName(
        f"unknown root system {name!r}; known: {', '.join(catalog_names())}")


def catalog(name: str, max_roots: int = MAX_ROOTS) -> RootSystem:
    """Build a named root system by closing its standard simple-root seed."""
    return close_roots(_catalog_seed(name), name=name, max_roots=max_roots)


# -- serialization -------------------------------------------------------------


def rootsystem_from_dict(d: dict, max_roots: int = MAX_ROOTS) -> RootSystem:
    """Close ``{"simple_roots": [...], "sig": [p, q], "name": ...}`` (the last two optional);
    a wrong field type raises ``VersorlabError`` and a bad number ``np.asarray``'s ValueError."""
    if not isinstance(d, dict):
        raise VersorlabError("a root system must be a JSON object")
    if not isinstance(d.get("simple_roots"), (list, str)):
        raise VersorlabError('"simple_roots" must be a list of coordinate rows')
    if "sig" in d and not (isinstance(d["sig"], list) and len(d["sig"]) == 2
                           and all(type(x) is int for x in d["sig"])):
        raise VersorlabError('"sig" must be a pair of integers [p, q]')
    if "name" in d and not isinstance(d["name"], str):
        raise VersorlabError('"name" must be a string')
    sig = Signature(*d["sig"]) if "sig" in d else None
    try:
        simple = np.asarray(d["simple_roots"], dtype=np.float64)
    except TypeError:  # an object or a list where a number belongs
        raise VersorlabError('"simple_roots" must be a list of coordinate rows') from None
    return close_roots(simple, sig, name=d.get("name"), max_roots=max_roots)
