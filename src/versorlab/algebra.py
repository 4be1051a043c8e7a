"""Dense multivector arithmetic for real Clifford algebras Cl(p, q) with p + q <= 8.

Basis blades are indexed by bitmask: bit i set means the generator e_{i+1} is a factor of the
blade, with factors stored in ascending index order.  Generator e_{i+1} squares to +1 for i < p
and to -1 otherwise.  A multivector is a dense float64 coefficient vector over all 2**(p+q)
blades.  Every geometric product, single or batched, is one contraction of A against B's signed
D x D operand, gathered by per-signature tables (``_Kernel``).

Two numbers decide sameness and closeness:

* ``HASH_GRID`` (1e-6): ``quantize`` rounds each coefficient once to this grid, giving the
  integer key that is identity: ``==``, ``hash``, sets, ``key_ids`` and ``find_ids`` all compare
  keys.  Quantities in this package (halves, 1/sqrt(2), the golden ratio, ...) sit far from
  cell boundaries.
* ``DEFAULT_EPS`` (1e-9): the tolerance of every floating comparison, ``close_to`` among them.
  ``Versor``, ``is_grade`` and ``sandwich`` test one object on one ``tolist()`` of its floats,
  each within eps (mv * ~mv within eps max(1, sum c^2) < 1/2), so that a NaN or an inf fails.

The package's one set of key helpers sits next to ``quantize``: ``row_keys`` (a void view of
quantized rows), ``lex_order``, and one dict of key bytes per table, which ``key_ids`` fills (a
new key takes the next id) and ``find_ids`` reads (-1 where a key is absent), ``FIND_ROWS`` rows
at a time.  On them stands ``orbit``, the one closure routine for roots and reflection groups,
which also returns the orbit's graph, which row each action hit, and finds a block's new rows
where its running maximum id first reaches each new id.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import ClosureCapExceeded, NotAVersor, SignatureMismatch, VersorlabError

DEFAULT_EPS = 1e-9
HASH_GRID = 1e-6
KEY_BOUND = 2.0 ** 62 * HASH_GRID  # about 4.6e12: half the range where keys are int64
MAX_DIM = 8
BLOCK = 1 << 22  # floats per block of a batched computation
FIND_ROWS = 4096  # rows keyed at a time by find_ids
SIGNED_GATHER = 64  # blades from which a single product gathers its signed operand in one pass
_REAL = (int, float, numbers.Real)  # int and float first skip the slow ABC instance check
_einsum = getattr(np.einsum, "_implementation", np.einsum)  # np.einsum, minus its dispatch

__all__ = [
    "DEFAULT_EPS",
    "HASH_GRID",
    "MAX_DIM",
    "Signature",
    "Multivector",
    "Versor",
    "basis",
    "blade",
    "blade_name",
    "exp_bivector",
    "geometric_product",
    "reflect",
    "sandwich",
    "scalar_mv",
    "vector",
]


@dataclass(frozen=True)
class Signature:
    """Metric signature (p, q): p generators square to +1, q to -1."""

    p: int
    q: int = 0

    def __post_init__(self):
        p, q = self.p, self.q
        if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in (p, q)):
            raise ValueError(f"signature p and q must be integers (not bools), got ({p!r}, {q!r})")
        if p < 0 or q < 0 or p + q < 1 or p + q > MAX_DIM:
            raise ValueError(f"signature ({p},{q}) out of range, need 1 <= p+q <= {MAX_DIM}")
        object.__setattr__(self, "p", int(p))
        object.__setattr__(self, "q", int(q))

    @property
    def dim(self) -> int:
        return self.p + self.q

    @property
    def blade_count(self) -> int:
        return 1 << self.dim

    def __repr__(self):
        return f"Signature({self.p},{self.q})"

    def __iter__(self):
        return iter((self.p, self.q))


class _Kernel:
    """Per-signature product tables, shared by all multivectors of that signature.

    The blade product e_a e_b is +-e_(a^b) (bitmap blades, Dorst, Fontijne &
    Mann 2007, ch. 19).  With ``xor[a, k] = a ^ k`` and ``sign[a, k]`` the
    sign of e_a e_(a^k), output blade k of A B is sum_a A[a] B[a^k] sign[a, k]:
    every product, single or batched, is that one contraction.  Its operand
    sign[a, k] B[a^k] is one gather off [B, -1.0 * B] by ``signed_xor`` (a ^ k,
    plus D where the sign is -1); a product with +-1.0 is exact, so the floats
    are the same, and a batch holds one D x D operand per row, not two.  Single
    products below ``SIGNED_GATHER`` blades gather, then sign: faster there.

    Built once per signature and cached with it: ``grades`` (the grade of each blade),
    ``blade_names`` (indexed by mask), ``grade_masks[g]``, the read-only mask of grade g,
    and ``off_grade[g]``, the tuple of the other blades, the parity masks ``odd`` and
    ``even`` and their tuples of blades ``parity_blades``, and the metric diagonal ``metric``
    (``metric[a] = sign[a, 0]``, the scalar e_a e_a).  The scalar part of A B is sum_a A[a]
    B[a] metric[a]; ``scalar_part`` takes that sum in the contraction's own order, so it
    equals ``gp(A, B)[0]`` bit for bit, row by row over leading axes.
    """

    def __init__(self, p: int, q: int):
        self.p, self.q = p, q
        n = p + q
        self.n = n
        D = 1 << n
        self.D = D
        blades = np.arange(D)
        bits = blades[:, None] >> np.arange(n) & 1  # bits[a, i]: e_{i+1} divides blade a
        self.grades = bits.sum(axis=1)
        self.blade_names = tuple(blade_name(a) for a in range(D))
        # reverse flips blade factor order: sign (-1)^(k(k-1)/2) per grade k
        self.rev_sign = np.where((self.grades * (self.grades - 1) // 2) % 2, -1.0, 1.0)
        # e_a e_b: one transposition per factor pair (i in a, j in b) with i > j,
        # and one -1 per shared generator that squares to -1
        swaps = bits @ (np.cumsum(bits, axis=1) - bits).T
        negs = (bits * (np.arange(n) >= p)) @ bits.T
        self.xor = blades[:, None] ^ blades[None, :]
        self.sign = np.where((swaps + negs) % 2, -1.0, 1.0)[blades[:, None], self.xor]
        self.signed_xor = self.xor + D * (self.sign < 0)  # sign[a, k] * B[a ^ k] in [B, -B]
        self.metric = self.sign[:, 0].copy()
        self.grade_masks = tuple(self.grades == g for g in range(n + 1))
        self.odd = self.grades % 2 == 1
        self.even = ~self.odd
        self.off_grade = tuple(tuple(np.flatnonzero(~m).tolist()) for m in self.grade_masks)
        self.parity_blades = tuple(tuple(np.flatnonzero(m).tolist()) for m in (self.odd, self.even))
        for arr in (self.metric, self.odd, self.even, *self.grade_masks):
            arr.setflags(write=False)

    def gp(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.D < SIGNED_GATHER:
            return _einsum("a,ak->k", a, b[self.xor] * self.sign)
        return _einsum("a,ak->k", a, np.concatenate((b, b * -1.0))[self.signed_xor])

    def scalar_part(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """``gp(a, b)[0]``, the same floats, of each pair of rows over broadcast leading axes."""
        return _einsum("...a,...a,a->...", A, B, self.metric)

    def gp_elemwise(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Broadcasting batched product over leading axes of (..., D) arrays."""
        return _einsum("...a,...ak->...k", A,
                         np.concatenate((B, B * -1.0), axis=-1)[..., self.signed_xor])

    def rev(self, A: np.ndarray) -> np.ndarray:
        return A * self.rev_sign


@lru_cache(maxsize=None)
def _kernel(p: int, q: int) -> _Kernel:
    return _Kernel(p, q)


def kernel_for(sig: Signature) -> _Kernel:
    return _kernel(sig.p, sig.q)


def quantize(arr: np.ndarray) -> np.ndarray:
    """Snap float coefficients to the canonical integer grid, rounding once: the int64
    key has room for magnitudes below 2**63 * HASH_GRID, about 9.2e12 (see KEY_BOUND)."""
    return np.rint(arr / HASH_GRID).astype(np.int64)


def qkey(arr: np.ndarray) -> bytes:
    return quantize(arr).tobytes()


def row_keys(arr: np.ndarray) -> np.ndarray:
    """One opaque ``np.void`` key per row of quantized coefficients.

    Keys are equal exactly when the quantized rows are; they sort in a fixed
    total order that is not the lexicographic one (see ``lex_order``).
    """
    q = np.ascontiguousarray(quantize(arr))
    return q.view(np.dtype((np.void, q.itemsize * q.shape[-1]))).reshape(q.shape[:-1])


def lex_order(arr: np.ndarray) -> np.ndarray:
    """Stable row permutation sorting quantized rows lexicographically."""
    return np.lexsort(quantize(arr).T[::-1])


def lex_sorted(arr: np.ndarray, graph: np.ndarray, *indices: np.ndarray) -> tuple:
    """Rows of arr in lex order, and their graph (and any arrays of row indices) renumbered."""
    order = lex_order(arr)
    rank = np.argsort(order)
    return (arr[order], rank[graph[order]], *(rank[i] for i in indices))


def key_ids(arr: np.ndarray, index: dict) -> np.ndarray:
    """Each row's id in ``index``, a dict of key bytes; a new key gets the next id, in row order."""
    return np.array([index.setdefault(key, len(index)) for key in row_keys(arr).tolist()],
                    dtype=np.intp)


def find_ids(arr: np.ndarray, index: dict) -> np.ndarray:
    """Each row's id in ``index``, a dict of key bytes, or -1 where absent; rows are
    keyed ``FIND_ROWS`` at a time, so the key bytes alive do not grow with the rows."""
    rows = arr.reshape(-1, arr.shape[-1])
    out = np.empty(rows.shape[0], dtype=np.intp)
    for i in range(0, rows.shape[0], FIND_ROWS):
        out[i:i + FIND_ROWS] = [index.get(key, -1)
                                for key in row_keys(rows[i:i + FIND_ROWS]).tolist()]
    return out.reshape(arr.shape[:-1])


def orbit(seeds: np.ndarray, gens: np.ndarray, act, cap: int,
          message: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Orbit of the rows of ``seeds`` under ``gens`` by breadth-first search, at most ``cap`` rows.

    ``act(A, gens)`` acts on each row of A by each generator, shape
    (len(A), len(gens), width); each layer acts on the rows the last one
    found, in row blocks of at most ``BLOCK`` results (none is wider than a
    generator).  Each result is looked up by key in a dict of the known rows,
    where a new key takes the next row index: rows keep their first-seen
    order and the value of their first path, whatever the block size; a block's
    new rows are where its running maximum id first reaches each new id.  Past
    ``cap`` rows it raises ``ClosureCapExceeded(message.format(cap=cap))``.

    Returns the rows, the distinct seeds first; the graph, ``graph[j, k]`` the row that row j
    hit under generator k; the breadth-first tree, ``first[i]`` = j * len(gens) + k of the
    edge that first reached row s + i, s the seeds' rows; and the layers' row bounds, layer L
    being rows ``layers[L]:layers[L + 1]``, layer 0 the seeds.
    """
    index, edges, known, step = {}, [], [], max(1, BLOCK // max(gens.size, 1))

    def fresh(block, out) -> np.ndarray:  # block's ids; appends to out the rows of the new ids
        start, hit = len(index), key_ids(block, index)
        out.append(block[np.searchsorted(np.maximum.accumulate(hit), np.arange(start, len(index)))])
        return hit

    fresh(seeds, known)
    while known[-1].shape[0]:
        new, found = known[-1], []
        for i in range(0, new.shape[0], step):
            if len(index) > cap:  # the seeds and every block count
                raise ClosureCapExceeded(message.format(cap=cap))
            edges.append(fresh(act(new[i:i + step], gens).reshape(-1, seeds.shape[1]), found))
        known.append(np.concatenate(found))
    layers = np.cumsum([0, *map(len, known)])[:-1]  # the last layer is empty
    known, graph = np.concatenate(known), np.concatenate(edges)
    # ids are handed out in order: a row's first edge is where the running maximum id reaches it
    first = np.flatnonzero(np.diff(np.maximum.accumulate(np.r_[layers[1] - 1, graph])))
    return known, graph.reshape(known.shape[0], -1), first, layers


def blade_name(mask: int) -> str:
    if mask == 0:
        return "1"
    return "e" + "".join(str(i + 1) for i in range(MAX_DIM) if mask >> i & 1)


def _term_rows(names, rows: np.ndarray, table, join) -> list:
    """``join`` of each row's terms in blade order, one per c with |c| > DEFAULT_EPS in row (n, D)
    ``rows``, tested on the raw float (a NaN is kept): the one mask behind every listing.  Each
    distinct (blade, c, first term of its row) is written once, by one ``table(names, values,
    firsts)`` call on three lists, and rows are gathered from that table."""
    i, b = np.nonzero(~(np.abs(rows) <= DEFAULT_EPS))
    kb = 2 * b + np.concatenate(([True], i[1:] != i[:-1]))[:b.size]  # 1 more on a row's first term
    order = np.lexsort((kb, c := rows[i, b]))  # one sort; each NaN stays its own entry
    c, kb = c[order], kb[order]
    new = np.concatenate(([True], (c[1:] != c[:-1]) | (kb[1:] != kb[:-1])))[:c.size]
    made = table(np.asarray(names, object)[kb[new] >> 1].tolist(), c[new].tolist(),
                 (kb[new] & 1).tolist())
    terms = np.empty(c.size, object)
    terms[order] = np.fromiter(made, object, len(made))[np.cumsum(new) - 1]
    terms, ends = terms.tolist(), i.searchsorted(np.arange(1, len(rows) + 1)).tolist()
    return [join(terms[a:z]) for a, z in zip([0, *ends], ends)]


def _json_dicts(sig: Signature, rows: np.ndarray) -> list:
    """``to_json_dict()`` of each row of (n, D) coefficients."""
    p, q = sig
    return _term_rows(kernel_for(sig).blade_names, rows,
                      lambda names, values, firsts: list(zip(names, values)),
                      lambda terms: {"sig": [p, q], "coeffs": dict(terms)})


def _text_rows(sig: Signature, rows: np.ndarray) -> list:
    """``str`` of each row of (n, D) coefficients: each c with |c| > DEFAULT_EPS in blade
    order, magnitudes to 6 significant digits."""
    def table(names, values, firsts):
        out = []
        for name, c, first, mag in zip(names, values, firsts, [f"{abs(c):.6g}" for c in values]):
            body = mag if name == "1" else (name if mag == "1" else mag + name)
            out.append((("-" if c < 0 else "") if first else ("- " if c < 0 else "+ ")) + body)
        return out

    return _term_rows(kernel_for(sig).blade_names, rows, table, lambda terms: " ".join(terms) or "0")


def _check_cap(name: str, cap: int) -> None:
    """The one check of a size cap where it enters: an integer (not a bool) >= 1."""
    if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1:
        raise VersorlabError(f"{name} must be an integer >= 1, got {cap!r}")


class Multivector:
    """Immutable multivector over a fixed signature.

    Supports +, -, scalar (any ``numbers.Real``) and geometric multiplication
    (*), ~ for reversal.  ``==`` and ``hash`` are both the HASH_GRID key, so
    ``==`` is transitive and equal objects hash alike; ``close_to`` is the
    tolerant comparison.
    """

    __slots__ = ("sig", "coeffs", "_key")

    def __init__(self, sig: Signature, coeffs):
        k = kernel_for(sig)
        arr = np.asarray(coeffs, dtype=np.float64)
        if arr.shape != (k.D,):
            raise ValueError(f"expected {k.D} coefficients for Cl{(sig.p, sig.q)}, got {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, *a):
        raise AttributeError("Multivector is immutable")

    @classmethod
    def _wrap(cls, sig: Signature, arr: np.ndarray) -> "Multivector":
        self = object.__new__(cls)
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "_key", None)
        return self

    # -- arithmetic ---------------------------------------------------------

    def _check_sig(self, other: "Multivector"):
        if self.sig != other.sig:
            raise SignatureMismatch(f"cannot combine Cl{tuple(self.sig)} with Cl{tuple(other.sig)}")

    def __add__(self, other):
        if isinstance(other, Multivector):
            self._check_sig(other)
            return Multivector._wrap(self.sig, self.coeffs + other.coeffs)
        if isinstance(other, _REAL):
            arr = self.coeffs.copy()
            arr[0] += other
            return Multivector._wrap(self.sig, arr)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Multivector):
            self._check_sig(other)
            return Multivector._wrap(self.sig, self.coeffs - other.coeffs)
        return self.__add__(-other) if isinstance(other, _REAL) else NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Multivector._wrap(self.sig, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Versor):
            other = other.mv
        if not isinstance(other, Multivector):
            return self.__rmul__(other)
        self._check_sig(other)
        return Multivector._wrap(self.sig, kernel_for(self.sig).gp(self.coeffs, other.coeffs))

    def __rmul__(self, other):
        if isinstance(other, _REAL):
            return Multivector._wrap(self.sig, self.coeffs * other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, _REAL):
            return Multivector._wrap(self.sig, self.coeffs / other)
        return NotImplemented

    def __invert__(self):
        return self.reverse()

    def reverse(self) -> "Multivector":
        k = kernel_for(self.sig)
        return Multivector._wrap(self.sig, k.rev(self.coeffs))

    def _grade_mask(self, k: int) -> np.ndarray:
        n = self.sig.dim
        if isinstance(k, bool) or not isinstance(k, (int, numbers.Integral)) or not 0 <= k <= n:
            raise ValueError(f"grade {k!r} out of range for Cl{tuple(self.sig)}: integers 0..{n}")
        return kernel_for(self.sig).grade_masks[k]

    def grade(self, k: int) -> "Multivector":
        return Multivector._wrap(self.sig, np.where(self._grade_mask(k), self.coeffs, 0.0))

    def grades_present(self):
        k = kernel_for(self.sig)
        return {g for g in range(k.n + 1)
                if np.abs(self.coeffs[k.grade_masks[g]]).max(initial=0.0) > DEFAULT_EPS}

    def is_grade(self, k: int) -> bool:
        self._grade_mask(k)  # refuses what is not a grade
        return _near_zero(self.coeffs.tolist(), kernel_for(self.sig).off_grade[k])

    # -- views --------------------------------------------------------------

    @property
    def scalar(self) -> float:
        return float(self.coeffs[0])

    def vector_coords(self) -> np.ndarray:
        """Grade-1 coordinates (length p+q)."""
        k = kernel_for(self.sig)
        return self.coeffs[[1 << i for i in range(k.n)]].copy()

    def key(self) -> bytes:
        if self._key is None:
            if not (peak := float(np.abs(self.coeffs).max())) <= KEY_BOUND:  # NaN fails too
                raise VersorlabError(f"Multivector.key() needs coefficients within KEY_BOUND = "
                                     f"{KEY_BOUND:.4g}, got one of magnitude {peak!r}")
            object.__setattr__(self, "_key", qkey(self.coeffs))
        return self._key

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.sig == other.sig and self.key() == other.key()

    def __hash__(self):
        return hash((self.sig, self.key()))

    def close_to(self, other: "Multivector") -> bool:
        return (self.sig == other.sig
                and float(np.max(np.abs(self.coeffs - other.coeffs))) <= DEFAULT_EPS)

    # -- formatting / serialization ------------------------------------------

    def __str__(self):
        return _text_rows(self.sig, self.coeffs[None])[0]

    def __repr__(self):
        return f"<Cl{tuple(self.sig)}: {self}>"

    def to_json_dict(self) -> dict:
        return _json_dicts(self.sig, self.coeffs[None])[0]


# -- constructors -------------------------------------------------------------


def scalar_mv(sig: Signature, value: float) -> Multivector:
    arr = np.zeros(sig.blade_count)
    arr[0] = value
    return Multivector._wrap(sig, arr)


def vector_rows(sig: Signature, coords) -> np.ndarray:
    """Coefficients (..., D) of the vectors with coordinates (..., m) on e1..em, m <= dim."""
    coords = np.asarray(coords, dtype=np.float64)
    out = np.zeros(coords.shape[:-1] + (sig.blade_count,))
    out[..., 1 << np.arange(coords.shape[-1])] = coords
    return out


def vector(sig: Signature, coords) -> Multivector:
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape != (sig.dim,):
        raise ValueError(f"expected {sig.dim} coordinates, got {coords.shape}")
    return Multivector._wrap(sig, vector_rows(sig, coords))


def basis(sig: Signature) -> list[Multivector]:
    """Grade-1 basis vectors [e1, ..., en]."""
    return [blade(sig, 1 << i) for i in range(sig.dim)]


def blade(sig: Signature, spec) -> Multivector:
    """Unit basis blade from its name in the kernel's ``blade_names`` ("1", "e13", ...)
    or its integral bitmask (not a bool)."""
    names = kernel_for(sig).blade_names
    if isinstance(spec, str) and spec in names:
        spec = names.index(spec)
    elif isinstance(spec, bool) or not isinstance(spec, numbers.Integral) or not 0 <= spec < len(names):
        raise ValueError(f"no blade {spec!r} in Cl({sig.p},{sig.q})")
    arr = np.zeros(len(names))
    arr[spec] = 1.0
    return Multivector._wrap(sig, arr)


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    return a * b


def _near_zero(c: list, blades) -> bool:
    """Each c[b] for b in blades within eps: ``is_grade``'s test, on coefficients already listed."""
    eps = DEFAULT_EPS
    return all(-eps <= c[b] <= eps for b in blades)


def _norm_tol(c: list) -> float:
    """``Versor``'s bound on mv * ~mv -+ 1, mv's coefficients c: eps max(1, sum c^2), as its float
    error grows with sum c^2; from 1/2 on it cannot tell +1 from -1 or 0, so it is NaN: all fail."""
    r = math.hypot(*c)  # r * r is sum c^2, or inf where it overflows
    return tol if (tol := DEFAULT_EPS * max(1.0, r * r)) < 0.5 else math.nan


class Versor(object):
    """A multivector that is (numerically) a product of unit vectors.

    Checked where it enters (``Versor(mv)``, ``from_vectors``, ``sandwich`` of a multivector) on
    one ``tolist()`` of mv and of mv * ~mv: support purely even or odd within eps, and mv * ~mv =
    +-1 within ``_norm_tol``, eps max(1, sum c^2); in Cl(p, 0) that moves a verdict by at most
    eps^2, as sum c^2 is mv * ~mv's scalar part.  Both fail closed: a NaN is no versor, nor is an
    mv whose eps sum c^2 reaches 1/2, where in a mixed signature the bound would pass 0 or -1.
    The sign is ``norm_sign`` (-1 is possible in mixed signatures such as Cl(3,1)).  One built
    from versors is not checked again: ``*`` adds parities and multiplies signs, inverses keep them.
    """

    __slots__ = ("mv", "parity", "norm_sign")

    def __init__(self, mv: Multivector):
        k, eps, c = kernel_for(mv.sig), DEFAULT_EPS, mv.coeffs.tolist()
        odd, even = k.parity_blades
        even_only = all(-eps <= c[i] <= eps for i in odd)  # zero within eps on every odd blade
        if not (even_only or all(-eps <= c[i] <= eps for i in even)):
            raise NotAVersor("mixed even/odd support")
        parity = 0 if even_only else 1
        norm, tol = k.gp(mv.coeffs, k.rev(mv.coeffs)), _norm_tol(c)
        s, *rest = norm.tolist()
        if not (abs(abs(s) - 1.0) <= tol and all(-tol <= x <= tol for x in rest)):
            raise NotAVersor(f"mv * ~mv = {Multivector._wrap(mv.sig, norm)} is not a unit "
                             f"scalar (scalar part {s!r})" if tol == tol else
                             "mv * ~mv = +-1 is not decided: eps sum c^2 reaches 1/2")
        object.__setattr__(self, "mv", mv)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "norm_sign", 1 if s > 0 else -1)

    def __setattr__(self, *a):
        raise AttributeError("Versor is immutable")

    @classmethod
    def _of(cls, mv: Multivector, parity: int, norm_sign: int) -> "Versor":
        """The versor mv, unchecked: the library knows its parity and ``norm_sign``."""
        self = object.__new__(cls)
        object.__setattr__(self, "mv", mv)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "norm_sign", norm_sign)
        return self

    @classmethod
    def _trusted(cls, sig: Signature, rows: np.ndarray) -> tuple:
        """Versors of rows the library built as unit versors, unchecked: the parity
        from the odd mask, ``norm_sign`` from each row's scalar part of m ~m."""
        k = kernel_for(sig)
        odd = np.abs(rows[:, k.odd]).max(axis=1, initial=0.0) > DEFAULT_EPS
        norms = k.scalar_part(rows, k.rev(rows))
        return tuple(cls._of(Multivector._wrap(sig, row), int(parity), 1 if s > 0 else -1)
                     for row, parity, s in zip(rows, odd, norms))

    @classmethod
    def from_vectors(cls, vectors: list[Multivector]) -> "Versor":
        if not vectors:
            raise ValueError("need at least one vector")
        first = vectors[0]
        for v in vectors:
            if not isinstance(v, Multivector):
                raise TypeError(f"from_vectors takes Multivectors, got {type(v).__name__}")
            first._check_sig(v)
        return cls(Multivector._wrap(first.sig, reduce(kernel_for(first.sig).gp,
                                                       [v.coeffs for v in vectors])))

    @property
    def sig(self) -> Signature:
        return self.mv.sig

    def __mul__(self, other):
        if isinstance(other, Versor):  # AB ~(AB) = A (B ~B) ~A: the signs multiply
            return Versor._of(self.mv * other.mv, self.parity ^ other.parity,
                              self.norm_sign * other.norm_sign)
        return self.mv * other

    def reverse(self) -> "Versor":
        return Versor._of(self.mv.reverse(), self.parity, self.norm_sign)

    def inverse(self) -> "Versor":
        return Versor._of(self.mv.reverse() * self.norm_sign, self.parity, self.norm_sign)

    def __eq__(self, other):
        if isinstance(other, Versor):
            return self.mv == other.mv
        return NotImplemented

    def __hash__(self):
        return hash(self.mv)

    def __repr__(self):
        return f"<Versor {self.mv}>"

    def apply(self, v: Multivector) -> Multivector:
        return sandwich(v, self)


def sandwich(v: Multivector, A) -> Multivector:
    """Orthogonal action of a unit versor on a vector.

    Returns ~A v A for even A and -~A v A for odd A; the extra sign for odd
    versors makes a single unit vector act as the reflection that fixes its
    orthogonal hyperplane.
    """
    if not isinstance(A, Versor):
        A = Versor(A)
    if v.sig != A.sig:
        raise SignatureMismatch("vector and versor signatures differ")
    if not v.is_grade(1):
        raise ValueError("sandwich expects a grade-1 argument")
    k = kernel_for(v.sig)
    out = k.gp(k.gp(k.rev(A.mv.coeffs), v.coeffs), A.mv.coeffs)
    return Multivector._wrap(v.sig, np.where(k.grade_masks[1], -out if A.parity else out, 0.0))


def reflect(v: Multivector, alpha: Multivector) -> Multivector:
    """Reflection of v in the hyperplane orthogonal to the unit vector alpha: once alpha is
    checked as a mirror, -~alpha v alpha masked to grade 1, ``sandwich``'s floats for v by
    alpha as an odd versor, without its checks again."""
    if v.sig != alpha.sig:
        raise SignatureMismatch("vector and mirror signatures differ")
    if not v.is_grade(1) or not alpha.is_grade(1):
        raise ValueError("reflect expects grade-1 arguments")
    k = kernel_for(v.sig)
    n2 = float(k.scalar_part(alpha.coeffs, alpha.coeffs))
    if not abs(abs(n2) - 1.0) <= DEFAULT_EPS:  # a NaN fails
        raise ValueError(f"mirror vector must be unit, got alpha^2 = {n2}")
    out = k.gp(k.gp(k.rev(alpha.coeffs), v.coeffs), alpha.coeffs)
    return Multivector._wrap(v.sig, np.where(k.grade_masks[1], -out, 0.0))


def exp_bivector(B: Multivector, theta: float) -> Versor:
    """exp(B * theta) = cos(theta) + B sin(theta) for a unit bivector B (B^2 = -1), theta finite."""
    if not math.isfinite(theta):
        raise ValueError(f"exp_bivector needs a finite theta, got {theta!r}")
    if not B.is_grade(2):
        raise ValueError("exp_bivector expects a grade-2 argument")
    k = kernel_for(B.sig)
    sq = k.gp(B.coeffs, B.coeffs)
    if not (abs(sq[0] + 1.0) <= DEFAULT_EPS and np.max(np.abs(sq[1:])) <= DEFAULT_EPS):  # NaN fails
        raise ValueError(f"bivector must square to -1, got B^2 = {Multivector._wrap(B.sig, sq)}")
    arr = B.coeffs * math.sin(theta)
    arr[0] += math.cos(theta)
    return Versor._of(Multivector._wrap(B.sig, arr), 0, 1)
