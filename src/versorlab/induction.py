"""4D root systems induced by 3D spin groups.

An even element of Cl(3,0) is a spinor R = a0 + a1 e2e3 + a2 e3e1 + a3 e1e2.
Reading (a0, a1, a2, a3) as coordinates turns a finite spin group into a set
of unit 4D vectors, and that set is itself a root system: the group-level
identity -R1 ~R2 R1 = R2 - 2 (R1,R2)/(R1,R1) R1 shows closure of the set
under 4D reflections.  The three irreducible rank-3 systems plus A1^3 induce
exactly the 4D systems A1^4, D4, F4, H4 this way; the induced simple roots
are the positive roots whose reflection sends only themselves to the negative
side, since a reflection's length counts the positive roots it makes negative
(Humphreys, Reflection Groups and Coxeter Groups, 1.6-1.7).  Left/right group
multiplication X -> L X R acts on the induced roots by symmetries.  The
L X R sweep reads the group's integer table: its rows and columns decide
every pair, the exhaustive count keys the n^2 composites as narrow byte rows
in ``BLOCK``-bounded blocks, and the sampled sweep gathers only its 32-pair
float product, a witness independent of the table like ``reflection_agreement``.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional, Union

import numpy as np

from .algebra import (
    BLOCK,
    DEFAULT_EPS,
    Multivector,
    Signature,
    Versor,
    find_ids,
    kernel_for,
    lex_order,
    quantize,
    row_keys,
)
from .errors import SymmetrySweepFailure, VersorlabError
from .groups import VersorGroup, _spinor_coords
from .roots import RootSystem, catalog, check_axioms

__all__ = [
    "AutomorphismSweep",
    "InducedRootSystem4D",
    "ReflectionAgreement",
    "identify_4d",
    "induce_4d",
    "reflection_agreement",
    "spinor_coords",
    "spinor_inner",
    "spinorial_automorphisms",
]

_SIG3 = Signature(3, 0)
_SIG4 = Signature(4, 0)


def _even_coeffs(R: Union[Versor, Multivector]) -> np.ndarray:
    mv = R.mv if isinstance(R, Versor) else R
    if mv.sig != _SIG3:
        raise VersorlabError("spinor operations live in Cl(3,0)")
    if not mv.grades_present() <= {0, 2}:
        raise VersorlabError("spinor operations expect even multivectors")
    return mv.coeffs


def spinor_coords(R: Union[Versor, Multivector]) -> np.ndarray:
    """4D coordinates (a0, a23, a31, a12) of an even Cl(3,0) element."""
    return _spinor_coords(_even_coeffs(R))


def spinor_inner(R1, R2) -> float:
    """Symmetrized product (R1 ~R2 + R2 ~R1)/2; a plain scalar for spinors."""
    c1, c2 = _even_coeffs(R1), _even_coeffs(R2)
    k = kernel_for(_SIG3)
    sym = 0.5 * (k.gp(c1, k.rev(c2)) + k.gp(c2, k.rev(c1)))
    if np.max(np.abs(sym[1:])) > DEFAULT_EPS:
        raise VersorlabError("symmetrized spinor product is not scalar")
    return float(sym[0])


class InducedRootSystem4D(NamedTuple):
    base: RootSystem
    source: VersorGroup
    identification: str

    @property
    def root_count(self) -> int:
        return self.base.root_count

    def __repr__(self):
        src = self.source.source.name if self.source.source else "?"
        return (f"<InducedRootSystem4D {self.identification} "
                f"({self.base.root_count} roots from Spin({src}))>")


def _generic_functional(coords: np.ndarray) -> np.ndarray:
    n = coords.shape[1]
    f = np.array([math.pi ** -i for i in range(n)])
    for attempt in range(64):
        vals = coords @ f
        if np.min(np.abs(vals)) > 1e-8:
            return f
        f = f + (attempt + 1) * 1e-3 * np.arange(1, n + 1)
    raise VersorlabError("could not find a functional separating the roots")


def _extract_simple_coords(coords: np.ndarray) -> np.ndarray:
    """Simple roots: the positive roots whose reflection makes one positive root negative.

    The length of w is the number of positive roots w sends to the negative
    side (Humphreys, Reflection Groups and Coxeter Groups, 1.6-1.7), and the
    simple reflections are the reflections of length 1, so a positive root a
    is simple exactly when s_a inverts a alone.  f(s_a b) = f(b) - 2 (a|b)/(a|a) f(a)
    counts that for every pair at once; images of roots are roots, so no
    value sits within the functional's margin of 0.
    """
    f = _generic_functional(coords)
    P = coords[coords @ f > 0]
    fp, gram = P @ f, P @ P.T
    images = fp[None, :] - 2.0 * (gram / np.diag(gram)[:, None]) * fp[:, None]
    S = P[np.count_nonzero(images < 0, axis=1) == 1]
    if S.shape[0] != coords.shape[1] or np.linalg.matrix_rank(S, tol=1e-8) != coords.shape[1]:
        raise VersorlabError(f"simple-root extraction found {S.shape[0]} indecomposables")
    return S[lex_order(S)]


def induce_4d(group: VersorGroup) -> InducedRootSystem4D:
    """Read a Cl(3,0) spin group as a 4D root system and identify it."""
    if group.kind != "spin" or group.sig != _SIG3:
        raise VersorlabError("induce_4d expects a spin group in Cl(3,0)")
    coords = _spinor_coords(group.element_arr())
    coords = coords[lex_order(coords)]
    simple = _extract_simple_coords(coords)
    rs = RootSystem(_SIG4, simple, coords)
    report = check_axioms(rs)
    if not report.ok:
        raise VersorlabError(f"induced point set violates the root axioms: {report}")
    rs.name = identify_4d(rs)
    return InducedRootSystem4D(rs, group, rs.name)


def _fingerprint(coords: np.ndarray) -> tuple:
    gram = (coords @ coords.T).ravel()
    return coords.shape[0], np.sort(quantize(gram)).tobytes()


@functools.cache
def _catalog_fingerprints() -> dict:
    return {name: _fingerprint(catalog(name).coords) for name in ("A1^4", "D4", "F4", "H4")}


def identify_4d(r: Union[InducedRootSystem4D, RootSystem]) -> str:
    """Catalog label of a 4D root system, by root count and inner-product multiset."""
    fp = _fingerprint(r.base.coords if isinstance(r, InducedRootSystem4D) else r.coords)
    for name, ref in _catalog_fingerprints().items():
        if fp == ref:
            return name
    raise VersorlabError("induced root system matches no 4D catalog entry")


class ReflectionAgreement(NamedTuple):
    pairs_tested: int
    max_deviation: float
    all_in_group: bool


def reflection_agreement(group: VersorGroup) -> ReflectionAgreement:
    """Both reflection routes on every ordered pair of group elements.

    For each (R1, R2) the linear combination R2 - 2 (R1,R2)/(R1,R1) R1 and
    the product -R1 ~R2 R1 are compared, and every image is looked up in the
    group; returns the worst coefficient deviation and the membership verdict.
    """
    if group.kind != "spin" or group.sig != _SIG3:
        raise VersorlabError("reflection_agreement expects a spin group in Cl(3,0)")
    garr, n, kern = group.element_arr(), group.order, kernel_for(_SIG3)
    coords = _spinor_coords(garr)
    gram = coords @ coords.T
    ratio = gram / np.diag(gram)[:, None]
    linear = garr[None, :, :] - 2.0 * ratio[:, :, None] * garr[:, None, :]
    t1 = kern.gp_elemwise(garr[:, None], kern.rev(garr)[None])
    product = -kern.gp_elemwise(t1, garr[:, None, :])
    dev = float(np.max(np.abs(linear - product)))
    all_in = bool(np.all(find_ids(product, group._lookup) >= 0))
    return ReflectionAgreement(n * n, dev, all_in)


class AutomorphismSweep(NamedTuple):
    group_order: int
    pairs_tested: int
    exhaustive: bool
    distinct_images: Optional[int]
    failures: int = 0


def spinorial_automorphisms(r: InducedRootSystem4D, *, pairs: Optional[int] = None,
                            seed: Optional[int] = None) -> AutomorphismSweep:
    """Verify on the group's table that X -> L X R permutes the induced roots.

    Once the induced roots are checked to be the group's spinor coordinates,
    row (L, R) of ``t[t[L], R]`` names the image of every X; it is row L of t,
    then column R, so t's rows and columns, sorted once, decide every pair.
    ``pairs=None`` sweeps all of G x G and counts the distinct permutations,
    keyed as byte rows in blocks of whole L rows, at most ``BLOCK`` entries
    each; otherwise ``pairs`` pairs are drawn from ``seed`` and only the first
    32 are gathered, multiplied out in floats: a witness that the table is right.
    """
    if pairs is not None and not (isinstance(pairs, (int, np.integer)) and pairs >= 1):
        raise VersorlabError(f"pairs must be None or an integer >= 1, got {pairs!r}")
    group = r.source
    garr, n, t = group.element_arr(), group.order, group.table
    if not np.array_equal(np.sort(row_keys(_spinor_coords(garr))),
                          np.sort(row_keys(r.base.coords))):
        raise SymmetrySweepFailure("the induced roots are not the spinor coordinates of the group")
    if pairs is None:
        li, ri = np.divmod(np.arange(n * n), n)
    else:
        rng = np.random.default_rng(seed)
        li, ri = rng.integers(0, n, size=pairs), rng.integers(0, n, size=pairs)
    # row (L, R) is row L of t, then column R: a permutation exactly when both are
    bad = np.flatnonzero(np.any(np.sort(t, axis=1) != np.arange(n), axis=1)[li]
                         | np.any(np.sort(t.T, axis=1) != np.arange(n), axis=1)[ri])
    if bad.size:
        raise SymmetrySweepFailure(f"pair (L={li[bad[0]]}, R={ri[bad[0]]}) is not a symmetry")
    if pairs is None:
        perms, step = set(), max(1, BLOCK // (n * n))  # whole L rows, at most BLOCK entries
        cols = t.T.astype(np.min_scalar_type(n - 1))  # cols[R, Y]: index of Y R, narrow bytes
        for l0 in range(0, n, step):
            imgs = cols.take(t[l0:l0 + step], axis=1)  # imgs[R, L, x]: index of L X R
            perms.update(imgs.view(np.dtype((np.void, n * imgs.itemsize))).ravel().tolist())
        return AutomorphismSweep(n, n * n, True, len(perms))
    l, r, kern = li[:32], ri[:32], kernel_for(_SIG3)
    img = kern.gp_elemwise(kern.gp_elemwise(garr[l, None], garr[None]), garr[r, None])
    bad = np.flatnonzero(np.any(row_keys(img) != row_keys(garr[t[t[l], r[:, None]]]), axis=1))
    if bad.size:
        raise SymmetrySweepFailure(f"pair (L={l[bad[0]]}, R={r[bad[0]]}): "
                                   "the float product disagrees with the table")
    return AutomorphismSweep(n, pairs, False, None)
