"""4D root systems induced by 3D spin groups.

An even element of Cl(3,0) is a spinor R = a0 + a1 e2e3 + a2 e3e1 + a3 e1e2.
Reading (a0, a1, a2, a3) as coordinates turns a finite spin group into a set
of unit 4D vectors, and that set is itself a root system: the group-level
identity -R1 ~R2 R1 = R2 - 2 (R1,R2)/(R1,R1) R1 shows closure of the set
under 4D reflections.  The three irreducible rank-3 systems plus A1^3 induce
exactly the 4D systems A1^4, D4, F4, H4 this way, and left/right group
multiplication X -> L X R acts on the induced roots by symmetries.  The
exhaustive L X R sweep reads the group's integer table; the sampled sweep
and ``reflection_agreement`` are float witnesses independent of it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Union

import numpy as np

from .algebra import (
    DEFAULT_EPS,
    KeyIndex,
    Multivector,
    Signature,
    Versor,
    kernel_for,
    lex_order,
    quantize,
    row_keys,
)
from .errors import SymmetrySweepFailure, VersorlabError
from .groups import VersorGroup
from .roots import RootSystem, catalog, check_axioms

__all__ = [
    "AutomorphismSweep",
    "InducedRootSystem4D",
    "ReflectionAgreement",
    "identify_4d",
    "induce_4d",
    "reflection_agreement",
    "reflection_closure_witness",
    "spinor_coords",
    "spinor_inner",
    "spinorial_automorphisms",
]

_SIG3 = Signature(3, 0)
_SIG4 = Signature(4, 0)
_E12, _E13, _E23 = 0b011, 0b101, 0b110
_COORD_COLS = (0, _E23, _E13, _E12)  # scalar, e2e3, e3e1 (negated), e1e2


def _even_coeffs(R: Union[Versor, Multivector]) -> np.ndarray:
    mv = R.mv if isinstance(R, Versor) else R
    if mv.sig != _SIG3:
        raise VersorlabError("spinor operations live in Cl(3,0)")
    if not {g for g in mv.grades_present()} <= {0, 2}:
        raise VersorlabError("spinor operations expect even multivectors")
    return mv.coeffs


def spinor_coords(R: Union[Versor, Multivector]) -> np.ndarray:
    """4D coordinates (a0, a23, a31, a12) of an even Cl(3,0) element."""
    c = _even_coeffs(R)
    return np.array([c[0], c[_E23], -c[_E13], c[_E12]])


def _coords_of_arr(arr: np.ndarray) -> np.ndarray:
    out = arr[:, list(_COORD_COLS)].copy()
    out[:, 2] = -out[:, 2]
    return out


def spinor_inner(R1, R2) -> float:
    """Symmetrized product (R1 ~R2 + R2 ~R1)/2; a plain scalar for spinors."""
    c1, c2 = _even_coeffs(R1), _even_coeffs(R2)
    k = kernel_for(_SIG3)
    sym = 0.5 * (k.gp(c1, k.rev(c2)) + k.gp(c2, k.rev(c1)))
    if np.max(np.abs(sym[1:])) > 1e-9:
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
    """Indecomposable positive roots for a generic positivity functional.

    A positive root is decomposable iff it is a strictly positive combination
    of two other positive roots; in a reflection-closed unit-root set that
    pairwise test characterizes the non-simple positive roots.
    """
    f = _generic_functional(coords)
    P = coords[coords @ f > 0]
    m = P.shape[0]
    gram = P @ P.T
    diag = np.diag(gram)
    det = diag[:, None] * diag[None, :] - gram ** 2
    simple_rows = []
    for a in range(m):
        target = gram[:, a]
        with np.errstate(divide="ignore", invalid="ignore"):
            c1 = (diag[None, :] * target[:, None] - gram * target[None, :]) / det
            c2 = (diag[:, None] * target[None, :] - gram * target[:, None]) / det
        ok = (np.abs(det) > 1e-9) & (c1 > 1e-9) & (c2 > 1e-9)
        ok[a, :] = False
        ok[:, a] = False
        decomposable = False
        ii, jj = np.nonzero(ok)
        if ii.size:
            res = (c1[ii, jj, None] * P[ii] + c2[ii, jj, None] * P[jj]) - P[a]
            decomposable = bool(np.any(np.max(np.abs(res), axis=1) <= 1e-8))
        if not decomposable:
            simple_rows.append(P[a])
    S = np.array(simple_rows)
    if S.shape[0] != coords.shape[1] or np.linalg.matrix_rank(S, tol=1e-8) != coords.shape[1]:
        raise VersorlabError(f"simple-root extraction found {S.shape[0]} indecomposables")
    return S[lex_order(S)]


def induce_4d(group: VersorGroup) -> InducedRootSystem4D:
    """Read a Cl(3,0) spin group as a 4D root system and identify it."""
    if group.kind != "spin" or group.sig != _SIG3:
        raise VersorlabError("induce_4d expects a spin group in Cl(3,0)")
    coords = _coords_of_arr(group.element_arr())
    coords = coords[lex_order(coords)]
    simple = _extract_simple_coords(coords)
    rs = RootSystem(_SIG4, simple, coords)
    report = check_axioms(rs)
    if not report.ok:
        raise VersorlabError(f"induced point set violates the root axioms: {report}")
    label = _identify_coords(coords)
    rs.name = label
    return InducedRootSystem4D(rs, group, label)


_IDENTIFY_CANDIDATES = ("A1^4", "D4", "F4", "H4")
_FINGERPRINTS: dict = {}


def _fingerprint(coords: np.ndarray) -> tuple:
    gram = (coords @ coords.T).ravel()
    return coords.shape[0], np.sort(quantize(gram)).tobytes()


def _identify_coords(coords: np.ndarray) -> str:
    if not _FINGERPRINTS:
        for name in _IDENTIFY_CANDIDATES:
            _FINGERPRINTS[name] = _fingerprint(catalog(name).coords)
    fp = _fingerprint(coords)
    for name, ref in _FINGERPRINTS.items():
        if fp == ref:
            return name
    raise VersorlabError("induced root system matches no 4D catalog entry")


def identify_4d(r: Union[InducedRootSystem4D, RootSystem]) -> str:
    """Catalog label of a 4D root system, by root count and inner-product multiset."""
    coords = r.base.coords if isinstance(r, InducedRootSystem4D) else r.coords
    return _identify_coords(coords)


def reflection_closure_witness(group: VersorGroup, R1, R2,
                               eps: float = DEFAULT_EPS) -> Versor:
    """Reflect R2 in R1 two ways and confirm the image stays in the group.

    The 4D reflection formula R2 - 2 (R1,R2)/(R1,R1) R1 and the group-level
    product -R1 ~R2 R1 must agree; the common value is returned.
    """
    c1 = _even_coeffs(R1)
    c2 = _even_coeffs(R2)
    if not (group.contains(c1) and group.contains(c2)):
        raise VersorlabError("witness arguments must be group elements")
    k = kernel_for(_SIG3)
    inner12 = spinor_inner(R1, R2)
    inner11 = spinor_inner(R1, R1)
    linear = c2 - (2.0 * inner12 / inner11) * c1
    product = -k.gp(k.gp(c1, k.rev(c2)), c1)
    if np.max(np.abs(linear - product)) > eps:
        raise VersorlabError("reflection formulas disagree")
    if not group.contains(product):
        raise VersorlabError("reflection image left the group")
    return Versor(Multivector(_SIG3, product))


class ReflectionAgreement(NamedTuple):
    pairs_tested: int
    max_deviation: float
    all_in_group: bool


def reflection_agreement(group: VersorGroup, eps: float = DEFAULT_EPS) -> ReflectionAgreement:
    """Both reflection routes on every ordered pair of group elements.

    For each (R1, R2) the linear combination R2 - 2 (R1,R2)/(R1,R1) R1 and
    the product -R1 ~R2 R1 are compared, and every image is looked up in the
    group; returns the worst coefficient deviation and the membership verdict.
    """
    if group.kind != "spin" or group.sig != _SIG3:
        raise VersorlabError("reflection_agreement expects a spin group in Cl(3,0)")
    garr = group.element_arr()
    n = group.order
    kern = kernel_for(_SIG3)
    coords = _coords_of_arr(garr)
    gram = coords @ coords.T
    ratio = gram / np.diag(gram)[:, None]
    linear = garr[None, :, :] - 2.0 * ratio[:, :, None] * garr[:, None, :]
    t1 = kern.gp_pairs(garr, kern.rev(garr))
    product = -kern.gp_elemwise(t1, garr[:, None, :])
    dev = float(np.max(np.abs(linear - product)))
    all_in = bool(np.all(KeyIndex(garr).find(product.reshape(-1, kern.D)) >= 0))
    return ReflectionAgreement(n * n, dev, all_in)


class AutomorphismSweep(NamedTuple):
    group_order: int
    pairs_tested: int
    exhaustive: bool
    distinct_images: Optional[int]
    failures: int = 0


def spinorial_automorphisms(r: InducedRootSystem4D, *, pairs: Optional[int] = None,
                            seed: Optional[int] = None) -> AutomorphismSweep:
    """Verify that X -> L X R permutes the induced roots for (L, R) pairs.

    With ``pairs=None`` every pair in G x G is swept on the group's table and
    the number of distinct index permutations is reported; otherwise ``pairs``
    random pairs from the given seed are multiplied out in floats.
    """
    group = r.source
    garr = group.element_arr()
    n = group.order
    kern = kernel_for(_SIG3)
    canon = np.sort(row_keys(r.base.coords))

    if pairs is not None:
        rng = np.random.default_rng(seed)
        li = rng.integers(0, n, size=pairs)
        ri = rng.integers(0, n, size=pairs)
        chunk = max(1, (1 << 22) // (n * kern.D * kern.D))
        for c0 in range(0, pairs, chunk):
            l, r = li[c0:c0 + chunk], ri[c0:c0 + chunk]
            mid = kern.gp_elemwise(garr[l][:, None, :], garr[None, :, :])
            img = kern.gp_elemwise(mid, garr[r][:, None, :])
            iv = row_keys(_coords_of_arr(img.reshape(-1, kern.D))).reshape(len(l), n)
            iv = np.sort(iv, axis=1)
            bad = np.nonzero(~np.all(iv == canon[None, :], axis=1))[0]
            if bad.size:
                t = c0 + int(bad[0])
                raise SymmetrySweepFailure(f"pair (L={li[t]}, R={ri[t]}) is not a symmetry")
        return AutomorphismSweep(n, pairs, False, None)

    if not np.array_equal(np.sort(row_keys(_coords_of_arr(garr))), canon):
        raise SymmetrySweepFailure("the induced roots are not the spinor coordinates of the group")
    t, ar = group.table, np.arange(n)
    perms = set()
    for l in range(n):
        imgs = t[t[l][None, :], ar[:, None]]  # imgs[r, x]: index of L X R
        bad = np.nonzero(~np.all(np.sort(imgs, axis=1) == ar, axis=1))[0]
        if bad.size:
            raise SymmetrySweepFailure(f"pair (L={l}, R={int(bad[0])}) is not a symmetry")
        perms.update(row.tobytes() for row in imgs.astype(np.int16))
    return AutomorphismSweep(n, n * n, True, len(perms))
