"""4D root systems induced by 3D spin groups.

An even element of Cl(3,0) is a spinor R = a0 + a1 e2e3 + a2 e3e1 + a3 e1e2.
Reading (a0, a1, a2, a3) as coordinates turns a finite spin group into a set
of unit 4D vectors, and that set is itself a root system: the group-level
identity -R1 ~R2 R1 = R2 - 2 (R1,R2)/(R1,R1) R1 shows closure of the set
under 4D reflections, each a permutation of the group's integer table.  One
gather of that table gives every positive root's reflection, and the simple
roots are the ones whose reflection sends a single positive root negative:
no float geometry past the functional that picks the positive side.  The
three irreducible rank-3 systems plus A1^3 induce exactly A1^4, D4, F4, H4
this way, named by their Coxeter matrices, the orders of the products of two
simple reflections (Humphreys, Reflection Groups and Coxeter Groups, 5.3).
Left/right multiplication X -> L X R permutes the induced roots; the sweep
reads the table: its rows and columns decide every pair, the exhaustive count
is n^2 / |Z(G)| with the center counted on the table (a table with no center
is no group's, and refused), and the sampled sweep gathers only its 32-pair
float product, a witness independent of the table like
``reflection_agreement``'s quaternion products.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple, Optional, Union

import numpy as np

from .algebra import (
    DEFAULT_EPS,
    Multivector,
    Signature,
    Versor,
    find_ids,
    kernel_for,
    lex_order,
    lex_sorted,
    quantize,
    row_keys,
)
from .errors import SymmetrySweepFailure, VersorlabError
from .groups import VersorGroup, _spinor_coords
from .roots import RootSystem, catalog

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
        return (f"<InducedRootSystem4D {self.identification} "
                f"({self.base.root_count} roots from Spin({self.source.source.name or '?'}))>")


def _generic_functional(coords: np.ndarray) -> np.ndarray:
    n = coords.shape[1]
    f = np.array([math.pi ** -i for i in range(n)])
    for attempt in range(64):
        if np.min(np.abs(coords @ f)) > 1e-8:
            return f
        f = f + (attempt + 1) * 1e-3 * np.arange(1, n + 1)
    raise VersorlabError("could not find a functional separating the roots")


def induce_4d(group: VersorGroup) -> InducedRootSystem4D:
    """Read a Cl(3,0) spin group as a 4D root system, its simple roots and reflection graph off
    the table.  The reflection in positive root R_a sends R_j to -R_a ~R_j R_a, so one gather of
    the table gives every positive root's row.  The length of w is the number of positive roots
    w sends to the negative side (Humphreys, Reflection Groups and Coxeter Groups, 1.6-1.7), and
    the simple reflections are the reflections of length 1, so a positive root is simple exactly
    when its row sends one positive root negative.  Simple roots come in their lex order."""
    if group.kind != "spin" or group.sig != _SIG3:
        raise VersorlabError("induce_4d expects a spin group in Cl(3,0)")
    coords, t = _spinor_coords(group.element_arr()), group.table
    positive = coords @ _generic_functional(coords) > 0
    pos = np.flatnonzero(positive)
    refl = group._negatives[t[t[pos][:, group.inverses()], pos[:, None]]]  # -R_a ~R_j R_a
    simple = np.flatnonzero(np.count_nonzero(positive & ~positive[refl], axis=1) == 1)
    if simple.size != coords.shape[1]:
        raise VersorlabError(f"simple-root extraction found {simple.size} indecomposables")
    simple = simple[lex_order(coords[pos[simple]])]
    coords, refl, simple = lex_sorted(coords, refl[simple].T, pos[simple])
    rs = RootSystem(_SIG4, coords, simple, refl.T)
    rs.name = identify_4d(rs)
    return InducedRootSystem4D(rs, group, rs.name)


def _coxeter_matrix(rs: RootSystem) -> tuple:
    """Of the relabellings m[o_a, o_b] of ``rs.coxeter_matrix``, the least."""
    m, o = rs.coxeter_matrix, np.array(list(itertools.permutations(range(rs.rank))))
    return min(map(tuple, m[o[:, :, None], o[:, None]].reshape(len(o), -1).tolist()))


@functools.cache
def _catalog_coxeter_matrices() -> dict:
    return {_coxeter_matrix(catalog(name)): name for name in ("A1^4", "D4", "F4", "H4")}


def identify_4d(r: Union[InducedRootSystem4D, RootSystem]) -> str:
    """The name of A1^4, D4, F4 or H4 whose Coxeter matrix, up to relabelling, is the system's."""
    rs = r.base if isinstance(r, InducedRootSystem4D) else r
    if rs.rank != 4 or (name := _catalog_coxeter_matrices().get(_coxeter_matrix(rs))) is None:
        raise VersorlabError("induced root system matches no 4D catalog entry")
    return name


class ReflectionAgreement(NamedTuple):
    pairs_tested: int
    max_deviation: float
    all_in_group: bool


def reflection_agreement(group: VersorGroup) -> ReflectionAgreement:
    """Both reflection routes on every ordered pair of group elements.

    For each (R1, R2) the linear combination R2 - 2 (R1,R2)/(R1,R1) R1 and the product
    -R1 ~R2 R1 are compared as quaternions, R's being the even blades of ~R (Cl(0,2) under
    e12, e13, e23 -> -f1, -f2, -f1f2): that skips only exact zeros of the 8-blade floats.
    An image the table does not name is looked up by value; returns the worst coefficient
    deviation and the membership verdict.
    """
    garr, n, k3 = group.element_arr(), group.order, kernel_for(_SIG3)
    if group.kind != "spin" or group.sig != _SIG3 or garr[:, k3.odd].any():
        raise VersorlabError("reflection_agreement expects a spin group in Cl(3,0), no odd part")
    q, rq, t = k3.rev(garr)[:, k3.even], garr[:, k3.even], group.table  # R and ~R as quaternions
    kern, coords = kernel_for(Signature(0, 2)), _spinor_coords(garr)
    gram = coords @ coords.T
    ratio = gram / np.diag(gram)[:, None]
    linear = q[None, :, :] - 2.0 * ratio[:, :, None] * q[:, None, :]
    product = -kern.gp_elemwise(kern.gp_elemwise(q[:, None], rq[None]), q[:, None, :])
    dev = float(np.max(np.abs(linear - product)))
    named = group._negatives[t[t[:, group.inverses()], np.arange(n)[:, None]]]  # -R1 ~R2 R1
    off = np.any(quantize(product) != quantize(q)[named], axis=-1)  # images t does not name
    miss = np.zeros((np.count_nonzero(off), k3.D))
    miss[:, k3.even] = product[off]  # the even blades of ~image
    all_in = not off.any() or bool(np.all(find_ids(k3.rev(miss), group._lookup) >= 0))
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
    ``pairs=None`` sweeps G x G and counts its n^2 / |Z(G)| maps: L X R = L' X R' for every X
    iff R' = c R, c = L'^-1 L central; Z(G) is read off the table as the elements commuting
    with the generators s_i s_j, which with the central -1 generate G; a table where none
    does, not even the identity, is no group's and is refused.
    Otherwise ``pairs`` pairs are drawn from ``seed`` and only the first 32 are
    gathered, multiplied out in floats: a witness that the table is right.
    """
    if pairs is not None and not (isinstance(pairs, (int, np.integer)) and pairs >= 1):
        raise VersorlabError(f"pairs must be None or an integer >= 1, got {pairs!r}")
    group = r.source
    garr, n, t = group.element_arr(), group.order, group.table
    if not np.array_equal(np.sort(row_keys(_spinor_coords(garr))),
                          np.sort(row_keys(r.base.coords))):
        raise SymmetrySweepFailure("the induced roots are not the spinor coordinates of the group")
    if pairs is None:  # (L, R) fails iff (0, R) or (L, 0) does, neither later in L-major order
        zeros = np.zeros(n - 1, np.intp)
        li, ri = np.append(zeros, np.arange(n)), np.append(np.arange(n), zeros)
    else:
        rng = np.random.default_rng(seed)
        li, ri = rng.integers(0, n, size=pairs), rng.integers(0, n, size=pairs)
    # row (L, R) is row L of t, then column R: a permutation exactly when both are
    bad = np.flatnonzero(np.any(np.sort(t, axis=1) != np.arange(n), axis=1)[li]
                         | np.any(np.sort(t.T, axis=1) != np.arange(n), axis=1)[ri])
    if bad.size:
        raise SymmetrySweepFailure(f"pair (L={li[bad[0]]}, R={ri[bad[0]]}) is not a symmetry")
    if pairs is None:
        gens = group._graph[group._e]
        if not (center := int(np.count_nonzero(np.all(t[:, gens] == t[gens].T, axis=1)))):
            raise SymmetrySweepFailure(f"{group!r}'s table is not a group's: nothing is central")
        return AutomorphismSweep(n, n * n, True, n * n // center)
    l, r, kern = li[:32], ri[:32], kernel_for(_SIG3)
    img = kern.gp_elemwise(kern.gp_elemwise(garr[l, None], garr[None]), garr[r, None])
    bad = np.flatnonzero(np.any(row_keys(img) != row_keys(garr[t[t[l], r[:, None]]]), axis=1))
    if bad.size:
        raise SymmetrySweepFailure(f"pair (L={l[bad[0]]}, R={r[bad[0]]}): "
                                   "the float product disagrees with the table")
    return AutomorphismSweep(n, pairs, False, None)
