"""Binary polyhedral group character data and the ADE numerology table.

The finite spin groups over A1^3, A3, B3, H3 are the binary polyhedral
groups Q8, 2T, 2O, 2I.  Their irrep dimensions come from the group's integer
products by Burnside's method: the class algebra's structure constants, counted
with one ``bincount``, and one eigenvector solve; no character table is
written down, and Pin, Spin and their quotients go the same route.  The
commutator subgroup is an integer closure on the group's table.

The resulting numbers line up three ways: the sum of the irrep dimensions
of the binary group equals the root count of the 3D system it came from,
and equals the Coxeter number h of the simply-laced system whose affine diagram
McKay attaches to the group (D4, E6, E7, E8), an integer Coxeter element's order.
"""

from __future__ import annotations

import functools
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .errors import AmbiguousIrrepDims, McKayMismatch, VersorlabError
from .groups import VersorGroup, generate_spin
from .induction import induce_4d
from .roots import _catalog_seed, catalog

__all__ = [
    "IrrepDims",
    "McKayRow",
    "abelianization_order",
    "cayley_table",
    "irrep_dimensions",
    "mckay_table",
]


def cayley_table(group) -> np.ndarray:
    """(n, n) index table with ``table[i, j] = index of g_i g_j``."""
    return group.table


def abelianization_order(group) -> int:
    """Order of G / [G,G], i.e. the number of linear characters of G.

    H = <[g, s_k]>, from the commutators g s_k g^-1 s_k^-1 of each element with each
    generator, is [G,G]: H lies in [G,G] and is normal, x [g, s] x^-1 = [xg, s] [x, s]^-1,
    and modulo H each s_k, like the central -1, commutes with every element, so G / H is
    abelian.  H is closed from its n m generators by breadth-first right products."""
    t, inv, graph, e, n = group.table, group.inverses(), group._graph, group._e, group.order
    comm = t[t[graph, inv[:, None]], inv[graph[e]]]  # every [g, s_k]: g s_k is graph[g, k]
    gens = np.flatnonzero(np.bincount(comm.ravel(), minlength=n))  # np.unique imports numpy.ma
    member, new = np.arange(n) == e, np.array([e])
    while new.size:  # H, from e by breadth-first right products
        hit = t[new[:, None], gens].ravel()
        new = np.flatnonzero(np.bincount(hit[~member[hit]], minlength=n))
        member[new] = True
    if n % (size := int(np.count_nonzero(member))):
        raise VersorlabError("commutator closure is not a subgroup; inconsistent group")
    return n // size


class IrrepDims(NamedTuple):
    dims: tuple
    group_order: int
    class_count: int

    @property
    def sum(self) -> int:
        return int(sum(self.dims))


def irrep_dimensions(group) -> IrrepDims:
    """Irrep dimensions by Burnside's method (Dixon 1967): each irrep chi gives omega_l =
    |C_l| chi(z_l) / chi(1), z_l in C_l, an eigenvector of every class-sum matrix (c_jlm)_lm,
    c_jlm = #{x in C_j : x^-1 z_m in C_l}, so of one fixed generic combination of them, and
    chi(1)^2 = |G| / sum_l |omega_l|^2 / |C_l|.  The class of z_m x^-1 is read in place of
    x^-1 z_m's, its conjugate by x, off the n x r left products of the representatives that
    the class split replayed for element orders: the n x n table is never built.  Raises
    ``AmbiguousIrrepDims`` unless every dimension is integral to 1e-6, the squares sum to |G|
    and the characters meet the first orthogonality relation to 1e-9 |G|."""
    classes, label, powers = group._class_split
    r, n, sizes = len(classes), group.order, np.array([c.size for c in classes])
    lm = label[powers[group.inverses()]]
    counts = np.bincount(((label[:, None] * r + lm) * r + np.arange(r)).ravel(), minlength=r ** 3)
    mix = np.random.default_rng(0).standard_normal(r) @ counts.reshape(r, r * r)
    omega = np.linalg.eig(mix.reshape(r, r))[1]
    omega = omega / omega[[c.element_order for c in classes].index(1)]
    dims = np.sqrt(n / (np.abs(omega) ** 2 / sizes[:, None]).sum(axis=0))
    chi, whole = omega * dims / sizes[:, None], np.rint(dims)  # chi[l, i]: irrep i on C_l
    orth = np.abs(chi.T @ (sizes[:, None] * chi.conj()) - n * np.eye(r)).max()
    if not (np.abs(dims - whole).max() <= 1e-6 and (whole ** 2).sum() == n and orth <= 1e-9 * n):
        raise AmbiguousIrrepDims(f"order {n}, {r} classes: dimensions {np.round(dims, 6).tolist()}"
                                 f", orthogonality error {orth:.1e}")
    return IrrepDims(tuple(sorted(int(d) for d in whole)), n, r)


def _coxeter_h(name: str) -> int:
    """h, the order of the Coxeter element s_1...s_n (Humphreys 3.16-3.19), as an integer
    matrix on a catalog seed's simple-root lattice: s_i x = x - (A x)_i e_i, with A the Cartan
    matrix 2 (a_i|a_j) of the unit seed, which is integral exactly when it is simply laced."""
    a = _catalog_seed(name)
    cartan = 2.0 * (a @ a.T)
    if np.abs(cartan - np.rint(cartan)).max() > 1e-9:
        raise McKayMismatch(f"{name} is not simply laced: its Cartan matrix is not integral")
    eye = np.eye(len(a), dtype=np.int64)
    s = eye - eye[:, :, None] * np.rint(cartan).astype(np.int64)[:, None]  # s[i] = I - e_i A_i
    c = power = functools.reduce(np.matmul, s)  # s_1 s_2 ... s_n
    h = 1
    while not np.array_equal(power, eye):
        power, h = power @ c, h + 1
    return h


class McKayRow(NamedTuple):
    threeD: str
    fourD: str
    lie: str
    phi_count: int
    sum_dims: int
    coxeter_h: int
    binary_group: str
    irrep_dims: tuple


_ROWS = (
    ("A1^3", "D4", "Q8"),
    ("A3", "E6", "2T"),
    ("B3", "E7", "2O"),
    ("H3", "E8", "2I"),
)


def mckay_table(spins: Optional[Mapping[str, VersorGroup]] = None) -> tuple[McKayRow, ...]:
    """The four-row table tying |Phi_3D| = sum of binary-group irrep dims = h(ADE).

    Root counts come from reflection closure, irrep dimensions from Burnside's method, the
    4D label from spinor induction and h from an integer Coxeter element's order on the
    catalog seed's simple roots, with no ADE system closed.  Only ``lie`` is copied: the
    ``_ROWS`` label plus "+" for the affine diagram.  No McKay graph is computed from the irreps.

    ``spins`` maps a 3D catalog name (A1^3, A3, B3, H3) to its already-built
    ``generate_spin`` group, which is used, with the tables and classes it
    has cached, instead of closing the group again; names it lacks are
    built here.  The rows are the same either way.
    """
    spins = spins or {}
    rows = []
    for three_d, ade, binary_name in _ROWS:
        spin = spins[three_d] if three_d in spins else generate_spin(catalog(three_d))
        induced, dims = induce_4d(spin), irrep_dimensions(spin)
        row = McKayRow(three_d, induced.identification, ade + "+", spin.source.root_count,
                       dims.sum, _coxeter_h(ade), binary_name, dims.dims)
        if not (row.phi_count == row.sum_dims == row.coxeter_h):
            raise McKayMismatch(
                f"row {three_d}: root count {row.phi_count}, irrep-dim sum "
                f"{row.sum_dims}, Coxeter number {row.coxeter_h}")
        rows.append(row)
    return tuple(rows)
