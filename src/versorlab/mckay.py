"""Binary polyhedral group character data and the ADE numerology table.

The finite spin groups over A1^3, A3, B3, H3 are the binary polyhedral
groups Q8, 2T, 2O, 2I.  Their irrep dimensions come from the group's integer
table by Burnside's method: the class algebra's structure constants, counted
with one ``bincount``, and one eigenvector solve; no character table is
written down, and Pin, Spin and their quotients go the same route.  The
commutator subgroup is an integer closure on the same table.

The resulting numbers line up three ways: the sum of the irrep dimensions
of the binary group equals the root count of the 3D system it came from,
and equals the Coxeter number of the simply-laced 4D system whose affine
diagram the McKay correspondence attaches to the group (D4, E6, E7, E8).
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional

import numpy as np

from .errors import AmbiguousIrrepDims, McKayMismatch, VersorlabError
from .groups import VersorGroup, coxeter_number, generate_spin
from .induction import induce_4d
from .roots import catalog

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
    """Order of G / [G,G], i.e. the number of linear characters of G."""
    t, inv = group.table, group.inverses()

    def distinct(x):  # sorted, as np.unique, which would import numpy.ma
        return np.flatnonzero(np.bincount(x.ravel()))

    members = distinct(t[t[t, inv[:, None]], inv])  # every g h g^-1 h^-1
    while (grown := distinct(t[np.ix_(members, members)])).size > members.size:
        members = grown
    if group.order % members.size:
        raise VersorlabError("commutator closure is not a subgroup; inconsistent group")
    return group.order // members.size


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
    chi(1)^2 = |G| / sum_l |omega_l|^2 / |C_l|.  Raises ``AmbiguousIrrepDims`` unless every
    dimension is integral to 1e-6, the squares sum to |G| and the characters meet the first
    orthogonality relation to 1e-9 |G|."""
    classes = group.conjugacy_classes()
    r, n = len(classes), group.order
    sizes, label = np.array([c.size for c in classes]), np.empty(n, np.intp)
    label[np.concatenate([c.indices for c in classes])] = np.repeat(np.arange(r), sizes)
    lm = label[group.table[group.inverses()[:, None], [c.indices[0] for c in classes]]]  # x^-1 z_m
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

    Root counts come from reflection closure, irrep dimensions from Burnside's method,
    the 4D label from spinor induction and h from a Coxeter element's order.  Only ``lie``
    is copied: ``_ROWS``' ADE label plus "+" for the affine diagram, on which h is computed.
    No McKay graph is computed from the irreps.

    ``spins`` maps a 3D catalog name (A1^3, A3, B3, H3) to its already-built
    ``generate_spin`` group, which is used, with the tables and classes it
    has cached, instead of closing the group again; names it lacks are
    built here.  The rows are the same either way.
    """
    spins = spins or {}
    rows = []
    for three_d, ade, binary_name in _ROWS:
        spin = spins[three_d] if three_d in spins else generate_spin(catalog(three_d))
        rs3 = spin.source
        induced = induce_4d(spin)
        dims = irrep_dimensions(spin)
        h = coxeter_number(catalog(ade))
        row = McKayRow(three_d, induced.identification, ade + "+",
                       rs3.root_count, dims.sum, h, binary_name, dims.dims)
        if not (row.phi_count == row.sum_dims == row.coxeter_h):
            raise McKayMismatch(
                f"row {three_d}: root count {row.phi_count}, irrep-dim sum "
                f"{row.sum_dims}, Coxeter number {row.coxeter_h}")
        rows.append(row)
    return tuple(rows)
