"""Binary polyhedral group character data and the ADE numerology table.

The finite spin groups over A1^3, A3, B3, H3 are the binary polyhedral
groups Q8, 2T, 2O, 2I.  Their irreducible representation dimensions are
pinned down without character tables, by constraint solving on counting
data: there are as many dimensions as conjugacy classes, exactly
``|G / [G,G]|`` of them equal 1, and the squares sum to the group order.
Two classical theorems close the gap where raw counting is ambiguous
(it is for 2I): every dimension divides the index of the center, and the
dimension multiset of the rotation quotient G/{+-1} -- solvable by the same
counting -- embeds in that of G, since quotient irreps pull back.  The
class and commutator counts are integer gathers on the group's table.

The resulting numbers line up three ways: the sum of the irrep dimensions
of the binary group equals the root count of the 3D system it came from,
and equals the Coxeter number of the simply-laced 4D system whose affine
diagram the McKay correspondence attaches to the group (D4, E6, E7, E8).
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .errors import AmbiguousIrrepDims, McKayMismatch, VersorlabError
from .groups import VersorGroup, coxeter_number, generate_spin, quotient_by_sign
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
    members = np.unique(t[t[t, inv[:, None]], inv])  # every g h g^-1 h^-1
    while (grown := np.unique(t[np.ix_(members, members)])).size > members.size:
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


def _dimension_multisets(total: int, count: int, divisor_of: int) -> list:
    """Nondecreasing tuples of `count` integers >= 2, each dividing
    `divisor_of`, with squares summing to `total`."""
    out = []

    def rec(prefix, k, s, lo):
        if k == 0:
            if s == 0:
                out.append(tuple(prefix))
            return
        d = lo
        while d * d * k <= s:
            if divisor_of % d == 0:
                rec(prefix + [d], k - 1, s - d * d, d)
            d += 1

    rec([], count, total, 2)
    return out


def irrep_dimensions(group) -> IrrepDims:
    """Irrep dimensions of a finite versor group, from counting data alone.

    Besides the class count, abelianization order and sum-of-squares rule,
    the solver applies Ito's theorem (each dimension divides the index of
    the center, read off as the size-1 classes) and, for groups containing
    -1, the fact that irreps of the rotation quotient pull back, so the
    quotient's counting-solved dimensions must embed in the answer.
    """
    classes = group.conjugacy_classes()
    num_classes = len(classes)
    num_linear = abelianization_order(group)
    center_index = group.order // sum(1 for c in classes if c.size == 1)
    candidates = [(1,) * num_linear + tail for tail in _dimension_multisets(
        group.order - num_linear, num_classes - num_linear, center_index)]

    if len(candidates) > 1 and isinstance(group, VersorGroup):
        has_central_involution = any(
            c.size == 1 and c.element_order == 2 for c in classes)
        if has_central_involution:
            quotient_dims = Counter(irrep_dimensions(quotient_by_sign(group)).dims)
            candidates = [c for c in candidates if not quotient_dims - Counter(c)]

    if len(candidates) != 1:
        raise AmbiguousIrrepDims(
            f"{len(candidates)} dimension multisets fit order {group.order} with "
            f"{num_classes} classes and {num_linear} linear characters: {candidates}")
    return IrrepDims(candidates[0], group.order, num_classes)


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

    Every entry is computed, none copied: root counts by reflection closure,
    irrep dimensions by class/abelianization counting, the 4D label by spinor
    induction, and h as the geometric order of a Coxeter element.

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
