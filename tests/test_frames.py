"""Results do not depend on the orthonormal frame the simple roots are written in.

Each system is closed again from its catalog simple roots turned by a random
rotation, drawn by hypothesis as the QR factor of a seeded normal matrix, and
every count the package derives from it must equal the catalog frame's.
"""

import functools
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from versorlab import (
    catalog,
    close_roots,
    coxeter_number,
    generate_pin,
    generate_spin,
    induce_4d,
    mckay_table,
)
from versorlab.induction import _coxeter_matrix

from test_induction import agreement_fields, eight_blade_agreement

FRAMES = settings(derandomize=True, database=None, deadline=None, max_examples=3)
SEEDS = st.integers(0, 2**32 - 1)


def rotation(dim: int, seed: int) -> np.ndarray:
    """A random element of SO(dim): the QR factor of a normal matrix, with det +1."""
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def framed(name: str, seed: int):
    rs = catalog(name)
    return close_roots(rs.simple_coords @ rotation(rs.sig.dim, seed), name=name)


def invariants(rs) -> dict:
    out = {"roots": rs.root_count, "h": coxeter_number(rs)}
    for kind, group in (("pin", generate_pin(rs)), ("spin", generate_spin(rs))):
        classes = group.conjugacy_classes()
        census = Counter()
        for c in classes:
            census[c.element_order] += c.size
        out[kind] = (group.order, sorted(c.size for c in classes), sorted(census.items()))
    return out


@functools.cache
def reference(name: str) -> dict:
    return invariants(catalog(name))


def induced(spin) -> tuple:
    base = induce_4d(spin).base
    return base.name, _coxeter_matrix(base), coxeter_number(base)


@functools.cache
def catalog_induced(name: str) -> tuple:
    return induced(generate_spin(catalog(name)))


@functools.cache
def catalog_mckay() -> tuple:
    return mckay_table()


@FRAMES
@given(seed=SEEDS)
def test_3d_systems_are_frame_invariant(seed):
    spins = {}
    for name in ("A3", "B3", "H3"):
        rs = framed(name, seed)
        assert invariants(rs) == reference(name)
        spins[name] = generate_spin(rs)
        # the induced 4D system's name, Coxeter matrix (up to relabelling) and h
        assert induced(spins[name]) == catalog_induced(name)
    # each row holds the induced 4D label, |Phi|, the irrep dimensions and h
    assert mckay_table(spins) == catalog_mckay()


@FRAMES
@given(seed=SEEDS)
def test_quaternion_reflection_agreement_is_the_eight_blade_one_in_any_frame(seed):
    for name in ("A1^3", "A3", "B3", "H3"):
        spin = generate_spin(framed(name, seed))
        assert agreement_fields(spin) == eight_blade_agreement(spin)


@FRAMES
@given(seed=SEEDS)
def test_4d_systems_are_frame_invariant(seed):
    for name in ("D4", "F4"):
        assert invariants(framed(name, seed)) == reference(name)
