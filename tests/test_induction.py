"""Tests for spinor coordinates, induced 4D root systems, and symmetry sweeps."""

import numpy as np
import pytest

from versorlab import (
    InducedRootSystem4D,
    Signature,
    SymmetrySweepFailure,
    Versor,
    VersorlabError,
    blade,
    catalog,
    check_axioms,
    close_roots,
    generate_pin,
    generate_spin,
    identify_4d,
    induce_4d,
    reflection_agreement,
    reflection_closure_witness,
    scalar_mv,
    spinor_coords,
    spinor_inner,
    spinorial_automorphisms,
)

RNG = np.random.default_rng(8821)
SIG3 = Signature(3, 0)

# source 3D system -> (induced size, induced name)
INDUCTION_TABLE = {
    "A1^3": (8, "A1^4"),
    "A3": (24, "D4"),
    "B3": (48, "F4"),
    "H3": (120, "H4"),
}


def spin_group(name):
    return generate_spin(catalog(name))


def test_spinor_coords_of_basis_elements():
    assert np.allclose(spinor_coords(scalar_mv(SIG3, 1.0)), [1, 0, 0, 0])
    assert np.allclose(spinor_coords(blade(SIG3, "e23")), [0, 1, 0, 0])
    assert np.allclose(spinor_coords(blade(SIG3, "e13")), [0, 0, -1, 0])
    assert np.allclose(spinor_coords(blade(SIG3, "e12")), [0, 0, 0, 1])


def test_spinor_coords_rejects_odd_input():
    with pytest.raises(VersorlabError):
        spinor_coords(blade(SIG3, "e1"))


def test_spinor_inner_is_euclidean_dot():
    g = spin_group("A3")
    els = g.elements
    idx = RNG.integers(0, len(els), size=(60, 2))
    for i, j in idx:
        got = spinor_inner(els[i], els[j])
        want = float(spinor_coords(els[i]) @ spinor_coords(els[j]))
        assert got == pytest.approx(want, abs=1e-12)


def test_spinor_inner_normalizes_group_elements():
    for v in spin_group("A1^3").elements:
        assert spinor_inner(v, v) == pytest.approx(1.0)


def test_induced_counts_and_names():
    for src, (count, name) in INDUCTION_TABLE.items():
        ind = induce_4d(spin_group(src))
        assert ind.root_count == count, src
        assert ind.identification == name, src
        assert ind.base.name == name
        assert identify_4d(ind) == name


def test_induced_sets_satisfy_root_axioms():
    for src in INDUCTION_TABLE:
        ind = induce_4d(spin_group(src))
        assert check_axioms(ind.base).ok, src


def test_extracted_simple_roots_regenerate_the_system():
    # closure of the extracted simple roots must reproduce the full set
    for src in ("A3", "B3"):
        ind = induce_4d(spin_group(src))
        reclosed = close_roots(ind.base.simple_coords, sig=Signature(4, 0))
        assert reclosed.root_keys() == ind.base.root_keys()


def test_induce_requires_spin_in_cl3():
    with pytest.raises(VersorlabError):
        induce_4d(generate_pin(catalog("A3")))
    with pytest.raises(VersorlabError):
        induce_4d(generate_spin(catalog("I2(4)")))


def test_identify_4d_on_catalog_systems():
    assert identify_4d(catalog("D4")) == "D4"
    assert identify_4d(catalog("H4")) == "H4"
    with pytest.raises(VersorlabError):
        identify_4d(catalog("I2(5)"))


def test_reflection_closure_witness_single_pair():
    g = spin_group("A3")
    els = g.elements
    for _ in range(25):
        i, j = RNG.integers(0, len(els), size=2)
        w = reflection_closure_witness(g, els[i], els[j])
        assert g.contains(w)
        # independent linear-formula image
        c1, c2 = spinor_coords(els[i]), spinor_coords(els[j])
        want = c2 - 2 * float(c1 @ c2) * c1
        assert np.allclose(spinor_coords(w), want, atol=1e-9)


def test_reflection_closure_witness_rejects_outsiders():
    g = spin_group("A1^3")
    outsider = Versor(blade(SIG3, "e12") * 0.6 + blade(SIG3, "e13") * 0.8)
    with pytest.raises(VersorlabError):
        reflection_closure_witness(g, outsider, g.elements[0])


def test_reflection_agreement_exhaustive():
    for src in ("A1^3", "A3"):
        g = spin_group(src)
        rep = reflection_agreement(g)
        assert rep.pairs_tested == g.order ** 2
        assert rep.max_deviation <= 1e-9
        assert rep.all_in_group


@pytest.mark.parametrize("src,images", [
    ("A1^3", 32), ("A3", 288), ("B3", 1152), ("H3", 7200),
])
def test_automorphism_sweep_exhaustive_counts(src, images):
    g = spin_group(src)
    sweep = spinorial_automorphisms(induce_4d(g))
    assert sweep.exhaustive
    assert sweep.pairs_tested == g.order ** 2
    assert sweep.failures == 0
    # (L, R) and (-L, -R) act identically, everything else is distinct
    assert sweep.distinct_images == g.order ** 2 // 2 == images


def test_automorphism_sweep_sampled_is_seed_deterministic():
    ind = induce_4d(spin_group("B3"))
    s1 = spinorial_automorphisms(ind, pairs=500, seed=11)
    s2 = spinorial_automorphisms(ind, pairs=500, seed=11)
    assert not s1.exhaustive
    assert s1.pairs_tested == 500
    assert s1 == s2
    assert s1.failures == 0


def test_automorphism_sweep_detects_broken_symmetry():
    ind = induce_4d(spin_group("A1^3"))
    coords = ind.base.coords.copy()
    coords[0] = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2)  # not a root of A1^4
    tampered = ind._replace(base=ind.base.__class__(
        ind.base.sig, ind.base.simple_coords, coords, name=ind.base.name))
    with pytest.raises(SymmetrySweepFailure):
        spinorial_automorphisms(tampered)


def test_induced_gram_spectra_match_catalog():
    # fingerprint check: induced D4 and catalog D4 have identical Gram multisets
    ind = induce_4d(spin_group("A3"))
    cat = catalog("D4")
    gi = np.sort(np.round(ind.base.coords @ ind.base.coords.T, 9).ravel())
    gc = np.sort(np.round(cat.coords @ cat.coords.T, 9).ravel())
    assert np.array_equal(gi, gc)
