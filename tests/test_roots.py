"""Tests for reflection closure, root axioms, Cartan data, and the catalog."""

import json
import math

import numpy as np
import pytest

from versorlab import (
    ClosureCapExceeded,
    RootSystem,
    Signature,
    UnknownCatalogName,
    cartan_matrix,
    catalog,
    catalog_names,
    check_axioms,
    close_roots,
    diagram,
    rootsystem_from_dict,
)
import versorlab.algebra
import versorlab.roots
from versorlab.algebra import qkey, row_keys

# name -> (rank, root count)
CATALOG_EXPECTED = {
    "A1": (1, 2),
    "A1^3": (3, 6),
    "A1^4": (4, 8),
    "A3": (3, 12),
    "B3": (3, 18),
    "D4": (4, 24),
    "F4": (4, 48),
    "H3": (3, 30),
    "H4": (4, 120),
    "E6": (6, 72),
    "E7": (7, 126),
    "E8": (8, 240),
}


def test_catalog_counts():
    for name, (rank, count) in CATALOG_EXPECTED.items():
        rs = catalog(name)
        assert rs.rank == rank, name
        assert rs.root_count == count, name
        assert rs.name == name


def test_dihedral_family_counts():
    for n in (3, 4, 5, 7, 12):
        rs = catalog(f"I2({n})")
        assert rs.rank == 2
        assert rs.root_count == 2 * n


def test_i2_coincidences():
    # I2(3) = A2 and I2(4) = B2 as root sets up to rotation: compare Gram spectra
    rs = catalog("I2(3)")
    gram = np.sort(np.round(rs.coords @ rs.coords.T, 9).ravel())
    assert rs.root_count == 6
    assert set(np.unique(gram)) == {-1.0, -0.5, 0.5, 1.0}


def test_all_roots_are_unit_and_closed():
    for name in CATALOG_EXPECTED:
        rs = catalog(name)
        norms = np.linalg.norm(rs.coords, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12, name
        assert check_axioms(rs).ok, name


def test_antipodes_always_present():
    rs = catalog("H3")
    neg = RootSystem(rs.sig, rs.simple_coords, -rs.coords)
    assert set(row_keys(neg.coords).tolist()) == set(row_keys(rs.coords).tolist())


def test_closure_normalizes_seed_lengths():
    rs = close_roots([[2.0, 0.0], [-3.0, 3.0]], sig=Signature(2, 0))
    assert rs.root_count == 8  # B2
    assert np.allclose(np.linalg.norm(rs.simple_coords, axis=1), 1.0)


def test_closure_cap_trips_on_irrational_angle():
    # two mirrors at an angle that is not pi/m generate an infinite dihedral set
    c = math.cos(1.0)  # angle of 1 radian
    with pytest.raises(ClosureCapExceeded):
        close_roots([[1.0, 0.0], [-c, math.sin(1.0)]], sig=Signature(2, 0), max_roots=500)


def test_closure_rejects_dependent_seeds():
    with pytest.raises(Exception):
        close_roots([[1.0, 0.0], [-1.0, 0.0]], sig=Signature(2, 0))


def test_axiom_scalar_multiple_violation_detected():
    rs = catalog("A1^3")
    bad = np.vstack([rs.coords, 2.0 * rs.coords[:1]])
    rep = check_axioms(bad)
    assert not rep.scalar_multiples_ok
    assert rep.scalar_violation is not None
    assert not rep.ok


def test_axiom_reflection_violation_detected():
    rs = catalog("A3")
    bad = rs.coords.copy()
    # rotate one root slightly out of the system
    bad[0] = bad[0] + np.array([0.05, -0.02, 0.01])
    bad[0] /= np.linalg.norm(bad[0])
    rep = check_axioms(bad)
    assert not rep.reflection_closed
    assert rep.reflection_violation is not None


def pairwise_axiom_witnesses(coords, eps=1e-9):
    """First witness of each axiom from a plain scan over root pairs (i, j)."""
    n = coords.shape[0]
    keys = {qkey(r) for r in coords}
    norms = np.linalg.norm(coords, axis=1)
    scalar = None
    for i in range(n):
        if qkey(-coords[i]) not in keys:
            scalar = ("missing antipode", (tuple(coords[i]),))
            break
        js = [j for j in range(n) if j != i
              and abs(abs(coords[i] @ coords[j]) - norms[i] * norms[j]) <= eps
              and qkey(coords[j]) != qkey(-coords[i])]
        if js:
            scalar = ("scalar multiple besides the antipode",
                      (tuple(coords[i]), tuple(coords[js[0]])))
            break
    refl = None
    for i in range(n):
        u = coords[i] / norms[i]
        imgs = coords - 2.0 * (coords @ u)[:, None] * u
        js = [j for j in range(n) if qkey(imgs[j]) not in keys]
        if js:
            refl = ("reflection image not in set", (tuple(coords[i]), tuple(coords[js[0]])))
            break
    return scalar, refl


def test_axiom_witnesses_match_pairwise_scan():
    a3, b3 = catalog("A3").coords, catalog("B3").coords
    tilted = a3.copy()
    tilted[4] = (tilted[4] + [0.05, -0.02, 0.01]) / np.linalg.norm(tilted[4] + [0.05, -0.02, 0.01])
    broken = {
        "scaled": np.vstack([catalog("A1^3").coords, 2.0 * catalog("A1^3").coords[2:3]]),
        "missing": np.delete(a3, 5, axis=0),
        "tilted": tilted,
        "repeated": np.vstack([b3, b3[7:8]]),
    }
    for name, coords in broken.items():
        rep = check_axioms(coords)
        scalar, refl = pairwise_axiom_witnesses(coords)
        got_scalar = rep.scalar_violation and (rep.scalar_violation.reason,
                                               rep.scalar_violation.witness)
        got_refl = rep.reflection_violation and (rep.reflection_violation.reason,
                                                 rep.reflection_violation.witness[:2])
        assert got_scalar == scalar, name
        assert got_refl == refl, name
        assert rep.ok == (scalar is None and refl is None), name


def test_axiom_reports_do_not_depend_on_the_block_size(monkeypatch):
    # each block of mirrors reflects every root in its own einsum, and the
    # images are keyed FIND_ROWS rows at a time: one-root blocks, 7-row keying
    # and the defaults give the same reports, witness floats included
    perturbed = []
    for name in ("A3", "B3", "H3", "F4", "E8"):
        coords = catalog(name).coords
        tilted = coords.copy()
        tilted[3] = (tilted[3] + 0.01) / np.linalg.norm(tilted[3] + 0.01)
        perturbed += [tilted, np.delete(coords, 2, axis=0), np.vstack([coords, 1.5 * coords[1:2]]),
                      np.vstack([coords, coords[5:6]]), coords]
    default = [check_axioms(c) for c in perturbed]
    assert [r.ok for r in default] == [False, False, False, False, True] * 5
    monkeypatch.setattr(versorlab.roots, "BLOCK", 1)
    monkeypatch.setattr(versorlab.algebra, "FIND_ROWS", 7)
    assert [check_axioms(c) for c in perturbed] == default


def test_cartan_matrix_a3():
    C = cartan_matrix(catalog("A3")).entries
    expected = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    assert np.allclose(C, expected, atol=1e-12)
    assert cartan_matrix(catalog("A3")).is_integral()


def test_cartan_matrix_b3_unit_normalized():
    # all catalog roots are unit length, so the B3 "Cartan matrix" carries
    # the -sqrt(2) entries of the unnormalized cos(pi - pi/4) pair
    C = cartan_matrix(catalog("B3")).entries
    s = math.sqrt(2)
    expected = [[2, -1, 0], [-1, 2, -s], [0, -s, 2]]
    assert np.allclose(C, expected, atol=1e-12)
    assert not cartan_matrix(catalog("B3")).is_integral()


def test_diagram_edges():
    assert diagram(catalog("A3")) == [(1, 2, 3), (2, 3, 3)]
    assert diagram(catalog("B3")) == [(1, 2, 3), (2, 3, 4)]
    assert diagram(catalog("H3")) == [(1, 2, 5), (2, 3, 3)]
    assert diagram(catalog("A1^4")) == []
    assert diagram(catalog("I2(7)")) == [(1, 2, 7)]
    # D4 is the star: three edges out of the central node
    d4 = {(e.i, e.j, e.m) for e in diagram(catalog("D4"))}
    assert len(d4) == 3 and all(m == 3 for _, _, m in d4)


def test_diagram_rejects_acute_simple_roots():
    sig = Signature(2, 0)
    rs = RootSystem(sig, np.array([[1.0, 0.0], [0.8, 0.6]]), np.eye(2))
    with pytest.raises(ValueError):
        diagram(rs)


def test_catalog_unknown_name():
    with pytest.raises(UnknownCatalogName):
        catalog("Z9")
    with pytest.raises(UnknownCatalogName):
        catalog("I2(2)")  # reducible; spelled A1^2, not part of the family
    names = catalog_names()
    assert "E8" in names and "I2(n)" in names


def test_serialization_roundtrip():
    # the JSON format the CLI reads, written from a catalog system's own fields
    rs = catalog("F4")
    d = {"name": rs.name, "sig": [rs.sig.p, rs.sig.q],
         "simple_roots": np.round(rs.simple_coords, 12).tolist()}
    back = rootsystem_from_dict(json.loads(json.dumps(d)))
    assert back.name == "F4"
    assert back.root_count == 48
    assert np.array_equal(row_keys(back.coords), row_keys(rs.coords))


def test_from_dict_recloses_when_roots_missing():
    # name, signature and simple roots only: the full root set is reclosed
    h = 1 / math.sqrt(2)
    d = {"name": "B3", "sig": [3, 0], "simple_roots": [[h, -h, 0], [0, h, -h], [0, 0, 1]]}
    back = rootsystem_from_dict(d)
    assert back.name == "B3"
    assert back.root_count == 18
    assert np.array_equal(row_keys(back.coords), row_keys(catalog("B3").coords))


def test_e8_closure_at_scale():
    rs = catalog("E8")
    assert rs.root_count == 240
    # kissing configuration: minimal angle pairs dot to 1/2
    gram = rs.coords @ rs.coords.T
    off = gram[~np.eye(240, dtype=bool)]
    assert np.allclose(np.sort(np.unique(np.round(off, 9))), [-1.0, -0.5, 0.0, 0.5])
