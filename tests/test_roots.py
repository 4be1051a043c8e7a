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
    VersorlabError,
    cartan_matrix,
    catalog,
    catalog_names,
    check_axioms,
    close_roots,
    diagram,
    generate_spin,
    induce_4d,
    rootsystem_from_dict,
)
import versorlab.algebra
import versorlab.roots
from versorlab.algebra import KEY_BOUND, find_ids, key_ids, qkey, row_keys
from versorlab.groups import _order
from versorlab.roots import _reflect_pairs

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
    neg = RootSystem(rs.sig, -rs.coords, rs.simple, rs.reflections)  # s(-x) = -s(x)
    assert set(row_keys(neg.coords).tolist()) == set(row_keys(rs.coords).tolist())


def keyed_reflection_graph(rs):
    """The reference: the simple roots' rows and each root reflected in each simple
    root, looked up again by key in one dict of the roots."""
    index = {}
    key_ids(rs.coords, index)
    return (find_ids(rs.simple_coords, index),
            find_ids(_reflect_pairs(rs.coords, rs.simple_coords), index).T)


def random_frame(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))  # det +-1: rotations and reflections alike


@pytest.mark.parametrize("name", [n for n in catalog_names() if n != "I2(n)"]
                         + ["I2(5)", "I2(7)", "I2(12)", "I2(60)"])
def test_the_stored_reflection_graph_is_a_keyed_lookup_in_any_frame(name):
    # the graph close_roots keeps from its orbit is what a second keying of the
    # roots would find, in the catalog frame and in 20 seeded random frames
    rs, rng = catalog(name), np.random.default_rng(2029)
    frames = [np.eye(rs.sig.dim)] + [random_frame(rs.sig.dim, rng) for _ in range(20)]
    for frame in frames:
        turned = close_roots(rs.simple_coords @ frame.T, rs.sig)
        simple, reflections = keyed_reflection_graph(turned)
        assert np.array_equal(turned.simple, simple) and np.array_equal(turned.reflections,
                                                                        reflections)
        assert turned.reflections.shape == (rs.rank, rs.root_count)
        assert not turned.reflections.flags.writeable and not turned.simple.flags.writeable


def test_a_planted_graph_that_is_no_permutation_is_refused(monkeypatch):
    # close_roots checks the graph the orbit hands it: a reflection that sends
    # two roots to one row, or simple roots that are not the orbit's first rows
    real = versorlab.roots.orbit
    for plant in (lambda coords, graph, *tree: (coords, np.where(graph == 3, 4, graph), *tree),
                  lambda coords, graph, *tree: (coords[::-1], graph[::-1], *tree)):
        monkeypatch.setattr(versorlab.roots, "orbit", lambda *a, plant=plant: plant(*real(*a)))
        with pytest.raises(VersorlabError, match="^the simple reflections do not permute the "
                                                 "roots$"):
            catalog("B3")
    monkeypatch.setattr(versorlab.roots, "orbit", real)
    assert catalog("B3").reflections.shape == (3, 18)


@pytest.mark.parametrize("seeds,pair", [([[1, 0], [1, 1e-7]], "simple root 1 and simple root 2"),
                                        ([[1, 0], [-1, 1e-7]], "simple root 2 and -simple root 1"),
                                        ([[1, 0, 0], [0, 1, 0], [0, -1, 1e-7]],
                                         "simple root 3 and -simple root 2")])
def test_seeds_that_share_a_key_are_refused_by_name(seeds, pair):
    # the orbit's first 2 rank rows must be +-simple, and are not where two seeds, or a seed
    # and a negated seed, round to one key: before, the first case said the simple reflections
    # do not permute the roots and the second closed to a "rank 2" system of 2 roots
    with pytest.raises(VersorlabError, match=f"^{pair} share a HASH_GRID key: the simple roots "
                                             "and their negatives must be distinct at 1e-06$"):
        close_roots(seeds)


@pytest.mark.parametrize("name", [n for n in catalog_names() if n != "I2(n)"]
                         + ["I2(5)", "I2(7)", "I2(12)", "I2(60)"])
def test_every_catalog_seed_passes_the_seed_check_in_any_frame(name):
    # the catalog frame and a rotated one: +-simple are the orbit's first rows, so the
    # simple rows hold the normalized seed itself and the closure has the catalog's roots
    seed = versorlab.roots._catalog_seed(name)
    frame = random_frame(seed.shape[1], np.random.default_rng(44))
    for simple in (seed, seed @ frame.T):
        rs = close_roots(simple)
        assert np.array_equal(rs.simple_coords, simple / np.linalg.norm(simple, axis=1)[:, None])
        assert rs.root_count == catalog(name).root_count


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


def test_closure_names_a_seed_root_shorter_than_the_tolerance():
    # a zero seed still raises, naming the root, its length and the tolerance
    with pytest.raises(ValueError,
                       match=r"^simple root 2 has length 0\.0, below the tolerance 1e-09$"):
        close_roots([[1.0, 0.0], [0.0, 0.0]], sig=Signature(2, 0))


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


def full_scan_reflection_violation(coords):
    """First (mirror, root) pair whose image key is absent, with every root reflected in every
    root in one einsum: the scan ``check_axioms`` shortens, witness floats included."""
    index = {}
    key_ids(coords, index)
    imgs = _reflect_pairs(coords, coords / np.linalg.norm(coords, axis=1)[:, None])
    hits = np.argwhere(find_ids(imgs, index).T < 0)
    if not hits.size:
        return None
    r, j = hits[0]
    return ("reflection image not in set", (tuple(coords[r]), tuple(coords[j]), tuple(imgs[j, r])))


def nudged(coords, row, delta):
    """``coords`` with one row turned by ``delta`` toward e1 and renormalized."""
    out = coords.copy()
    out[row, 0] += delta
    out[row] /= np.linalg.norm(out[row])
    return out


def test_axiom_witnesses_match_pairwise_scan():
    a3, b3, h3 = catalog("A3").coords, catalog("B3").coords, catalog("H3").coords
    tilted = a3.copy()
    tilted[4] = (tilted[4] + [0.05, -0.02, 0.01]) / np.linalg.norm(tilted[4] + [0.05, -0.02, 0.01])
    a3_ulp = a3.copy()
    a3_ulp[6] = np.nextafter(a3[6], np.inf)  # row 6 keeps its key but is no longer -row 5
    tilted_ulp = tilted.copy()
    tilted_ulp[[0, 9]] = np.nextafter(tilted[[0, 9]], -np.inf)
    broken = {
        "scaled": np.vstack([catalog("A1^3").coords, 2.0 * catalog("A1^3").coords[2:3]]),
        "missing": np.delete(a3, 5, axis=0),
        "tilted": tilted,
        "repeated": np.vstack([b3, b3[7:8]]),
        # a pair one ulp from exact: both rows are mirrors and roots
        "inexact by an ulp": a3_ulp,
        "tilted, inexact by an ulp": tilted_ulp,
        # row 6 stays in its key cell but is no mirror image of row 5 any more:
        # the first image out of the set is row 6's own, in mirror 6
        "inexact within the key cell": nudged(a3, 6, 3e-7),
        # with row 1 gone, row 5 (the later of rows 4 and 5) fails in mirror 0 and row 4 passes
        "missing antipode": np.delete(a3, 1, axis=0),
        "missing antipode, H3": np.delete(h3, 0, axis=0),
        # a repeated row first, so key ids are not row indices
        "repeated early": np.vstack([b3[7:8], b3]),
        "repeated early, tilted": np.vstack([tilted[4:5], tilted]),
        "repeated early, H3 tilted": np.vstack([h3[11:12], nudged(h3, 13, 0.01)]),
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
        # the image floats too, bit for bit: repr tells -0.0 from 0.0 and round-trips
        full = full_scan_reflection_violation(coords)
        assert repr(rep.reflection_violation and tuple(rep.reflection_violation)) == repr(full), name
    cell = broken["inexact within the key cell"]
    assert check_axioms(cell).reflection_violation.witness[0] == tuple(cell[6])
    assert check_axioms(broken["inexact by an ulp"]).ok


def exact_antipode_pairs(coords):
    """(i, p) for each row i whose first row p with the key of -row i is -row i exactly."""
    first = {}
    for j, row in enumerate(coords):
        first.setdefault(qkey(row), j)
    return [(i, first[qkey(-row)]) for i, row in enumerate(coords)
            if qkey(-row) in first and np.array_equal(coords[first[qkey(-row)]], -row)]


def test_exact_antipodes_have_equal_mirror_images_and_negated_root_images():
    # what lets check_axioms skip the later row of each pair: with u_p = -u_r,
    # column p of the full image array equals column r, and row p is -row r;
    # equal as floats, since a zero coordinate may carry either sign (same key)
    names = [n for n in catalog_names() if n != "I2(n)"] + ["I2(5)", "I2(7)", "I2(12)"]
    systems = {n: catalog(n).coords for n in names}
    for n in ("A1^3", "A3", "B3", "H3"):
        systems[f"induced from {n}"] = induce_4d(generate_spin(catalog(n))).base.coords
    for seed in (3, 7, 801):
        rng = np.random.default_rng(seed)
        for n in ("A3", "B3", "H3", "D4", "F4", "H4", "E8", "I2(7)"):
            simple = catalog(n).simple_coords
            frame = np.linalg.qr(rng.normal(size=(simple.shape[1],) * 2))[0]
            systems[f"{n} at seed {seed}"] = close_roots(simple @ frame).coords
    for name, coords in systems.items():
        pairs = np.array(exact_antipode_pairs(coords))
        assert len(pairs) >= 0.7 * coords.shape[0], name
        r, p = pairs.T
        imgs = _reflect_pairs(coords, coords / np.linalg.norm(coords, axis=1)[:, None])
        assert np.array_equal(imgs[:, p], imgs[:, r]), name
        assert np.array_equal(imgs[p], -imgs[r]), name


@pytest.mark.parametrize("src,rows", [("A3", 24), ("B3", 48), ("H3", 120)])
def test_induced_systems_pair_every_row_with_an_exact_negation(src, rows):
    # the spin group is {+-v_w}, so every spinor coordinate row's antipode is exact
    coords = induce_4d(generate_spin(catalog(src))).base.coords
    assert len(exact_antipode_pairs(coords)) == coords.shape[0] == rows


def test_axiom_check_reflects_one_root_of_each_pair_in_one_mirror_of_each(monkeypatch):
    # a count gate: roots reflected x mirrors over every _reflect_pairs call
    calls = []

    def counted(roots, mirrors):
        calls.append(roots.shape[0] * mirrors.shape[0])
        return _reflect_pairs(roots, mirrors)

    a3 = catalog("A3").coords
    cases = {"E8": (catalog("E8"), 14_400), "H4": (catalog("H4"), 3_600),
             "induced H4": (induce_4d(generate_spin(catalog("H3"))).base, 3_600),
             # a missing antipode: every row is a root, one row of each whole pair a mirror
             "A3 less row 5": (np.delete(a3, 5, axis=0), 11 * 6),
             # B3's row 7 repeated first: the earlier row of each of the 9 pairs, and row 8,
             # the copy of row 0, whose antipode (row 11) comes after it
             "B3, row 7 first": (np.vstack([catalog("B3").coords[7:8], catalog("B3").coords]),
                                 10 * 10)}
    monkeypatch.setattr(versorlab.roots, "_reflect_pairs", counted)
    for name, (roots, images) in cases.items():
        calls.clear()
        check_axioms(roots)
        assert sum(calls) == images, name


@pytest.mark.parametrize("roots", [
    np.zeros((0, 3)), np.zeros((3, 0)), [], [1.0, 0.0], np.ones((2, 2, 2)), 1.0,
    [[1.0, 0.0], [math.nan, 0.0]], [[1.0, 0.0], [-math.inf, 0.0]], [[1.0, 0.0], [0.0, 0.0]],
    [[1e200, 0.0], [-1e200, 0.0]], [[1e-300, 0.0], [-1e-300, 0.0]],
], ids=["0 rows", "0 columns", "empty list", "one row", "3-D", "scalar", "nan", "inf",
        "zero row", "squared length overflows", "squared length underflows"])
def test_axiom_check_rejects_rows_it_cannot_reflect_in(roots):
    with pytest.raises(VersorlabError, match="^roots must be a non-empty 2-D array"):
        check_axioms(roots)


@pytest.mark.parametrize("x", [1e13, 1e100, KEY_BOUND])
def test_axiom_check_rejects_roots_past_the_key_range(x):
    # a finite squared length is not enough: quantize's int64 cast needs
    # |coordinate| < 2**63 * HASH_GRID, and KEY_BOUND is half of that
    with pytest.raises(VersorlabError, match=r"^roots must be .* below KEY_BOUND = 4\.612e\+12$"):
        check_axioms([[x, 0.0], [-x, 0.0]])


def test_axiom_check_keys_roots_just_inside_the_key_range():
    x = float(np.nextafter(KEY_BOUND, 0.0))
    assert check_axioms([[x, 0.0], [-x, 0.0]]).ok
    # a long row reflected onto an axis keeps its length in one coordinate,
    # sqrt(8) times its largest: still keyed (a cast warning is an error here)
    v = np.full(8, x * (1 - 1e-15) / math.sqrt(8.0))
    u = v / np.linalg.norm(v) - np.eye(8)[0]
    u /= np.linalg.norm(u)
    report = check_axioms([v, -v, u, -u])
    assert report.scalar_multiples_ok and not report.reflection_closed


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
    assert (catalog("A3").coxeter_matrix <= 3).all()


def test_cartan_matrix_b3_unit_normalized():
    # all catalog roots are unit length, so the B3 "Cartan matrix" carries
    # the -sqrt(2) entries of the unnormalized cos(pi - pi/4) pair
    C = cartan_matrix(catalog("B3")).entries
    s = math.sqrt(2)
    expected = [[2, -1, 0], [-1, 2, -s], [0, -s, 2]]
    assert np.allclose(C, expected, atol=1e-12)
    assert not (catalog("B3").coxeter_matrix <= 3).all()


def test_diagram_edges():
    assert diagram(catalog("A3")) == [(1, 2, 3), (2, 3, 3)]
    assert diagram(catalog("B3")) == [(1, 2, 3), (2, 3, 4)]
    assert diagram(catalog("H3")) == [(1, 2, 5), (2, 3, 3)]
    assert diagram(catalog("A1^4")) == []
    assert diagram(catalog("I2(7)")) == [(1, 2, 7)]
    # D4 is the star: three edges out of the central node
    d4 = {(e.i, e.j, e.m) for e in diagram(catalog("D4"))}
    assert len(d4) == 3 and all(m == 3 for _, _, m in d4)


# every catalog name, with I2 as I2(5), I2(7), I2(12) and I2(60)
MATRIX_NAMES = [n for n in catalog_names() if n != "I2(n)"] + [f"I2({m})" for m in (5, 7, 12, 60)]


def assert_matrix_reads_the_diagram(rs):
    # the reference: the order of each whole permutation s_a s_b (s_b, then s_a), all r^2 pairs
    refl = rs.reflections
    m = rs.coxeter_matrix
    assert np.array_equal(m, _order(np.take_along_axis(refl[:, None], refl[None], axis=-1))), rs
    edges = [(i + 1, j + 1, int(m[i, j])) for i in range(rs.rank)
             for j in range(i + 1, rs.rank) if m[i, j] > 2]
    got = diagram(rs)
    assert got == edges, rs
    assert all(type(x) is int for e in got for x in e)


@pytest.mark.parametrize("name", MATRIX_NAMES)
def test_coxeter_matrix_is_the_order_of_each_pair_and_gives_the_diagram(name):
    assert_matrix_reads_the_diagram(catalog(name))


@pytest.mark.parametrize("src", ["A1^3", "A3", "B3", "H3"])
def test_coxeter_matrix_of_an_induced_base_gives_its_diagram(src):
    assert_matrix_reads_the_diagram(induce_4d(generate_spin(catalog(src))).base)


def test_diagram_reads_the_graph_not_the_other_coordinates():
    # the same simple rows and graph, every other root moved: the same matrix and diagram
    rs = catalog("F4")
    coords = rs.coords + np.random.default_rng(5).normal(scale=0.3, size=rs.coords.shape)
    coords[rs.simple] = rs.coords[rs.simple]
    moved = RootSystem(rs.sig, coords, rs.simple.copy(), rs.reflections.copy())
    assert np.array_equal(moved.coxeter_matrix, rs.coxeter_matrix)
    assert diagram(moved) == diagram(rs) == [(1, 2, 3), (2, 3, 4), (3, 4, 3)]


def test_coxeter_matrix_is_read_only():
    m = catalog("H3").coxeter_matrix
    assert m.tolist() == [[1, 5, 2], [5, 1, 3], [2, 3, 1]]
    with pytest.raises(ValueError, match="read-only"):
        m[0, 1] = 3
    assert catalog("A1").coxeter_matrix.tolist() == [[1]]


def test_diagram_rejects_acute_simple_roots():
    # an acute A2 seed closes to A2's six roots, but its pair is not at pi - pi/3
    rs = close_roots([[1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    assert rs.root_count == 6 and rs.coxeter_matrix[0, 1] == 3
    with pytest.raises(ValueError, match=r"^simple roots 1,2 are not at the angle pi - pi/3 "):
        diagram(rs)


def test_diagram_reads_a_pair_1e_12_off_orthogonal_as_orthogonal():
    c = 1e-12
    rs = close_roots([[1.0, 0.0], [-c, math.sqrt(1 - c * c)]])
    assert rs.root_count == 4 and diagram(rs) == []


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
