"""Tests for spinor coordinates, induced 4D root systems, and symmetry sweeps."""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import versorlab.algebra
import versorlab.induction
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
    coxeter_number,
    generate_pin,
    generate_spin,
    identify_4d,
    induce_4d,
    reflection_agreement,
    scalar_mv,
    spinor_coords,
    spinor_inner,
    spinorial_automorphisms,
)
from versorlab.algebra import find_ids, lex_order, row_keys
from versorlab.groups import _spinor_coords
from versorlab.induction import (
    AutomorphismSweep,
    _extract_simple_coords,
    _generic_functional,
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
        assert np.array_equal(row_keys(reclosed.coords), row_keys(ind.base.coords))


def _decomposition_search(coords):
    """Reference extraction: the positive roots that are no strictly positive
    combination of two other positive roots, found by solving a 2x2 system
    against every pair."""
    f = _generic_functional(coords)
    P = coords[coords @ f > 0]
    gram = P @ P.T
    diag = np.diag(gram)
    det = diag[:, None] * diag[None, :] - gram ** 2
    simple_rows = []
    for a in range(P.shape[0]):
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


def _frames(count, seed):
    """The identity, then count - 1 seeded random rotations of R^3."""
    rng = np.random.default_rng(seed)
    yield np.eye(3)
    for _ in range(count - 1):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        yield q if np.linalg.det(q) > 0 else -q


@pytest.mark.parametrize("src", INDUCTION_TABLE)
def test_inversion_count_picks_the_search_roots_in_any_frame(src):
    rs = catalog(src)
    for frame in _frames(20, seed=4410):
        turned = close_roots(rs.simple_coords @ frame.T, SIG3)
        coords = _spinor_coords(generate_spin(turned).element_arr())
        coords = coords[lex_order(coords)]
        got, want = coords[_extract_simple_coords(coords)], _decomposition_search(coords)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["A1^4", "A3", "B3", "H3", "D4", "F4", "H4",
                                  "E6", "E7", "E8", "I2(7)"])
def test_inversion_count_picks_the_search_roots_of_catalog_systems(name):
    coords = catalog(name).coords
    got, want = coords[_extract_simple_coords(coords)], _decomposition_search(coords)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_extraction_rejects_rank_deficient_and_unclosed_sets():
    a3_in_4d = np.hstack([catalog("A3").coords, np.zeros((12, 1))])
    half = np.full((1, 4), 0.5)
    unclosed = np.vstack([np.eye(4), -np.eye(4), half, -half])  # not reflection-closed
    for coords in (a3_in_4d, unclosed):
        with pytest.raises(VersorlabError, match="simple-root extraction found 3"):
            _extract_simple_coords(coords)


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


def test_induced_bases_carry_the_reflection_graph():
    # the base's graph comes from the table, so h and Pin answer on it as on the catalog
    for src, h in (("A1^3", 2), ("A3", 6), ("B3", 12), ("H3", 30)):
        ind = induce_4d(spin_group(src))
        assert np.array_equal(ind.base.simple, _extract_simple_coords(ind.base.coords))
        assert coxeter_number(ind.base) == coxeter_number(catalog(ind.identification)) == h
        if src != "H3":
            assert generate_pin(ind.base).order == generate_pin(catalog(ind.identification)).order


def test_the_coxeter_matrix_decides_not_the_root_count():
    # I2(6) x I2(6) has D4's 24 roots in rank 4, but its Coxeter matrix is not D4's
    g2 = catalog("I2(6)").simple_coords
    seed = np.zeros((4, 4))
    seed[:2, :2], seed[2:, 2:] = g2, g2
    rs = close_roots(seed)
    assert rs.root_count == catalog("D4").root_count == 24
    with pytest.raises(VersorlabError, match="matches no 4D catalog entry"):
        identify_4d(rs)


def test_a_table_cell_that_breaks_a_reflection_is_refused():
    # refl[k, j] reads t[s_k, inv[j]]: a duplicate there makes s_k no permutation
    g = spin_group("A3")
    simple = _extract_simple_coords(_spinor_coords(g.element_arr()))
    inv, t = g.inverses(), g.table.copy()
    t[simple[0], inv[0]] = t[simple[0], inv[1]]
    g.table = t
    with pytest.raises(VersorlabError, match="do not permute the roots"):
        induce_4d(g)


def test_reflection_agreement_covers_single_pairs():
    # every ordered pair: the 4D formula R2 - 2 (R1,R2)/(R1,R1) R1 and the
    # product -R1 ~R2 R1 agree, and the image is a group element
    g = spin_group("A3")
    rep = reflection_agreement(g)
    assert (rep.pairs_tested, rep.all_in_group) == (g.order ** 2, True)
    assert rep.max_deviation <= 1e-9
    els = g.elements
    for _ in range(25):
        i, j = RNG.integers(0, len(els), size=2)
        image = -(els[i].mv * ~els[j].mv * els[i].mv)
        g.index_of(image)
        # independent linear-formula image
        c1, c2 = spinor_coords(els[i]), spinor_coords(els[j])
        ratio = spinor_inner(els[i], els[j]) / spinor_inner(els[i], els[i])
        assert ratio == pytest.approx(float(c1 @ c2))
        assert np.allclose(spinor_coords(image), c2 - 2 * ratio * c1, atol=1e-9)


def test_reflection_in_an_outsider_leaves_the_group():
    g = spin_group("A1^3")
    outsider = Versor(blade(SIG3, "e12") * 0.6 + blade(SIG3, "e13") * 0.8)
    with pytest.raises(VersorlabError, match="not in the group"):
        g.index_of(outsider)
    images = np.array([(-(outsider.mv * ~x.mv * outsider.mv)).coeffs for x in g.elements])
    assert (find_ids(images, g._lookup) < 0).any()


def test_reflection_agreement_exhaustive():
    for src in ("A1^3", "A3"):
        g = spin_group(src)
        rep = reflection_agreement(g)
        assert rep.pairs_tested == g.order ** 2
        assert rep.max_deviation <= 1e-9
        assert rep.all_in_group


def test_reflection_agreement_of_h3_is_drift_free():
    # the two reflection routes agree to rounding: no element carries a
    # per-layer rounding residual (that residual gave 5.8e-13 here)
    rep = reflection_agreement(spin_group("H3"))
    assert rep.all_in_group
    assert rep.max_deviation <= 1e-14


def eight_blade_agreement(g) -> tuple:
    """``reflection_agreement``'s fields, with max_deviation's bits, from full Cl(3,0) rows:
    both routes on all 8 blades and every image looked up by value."""
    garr, kern = g.element_arr(), versorlab.algebra.kernel_for(SIG3)
    coords = _spinor_coords(garr)
    gram = coords @ coords.T
    ratio = gram / np.diag(gram)[:, None]
    linear = garr[None, :, :] - 2.0 * ratio[:, :, None] * garr[:, None, :]
    product = -kern.gp_elemwise(kern.gp_elemwise(garr[:, None], kern.rev(garr)[None]),
                                garr[:, None, :])
    found = versorlab.algebra.find_ids(product, g._lookup)
    return g.order ** 2, float(np.max(np.abs(linear - product))).hex(), bool(np.all(found >= 0))


def agreement_fields(g) -> tuple:
    rep = reflection_agreement(g)
    return rep.pairs_tested, rep.max_deviation.hex(), rep.all_in_group


@pytest.mark.parametrize("src", sorted(INDUCTION_TABLE))
def test_quaternion_reflection_agreement_is_the_eight_blade_one_bit_for_bit(src):
    g = spin_group(src)
    assert agreement_fields(g) == eight_blade_agreement(g)


def test_a_wrong_table_cell_is_caught_by_the_value_lookup(monkeypatch):
    g = spin_group("A3")
    t = g.table.copy()
    t[0, 1] = t[0, 2]  # every cell names some pair's image: -R_i ~R_j R_i uses t[i, inv[j]]
    g.table = t
    looked_up = []

    def find_ids(rows, index):
        looked_up.append(len(rows))
        return versorlab.algebra.find_ids(rows, index)

    monkeypatch.setattr(versorlab.induction, "find_ids", find_ids)
    rep = reflection_agreement(g)
    assert rep.all_in_group and looked_up[0] > 0
    assert agreement_fields(g) == eight_blade_agreement(g)


def test_images_outside_the_group_fail_the_membership_verdict():
    g = spin_group("A3")
    turn = Versor(scalar_mv(SIG3, 0.8) + blade(SIG3, "e12") * 0.6).mv.coeffs
    arr = g.element_arr().copy()
    arr[5] = versorlab.algebra.kernel_for(SIG3).gp(turn, arr[5])  # one element moved off the group
    g._arr = arr
    assert not reflection_agreement(g).all_in_group
    assert agreement_fields(g) == eight_blade_agreement(g)


def test_reflection_agreement_rejects_a_spin_element_with_an_odd_part():
    g = spin_group("A3")
    arr = g.element_arr().copy()
    arr[3, 1] = 1e-3  # an e1 coefficient
    g._arr = arr
    with pytest.raises(VersorlabError, match="Cl\\(3,0\\), no odd part"):
        reflection_agreement(g)


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


@pytest.mark.parametrize("pairs", [0, -1, 2.5])
def test_automorphism_sweep_rejects_a_pairs_that_is_not_a_positive_integer(pairs):
    ind = induce_4d(spin_group("A1^3"))
    with pytest.raises(VersorlabError, match=rf"^pairs must be None or an integer >= 1, "
                                             rf"got {pairs}$"):
        spinorial_automorphisms(ind, pairs=pairs, seed=5)


def test_automorphism_sweep_detects_broken_symmetry():
    ind = induce_4d(spin_group("A1^3"))
    coords = ind.base.coords.copy()
    coords[0] = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2)  # not a root of A1^4
    tampered = ind._replace(base=ind.base.__class__(
        ind.base.sig, coords, ind.base.simple, ind.base.reflections, name=ind.base.name))
    with pytest.raises(SymmetrySweepFailure):
        spinorial_automorphisms(tampered)


def test_sweep_multiplies_out_only_the_float_witness(monkeypatch):
    # the sweep reads the table; only the first 32 sampled pairs are multiplied
    # out, one product for L X and one for (L X) R per root: 2 * 32 * 120 on 2I
    ind = induce_4d(spin_group("H3"))
    ind.source.table  # built before counting starts
    counted = []
    kernel = versorlab.algebra._Kernel
    gp_elemwise = kernel.gp_elemwise

    def counting_elemwise(self, A, B):
        counted.append(int(np.prod(np.broadcast_shapes(A.shape, B.shape)[:-1])))
        return gp_elemwise(self, A, B)

    monkeypatch.setattr(kernel, "gp_elemwise", counting_elemwise)
    assert spinorial_automorphisms(ind).distinct_images == 7200
    assert sum(counted) == 0
    assert spinorial_automorphisms(ind, pairs=2000, seed=5).pairs_tested == 2000
    assert counted == [32 * 120, 32 * 120]


def test_sampled_sweep_catches_a_table_with_swapped_columns():
    g = spin_group("B3")
    ind = induce_4d(g)
    t = g.table.copy()
    t[:, [3, 7]] = t[:, [7, 3]]
    g.table = t  # still a Latin square, so every row of t[t[L], R] is a permutation
    assert spinorial_automorphisms(ind).exhaustive
    with pytest.raises(SymmetrySweepFailure, match="disagrees with the table"):
        spinorial_automorphisms(ind, pairs=2000, seed=5)


def _composite_rows(t, li, ri):
    """Rows of t[t[L], R], the index of L X R for every X, for the pairs (li, ri), n at a time."""
    n, cols = t.shape[0], t.T.copy()
    for c0 in range(0, li.size, n):
        yield c0, cols.take(t[li[c0:c0 + n]] + n * ri[c0:c0 + n, None])


def _per_pair_sweep(r, pairs=None, seed=None):
    """Reference sweep: gather n pairs of t[t[L], R] at a time, sort each row
    against 0..n-1, and key every exhaustive row as its bytes."""
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
    perms = set()
    for c0, imgs in _composite_rows(t, li, ri):
        bad = np.flatnonzero(np.any(np.sort(imgs, axis=1) != np.arange(n), axis=1))
        if bad.size:
            k = c0 + int(bad[0])
            raise SymmetrySweepFailure(f"pair (L={li[k]}, R={ri[k]}) is not a symmetry")
        if pairs is None:
            perms.update(map(bytes, imgs))
    if pairs is None:
        return AutomorphismSweep(n, n * n, True, len(perms))
    l, r, kern = li[:32], ri[:32], versorlab.algebra.kernel_for(SIG3)
    img = kern.gp_elemwise(kern.gp_elemwise(garr[l, None], garr[None]), garr[r, None])
    bad = np.flatnonzero(np.any(row_keys(img) != row_keys(garr[t[t[l], r[:, None]]]), axis=1))
    if bad.size:
        raise SymmetrySweepFailure(f"pair (L={l[bad[0]]}, R={r[bad[0]]}): "
                                   "the float product disagrees with the table")
    return AutomorphismSweep(n, pairs, False, None)


def _outcome(sweep, ind, **kw):
    try:
        return sweep(ind, **kw)
    except SymmetrySweepFailure as exc:
        return "raised", str(exc)


@pytest.mark.parametrize("src", INDUCTION_TABLE)
def test_sweep_matches_the_per_pair_scan_on_intact_and_corrupted_tables(src):
    # 21 tables (the group's own, then 20 copies with one cell changed), each
    # swept exhaustively and at 32 and 2000 pairs from two seeds
    g = spin_group(src)
    ind, n, intact = induce_4d(g), g.order, g.table
    rng = np.random.default_rng(4417)
    tables = [intact]
    for _ in range(20):
        t = intact.copy()
        i, j = rng.integers(0, n, size=2)
        t[i, j] = (t[i, j] + rng.integers(1, n)) % n
        tables.append(t)
    runs = [{}] + [{"pairs": p, "seed": s} for p in (32, 2000) for s in (3, 801)]
    raised = 0
    for t in tables:
        g.table = t
        for kw in runs:
            want = _outcome(_per_pair_sweep, ind, **kw)
            assert _outcome(spinorial_automorphisms, ind, **kw) == want, (src, kw)
            raised += t is not intact and want[0] == "raised"
    assert raised >= 20  # every corrupted table fails its exhaustive sweep at least


@pytest.mark.parametrize("src", INDUCTION_TABLE)
def test_images_of_one_and_the_generators_decide_the_whole_row(src):
    # the sweep codes (L, R) by its images of 1 and the generators s_i s_j; grouped by that
    # code, the n^2 pairs of each group send every X to one and the same row
    g = spin_group(src)
    ind, n = induce_4d(g), g.order
    li, ri = np.divmod(np.arange(n * n), n)
    rows = np.concatenate([imgs for _, imgs in _composite_rows(g.table, li, ri)])
    keys = rows[:, np.append(g._e, g._graph[g._e])].astype(np.int64)
    codes = keys @ n ** np.arange(keys.shape[1])
    order = np.argsort(codes, kind="stable")
    starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
    first = np.repeat(starts, np.diff(np.append(starts, n * n)))  # each pair's group's first
    assert np.array_equal(rows[order], rows[order][first])
    assert starts.size == np.unique(rows, axis=0).shape[0] == np.unique(keys, axis=0).shape[0]
    assert spinorial_automorphisms(ind).distinct_images == starts.size
    assert _per_pair_sweep(ind).distinct_images == starts.size == n * n // 2


def test_exhaustive_2i_sweep_keeps_no_row_of_images():
    # one int64 code per pair, n^2 of them (115 kB on 2I); the n^2 byte rows they
    # replaced peaked at 4.7 MiB
    ind = induce_4d(spin_group("H3"))
    ind.source.table  # built before counting starts
    tracemalloc.start()
    try:
        assert spinorial_automorphisms(ind).distinct_images == 7200
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.4 * (1 << 20), peak


def test_exhaustive_sweep_does_not_import_numpy_ma():
    # np.unique without options imports numpy.ma, 15-25 ms once per process
    code = ("import sys\nfrom versorlab import catalog, generate_spin, induce_4d, "
            "spinorial_automorphisms\n"
            "print(spinorial_automorphisms(induce_4d(generate_spin(catalog('B3')))).distinct_images,"
            " 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "1152 False\n"


def test_exhaustive_sweep_refuses_a_code_past_int64():
    # 1 and 15 generators of a 24-element group: 24^16 > 2^63 does not fit one code
    g = spin_group("A3")
    ind = induce_4d(g)
    g.table
    g._graph = np.tile(g._graph, 5)
    with pytest.raises(VersorlabError, match="^16 images of 24 elements overflow an int64 code$"):
        spinorial_automorphisms(ind)


@pytest.mark.parametrize("src,images", [("B3", 1152), ("H3", 7200)])
def test_sweep_count_does_not_depend_on_the_block_size(src, images, monkeypatch):
    # an L row is 4 n entries, the images of 1 and the three generators under every R:
    # one L row per block (BLOCK = 1 and 4 n), then 7 rows with a short last block
    g = spin_group(src)
    ind, n = induce_4d(g), g.order
    for block in (1, 4 * n, 7 * 4 * n):
        monkeypatch.setattr(versorlab.induction, "BLOCK", block)
        assert spinorial_automorphisms(ind).distinct_images == images, block


def test_induced_gram_spectra_match_catalog():
    # a float witness beside the Coxeter matrix that names the system: induced D4
    # and catalog D4 have identical Gram multisets
    ind = induce_4d(spin_group("A3"))
    cat = catalog("D4")
    gi = np.sort(np.round(ind.base.coords @ ind.base.coords.T, 9).ravel())
    gc = np.sort(np.round(cat.coords @ cat.coords.T, 9).ravel())
    assert np.array_equal(gi, gc)
