"""The four workloads: inputs drawn from the seed, ops, and expected values.

Every expected value below is a fact about the mathematics (root counts,
group orders, class sizes, Coxeter numbers, ...), so it holds in any frame
the seed draws.  See README.md for why each workload exists.
"""

from __future__ import annotations

import cmath
import hashlib
import io
import json
import math
import os
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import versorlab as vl
from versorlab import cli

from runner import Op, expect

# Coxeter diagrams as (rank, [(i, j, m), ...]), 1-based, plain edges m = 3.
DIAGRAMS = {
    "A1^3": (3, []),
    "A3": (3, [(1, 2, 3), (2, 3, 3)]),
    "B3": (3, [(1, 2, 3), (2, 3, 4)]),
    "H3": (3, [(1, 2, 5), (2, 3, 3)]),
    "D4": (4, [(1, 2, 3), (2, 3, 3), (2, 4, 3)]),
    "F4": (4, [(1, 2, 3), (2, 3, 4), (3, 4, 3)]),
    "H4": (4, [(1, 2, 5), (2, 3, 3), (3, 4, 3)]),
    "E6": (6, [(1, 2, 3), (1, 3, 3), (3, 4, 3), (1, 5, 3), (5, 6, 3)]),
    "E7": (7, [(1, 2, 3), (1, 3, 3), (3, 4, 3), (1, 5, 3), (5, 6, 3), (6, 7, 3)]),
    "E8": (8, [(1, 2, 3), (1, 3, 3), (3, 4, 3), (1, 5, 3), (5, 6, 3), (6, 7, 3), (7, 8, 3)]),
}

# name: (root count, Coxeter number)
ROOT_FACTS = {"E6": (72, 12), "E7": (126, 18), "E8": (240, 30), "H4": (120, 30), "F4": (48, 12)}

# name: {kind: (order, class sizes, quotient class sizes, {element order: count})}
GROUP_FACTS = {
    "A1^3": {
        "spin": (8, [1, 1, 2, 2, 2], [1, 1, 1, 1], {1: 1, 2: 1, 4: 6}),
        "pin": (16, [1, 1, 1, 1, 2, 2, 2, 2, 2, 2], [1] * 8, {1: 1, 2: 7, 4: 8}),
    },
    "A3": {
        "spin": (24, [1, 1, 4, 4, 4, 4, 6], [1, 3, 4, 4],
                 {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}),
        "pin": (48, [1, 1, 6, 6, 6, 8, 8, 12], [1, 3, 6, 6, 8],
                {1: 1, 2: 13, 3: 8, 4: 6, 6: 8, 8: 12}),
    },
    "B3": {
        "spin": (48, [1, 1, 6, 6, 6, 8, 8, 12], [1, 3, 6, 6, 8],
                 {1: 1, 2: 1, 3: 8, 4: 18, 6: 8, 8: 12}),
        "pin": (96, [1, 1, 1, 1, 6, 6, 6, 6, 6, 6, 8, 8, 8, 8, 12, 12],
                [1, 1, 3, 3, 6, 6, 6, 6, 8, 8],
                {1: 1, 2: 19, 3: 8, 4: 20, 6: 8, 8: 24, 12: 16}),
    },
    "H3": {
        "spin": (120, [1, 1, 12, 12, 12, 12, 20, 20, 30], [1, 12, 12, 15, 20],
                 {1: 1, 2: 1, 3: 20, 4: 30, 5: 24, 6: 20, 10: 24}),
        "pin": (240, [1, 1, 1, 1] + [12] * 8 + [20] * 4 + [30, 30],
                [1, 1, 12, 12, 12, 12, 15, 15, 20, 20],
                {1: 1, 2: 31, 3: 20, 4: 32, 5: 24, 6: 20, 10: 24, 12: 40, 20: 48}),
    },
    "D4": {
        "spin": (192, [1, 1, 1, 1, 6, 6, 6, 6, 12, 12, 12] + [16] * 8,
                 [1, 1, 6, 6, 6, 6, 6, 16, 16, 16, 16],
                 {1: 1, 2: 3, 3: 32, 4: 60, 6: 96}),
        "pin": (384, [1, 1, 2, 12, 12, 12, 12, 12, 24, 24, 32, 32, 32, 32, 48, 48, 48],
                [1, 1, 6, 6, 6, 12, 12, 12, 24, 24, 24, 32, 32],
                {1: 1, 2: 27, 3: 32, 4: 84, 6: 96, 8: 144}),
    },
}

# 3D system: (binary group, induced 4D system, distinct sweep images,
#             abelianization order, irrep dimensions)
SPIN_FACTS = {
    "A1^3": ("Q8", "A1^4", 32, 4, (1, 1, 1, 1, 2)),
    "A3": ("2T", "D4", 288, 3, (1, 1, 1, 2, 2, 2, 3)),
    "B3": ("2O", "F4", 1152, 2, (1, 1, 2, 2, 2, 3, 3, 4)),
    "H3": ("2I", "H4", 7200, 1, (1, 2, 2, 3, 3, 4, 4, 5, 6)),
}

MCKAY_ROWS = [  # (3D, 4D, binary group, |Phi| = sum of dims = h)
    ("A1^3", "A1^4", "Q8", 6), ("A3", "D4", "2T", 12),
    ("B3", "F4", "2O", 18), ("H3", "H4", "2I", 30),
]

WORD_REL_DEV = 1e-6  # versor route vs Mobius oracle, relative to the result
ISOMETRY_DRIFT = 1e-9  # inner product before vs after a sandwich
ABS_TOL = 1e-9  # everything else that is computed in floating point


# -- inputs --------------------------------------------------------------------


def random_rotation(n: int, rng) -> np.ndarray:
    """A random element of SO(n)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def gram_matrix(name: str) -> np.ndarray:
    rank, edges = DIAGRAMS[name]
    gram = np.eye(rank)
    for i, j, m in edges:
        gram[i - 1, j - 1] = gram[j - 1, i - 1] = -math.cos(math.pi / m)
    return gram


def simple_roots(name: str, rng) -> np.ndarray:
    """Unit simple roots with the system's Gram matrix, in a random frame."""
    seeds = np.linalg.cholesky(gram_matrix(name))
    return seeds @ random_rotation(seeds.shape[0], rng).T


def random_word(rng, length: int) -> str:
    return "".join(rng.choice(list("STt"), size=length))


def oracle_word(word: str, z: complex) -> complex:
    """The benchmark's own complex arithmetic for a modular word."""
    for letter in word:
        z = z + 1 if letter == "T" else z - 1 if letter == "t" else -1 / z
    return z


def close(got, want, tol: float = ABS_TOL) -> bool:
    return bool(np.max(np.abs(np.asarray(got, float) - np.asarray(want, float))) <= tol)


def is_latin(table: np.ndarray) -> bool:
    """Every row and every column is a permutation of 0..n-1."""
    perm = np.arange(table.shape[0])
    return bool(np.all(np.sort(table, axis=1) == perm) and np.all(np.sort(table, axis=0).T == perm))


# -- closure ---------------------------------------------------------------------


def _group_op(name, simple):
    def run(tr):
        rs = tr.call("roots.close_roots", vl.close_roots, simple, name=name, tag=name)
        tr.count("roots.roots", rs.root_count)
        out = {}
        for kind, generate in (("spin", vl.generate_spin), ("pin", vl.generate_pin)):
            tag = f"{kind}({name})"
            g = tr.call("groups.generate_" + kind, generate, rs, tag=name)
            tr.count("groups.elements", g.order)
            classes = tr.call("groups.conjugacy_classes", vl.conjugacy_classes, g, tag=tag)
            quot = tr.call("groups.quotient_by_sign", vl.quotient_by_sign, g, tag=tag)
            qclasses = tr.call("groups.conjugacy_classes", vl.conjugacy_classes, quot, tag=tag)
            table = tr.call("groups.group_table_dict", vl.group_table_dict, g, tag=tag)
            census = Counter(tr.call("groups.element_order", vl.element_order, g, row, tag=tag)
                             for row in g.element_arr())
            out[kind] = (g.order, sorted(c.size for c in classes),
                         2 * quot.order, sorted(c.size for c in qclasses), dict(census),
                         table["order"], [len(c["members"]) for c in table["classes"]])
        return out

    def check(out):
        for kind, (order, sizes, qsizes, census) in GROUP_FACTS[name].items():
            got = out[kind]
            expect(got[0] == order, f"{kind}({name}) order {got[0]} != {order}")
            expect(got[1] == sizes, f"{kind}({name}) class sizes {got[1]}")
            expect(got[2] == order, f"{kind}({name}) quotient order {got[2] // 2}")
            expect(got[3] == qsizes, f"{kind}({name}) quotient class sizes {got[3]}")
            expect(got[4] == census, f"{kind}({name}) element orders {got[4]}")
            expect(got[5] == order and sorted(got[6]) == sizes,
                   f"{kind}({name}) group table disagrees with its classes")

    return Op("group", name, run, check)


def _roots_op(name, simple):
    count, h = ROOT_FACTS[name]
    unit = simple / np.linalg.norm(simple, axis=1)[:, None]
    cartan = 2.0 * unit @ unit.T
    edges = sorted(DIAGRAMS[name][1])

    def run(tr):
        rs = tr.call("roots.close_roots", vl.close_roots, simple, name=name, tag=name)
        tr.count("roots.roots", rs.root_count)
        axioms = tr.call("roots.check_axioms", vl.check_axioms, rs, tag=name)
        cm = tr.call("roots.cartan_matrix", vl.cartan_matrix, rs, tag=name)
        dg = tr.call("roots.diagram", vl.diagram, rs, tag=name)
        hh = tr.call("groups.coxeter_number", vl.coxeter_number, rs, tag=name)
        return rs.root_count, axioms.ok, cm.entries, sorted(tuple(e) for e in dg), hh

    def check(out):
        got_count, ok, entries, got_edges, got_h = out
        expect(got_count == count, f"{name}: {got_count} roots != {count}")
        expect(ok, f"{name}: root axioms fail")
        expect(close(entries, cartan), f"{name}: Cartan matrix differs")
        expect(got_edges == edges, f"{name}: diagram {got_edges}")
        expect(got_h == h, f"{name}: Coxeter number {got_h} != {h}")

    return Op("roots", name, run, check)


class Closure:
    """Building: root closures, Pin/Spin closures and their class tables."""

    name = "closure"
    nominal_pass_s = 6.5

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.ops = [_group_op(n, simple_roots(n, rng)) for n in GROUP_FACTS]
        self.ops += [_roots_op(n, simple_roots(n, rng)) for n in ROOT_FACTS]


# -- induction -------------------------------------------------------------------


def _induction_op(name, simple):
    order, sizes = GROUP_FACTS[name]["spin"][:2]
    binary, induced, images, abel, dims = SPIN_FACTS[name]

    def run(tr):
        rs = tr.call("roots.close_roots", vl.close_roots, simple, name=name, tag=name)
        tr.count("roots.roots", rs.root_count)
        spin = tr.call("groups.generate_spin", vl.generate_spin, rs, tag=name)
        tr.count("groups.elements", spin.order)
        classes = tr.call("groups.conjugacy_classes", vl.conjugacy_classes, spin, tag=name)
        ind = tr.call("induction.induce_4d", vl.induce_4d, spin, tag=name)
        agree = tr.call("induction.reflection_agreement", vl.reflection_agreement, spin, tag=name)
        sweep = tr.call("induction.spinorial_automorphisms", vl.spinorial_automorphisms, ind,
                        tag=name)
        tr.count("induction.sweep_pairs", sweep.pairs_tested)
        table = tr.call("mckay.cayley_table", vl.cayley_table, spin, tag=name)
        tr.count("mckay.table_cells", table.size)
        ab = tr.call("mckay.abelianization_order", vl.abelianization_order, spin, tag=name)
        irreps = tr.call("mckay.irrep_dimensions", vl.irrep_dimensions, spin, tag=name)
        return (spin.order, sorted(c.size for c in classes), ind.identification,
                ind.root_count, agree, sweep, table, ab, irreps.dims)

    def check(out):
        got_order, got_sizes, label, count, agree, sweep, table, ab, got_dims = out
        expect(got_order == order and got_sizes == sizes,
               f"Spin({name}) order {got_order}, class sizes {got_sizes}")
        expect(label == induced and count == order,
               f"Spin({name}) induced {count} roots identified as {label}")
        expect(agree.all_in_group and agree.max_deviation <= ABS_TOL
               and agree.pairs_tested == order * order,
               f"Spin({name}) reflection agreement {agree}")
        expect(sweep.exhaustive and sweep.failures == 0 and sweep.distinct_images == images,
               f"{induced} sweep {sweep}")
        expect(table.shape == (order, order) and is_latin(table),
               f"{binary} Cayley table is not a Latin square")
        expect(ab == abel, f"{binary} abelianization {ab} != {abel}")
        expect(got_dims == dims, f"{binary} irrep dimensions {got_dims}")

    return Op("induce", name, run, check)


def _mckay_op():
    def run(tr):
        return tr.call("mckay.mckay_table", vl.mckay_table)

    def check(rows):
        got = [(r.threeD, r.fourD, r.binary_group, r.phi_count) for r in rows]
        expect(got == MCKAY_ROWS, f"McKay rows {got}")
        for r, (three_d, _, _, n) in zip(rows, MCKAY_ROWS):
            expect((r.phi_count, r.sum_dims, r.coxeter_h) == (n, n, n),
                   f"McKay triple {(r.phi_count, r.sum_dims, r.coxeter_h)} for {three_d}")
            expect(tuple(r.irrep_dims) == SPIN_FACTS[three_d][4], f"McKay dims {r.irrep_dims}")

    return Op("mckay_table", "", run, check)


class Induction:
    """The 4D pipeline: induction, two-sided sweeps and the McKay tables."""

    name = "induction"
    nominal_pass_s = 7.5

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.ops = [_induction_op(n, simple_roots(n, rng)) for n in SPIN_FACTS]
        self.ops.append(_mckay_op())


# -- words -----------------------------------------------------------------------


def _word_op(word, tau):
    want = oracle_word(word, complex(*tau))

    def run(tr):
        tr.count("cga2d.letters", len(word))
        versor = tr.call("cga2d.apply_word", vl.apply_word, word, tau, tag=str(len(word)))
        oracle = tr.call("cga2d.mobius_oracle", vl.mobius_oracle, word, tau, tag=str(len(word)))
        return versor, oracle

    def check(out):
        versor, oracle = out
        scale = max(1.0, abs(want))
        expect(abs(complex(*oracle) - want) <= 1e-12 * scale, f"oracle {word!r} {oracle}")
        dev = max(abs(versor[0] - oracle[0]), abs(versor[1] - oracle[1])) / scale
        expect(dev <= WORD_REL_DEV, f"word {word!r} at {tau}: relative deviation {dev:.2e}")

    return Op("word", str(len(word)), run, check)


_MAPS = {
    "translator": lambda a, z: z + a,
    "rotation": lambda a, z: z * cmath.exp(1j * a.real),
    "dilator": lambda a, z: z * math.exp(a.real),
    "special_conformal": lambda a, z: z / (1 + a.conjugate() * z),
}


def _map_op(kind, a, z):
    make = getattr(vl, kind)
    params = (a.real, a.imag) if kind in ("translator", "special_conformal") else (a.real,)
    want = _MAPS[kind](a, z)

    def run(tr):
        versor = tr.call("cga2d." + kind, make, *params)
        point = tr.call("cga2d.embed", vl.embed, z.real, z.imag)
        return tr.call("cga2d.apply", versor.apply, point, tag=kind).coords

    def check(got):
        expect(abs(complex(*got) - want) <= ABS_TOL * max(1.0, abs(want)),
               f"{kind}({a}) sent {z} to {got}, not {want}")

    return Op("map", kind, run, check)


def _sandwich_op(sig, vectors, u, v):
    vecs = [vl.vector(sig, c) for c in vectors]
    um, vm = vl.vector(sig, u), vl.vector(sig, v)
    before = float(u @ v)
    tag = f"Cl({sig.p},{sig.q})"

    def run(tr):
        versor = tr.call("algebra.versor", vl.Versor.from_vectors, vecs, tag=tag)
        return (tr.call("algebra.sandwich", vl.sandwich, um, versor, tag=tag),
                tr.call("algebra.sandwich", vl.sandwich, vm, versor, tag=tag))

    def check(out):
        u2, v2 = (w.vector_coords() for w in out)
        drift = abs(float(u2 @ v2) - before)
        expect(drift <= ISOMETRY_DRIFT, f"{len(vectors)}-vector versor in {tag}: drift {drift:.2e}")

    return Op("sandwich", tag, run, check)


def reference_signs(p: int, q: int) -> np.ndarray:
    """sign[a, b] of e_a e_b = sign * e_(a^b), for blades as bitmasks."""
    n = p + q
    idx = np.arange(1 << n)
    a, b = idx[:, None], idx[None, :]
    swaps = np.zeros((1 << n, 1 << n), dtype=np.int64)
    negative = np.zeros_like(swaps)
    for i in range(n):
        lower = b & ((1 << i) - 1)
        swaps += ((a >> i) & 1) * sum((lower >> j) & 1 for j in range(i))
        if i >= p:
            negative += (a >> i) & (b >> i) & 1
    return np.where((swaps + negative) % 2, -1.0, 1.0)


def _product_op(sig, signs, x, y):
    idx = np.arange(x.size)
    partner = idx[:, None] ^ idx[None, :]  # partner[a, k] = a ^ k
    want = (x[:, None] * y[partner] * signs[idx[:, None], partner]).sum(axis=0)
    a, b = vl.Multivector(sig, x), vl.Multivector(sig, y)
    tag = f"Cl({sig.p},{sig.q})"

    def run(tr):
        return tr.call("algebra.geometric_product", vl.geometric_product, a, b, tag=tag)

    def check(got):
        expect(close(got.coeffs, want), f"geometric product in {tag} differs from reference")

    return Op("product", tag, run, check)


class Words:
    """The algebra layer one product at a time: words, maps, sandwiches."""

    name = "words"
    nominal_pass_s = 2.0
    counts = {"word": 1200, "map": 600, "sandwich": 600, "product": 300}

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        ops = []
        # Lengths, versor sizes and signatures cycle, so every seed does the
        # same amount of work; the seed draws letters, points and coefficients.
        for i in range(self.counts["word"]):
            word = random_word(rng, i % 17)
            ops.append(_word_op(word, (float(rng.uniform(-2, 2)), float(rng.uniform(0.05, 2)))))
        kinds = list(_MAPS)
        for i in range(self.counts["map"]):
            # small special-conformal a keeps 1 + conj(a) z, the image's denominator, >= 0.4
            reach = 0.3 if kinds[i % 4] == "special_conformal" else 2.0
            a = complex(*rng.uniform(-reach, reach, size=2))
            ops.append(_map_op(kinds[i % 4], a, complex(*rng.uniform(-1, 1, size=2))))
        for i in range(self.counts["sandwich"]):
            sig = vl.Signature(3 + i % 2, 0)
            vecs = rng.standard_normal((1 + (i // 2) % 4, sig.dim))
            vecs /= np.linalg.norm(vecs, axis=1)[:, None]
            ops.append(_sandwich_op(sig, vecs, *rng.standard_normal((2, sig.dim))))
        sigs = [vl.Signature(3, 0), vl.Signature(3, 1), vl.Signature(8, 0)]
        signs = [reference_signs(sig.p, sig.q) for sig in sigs]
        for i in range(self.counts["product"]):
            sig = sigs[i % 3]
            ops.append(_product_op(sig, signs[i % 3], *rng.standard_normal((2, sig.blade_count))))
        order = rng.permutation(len(ops))
        self.ops = [ops[i] for i in order]


# -- cli -------------------------------------------------------------------------


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_verify(text):
    report = json.loads(text)
    expect(report["passed"] == 18 and report["failed"] == 0 and len(report["checks"]) == 18,
           f"verify passed {report['passed']}, failed {report['failed']}")


def _check_mckay(text):
    rows = json.loads(text)["rows"]
    got = [(r["threeD"], r["fourD"], r["binary_group"], r["phi_count"], r["sum_dims"],
            r["coxeter_h"], tuple(r["irrep_dims"])) for r in rows]
    want = [(t, f, b, n, n, n, SPIN_FACTS[t][4]) for t, f, b, n in MCKAY_ROWS]
    expect(got == want, f"mckay rows {got}")


def _check_induce(text):
    r = json.loads(text)
    got = (r["identification"], r["root_count"], r["spin_order"], r["axioms_ok"])
    expect(got == ("H4", 120, 120, True), f"induce H3 gave {got}")
    ra = r["reflection_agreement"]
    expect(ra["all_in_group"] and ra["max_deviation"] <= ABS_TOL and ra["pairs_tested"] == 14400,
           f"induce H3 reflection agreement {ra}")
    expect(r["automorphism_sweep"]["pairs_tested"] == 2000, "induce H3 sweep size")


def _check_classes(text):
    table = json.loads(text)
    order, sizes = GROUP_FACTS["H3"]["pin"][:2]
    got = sorted(c["size"] for c in table["classes"])
    expect(table["order"] == order and got == sizes, f"classes H3 --kind pin sizes {got}")


def _check_roots(text):
    lines = text.splitlines()
    expect(lines[0] == "# E8: 240 roots, rank 8 in Cl(8,0)", f"roots E8 header {lines[0]!r}")
    expect("## Cartan matrix (integral)" in lines, "roots E8 Cartan matrix not integral")
    body = lines[lines.index("## All 240 roots") + 2:]
    expect(sum(1 for ln in body if ln.startswith("| ")) == 242, "roots E8 lists != 240 roots")


def _check_group(text):
    lines = text.splitlines()
    expect(lines[0] == "index,element" and len(lines) == 193
           and [ln.split(",", 1)[0] for ln in lines[1:]] == [str(i) for i in range(192)],
           "group D4 --kind spin csv is not 192 indexed elements")


def _modular_check(word, tau):
    want = oracle_word(word, complex(*tau))

    def check(text):
        r = json.loads(text)
        scale = max(1.0, abs(want))
        expect(r["word"] == word and abs(complex(*r["oracle_result"]) - want) <= 1e-9 * scale,
               f"modular oracle {r['oracle_result']} != {want}")
        versor, oracle = r["versor_result"], r["oracle_result"]
        dev = max(abs(versor[0] - oracle[0]), abs(versor[1] - oracle[1])) / scale
        expect(dev <= WORD_REL_DEV, f"modular {word!r}: relative deviation {dev:.2e}")

    return check


class Cli:
    """What users run: every subcommand through cli.main, stdout captured."""

    name = "cli"
    nominal_pass_s = 16.5

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        word = random_word(rng, 12)
        tau = (float(rng.uniform(-2, 2)), float(rng.uniform(0.05, 2)))
        # verify's randomized checks read the seed; every other input is fixed
        os.environ["VERSORLAB_SEED"] = str(seed)
        commands = [
            ("verify", ["verify"], _check_verify),
            ("mckay", ["mckay"], _check_mckay),
            ("induce", ["induce", "H3"], _check_induce),
            ("classes", ["classes", "H3", "--kind", "pin"], _check_classes),
            ("roots", ["roots", "E8", "--format", "markdown"], _check_roots),
            ("group", ["group", "D4", "--kind", "spin", "--format", "csv"], _check_group),
            ("modular", ["modular", word, repr(tau[0]), repr(tau[1])], _modular_check(word, tau)),
        ]
        self.digests: dict = {}
        self.ops = [self._op(*c) for c in commands]

    def _op(self, sub, argv, check_text):
        def run(tr):
            return tr.call("cli." + sub, _run_cli, argv)

        def check(out):
            code, text, err = out
            expect(code == 0, f"versorlab {' '.join(argv)} exited {code}: {err.strip()}")
            digest = hashlib.sha256(text.encode()).hexdigest()
            seen = self.digests.setdefault(sub, [])
            seen.append(digest)
            expect(digest == seen[0], f"stdout of {sub} changed between passes")
            check_text(text)

        return Op("cli." + sub, " ".join(argv[1:]), run, check)


WORKLOADS = {w.name: w for w in (Cli, Closure, Induction, Words)}
