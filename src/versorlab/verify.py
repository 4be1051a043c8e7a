"""Self-contained invariant battery behind the ``verify`` subcommand.

Each check exercises one contract of the library end to end and returns a
pass/fail verdict with a one-line detail string.  Randomized checks draw
from a seeded generator (VERSORLAB_SEED on the command line), so a given
seed always produces byte-identical reports.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .algebra import (
    Multivector,
    Signature,
    Versor,
    basis,
    exp_bivector,
    kernel_for,
    reflect,
    sandwich,
    scalar_mv,
    vector,
)
from .cga2d import (
    CGA_SIG,
    E1,
    E2,
    NBAR,
    apply_word,
    dilator,
    embed,
    inversion_versor,
    mobius_oracle,
    modular_S,
    modular_T,
    rotation,
    special_conformal,
    translator,
)
from .groups import (
    coxeter_number,
    exp_decomposition,
    generate_pin,
    generate_spin,
    quotient_by_sign,
)
from .induction import induce_4d, reflection_agreement, spinorial_automorphisms
from .mckay import abelianization_order, irrep_dimensions, mckay_table
from .roots import catalog, cartan_matrix, check_axioms, diagram
from .errors import SymmetrySweepFailure

__all__ = ["CheckResult", "BatteryReport", "run_battery"]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class BatteryReport(NamedTuple):
    results: tuple
    seed: int
    tolerance: float

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.passed)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r.passed)

    @property
    def ok(self) -> bool:
        return self.failed == 0


class _Ctx:
    def __init__(self, seed: int, tol: float):
        self.rng = np.random.default_rng(seed)
        self.tol = tol
        self._cache = {}

    def _get(self, kind, name, make):
        if (kind, name) not in self._cache:
            self._cache[kind, name] = make(name)
        return self._cache[kind, name]

    def spin(self, name):
        return self._get("spin", name, lambda n: generate_spin(catalog(n)))

    def pin(self, name):
        return self._get("pin", name, lambda n: generate_pin(catalog(n)))

    def induced(self, name):
        return self._get("induced", name, lambda n: induce_4d(self.spin(n)))


def _random_mv(ctx, sig, grades=None):
    kern = kernel_for(sig)
    coeffs = ctx.rng.normal(size=kern.D)
    if grades is not None:
        mask = np.isin(kern.grades, grades)
        coeffs = coeffs * mask
    return Multivector(sig, coeffs)


def _random_unit_vector(ctx, sig):
    v = ctx.rng.normal(size=sig.dim)
    v = v / np.linalg.norm(v)
    return vector(sig, v)


def _check_reflection_formula(ctx) -> CheckResult:
    worst = 0.0
    for sig in (Signature(2, 0), Signature(3, 0), Signature(4, 0)):
        for _ in range(400):
            a = _random_unit_vector(ctx, sig)
            v = _random_mv(ctx, sig, grades=[1])
            lhs = reflect(v, a)
            dot = (v * a + a * v).scalar * 0.5
            rhs = v - 2.0 * dot * a
            worst = max(worst, float(np.abs((lhs - rhs).coeffs).max()))
    return CheckResult("kernel.reflection_formula", worst <= ctx.tol,
                       f"1200 random mirrors, worst |{chr(0x2212)}ava - (v-2(v|a)a)| = {worst:.2e}")


def _check_sandwich_isometry(ctx) -> CheckResult:
    worst = 0.0
    sig = Signature(3, 0)
    for _ in range(1000):
        k = int(ctx.rng.integers(1, 5))
        A = Versor.from_vectors([_random_unit_vector(ctx, sig) for _ in range(k)])
        u = _random_mv(ctx, sig, grades=[1])
        v = _random_mv(ctx, sig, grades=[1])
        u2, v2 = sandwich(u, A), sandwich(v, A)
        before = (u * v + v * u).scalar * 0.5
        after = (u2 * v2 + v2 * u2).scalar * 0.5
        worst = max(worst, abs(before - after))
    return CheckResult("kernel.sandwich_isometry", worst <= ctx.tol,
                       f"1000 random versors, worst inner-product drift = {worst:.2e}")


def _check_reversal_antiautomorphism(ctx) -> CheckResult:
    worst = 0.0
    for sig in (Signature(3, 0), Signature(3, 1)):
        for _ in range(500):
            A = _random_mv(ctx, sig)
            B = _random_mv(ctx, sig)
            delta = (A * B).reverse() - B.reverse() * A.reverse()
            worst = max(worst, float(np.abs(delta.coeffs).max()))
    return CheckResult("kernel.reversal_antiautomorphism", worst <= ctx.tol,
                       f"1000 random products, worst |(AB)~ - ~B~A| = {worst:.2e}")


def _check_exp_additivity(ctx) -> CheckResult:
    worst = 0.0
    sig = Signature(3, 0)
    for _ in range(1000):
        b = ctx.rng.normal(size=3)
        b = b / np.linalg.norm(b)
        e = basis(sig)
        B = b[0] * (e[1] * e[2]) + b[1] * (e[2] * e[0]) + b[2] * (e[0] * e[1])
        t1, t2 = ctx.rng.uniform(-2, 2, size=2)
        lhs = (exp_bivector(B, t1) * exp_bivector(B, t2)).mv
        rhs = exp_bivector(B, t1 + t2).mv
        worst = max(worst, float(np.abs((lhs - rhs).coeffs).max()))
    return CheckResult("kernel.exp_additivity", worst <= ctx.tol,
                       f"1000 random rotor pairs, worst |e^Bt1 e^Bt2 - e^B(t1+t2)| = {worst:.2e}")


_ROOT_COUNTS = {
    "A1": 2, "A1^3": 6, "A1^4": 8, "A3": 12, "B3": 18, "D4": 24,
    "H3": 30, "F4": 48, "E6": 72, "H4": 120, "E7": 126, "E8": 240,
    "I2(7)": 14,
}


def _check_root_counts(ctx) -> CheckResult:
    got = {name: catalog(name).root_count for name in _ROOT_COUNTS}
    ok = got == _ROOT_COUNTS
    diffs = {k: (got[k], _ROOT_COUNTS[k]) for k in got if got[k] != _ROOT_COUNTS[k]}
    return CheckResult("roots.closure_counts", ok,
                       "13 catalog closures match" if ok else f"mismatches {diffs}")


def _check_root_axioms(ctx) -> CheckResult:
    for name in ("A3", "B3", "H3", "F4"):
        if not check_axioms(catalog(name)).ok:
            return CheckResult("roots.axioms", False, f"{name} failed the axiom check")
    spoiled = catalog("A3").coords.copy()
    spoiled[0] = spoiled[0] * 1.01
    if check_axioms(spoiled).ok:
        return CheckResult("roots.axioms", False,
                           "perturbed A3 passed the axiom check (checker too weak)")
    return CheckResult("roots.axioms", True,
                       "A3/B3/H3/F4 pass; perturbed control set is rejected")


def _check_cartan_diagrams(ctx) -> CheckResult:
    a3 = cartan_matrix(catalog("A3"))
    expect = np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], dtype=float)
    if not (a3.is_integral() and np.allclose(a3.entries, expect, atol=ctx.tol)):
        return CheckResult("roots.cartan_diagram", False, f"A3 Cartan matrix {a3.entries}")
    for name, marks in (("A3", [3, 3]), ("B3", [3, 4]), ("H3", [3, 5]),
                        ("F4", [3, 4, 3]), ("I2(7)", [7])):
        got = sorted(e.m for e in diagram(catalog(name)))
        if got != sorted(marks):
            return CheckResult("roots.cartan_diagram", False, f"{name} edge marks {got}")
    return CheckResult("roots.cartan_diagram", True,
                       "A3 Cartan integral; edge marks right for A3/B3/H3/F4/I2(7)")


def _check_group_orders(ctx) -> CheckResult:
    expect = {("A1^3", "pin"): 16, ("A1^3", "spin"): 8,
              ("A3", "pin"): 48, ("A3", "spin"): 24,
              ("B3", "pin"): 96, ("B3", "spin"): 48,
              ("H3", "pin"): 240, ("H3", "spin"): 120}
    for (name, kind), order in expect.items():
        g = ctx.pin(name) if kind == "pin" else ctx.spin(name)
        if g.order != order:
            return CheckResult("groups.orders", False, f"{kind}({name}) = {g.order} != {order}")
    rot = quotient_by_sign(ctx.spin("A3"))
    full = quotient_by_sign(ctx.pin("A3"))
    if (rot.order, full.order) != (12, 24):
        return CheckResult("groups.orders", False,
                           f"A3 quotients ({rot.order}, {full.order}) != (12, 24)")
    return CheckResult("groups.orders", True,
                       "pin/spin orders 16/8, 48/24, 96/48, 240/120; A3 quotients 12/24")


def _check_conjugacy_tables(ctx) -> CheckResult:
    spin = ctx.spin("A3")
    sizes = sorted(c.size for c in spin.conjugacy_classes())
    if sizes != [1, 1, 4, 4, 4, 4, 6]:
        return CheckResult("groups.conjugacy_tables", False, f"Spin(A3) sizes {sizes}")
    six = next(c for c in spin.conjugacy_classes() if c.size == 6)
    e = basis(Signature(3, 0))
    bivs = {(s * (e[i] * e[j])).key() for s in (1.0, -1.0)
            for i, j in ((0, 1), (1, 2), (2, 0))}
    if {m.mv.key() for m in six.members} != bivs:
        return CheckResult("groups.conjugacy_tables", False,
                           "size-6 class is not {+-e12, +-e23, +-e31}")
    pin = ctx.pin("A3")
    psizes = sorted(c.size for c in pin.conjugacy_classes())
    if psizes != [1, 1, 6, 6, 6, 8, 8, 12]:
        return CheckResult("groups.conjugacy_tables", False, f"Pin(A3) sizes {psizes}")
    twelve = next(c for c in pin.conjugacy_classes() if c.size == 12)
    root_keys = {r.key() for r in catalog("A3").roots}
    if {m.mv.key() for m in twelve.members} != root_keys:
        return CheckResult("groups.conjugacy_tables", False,
                           "size-12 class is not the 12 root vectors")
    rot_sizes = sorted(c.size for c in quotient_by_sign(spin).conjugacy_classes())
    full_sizes = sorted(c.size for c in quotient_by_sign(pin).conjugacy_classes())
    if rot_sizes != [1, 3, 4, 4] or full_sizes != [1, 3, 6, 6, 8]:
        return CheckResult("groups.conjugacy_tables", False,
                           f"quotient sizes {rot_sizes} / {full_sizes}")
    return CheckResult("groups.conjugacy_tables", True,
                       "Spin/Pin(A3) class tables and both quotients match, element-level")


def _check_exp_structure(ctx) -> CheckResult:
    dec = exp_decomposition(ctx.spin("A3"))
    counts = dec.angle_counts()
    n3 = counts.get(round(math.pi / 3, 9), 0)
    n2 = counts.get(round(math.pi / 2, 9), 0)
    ok = (n3, n2, len(dec.scalars())) == (16, 6, 2)
    if not ok:
        return CheckResult("groups.exp_structure", False,
                           f"angle pi/3 x{n3}, pi/2 x{n2}, scalars x{len(dec.scalars())}")
    s3 = 1.0 / math.sqrt(3.0)
    expect = {tuple(s) for s in
              (np.array(np.meshgrid([s3, -s3], [s3, -s3], [s3, -s3])).T.reshape(-1, 3)).tolist()}
    got = set()
    for term in dec.at_angle(math.pi / 3):
        b = term.bivector
        got.add((round(b.coeff("e23"), 9), round(-b.coeff("e13"), 9), round(b.coeff("e12"), 9)))
    rounded = {tuple(round(x, 9) for x in s) for s in expect}
    if got != rounded:
        return CheckResult("groups.exp_structure", False, "pi/3 bivector sign patterns differ")
    return CheckResult("groups.exp_structure", True,
                       "16 at pi/3 over all 8 sign patterns, 6 at pi/2, 2 scalars")


def _check_coxeter_numbers(ctx) -> CheckResult:
    expect = {"A3": 4, "B3": 6, "H3": 10, "D4": 6, "F4": 12,
              "E6": 12, "E7": 18, "E8": 30, "H4": 30}
    got = {name: coxeter_number(catalog(name)) for name in expect}
    ok = got == expect
    return CheckResult("groups.coxeter_numbers", ok,
                       "all nine geometric Coxeter numbers match" if ok
                       else f"mismatches {got}")


def _check_induction(ctx) -> CheckResult:
    expect = {"A1^3": (8, "A1^4"), "A3": (24, "D4"),
              "B3": (48, "F4"), "H3": (120, "H4")}
    for name, (count, label) in expect.items():
        ind = ctx.induced(name)
        if (ind.root_count, ind.identification) != (count, label):
            return CheckResult("induction.counts", False,
                               f"{name} gave {ind.root_count} roots labeled {ind.identification}")
        if not check_axioms(ind.base).ok:
            return CheckResult("induction.counts", False, f"{name} induced set fails axioms")
    return CheckResult("induction.counts", True,
                       "8/24/48/120 roots identified as A1^4/D4/F4/H4, axioms verified")


def _check_reflection_agreement(ctx) -> CheckResult:
    details = []
    for name in ("A3", "H3"):
        ra = reflection_agreement(ctx.spin(name))
        if ra.max_deviation > ctx.tol or not ra.all_in_group:
            return CheckResult("induction.reflection_agreement", False,
                               f"{name}: dev {ra.max_deviation:.2e}, in-group {ra.all_in_group}")
        details.append(f"{name} {ra.pairs_tested} pairs dev {ra.max_deviation:.1e}")
    return CheckResult("induction.reflection_agreement", True, "; ".join(details))


def _check_automorphism_sweeps(ctx) -> CheckResult:
    try:
        sw_t, sw_o, sw_i = (spinorial_automorphisms(ctx.induced(n)) for n in ("A3", "B3", "H3"))
        seed = int(ctx.rng.integers(0, 2**31))
        for k, name in enumerate(("B3", "H3")):  # float witnesses of the two tables
            spinorial_automorphisms(ctx.induced(name), pairs=32, seed=seed + k)
    except SymmetrySweepFailure as exc:
        return CheckResult("induction.automorphism_sweeps", False, str(exc))
    detail = (f"2T exhaustive {sw_t.pairs_tested} pairs ({sw_t.distinct_images} distinct), 2O/2I "
              f"exhaustive {sw_o.pairs_tested}/{sw_i.pairs_tested} ({sw_o.distinct_images}/"
              f"{sw_i.distinct_images} distinct), 32-pair float witnesses agree, zero failures")
    return CheckResult("induction.automorphism_sweeps", True, detail)


def _check_mckay(ctx) -> CheckResult:
    rows = mckay_table({n: ctx.spin(n) for n in ("A1^3", "A3", "B3", "H3")})
    triple = [(r.phi_count, r.sum_dims, r.coxeter_h) for r in rows]
    if triple != [(6, 6, 6), (12, 12, 12), (18, 18, 18), (30, 30, 30)]:
        return CheckResult("mckay.table", False, f"triples {triple}")
    dims_2t = irrep_dimensions(ctx.spin("A3"))
    if dims_2t.dims != (1, 1, 1, 2, 2, 2, 3):
        return CheckResult("mckay.table", False, f"2T dims {dims_2t.dims}")
    abel = [abelianization_order(ctx.spin(n)) for n in ("A1^3", "A3", "B3", "H3")]
    if abel != [4, 3, 2, 1]:
        return CheckResult("mckay.table", False, f"abelianizations {abel}")
    return CheckResult("mckay.table", True,
                       "rows (6,6,6)..(30,30,30); 2T dims 1,1,1,2,2,2,3; abelianizations 4,3,2,1")


def _check_conformal_relations(ctx) -> CheckResult:
    S, T = modular_S(), modular_T()
    minus_one = scalar_mv(CGA_SIG, -1.0)
    if not (S * S).mv.close_to(minus_one, ctx.tol):
        return CheckResult("cga2d.versor_relations", False, "S^2 != -1")
    if not (S * T * S * T * S * T).mv.close_to(minus_one, ctx.tol):
        return CheckResult("cga2d.versor_relations", False, "(ST)^3 != -1")
    a1, a2 = 0.8, -0.6
    K = special_conformal(a1, a2)
    closed_form = scalar_mv(CGA_SIG, 1.0) + 0.5 * (NBAR * (a1 * E1 + a2 * E2))
    if not K.mv.close_to(closed_form, ctx.tol):
        return CheckResult("cga2d.versor_relations", False, "K != e T_a e closed form")
    got = dilator(0.5).apply(embed(1.0, 0.0)).coords
    if abs(got[0] - math.exp(0.5)) > 1e-9 or abs(got[1]) > 1e-9:
        return CheckResult("cga2d.versor_relations", False, f"dilator(0.5) sent (1,0) to {got}")
    inv = inversion_versor()
    got = inv.apply(embed(2.0, 0.0)).coords
    if abs(got[0] - 0.5) > 1e-9 or abs(got[1]) > 1e-9:
        return CheckResult("cga2d.versor_relations", False, f"inversion sent (2,0) to {got}")
    got = rotation(math.pi / 2).apply(embed(1.0, 0.0)).coords
    if abs(got[0]) > 1e-9 or abs(got[1] - 1.0) > 1e-9:
        return CheckResult("cga2d.versor_relations", False, f"rotation(pi/2) sent (1,0) to {got}")
    return CheckResult("cga2d.versor_relations", True,
                       "S^2 = (ST)^3 = -1; K = eT_ae; dilation e^{+a}; inversion and rotation act right")


def _check_translations(ctx) -> CheckResult:
    worst = 0.0
    for _ in range(1000):
        a1, a2, x1, x2 = ctx.rng.uniform(-5, 5, size=4)
        got = translator(a1, a2).apply(embed(x1, x2)).coords
        worst = max(worst, abs(got[0] - (x1 + a1)), abs(got[1] - (x2 + a2)))
    return CheckResult("cga2d.translations", worst <= ctx.tol,
                       f"1000 random translations, worst coordinate error {worst:.2e}")


def _check_modular_words(ctx) -> CheckResult:
    letters = np.array(["S", "T", "t"])
    worst = 0.0
    for _ in range(1000):
        length = int(ctx.rng.integers(0, 13))
        word = "".join(ctx.rng.choice(letters, size=length))
        x1 = float(ctx.rng.uniform(-2, 2))
        x2 = float(ctx.rng.uniform(0.05, 2.0))
        vx = apply_word(word, (x1, x2))
        ox = mobius_oracle(word, (x1, x2))
        if not vx[1] > 0:
            return CheckResult("cga2d.modular_words", False,
                               f"word {word!r} left the upper half-plane: {vx}")
        scale = max(1.0, abs(ox[0]), abs(ox[1]))
        worst = max(worst, max(abs(vx[0] - ox[0]), abs(vx[1] - ox[1])) / scale)
    return CheckResult("cga2d.modular_words", worst <= 1e-6,
                       f"1000 random words vs Mobius oracle, worst relative dev {worst:.2e}")


_CHECKS: tuple = (
    _check_reflection_formula,
    _check_sandwich_isometry,
    _check_reversal_antiautomorphism,
    _check_exp_additivity,
    _check_root_counts,
    _check_root_axioms,
    _check_cartan_diagrams,
    _check_group_orders,
    _check_conjugacy_tables,
    _check_exp_structure,
    _check_coxeter_numbers,
    _check_induction,
    _check_reflection_agreement,
    _check_automorphism_sweeps,
    _check_mckay,
    _check_conformal_relations,
    _check_translations,
    _check_modular_words,
)


def run_battery(seed: int = 42, tolerance: float = 1e-9) -> BatteryReport:
    """Run every check; report is deterministic for a fixed seed."""
    ctx = _Ctx(seed, tolerance)
    results = []
    for check in _CHECKS:
        try:
            results.append(check(ctx))
        except Exception as exc:  # a crashed check is a failed check
            name = check.__name__.replace("_check_", "", 1)
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return BatteryReport(tuple(results), seed, tolerance)
