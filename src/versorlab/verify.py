"""The paper's checkable claims as one table, run by the ``verify`` subcommand.

Each ``Claim`` row in ``CLAIMS`` has a name, the acceptance criteria (01-10)
it serves, ``compute(ctx)`` returning a dict of plain values, the expected
value of each field, and a pass detail formatted from the computed fields.
One comparer decides every row: a field expected as ``AtMost(bound)`` passes
when no number in it exceeds the bound (``AtMost()``: the run's tolerance),
any other field when it equals its expected value.  A row whose compute
raises fails with ``"<ExcType>: <msg>"``.  ``run_battery`` runs the rows in
table order, drawing from one seeded generator (VERSORLAB_SEED on the
command line), so a given seed gives byte-identical reports;
``tests/test_acceptance.py`` parametrizes over the same rows.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .algebra import (
    Multivector,
    Signature,
    Versor,
    basis,
    blade,
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
    EPLUS,
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
    _spinor_coords,
    coxeter_number,
    exp_decomposition,
    generate_pin,
    generate_spin,
    quotient_by_sign,
)
from .induction import induce_4d, reflection_agreement, spinorial_automorphisms
from .mckay import _dimension_multisets, abelianization_order, irrep_dimensions, mckay_table
from .roots import catalog, cartan_matrix, check_axioms, diagram

__all__ = ["AtMost", "Claim", "CLAIMS", "CheckResult", "BatteryReport", "run_battery"]


class AtMost(NamedTuple):
    """Expected value of a measured residual; ``None`` is the run's tolerance."""

    bound: Optional[float] = None


class Claim(NamedTuple):
    name: str
    criteria: tuple      # acceptance criteria served, e.g. ("05",)
    compute: Callable    # ctx -> dict of plain values
    expected: dict       # field -> exact value or AtMost
    detail: str          # pass detail, formatted with the computed fields


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
    """One run's seeded generator and tolerance, and the systems and groups its rows share."""

    def __init__(self, seed: int, tol: float):
        self.rng = np.random.default_rng(seed)
        self.tol = tol
        self.catalog = systems = functools.cache(catalog)
        self.spin = spin = functools.cache(lambda name: generate_spin(systems(name)))
        self.pin = functools.cache(lambda name: generate_pin(systems(name)))
        self.induced = functools.cache(lambda name: induce_4d(spin(name)))


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


def _same_elements(got, expected, tol=1e-9) -> tuple:
    """(same grid-key sets, each element within tol of exactly one on the other side)."""
    keys_agree = {g.key() for g in got} == {x.key() for x in expected}
    if len(got) != len(expected):
        return keys_agree, False
    a, b = np.array([g.coeffs for g in got]), np.array([x.coeffs for x in expected])
    close = np.abs(a[:, None] - b[None]).max(axis=2) <= tol
    return keys_agree, bool((close.sum(0) == 1).all() and (close.sum(1) == 1).all())


def _by_field(results) -> dict:
    """NamedTuple results transposed: each field name to the tuple of its values."""
    return dict(zip(results[0]._fields, zip(*results)))


def _reflection_formula(ctx):
    worst = []
    for sig in (Signature(2, 0), Signature(3, 0), Signature(4, 0)):
        for _ in range(400):
            a = _random_unit_vector(ctx, sig)
            v = _random_mv(ctx, sig, grades=[1])
            lhs = reflect(v, a)
            dot = (v * a + a * v).scalar * 0.5
            rhs = v - 2.0 * dot * a
            worst.append(np.abs((lhs - rhs).coeffs).max())
    return {"worst": np.max(worst)}


def _sandwich_isometry(ctx):
    worst = []
    sig = Signature(3, 0)
    for _ in range(1000):
        k = int(ctx.rng.integers(1, 5))
        A = Versor.from_vectors([_random_unit_vector(ctx, sig) for _ in range(k)])
        u = _random_mv(ctx, sig, grades=[1])
        v = _random_mv(ctx, sig, grades=[1])
        u2, v2 = sandwich(u, A), sandwich(v, A)
        before = (u * v + v * u).scalar * 0.5
        after = (u2 * v2 + v2 * u2).scalar * 0.5
        worst.append(abs(before - after))
    return {"worst": np.max(worst)}


def _reversal_antiautomorphism(ctx):
    worst = []
    for sig in (Signature(3, 0), Signature(3, 1)):
        for _ in range(500):
            A = _random_mv(ctx, sig)
            B = _random_mv(ctx, sig)
            delta = (A * B).reverse() - B.reverse() * A.reverse()
            worst.append(np.abs(delta.coeffs).max())
    return {"worst": np.max(worst)}


def _exp_additivity(ctx):
    worst = []
    sig = Signature(3, 0)
    for _ in range(1000):
        b = ctx.rng.normal(size=3)
        b = b / np.linalg.norm(b)
        e = basis(sig)
        B = b[0] * (e[1] * e[2]) + b[1] * (e[2] * e[0]) + b[2] * (e[0] * e[1])
        t1, t2 = ctx.rng.uniform(-2, 2, size=2)
        lhs = (exp_bivector(B, t1) * exp_bivector(B, t2)).mv
        rhs = exp_bivector(B, t1 + t2).mv
        worst.append(np.abs((lhs - rhs).coeffs).max())
    return {"worst": np.max(worst)}


_ROOT_COUNTS = {
    "A1": 2, "A1^3": 6, "A1^4": 8, "A3": 12, "B3": 18, "D4": 24,
    "H3": 30, "F4": 48, "E6": 72, "H4": 120, "E7": 126, "E8": 240,
    "I2(7)": 14,
}


def _root_axioms(ctx):
    spoiled = ctx.catalog("A3").coords.copy()
    spoiled[0] = spoiled[0] * 1.01
    return {"ok": tuple(check_axioms(ctx.catalog(n)).ok for n in ("A3", "B3", "H3", "F4")),
            "perturbed_ok": check_axioms(spoiled).ok}


_DIAGRAM_MARKS = {"A3": [3, 3], "B3": [3, 4], "H3": [3, 5], "F4": [3, 3, 4], "I2(7)": [7]}


def _cartan_diagrams(ctx):
    a3 = cartan_matrix(ctx.catalog("A3"))
    a3_cartan = np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], dtype=float)
    return {"a3_integral": a3.is_integral() and np.allclose(a3.entries, a3_cartan, atol=ctx.tol),
            "marks": {n: sorted(e.m for e in diagram(ctx.catalog(n))) for n in _DIAGRAM_MARKS}}


_GROUPS_3D = ("A1^3", "A3", "B3", "H3")


def _group_orders(ctx):
    return {"pin": tuple(ctx.pin(n).order for n in _GROUPS_3D),
            "spin": tuple(ctx.spin(n).order for n in _GROUPS_3D),
            "quotients": (quotient_by_sign(ctx.spin("A3")).order,
                          quotient_by_sign(ctx.pin("A3")).order)}


def _a3_bivectors():
    return [s * blade(Signature(3, 0), b) for s in (1.0, -1.0) for b in ("e12", "e13", "e23")]


def _conjugacy_tables(ctx):
    spin, pin = ctx.spin("A3"), ctx.pin("A3")
    spin_classes, pin_classes = spin.conjugacy_classes(), pin.conjugacy_classes()
    six = next(c for c in spin_classes if c.size == 6)
    twelve = next(c for c in pin_classes if c.size == 12)
    return {"spin_sizes": [c.size for c in spin_classes],
            "pin_sizes": [c.size for c in pin_classes],
            "size_6_bivectors": _same_elements([m.mv for m in six.members], _a3_bivectors()),
            "size_12_roots": _same_elements([m.mv for m in twelve.members], ctx.catalog("A3").roots),
            "quotient_sizes": tuple([c.size for c in quotient_by_sign(g).conjugacy_classes()]
                                    for g in (spin, pin))}


_PI3_PATTERNS = {tuple(round(s / math.sqrt(3.0), 9) for s in signs): [-1, 1]
                 for signs in itertools.product((1.0, -1.0), repeat=3)}


def _exp_structure(ctx):
    dec = exp_decomposition(ctx.spin("A3"))
    counts = dec.angle_counts()
    signs = {}
    for term in dec.at_angle(math.pi / 3):
        pattern = tuple(round(float(c), 9) for c in _spinor_coords(term.bivector.coeffs)[1:])
        signs.setdefault(pattern, []).append(term.sign)
    return {"at_pi_3": counts.get(round(math.pi / 3, 9), 0),
            "at_pi_2": counts.get(round(math.pi / 2, 9), 0),
            "scalars": len(dec.scalars()),
            "pi_3_signs": {p: sorted(s) for p, s in signs.items()},
            "pi_2_bivectors": _same_elements([t.element for t in dec.at_angle(math.pi / 2)],
                                             _a3_bivectors())}


_COXETER_NUMBERS = {"A3": 4, "B3": 6, "H3": 10, "D4": 6, "F4": 12,
                    "E6": 12, "E7": 18, "E8": 30, "H4": 30}


def _induction(ctx):
    induced = {name: ctx.induced(name) for name in _GROUPS_3D}
    return {"induced": {n: (i.root_count, i.identification) for n, i in induced.items()},
            "axioms": tuple(check_axioms(i.base).ok for i in induced.values())}


def _automorphism_sweeps(ctx):
    sweeps = [spinorial_automorphisms(ctx.induced(n)) for n in ("A3", "B3", "H3")]
    seed = int(ctx.rng.integers(0, 2**31))
    witnesses = [spinorial_automorphisms(ctx.induced(name), pairs=32, seed=seed + k)
                 for k, name in enumerate(("B3", "H3"))]  # float witnesses of the two tables
    return {**_by_field(sweeps), "witness_failures": tuple(w.failures for w in witnesses)}


def _mckay(ctx):
    rows = mckay_table({n: ctx.spin(n) for n in _GROUPS_3D})
    return {**_by_field(rows),
            "dims_2t": irrep_dimensions(ctx.spin("A3")).dims,
            "dims_2t_unique": _dimension_multisets(21, 4, 24),
            "abelianizations": [abelianization_order(ctx.spin(n)) for n in _GROUPS_3D]}


def _conformal_relations(ctx):
    S, T = modular_S(), modular_T()
    minus_one = scalar_mv(CGA_SIG, -1.0)
    e1e = blade(CGA_SIG, "e1") * EPLUS
    a1, a2 = 0.8, -0.6
    closed_form = scalar_mv(CGA_SIG, 1.0) + 0.5 * (NBAR * (a1 * E1 + a2 * E2))
    dil = dilator(0.5).apply(embed(1.0, 0.0)).coords
    inv = inversion_versor().apply(embed(2.0, 0.0)).coords
    rot = rotation(math.pi / 2).apply(embed(1.0, 0.0)).coords
    return {"s_squared": (S * S).mv.close_to(minus_one, ctx.tol),
            "st_cubed": (S * T * S * T * S * T).mv.close_to(minus_one, ctx.tol),
            "e1_eplus_squared": (e1e * e1e).close_to(minus_one, ctx.tol),
            "k_closed_form": special_conformal(a1, a2).mv.close_to(closed_form, ctx.tol),
            "dilator_error": (abs(dil[0] - math.exp(0.5)), abs(dil[1])),
            "inversion_error": (abs(inv[0] - 0.5), abs(inv[1])),
            "rotation_error": (abs(rot[0]), abs(rot[1] - 1.0))}


def _translations(ctx):
    worst = []
    for _ in range(1000):
        a1, a2, x1, x2 = ctx.rng.uniform(-5, 5, size=4)
        got = translator(a1, a2).apply(embed(x1, x2)).coords
        worst += [abs(got[0] - (x1 + a1)), abs(got[1] - (x2 + a2))]
    return {"worst": np.max(worst)}


def _modular_words(ctx):
    letters = np.array(["S", "T", "t"])
    worst, upper = [], True
    for _ in range(1000):
        length = int(ctx.rng.integers(0, 13))
        word = "".join(ctx.rng.choice(letters, size=length))
        x1 = float(ctx.rng.uniform(-2, 2))
        x2 = float(ctx.rng.uniform(0.05, 2.0))
        vx = apply_word(word, (x1, x2))
        ox = mobius_oracle(word, (x1, x2))
        upper = upper and vx[1] > 0
        scale = max(1.0, abs(ox[0]), abs(ox[1]))
        worst += [abs(vx[0] - ox[0]) / scale, abs(vx[1] - ox[1]) / scale]
    return {"upper_half_plane": upper, "worst": np.max(worst)}


CLAIMS: tuple = (
    Claim("kernel.reflection_formula", ("10",), _reflection_formula, {"worst": AtMost()},
          "1200 random mirrors, worst |\u2212ava - (v-2(v|a)a)| = {worst:.2e}"),
    Claim("kernel.sandwich_isometry", ("10",), _sandwich_isometry, {"worst": AtMost()},
          "1000 random versors, worst inner-product drift = {worst:.2e}"),
    Claim("kernel.reversal_antiautomorphism", ("10",), _reversal_antiautomorphism,
          {"worst": AtMost()}, "1000 random products, worst |(AB)~ - ~B~A| = {worst:.2e}"),
    Claim("kernel.exp_additivity", ("10",), _exp_additivity, {"worst": AtMost()},
          "1000 random rotor pairs, worst |e^Bt1 e^Bt2 - e^B(t1+t2)| = {worst:.2e}"),
    Claim("roots.closure_counts", ("01",),
          lambda ctx: {"counts": {n: ctx.catalog(n).root_count for n in _ROOT_COUNTS}},
          {"counts": _ROOT_COUNTS}, "13 catalog closures match"),
    Claim("roots.axioms", ("01",), _root_axioms,
          {"ok": (True, True, True, True), "perturbed_ok": False},
          "A3/B3/H3/F4 pass; perturbed control set is rejected"),
    Claim("roots.cartan_diagram", ("01",), _cartan_diagrams,
          {"a3_integral": True, "marks": _DIAGRAM_MARKS},
          "A3 Cartan integral; edge marks right for A3/B3/H3/F4/I2(7)"),
    Claim("groups.orders", ("02",), _group_orders,
          {"pin": (16, 48, 96, 240), "spin": (8, 24, 48, 120), "quotients": (12, 24)},
          "pin/spin orders 16/8, 48/24, 96/48, 240/120; A3 quotients 12/24"),
    Claim("groups.conjugacy_tables", ("03",), _conjugacy_tables,
          {"spin_sizes": [1, 1, 4, 4, 4, 4, 6], "pin_sizes": [1, 1, 6, 6, 6, 8, 8, 12],
           "size_6_bivectors": (True, True), "size_12_roots": (True, True),
           "quotient_sizes": ([1, 3, 4, 4], [1, 3, 6, 6, 8])},
          "Spin/Pin(A3) class tables and both quotients match, element-level"),
    Claim("groups.exp_structure", ("04",), _exp_structure,
          {"at_pi_3": 16, "at_pi_2": 6, "scalars": 2, "pi_3_signs": _PI3_PATTERNS,
           "pi_2_bivectors": (True, True)},
          "16 at pi/3 over all 8 sign patterns, 6 at pi/2, 2 scalars"),
    Claim("groups.coxeter_numbers", ("07",),
          lambda ctx: {"h": {n: coxeter_number(ctx.catalog(n)) for n in _COXETER_NUMBERS}},
          {"h": _COXETER_NUMBERS}, "all nine geometric Coxeter numbers match"),
    Claim("induction.counts", ("05",), _induction,
          {"induced": {"A1^3": (8, "A1^4"), "A3": (24, "D4"), "B3": (48, "F4"),
                       "H3": (120, "H4")},
           "axioms": (True, True, True, True)},
          "8/24/48/120 roots identified as A1^4/D4/F4/H4, axioms verified"),
    Claim("induction.reflection_agreement", ("05",),
          lambda ctx: _by_field([reflection_agreement(ctx.spin(n)) for n in ("A3", "H3")]),
          {"pairs_tested": (576, 14400), "max_deviation": AtMost(), "all_in_group": (True, True)},
          "A3 {pairs_tested[0]} pairs dev {max_deviation[0]:.1e}; "
          "H3 {pairs_tested[1]} pairs dev {max_deviation[1]:.1e}"),
    Claim("induction.automorphism_sweeps", ("06",), _automorphism_sweeps,
          {"pairs_tested": (576, 2304, 14400), "distinct_images": (288, 1152, 7200),
           "exhaustive": (True, True, True), "failures": (0, 0, 0), "witness_failures": (0, 0)},
          "2T exhaustive {pairs_tested[0]} pairs ({distinct_images[0]} distinct), 2O/2I "
          "exhaustive {pairs_tested[1]}/{pairs_tested[2]} ({distinct_images[1]}/"
          "{distinct_images[2]} distinct), 32-pair float witnesses agree, zero failures"),
    Claim("mckay.table", ("07", "08"), _mckay,
          {"phi_count": (6, 12, 18, 30), "sum_dims": (6, 12, 18, 30),
           "coxeter_h": (6, 12, 18, 30), "lie": ("D4+", "E6+", "E7+", "E8+"),
           "dims_2t": (1, 1, 1, 2, 2, 2, 3), "dims_2t_unique": [(2, 2, 2, 3)],
           "abelianizations": [4, 3, 2, 1]},
          "rows (6,6,6)..(30,30,30); 2T dims 1,1,1,2,2,2,3; abelianizations 4,3,2,1"),
    Claim("cga2d.versor_relations", ("09",), _conformal_relations,
          {"s_squared": True, "st_cubed": True, "e1_eplus_squared": True, "k_closed_form": True,
           "dilator_error": AtMost(1e-9), "inversion_error": AtMost(1e-9),
           "rotation_error": AtMost(1e-9)},
          "S^2 = (ST)^3 = -1; K = eT_ae; dilation e^{{+a}}; inversion and rotation act right"),
    Claim("cga2d.translations", ("09",), _translations, {"worst": AtMost()},
          "1000 random translations, worst coordinate error {worst:.2e}"),
    Claim("cga2d.modular_words", ("09",), _modular_words,
          {"upper_half_plane": True, "worst": AtMost(1e-6)},
          "1000 random words vs Mobius oracle, worst relative dev {worst:.2e}"),
)


def _miss(field: str, want, got, tol: float) -> Optional[str]:
    """The one comparer: None when ``got`` meets ``want``, else what missed; NaN fails a bound."""
    if isinstance(want, AtMost):
        bound, worst = tol if want.bound is None else want.bound, np.max(got)
        return None if worst <= bound else f"{field} {worst:.2e} exceeds {bound:.2e}"
    return None if got == want else f"{field} = {got!r}, expected {want!r}"


def _judge(claim: Claim, ctx: _Ctx) -> CheckResult:
    try:
        got = claim.compute(ctx)
        misses = [m for field, want in claim.expected.items()
                  if (m := _miss(field, want, got[field], ctx.tol))]
        return CheckResult(claim.name, not misses, "; ".join(misses) or claim.detail.format(**got))
    except Exception as exc:  # a crashed claim is a failed claim
        return CheckResult(claim.name, False, f"{type(exc).__name__}: {exc}")


def run_battery(seed: int = 42, tolerance: float = 1e-9) -> BatteryReport:
    """Run every claim in table order; the report is deterministic for a fixed seed."""
    ctx = _Ctx(seed, tolerance)
    return BatteryReport(tuple(_judge(claim, ctx) for claim in CLAIMS), seed, tolerance)
