"""The paper's checkable claims as one table, run by the ``verify`` subcommand.

Each ``Claim`` row in ``CLAIMS`` has a name, the acceptance criteria (01-10)
it serves, ``compute(ctx)`` returning a dict of plain values, the expected
value of each field, and a pass detail formatted from the computed fields.
One comparer decides every row: a field expected as ``AtMost(bound)`` passes
when no number in it exceeds the bound (``AtMost()``: ``DEFAULT_EPS``),
any other field when it equals its expected value.  A row whose compute
raises fails with ``"<ExcType>: <msg>"``.  ``run_battery`` runs the rows in
table order, drawing from one seeded generator (VERSORLAB_SEED on the
command line), so a given seed gives byte-identical reports;
``tests/test_acceptance.py`` parametrizes over the same rows.

The five batched rows (the four ``kernel.*`` rows and ``cga2d.translations``)
check the public route: ``reflect``, ``Versor``, ``sandwich``, ``exp_bivector``
and ``translator(...).apply(embed(...))``.  They draw the numbers that route drew,
in its order, so a seed keeps its meaning; a row drawing from one distribution
draws a block as one array.  Then they evaluate all draws at once as array
expressions on ``gp_elemwise``, ``rev``, the grade masks and the batched scalar
part, which give the route's floats bit for bit, and make each of the route's
checks on all draws at once (``cga2d.translations`` with ``cga2d``'s own point tests
and renormalization).  When a check fails, the generator is rewound and
the draws are replayed through the public route, drawing as they go, so the row
fails with that route's own error.  The first 32 draws of each algebra a row
samples also take the public route as a witness: ``witness_mismatches`` counts
the draws whose outputs differ from the batch in any bit, and ``worst`` is the
worst residual of the batch and the witness.  ``cga2d.modular_words`` takes each
draw through ``apply_word`` and ``mobius_oracle`` as it is drawn, so a word the
route rejects fails the row with that route's own error.  ``groups.exp_structure``
reads each element of Spin(A3) as +-exp(B theta) off its spinor coordinates.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .algebra import (
    DEFAULT_EPS,
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
    vector_rows,
)
from .cga2d import (
    CGA_SIG,
    E1,
    E2,
    EPLUS,
    NBAR,
    NINF,
    _point_tests,
    _renormalized,
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
from .errors import VersorlabError
from .groups import (
    _spinor_coords,
    coxeter_number,
    generate_pin,
    generate_spin,
    quotient_by_sign,
)
from .induction import induce_4d, reflection_agreement, spinorial_automorphisms
from .mckay import abelianization_order, irrep_dimensions, mckay_table
from .roots import catalog, cartan_matrix, check_axioms, diagram

__all__ = ["AtMost", "Claim", "CLAIMS", "CheckResult", "BatteryReport", "run_battery"]


class AtMost(NamedTuple):
    """Expected value of a measured residual: no number in it exceeds ``bound``."""

    bound: float = DEFAULT_EPS


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
    """One run's seeded generator, and the systems and groups its rows share."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.catalog = systems = functools.cache(catalog)
        self.spin = spin = functools.cache(lambda name: generate_spin(systems(name)))
        self.pin = functools.cache(lambda name: generate_pin(systems(name)))
        self.induced = functools.cache(lambda name: induce_4d(spin(name)))


def _unit(ctx, n) -> np.ndarray:
    v = ctx.rng.normal(size=n)
    return v / math.sqrt(v.dot(v))  # np.linalg.norm's own floats for a 1-D vector


def _vector(ctx, sig) -> np.ndarray:
    return ctx.rng.normal(size=sig.blade_count) * kernel_for(sig).grade_masks[1]


def _same_elements(got, expected) -> tuple:
    """(same grid-key sets, each element within DEFAULT_EPS of exactly one on the other side)."""
    keys_agree = {g.key() for g in got} == {x.key() for x in expected}
    if len(got) != len(expected):
        return keys_agree, False
    a, b = np.array([g.coeffs for g in got]), np.array([x.coeffs for x in expected])
    close = np.abs(a[:, None] - b[None]).max(axis=2) <= DEFAULT_EPS
    return keys_agree, bool((close.sum(0) == 1).all() and (close.sum(1) == 1).all())


def _by_field(results) -> dict:
    """NamedTuple results transposed: each field name to the tuple of its values."""
    return dict(zip(results[0]._fields, zip(*results)))


# -- the sampled rows: public route per draw, and the same floats as one batch ----

_WITNESS = 32  # leading draws of each block that also take the public route
_CL3, _CGA = Signature(3, 0), kernel_for(CGA_SIG)


def _sampled(ctx, blocks, batch, public):
    """Fields ``worst`` and ``witness_mismatches`` of (n, draw) blocks.

    ``draw(ctx, n)`` gives n draws, ``public`` takes one through the public route,
    ``batch`` takes a block's draws to one record row each (outputs, then the residual),
    or to None when a draw fails one of the public route's checks.  Then the
    generator is rewound and the block replayed through ``public``, one
    ``draw(ctx, 1)`` at a time, so the row fails with that route's error.
    """
    worst, mismatches = [], 0
    for n, draw in blocks:
        state = ctx.rng.bit_generator.state
        drawn = draw(ctx, n)
        rec = batch(drawn)
        if rec is None:
            ctx.rng.bit_generator.state = state
            for _ in range(n):
                public(draw(ctx, 1)[0])
            raise VersorlabError("a batched check failed where the public route passed")
        witness = np.array([public(d) for d in drawn[:_WITNESS]])
        mismatches += int((witness != rec[:_WITNESS]).any(axis=1).sum())
        worst += [rec[:, -1].max(), witness[:, -1].max()]
    return {"worst": np.max(worst), "witness_mismatches": mismatches}


def _graded(kern, X, k) -> np.ndarray:
    return np.abs(X[:, ~kern.grade_masks[k]]).max(axis=1, initial=0.0) <= DEFAULT_EPS


def _versor_checks(kern, R):
    """``Versor``'s checks on each row of R, and its parity: (passes, odd).

    Like every batched check here it passes exactly where the public route's
    own test passes (``x <= bound`` for Versor's fail-closed tests, elsewhere
    ``~(x > bound)`` for ``if x > bound: raise``), so a NaN passes or fails both alike.
    """
    odd = np.abs(R[:, kern.odd]).max(axis=1, initial=0.0)
    even = np.abs(R[:, kern.even]).max(axis=1, initial=0.0)
    norm = np.abs(kern.gp_elemwise(R, kern.rev(R)))  # R ~R = +-1
    return (((odd <= DEFAULT_EPS) | (even <= DEFAULT_EPS))
            & (np.abs(norm - np.eye(1, kern.D)).max(axis=1) <= DEFAULT_EPS)), odd > DEFAULT_EPS


def _sandwich(kern, R, odd, X):
    """``sandwich`` of each row of X by R's row, or by R: (images, X passes the grade-1 test)."""
    R = np.broadcast_to(R, X.shape)
    out = kern.gp_elemwise(kern.gp_elemwise(kern.rev(R), X), R)
    out = np.where(np.reshape(odd, (-1, 1)), -out, out)
    return np.where(kern.grade_masks[1], out, 0.0), _graded(kern, X, 1)


def _reflection_public(draw):
    sig, a, v = draw
    a, v = vector(sig, a), Multivector(sig, v)
    lhs = reflect(v, a)
    dot = (v * a + a * v).scalar * 0.5
    rhs = v - 2.0 * dot * a
    return [*lhs.coeffs, np.abs((lhs - rhs).coeffs).max()]


def _reflection_batch(drawn):
    sigs, a, V = zip(*drawn)
    kern, A, V = kernel_for(sigs[0]), vector_rows(sigs[0], a), np.array(V)
    lhs, graded = _sandwich(kern, A, True, V)  # ~a = a for a vector
    unit = ~(np.abs(np.abs(kern.scalar_part(A, A)) - 1.0) > DEFAULT_EPS)
    if not (graded & _graded(kern, A, 1) & unit).all():
        return None
    dot = (kern.scalar_part(V, A) + kern.scalar_part(A, V)) * 0.5
    return np.column_stack([lhs, np.abs(lhs - (V - (2.0 * dot)[:, None] * A)).max(axis=1)])


def _mirror_draws(ctx, n, sig):
    """n draws of (sig, ``_unit``, ``_vector``) from one array, row by row the same floats."""
    X = ctx.rng.normal(size=(n, sig.dim + sig.blade_count))
    A, V = X[:, :sig.dim], X[:, sig.dim:] * kernel_for(sig).grade_masks[1]
    return [(sig, a / math.sqrt(a.dot(a)), v) for a, v in zip(A, V)]


def _reflection_formula(ctx):
    blocks = [(400, functools.partial(_mirror_draws, sig=sig))
              for sig in (Signature(2, 0), Signature(3, 0), Signature(4, 0))]
    return _sampled(ctx, blocks, _reflection_batch, _reflection_public)


def _isometry_public(draw):
    vectors, u, v = draw
    A = Versor.from_vectors([vector(_CL3, w) for w in vectors])
    u, v = Multivector(_CL3, u), Multivector(_CL3, v)
    u2, v2 = sandwich(u, A), sandwich(v, A)
    before = (u * v + v * u).scalar * 0.5
    after = (u2 * v2 + v2 * u2).scalar * 0.5
    return [*u2.coeffs, *v2.coeffs, abs(before - after)]


def _isometry_batch(drawn):
    vectors, U, V = zip(*drawn)
    k, U, V = kernel_for(_CL3), np.array(U), np.array(V)
    count = np.array([len(w) for w in vectors])
    W = np.array([w + w[:1] * (4 - len(w)) for w in vectors])  # padded to 4 vectors each
    R = vector_rows(_CL3, W[:, 0])
    for j in range(1, 4):  # Versor.from_vectors' left-to-right products
        R = np.where((count > j)[:, None], k.gp_elemwise(R, vector_rows(_CL3, W[:, j])), R)
    ok, odd = _versor_checks(k, R)
    (U2, u_graded), (V2, v_graded) = _sandwich(k, R, odd, U), _sandwich(k, R, odd, V)
    if not (ok & u_graded & v_graded).all():
        return None
    before = (k.scalar_part(U, V) + k.scalar_part(V, U)) * 0.5
    after = (k.scalar_part(U2, V2) + k.scalar_part(V2, U2)) * 0.5
    return np.column_stack([U2, V2, np.abs(before - after)])


def _sandwich_isometry(ctx):
    draw = lambda c, n: [([_unit(c, 3) for _ in range(int(c.rng.integers(1, 5)))],
                          _vector(c, _CL3), _vector(c, _CL3)) for _ in range(n)]
    return _sampled(ctx, [(1000, draw)], _isometry_batch, _isometry_public)


def _reversal_public(draw):
    sig, A, B = draw
    A, B = Multivector(sig, A), Multivector(sig, B)
    delta = (A * B).reverse() - B.reverse() * A.reverse()
    return [*delta.coeffs, np.abs(delta.coeffs).max()]


def _reversal_batch(drawn):
    sigs, A, B = zip(*drawn)
    k, A, B = kernel_for(sigs[0]), np.array(A), np.array(B)
    delta = k.rev(k.gp_elemwise(A, B)) - k.gp_elemwise(k.rev(B), k.rev(A))
    return np.column_stack([delta, np.abs(delta).max(axis=1)])


def _reversal_antiautomorphism(ctx):
    blocks = [(500, lambda c, n, s=sig: [(s, *AB) for AB in
                                         c.rng.normal(size=(n, 2, s.blade_count))])
              for sig in (Signature(3, 0), Signature(3, 1))]
    return _sampled(ctx, blocks, _reversal_batch, _reversal_public)


def _exp_public(draw):
    b, t1, t2 = draw
    e = basis(_CL3)
    B = b[0] * (e[1] * e[2]) + b[1] * (e[2] * e[0]) + b[2] * (e[0] * e[1])
    lhs = (exp_bivector(B, t1) * exp_bivector(B, t2)).mv
    rhs = exp_bivector(B, t1 + t2).mv
    return [*lhs.coeffs, *rhs.coeffs, np.abs((lhs - rhs).coeffs).max()]


def _exp_batch(drawn):
    (b, t1, t2), k, e = map(np.array, zip(*drawn)), kernel_for(_CL3), basis(_CL3)
    B = (b[:, :1] * (e[1] * e[2]).coeffs + b[:, 1:2] * (e[2] * e[0]).coeffs
         + b[:, 2:] * (e[0] * e[1]).coeffs)
    rotors = []
    for t in (t1, t2, t1 + t2):  # exp_bivector, with math's sin and cos
        rotors.append(B * np.array([math.sin(x) for x in t])[:, None])
        rotors[-1][:, 0] += [math.cos(x) for x in t]
    lhs, rhs = k.gp_elemwise(rotors[0], rotors[1]), rotors[2]
    square = np.abs(k.gp_elemwise(B, B) + np.eye(1, k.D)).max(axis=1)  # B^2 = -1
    ok = _graded(k, B, 2) & ~(square > DEFAULT_EPS)
    if not (ok & np.all([_versor_checks(k, R)[0] for R in (*rotors, lhs)], axis=0)).all():
        return None
    return np.column_stack([lhs, rhs, np.abs(lhs - rhs).max(axis=1)])


def _exp_additivity(ctx):
    draw = lambda c, n: [(_unit(c, 3), *c.rng.uniform(-2, 2, size=2)) for _ in range(n)]
    return _sampled(ctx, [(1000, draw)], _exp_batch, _exp_public)


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
    a3, a3_cartan = ctx.catalog("A3"), np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], dtype=float)
    return {"a3_integral": bool((a3.coxeter_matrix <= 3).all())
            and np.allclose(cartan_matrix(a3).entries, a3_cartan, atol=DEFAULT_EPS),
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
    """Each element of Spin(A3) as sign (cos theta + B sin theta), read off its spinor
    coordinates (a0, b): theta = atan2(|b|, |a0|), the sign of a0 and B's axis b / |b|."""
    rows = ctx.spin("A3").element_arr()
    a0, b = _spinor_coords(rows)[:, 0], _spinor_coords(rows)[:, 1:]
    bmag, sign = np.linalg.norm(b, axis=1), np.where(a0 < -DEFAULT_EPS, -1, 1)
    pi_3, pi_2 = (np.flatnonzero(np.abs(np.arctan2(bmag, np.abs(a0)) - t) <= DEFAULT_EPS)
                  for t in (math.pi / 3, math.pi / 2))
    signs, bivectors = {}, [Multivector(_CL3, row) for row in rows[pi_2]]
    for i in pi_3.tolist():
        axis = tuple(round(c, 9) for c in (sign[i] * b[i] / bmag[i]).tolist())
        signs.setdefault(axis, []).append(int(sign[i]))
    return {"at_pi_3": pi_3.size, "at_pi_2": pi_2.size, "scalars": int((bmag <= DEFAULT_EPS).sum()),
            "pi_3_signs": {p: sorted(s) for p, s in signs.items()},
            "pi_2_bivectors": _same_elements(bivectors, _a3_bivectors())}


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
    return {"s_squared": (S * S).mv.close_to(minus_one),
            "st_cubed": (S * T * S * T * S * T).mv.close_to(minus_one),
            "e1_eplus_squared": (e1e * e1e).close_to(minus_one),
            "k_closed_form": special_conformal(a1, a2).mv.close_to(closed_form),
            "dilator_error": (abs(dil[0] - math.exp(0.5)), abs(dil[1])),
            "inversion_error": (abs(inv[0] - 0.5), abs(inv[1])),
            "rotation_error": (abs(rot[0]), abs(rot[1] - 1.0))}


def _translation_public(draw):
    a1, a2, x1, x2 = draw
    got = translator(a1, a2).apply(embed(x1, x2)).coords
    return [*got, np.max([abs(got[0] - (x1 + a1)), abs(got[1] - (x2 + a2))])]


def _translation_batch(drawn):
    a1, a2, x1, x2 = np.array(drawn).T
    na = _CGA.gp_elemwise(np.broadcast_to(NINF.coeffs, (len(a1), _CGA.D)),
                          vector_rows(CGA_SIG, np.column_stack([a1, a2])))
    T = scalar_mv(CGA_SIG, 1.0).coeffs - 0.5 * na  # translator's 1 - n a / 2
    sq = np.array([float(a) ** 2 + float(b) ** 2 for a, b in zip(x1, x2)])  # embed's ** squares
    X = (sq[:, None] * NINF.coeffs + 2.0 * vector_rows(CGA_SIG, np.column_stack([x1, x2]))
         - NBAR.coeffs) * 0.5
    ok, odd = _versor_checks(_CGA, T)
    Y, graded = _sandwich(_CGA, T, odd, X)
    got, finite = _renormalized(Y)
    if not np.all([ok, graded, finite, *_point_tests(X, DEFAULT_EPS),
                   *_point_tests(got, DEFAULT_EPS)]):
        return None
    got = got[:, 1:3]
    return np.column_stack([got, np.abs(got - np.column_stack([x1 + a1, x2 + a2])).max(axis=1)])


def _translations(ctx):
    draw = lambda c, n: c.rng.uniform(-5, 5, size=(n, 4))
    return _sampled(ctx, [(1000, draw)], _translation_batch, _translation_public)


def _word_draw(ctx):
    letters = ctx.rng.integers(0, 3, size=int(ctx.rng.integers(0, 13)))
    word = "".join(["STt"[i] for i in letters.tolist()])
    return word, (float(ctx.rng.uniform(-2, 2)), float(ctx.rng.uniform(0.05, 2.0)))


def _modular_words(ctx):
    vx, ox = np.hsplit(np.array([[*apply_word(*d), *mobius_oracle(*d)]
                                 for d in (_word_draw(ctx) for _ in range(1000))]), 2)
    res = np.abs(vx - ox) / np.maximum(1.0, np.abs(ox).max(axis=1))[:, None]
    return {"upper_half_plane": bool((vx[:, 1] > 0).all()), "worst": res.max()}


_SAMPLED = {"worst": AtMost(), "witness_mismatches": 0}

CLAIMS: tuple = (
    Claim("kernel.reflection_formula", ("10",), _reflection_formula, _SAMPLED,
          "1200 random mirrors, worst |\u2212ava - (v-2(v|a)a)| = {worst:.2e}"),
    Claim("kernel.sandwich_isometry", ("10",), _sandwich_isometry, _SAMPLED,
          "1000 random versors, worst inner-product drift = {worst:.2e}"),
    Claim("kernel.reversal_antiautomorphism", ("10",), _reversal_antiautomorphism,
          _SAMPLED, "1000 random products, worst |(AB)~ - ~B~A| = {worst:.2e}"),
    Claim("kernel.exp_additivity", ("10",), _exp_additivity, _SAMPLED,
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
           "dims_2t": (1, 1, 1, 2, 2, 2, 3), "abelianizations": [4, 3, 2, 1]},
          "rows (6,6,6)..(30,30,30); 2T dims 1,1,1,2,2,2,3; abelianizations 4,3,2,1"),
    Claim("cga2d.versor_relations", ("09",), _conformal_relations,
          {"s_squared": True, "st_cubed": True, "e1_eplus_squared": True, "k_closed_form": True,
           "dilator_error": AtMost(), "inversion_error": AtMost(), "rotation_error": AtMost()},
          "S^2 = (ST)^3 = -1; K = eT_ae; dilation e^{{+a}}; inversion and rotation act right"),
    Claim("cga2d.translations", ("09",), _translations, _SAMPLED,
          "1000 random translations, worst coordinate error {worst:.2e}"),
    Claim("cga2d.modular_words", ("09",), _modular_words,
          {"upper_half_plane": True, "worst": AtMost(1e-6)},
          "1000 random words vs Mobius oracle, worst relative dev {worst:.2e}"),
)


def _miss(field: str, want, got) -> Optional[str]:
    """The one comparer: None when ``got`` meets ``want``, else what missed; NaN fails a bound."""
    if isinstance(want, AtMost):
        worst = np.max(got)
        return None if worst <= want.bound else f"{field} {worst:.2e} exceeds {want.bound:.2e}"
    return None if got == want else f"{field} = {got!r}, expected {want!r}"


def _judge(claim: Claim, ctx: _Ctx) -> CheckResult:
    try:
        got = claim.compute(ctx)
        misses = [m for field, want in claim.expected.items()
                  if (m := _miss(field, want, got[field]))]
        return CheckResult(claim.name, not misses, "; ".join(misses) or claim.detail.format(**got))
    except Exception as exc:  # a crashed claim is a failed claim
        return CheckResult(claim.name, False, f"{type(exc).__name__}: {exc}")


def run_battery(seed: int = 42) -> BatteryReport:
    """Run every claim in table order; the report is deterministic for a fixed seed."""
    ctx = _Ctx(seed)
    return BatteryReport(tuple(_judge(claim, ctx) for claim in CLAIMS), seed)
