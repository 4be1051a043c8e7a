"""2D conformal model in Cl(3,1) and the modular group as versors.

A plane point x = (x1, x2) embeds as a null vector of Cl(3,1) via
F(x) = x^2 n + 2x - nbar, where the extra generators e (square +1) and
ebar (square -1) combine into the null directions n = e + ebar and
nbar = e - ebar.  Points are kept at the normalization X . n = -1, under
which translations, rotations, dilations, special conformal maps,
reflections and inversions all act by versor sandwiches.

All sandwiches here use the fixed ordering X -> ~A X A (with a minus sign
for odd A).  Under that ordering the versor implementing a named map is
the *reverse* of the form usually displayed with the opposite ordering;
e.g. the translator below is 1 - na/2, and reversing it recovers the
familiar 1 + na/2.  The action contracts (translate by +a, scale by
e^{+alpha}, tau -> tau+1, tau -> -1/tau) are what the tests pin down.

The modular group enters through tau = x1 + i x2: the versors S = e e1 and
T = translator(1,0) act on embedded points exactly as the Mobius maps
tau -> -1/tau and tau -> tau + 1, which is checked against independent
complex arithmetic.  At the versor level S^2 = (ST)^3 = -1: the group of
versors is a double cover of the group of maps, -1 acting as the identity.

The letters S, T, t = T^-1 act through term plans, the nonzero terms of the sandwich
~A X A off the kernel's sign table, in its einsum's order (from +0.0 by ascending index;
a zero term changes no partial sum), ``exec``'d at import as straight-line steps,
``0.0 + z2 * 1.0 + z0 * -0.5 + ...`` (a float's ``repr`` reads back as that float), so
they give the floats of ``ConformalVersor.apply``, which takes any versor through the
kernel's two products, over all 16 blades of a point with stray off-grade coefficients
within DEFAULT_EPS (past it, ``sandwich``'s grade-1 ``ValueError``).  Points are four
floats, checked as ``ConformalPoint`` checks them, that raise every error themselves: one
failing a check is built for ``ConformalPoint`` to refuse.  ``translator``, ``rotation``,
``dilator`` and ``special_conformal`` write the floats of their multivector expressions.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from .algebra import (
    DEFAULT_EPS,
    Multivector,
    Signature,
    Versor,
    _check_eps,
    blade,
    kernel_for,
)
from .errors import PointAtInfinity, VersorlabError

__all__ = [
    "CGA_SIG",
    "E1",
    "E2",
    "EMINUS",
    "EPLUS",
    "NBAR",
    "NINF",
    "ConformalPoint",
    "ConformalVersor",
    "MAX_DILATION",
    "MAX_TRANSLATION",
    "apply_word",
    "dilator",
    "embed",
    "extract",
    "inversion_versor",
    "mobius_oracle",
    "modular_S",
    "modular_T",
    "reflection",
    "rotation",
    "special_conformal",
    "translator",
    "word_report",
]

CGA_SIG = Signature(3, 1)

E1 = blade(CGA_SIG, "e1")
E2 = blade(CGA_SIG, "e2")
EPLUS = blade(CGA_SIG, "e3")   # e, square +1
EMINUS = blade(CGA_SIG, "e4")  # ebar, square -1
NINF = EPLUS + EMINUS          # n, null direction at infinity
NBAR = EPLUS - EMINUS          # nbar, null direction at the origin

_KERNEL = kernel_for(CGA_SIG)


def _bounds(eps: float, peak: np.ndarray, power: int) -> np.ndarray:
    """eps max(1, peak ** power) of each row's largest |coefficient|, in Python floats as
    ``_on_cone`` takes them: ``**`` is libm's pow, and a finite square can overflow."""
    return np.reshape([eps * max(1.0, m ** power) for m in peak.ravel().tolist()], peak.shape)


def _point_tests(X: np.ndarray, eps: float) -> tuple:
    """``ConformalPoint``'s four tests on each row of (..., 16) coefficients: grade 1, null
    and X . n = -1, each failing as its ``if x > bound: raise`` does, and finite."""
    try:
        bound = _bounds(eps, peak := np.abs(X).max(axis=-1), 2)
    except OverflowError:
        raise VersorlabError(f"conformal points must be null: the test's bound overflows squaring "
                             f"a coefficient of magnitude {float(peak.max())!r}") from None
    return (np.abs(X).max(axis=-1, where=~_KERNEL.grade_masks[1], initial=0.0) <= eps,
            ~(np.abs(_KERNEL.scalar_part(X, X)) > bound),
            ~(np.abs(_KERNEL.scalar_part(X, NINF.coeffs) + 1.0) > bound),
            np.isfinite(X).all(-1))


def _renormalized(Y: np.ndarray) -> tuple:
    """Each row of (..., 16) coefficients scaled to X . n = -1, and whether it is finite,
    |Y . n| not below DEFAULT_EPS max(1, max |Y|): a row at infinity is left as it is."""
    s = _KERNEL.scalar_part(Y, NINF.coeffs)
    finite = ~(np.abs(s) < _bounds(DEFAULT_EPS, np.abs(Y).max(axis=-1), 1))
    return Y * (-1.0 / np.where(finite, s, -1.0))[..., None], finite


class ConformalPoint:
    """Null grade-1 vector of Cl(3,1) at the normalization X . n = -1."""

    __slots__ = ("X",)

    def __init__(self, X: Multivector, eps: float = DEFAULT_EPS):
        _check_eps(eps)
        tests = _point_tests(X.coeffs, eps) if X.sig == CGA_SIG else (False,)
        for passed, message in zip(tests, ("conformal points are grade-1 vectors of Cl(3,1)",
                                           "conformal points must be null",
                                           "conformal points must satisfy X . n = -1",
                                           "conformal points must have finite coefficients")):
            if not passed:
                raise VersorlabError(message)
        self.X = X

    @property
    def coords(self) -> Tuple[float, float]:
        return (float(self.X.coeffs[1]), float(self.X.coeffs[2]))  # e1, e2

    def __repr__(self):
        x1, x2 = self.coords
        return f"<ConformalPoint ({x1:.6g}, {x2:.6g})>"


_GRADE1 = (1, 2, 4, 8)  # blades e1, e2, e3, e4: a point's four coordinates
_COORDS, _OTHERS = itemgetter(*_GRADE1), itemgetter(0, 3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15)


def _mv(blades: dict, zero: float = 0.0) -> Multivector:
    """The multivector with these coefficients by blade and ``zero`` on the others."""
    coeffs = [zero] * _KERNEL.D
    for b, c in blades.items():
        coeffs[b] = c
    return Multivector._wrap(CGA_SIG, np.array(coeffs))


def _point(z, zero: float = 0.0) -> ConformalPoint:
    """The point with the e1..e4 floats z, already checked as ``ConformalPoint`` checks."""
    p = object.__new__(ConformalPoint)
    p.X = _mv(dict(zip(_GRADE1, z)), zero)
    return p


def _on_cone(z0: float, z1: float, z2: float, z3: float, eps: float) -> bool:
    """``ConformalPoint``'s null and X . n = -1 tests on e1..e4 floats, which must be finite."""
    bound = eps * max(1.0, max(abs(z0), abs(z1), abs(z2), abs(z3)) ** 2)
    return (math.isfinite(z0 + z1 + z2 + z3)
            and not abs(0.0 + z0 * z0 + z1 * z1 + z2 * z2 - z3 * z3) > bound
            and not abs(0.0 + z2 - z3 + 1.0) > bound)


def _embedding(x1: float, x2: float, eps: float) -> tuple:
    """``embed``'s e1..e4 floats, which are (x^2 n + 2x - nbar)/2's.  A coordinate that is
    not finite raises as that expression does, its 0 * inf landing off grade 1; a point
    whose squares overflow raises, named; ``ConformalPoint`` refuses a point off the cone."""
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise VersorlabError("conformal points are grade-1 vectors of Cl(3,1)")
    try:
        sq = x1 ** 2 + x2 ** 2
        z = (x1 + 0.0, x2 + 0.0, (sq - 1.0) * 0.5, (sq + 1.0) * 0.5)
        if math.isfinite(sq):
            if not _on_cone(*z, eps):
                ConformalPoint(_mv(dict(zip(_GRADE1, z))), eps)
            return z
    except OverflowError:
        pass
    raise VersorlabError(f"point ({x1!r}, {x2!r}) is too far out to embed: its squares overflow")


def embed(x1: float, x2: float) -> ConformalPoint:
    """Embed a plane point as (x^2 n + 2x - nbar)/2, normalized to X . n = -1.
    It squares with ``**``, libm's pow: x * x would change printed digits."""
    return _point(_embedding(float(x1), float(x2), DEFAULT_EPS))


def extract(X: Union[ConformalPoint, Multivector]) -> Tuple[float, float]:
    """Plane coordinates of a (possibly unnormalized) null vector.

    Homogeneous: extract(lambda X) = extract(X).  A representative with
    X . n = 0 has no finite preimage and raises PointAtInfinity.
    """
    if isinstance(X, ConformalPoint):
        return X.coords
    Y, finite = _renormalized(X.coeffs)
    if not finite:
        raise PointAtInfinity("null vector has X . n = 0")
    return (float(Y[1]), float(Y[2]))  # e1, e2


def _checked(y: Sequence[float], eps: float) -> tuple:
    """``apply``'s renormalization of an image's e1..e4 floats and its checks, those of
    ``_on_cone`` inline: the point's floats and -1 / (Y . n).  An image at infinity, Y . n = 0
    at any eps included, raises ``PointAtInfinity``; ``ConformalPoint`` refuses one failing a
    check, built from these floats (no zero's sign changes a check); an overflow raises."""
    y0, y1, y2, y3 = y
    s = 0.0 + y2 - y3  # Y . n
    if s == 0 or abs(s) < eps * max(1.0, abs(y0), abs(y1), abs(y2), abs(y3)):
        raise PointAtInfinity("image point is at infinity")
    r = -1.0 / s
    z0, z1, z2, z3 = z = (y0 * r, y1 * r, y2 * r, y3 * r)
    bound = eps * max(1.0, max(abs(z0), abs(z1), abs(z2), abs(z3)) ** 2)
    if not (math.isfinite(z0 + z1 + z2 + z3)
            and not abs(0.0 + z0 * z0 + z1 * z1 + z2 * z2 - z3 * z3) > bound
            and not abs(0.0 + z2 - z3 + 1.0) > bound):
        ConformalPoint(_mv(dict(zip(_GRADE1, z)), 0.0 * r), eps)
    return z, r


class ConformalVersor:
    """A versor of Cl(3,1), acting on conformal points by sandwich."""

    __slots__ = ("v",)

    def __init__(self, v: Versor):
        if v.mv.sig != CGA_SIG:
            raise VersorlabError("conformal versors live in Cl(3,1)")
        self.v = v

    @property
    def mv(self) -> Multivector:
        return self.v.mv

    def apply(self, p: ConformalPoint) -> ConformalPoint:
        """Sandwich ~A X A by the kernel's products and renormalize back to X . n = -1,
        stray off-grade coefficients of X within DEFAULT_EPS included, or ``sandwich``'s
        error if one is past.  An odd A's sign is left out, as in ``_term_plan``."""
        X = p.X.coeffs
        if any(stray := _OTHERS(X.tolist())) and max(map(abs, stray)) > DEFAULT_EPS:
            raise ValueError("sandwich expects a grade-1 argument")
        A = self.mv.coeffs
        y = _KERNEL.gp(_KERNEL.gp(A * _KERNEL.rev_sign, X), A)
        z, r = _checked(_COORDS(y.tolist()), DEFAULT_EPS)  # the zero blades times -1 / (Y . n),
        return _point(z, 0.0 * (-r if self.v.parity else r))  # an odd Y negated

    def __mul__(self, other: "ConformalVersor") -> "ConformalVersor":
        if not isinstance(other, ConformalVersor):
            return NotImplemented
        return ConformalVersor(self.v * other.v)

    def reverse(self) -> "ConformalVersor":
        return ConformalVersor(self.v.reverse())

    def inverse(self) -> "ConformalVersor":
        return ConformalVersor(self.v.inverse())

    def __repr__(self):
        return f"<ConformalVersor {self.mv}>"


MAX_DILATION = 15.0  # past it cosh^2 - sinh^2 can miss 1 by over DEFAULT_EPS (first at 15.45)
MAX_TRANSLATION = 1000.0  # T ~T is 1 within 3e-11 up to it, within DEFAULT_EPS only to 5.8e3


def _finite(**params) -> list:
    """The parameters as floats; the first that is not finite raises, named."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise VersorlabError(f"{name} must be finite, got {float(value)!r}")
    return [float(value) for value in params.values()]


def _half_shift(a1: float, a2: float) -> list:
    """a/2 as 1 - na/2 writes it (never -0.0), for finite a with |a| <= ``MAX_TRANSLATION``."""
    a1, a2 = _finite(a1=a1, a2=a2)
    if math.hypot(a1, a2) > MAX_TRANSLATION:
        raise VersorlabError(f"(a1, a2) must be within {MAX_TRANSLATION:g} of 0, got {(a1, a2)!r}")
    return [0.0 - 0.5 * (0.0 - a) for a in (a1, a2)]


def translator(a1: float, a2: float) -> ConformalVersor:
    """Versor acting as x -> x + a, |a| <= ``MAX_TRANSLATION``.  As a multivector it is 1 - na/2."""
    c1, c2 = _half_shift(a1, a2)  # n a = -a1 (e13 + e14) - a2 (e23 + e24)
    return ConformalVersor(Versor(_mv({0: 1.0, 5: c1, 6: c2, 9: c1, 10: c2})))


def rotation(theta: float) -> ConformalVersor:
    """Rotor cos(theta/2) + sin(theta/2) e1 e2: a counterclockwise rotation by theta."""
    theta, = _finite(theta=theta)
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    return ConformalVersor(Versor(_mv({0: c + 0.0 * s, 3: 0.0 * c + s}, 0.0 * c + 0.0 * s)))


def dilator(alpha: float) -> ConformalVersor:
    """Versor cosh(a/2) + sinh(a/2) e ebar, acting as x -> e^{+alpha} x, for
    |alpha| <= ``MAX_DILATION`` (a factor up to e^15, about 3.3e6)."""
    alpha, = _finite(alpha=alpha)
    if abs(alpha) > MAX_DILATION:
        raise VersorlabError(f"alpha must be within +-{MAX_DILATION:g}, got {alpha!r}")
    c, s = math.cosh(0.5 * alpha), math.sinh(0.5 * alpha)
    return ConformalVersor(Versor(_mv({0: c + 0.0 * s, 12: 0.0 * c + s}, 0.0 * c + 0.0 * s)))


def reflection(a1: float, a2: float) -> ConformalVersor:
    """Odd versor reflecting the plane in the line through 0 orthogonal to a."""
    a1, a2 = _finite(a1=a1, a2=a2)
    norm = math.hypot(a1, a2)
    if norm < DEFAULT_EPS:
        raise VersorlabError("reflection mirror must be a nonzero plane vector")
    return ConformalVersor(Versor((a1 * E1 + a2 * E2) * (1.0 / norm)))


def inversion_versor() -> ConformalVersor:
    """The odd versor e: its action sends x to x / x^2 (unit circle inversion)."""
    return ConformalVersor(Versor(EPLUS))


def special_conformal(a1: float, a2: float) -> ConformalVersor:
    """Versor e T_a e = 1 + nbar a/2: inversion, translation by a, inversion.  It takes a as
    ``translator`` does; its floats are e T_a e's, the translator's negated on e13 and e23."""
    c1, c2 = _half_shift(a1, a2)
    return ConformalVersor(Versor(_mv({0: 1.0, 5: 0.0 - c1, 6: 0.0 - c2, 9: c1, 10: c2})))


def modular_S() -> ConformalVersor:
    """The versor e e1, acting on tau = x1 + i x2 as tau -> -1/tau."""
    return ConformalVersor(Versor(EPLUS * E1))


def modular_T() -> ConformalVersor:
    """translator(1, 0): acts on tau as tau -> tau + 1."""
    return translator(1.0, 0.0)


_SIGN, _REV = _KERNEL.sign.tolist(), _KERNEL.rev_sign.tolist()
# per blade a of A, for each grade-1 blade b, i its index: (a ^ b, i, sign of A_a X_b in
# ~A X), and (a ^ b, i, sign of (~A X)_(a^b) A_a in (~A X) A)
_INNER = [[(a ^ b, i, _REV[a] * _SIGN[a][a ^ b]) for i, b in enumerate(_GRADE1)]
          for a in range(16)]
_OUTER = [[(a ^ b, i, _SIGN[a ^ b][b]) for i, b in enumerate(_GRADE1)] for a in range(16)]


def _term_plan(versor: ConformalVersor):
    """``versor``'s grade-1 sandwich ~A X A as one straight-line ``step(z0, z1, z2, z3)``:
    A's nonzero coefficients' terms, each sum (a blade u of ~A X, then an image coordinate)
    written out from 0.0 in the kernel's order, each coefficient as its ``repr``.  An odd
    A's sign is left out: Y (-1 / Y . n) is the same float for -Y."""
    nonzero = [(a, c) for a, c in enumerate(versor.mv.coeffs.tolist()) if c != 0.0]
    blades, images = {}, [["0.0"] for _ in _GRADE1]
    for a, c in nonzero:  # repr of a float reads back as that float
        for u, i, s in _INNER[a]:
            blades.setdefault(u, ["0.0"]).append(f"z{i} * {c * s!r}")
    for u, i, c in sorted([(u, i, c * s) for a, c in nonzero for u, i, s in _OUTER[a]]):
        images[i].append(f"u{u} * {c!r}")
    exec("\n    ".join(["def step(z0, z1, z2, z3):",
                        *(f"u{j} = {' + '.join(terms)}" for j, terms in blades.items()),
                        "return " + ", ".join(" + ".join(terms) for terms in images)]),
         namespace := {})
    return namespace["step"]


# the alphabet of modular words, each letter's versor and compiled step built once
_LETTERS = {"S": modular_S(), "T": modular_T(), "t": modular_T().inverse()}
_PLANS = {letter: _term_plan(versor) for letter, versor in _LETTERS.items()}


def _letters(word: Iterable[str]) -> tuple:
    """The letters of a word over S (tau -> -1/tau), T (tau -> tau+1) and t = T^-1."""
    letters = tuple(word)
    bad = [c for c in letters if c not in _LETTERS]
    if bad:
        raise VersorlabError(f"unknown modular letters {bad!r}; alphabet is S, T, t")
    return letters


def apply_word(word: Iterable[str], tau: Sequence[float],
               eps: float = DEFAULT_EPS) -> Tuple[float, float]:
    """Act on the point tau = (x1, x2), x2 > 0, by versor sandwiches, one
    letter at a time left to right; raises PointAtInfinity if an
    intermediate image has no finite coordinates.  Past |tau| of about
    1/sqrt(eps) an image counts as infinite: at the default eps, S at
    (0, 1e-4) gives 1e4 i but S at (0, 2e-5) raises (the oracle gives 5e4 i)."""
    letters = _letters(word)
    _check_eps(eps)
    x1, x2 = float(tau[0]), float(tau[1])
    if not x2 > 0:
        raise VersorlabError("modular words act on the upper half-plane (x2 > 0)")
    z = _embedding(x1, x2, eps)
    for letter in letters:
        z = _checked(_PLANS[letter](*z), eps)[0]
    return z[0], z[1]


def mobius_oracle(word: Iterable[str], tau: Sequence[float],
                  eps: float = DEFAULT_EPS) -> Tuple[float, float]:
    """The same word evaluated by plain complex arithmetic on x1 + i x2."""
    letters = _letters(word)
    _check_eps(eps)
    z = complex(float(tau[0]), float(tau[1]))
    if not z.imag > 0:
        raise VersorlabError("modular words act on the upper half-plane (x2 > 0)")
    for letter in letters:
        if letter == "T":
            z = z + 1.0
        elif letter == "t":
            z = z - 1.0
        else:
            if z == 0 or abs(z) < eps:
                raise PointAtInfinity("Mobius map sends the point to infinity")
            z = -1.0 / z
    return (z.real, z.imag)


def word_report(word: Iterable[str], tau: Sequence[float],
                eps: float = DEFAULT_EPS) -> dict:
    """Versor route vs complex-arithmetic route, with their max deviation."""
    word = _letters(word)
    versor_xy = apply_word(word, tau, eps=eps)
    oracle_xy = mobius_oracle(word, tau, eps=eps)
    dev = max(abs(versor_xy[0] - oracle_xy[0]), abs(versor_xy[1] - oracle_xy[1]))
    return {
        "input": [float(tau[0]), float(tau[1])],
        "word": "".join(word),
        "versor_result": [versor_xy[0], versor_xy[1]],
        "oracle_result": [oracle_xy[0], oracle_xy[1]],
        "max_deviation": dev,
    }
