"""2D conformal model in Cl(3,1) and the modular group as versors.

A plane point x = (x1, x2) embeds as a null vector of Cl(3,1) via F(x) = x^2 n + 2x - nbar,
where the extra generators e (square +1) and ebar (square -1) combine into the null directions
n = e + ebar and nbar = e - ebar.  Points are kept at the normalization X . n = -1, under which
translations, rotations, dilations, special conformal maps, reflections and inversions all act
by versor sandwiches.

All sandwiches here use the fixed ordering X -> ~A X A (with a minus sign for odd A).  Under
that ordering the versor implementing a named map is the *reverse* of the form usually
displayed with the opposite ordering; e.g. the translator below is 1 - na/2, and reversing it
recovers the familiar 1 + na/2.  The action contracts (translate by +a, scale by e^{+alpha},
tau -> tau+1, tau -> -1/tau) are what the tests pin down.

The modular group enters through tau = x1 + i x2: the versors S = e e1 and T = translator(1,0)
act on embedded points exactly as the Mobius maps tau -> -1/tau and tau -> tau + 1, which is
checked against independent complex arithmetic.  At the versor level S^2 = (ST)^3 = -1: the
group of versors is a double cover of the group of maps, -1 acting as the identity.

In null coordinates, X = x1 e1 + x2 e2 + p n + q nbar, a point is (x1, x2, h, -1/2), h = |x|^2/2,
for any finite x whose squares do not overflow.  One rule decides a point: too far out if h
overflows, null if |p - h| <= DEFAULT_EPS max(1, h), and X . n = 2q = -1 if |q + 1/2| <=
DEFAULT_EPS + 4 ulp(h); ``extract`` applies it to X over its own -X . n.  A versor acts by a 4 x 4
matrix ``M``: the named maps write it, and their versor unchecked, from their parameters, products
multiply it, ``reverse`` and ``inverse`` take its exact adjoint, and ``ConformalVersor(v)`` reads
it off the kernel; those three refuse an entry that overflows.  ``apply``, and ``apply_word`` per
letter, step z to M z at q = -1/2 in floats and redo a step they refuse in rationals, rounded once;
S, T and t = T^-1 are integer matrices held as floats.  A point that ``embed`` or ``apply`` makes
holds its e1..e4 floats and writes X only when X is read, so a map's ``apply`` makes no numpy call.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from .algebra import (
    DEFAULT_EPS,
    Multivector,
    Signature,
    Versor,
    _near_zero,
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


class ConformalPoint:
    """Finite null grade-1 vector of Cl(3,1) at X . n = -1, by the point rule; writes X on read."""

    __slots__ = ("_X", "_z")

    def __init__(self, X: Multivector):
        c = X.coeffs.tolist()
        if X.sig != CGA_SIG or not _near_zero(c, _KERNEL.off_grade[1]):  # is_grade's test
            raise VersorlabError("conformal points are grade-1 vectors of Cl(3,1)")
        x1, x2, z3, z4 = z = [c[b] for b in _GRADE1]
        if not all(map(math.isfinite, z)):
            raise VersorlabError("conformal points must have finite coefficients")
        if math.isinf(h := (x1 * x1 + x2 * x2) * 0.5):
            raise VersorlabError(_TOO_FAR.format(x1, x2))
        p, q = 0.5 * z3 + 0.5 * z4, 0.5 * z3 - 0.5 * z4  # halved first: no sum overflows
        if not abs(p - h) <= DEFAULT_EPS * max(1.0, h):
            raise VersorlabError("conformal points must be null")
        if not _at_minus_half(q, h):
            raise VersorlabError("conformal points must satisfy X . n = -1")
        self._X, self._z = X, z

    @property
    def X(self) -> Multivector:  # a caller's checked X, or written once from the four floats
        if self._X is None:
            self._X = _mv(dict(zip(_GRADE1, self._z)))
        return self._X

    @property
    def coords(self) -> Tuple[float, float]:
        return self._z[0], self._z[1]  # e1, e2

    def __repr__(self):
        x1, x2 = self.coords
        return f"<ConformalPoint ({x1:.6g}, {x2:.6g})>"


_GRADE1 = (1, 2, 4, 8)  # blades e1, e2, e3, e4: a point's four coordinates
_TOO_FAR = "point ({!r}, {!r}) is too far out to embed: its squares overflow"  # all routes


def _at_minus_half(q: float, h: float) -> bool:
    """X . n = 2q = -1 by the point rule: q's own rounding in a point is about ulp(h), not eps h."""
    return abs(q + 0.5) <= DEFAULT_EPS + 4 * math.ulp(h)


def _mv(blades: dict, zero: float = 0.0) -> Multivector:
    """The multivector with these coefficients by blade and ``zero`` on the others."""
    coeffs = [zero] * _KERNEL.D
    for b, c in blades.items():
        coeffs[b] = c
    return Multivector._wrap(CGA_SIG, np.array(coeffs))


def _point(z) -> ConformalPoint:
    """The point with the e1..e4 floats z, already checked as ``ConformalPoint`` checks."""
    p = object.__new__(ConformalPoint)
    p._X, p._z = None, z
    return p


def _embedding(x1: float, x2: float) -> tuple:
    """``embed``'s e1..e4 floats, (x^2 n + 2x - nbar)/2's.  A coordinate not finite raises as that
    expression does, its 0 * inf off grade 1; squares that overflow, (x^2 + 1)/2's included, raise,
    named.  Any other point is on the cone: its residuals are a few ulps of its largest square."""
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise VersorlabError("conformal points are grade-1 vectors of Cl(3,1)")
    sq = x1 * x1 + x2 * x2
    z = (x1 + 0.0, x2 + 0.0, (sq - 1.0) * 0.5, (sq + 1.0) * 0.5)
    if z[3] * z[3] < math.inf:
        return z
    raise VersorlabError(_TOO_FAR.format(x1, x2))


def embed(x1: float, x2: float) -> ConformalPoint:
    """Embed a plane point as (x^2 n + 2x - nbar)/2, normalized to X . n = -1, squaring as x * x."""
    return _point(_embedding(*_floats("x1 x2", x1, x2)))


def extract(X: Union[ConformalPoint, Multivector]) -> Tuple[float, float]:
    """Plane coordinates of a null vector, scaled or not: X over -X . n, times k = 2 ebar / (|x|^2
    + 1), 1 on the cone, for digits X . n lost to cancellation, decided by the point rule; a
    coefficient not finite is refused, and X . n = 0 or a quotient off the cone raises
    PointAtInfinity.  Past |x| = 2^26.5 (about 9.49e7) embed's e and ebar, (|x|^2 -+ 1)/2, are
    one float, so p.X reads X . n = 0, while p.coords and ConformalPoint(p.X) still hold p."""
    if isinstance(X, ConformalPoint):
        return X.coords
    c = X.coeffs.tolist()
    if not all(map(math.isfinite, c)):
        raise VersorlabError("conformal points must have finite coefficients")
    if s := c[4] - c[8]:  # X . n: blades e and ebar
        x1, x2 = c[1] * (r := -1.0 / s), c[2] * r
        k = 2.0 * c[8] * r / (x1 * x1 + x2 * x2 + 1.0)
        x1, x2, p = x1 * k, x2 * k, (0.5 * c[4] + 0.5 * c[8]) * r * k  # q is -k/2
        h = (x1 * x1 + x2 * x2) * 0.5
        if abs(p - h) <= DEFAULT_EPS * max(1.0, h) < math.inf and _at_minus_half(-0.5 * k, h):
            return x1, x2
    raise PointAtInfinity("null vector has X . n = 0")


def _steps(matrices: Iterable[tuple], x1: float, x2: float) -> tuple:
    """One letter step per matrix M, in turn: y = M (x1, x2, |x|^2/2, -1/2) at q = -1/2, decided
    by the point rule, squares as x * x; None where q = 0 or the image is not a point."""
    eps, inf, p = DEFAULT_EPS, math.inf, (x1 * x1 + x2 * x2) * 0.5
    for (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) in matrices:
        q = d0 * x1 + d1 * x2 + d2 * p - 0.5 * d3
        if q == 0:
            return None
        r = -0.5 / q
        y1, y2 = a0 * x1 + a1 * x2 + a2 * p - 0.5 * a3, b0 * x1 + b1 * x2 + b2 * p - 0.5 * b3
        x1, x2, p = y1 * r, y2 * r, (c0 * x1 + c1 * x2 + c2 * p - 0.5 * c3) * r
        h = (x1 * x1 + x2 * x2) * 0.5
        if not abs(p - h) <= eps * (h if h > 1.0 else 1.0) < inf:
            return None
        p = h
    return x1, x2, p


def _exact(matrices: Iterable[tuple], x1: float, x2: float) -> tuple:
    """``_steps`` per matrix, a refused step redone in rationals from its float start and matrix:
    PointAtInfinity at q = 0, not null off the cone, else rounded once and named if too far out."""
    for M in matrices:
        if not (stepped := _steps((M,), x1, x2)):
            z = (u1 := Fraction(x1), u2 := Fraction(x2), (u1 * u1 + u2 * u2) / 2, Fraction(-1, 2))
            y1, y2, p, q = (sum(Fraction(m) * c for m, c in zip(row, z)) for row in M)
            if q == 0:
                raise PointAtInfinity("image point is at infinity")
            y1, y2, p = y1 / (-2 * q), y2 / (-2 * q), p / (-2 * q)
            if abs(p - (h := (y1 * y1 + y2 * y2) / 2)) > Fraction(DEFAULT_EPS) * max(1, h):
                raise VersorlabError("conformal points must be null")
            x1, x2 = stepped = _finite("image.x1 image.x2", y1, y2)
            if math.isinf((x1 * x1 + x2 * x2) * 0.5):
                raise VersorlabError(_TOO_FAR.format(x1, x2))
        x1, x2 = stepped[:2]
    return x1, x2, (x1 * x1 + x2 * x2) * 0.5


def _finite_matrix(M: tuple, made: str) -> tuple:
    """M, or a refusal naming the overflow where an entry of the ``made`` matrix is not finite."""
    if all(map(math.isfinite, M[0] + M[1] + M[2] + M[3])):
        return M
    raise VersorlabError(f"the {made} matrix overflows: an entry is not finite")


def _compose(B: tuple, A: tuple) -> tuple:
    """The matrix product B A: the map A, then B; refused where an entry overflows."""
    return _finite_matrix(tuple(tuple(b0 * a0 + b1 * a1 + b2 * a2 + b3 * a3 for a0, a1, a2, a3
                                      in zip(*A)) for b0, b1, b2, b3 in B), "product's")


class ConformalVersor:
    """A versor of Cl(3,1), acting by its sandwich ~A X A: on null coordinates the matrix ``M``."""

    __slots__ = ("v", "M")

    def __init__(self, v: Versor):
        if v.mv.sig != CGA_SIG:
            raise VersorlabError("conformal versors live in Cl(3,1)")
        self.v, self.M = v, _finite_matrix(_reading(v), "reading's")

    @property
    def mv(self) -> Multivector:
        return self.v.mv

    def apply(self, p: ConformalPoint) -> ConformalPoint:
        """p's plane point taken by ``apply_word``'s letter step on ``M``, then re-embedded."""
        x1, x2, h = _steps((self.M,), *p.coords) or _exact((self.M,), *p.coords)
        return _point((x1, x2, h - 0.5, h + 0.5))

    def __mul__(self, other: "ConformalVersor") -> "ConformalVersor":
        if not isinstance(other, ConformalVersor):
            return NotImplemented
        return _versor(self.v * other.v, _compose(other.M, self.M))  # self acts first

    def reverse(self) -> "ConformalVersor":
        return _versor(self.v.reverse(), _adjoint(self.M))

    def inverse(self) -> "ConformalVersor":
        return _versor(self.v.inverse(), _adjoint(self.M))

    def __repr__(self):
        return f"<ConformalVersor {self.mv}>"


def _versor(v: Versor, M: tuple) -> ConformalVersor:
    """The conformal versor v carrying M, v's matrix as the library writes or composes it."""
    c = object.__new__(ConformalVersor)
    c.v, c.M = v, M
    return c


def _adjoint(M: tuple) -> tuple:
    """M's adjoint under x1^2 + x2^2 + 4pq, a versor matrix's inverse: (i, j) is M[s_j][s_i] w_j /
    w_i, s = (0, 1, 3, 2), w = (1, 1, 2, 2): it permutes, halves, doubles: exact, or refused."""
    s, w = (0, 1, 3, 2), (1, 1, 2, 2)
    return _finite_matrix(tuple(tuple(M[s[j]][s[i]] * (w[j] / w[i]) for j in range(4))
                                for i in range(4)), "inverse's")


@np.errstate(over="ignore", invalid="ignore")  # an entry that overflows is named, not warned
def _reading(v: Versor) -> tuple:
    """v's sandwich ~A X A on null coordinates (x1, x2, p, q), read off the kernel: the matrix
    whose columns are the images of e1, e2, n and nbar."""
    B = np.array([E1.coeffs, E2.coeffs, NINF.coeffs, NBAR.coeffs])
    A = np.broadcast_to(v.mv.coeffs, B.shape)
    Y = _KERNEL.gp_elemwise(_KERNEL.gp_elemwise(A * _KERNEL.rev_sign, B), A)
    y1, y2, ye, yb = Y[:, list(_GRADE1)].T  # p n + q nbar = (p + q) e + (p - q) ebar
    return tuple(map(tuple, np.array([y1, y2, (ye + yb) / 2, (ye - yb) / 2]).tolist()))


def _finite(names: str, *values) -> list:
    """The values as floats; the first past the float range (not written out: str() refuses an int
    past 4 300 digits) or not finite raises, named by its word in ``names``."""
    try:
        for name, value in zip(names.split(), values):
            if not math.isfinite(value):
                raise VersorlabError(f"{name} must be finite, got {float(value)!r}")
    except OverflowError:
        raise VersorlabError(f"{name} is too large: it does not convert to a float") from None
    return [float(value) for value in values]


def _floats(names: str, a, b) -> tuple:
    """a and b as floats, inf and NaN passing; one past the float range is named by ``_finite``."""
    try:
        return float(a), float(b)
    except OverflowError:
        return tuple(_finite(names, a, b))


def _half_shift(a1: float, a2: float) -> tuple:
    """a as floats, finite, and a1^2 + a2^2 finite; a/2 as 1 - na/2 writes it."""
    a1, a2 = _finite("a1 a2", a1, a2)
    if not a1 * a1 + a2 * a2 < math.inf:
        raise VersorlabError(f"(a1, a2) = {(a1, a2)!r} is too large: a1^2 + a2^2 overflows")
    return (a1, a2), [0.0 - 0.5 * (0.0 - a) for a in (a1, a2)]


def _translation(a1, a2) -> tuple:
    """x -> x + a on null coordinates, for floats or arrays a1, a2."""
    return ((1.0, 0.0, 0.0, -2.0 * a1), (0.0, 1.0, 0.0, -2.0 * a2),
            (a1, a2, 1.0, -(a1 * a1 + a2 * a2)), (0.0, 0.0, 0.0, 1.0))


_J = ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))  # e's sandwich: x -> x / x^2


def translator(a1: float, a2: float) -> ConformalVersor:
    """Versor acting as x -> x + a, a1^2 + a2^2 finite (else named).  As a multivector: 1 - na/2."""
    a, (c1, c2) = _half_shift(a1, a2)  # n a = -a1 (e13 + e14) - a2 (e23 + e24)
    return _versor(Versor._of(_mv({0: 1.0, 5: c1, 6: c2, 9: c1, 10: c2}), 0, 1), _translation(*a))


def rotation(theta: float) -> ConformalVersor:
    """Rotor cos(theta/2) + sin(theta/2) e1 e2: a counterclockwise rotation by theta."""
    theta, = _finite("theta", theta)
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    cos, sin = math.cos(theta), math.sin(theta)
    return _versor(Versor._of(_mv({0: c + 0.0 * s, 3: 0.0 * c + s}, 0.0 * c + 0.0 * s), 0, 1),
                   ((cos, -sin, 0.0, 0.0), (sin, cos, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0),
                    (0.0, 0.0, 0.0, 1.0)))


def dilator(alpha: float) -> ConformalVersor:
    """Versor cosh(a/2) + sinh(a/2) e ebar, acting as x -> e^{+alpha} x, for any finite alpha
    whose e^|alpha| does not overflow (|alpha| up to about 709.78; past it, refused, named)."""
    alpha, = _finite("alpha", alpha)
    try:
        up, down = math.exp(alpha), math.exp(-alpha)
    except OverflowError:
        raise VersorlabError(f"alpha = {alpha!r} is too large: e^|alpha| overflows") from None
    c, s = math.cosh(0.5 * alpha), math.sinh(0.5 * alpha)
    return _versor(Versor._of(_mv({0: c + 0.0 * s, 12: 0.0 * c + s}, 0.0 * c + 0.0 * s), 0, 1),
                   ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, up, 0.0),
                    (0.0, 0.0, 0.0, down)))


def reflection(a1: float, a2: float) -> ConformalVersor:
    """Odd versor u = a/|a| reflecting the plane in the line through 0 orthogonal to a."""
    a1, a2 = _finite("a1 a2", a1, a2)
    norm = math.hypot(a1, a2)
    if norm < DEFAULT_EPS:
        raise VersorlabError("reflection mirror must be a nonzero plane vector")
    u = (a1 * E1 + a2 * E2) * (1.0 / norm)
    u1, u2 = u.coeffs[1:3].tolist()
    c, s = u1 * u1 - u2 * u2, 2.0 * u1 * u2  # M: -(I - 2 u u^T) on (x1, x2), -1 on p and q
    return _versor(Versor._of(u, 1, 1), ((c, s, 0.0, 0.0), (s, -c, 0.0, 0.0),
                                        (0.0, 0.0, -1.0, 0.0), (0.0, 0.0, 0.0, -1.0)))


def inversion_versor() -> ConformalVersor:
    """The odd versor e: its action sends x to x / x^2 (unit circle inversion)."""
    return _versor(Versor._of(EPLUS, 1, 1), _J)


def special_conformal(a1: float, a2: float) -> ConformalVersor:
    """Versor e T_a e = 1 + nbar a/2: inversion, translation by a, inversion, a taken as by
    ``translator``; its floats are e T_a e's, the translator's negated on e13 and e23."""
    (a1, a2), (c1, c2) = _half_shift(a1, a2)  # M is J T_a J's floats, as _compose makes them
    return _versor(Versor._of(_mv({0: 1.0, 5: 0.0 - c1, 6: 0.0 - c2, 9: c1, 10: c2}), 0, 1),
                   ((1.0, 0.0, 2.0 * a1 + 0.0, 0.0), (0.0, 1.0, 2.0 * a2 + 0.0, 0.0),
                    (0.0, 0.0, 1.0, 0.0), (0.0 - a1, 0.0 - a2, 0.0 - (a1 * a1 + a2 * a2), 1.0)))


def modular_S() -> ConformalVersor:
    """The versor e e1, acting on tau = x1 + i x2 as tau -> -1/tau: J, then diag(1, -1, -1, -1)."""
    return _versor(Versor._of(EPLUS * E1, 0, 1),
                   ((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, -1), (0, 0, -1, 0)))


def modular_T() -> ConformalVersor:
    """translator(1, 0): acts on tau as tau -> tau + 1."""
    return translator(1.0, 0.0)


# the letters' written integer matrices as exact floats, zeros unsigned: the step is float by float
_MATRICES = {letter: tuple(tuple(m + 0.0 for m in row) for row in versor.M) for letter, versor
             in (("S", modular_S()), ("T", modular_T()), ("t", translator(-1.0, 0.0)))}  # t = T^-1


def _letters(word: Iterable[str]) -> tuple:
    """The letters of a word over S (tau -> -1/tau), T (tau -> tau+1) and t = T^-1."""
    letters = tuple(word)
    if bad := [c for c in letters if c not in _MATRICES]:
        raise VersorlabError(f"unknown modular letters {bad!r}; alphabet is S, T, t")
    return letters


def apply_word(word: Iterable[str], tau: Sequence[float]) -> Tuple[float, float]:
    """Act on tau = (x1, x2), x2 > 0, checked as ``embed`` checks it, by the letters' matrices
    left to right on (x1, x2, |x|^2/2, -1/2), one letter step each, a refused one redone exactly,
    and each image re-embedded from its x1 and x2."""
    letters = _letters(word)
    x1, x2 = _floats("tau[0] tau[1]", tau[0], tau[1])
    if not x2 > 0:
        raise VersorlabError("modular words act on the upper half-plane (x2 > 0)")
    x1, x2 = _embedding(x1, x2)[:2]  # embed's checks and messages, and its x + 0.0
    return (_steps(map(_MATRICES.__getitem__, letters), x1, x2)
            or _exact(map(_MATRICES.__getitem__, letters), x1, x2))[:2]


def mobius_oracle(word: Iterable[str], tau: Sequence[float]) -> Tuple[float, float]:
    """The same word evaluated by plain complex arithmetic on x1 + i x2.  S at z = 0, or an
    image -1/z that is not finite, raises PointAtInfinity."""
    letters = _letters(word)
    z = complex(*_floats("tau[0] tau[1]", tau[0], tau[1]))
    if not z.imag > 0:
        raise VersorlabError("modular words act on the upper half-plane (x2 > 0)")
    for letter in letters:
        if letter == "T":
            z = z + 1.0
        elif letter == "t":
            z = z - 1.0
        elif z == 0 or not cmath.isfinite(z := -1.0 / z):
            raise PointAtInfinity("Mobius map sends the point to infinity")
    return (z.real, z.imag)


def word_report(word: Iterable[str], tau: Sequence[float]) -> dict:
    """Versor route vs complex-arithmetic route, with their max deviation."""
    word = _letters(word)
    versor_xy, oracle_xy = apply_word(word, tau), mobius_oracle(word, tau)
    dev = max(abs(versor_xy[0] - oracle_xy[0]), abs(versor_xy[1] - oracle_xy[1]))
    return {"input": [float(tau[0]), float(tau[1])], "word": "".join(word),
            "versor_result": list(versor_xy), "oracle_result": list(oracle_xy),
            "max_deviation": dev}
