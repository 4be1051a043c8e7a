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

In null coordinates, X = x1 e1 + x2 e2 + p n + q nbar, a point is (x1, x2, |x|^2/2, -1/2): on
the cone for any finite x whose squares do not overflow.  A versor acts by a 4 x 4 matrix ``M``:
the named maps write it (``special_conformal`` as J T_a J), products multiply it, ``reverse`` and
``inverse`` take its exact adjoint, ``ConformalVersor(v)`` and ``reflection`` read it off the
kernel.  ``apply``, and ``apply_word`` per letter, take one step: y = M z; q = 0 is
PointAtInfinity; the image at q = -1/2 must have p = |x|^2/2 (too far out if that overflows) and
is re-embedded.  S, T and t = T^-1 are integer, equal to the kernel's reading, and held as exact
floats, so that the step multiplies float by float.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from .algebra import (
    DEFAULT_EPS,
    Multivector,
    Signature,
    Versor,
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


def _point_tests(X: np.ndarray) -> tuple:
    """``ConformalPoint``'s four tests on a point's 16 coefficients: grade 1, null and X . n = -1
    as ``if x > DEFAULT_EPS max(1, m * m): raise`` tests them, m the largest |X_i|, and finite."""
    peak = float(np.abs(X).max())
    bound = DEFAULT_EPS * max(1.0, peak * peak)
    if math.isinf(bound) and math.isfinite(peak):
        raise VersorlabError(f"conformal points must be null: the test's bound overflows squaring "
                             f"a coefficient of magnitude {peak!r}")
    return (np.abs(X[~_KERNEL.grade_masks[1]]).max() <= DEFAULT_EPS,
            not abs(_KERNEL.scalar_part(X, X)) > bound,
            not abs(_KERNEL.scalar_part(X, NINF.coeffs) + 1.0) > bound,
            np.isfinite(X).all())


class ConformalPoint:
    """Null grade-1 vector of Cl(3,1) at the normalization X . n = -1."""

    __slots__ = ("X",)

    def __init__(self, X: Multivector):
        tests = _point_tests(X.coeffs) if X.sig == CGA_SIG else (False,)
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


def _mv(blades: dict, zero: float = 0.0) -> Multivector:
    """The multivector with these coefficients by blade and ``zero`` on the others."""
    coeffs = [zero] * _KERNEL.D
    for b, c in blades.items():
        coeffs[b] = c
    return Multivector._wrap(CGA_SIG, np.array(coeffs))


def _point(z) -> ConformalPoint:
    """The point with the e1..e4 floats z, already checked as ``ConformalPoint`` checks."""
    p = object.__new__(ConformalPoint)
    p.X = _mv(dict(zip(_GRADE1, z)))
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
    raise VersorlabError(f"point ({x1!r}, {x2!r}) is too far out to embed: its squares overflow")


def embed(x1: float, x2: float) -> ConformalPoint:
    """Embed a plane point as (x^2 n + 2x - nbar)/2, normalized to X . n = -1, squaring as x * x."""
    return _point(_embedding(float(x1), float(x2)))


def extract(X: Union[ConformalPoint, Multivector]) -> Tuple[float, float]:
    """Plane coordinates of a (possibly unnormalized) null vector.

    Homogeneous: extract(lambda X) = extract(X).  A representative with
    X . n = 0 has no finite preimage and raises PointAtInfinity.
    """
    if isinstance(X, ConformalPoint):
        return X.coords
    s = float(_KERNEL.scalar_part(X.coeffs, NINF.coeffs))  # X . n, against max(1, max |X|)
    if abs(s) < DEFAULT_EPS * max(1.0, float(np.abs(X.coeffs).max())):
        raise PointAtInfinity("null vector has X . n = 0")
    return (float(X.coeffs[1] * (-1.0 / s)), float(X.coeffs[2] * (-1.0 / s)))  # e1, e2


def _steps(matrices: Iterable[tuple], x1: float, x2: float) -> tuple:
    """One letter step per matrix M, in turn: y = M (x1, x2, p, -1/2), p = |x|^2/2, and q = 0
    raises PointAtInfinity; the image at q = -1/2 is not null unless p is |x|^2/2 within
    DEFAULT_EPS max(1, |x|^2/2), or too far out past a finite |x|^2/2.  Squares as x * x."""
    eps, inf, p = DEFAULT_EPS, math.inf, (x1 * x1 + x2 * x2) * 0.5
    for (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) in matrices:
        q = d0 * x1 + d1 * x2 + d2 * p - 0.5 * d3
        if q == 0:
            raise PointAtInfinity("image point is at infinity")
        r = -0.5 / q
        y1, y2 = a0 * x1 + a1 * x2 + a2 * p - 0.5 * a3, b0 * x1 + b1 * x2 + b2 * p - 0.5 * b3
        x1, x2, p = y1 * r, y2 * r, (c0 * x1 + c1 * x2 + c2 * p - 0.5 * c3) * r
        h = (x1 * x1 + x2 * x2) * 0.5
        if not abs(p - h) <= eps * (h if h > 1.0 else 1.0) < inf:
            if math.isinf(h) or math.isinf(r):  # named as embed names it, by y / q: r may overflow
                raise VersorlabError(f"point ({-0.5 * y1 / q!r}, {-0.5 * y2 / q!r}) is too far "
                                     f"out to embed: its squares overflow")
            raise VersorlabError("conformal points must be null")
        p = h
    return x1, x2, p


def _compose(B: tuple, A: tuple) -> tuple:
    """The matrix product B A: the map A, then B."""
    return tuple(tuple(b0 * a0 + b1 * a1 + b2 * a2 + b3 * a3 for a0, a1, a2, a3 in zip(*A))
                 for b0, b1, b2, b3 in B)


class ConformalVersor:
    """A versor of Cl(3,1), acting by its sandwich ~A X A: on null coordinates the matrix ``M``."""

    __slots__ = ("v", "M")

    def __init__(self, v: Versor):
        if v.mv.sig != CGA_SIG:
            raise VersorlabError("conformal versors live in Cl(3,1)")
        self.v, self.M = v, _reading(v)[0]

    @property
    def mv(self) -> Multivector:
        return self.v.mv

    def apply(self, p: ConformalPoint) -> ConformalPoint:
        """p's plane point taken by ``apply_word``'s letter step on ``M``, then re-embedded."""
        x1, x2, h = _steps((self.M,), *p.coords)
        return _point((x1, x2, h - 0.5, h + 0.5))

    def __mul__(self, other: "ConformalVersor") -> "ConformalVersor":
        if not isinstance(other, ConformalVersor):
            return NotImplemented
        return _trusted((self.mv * other.mv).coeffs, _compose(other.M, self.M))  # self acts first

    def reverse(self) -> "ConformalVersor":
        return _trusted(_KERNEL.rev(self.mv.coeffs), _adjoint(self.M))

    def inverse(self) -> "ConformalVersor":
        return _trusted(_KERNEL.rev(self.mv.coeffs) * self.v.norm_sign, _adjoint(self.M))

    def __repr__(self):
        return f"<ConformalVersor {self.mv}>"


def _versor(v: Versor, M: tuple) -> ConformalVersor:
    """The conformal versor v carrying M, written from its parameters."""
    c = object.__new__(ConformalVersor)
    c.v, c.M = v, M
    return c


def _trusted(row: np.ndarray, M: tuple) -> ConformalVersor:
    """The conformal versor of a row that a product or reverse of unit versors built, unchecked."""
    return _versor(Versor._trusted(CGA_SIG, row[None])[0], M)


def _adjoint(M: tuple) -> tuple:
    """M's adjoint under x1^2 + x2^2 + 4pq, a versor matrix's inverse: (i, j) is M[s_j][s_i] w_j /
    w_i, s = (0, 1, 3, 2), w = (1, 1, 2, 2): it only permutes, halves and doubles, so is exact."""
    s, w = (0, 1, 3, 2), (1, 1, 2, 2)
    return tuple(tuple(M[s[j]][s[i]] * (w[j] / w[i]) for j in range(4)) for i in range(4))


def _reading(v: Versor) -> tuple:
    """v's sandwich ~A X A on null coordinates (x1, x2, p, q), read off the kernel: the matrix
    whose columns are the images of e1, e2, n and nbar, and the images' rows of coefficients."""
    B = np.array([E1.coeffs, E2.coeffs, NINF.coeffs, NBAR.coeffs])
    A = np.broadcast_to(v.mv.coeffs, B.shape)
    Y = _KERNEL.gp_elemwise(_KERNEL.gp_elemwise(A * _KERNEL.rev_sign, B), A)
    y1, y2, ye, yb = Y[:, list(_GRADE1)].T  # p n + q nbar = (p + q) e + (p - q) ebar
    return tuple(map(tuple, np.array([y1, y2, (ye + yb) / 2, (ye - yb) / 2]).tolist())), Y


MAX_DILATION = 15.0  # past it cosh^2 - sinh^2 can miss 1 by over DEFAULT_EPS (first at 15.45)
MAX_TRANSLATION = 1000.0  # T ~T is 1 within 3e-11 up to it, within DEFAULT_EPS only to 5.8e3


def _finite(**params) -> list:
    """The parameters as floats; the first that is not finite raises, named."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise VersorlabError(f"{name} must be finite, got {float(value)!r}")
    return [float(value) for value in params.values()]


def _half_shift(a1: float, a2: float) -> tuple:
    """a as floats, finite and within ``MAX_TRANSLATION`` of 0; a/2 as 1 - na/2 writes it."""
    a1, a2 = _finite(a1=a1, a2=a2)
    if math.hypot(a1, a2) > MAX_TRANSLATION:
        raise VersorlabError(f"(a1, a2) must be within {MAX_TRANSLATION:g} of 0, got {(a1, a2)!r}")
    return (a1, a2), [0.0 - 0.5 * (0.0 - a) for a in (a1, a2)]


def _translation(a1, a2) -> tuple:
    """x -> x + a on null coordinates, for floats or arrays a1, a2."""
    return ((1.0, 0.0, 0.0, -2.0 * a1), (0.0, 1.0, 0.0, -2.0 * a2),
            (a1, a2, 1.0, -(a1 * a1 + a2 * a2)), (0.0, 0.0, 0.0, 1.0))


_J = ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))  # e's sandwich: x -> x / x^2


def translator(a1: float, a2: float) -> ConformalVersor:
    """Versor acting as x -> x + a, |a| <= ``MAX_TRANSLATION``.  As a multivector it is 1 - na/2."""
    a, (c1, c2) = _half_shift(a1, a2)  # n a = -a1 (e13 + e14) - a2 (e23 + e24)
    return _versor(Versor(_mv({0: 1.0, 5: c1, 6: c2, 9: c1, 10: c2})), _translation(*a))


def rotation(theta: float) -> ConformalVersor:
    """Rotor cos(theta/2) + sin(theta/2) e1 e2: a counterclockwise rotation by theta."""
    theta, = _finite(theta=theta)
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    cos, sin = math.cos(theta), math.sin(theta)
    return _versor(Versor(_mv({0: c + 0.0 * s, 3: 0.0 * c + s}, 0.0 * c + 0.0 * s)),
                   ((cos, -sin, 0.0, 0.0), (sin, cos, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0),
                    (0.0, 0.0, 0.0, 1.0)))


def dilator(alpha: float) -> ConformalVersor:
    """Versor cosh(a/2) + sinh(a/2) e ebar, acting as x -> e^{+alpha} x, for
    |alpha| <= ``MAX_DILATION`` (a factor up to e^15, about 3.3e6)."""
    alpha, = _finite(alpha=alpha)
    if abs(alpha) > MAX_DILATION:
        raise VersorlabError(f"alpha must be within +-{MAX_DILATION:g}, got {alpha!r}")
    c, s = math.cosh(0.5 * alpha), math.sinh(0.5 * alpha)
    return _versor(Versor(_mv({0: c + 0.0 * s, 12: 0.0 * c + s}, 0.0 * c + 0.0 * s)),
                   ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, math.exp(alpha), 0.0),
                    (0.0, 0.0, 0.0, math.exp(-alpha))))


def reflection(a1: float, a2: float) -> ConformalVersor:
    """Odd versor reflecting the plane in the line through 0 orthogonal to a."""
    a1, a2 = _finite(a1=a1, a2=a2)
    norm = math.hypot(a1, a2)
    if norm < DEFAULT_EPS:
        raise VersorlabError("reflection mirror must be a nonzero plane vector")
    return ConformalVersor(Versor((a1 * E1 + a2 * E2) * (1.0 / norm)))


def inversion_versor() -> ConformalVersor:
    """The odd versor e: its action sends x to x / x^2 (unit circle inversion)."""
    return _versor(Versor(EPLUS), _J)


def special_conformal(a1: float, a2: float) -> ConformalVersor:
    """Versor e T_a e = 1 + nbar a/2: inversion, translation by a, inversion.  It takes a as
    ``translator`` does; its floats are e T_a e's, the translator's negated on e13 and e23."""
    a, (c1, c2) = _half_shift(a1, a2)
    return _versor(Versor(_mv({0: 1.0, 5: 0.0 - c1, 6: 0.0 - c2, 9: c1, 10: c2})),
                   _compose(_J, _compose(_translation(*a), _J)))


def modular_S() -> ConformalVersor:
    """The versor e e1, acting on tau = x1 + i x2 as tau -> -1/tau: J, then diag(1, -1, -1, -1)."""
    return _versor(Versor(EPLUS * E1), ((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, -1), (0, 0, -1, 0)))


def modular_T() -> ConformalVersor:
    """translator(1, 0): acts on tau as tau -> tau + 1."""
    return translator(1.0, 0.0)


def _null_matrix(versor: ConformalVersor) -> tuple:
    """A letter's written matrix on null coordinates, refused unless the kernel's reading equals
    it exactly, every entry is an integer and no image leaves grade 1.  The integers are held as
    exact floats, so that the step multiplies float by float; ``int(m)`` reads one back."""
    M, Y = _reading(versor.v)
    if (M != versor.M or Y[:, ~_KERNEL.grade_masks[1]].any()
            or any(m != round(m) for row in M for m in row)):
        raise VersorlabError(f"{versor!r} has no integer matrix on null coordinates")
    return tuple(tuple(float(int(m)) for m in row) for row in M)


# the alphabet of modular words, each letter's matrix on null coordinates checked once
_MATRICES = {"S": _null_matrix(modular_S()), "T": _null_matrix(modular_T()),
             "t": _null_matrix(translator(-1.0, 0.0))}  # t = T^-1


def _letters(word: Iterable[str]) -> tuple:
    """The letters of a word over S (tau -> -1/tau), T (tau -> tau+1) and t = T^-1."""
    letters = tuple(word)
    bad = [c for c in letters if c not in _MATRICES]
    if bad:
        raise VersorlabError(f"unknown modular letters {bad!r}; alphabet is S, T, t")
    return letters


def apply_word(word: Iterable[str], tau: Sequence[float]) -> Tuple[float, float]:
    """Act on tau = (x1, x2), x2 > 0, checked as ``embed`` checks it, by the letters' matrices
    left to right on (x1, x2, |x|^2/2, -1/2), one letter step each: an image with q = 0 raises
    PointAtInfinity, one that is not null or too far out is refused, and each image is
    re-embedded from its x1 and x2."""
    letters = _letters(word)
    x1, x2 = float(tau[0]), float(tau[1])
    if not x2 > 0:
        raise VersorlabError("modular words act on the upper half-plane (x2 > 0)")
    x1, x2 = _embedding(x1, x2)[:2]  # embed's checks and messages, and its x + 0.0
    return _steps(map(_MATRICES.__getitem__, letters), x1, x2)[:2]


def mobius_oracle(word: Iterable[str], tau: Sequence[float]) -> Tuple[float, float]:
    """The same word evaluated by plain complex arithmetic on x1 + i x2.  S at z = 0, or an
    image -1/z that is not finite, raises PointAtInfinity."""
    letters = _letters(word)
    z = complex(float(tau[0]), float(tau[1]))
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
    versor_xy = apply_word(word, tau)
    oracle_xy = mobius_oracle(word, tau)
    dev = max(abs(versor_xy[0] - oracle_xy[0]), abs(versor_xy[1] - oracle_xy[1]))
    return {
        "input": [float(tau[0]), float(tau[1])],
        "word": "".join(word),
        "versor_result": [versor_xy[0], versor_xy[1]],
        "oracle_result": [oracle_xy[0], oracle_xy[1]],
        "max_deviation": dev,
    }
