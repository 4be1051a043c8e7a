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

A word is evaluated one letter at a time, through term plans built at import
with the letter versors S, T and t = T^-1: the nonzero terms of the grade-1
sandwich ~A v A from the kernel's sign and xor tables, in its einsum's order
(from +0.0 by ascending index; a zero term changes no partial sum), ``exec``'d
as one straight-line step each, ``0.0 + z2 * 1.0 + z0 * -0.5 + ...``, exact as
a float's ``repr`` reads back as that float.  The checks of ``ConformalVersor.apply``
and ``ConformalPoint`` are made inline on the same floats; where one fails or a
value is not finite, the word is replayed one sandwich per letter, raising that
route's error.  Scalar parts come off the metric diagonal, the same floats.
"""

from __future__ import annotations

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
    sandwich,
    scalar_mv,
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
_N_BIVECTOR = EPLUS * EMINUS   # N = e ebar, generator of dilations

_ONE = scalar_mv(CGA_SIG, 1.0)

_KERNEL = kernel_for(CGA_SIG)


def _inner_scalar(a: Multivector, b: Multivector) -> float:
    return float(_KERNEL.scalar_part(a.coeffs, b.coeffs))


def _max_abs(X: Multivector) -> float:
    return float(np.abs(X.coeffs).max())


class ConformalPoint:
    """Null grade-1 vector of Cl(3,1) at the normalization X . n = -1."""

    __slots__ = ("X",)

    def __init__(self, X: Multivector, eps: float = DEFAULT_EPS):
        if X.sig != CGA_SIG or not X.is_grade(1, eps):
            raise VersorlabError("conformal points are grade-1 vectors of Cl(3,1)")
        scale = max(1.0, _max_abs(X) ** 2)
        if abs(_inner_scalar(X, X)) > eps * scale:
            raise VersorlabError("conformal points must be null")
        if abs(_inner_scalar(X, NINF) + 1.0) > eps * scale:
            raise VersorlabError("conformal points must satisfy X . n = -1")
        self.X = X

    @property
    def coords(self) -> Tuple[float, float]:
        return (float(self.X.coeffs[1]), float(self.X.coeffs[2]))  # e1, e2

    def __repr__(self):
        x1, x2 = self.coords
        return f"<ConformalPoint ({x1:.6g}, {x2:.6g})>"


def embed(x1: float, x2: float, eps: float = DEFAULT_EPS) -> ConformalPoint:
    """Embed a plane point as (x^2 n + 2x - nbar)/2, normalized to X . n = -1.
    It squares with ``**``, libm's pow: x * x would change printed digits."""
    x = float(x1) * E1 + float(x2) * E2
    sq = float(x1) ** 2 + float(x2) ** 2
    return ConformalPoint((sq * NINF + 2.0 * x - NBAR) * 0.5, eps=eps)


def extract(X: Union[ConformalPoint, Multivector]) -> Tuple[float, float]:
    """Plane coordinates of a (possibly unnormalized) null vector.

    Homogeneous: extract(lambda X) = extract(X).  A representative with
    X . n = 0 has no finite preimage and raises PointAtInfinity.
    """
    if isinstance(X, ConformalPoint):
        return X.coords
    scale = max(1.0, _max_abs(X))
    s = _inner_scalar(X, NINF)
    if abs(s) < DEFAULT_EPS * scale:
        raise PointAtInfinity("null vector has X . n = 0")
    Y = X * (-1.0 / s)
    return (float(Y.coeffs[1]), float(Y.coeffs[2]))  # e1, e2


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

    def apply(self, p: ConformalPoint, eps: float = DEFAULT_EPS) -> ConformalPoint:
        """Sandwich and renormalize back to X . n = -1."""
        Y = sandwich(p.X, self.v, eps=eps)
        scale = max(1.0, _max_abs(Y))
        s = _inner_scalar(Y, NINF)
        if abs(s) < eps * scale:
            raise PointAtInfinity("image point is at infinity")
        return ConformalPoint(Y * (-1.0 / s), eps=eps)

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


def translator(a1: float, a2: float) -> ConformalVersor:
    """Versor acting as x -> x + a.  As a multivector it is 1 - na/2."""
    a = float(a1) * E1 + float(a2) * E2
    return ConformalVersor(Versor(_ONE - 0.5 * (NINF * a)))


def rotation(theta: float) -> ConformalVersor:
    """Rotor acting as a counterclockwise rotation by theta in the plane."""
    h = 0.5 * float(theta)
    return ConformalVersor(Versor(math.cos(h) * _ONE + math.sin(h) * (E1 * E2)))


def dilator(alpha: float) -> ConformalVersor:
    """Versor cosh(a/2) + sinh(a/2) e ebar, acting as x -> e^{+alpha} x."""
    h = 0.5 * float(alpha)
    return ConformalVersor(Versor(math.cosh(h) * _ONE + math.sinh(h) * _N_BIVECTOR))


def reflection(a1: float, a2: float) -> ConformalVersor:
    """Odd versor reflecting the plane in the line through 0 orthogonal to a."""
    norm = math.hypot(float(a1), float(a2))
    if norm < DEFAULT_EPS:
        raise VersorlabError("reflection mirror must be a nonzero plane vector")
    return ConformalVersor(Versor((float(a1) * E1 + float(a2) * E2) * (1.0 / norm)))


def inversion_versor() -> ConformalVersor:
    """The odd versor e: its action sends x to x / x^2 (unit circle inversion)."""
    return ConformalVersor(Versor(EPLUS))


def special_conformal(a1: float, a2: float) -> ConformalVersor:
    """Versor e T_a e = 1 + nbar a/2: inversion, translation by a, inversion."""
    t = translator(a1, a2)
    mv = EPLUS * t.mv * EPLUS
    return ConformalVersor(Versor(mv))


def modular_S() -> ConformalVersor:
    """The versor e e1, acting on tau = x1 + i x2 as tau -> -1/tau."""
    return ConformalVersor(Versor(EPLUS * E1))


def modular_T() -> ConformalVersor:
    """translator(1, 0): acts on tau as tau -> tau + 1."""
    return translator(1.0, 0.0)


# the alphabet of modular words, each letter's versor built once
_LETTERS = {"S": modular_S(), "T": modular_T(), "t": modular_T().inverse()}
_GRADE1 = (1, 2, 4, 8)  # blades e1, e2, e3, e4: a point's four coordinates


def _term_plan(versor: ConformalVersor):
    """~A v A for grade-1 v as one straight-line ``step(z0, z1, z2, z3)``: each
    blade u of ~A v a sum of (v coordinate * +-coefficient) terms, then e1..e4
    sums of (u * +-coefficient) terms, each from 0.0 in the kernel's order.
    An odd A's sign is left out: Y (-1 / Y . n) is the same float for -Y."""
    k, A, rev = _KERNEL, versor.mv.coeffs, _KERNEL.rev(versor.mv.coeffs)
    inner = {j: terms for j in range(k.D) if (terms := tuple(
        (_GRADE1.index(k.xor[a, j]), float(rev[a] * k.sign[a, j]))
        for a in range(k.D) if rev[a] != 0.0 and k.xor[a, j] in _GRADE1))}
    outer = tuple(tuple((i, float(A[k.xor[a, j]] * k.sign[a, j])) for i, a in enumerate(inner)
                        if A[k.xor[a, j]] != 0.0) for j in _GRADE1)

    def total(var, terms):  # repr of a float reads back as that float
        return " + ".join(["0.0", *(f"{var}{i} * {c!r}" for i, c in terms)])

    body = [f"u{i} = {total('z', terms)}" for i, terms in enumerate(inner.values())]
    exec("\n    ".join(["def step(z0, z1, z2, z3):", *body, "return " + ", ".join(
        total("u", terms) for terms in outer)]), namespace := {})
    return namespace["step"]


_PLANS = {letter: _term_plan(versor) for letter, versor in _LETTERS.items()}


def _on_cone(z, eps: float) -> bool:
    """``ConformalPoint``'s grade-1, null and X . n = -1 tests on finite e1..e4 floats."""
    scale = max(1.0, max(map(abs, z)) ** 2)
    return (eps >= 0.0 and math.isfinite(z[0] + z[1] + z[2] + z[3])
            and not abs(0.0 + z[0] * z[0] + z[1] * z[1] + z[2] * z[2] - z[3] * z[3]) > eps * scale
            and not abs(0.0 + z[2] - z[3] + 1.0) > eps * scale)


def _planned(letters, x1: float, x2: float, eps: float):
    """``apply_word``'s floats by the letter steps, or None where its route would fail."""
    try:
        sq = x1 ** 2 + x2 ** 2
        z0, z1, z2, z3 = x1 + 0.0, x2, (sq - 1.0) * 0.5, (sq + 1.0) * 0.5  # embed's floats
        if not _on_cone((z0, z1, z2, z3), eps):  # eps >= 0 is tested once, here
            return None
        for letter in letters:
            y0, y1, y2, y3 = _PLANS[letter](z0, z1, z2, z3)
            s = 0.0 + y2 - y3  # Y . n
            r = -1.0 / s
            z0, z1, z2, z3 = y0 * r, y1 * r, y2 * r, y3 * r
            bound = eps * max(1.0, max(abs(z0), abs(z1), abs(z2), abs(z3)) ** 2)
            if (abs(s) < eps * max(1.0, max(abs(y0), abs(y1), abs(y2), abs(y3)))
                    or not math.isfinite(z0 + z1 + z2 + z3)
                    or abs(0.0 + z0 * z0 + z1 * z1 + z2 * z2 - z3 * z3) > bound
                    or abs(0.0 + z2 - z3 + 1.0) > bound):
                return None
    except (OverflowError, ZeroDivisionError):  # from ** or -1 / s: the replay raises its own
        return None
    return z0, z1


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
    x1, x2 = float(tau[0]), float(tau[1])
    if not x2 > 0:
        raise VersorlabError("modular words act on the upper half-plane (x2 > 0)")
    if (planned := _planned(letters, x1, x2, eps)) is not None:
        return planned
    p = embed(x1, x2, eps)  # the replay: one sandwich per letter, with its own errors
    for letter in letters:
        p = _LETTERS[letter].apply(p, eps=eps)
    return p.coords


def mobius_oracle(word: Iterable[str], tau: Sequence[float],
                  eps: float = DEFAULT_EPS) -> Tuple[float, float]:
    """The same word evaluated by plain complex arithmetic on x1 + i x2."""
    letters = _letters(word)
    z = complex(float(tau[0]), float(tau[1]))
    if not z.imag > 0:
        raise VersorlabError("modular words act on the upper half-plane (x2 > 0)")
    for letter in letters:
        if letter == "T":
            z = z + 1.0
        elif letter == "t":
            z = z - 1.0
        else:
            if abs(z) < eps:
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
