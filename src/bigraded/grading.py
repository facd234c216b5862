"""Bidegree arithmetic, slope calculus, vanishing lines and range statements.

A bidegree is a lattice point (g, d) with genus grading g and homological
degree d.  Its slope is the exact rational d/g, defined for g >= 1 only: the
results tracked by this package never take slopes of genus-zero classes, and
an exact-arithmetic sentinel for "infinity" would poison downstream algebra,
so genus zero is a domain error.

Everything is a frozen value; all arithmetic is exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import DomainError, InputError
from .parsing import _too_long


@dataclass(frozen=True, order=True)
class Bidegree:
    g: int
    d: int

    def __post_init__(self):
        if self.g < 0 or self.d < 0:
            raise DomainError(f"bidegree entries must be nonnegative: {(self.g, self.d)}")

    def as_tuple(self) -> tuple[int, int]:
        return (self.g, self.d)


def slope(bd: Bidegree | tuple[int, int]) -> Fraction:
    """The slope d/g of a bidegree, in lowest terms.  Requires g >= 1."""
    g, d = bd if isinstance(bd, tuple) else bd.as_tuple()
    if g < 1:
        raise DomainError("slope is undefined at genus zero")
    return Fraction(d, g)


@dataclass
class HomologyTable:
    """Dimensions over the named field per bidegree (g, d) of the box."""

    field_name: str
    box: tuple[int, int]
    dims: dict[tuple[int, int], int] = field(default_factory=dict)

    def dim(self, g: int, d: int) -> int:
        return self.dims.get((g, d), 0)

    def sorted_items(self):
        return sorted((gd, n) for gd, n in self.dims.items() if n)


# largest bound of a box, whose table has (G+1)(D+2) cells: at 128,128
# `bigraded homology` takes 0.9 s for vanishA and vanishB, 2.2 s for intstab-f2
# and 3.2 s for A-algebra-fl(3), and `betti` 1.9 s on sigma, lambda, rho
# (median of 3 processes, one core of a 2-vCPU machine, Python 3.11)
MAX_BOX_BOUND = 128


def check_box(box: tuple[int, int], top: int = MAX_BOX_BOUND) -> tuple[int, int]:
    """``box``, whose bounds must lie between 1 and ``top``: MAX_BOX_BOUND
    for a table, one more for the letters above it (`freealg.letter_counts`)."""
    if min(box) < 1:
        raise InputError("box bounds must be >= 1")
    if max(box) > top:
        raise InputError(f"box bounds must be <= {top}, got {box[0]},{box[1]}")
    return box


@dataclass(frozen=True)
class VanishingLine:
    """The predicate "vanishes for d < lam * (g - c)", lam and c exact rationals."""

    lam: Fraction
    c: Fraction = Fraction(0)

    def __post_init__(self):
        if self.lam <= 0:
            raise DomainError("vanishing-line slope must be positive")

    def strictly_below(self, bd: Bidegree | tuple[int, int]) -> bool:
        """d < lam * (g - c), compared in integers: with lam = a/b and
        c = p/q, both denominators positive, it is d*b*q < a*(g*q - p)."""
        g, d = bd if isinstance(bd, tuple) else bd.as_tuple()
        lam, c = self.lam, self.c
        return d * lam.denominator * c.denominator < lam.numerator * (g * c.denominator - c.numerator)

    def render(self) -> str:
        if self.c == 0:
            return f"d < {self.lam}*g"
        sign = "-" if self.c > 0 else "+"
        return f"d < {self.lam}*(g {sign} {abs(self.c)})"


_RATIONAL_RE = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*")


def parse_rational(text: str) -> Fraction:
    """The rational ``text`` spells: an integer or ``p/q``, with an optional
    sign and no decimal or exponent form, so reading it computes no power.
    Anything else, a zero denominator, and more digits than Python
    converts are input errors."""
    m = _RATIONAL_RE.fullmatch(text)
    if not m:
        raise InputError(f"bad rational {text!r}")
    try:
        num, den = (int(x) for x in m.groups("1"))
    except ValueError:  # the longest part has the digits int() refuses
        raise _too_long(max(m.groups(""), key=len)) from None
    if not den:
        raise InputError(f"bad rational {text!r}")
    return Fraction(num, den)


def parse_line(text: str) -> VanishingLine:
    """The line ``LAM:C``, d < LAM*(g - C), each part a `parse_rational`."""
    lam, colon, c = text.partition(":")
    if not colon:
        raise InputError(f"bad line {text!r}; expected LAM:C")
    return VanishingLine(parse_rational(lam), parse_rational(c))


KINDS = ("epimorphism", "isomorphism", "vanishing")


@dataclass(frozen=True)
class RangeStatement:
    """A stability-range inequality "holds for a*d <= b*g + e", gcd-normalized."""

    kind: str
    a: int
    b: int
    e: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown range kind: {self.kind}")
        if self.a < 1:
            raise DomainError("range statement needs a >= 1")

    def satisfies(self, bd: Bidegree | tuple[int, int]) -> bool:
        g, d = bd if isinstance(bd, tuple) else bd.as_tuple()
        return self.a * d <= self.b * g + self.e

    def render(self) -> str:
        lhs = "d" if self.a == 1 else f"{self.a}d"
        rhs = "g" if self.b == 1 else f"{self.b}g"
        if self.e:
            rhs += f"{self.e:+d}"
        return f"{lhs} ≤ {rhs}"


def range_statement(kind: str, a: int, b: int, e: int) -> RangeStatement:
    """Build a range statement, divided by gcd(a, b, e).  a <= 0 is a domain
    error: negating the triple would reverse the inequality."""
    g = gcd(a, b, e) or 1  # all zero: a = 0, which RangeStatement refuses
    return RangeStatement(kind, a // g, b // g, e // g)


_RANGE_RE = re.compile(
    r"^\s*(?:(\d+)\s*)?d\s*(?:≤|<=)\s*(?:(-?\d+)\s*)?g\s*(?:([+-])\s*(\d+))?\s*$"
)


def parse_range(text: str, kind: str = "vanishing") -> RangeStatement:
    """Parse a rendering like "3d <= 2g-1" back to the normalized triple."""
    m = _RANGE_RE.match(text)
    if not m:
        raise InputError(f"cannot parse range statement: {text!r}")
    a, b = int(m.group(1) or 1), int(m.group(2) or 1)
    e = int(m.group(3) + m.group(4)) if m.group(3) else 0
    return range_statement(kind, a, b, e)


# `bidegrees_between` lists its bidegrees one genus at a time: a list of
# more than this many is an input error, raised before that genus is listed
MAX_BIDEGREES = 200_000


def bidegrees_between(high_slope: Fraction, g_max: int) -> list[Bidegree]:
    """All (g, d) with 1 <= g <= g_max, d >= g-1, and d/g <= high_slope.

    Sorted lexicographically.  The paper-facing use is the finite list of
    bidegrees trapped between the connectivity line d >= g-1 and a slope
    bound; for high_slope < 1 the two constraints force g <= 1/(1-high_slope)
    (see auto_g_bound), so a finite g_max loses nothing, and the scan stops
    there whatever g_max is.  More than MAX_BIDEGREES bidegrees are an
    input error.
    """
    if high_slope < 0:
        raise DomainError("high_slope must be nonnegative")
    if g_max < 1:
        raise DomainError("g_max must be >= 1")
    if high_slope < 1:
        g_max = min(g_max, auto_g_bound(high_slope))
    num, den = high_slope.numerator, high_slope.denominator
    out = []
    for g in range(1, g_max + 1):
        lo, hi = max(0, g - 1), num * g // den  # d/g <= num/den
        if len(out) + hi - lo + 1 > MAX_BIDEGREES:
            raise InputError(
                f"more than {MAX_BIDEGREES} bidegrees below slope {high_slope} up to genus {g_max}"
            )
        out += [Bidegree(g, d) for d in range(lo, hi + 1)]
    return out


def auto_g_bound(high_slope: Fraction) -> int:
    """Finiteness bound: d >= g-1 and d/g <= s imply g*(1-s) <= 1."""
    if high_slope >= 1:
        raise DomainError("no finite bound for slope >= 1")
    return int(Fraction(1, 1 - high_slope))
