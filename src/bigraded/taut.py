"""Tautological-ring calculator: kappa classes, the Euler class, Gysin
pushforward, primitive coproducts, and pairing evaluation.

Classes live in the polynomial ring on e (degree 2), kappa_1, kappa_2, ...
(degree 2i) and the auxiliary degree-2 class lambda1 (present only through
the recorded relation kappa_1 = 12 lambda1).  Coefficients are polynomials
in named formal parameters with exact rational coefficients, so symbolic
identities like pi_!(A e^2 + B e kappa_1) = (A - 6B) kappa_1 are literal
computations.

The Gysin map is linear over kappa-monomials and acts on Euler-class powers by

    e^0 -> 0,   e^1 -> (2 - 2g) * 1,   e^(i+1) -> kappa_i  (i >= 1),

so it needs the ambient genus as an explicit argument; the projection formula
pi_!(q * p) = q * pi_!(p) for q free of e is then automatic.

Coproducts use that the kappa_i are primitive: Delta(kappa_i) =
kappa_i (x) 1 + 1 (x) kappa_i, extended multiplicatively.  An n-fold
expansion is built slot by slot: slot s takes a kappa monomial under the
exponents r_i the earlier slots left, and the last slot takes the rest.
Slot s can take c_i of the r_i factors kappa_i in C(r_i, c_i) ways, so a
term is weighted by the product of these binomials, which telescopes to the
multinomial a_i! / (c_1! ... c_n!) of each source exponent a_i.  The caller
may name the monomials each slot may hold (a functional's support, say): a
slot then takes only those, and a branch ends as soon as a slot cannot be
filled, so a pairing builds only the terms that can pair to nonzero.  The
slots of a term determine its source monomial, so no terms are collected.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import product, zip_longest
from math import comb, prod
from operator import sub

from .errors import DomainError, InputError
from . import exactla
from .exactla import QQ, Matrix
from .parsing import content_lines, parse_terms


# ---------------------------------------------------------------------------
# polynomials


class _DictPoly(dict):
    """A polynomial as ``{monomial: coefficient}`` that stores no zero
    coefficient, so it is zero exactly when it is empty.  A subclass gives
    the product of two of its monomials, ``_mono_mul``.  No coefficient is
    changed in place, so polynomials may share coefficient objects."""

    @classmethod
    def term(cls, m, c):
        """The one-term polynomial c*m, empty when c is zero."""
        return cls({m: c}) if c else cls()

    def _add_term(self, m, c) -> None:
        if m in self:
            c = self[m] + c
        if c:
            self[m] = c
        else:
            self.pop(m, None)

    def __add__(self, other):
        out = type(self)(self)
        for m, c in other.items():
            out._add_term(m, c)
        return out

    def __neg__(self):
        return type(self)({m: -c for m, c in self.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        out = type(self)()
        for m1, c1 in self.items():
            for m2, c2 in other.items():
                out._add_term(self._mono_mul(m1, m2), c1 * c2)
        return out


def _signed_sum(parts: list[str]) -> str:
    """Rendered terms joined by their signs; no terms read ``0``."""
    if not parts:
        return "0"
    return parts[0] + "".join(p if p.startswith("-") else "+" + p for p in parts[1:])


ParamMono = tuple[tuple[str, int], ...]  # sorted ((name, exp), ...)


class ParamPoly(_DictPoly):
    """Polynomial in named formal parameters over Q: {ParamMono: Fraction}."""

    @classmethod
    def const(cls, c) -> "ParamPoly":
        return cls.term((), Fraction(c))

    @classmethod
    def param(cls, name: str) -> "ParamPoly":
        return cls.term(((name, 1),), Fraction(1))

    @staticmethod
    def _mono_mul(m1: ParamMono, m2: ParamMono) -> ParamMono:
        exps: dict[str, int] = dict(m1)
        for name, e in m2:
            exps[name] = exps.get(name, 0) + e
        return tuple(sorted(exps.items()))

    def __mul__(self, other):
        """The product with a ParamPoly or a number."""
        return super().__mul__(other if isinstance(other, ParamPoly) else ParamPoly.const(other))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = ParamPoly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def render(self) -> str:
        parts = []
        for m, c in sorted(self.items()):
            if m and c in (1, -1):
                head = "" if c == 1 else "-"
            else:
                head = _text(c.numerator)
                if c.denominator != 1:
                    head += "/" + _text(c.denominator)
                if m:
                    head += "*"
            parts.append(head + _product_text(m))
        return _signed_sum(parts)


def _product_text(powers) -> str:
    """``x*y^2`` for the powers ``(("x", 1), ("y", 2))``."""
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in powers)


def _text(n: int) -> str:
    """``str(n)``; a number of more digits than Python converts to text
    (4300 by default, the limit the parser meets on input numbers) is an
    input error."""
    try:
        return str(n)
    except ValueError:
        raise InputError(
            f"a coefficient of the result has more than {sys.get_int_max_str_digits()} digits"
        ) from None


# ---------------------------------------------------------------------------
# tautological polynomials

TautMono = tuple[int, int, tuple[int, ...]]  # (e_exp, l1_exp, kappa exponents)

# kappa exponents are a dense tuple, so kappa_i costs i entries: a larger
# index, read or made by the Gysin rule, is an input error
MAX_KAPPA_INDEX = 1000

# an n-fold coproduct is expanded term by term, n slots each: an expansion
# of more slots in all than this is an input error
MAX_COPRODUCT_SLOTS = 200_000

# each term of an expansion is weighted by a product of multinomials, which
# is printed: a weight of more digits than this is an input error
MAX_WEIGHT_DIGITS = 4300
_WEIGHT_CAP = 10**MAX_WEIGHT_DIGITS - 1


def _mono_degree(m: TautMono) -> int:
    e, l1, ks = m
    return 2 * e + 2 * l1 + sum(2 * (i + 1) * a for i, a in enumerate(ks))


def _trim(ks) -> tuple[int, ...]:
    end = len(ks)
    while end and ks[end - 1] == 0:
        end -= 1
    return tuple(ks[:end])


def mono_name(m: TautMono) -> str:
    e, l1, ks = m
    factors = [("e", e), ("l1", l1)] + [(f"k{i+1}", a) for i, a in enumerate(ks)]
    return _product_text((name, a) for name, a in factors if a) or "1"


class TautPoly(_DictPoly):
    """{TautMono: ParamPoly}, kappa exponents stored without trailing zeros;
    homogeneity is checked where operations need it."""

    def add_term(self, m: TautMono, c: ParamPoly) -> None:
        """Add c*m, for a monomial m whose kappa exponents may end in zeros."""
        self._add_term((m[0], m[1], _trim(m[2])), c)

    @staticmethod
    def _mono_mul(m1: TautMono, m2: TautMono) -> TautMono:
        # a sum of kappa exponents without trailing zeros has none
        ks = tuple(a + b for a, b in zip_longest(m1[2], m2[2], fillvalue=0))
        return (m1[0] + m2[0], m1[1] + m2[1], ks)

    def scale(self, c) -> "TautPoly":
        """c*self, for a number or a ParamPoly c."""
        return self * taut_const(c)

    def degree(self) -> int:
        """Cohomological degree; raises on inhomogeneous input."""
        degs = {_mono_degree(m) for m in self}
        if not degs:
            return 0
        if len(degs) > 1:
            raise DomainError(f"inhomogeneous polynomial, degrees {sorted(degs)}")
        return degs.pop()

    def render(self) -> str:
        parts = []
        # descending powers with kappa monomials before l1, matching the
        # usual printed order 3*k1^2+32*k2
        for m in sorted(self.keys(), key=lambda m: (m[0], m[2], m[1]), reverse=True):
            cs = self[m].render()
            nm = mono_name(m)
            if nm == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(nm)
            elif cs == "-1":
                parts.append(f"-{nm}")
            elif "+" in cs or (cs.count("-") - cs.startswith("-")) > 0:
                parts.append(f"({cs})*{nm}")
            else:
                parts.append(f"{cs}*{nm}")
        return _signed_sum(parts)


_UNIT: TautMono = (0, 0, ())


def kappa(i: int, exp: int = 1) -> TautPoly:
    if i < 1:
        raise DomainError("kappa index must be >= 1 (kappa_0 enters only through the Gysin rule)")
    ks = [0] * i
    ks[i - 1] = exp
    return TautPoly.term((0, 0, _trim(ks)), ParamPoly.const(1))


def euler(exp: int = 1) -> TautPoly:
    return TautPoly.term((exp, 0, ()), ParamPoly.const(1))


def taut_const(c=1) -> TautPoly:
    """The constant c, a number or a ParamPoly."""
    return TautPoly.term(_UNIT, c if isinstance(c, ParamPoly) else ParamPoly.const(c))


# ---------------------------------------------------------------------------
# Gysin pushforward


def _check_genus(genus: int | None) -> None:
    if genus is not None and genus < 0:
        raise DomainError("negative genus")


def gysin_pushforward(p: TautPoly, genus: int) -> TautPoly:
    """Integration along the fiber of the universal genus-g surface bundle."""
    _check_genus(genus)
    p.degree()  # homogeneity check
    out = TautPoly()
    for (e, l1, ks), c in p.items():
        if l1:
            raise DomainError("Gysin pushforward is defined on e/kappa polynomials only")
        if e == 0:
            continue
        if e == 1:
            out._add_term((0, 0, ks), c * Fraction(2 - 2 * genus))
        else:
            i = e - 1  # e^(i+1) -> kappa_i
            if i > MAX_KAPPA_INDEX:
                raise InputError(
                    f"Gysin pushforward of e^{e} needs kappa_{i}; the largest index is {MAX_KAPPA_INDEX}"
                )
            ks2 = list(ks) + [0] * max(0, i - len(ks))
            ks2[i - 1] += 1
            out._add_term((0, 0, tuple(ks2)), c)
    return out


# ---------------------------------------------------------------------------
# relation ledger


@dataclass
class Relation:
    """The relation ``poly = 0``; its genus is checked and its degree read
    once, here, so a negative genus or an inhomogeneous poly is rejected."""

    poly: TautPoly
    ambient_genus: int | None  # None: genus-independent
    source_label: str
    degree: int = dc_field(init=False)

    def __post_init__(self):
        _check_genus(self.ambient_genus)
        self.degree = self.poly.degree()


def r12_restricted() -> TautPoly:
    """Morita's third relation for k = 7, restricted to kappa_1 and kappa_2
    (up to a nonzero scalar), as used for the degree-14 pairing."""
    p = TautPoly()
    for coeff, a, b in ((80435, 7, 0), (21719880, 5, 1), (1387036224, 3, 2), (17581100544, 1, 3)):
        p.add_term((0, 0, (a, b)), ParamPoly.const(coeff))
    return p


def builtin_ledger() -> list[Relation]:
    k1, k2 = kappa(1), kappa(2)
    l1 = TautPoly.term((0, 1, ()), ParamPoly.const(1))
    return [
        Relation(k1.scale(3) * k1 + k2.scale(32), 4, "genus-4 degree-4 relation"),
        Relation(k1.scale(5) * k1 + k2.scale(72), 5, "genus-5 degree-4 relation"),
        Relation(k1 + l1.scale(-12), None, "kappa1 = 12 lambda1"),
        Relation(r12_restricted(), 18, "Morita third relation, k=7, kappa1/kappa2 part"),
    ]


@dataclass
class Ledger:
    relations: list[Relation] = dc_field(default_factory=builtin_ledger)
    # nonvanishing facts: (genus, monomial) known to be nonzero
    nonvanishing: list[tuple[int, TautMono]] = dc_field(
        default_factory=lambda: [(4, (0, 0, (1,))), (4, (0, 0, (0, 1)))]
    )

    def lookup(self, genus: int | None = None, degree: int | None = None) -> list[Relation]:
        _check_genus(genus)
        return [r for r in self.relations if (genus is None or r.ambient_genus in (None, genus))
                and (degree is None or r.degree == degree)]

    def add_from_text(self, text: str, genus: int | None, label: str) -> None:
        self.relations.append(Relation(parse_taut(text), genus, label))

    def add_relations_file(self, text: str, genus: int | None) -> None:
        """Add each relation of a relations file, one polynomial per line,
        labelled ``user relation N`` by its raw line number N."""
        for n, raw in enumerate(text.splitlines(), 1):
            for _, line in content_lines(raw):
                self.add_from_text(line, genus, f"user relation {n}")


# ---------------------------------------------------------------------------
# the H^3(Gamma_4) kernel deduction


@dataclass
class KernelReport:
    solution_dim: int
    constraints: list[str]
    contradiction: str | None
    insufficient: bool

    @property
    def zero_only(self) -> bool:
        return self.solution_dim == 0 and self.contradiction is None


def deduce_h43_kernel(ledger: Ledger | None = None) -> KernelReport:
    """Suppose A e + B kappa_1 is killed by multiplication by the Euler class
    at genus 4.  Push forward e*(Ae + B kappa_1) and e^2*(Ae + B kappa_1),
    reduce modulo the ledger, and solve for (A, B).

    The ledger's genus-4 and genus-free relations on kappa_1 alone, or on
    kappa_1^2 and kappa_2 alone, are read into one reduced echelon form; one
    with a formal parameter is a domain error.  A relation r = 0 that holds
    e and not l1 lives on the universal curve, so pi_!(e^k * r) = 0 for
    every k >= 0 (kappa_0 = 2 - 2g = -6, Mumford 1983), and those of degree
    2 and 4 are read with the rest.  The contradiction names every class
    known to be nonzero at genus 4 that reduces to zero.

    With the built-in ledger (3 kappa_1^2 + 32 kappa_2 = 0, kappa_1 != 0,
    kappa_2 != 0) the solution space is {A = B = 0}.  Dropping kappa_2 != 0
    leaves a one-dimensional solution line, flagged as insufficient; a ledger
    that forces kappa_2 = 0 is reported as a contradiction.
    """
    ledger = ledger or Ledger()
    A, B = ParamPoly.param("A"), ParamPoly.param("B")
    p = euler().scale(A) + kappa(1).scale(B)
    push1 = gysin_pushforward(euler() * p, 4)
    push2 = gysin_pushforward(euler(2) * p, 4)

    k1 = (0, 0, (1,))
    basis = [k1, (0, 0, (2,)), (0, 0, (0, 1))]  # degree 2: kappa_1; degree 4: kappa_1^2, kappa_2
    rel_rows = []
    for r in ledger.lookup(genus=4):
        polys = [r.poly]
        if any(m[0] for m in r.poly) and not any(m[1] for m in r.poly):
            # pi_!(e^k * r) has degree deg(r) + 2k - 2
            polys = [gysin_pushforward(euler(k) * r.poly, 4) for k in range(3) if 4 <= r.degree + 2 * k <= 6]
        for poly in polys:
            if poly.keys() <= set(basis):
                if any(m for c in poly.values() for m in c):
                    raise DomainError(f"ledger relation {r.source_label!r} has a formal parameter; "
                                      "the kernel deduction reads rational relations only")
                rel_rows.append([(j, poly[m][()]) for j, m in enumerate(basis) if m in poly])
    echelon, pivots = exactla.rref(Matrix(QQ, len(rel_rows), len(basis), rel_rows))

    def reduced(vec):
        for row, col in zip(echelon, pivots):
            c = vec[col]
            for j, x in row:
                vec[j] = vec[j] - c * x
        return vec

    nonvan = {m for g, m in ledger.nonvanishing if g == 4}
    forced = [mono_name(m) for k, m in enumerate(basis)
              if m in nonvan and not any(reduced([int(j == k) for j in range(len(basis))]))]
    contradiction = f"ledger relations force {' and '.join(forced)} to vanish" if forced else None

    # a class known to be nonzero makes its coefficient a constraint:
    # kappa_1's in push1, and each one's in push2 after reduction
    found = []
    if k1 in nonvan:
        found.append((push1.get(k1, ParamPoly()), "coefficient of k1 in pi_!(e*(Ae+Bk1))"))
    vec = reduced([push2.get(m, ParamPoly()) for m in basis])
    found += [(v, f"coefficient of {mono_name(m)} after reduction")
              for m, v in zip(basis, vec) if m in nonvan]
    found = [(c, f"{why}: {c.render()} = 0") for c, why in found if c]
    # the pushforwards are linear in A and B and the reduction only scales
    # by rationals, so each constraint's row is its coefficients of A and B
    rows = [[(j, c.get(((n, 1),), 0)) for j, n in enumerate("AB")] for c, _ in found]
    dim = 2 - exactla.rank(Matrix(QQ, len(rows), 2, rows))
    return KernelReport(solution_dim=dim, constraints=[why for _, why in found],
                        contradiction=contradiction, insufficient=dim > 0 and contradiction is None)


# ---------------------------------------------------------------------------
# coproducts and pairings


@dataclass(frozen=True)
class TensorTerm:
    coeff: ParamPoly
    slots: tuple[TautMono, ...]

    def render(self) -> str:
        c = self.coeff.render()
        body = " (x) ".join(mono_name(s) for s in self.slots)
        return body if c == "1" else f"{c} * {body}"


def _capped_comb(m: int, k: int, cap: int) -> int:
    """C(m, k), or cap + 1 if that is larger; C(m - k + i, i) grows with i,
    so the product stops as soon as it passes cap."""
    k = min(k, m - k)
    c = 1
    for i in range(1, k + 1):
        c = c * (m - k + i) // i
        if c > cap:
            return cap + 1
    return c


def _coproduct_size(p: TautPoly, n: int) -> int:
    """The number of terms of the n-fold expansion of p, or
    MAX_COPRODUCT_SLOTS + 1 if that is larger: a monomial with kappa
    exponents a_i gives prod_i C(a_i + n - 1, n - 1) terms."""
    cap = MAX_COPRODUCT_SLOTS
    total = 0
    for _, _, ks in p:
        terms = 1
        for a in ks:
            if a:
                terms = min(terms * _capped_comb(a + n - 1, a, cap), cap + 1)
        total = min(total + terms, cap + 1)
    return total


def _largest_weight(ks, n: int, cap: int) -> int:
    """The largest weight of a term of the n-fold expansion of the kappa
    monomial with exponents ``ks``, or cap + 1 if that is larger.  The
    multinomial a! / (c_1! ... c_n!) is largest on the most even
    distribution, r = a mod n parts of q + 1 and the others of q = a div n,
    and it is the product of C(left, c) over the parts."""
    weight = 1
    for a in ks:
        q, r = divmod(a, n)
        left = a
        for part in [q + 1] * r + ([q] * (n - r) if q else []):
            weight *= _capped_comb(left, part, cap)
            if weight > cap:
                return cap + 1
            left -= part
    return weight


def _slot_picks(ks, n: int, patterns=None) -> list[tuple[tuple[TautMono, ...], int]]:
    """Each way to share the kappa exponents ``ks`` among n slots, as
    ``(slots, weight)`` in increasing order of slots.  Slot s takes a
    monomial c under the exponents r that the slots before it left, weighted
    by prod_i C(r_i, c_i), and the last slot takes the remainder.  With
    ``patterns``, slot s takes only monomials in patterns[s], so a branch
    ends where a slot cannot be filled.  The walk keeps an explicit stack,
    not one Python frame per slot."""
    options = {}  # r, or (slot, r) with patterns -> the slot's picks under r
    picks = []
    path = [None] * n
    stack = [(0, None, ks, 1)]
    while stack:
        s, m, r, w = stack.pop()
        if s:
            path[s - 1] = m
        if not any(r):  # the slots from s on take the unit
            if patterns is None or all(_UNIT in pat for pat in patterns[s:]):
                picks.append((tuple(path[:s]) + (_UNIT,) * (n - s), w))
            continue
        if s == n - 1:  # the last slot takes the remainder
            m = (0, 0, _trim(r))
            if patterns is None or m in patterns[s]:
                path[s] = m
                picks.append((tuple(path), w))
            continue
        key = r if patterns is None else (s, r)
        opts = options.get(key)
        if opts is None:
            if patterns is None:
                subs = product(*(range(a + 1) for a in r))
            else:
                # the kappa monomials of the pattern under r, padded to len(r)
                subs = sorted(
                    c + (0,) * (len(r) - len(c)) for e, l1, c in patterns[s]
                    if not e and not l1 and len(c) <= len(r) and c == _trim(c)
                    and all(0 <= a <= b for a, b in zip(c, r))
                )
            opts = options[key] = [
                ((0, 0, _trim(c)), tuple(map(sub, r, c)), prod(map(comb, r, c))) for c in subs
            ]
        # pushed in reverse, so the smallest pick is walked first
        stack += [(s + 1, m, rest, w * ways) for m, rest, ways in reversed(opts)]
    return picks


def check_coproduct(p: TautPoly, n: int) -> None:
    """Raise the error that the n-fold expansion of p meets before it builds
    anything: an arity below 2, a monomial with e or l1, more than
    MAX_COPRODUCT_SLOTS slots in all, or a weight of more than
    MAX_WEIGHT_DIGITS digits.  Slots and weights are those of the full
    expansion, whatever patterns restrict it."""
    if n < 2:
        raise DomainError("coproduct arity must be >= 2")
    if any(e or l1 for e, l1, _ in p):
        raise DomainError("coproduct is defined for kappa polynomials only")
    size = _coproduct_size(p, n)
    if size * n > MAX_COPRODUCT_SLOTS:
        count = f"more than {MAX_COPRODUCT_SLOTS}" if size > MAX_COPRODUCT_SLOTS else str(size)
        raise InputError(
            f"the {n}-fold coproduct expands to {count} terms of {n} slots each;"
            f" at most {MAX_COPRODUCT_SLOTS} slots in all are expanded"
        )
    if any(_largest_weight(ks, n, _WEIGHT_CAP) > _WEIGHT_CAP for _, _, ks in p):
        raise InputError(
            f"the {n}-fold coproduct has multinomial weights of more than"
            f" {MAX_WEIGHT_DIGITS} digits"
        )


def nfold_coproduct(p: TautPoly, n: int, slot_patterns=None) -> list[TensorTerm]:
    """Expansion of the (n-1)-fold iterated coproduct of a kappa polynomial,
    using primitivity of each kappa_i and multiplicativity.

    A monomial prod_i kappa_i^(a_i) expands into one term per way of sharing
    its exponents among the n slots, walked slot by slot (`_slot_picks`);
    the coefficient is the source coefficient times the product of the
    binomials C(r_i, c_i) of each slot's pick, the multinomials of the
    sharing.  The slots of a term sum to its source exponents, so no two
    terms share their slots and nothing is collected; terms come in
    increasing order of slots.

    ``slot_patterns``, one set of monomials per slot as `restrict_terms`
    takes them, keeps only the terms whose every slot lies in its set, and
    the walk builds no other: the result is ``restrict_terms(
    nfold_coproduct(p, n), slot_patterns)``, term for term.  `check_coproduct`
    runs first, on the full expansion."""
    check_coproduct(p, n)
    if slot_patterns is not None and p and len(slot_patterns) != n:
        raise InputError("pattern arity mismatch")
    terms = [
        TensorTerm(ParamPoly({m: c * weight for m, c in coeff.items()}), slots)
        for (_, _, ks), coeff in p.items()
        for slots, weight in _slot_picks(ks, n, slot_patterns)
    ]
    terms.sort(key=lambda t: t.slots)
    return terms


def restrict_terms(terms, slot_patterns) -> list[TensorTerm]:
    """Keep terms whose slot monomials match the per-slot allowed sets."""
    out = []
    for t in terms:
        if len(t.slots) != len(slot_patterns):
            raise InputError("pattern arity mismatch")
        if all(s in pat for s, pat in zip(t.slots, slot_patterns)):
            out.append(t)
    return out


@dataclass
class HomologyFunctional:
    """A linear functional on kappa monomials of one fixed degree; unlisted
    monomials pair to zero.  Values are formal-parameter polynomials."""

    name: str
    values: dict[TautMono, ParamPoly]

    def __post_init__(self):
        degs = {_mono_degree(m) for m in self.values}
        if len(degs) > 1:
            raise InputError(f"functional {self.name} mixes degrees {sorted(degs)}")
        self.degree = degs.pop() if degs else 0

    def pair(self, m: TautMono) -> ParamPoly:
        return self.values.get(m, ParamPoly())

    @property
    def support(self) -> set[TautMono]:
        """The monomials with a nonzero value: the pattern of a slot this
        functional pairs with."""
        return {m for m, v in self.values.items() if v}


def pair_tensor(terms, functionals) -> ParamPoly:
    """Sum over terms of coeff times the product of slotwise pairings."""
    return pair_tensor_trace(terms, functionals)[0]


def pair_tensor_trace(terms, functionals):
    """As pair_tensor, also returning the nonzero per-term contributions."""
    total = ParamPoly()
    trace = []
    for t in terms:
        if len(t.slots) != len(functionals):
            raise InputError("slot count does not match functional count")
        acc = t.coeff
        for s, f in zip(t.slots, functionals):
            acc = acc * f.pair(s)
            if not acc:
                break
        if acc:
            trace.append((t, acc))
            total = total + acc
    return total, trace


def paper_63_functionals() -> list[HomologyFunctional]:
    """<lambda, kappa_1> = u; <x, kappa_2> = t, <x, kappa_1^2> = -(72/5) t."""
    u, t = ParamPoly.param("u"), ParamPoly.param("t")
    lam = HomologyFunctional("lambda", {(0, 0, (1,)): u})
    x = HomologyFunctional(
        "x", {(0, 0, (0, 1)): t, (0, 0, (2,)): t * Fraction(-72, 5)}
    )
    return [lam, lam, lam, x, x]


def paper_63_pairing() -> ParamPoly:
    """The degree-14 pairing of lambda (x) lambda (x) lambda (x) x (x) x
    against the 5-fold coproduct of the stored restricted relation, expanded
    only on the functionals' supports."""
    funcs = paper_63_functionals()
    return pair_tensor(nfold_coproduct(r12_restricted(), 5, [f.support for f in funcs]), funcs)


# ---------------------------------------------------------------------------
# expressions, slot patterns and input files


_TAUT_NAME = r"[A-Za-z_][A-Za-z_0-9]*"


def parse_taut(text: str) -> TautPoly:
    """Parse ``c*k1^a*k2^b*e^m`` expressions; names other than e, l1, k<i>
    are formal parameters."""
    out = TautPoly()
    for coeff, exps in parse_terms(text, _TAUT_NAME):
        e_exp = l1_exp = 0
        ks: dict[int, int] = {}
        params = []
        for name, exp in exps.items():
            if name == "e":
                e_exp = exp
            elif name == "l1":
                l1_exp = exp
            elif name[0] == "k" and name[1:].isdigit():
                try:
                    idx = int(name[1:])
                except ValueError:  # more digits than int() converts: out of range
                    idx = 0
                if not 1 <= idx <= MAX_KAPPA_INDEX:
                    raise InputError(f"kappa index must be between 1 and {MAX_KAPPA_INDEX}: {name}")
                ks[idx] = ks.get(idx, 0) + exp
            elif exp:
                params.append((name, exp))
        if not coeff:  # a zero term adds nothing, once its names are read
            continue
        kt = tuple(ks.get(j, 0) for j in range(1, max(ks, default=0) + 1))
        out.add_term((e_exp, l1_exp, kt), ParamPoly.term(tuple(sorted(params)), coeff))
    return out


def _monomial(text: str, error: str) -> TautMono:
    """The monomial that ``text`` parses to, which must be one term with
    coefficient 1; anything else raises ``error``, naming the text."""
    p = parse_taut(text)
    if len(p) != 1 or next(iter(p.values())) != ParamPoly.const(1):
        raise InputError(f"{error}: {text!r}")
    return next(iter(p))


def parse_slot_patterns(text: str, n: int) -> list[set[TautMono]]:
    """The n slot patterns of ``text``, as `nfold_coproduct` takes them:
    comma-separated slots, each a monomial or ``{MONO|MONO|...}``, as in
    ``k1,k1,{k1^2|k2}``.  Unbalanced braces, a slot count other than n and
    an option that is not a monomial are input errors."""
    merged, depth, cur = [], 0, ""
    for ch in text.split(","):  # rejoin the chunks inside {...}
        cur = f"{cur},{ch}" if cur else ch
        depth += ch.count("{") - ch.count("}")
        if depth == 0:
            merged.append(cur)
            cur = ""
    if cur:
        raise InputError(f"unbalanced braces in {text!r}")
    if len(merged) != n:
        raise InputError(f"--restrict needs {n} slots, got {len(merged)}")
    patterns = []
    for chunk in merged:
        chunk = chunk.strip()
        opts = chunk[1:-1].split("|") if chunk.startswith("{") else [chunk]
        patterns.append({_monomial(opt.strip(), "restriction option must be a monomial") for opt in opts})
    return patterns


def parse_functionals(text: str) -> tuple[TautPoly, list[HomologyFunctional]]:
    """The class to pair and the functionals in slot order, from a
    functionals file: ``functional NAME`` heads, ``MONO = VALUE`` entries,
    one ``pair: EXPR`` line and one ``slots: NAME...`` line.  A second head
    for a name, a second value for a monomial of one functional, and a
    second ``pair:`` or ``slots:`` line are input errors."""
    funcs: dict[str, dict] = {}
    current = None
    heads = {}  # "pair" and "slots": the rest of their line
    for raw, line in content_lines(text):
        if line.startswith("functional "):
            current = line.split(None, 1)[1].strip()
            if current in funcs:
                raise InputError(f"second head for functional {current}: {raw!r}")
            funcs[current] = {}
        elif line.startswith(("pair:", "slots:")):
            head, _, rest = line.partition(":")
            if head in heads:
                raise InputError(f"second '{head}:' line: {raw!r}")
            heads[head] = rest
        elif "=" in line:
            if current is None:
                raise InputError("functional entry before any 'functional NAME' line")
            lhs, rhs = (s.strip() for s in line.split("=", 1))
            mono = _monomial(lhs, "functional key must be a monomial")
            if mono in funcs[current]:
                raise InputError(f"second value for {lhs} in functional {current}: {raw!r}")
            value = parse_taut(rhs)
            if any(m != _UNIT for m in value):
                raise InputError(f"functional value must be parameters only: {rhs!r}")
            funcs[current][mono] = value.get(_UNIT, ParamPoly())
        else:
            raise InputError(f"bad functionals line: {raw!r}")
    if len(heads) < 2:
        raise InputError("functionals file needs 'pair:' and 'slots:' lines")
    built = {nm: HomologyFunctional(nm, vals) for nm, vals in funcs.items()}
    try:
        ordered = [built[nm] for nm in heads["slots"].split()]
    except KeyError as exc:
        raise InputError(f"unknown functional in slots: {exc}") from exc
    return parse_taut(heads["pair"].strip()), ordered
