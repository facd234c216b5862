"""Bases and bigraded dimension tables for free bracket algebras.

The bracket here has bidegree (0, +1): combining words of bidegrees (g1, d1)
and (g2, d2) gives a word of bidegree (g1+g2, d1+d2+1).  After shifting
homological degree by one, the bracket is an honest Lie superbracket; we call
eps(x) = (d(x) + 1) mod 2 the *shifted parity*.  Antisymmetry reads

    [x, y] = -(-1)^(eps(x) * eps(y)) [y, x]

so the self-bracket [x, x] survives exactly when eps(x) is odd (d(x) even),
and [x, [x, x]] = 0 always, by the graded Jacobi identity.

Basis convention (characteristic 0 and odd): graded Lyndon words over the
ordered generator alphabet, extended by the self-brackets [w, w] of the
odd-shifted-parity Lyndon words.  Any basis with the correct bigraded
dimensions would do; dimensions are the tested contract, and the module also
ships a brute-force relation-quotient oracle (`lie_dimensions_bruteforce`)
that recomputes them from raw bracket trees modulo antisymmetry and Jacobi.

In characteristic 2 the self-brackets vanish (the top operation xi is a
quadratic refinement of the bracket: xi(x+y) = xi(x) + xi(y) + [x, y], so
[x, x] = 0), and the indecomposables are instead the xi-towers xi^k(y) over
plain Lyndon words y, with bidegree map (g, q) -> (2g, 2q+1) per application.
Deeper mod-2 Dyer-Lashof bookkeeping is deliberately out of scope: for the
bracket degree used here the only generator-creating operation is the top one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError, InputError
from . import exactla
from .exactla import QQ, Matrix
from .grading import slope


@dataclass(frozen=True, order=True)
class Generator:
    """A named bigraded generator; r is the filtration weight (default d)."""

    g: int
    d: int
    r: int
    name: str

    def __post_init__(self):
        if self.g < 1:
            raise DomainError(f"generator genus must be >= 1: {self.name}")
        if self.d < 0 or self.r < 0:
            raise DomainError(f"negative grading on generator {self.name}")

    @property
    def eps(self) -> int:
        return (self.d + 1) % 2


def gen(name: str, g: int, d: int, r: int | None = None) -> Generator:
    return Generator(g=g, d=d, r=d if r is None else r, name=name)


def generator_set(gens) -> list[Generator]:
    """Canonically ordered generator list; names must be unique."""
    gens = sorted(gens)
    names = [x.name for x in gens]
    if len(set(names)) != len(names):
        raise InputError(f"duplicate generator names: {names}")
    return gens


@dataclass(frozen=True)
class LieWord:
    """A basis word: a bracketing of generators, in normal form.

    ``word`` is the underlying Lyndon word as a tuple of alphabet indices and
    ``doubled`` marks the self-bracket [b(word), b(word)].
    """

    word: tuple[int, ...]
    doubled: bool
    g: int
    d: int
    r: int
    name: str
    content: tuple[str, ...]  # sorted generator names, with multiplicity

    @property
    def eps(self) -> int:
        return (self.d + 1) % 2

    def __repr__(self):
        return f"LieWord({self.name}, g={self.g}, d={self.d})"


def _is_lyndon(w: tuple[int, ...]) -> bool:
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


def _standard_factorization(w: tuple[int, ...]):
    """w = u + v with v the longest proper Lyndon suffix; returns (u, v)."""
    for i in range(1, len(w)):
        if _is_lyndon(w[i:]):
            return w[:i], w[i:]
    raise AssertionError(f"not factorable: {w}")


def bracketing_name(w: tuple[int, ...], names) -> str:
    if len(w) == 1:
        return names[w[0]]
    u, v = _standard_factorization(w)
    return f"[{bracketing_name(u, names)},{bracketing_name(v, names)}]"


def _lyndon_words_in_box(gens: list[Generator], g_max: int, d_max: int):
    """All Lyndon words over the alphabet with bidegree inside the box."""
    k = len(gens)
    out = []

    def extend(w, g, d):
        # bidegree of word w of length L: (sum g_i, sum d_i + L - 1)
        if w:
            wd = d + len(w) - 1
            if g <= g_max and wd <= d_max and _is_lyndon(tuple(w)):
                out.append((tuple(w), g, wd))
        if g >= g_max:
            return
        start = w[0] if w else 0  # Lyndon words never drop below their head
        for i in range(start, k):
            gi = gens[i]
            if g + gi.g <= g_max and d + gi.d + len(w) <= d_max:
                w.append(i)
                extend(w, g + gi.g, d + gi.d)
                w.pop()

    extend([], 0, 0)
    out.sort(key=lambda t: (t[1], t[2], t[0]))
    return out


def _word_weight(w: tuple[int, ...], gens) -> int:
    return sum(gens[i].r for i in w)


def free_graded_lie_basis(gens, box: tuple[int, int]) -> list[LieWord]:
    """Basis of the free graded Lie algebra (bracket of bidegree (0,+1))
    restricted to the box, over a field of characteristic 0 or odd.

    Lyndon words plus [w, w] for odd-shifted-parity w; [x, [x, x]] is never a
    basis element.  Empty generator list gives the empty basis.
    """
    g_max, d_max = box
    if g_max < 1 or d_max < 1:
        raise DomainError("box bounds must be >= 1")
    gens = generator_set(gens)
    names = [x.name for x in gens]
    basis = []
    for w, g, d in _lyndon_words_in_box(gens, g_max, d_max):
        content = tuple(sorted(names[i] for i in w))
        basis.append(
            LieWord(
                word=w,
                doubled=False,
                g=g,
                d=d,
                r=_word_weight(w, gens),
                name=bracketing_name(w, names),
                content=content,
            )
        )
        if (d + 1) % 2 == 1:  # odd shifted parity: the self-bracket survives
            dg, dd = 2 * g, 2 * d + 1
            if dg <= g_max and dd <= d_max:
                nm = bracketing_name(w, names)
                basis.append(
                    LieWord(
                        word=w,
                        doubled=True,
                        g=dg,
                        d=dd,
                        r=2 * _word_weight(w, gens),
                        name=f"[{nm},{nm}]",
                        content=tuple(sorted(content + content)),
                    )
                )
    basis.sort(key=lambda x: (x.g, x.d, x.name))
    return basis


def lie_basis_char2(gens, box: tuple[int, int]) -> list[LieWord]:
    """Basic Lie words mod 2: Lyndon words only (self-brackets vanish)."""
    g_max, d_max = box
    gens = generator_set(gens)
    names = [x.name for x in gens]
    basis = [
        LieWord(
            word=w,
            doubled=False,
            g=g,
            d=d,
            r=_word_weight(w, gens),
            name=bracketing_name(w, names),
            content=tuple(sorted(names[i] for i in w)),
        )
        for w, g, d in _lyndon_words_in_box(gens, g_max, d_max)
    ]
    basis.sort(key=lambda x: (x.g, x.d, x.name))
    return basis


@dataclass(frozen=True)
class CohenGenerator:
    """A tower xi^k(y) over a basic Lie word y, at the prime 2."""

    base: LieWord
    k: int
    g: int
    d: int
    r: int
    name: str

    @property
    def eps(self) -> int:
        return (self.d + 1) % 2


def cohen_generators_f2(gens, box: tuple[int, int]) -> list[CohenGenerator]:
    """All xi-towers xi^k(y), k >= 0, over basic mod-2 Lie words, in the box."""
    g_max, d_max = box
    out = []
    for y in lie_basis_char2(gens, box):
        g, d, r, k = y.g, y.d, y.r, 0
        name = y.name
        while g <= g_max and d <= d_max:
            out.append(CohenGenerator(base=y, k=k, g=g, d=d, r=r, name=name))
            g, d, r, k = 2 * g, 2 * d + 1, 2 * r, k + 1
            name = f"xi({name})" if k == 1 else f"xi^{k}({y.name})"
    out.sort(key=lambda x: (x.g, x.d, x.name))
    return out


# ---------------------------------------------------------------------------
# Betti tables


@dataclass
class BettiTable:
    """Bigraded dimensions of a free graded-commutative algebra, in a box.

    Non-unital convention: genus 0 carries nothing, so the empty monomial is
    not counted.  (The differential-algebra module uses the unital convention
    instead; its tables do have dimension 1 at (0,0) for zero differential.)
    """

    field_name: str
    box: tuple[int, int]
    dims: dict[tuple[int, int], int] = field(default_factory=dict)

    def dim(self, g: int, d: int) -> int:
        return self.dims.get((g, d), 0)

    def sorted_items(self):
        return sorted((gd, n) for gd, n in self.dims.items() if n)


def _count_monomials(letters, box, all_polynomial: bool):
    """Monomial-count table for the free graded-commutative algebra on
    ``letters`` (objects with g, d attributes): polynomial on even d,
    exterior on odd d, unless all_polynomial (characteristic 2)."""
    g_max, d_max = box
    counts = {(0, 0): 1}
    for x in sorted(letters, key=lambda t: (t.g, t.d, t.name)):
        new = dict(counts)
        if all_polynomial or x.d % 2 == 0:
            # unbounded exponent; genus >= 1 bounds the powers
            for (g, d), n in sorted(counts.items()):
                e = 1
                while g + e * x.g <= g_max and d + e * x.d <= d_max:
                    key = (g + e * x.g, d + e * x.d)
                    new[key] = new.get(key, 0) + n
                    e += 1
        else:
            for (g, d), n in sorted(counts.items()):
                if g + x.g <= g_max and d + x.d <= d_max:
                    key = (g + x.g, d + x.d)
                    new[key] = new.get(key, 0) + n
        counts = new
    counts.pop((0, 0), None)
    return counts


def free_gerstenhaber_betti(gens, box: tuple[int, int]) -> BettiTable:
    """Bigraded dimensions over Q of the free algebra-with-bracket on ``gens``:
    the free graded-commutative algebra on the free Lie basis."""
    basis = free_graded_lie_basis(gens, box) if gens else []
    return BettiTable(field_name="Q", box=box, dims=_count_monomials(basis, box, False))


def betti_table_f2(gens, box: tuple[int, int]) -> BettiTable:
    """Bigraded dimensions over F2: polynomial algebra on the xi-towers."""
    letters = cohen_generators_f2(gens, box) if gens else []
    return BettiTable(field_name="F2", box=box, dims=_count_monomials(letters, box, True))


def betti_generating_function(letters, box: tuple[int, int], all_polynomial: bool):
    """Coefficient table of prod 1/(1 - q^g t^d) (polynomial letters) times
    prod (1 + q^g t^d) (exterior letters), truncated to the box.

    Independent of `_count_monomials`: works with explicit truncated power
    series and geometric-series expansion.
    """
    g_max, d_max = box

    def series_mul(a, b):
        out = {}
        for (g1, d1), c1 in a.items():
            for (g2, d2), c2 in b.items():
                g, d = g1 + g2, d1 + d2
                if g <= g_max and d <= d_max:
                    out[(g, d)] = out.get((g, d), 0) + c1 * c2
        return out

    series = {(0, 0): 1}
    for x in letters:
        factor = {(0, 0): 1}
        if all_polynomial or x.d % 2 == 0:
            e = 1
            while e * x.g <= g_max and e * x.d <= d_max:
                factor[(e * x.g, e * x.d)] = 1
                e += 1
        else:
            if x.g <= g_max and x.d <= d_max:
                factor[(x.g, x.d)] = 1
        series = series_mul(series, factor)
    series.pop((0, 0), None)
    return {k: v for k, v in series.items() if v}


# ---------------------------------------------------------------------------
# slope certification


@dataclass(frozen=True)
class OperationSignature:
    """A homology operation mapping bidegree (g, d) to (m*g, m*d + a)."""

    m: int
    a: int
    name: str = "op"

    def __post_init__(self):
        if self.m < 1 or self.a < 0:
            raise InputError(f"malformed operation signature {self.name}: m={self.m}, a={self.a}")


XI_F2 = OperationSignature(m=2, a=1, name="xi")


@dataclass
class SlopeCertificate:
    certified: bool
    min_slope: Fraction
    box: tuple[int, int]
    classes_checked: int
    witness: tuple[str, int, int] | None  # (description, g, d) on failure


def slope_certify(gens, signatures, min_slope: Fraction, box: tuple[int, int]) -> SlopeCertificate:
    """Closure check: every class built from the generators by brackets,
    products and the given operations, within the box, has slope >= min_slope.

    Sound because slope((g1+g2, d1+d2+delta)) >= min(d1/g1, d2/g2) for
    delta >= 0, and (m*d + a)/(m*g) >= d/g for a >= 0; the exhaustive closure
    also certifies it concretely and returns the first witness on failure.
    """
    g_max, d_max = box
    gens = generator_set(gens)
    seen: dict[tuple[int, int], str] = {}
    frontier: list[tuple[int, int, str]] = []

    def visit(g, d, desc):
        if g > g_max or d > d_max:
            return None
        if (g, d) in seen:
            return None
        seen[(g, d)] = desc
        frontier.append((g, d, desc))
        if slope((g, d)) < min_slope:
            return (desc, g, d)
        return None

    for x in gens:
        w = visit(x.g, x.d, x.name)
        if w:
            return SlopeCertificate(False, min_slope, box, len(seen), w)
    i = 0
    while i < len(frontier):
        g1, d1, n1 = frontier[i]
        i += 1
        for sig in signatures:
            w = visit(sig.m * g1, sig.m * d1 + sig.a, f"{sig.name}({n1})")
            if w:
                return SlopeCertificate(False, min_slope, box, len(seen), w)
        for g2, d2, n2 in list(frontier):
            for delta, fmt in ((1, "[{},{}]"), (0, "{}*{}")):
                w = visit(g1 + g2, d1 + d2 + delta, fmt.format(n1, n2))
                if w:
                    return SlopeCertificate(False, min_slope, box, len(seen), w)
    return SlopeCertificate(True, min_slope, box, len(seen), None)


# ---------------------------------------------------------------------------
# brute-force oracle: free Lie dimensions from raw bracket trees


def lie_dimensions_bruteforce(gens, box: tuple[int, int]) -> dict[tuple[int, int], int]:
    """Bigraded dimensions of the free graded Lie algebra, computed with no
    basis theory: span all bracket trees, impose antisymmetry and the graded
    Jacobi identity (and their bracket-closure, i.e. the generated ideal),
    and count dimensions as tree count minus relation rank over Q.
    """
    g_max, d_max = box
    gens = generator_set(gens)

    trees: dict[tuple[int, int], list] = {}

    def eps_of(d):
        return (d + 1) % 2

    for bd in sorted((g, d) for g in range(1, g_max + 1) for d in range(0, d_max + 1)):
        g, d = bd
        ts = [("g", i) for i, x in enumerate(gens) if (x.g, x.d) == (g, d)]
        for g1 in range(1, g):
            g2 = g - g1
            for d1 in range(0, d):
                d2 = d - 1 - d1
                if d2 < 0:
                    continue
                for t1 in trees.get((g1, d1), ()):
                    for t2 in trees.get((g2, d2), ()):
                        ts.append(("b", (t1, (g1, d1)), (t2, (g2, d2))))
        trees[bd] = ts

    relations: dict[tuple[int, int], list[dict]] = {}

    def add(vec, tree, coeff):
        if coeff:
            vec[tree] = vec.get(tree, Fraction(0)) + coeff

    for bd in sorted(trees):
        g, d = bd
        rels: list[dict] = []
        # antisymmetry on all splits
        for g1 in range(1, g):
            g2 = g - g1
            for d1 in range(0, d):
                d2 = d - 1 - d1
                if d2 < 0:
                    continue
                for t1 in trees.get((g1, d1), ()):
                    for t2 in trees.get((g2, d2), ()):
                        sign = (-1) ** (eps_of(d1) * eps_of(d2))
                        vec: dict = {}
                        add(vec, ("b", (t1, (g1, d1)), (t2, (g2, d2))), Fraction(1))
                        add(vec, ("b", (t2, (g2, d2)), (t1, (g1, d1))), Fraction(sign))
                        if vec:
                            rels.append(vec)
        # Jacobi in Leibniz form: [x,[y,z]] = [[x,y],z] + (-1)^(ex ey) [y,[x,z]]
        for (gx, dx) in sorted(trees):
            for (gy, dy) in sorted(trees):
                gz, dz = g - gx - gy, d - 2 - dx - dy
                if gz < 1 or dz < 0:
                    continue
                for tx in trees[(gx, dx)]:
                    for ty in trees[(gy, dy)]:
                        for tz in trees.get((gz, dz), ()):
                            X, Y, Z = (tx, (gx, dx)), (ty, (gy, dy)), (tz, (gz, dz))
                            YZ = (("b", Y, Z), (gy + gz, dy + dz + 1))
                            XY = (("b", X, Y), (gx + gy, dx + dy + 1))
                            XZ = (("b", X, Z), (gx + gz, dx + dz + 1))
                            vec = {}
                            add(vec, ("b", X, YZ), Fraction(1))
                            add(vec, ("b", XY, Z), Fraction(-1))
                            sign = (-1) ** (eps_of(dx) * eps_of(dy))
                            add(vec, ("b", Y, XZ), Fraction(-sign))
                            rels.append(vec)
        # ideal closure: bracket lower relations with trees on either side
        for (g1, d1) in sorted(relations):
            g2, d2 = g - g1, d - 1 - d1
            if g2 < 1 or d2 < 0:
                continue
            for rel in relations[(g1, d1)]:
                for t2 in trees.get((g2, d2), ()):
                    T2 = (t2, (g2, d2))
                    left = {}
                    right = {}
                    for tr, coeff in rel.items():
                        add(left, ("b", (tr, (g1, d1)), T2), coeff)
                        add(right, ("b", T2, (tr, (g1, d1))), coeff)
                    rels.append(left)
                    rels.append(right)
        relations[bd] = rels

    dims = {}
    for bd in sorted(trees):
        ts = trees[bd]
        if not ts:
            continue
        index = {t: i for i, t in enumerate(ts)}
        # relations as columns: every row comes out sorted, and the rank is the same
        rows = [[] for _ in ts]
        for j, vec in enumerate(relations[bd]):
            for tr, coeff in vec.items():
                rows[index[tr]].append((j, coeff))
        dim = len(ts) - exactla.rank(Matrix(QQ, len(ts), len(relations[bd]), rows))
        if dim:
            dims[bd] = dim
    return dims
