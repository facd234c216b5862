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
odd-shifted-parity Lyndon words.  The Lyndon words of a box come from one
explicit-stack pass over prenecklaces carrying Duval's period (J.-P. Duval,
Theoret. Comput. Sci. 60, 1988), and each is named by its standard
factorization [u, v] (Reutenauer, Free Lie Algebras, 1993, 5.1) from the
names of u and v.  Any basis with the correct bigraded dimensions would do;
dimensions are the tested contract, and the module also ships a brute-force
relation-quotient oracle (`lie_dimensions_bruteforce`) that recomputes them
from raw bracket trees modulo antisymmetry and Jacobi.

In characteristic 2 the self-brackets vanish (the top operation xi is a
quadratic refinement of the bracket: xi(x+y) = xi(x) + xi(y) + [x, y], so
[x, x] = 0), and the indecomposables are instead the xi-towers xi^k(y) over
plain Lyndon words y, with bidegree map (g, q) -> (2g, 2q+1) per application.
Deeper mod-2 Dyer-Lashof bookkeeping is deliberately out of scope: for the
bracket degree used here the only generator-creating operation is the top one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import DomainError, InputError
from . import exactla
from .exactla import QQ, Matrix
from .grading import HomologyTable, slope


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


def _lyndon_words(gens: list[Generator], g_max: int, d_max: int):
    """Every Lyndon word over the sorted alphabet with bidegree inside the
    box, as (word, g, d, r, name), sorted by (g, d, word).

    A depth-first pass over prenecklaces with an explicit stack, carrying
    Duval's period p of each word w of length L: extending w by a keeps the
    period if a = w[L-p], gives a Lyndon word (period L+1) if a > w[L-p], and
    leaves the prenecklaces if a < w[L-p], so that branch is cut.  Every
    prefix of a Lyndon word is a prenecklace of smaller bidegree, so the
    pass reaches every Lyndon word in the box.

    A word of length >= 2 is named by its standard factorization [u, v], v
    being its longest proper Lyndon suffix.  Both factors are Lyndon words
    of smaller genus, so they are named before it in the sorted order, and
    v is the longest proper suffix that already has a name.
    """
    k = len(gens)
    gs = [x.g for x in gens]
    ds = [x.d for x in gens]
    rs = [x.r for x in gens]
    words = []
    # a frame is (word, genus, sum of letter degrees, weight, period)
    stack = [((i,), gs[i], ds[i], rs[i], 1) for i in range(k) if gs[i] <= g_max and ds[i] <= d_max]
    while stack:
        w, g, d, r, p = stack.pop()
        L = len(w)
        if p == L:
            words.append((w, g, d + L - 1, r))
        ref = w[L - p]
        for a in range(ref, k):
            if g + gs[a] > g_max:
                break  # the generators are sorted, so their genus only grows
            if d + ds[a] + L <= d_max:
                stack.append((w + (a,), g + gs[a], d + ds[a], r + rs[a], p if a == ref else L + 1))
    words.sort(key=lambda t: (t[1], t[2], t[0]))
    names: dict[tuple[int, ...], str] = {}
    out = []
    for w, g, d, r in words:
        if len(w) == 1:
            name = gens[w[0]].name
        else:
            i = next(i for i in range(1, len(w)) if w[i:] in names)
            name = f"[{names[w[:i]]},{names[w[i:]]}]"
        names[w] = name
        out.append((w, g, d, r, name))
    return out


def _lyndon_basis(gens, box: tuple[int, int], doubles: bool) -> list[LieWord]:
    """The Lyndon words in the box as basis words, plus the self-brackets
    [w, w] of the odd-shifted-parity ones if ``doubles``."""
    g_max, d_max = box
    if g_max < 1 or d_max < 1:
        raise DomainError("box bounds must be >= 1")
    gens = generator_set(gens)
    names = [x.name for x in gens]
    basis = []
    for w, g, d, r, name in _lyndon_words(gens, g_max, d_max):
        content = tuple(sorted(map(names.__getitem__, w)))
        basis.append(LieWord(word=w, doubled=False, g=g, d=d, r=r, name=name, content=content))
        # odd shifted parity: the self-bracket survives
        if doubles and d % 2 == 0 and 2 * g <= g_max and 2 * d + 1 <= d_max:
            basis.append(
                LieWord(
                    word=w,
                    doubled=True,
                    g=2 * g,
                    d=2 * d + 1,
                    r=2 * r,
                    name=f"[{name},{name}]",
                    content=tuple(sorted(content + content)),
                )
            )
    basis.sort(key=lambda x: (x.g, x.d, x.name))
    return basis


def free_graded_lie_basis(gens, box: tuple[int, int]) -> list[LieWord]:
    """Basis of the free graded Lie algebra (bracket of bidegree (0,+1))
    restricted to the box, over a field of characteristic 0 or odd.

    Lyndon words plus [w, w] for odd-shifted-parity w; [x, [x, x]] is never a
    basis element.  Empty generator list gives the empty basis.
    """
    return _lyndon_basis(gens, box, doubles=True)


def lie_basis_char2(gens, box: tuple[int, int]) -> list[LieWord]:
    """Basic Lie words mod 2: Lyndon words only (self-brackets vanish)."""
    return _lyndon_basis(gens, box, doubles=False)


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


def free_series(letters, box: tuple[int, int], all_polynomial: bool) -> dict[tuple[int, int], int]:
    """Monomial counts per bidegree of the free graded-commutative algebra
    on ``letters`` (objects with g, d attributes, g >= 1), truncated to the
    box, unit included at (0, 0): polynomial on even d, exterior on odd d,
    unless all_polynomial (characteristic 2).

    Letters are grouped by (g, d, parity) cell.  The n letters of a cell
    contribute the factor sum_e c_e q^(e g) t^(e d), with c_e = C(n+e-1, e)
    for polynomial letters (monomials of degree e in n variables) and
    c_e = C(n, e) for exterior ones (e-element subsets), so the cost
    follows the number of cells, not of letters.
    """
    g_max, d_max = box
    if g_max < 0 or d_max < 0:
        return {}
    cells = Counter((x.g, x.d, not all_polynomial and x.d % 2 == 1) for x in letters)
    series = [[0] * (d_max + 1) for _ in range(g_max + 1)]
    series[0][0] = 1
    for (g, d, exterior), n in sorted(cells.items()):
        powers = []
        e = 1
        while e * g <= g_max and e * d <= d_max and (not exterior or e <= n):
            powers.append((e * g, e * d, comb(n, e) if exterior else comb(n + e - 1, e)))
            e += 1
        # multiply in place: every power raises the genus, so visiting the
        # genera downwards reads each old coefficient before it is added to
        for g0 in range(g_max - g, -1, -1):
            row = series[g0]
            for d0 in range(d_max - d + 1):
                c = row[d0]
                if c:
                    for eg, ed, k in powers:
                        if g0 + eg > g_max or d0 + ed > d_max:
                            break
                        series[g0 + eg][d0 + ed] += c * k
    return {(g, d): c for g, row in enumerate(series) for d, c in enumerate(row) if c}


def free_gerstenhaber_betti(gens, box: tuple[int, int]) -> HomologyTable:
    """Bigraded dimensions over Q of the free algebra-with-bracket on ``gens``:
    the free graded-commutative algebra on the free Lie basis.

    Non-unital convention: genus 0 carries nothing, so the empty monomial is
    not counted.  (``cdga.homology_table`` is unital instead: its tables have
    dimension 1 at (0,0) for zero differential.)
    """
    dims = free_series(free_graded_lie_basis(gens, box), box, False)
    dims.pop((0, 0), None)
    return HomologyTable(field_name="Q", box=box, dims=dims)


def betti_table_f2(gens, box: tuple[int, int]) -> HomologyTable:
    """Bigraded dimensions over F2: polynomial algebra on the xi-towers,
    non-unital like ``free_gerstenhaber_betti``."""
    dims = free_series(cohen_generators_f2(gens, box), box, True)
    dims.pop((0, 0), None)
    return HomologyTable(field_name="F2", box=box, dims=dims)


def betti_generating_function(letters, box: tuple[int, int], all_polynomial: bool):
    """Coefficient table of prod 1/(1 - q^g t^d) (polynomial letters) times
    prod (1 + q^g t^d) (exterior letters), truncated to the box.

    Independent of `free_series`: multiplies one explicit truncated power
    series per letter, each a geometric series or a binomial.
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
