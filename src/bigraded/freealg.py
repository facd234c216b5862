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
from raw bracket trees modulo antisymmetry and Jacobi.  Where only the
dimensions are read (Betti tables, the closed letters of the named
complexes), `letter_counts` gives them per (g, d) cell from Witt's formula,
naming no word, so its cost follows the box, not the alphabet.

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
from math import comb, gcd

from .errors import DomainError, InputError
from . import exactla
from .exactla import QQ, Matrix
from .grading import MAX_BOX_BOUND, HomologyTable, check_box


@dataclass(frozen=True, order=True)
class Letter:
    """A named bigraded letter: genus g >= 1, homological degree d >= 0 and
    filtration weight r >= 0.  Generators, basis words and xi-towers alike
    are letters of the free algebras built on them."""

    g: int
    d: int
    r: int
    name: str

    def __post_init__(self):
        if self.g < 1:
            raise DomainError(f"letter genus must be >= 1: {self.name}")
        if self.d < 0 or self.r < 0:
            raise DomainError(f"negative grading on letter {self.name}")


def letter_key(x: Letter) -> tuple[int, int, int, str]:
    """The canonical order of letters: by (g, d, r, name)."""
    return x.g, x.d, x.r, x.name


def gen(name: str, g: int, d: int, r: int | None = None) -> Letter:
    return Letter(g=g, d=d, r=d if r is None else r, name=name)


def read_letters(lines, what: str) -> list[Letter]:
    """The letters of ``(raw, line)`` pairs, each line ``name g d [r]`` with
    r defaulting to d; a line of another shape is an input error that
    quotes it as a bad ``what`` line."""
    out = []
    for raw, line in lines:
        name, *degrees = line.split()
        try:
            if len(degrees) not in (2, 3):
                raise ValueError
            degrees = [int(x) for x in degrees]
        except ValueError:
            raise InputError(f"bad {what} line: {raw!r}") from None
        out.append(gen(name, *degrees))
    return out


def generator_set(gens) -> list[Letter]:
    """Canonically ordered generator list; names must be unique."""
    gens = sorted(gens, key=letter_key)
    names = [x.name for x in gens]
    if len(set(names)) != len(names):
        raise InputError(f"duplicate generator names: {names}")
    return gens


@dataclass(frozen=True)
class LieWord(Letter):
    """A basis word: a bracketing of generators, in normal form.

    ``word`` is the underlying Lyndon word as a tuple of alphabet indices and
    ``doubled`` marks the self-bracket [b(word), b(word)].
    """

    word: tuple[int, ...]
    doubled: bool
    content: tuple[str, ...]  # sorted generator names, with multiplicity

    def __repr__(self):
        return f"LieWord({self.name}, g={self.g}, d={self.d})"


def _lyndon_words(gens: list[Letter], g_max: int, d_max: int):
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


def _lift(cell: tuple[int, int], box: tuple[int, int]) -> tuple[int, int] | None:
    """The cell (2g, 2d+1) of the double [w, w] or the tower xi(w) of a
    letter w at cell (g, d), or None when it leaves the box."""
    g, d = 2 * cell[0], 2 * cell[1] + 1
    return (g, d) if g <= box[0] and d <= box[1] else None


# largest basis `_lyndon_basis` names, counted first (as grading.MAX_BIDEGREES
# and taut.MAX_COPRODUCT_SLOTS bound theirs): a word costs time and memory for
# each letter, the count O((G+1)(D+2)) per generator cell.  395 433 words, at
# 28,28 on sigma, lambda, rho, took 10 s and 540 MB
MAX_LIE_WORDS = 200_000


def _lyndon_basis(gens, box: tuple[int, int], doubles: bool) -> list[LieWord]:
    """The Lyndon words in the box as basis words, plus the self-brackets
    [w, w] of the odd-shifted-parity ones if ``doubles``, once the box is
    checked and no more than MAX_LIE_WORDS words are counted in it."""
    g_max, d_max = check_box(box)
    gens = generator_set(gens)
    words = sum((letter_counts(gens, box, 0) if doubles else _lyndon_counts(gens, box)).values())
    if words > MAX_LIE_WORDS:
        raise InputError(f"the basis has {words} words; at most {MAX_LIE_WORDS} are listed")
    names = [x.name for x in gens]
    basis = []
    for w, g, d, r, name in _lyndon_words(gens, g_max, d_max):
        content = tuple(sorted(map(names.__getitem__, w)))
        basis.append(LieWord(word=w, doubled=False, g=g, d=d, r=r, name=name, content=content))
        # odd shifted parity: the self-bracket survives
        if doubles and d % 2 == 0 and (cell := _lift((g, d), box)):
            g2, d2 = cell
            basis.append(LieWord(word=w, doubled=True, g=g2, d=d2, r=2 * r, name=f"[{name},{name}]",
                                 content=tuple(sorted(content + content))))
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


def cohen_generators_f2(gens, box: tuple[int, int]) -> list[Letter]:
    """All xi-towers xi^k(y), k >= 0, over basic mod-2 Lie words, in the box."""
    out = []
    for y in lie_basis_char2(gens, box):
        cell, r, k, name = (y.g, y.d), y.r, 0, y.name
        while cell:
            out.append(Letter(g=cell[0], d=cell[1], r=r, name=name))
            cell, r, k = _lift(cell, box), 2 * r, k + 1
            name = f"xi({name})" if k == 1 else f"xi^{k}({y.name})"
    out.sort(key=lambda x: (x.g, x.d, x.name))
    return out


# ---------------------------------------------------------------------------
# letter counts and Betti tables


def _mobius(k: int) -> int:
    """The Moebius function, by trial division."""
    sign, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if k > 1 else sign


def _lyndon_counts(gens, box: tuple[int, int]) -> dict[tuple[int, int], int]:
    """The number of Lyndon words per (g, d) cell of the box, the cells of
    `lie_basis_char2`, computed without naming a word.

    With e = d + 1 the bracket adds (g, e), so the words over the generators
    have the series N = 1 / (1 - W), W counting generators per (g, e).
    Unique factorization into Lyndon words gives N = prod (1 - q^g t^e)^-l,
    l(g, e) Lyndon words at (g, e - 1); q d/dq log of both sides, inverted by
    Moebius, is Witt's formula (Reutenauer, Free Lie Algebras, 1993)

        G l(G, E) = sum over k | gcd(G, E) of mu(k) b(G/k, E/k),
        b(G, E) = sum over generator cells (g, e) of g w(g, e) N(G-g, E-e),

    an exact division, in O((G+1)(D+2)) per generator cell.  Letters reach
    one degree above a table's box, so a bound may be MAX_BOX_BOUND + 1."""
    g_max, d_max = check_box(box, MAX_BOX_BOUND + 1)
    e_max = d_max + 1
    w = Counter((x.g, x.d + 1) for x in generator_set(gens) if x.g <= g_max and x.d <= d_max)
    words = [[0] * (e_max + 1) for _ in range(g_max + 1)]
    b = [[0] * (e_max + 1) for _ in range(g_max + 1)]
    words[0][0] = 1
    # row g from the rows before it, one generator cell (a, c) at a time
    for g in range(1, g_max + 1):
        row_w, row_b = words[g], b[g]
        for (a, c), n in w.items():
            if a <= g:
                for e, v in enumerate(words[g - a][: e_max + 1 - c], c):
                    if v:
                        row_w[e] += n * v
                        row_b[e] += a * n * v
    mu = [0] + [_mobius(k) for k in range(1, min(g_max, e_max) + 1)]
    counts = {}
    for g in range(1, g_max + 1):
        for e, total in enumerate(b[g]):
            # b(g, e) = 0 means no word at (g, e), so no Lyndon word either
            if total:
                top = gcd(g, e)
                n = sum(mu[k] * b[g // k][e // k] for k in range(1, top + 1) if top % k == 0) // g
                if n:
                    counts[(g, e - 1)] = n
    return counts


def letter_counts(gens, box: tuple[int, int], char: int) -> dict[tuple[int, int], int]:
    """The number of letters per (g, d) cell of the box that
    `free_graded_lie_basis` (char != 2) or `cohen_generators_f2` (char 2)
    enumerates, computed without naming a word: the Lyndon words of
    `_lyndon_counts`, and for each at (g, d) its double [w, w] at
    (2g, 2d+1) when d is even (char != 2), or its xi-tower
    (g, d) -> (2g, 2d+1) while that stays in the box (char 2)."""
    counts = Counter(_lyndon_counts(gens, box))
    for cell, n in list(counts.items()):
        if char == 2 or cell[1] % 2 == 0:
            while cell := _lift(cell, box):
                counts[cell] += n
                if char != 2:
                    break
    return dict(counts)


def free_series(cells, box: tuple[int, int], all_polynomial: bool, tables=()) -> dict[tuple[int, int], int]:
    """Monomial counts per bidegree of the free graded-commutative algebra
    on ``cells[(g, d)]`` letters at each (g, d) with g >= 1 (polynomial on
    even d, exterior on odd d, unless all_polynomial: characteristic 2),
    times the ``tables``, truncated to the box, unit included at (0, 0).

    The n letters of a cell contribute the factor sum_e c_e q^(e g) t^(e d),
    with c_e = C(n+e-1, e) for polynomial letters (monomials of degree e in
    n variables) and c_e = C(n, e) for exterior ones (e-element subsets), so
    the cost follows the number of cells, not of letters.

    One loop multiplies the series in place by each cell, then each table.
    Every term but a factor's unit has genus >= 1 (a table must be 1 at
    (0, 0) and 0 elsewhere at genus 0, as a factor's homology is, or it is a
    `DomainError`), so visiting the genera downwards reads each coefficient
    before anything is added to it.
    """
    g_max, d_max = box
    series = [[0] * (d_max + 1) for _ in range(g_max + 1)]
    series[0][0] = 1
    factors = []
    for (g, d), n in sorted(cells.items()):
        exterior = not all_polynomial and d % 2 == 1
        powers = []
        e = 1
        while e * g <= g_max and e * d <= d_max and (not exterior or e <= n):
            powers.append((e * g, e * d, comb(n, e) if exterior else comb(n + e - 1, e)))
            e += 1
        factors.append(powers)
    for table in tables:
        if {gd: k for gd, k in table.items() if not gd[0]} != {(0, 0): 1}:
            raise DomainError("a factor table must hold 1 at (0,0) and nothing else at genus 0")
        factors.append(sorted((g, d, k) for (g, d), k in table.items() if g))
    for terms in filter(None, factors):
        d_least = min([d for _, d, _ in terms])
        for g0 in range(g_max - terms[0][0], -1, -1):
            row, g_room = series[g0], g_max - g0
            for d0 in range(d_max - d_least + 1):
                if c := row[d0]:
                    for eg, ed, k in terms:  # by genus: break on it, skip on degree
                        if eg > g_room:
                            break
                        if d0 + ed <= d_max:
                            series[g0 + eg][d0 + ed] += c * k
    return {(g, d): c for g, row in enumerate(series) for d, c in enumerate(row) if c}


def free_gerstenhaber_betti(gens, box: tuple[int, int]) -> HomologyTable:
    """Bigraded dimensions over Q of the free algebra-with-bracket on ``gens``:
    the free graded-commutative algebra on the free Lie basis.

    Non-unital convention: genus 0 carries nothing, so the empty monomial is
    not counted.  (``cdga.homology_table`` is unital instead: its tables have
    dimension 1 at (0,0) for zero differential.)
    """
    dims = free_series(letter_counts(gens, check_box(box), 0), box, False)
    dims.pop((0, 0), None)
    return HomologyTable(field_name="Q", box=box, dims=dims)


def betti_table_f2(gens, box: tuple[int, int]) -> HomologyTable:
    """Bigraded dimensions over F2: polynomial algebra on the xi-towers,
    non-unital like ``free_gerstenhaber_betti``."""
    dims = free_series(letter_counts(gens, check_box(box), 2), box, True)
    dims.pop((0, 0), None)
    return HomologyTable(field_name="F2", box=box, dims=dims)


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
