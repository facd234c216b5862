"""Free graded-commutative differential algebras in bidegree boxes.

A CDGA here is: a finite ordered alphabet of bigraded letters (each letter a
named generator, possibly a bracket word like ``[sigma,sigma]`` or a tower
``xi(sigma)`` produced by `freealg`), a coefficient field, and a differential
given on letters by polynomial expressions, extended multiplicatively by the
graded Leibniz rule

    delta(m * n) = delta(m) * n + (-1)^d(m) m * delta(n).

A monomial is sparse: a tuple of ``(letter_index, exponent)`` pairs with
increasing index and no zero exponent, ``()`` being the unit, so every
monomial operation costs the size of its support, not of the alphabet.
Monomials use the Koszul sign convention in the homological degree d; the
filtration weight r is carried along but carries no signs.  In characteristic
2 every letter is polynomial; otherwise odd-d letters are exterior.

Bases are enumerated one box at a time: one depth-first pass over the letters
fills the basis of every cell of the box, which the complex keeps, and
`matrix_homology_table` asks for its top cell first, to enumerate it once.

Homology is computed factor by factor.  A CDGA first goes through two
changes of variables, each an automorphism of the free algebra that replaces
one letter occurring in no other differential (`_change_variables`):
(a) if d(x) = c*y + p, with y a closed letter, c != 0 and p != 0, then
y' = c*y + p is closed and d(x) = y', a Koszul pair; (b) if d(x) = d(p) for
a decomposable p of x's bidegree, found by one linear solve, then x' = x - p
is closed.  A coefficient that is zero in the field is no term and blocks
its rule (10 at ell = 5, -3 at ell = 3 in A-algebra-fl).  The new
differential goes through `set_differential`, the substitution is checked to
commute with both differentials, and the split records it.  Over F_ell a Koszul pair is not contractible, so each move
is checked on its own, not taken from the theorem that splits contractible
parts off a Sullivan algebra.  Union-find then links each letter with the
letters of its differential (and a module's generators with the letters of
the module differential); the components that carry a differential span
sub-complexes that the differential maps into themselves, and every other
letter is closed.  So the complex is the tensor product of those factors and
the free algebra on the closed letters, a `KunnethSplit`, and over a field
Kunneth gives its homology as the product of the factors' homologies and
the closed letters' free series, which needs only their counts per (g, d)
cell.  A factor's homology is `exactla.chain_homology`, one genus at a
time, on the ranks of its differential matrices.  The named complexes are
built as that split directly: only the few letters their differential needs
are named, and the closed rest of their free Lie alphabet is counted by
`freealg.letter_counts`, never enumerated.  A named complex is spelled
``NAME`` or ``NAME(ELL)``, and `_preset` alone reads the spelling and checks
its prime; any box that `grading.check_box` takes runs, and its table is the
truncation of the table of every larger box.  Letters whose differential is not
explicitly given are closed: the named complexes this reproduces arise as
associated graded of a computational filtration in which exactly the listed
differentials survive, so assigning zero differential to the deeper letters
is the object those vanishing claims constrain, not an approximation of it.

A `DGModule`, a free module over a CDGA with basis elements (monomial,
generator), has its own `delta_mono` and shares the algebra's `delta_poly`
and `differential_matrix`; `_add_into` makes every sum of that one layer.

delta^2 = 0 and homogeneity are checked symbolically on every letter by
`CDGA.set_differential`, the one way a differential is set, and on every
module generator when a `DGModule` is built, by applying `delta_poly` to
its differential.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from . import exactla, freealg
from .exactla import GF, QQ, Matrix
from .freealg import Letter  # noqa: F401  (re-exported as cdga.Letter)
from .grading import HomologyTable, VanishingLine, check_box
from .parsing import content_lines, parse_terms


def _add_into(field, out, key, c):
    """Add c to out[key], made canonical by the field's ``of``, dropping
    the key when the sum is zero."""
    s = out.get(key)
    s = field.of(c if s is None else s + c)
    if s:
        out[key] = s
    else:
        out.pop(key, None)


class CDGA:
    """Finitely generated free graded-commutative algebra with differential.

    ``letters`` are `freealg.Letter` objects (generators, basis words or
    towers), kept as given in the order of `freealg.letter_key`."""

    def __init__(self, fld, letters, differential=None):
        self.field = fld
        self.letters = sorted(letters, key=freealg.letter_key)
        names = [x.name for x in self.letters]
        if len(set(names)) != len(names):
            raise InputError("duplicate letter names")
        self.index = {x.name: i for i, x in enumerate(self.letters)}
        self.n = len(self.letters)
        # per-letter tables, so no monomial operation rebuilds them
        self._names = names
        self._g = [x.g for x in self.letters]
        self._d = [x.d for x in self.letters]
        self._exterior = [fld.char != 2 and d % 2 == 1 for d in self._d]
        # letters are sorted by (g, d): those of genus k sit at
        # [_g_start[k], _g_start[k + 1]), in increasing d
        top = self._g[-1] if self.letters else 0
        self._g_start = [bisect_left(self._g, k) for k in range(top + 2)]
        # the bases of every cell of the box enumerated so far, [g][d]
        self._box, self._cells = (-1, -1), []
        self.diff = {}
        self.set_differential(differential or {})

    def set_differential(self, differential):
        """Make ``differential``, a ``{letter name: polynomial}`` map whose
        monomials are sparse or dense exponent vectors, the differential
        of every letter: unlisted letters are closed and zero terms are
        dropped.  Coefficients are stored as the field's ``of`` makes them.
        Raises InputError on an unknown letter, a term that is not of
        bidegree (0, -1) from its letter, or a letter with delta^2 != 0, and
        then keeps the differential it had."""
        of = self.field.of
        diff = {}
        for name, poly in differential.items():
            if name not in self.index:
                raise InputError(f"differential on unknown letter {name}")
            poly = {self._sparse(m): c for m, x in poly.items() if (c := of(x))}
            x = self.letters[self.index[name]]
            for m in poly:
                g, d = self.mono_bidegree(m)
                if (g, d) != (x.g, x.d - 1):
                    raise InputError(
                        f"differential of {name} is not homogeneous of bidegree "
                        f"(0,-1): term {self.mono_name(m)} at {(g, d)}"
                    )
            if poly:
                diff[name] = poly
        previous, self.diff = self.diff, diff
        try:
            for name in diff:
                if self.delta_poly(self.delta_mono(((self.index[name], 1),))):
                    raise InputError(f"delta^2 != 0 on letter {name}")
        except InputError:
            self.diff = previous
            raise

    def _sparse(self, mono):
        """A monomial given either sparse or as a dense exponent vector of
        length n, in sparse form."""
        if not mono or isinstance(mono[0], tuple):
            return mono
        if len(mono) != self.n:
            raise InputError(f"exponent vector {mono} does not have {self.n} entries")
        return tuple((i, e) for i, e in enumerate(mono) if e)

    # -- polynomial layer ---------------------------------------------------

    def mono_bidegree(self, mono) -> tuple[int, int]:
        gs, ds = self._g, self._d
        return sum(gs[i] * e for i, e in mono), sum(ds[i] * e for i, e in mono)

    def mono_name(self, mono) -> str:
        names = self._names
        parts = [names[i] if e == 1 else f"{names[i]}^{e}" for i, e in mono]
        return "*".join(parts) if parts else "1"

    def mono_of(self, exps: dict[str, int]):
        for name in exps:
            if name not in self.index:
                raise InputError(f"unknown letter {name}")
        return tuple(sorted((self.index[name], e) for name, e in exps.items() if e))

    def mono_mul(self, m1, m2):
        """Product of monomials with Koszul sign; None if an odd square dies.

        The supports are merged; each odd factor of m2 moves past the odd
        factors of m1 at larger indices."""
        odd = self._exterior  # all False in characteristic 2
        odd_after = 0  # odd factors of m1[a:]
        for i, e in m1:
            if odd[i]:
                if e > 1:
                    return None
                odd_after += 1
        out = []
        sign = 0
        a, n1 = 0, len(m1)
        for j, e in m2:
            while a < n1 and m1[a][0] < j:
                odd_after -= odd[m1[a][0]]
                out.append(m1[a])
                a += 1
            if a < n1 and m1[a][0] == j:
                if odd[j]:
                    return None
                out.append((j, m1[a][1] + e))
                a += 1
            else:
                if odd[j]:
                    if e > 1:
                        return None
                    sign += odd_after
                out.append((j, e))
        out.extend(m1[a:])
        return (-1 if sign % 2 else 1), tuple(out)

    def poly_mul(self, p, q):
        """The product of two polynomials, with Koszul signs."""
        f = self.field
        out = {}
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                sm = self.mono_mul(m1, m2)
                if sm is not None:
                    _add_into(f, out, sm[1], -c1 * c2 if sm[0] < 0 else c1 * c2)
        return out

    def substitute(self, poly, images):
        """The image of poly under the algebra map that sends each letter
        index i of ``images`` to the polynomial images[i] and fixes every
        other letter: each monomial is multiplied out letter by letter, in
        its own order, so the Koszul signs are those of the product."""
        f = self.field
        out = {}
        for m, c in poly.items():
            if not any(i in images for i, _ in m):
                _add_into(f, out, m, c)
                continue
            term = {(): c}
            for i, e in m:
                factor = images.get(i, {((i, 1),): 1})
                for _ in range(e):
                    term = self.poly_mul(term, factor)
            for m2, c2 in term.items():
                _add_into(f, out, m2, c2)
        return out

    # -- differential -------------------------------------------------------

    def delta_mono(self, mono):
        """delta of a monomial, by the graded Leibniz rule."""
        f = self.field
        odd_char = f.char != 2
        ds, names, diff = self._d, self._names, self.diff
        out = {}
        deg_total = sum(ds[i] * e for i, e in mono)
        # total homological degree of the letters left of position pos
        deg_prefix = 0
        for pos, (i, a) in enumerate(mono):
            dpoly = diff.get(names[i])
            deg_here = ds[i] * a
            if dpoly is None:
                deg_prefix += deg_here
                continue
            coeff = f.of(-a if odd_char and deg_prefix % 2 == 1 else a)
            deg_tail = deg_total - deg_prefix - deg_here
            deg_prefix += deg_here
            if not coeff:
                continue
            lower = ((i, a - 1),) if a > 1 else ()
            m_rest = mono[:pos] + lower + mono[pos + 1 :]
            for n_mono, n_coeff in dpoly.items():
                c = coeff * n_coeff
                if odd_char and deg_tail % 2 == 1:
                    if sum(ds[j] * e for j, e in n_mono) % 2 == 1:
                        c = -c
                sm = self.mono_mul(m_rest, n_mono)
                if sm is None:
                    continue
                sign, m = sm
                _add_into(f, out, m, -c if sign < 0 else c)
        return out

    def delta_poly(self, p):
        """delta of a polynomial in the basis of `monomial_basis`."""
        out = {}
        for key, c in p.items():
            for key2, c2 in self.delta_mono(key).items():
                _add_into(self.field, out, key2, c * c2)
        return out

    # -- bases and matrices ---------------------------------------------------

    def monomial_basis(self, bd: tuple[int, int]):
        """All monomials of bidegree bd, deterministically ordered.

        A miss outside the box enumerated so far enumerates, in one pass,
        the smallest box holding both and keeps the basis of each of its
        cells, so asking for the top cell of a box first enumerates it
        once."""
        g, d = bd
        if g < 0 or d < 0:
            return []
        g_box, d_box = self._box
        if g > g_box or d > d_box:
            self._box = (max(g, g_box), max(d, d_box))
            self._cells = self._enumerate_box(*self._box)
        return self._cells[g][d]

    def _enumerate_box(self, g_t: int, d_t: int) -> list[list[list]]:
        """The bases of every bidegree (g, d) with g <= g_t and d <= d_t, as
        cells[g][d], each in decreasing order of dense exponent vectors.

        Depth-first with an explicit stack, in which every node is a
        monomial, filed into its cell, and its children multiply it by a
        power of a later letter that fits the rest of the box.  Children
        are visited by increasing letter index and decreasing exponent,
        which is that order, so no basis is sorted.  Letters are sorted by
        genus, so a branch stops at the first letter whose genus no longer
        fits, and within a genus by degree, which a bisection cuts."""
        cells = [[[] for _ in range(d_t + 1)] for _ in range(g_t + 1)]
        gs, ds, starts, exterior = self._g, self._d, self._g_start, self._exterior
        top, n = len(starts) - 2, self.n  # top: the largest letter genus
        # a frame is (first usable index, genus, degree, monomial)
        stack = [(0, 0, 0, ())]
        while stack:
            start, g, d, mono = stack.pop()
            cells[g][d].append(mono)
            if start == n:
                continue
            g_left, d_left = g_t - g, d_t - d
            # the children are pushed last first, so they pop in order
            for k in range(min(g_left, top), gs[start] - 1, -1):
                lo = max(start, starts[k])
                for i in range(bisect_right(ds, d_left, lo, starts[k + 1]) - 1, lo - 1, -1):
                    max_e = 1 if exterior[i] else g_left // k
                    if ds[i]:
                        max_e = min(max_e, d_left // ds[i])
                    for e in range(1, max_e + 1):
                        stack.append((i + 1, g + e * k, d + e * ds[i], mono + ((i, e),)))
        return cells

    def differential_matrix(self, bd: tuple[int, int]) -> Matrix:
        """Matrix of delta from bidegree bd to (g, d-1) in `monomial_basis`."""
        g, d = bd
        cols = self.monomial_basis((g, d))
        rows = self.monomial_basis((g, d - 1)) if d >= 1 else []
        row_index = {key: i for i, key in enumerate(rows)}
        entries = [[] for _ in rows]
        for j, key in enumerate(cols):
            for key2, c in self.delta_mono(key).items():
                entries[row_index[key2]].append((j, c))
        return Matrix(self.field, len(rows), len(cols), entries)

    def _push(self, new, poly):
        """poly in the letters of ``new``, a quotient of self; monomials on
        a letter that ``new`` lacks are dropped."""
        index, names = new.index, self._names
        out = {}
        for m, c in poly.items():
            pairs = tuple((index.get(names[i]), e) for i, e in m)
            if all(j is not None for j, _ in pairs):
                out[pairs] = c
        return out

    def quotient(self, names) -> "CDGA":
        """Delete the named letters and erase differential terms divisible by
        them.  This realizes the free-on-quotient description Lambda(L/<...>),
        not a general ideal quotient."""
        names = set(names)
        for nm in names:
            if nm not in self.index:
                raise InputError(f"cannot quotient by unknown letter {nm}")
        new = CDGA(self.field, [x for x in self.letters if x.name not in names])
        new.set_differential(
            {nm: self._push(new, poly) for nm, poly in self.diff.items() if nm not in names}
        )
        return new


class DGModule:
    """A free module over a CDGA on finitely many bigraded module generators,
    with a differential valued in base tensor module."""

    def __init__(self, base: CDGA, module_gens, mdiff=None):
        self.base = base
        self.field = base.field
        self.module_gens = sorted(module_gens, key=lambda t: (t[1], t[2], t[0]))
        # module_gens: list of (name, g, d, r) with g, d >= 0
        self.mg_index = {t[0]: i for i, t in enumerate(self.module_gens)}
        if len(self.mg_index) != len(self.module_gens):
            raise InputError("duplicate module generator names")
        self.mdiff = {}
        self._cells: dict[tuple[int, int], list] = {}
        for name, terms in (mdiff or {}).items():
            if name not in self.mg_index:
                raise InputError(f"module differential on unknown generator {name}")
            self.mdiff[name] = [(dict(p), e) for p, e in terms]
        self._check()

    def _gen(self, name):
        return self.module_gens[self.mg_index[name]]

    def _check(self):
        for name, terms in self.mdiff.items():
            _, g0, d0, _ = self._gen(name)
            for p, e in terms:
                if e not in self.mg_index:
                    raise InputError(f"module differential hits unknown generator {e}")
                _, ge, de, _ = self._gen(e)
                for m in p:
                    g, d = self.base.mono_bidegree(m)
                    if (g + ge, d + de) != (g0, d0 - 1):
                        raise InputError(f"module differential of {name} not homogeneous")
            if self.delta_poly(self.delta_mono(((), name))):
                raise InputError(f"delta^2 != 0 on module generator {name}")

    def monomial_basis(self, bd: tuple[int, int]):
        """Pairs (monomial, generator): generators in decreasing order, each
        with its base basis in the base's order.  Each cell's list is built
        once, asking the base first for the cell of the lowest generator,
        the largest, so a top cell asked first enumerates the base once."""
        out = self._cells.get(bd)
        if out is None:
            g, d = bd
            parts = [(name, self.base.monomial_basis((g - ge, d - de))) for name, ge, de, _ in self.module_gens]
            out = self._cells[bd] = [(m, name) for name, monos in reversed(parts) for m in monos]
        return out

    def delta_mono(self, key):
        """delta(m tensor e) = delta(m) e + (-1)^d(m) m * delta(e), for the
        basis element ``key`` = (m, e)."""
        m, e = key
        base, f = self.base, self.field
        out = {(m2, e): c for m2, c in base.delta_mono(m).items()}
        odd = f.char != 2 and base.mono_bidegree(m)[1] % 2 == 1
        for p, e2 in self.mdiff.get(e, ()):
            for n, c in p.items():
                sm = base.mono_mul(m, n)
                if sm is None:
                    continue
                sign, mn = sm
                _add_into(f, out, (mn, e2), -c if (sign < 0) != odd else c)
        return out

    delta_poly = CDGA.delta_poly
    differential_matrix = CDGA.differential_matrix


# ---------------------------------------------------------------------------
# homology tables and vanishing certificates


def matrix_homology_table(cx, box: tuple[int, int]) -> HomologyTable:
    """Homology per bidegree from the differential matrices of the whole
    complex, one genus at a time by `exactla.chain_homology`, whose field
    backend takes `exactla.rank` and clears no rows.  The incoming
    differential at the top row is taken from bidegree (g, d+1) even when
    that falls outside the box, so no edge cell is overcounted (the named
    complexes of `build_paper_complex` take their letters one degree above
    the box for exactly this reason)."""
    g_max, d_max = box
    dims = {}
    cx.monomial_basis((g_max, d_max + 1))  # the top cell first: one enumeration
    for g in range(g_max + 1):
        sizes = [len(cx.monomial_basis((g, d))) for d in range(d_max + 2)]
        if any(sizes):  # an empty genus has no homology: skip the call
            rank = lambda d, _: (exactla.rank(cx.differential_matrix((g, d))), (), ())  # noqa: E731
            for d, h in exactla.chain_homology(sizes, rank)[0].items():
                dims[(g, d)] = h
    return HomologyTable(field_name=cx.field.name, box=box, dims=dims)


@dataclass
class KunnethSplit:
    """A complex as the tensor product of the factors that carry its whole
    differential and the free algebra on its closed letters, which are only
    counted, per (g, d) cell: the form `homology_table` reads.
    `_kunneth_split` makes it from a complex, `build_paper_complex` from a
    preset's named letters and the letter counts of its alphabet.  The
    ``substitutions`` are the changes of variables made before the split
    (`_change_variables`), and the factors are written in the new letters:
    each is a triple (rule, letter, image), rule "a" or "b", which says that
    the letter named ``letter`` stands for ``image``, a polynomial in the
    letters of the complex as given, keyed by monomials written as
    ``(name, exponent)`` pairs."""

    field: object
    factors: list  # CDGAs, or one DGModule
    closed: dict[tuple[int, int], int]
    substitutions: tuple

    def monomial_basis(self, bd: tuple[int, int]) -> list[tuple]:
        """The basis at bd of the factors' tensor product, each element a
        tuple of one basis element per factor.  The closed letters are not
        in it: they have counts, not names."""
        g, d = bd
        for factor in self.factors[:-1]:
            factor.monomial_basis(bd)  # the top cell first: one enumeration per factor
        partial = {(0, 0): [()]}  # products over the factors so far, by bidegree
        for k, factor in enumerate(self.factors):
            grown: dict[tuple[int, int], list] = {}
            for (g0, d0), heads in partial.items():
                # the last factor takes the rest of bd, the others any part of it
                if k == len(self.factors) - 1:
                    cells = [(g - g0, d - d0)]
                else:
                    cells = [(g1, d1) for g1 in range(g - g0 + 1) for d1 in range(d - d0 + 1)]
                for g1, d1 in cells:
                    tails = factor.monomial_basis((g1, d1))
                    if tails:
                        cell = grown.setdefault((g0 + g1, d0 + d1), [])
                        cell += [head + (m,) for head in heads for m in tails]
            partial = grown
        return partial.get(bd, [])


def _roots(n: int, links, hub=None) -> list[int]:
    """The union-find root of each node 0..n-1 once every ``(i, poly)`` of
    ``links`` has joined node i with the letters of poly, and with node
    ``hub`` if one is given."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, poly in links:
        for m in poly:
            for j, _ in m:
                parent[find(j)] = find(i)
        if hub is not None:
            parent[find(i)] = find(hub)
    return [find(i) for i in range(n)]


def _closing_term(cx: CDGA, name: str, keep) -> dict | None:
    """A decomposable p of the bidegree of the letter ``name`` with
    d(p) = d(name), or None if there is none: one linear solve over the
    decomposable monomials on the letters named in ``keep``, which hold the
    letter's component.  A component and the rest of the letters are
    sub-complexes, so if any p exists, its part on the component is one."""
    sub = cx.quotient([x.name for x in cx.letters if x.name not in keep])
    x = sub.letters[sub.index[name]]
    cols = [m for m in sub.monomial_basis((x.g, x.d)) if len(m) > 1 or m[0][1] > 1]
    rows = {m: k for k, m in enumerate(sub.monomial_basis((x.g, x.d - 1)))}
    entries = [[] for _ in rows]
    for j, image in enumerate([sub.delta_mono(m) for m in cols] + [sub.diff[name]]):
        for m, c in image.items():
            entries[rows[m]].append((j, c))
    echelon, pivots = exactla.rref(Matrix(sub.field, len(rows), len(cols) + 1, entries))
    if len(cols) in pivots:
        return None  # d(name) is not the boundary of a decomposable
    p = {cols[pc]: row[-1][1] for row, pc in zip(echelon, pivots) if row[-1][0] == len(cols)}
    return sub._push(cx, p)


def _change_variables(cx: CDGA, letter_box: tuple[int, int]):
    """cx after the changes of variables of rules (b) and (a), and their
    substitutions as `KunnethSplit` records them: a complex on the same
    letters whose differential links fewer of them, or cx itself when no
    rule applies.

    A rule replaces one letter by itself (times a unit) plus terms without
    it, an automorphism phi of the free algebra, and the new differential
    is d' = phi^-1 d phi.  The replaced letter must occur in no other
    differential, so every other differential stays as it is (no named
    complex needs more):
    (a) if d(x) = c*y + p, with y a closed letter and p != 0, then
        y' = c*y + p is closed and d'(x) = y': x and y' are a Koszul pair;
    (b) if d(x) = d(p) for a decomposable p of x's bidegree, found by one
        linear solve over the decomposable monomials of x's component
        (`_closing_term`), then x' = x - p is closed.
    Rule (b) is tried first, on the letters of ``letter_box`` (where its
    solve costs no more than a matrix the table builds anyway) whose
    differential has no linear term; then rule (a) on every letter.  A
    letter that rule (b) closes occurs in no differential, so each image is
    written in the letters of cx, and solving before rule (a) loses no
    solution: rule (a) is an isomorphism that fixes x's differential.  A
    coefficient that is zero in the field drops its term from the
    differential, and so blocks its rule (10 at ell = 5 and -3 at ell = 3
    in A-algebra-fl); every other one is a unit.

    Over F_ell a Koszul pair is not contractible, so no theorem about
    contractible parts is used: the new differential goes through
    `set_differential`, and phi d' = d phi is checked on every letter that
    has a differential or is replaced; with phi an automorphism, this makes
    cx and its result isomorphic complexes."""
    names = cx._names
    diff = {cx.index[name]: poly for name, poly in cx.diff.items()}

    def linear(m):
        return len(m) == 1 and m[0][1] == 1

    def occurrences():
        return Counter(i for poly in diff.values() for m in poly for i, _ in m)

    occurs = occurrences()
    g_max, d_max = letter_box
    roots = None
    images = {}
    for x, poly in diff.items():
        if occurs[x] or cx._g[x] > g_max or cx._d[x] > d_max or any(map(linear, poly)):
            continue
        if roots is None:  # the components of cx, before any rule
            roots = _roots(cx.n, diff.items())
        p = _closing_term(cx, names[x], {names[i] for i, r in enumerate(roots) if r == roots[x]})
        if p is not None:
            images[x] = {((x, 1),): 1, **{m: -c for m, c in p.items()}}
            diff[x] = {}
    occurs = occurrences()
    for x, poly in diff.items():
        ys = [m[0][0] for m in poly if linear(m) and m[0][0] not in diff and occurs[m[0][0]] == 1]
        if ys and len(poly) > 1:
            images[ys[0]] = poly
            diff[x] = {((ys[0], 1),): 1}
    if not images:
        return cx, ()
    out = CDGA(cx.field, cx.letters)
    out.set_differential({names[i]: poly for i, poly in diff.items()})
    for z in sorted(set(diff) | set(images)):
        image = images.get(z, {((z, 1),): 1})
        if cx.substitute(out.diff.get(names[z], {}), images) != cx.delta_poly(image):
            raise RuntimeError(f"change of variables does not commute with d on {names[z]}")
    return out, tuple(
        # rule (a) replaces a closed letter, rule (b) one with a differential
        ("b" if i in diff else "a", names[i],
         {tuple((names[j], e) for j, e in m): c for m, c in images[i].items()})
        for i in sorted(images)
    )


def _kunneth_split(cx, letter_box: tuple[int, int]) -> KunnethSplit:
    """The `KunnethSplit` of cx: the factors that carry a differential,
    and the cell counts of its closed letters.

    A CDGA first goes through `_change_variables`, whose rules (a) and (b)
    close letters and cut links, and the split records their substitutions;
    ``letter_box`` bounds the letters that rule (b) tries.  A module goes
    through no rule, as its generators join every letter with a
    differential anyway.  Union-find then links every letter with the letters of its differential
    and, for a module, the module generators with the letters of the module
    differential and with every other letter that has a differential.  Each
    component holding a differential becomes a complex on its own letters:
    a sub-CDGA, or for a module the one sub-module over all of them.  The
    other letters are closed."""
    module = isinstance(cx, DGModule)
    base, subs = (cx.base, ()) if module else _change_variables(cx, letter_box)
    n = base.n  # node n stands for the module generators
    links = [(base.index[name], poly) for name, poly in base.diff.items()]
    if module:
        links += [(n, p) for terms in cx.mdiff.values() for p, _ in terms]
    roots = _roots(n + 1, links, n if module else None)
    active = {roots[n]} if module else {roots[i] for i, _ in links}
    roots = roots[:n]
    factors = []
    for root in sorted(active):
        sub = base.quotient([x.name for x, r in zip(base.letters, roots) if r != root])
        if module:
            mdiff = {nm: [(base._push(sub, p), e) for p, e in terms] for nm, terms in cx.mdiff.items()}
            sub = DGModule(sub, cx.module_gens, mdiff)
        factors.append(sub)
    closed = Counter((x.g, x.d) for x, r in zip(base.letters, roots) if r not in active)
    return KunnethSplit(base.field, factors, dict(closed), subs)


def _as_split(cx, box: tuple[int, int]) -> KunnethSplit:
    """cx if it is a `KunnethSplit`, else its split for the table of ``box``."""
    return cx if isinstance(cx, KunnethSplit) else _kunneth_split(cx, (box[0], box[1] + 1))


def homology_table(cx, box: tuple[int, int]) -> HomologyTable:
    """Bigraded homology dimensions in the box of cx, a complex or its
    `KunnethSplit`, factor by factor.

    A complex is split first (`_kunneth_split`) into the factors that carry
    every differential and closed letters C.  The differential maps each
    factor's algebra into itself, so cx = A_1 * ... * A_k * Lambda(C) as
    complexes (a module factor M_A in place of the A_i), and over a field
    the Kunneth theorem gives H(cx) = H(A_1) * ... * H(A_k) * Lambda(C) as
    bigraded spaces.  Every letter has g >= 1 and d >= 0, so truncating to
    the box commutes with the product: the table is the truncated product
    of the factors' tables (`matrix_homology_table`, same box) with the
    free series of C's cell counts (`freealg.free_series`), which is the
    unit alone when C is empty.  Tables are unital: the unit counts at
    (0, 0).  The box is checked first (`grading.check_box`)."""
    g_max, d_max = check_box(box)
    split = _as_split(cx, box)
    series = freealg.free_series(split.closed, box, split.field.char == 2)
    for factor in split.factors:
        table = matrix_homology_table(factor, box).dims
        product: dict[tuple[int, int], int] = {}
        for (g1, d1), a in series.items():
            for (g2, d2), b in table.items():
                if g1 + g2 <= g_max and d1 + d2 <= d_max:
                    key = (g1 + g2, d1 + d2)
                    product[key] = product.get(key, 0) + a * b
        series = product
    dims = {gd: h for gd, h in sorted(series.items()) if h}
    return HomologyTable(field_name=split.field.name, box=box, dims=dims)


@dataclass
class VanishingReport:
    """A vanishing check and its parts: the complex's ``split``, the
    ``table`` of its homology in the box, and the (g, d, dim) of the
    table's first cell strictly below the ``line``, or None."""

    line: VanishingLine
    split: KunnethSplit
    table: HomologyTable
    violation: tuple[int, int, int] | None

    @property
    def certified(self) -> bool:
        return self.violation is None


def verify_vanishing(cx, line, box: tuple[int, int]) -> VanishingReport:
    """Certify that the homology of cx, a complex or its `KunnethSplit`,
    vanishes at every in-box bidegree strictly below the line; otherwise
    report the first violating bidegree.  The box is checked first."""
    if isinstance(line, Fraction):
        line = VanishingLine(lam=line)
    split = _as_split(cx, check_box(box))
    table = homology_table(split, box)
    violation = next(((g, d, h) for (g, d), h in table.sorted_items() if line.strictly_below((g, d))), None)
    return VanishingReport(line, split, table, violation)


# ---------------------------------------------------------------------------
# the named complexes


@dataclass(frozen=True)
class _Preset:
    """A named complex as data, free of any box: its field, its generators,
    its named letters (the generators, then the brackets or towers its
    differential needs), the differential on named letters as
    ``(coefficient, {letter: exponent})`` terms, the letters divided out,
    whether it is the module (1, rho4), d(rho4) = rho3, over the quotient,
    and the line its vanishing check takes by default."""

    field: object
    gens: list
    named: list
    diff: dict
    quotient: tuple
    module: bool
    line: VanishingLine


# the paper's slope 3/4: the line of every preset but vanishB (4/5) and of any
# other complex; A-algebra-fl has no paper line, and sigma at (1,0) is below it
DEFAULT_LINE = VanishingLine(Fraction(3, 4))


def default_line(preset: str | None = None, ell: int | None = None) -> VanishingLine:
    """The line a vanishing check of the named complex (see `_preset`)
    takes when none is given, or DEFAULT_LINE for any other complex."""
    return DEFAULT_LINE if preset is None else _preset(preset, ell).line


def _preset(preset: str, ell: int | None = None) -> _Preset:
    """The data of the named complex spelled ``NAME`` or ``NAME(ELL)``, with
    the prime ``ell`` if given (see `build_paper_complex`).  A bad spelling
    or prime, two different primes, a prime where none is taken and a
    missing one are input errors."""
    name, paren, rest = preset.partition("(")
    if paren:
        digits, close, tail = rest.partition(")")
        if not close or tail:
            raise InputError(f"bad preset {preset!r}; expected NAME or NAME(ELL)")
        try:
            if not digits.isdecimal():
                raise ValueError(digits)
            prime = int(digits)
        except ValueError as exc:  # also a prime too long for int()
            raise InputError(f"bad prime in preset {preset!r}") from exc
        if ell is not None and ell != prime:
            raise InputError(f"preset {preset!r} and ell {ell} name different primes")
        ell = prime
    if ell is not None and name in ("vanishA", "vanishB", "intstab-f2"):
        raise InputError(f"preset {name} takes no prime")
    gen = freealg.gen
    if name in ("vanishA", "vanishB"):
        gens = [gen("sigma", 1, 0), gen("lambda", 3, 2), gen("rho", 2, 2)]
        kills = {"rho": gen("[sigma,sigma]", 2, 1, 0)}
        if name == "vanishB":
            gens.append(gen("rho'", 4, 4))
            kills["rho'"] = gen("[sigma,lambda]", 4, 3, 2)
        diff = {x: [(1, {y.name: 1})] for x, y in kills.items()}
        named = gens + list(kills.values())
        line = VanishingLine(Fraction(4, 5)) if name == "vanishB" else DEFAULT_LINE
        return _Preset(QQ, gens, named, diff, ("sigma", "lambda"), False, line)

    if name in ("intstab-f2", "intstab-fl", "A-algebra-fl"):
        if name == "intstab-f2":
            ell = 2
        if ell is None:
            raise InputError(f"preset {name} needs a prime ell")
        fld = GF(ell)
        gens = [
            gen("sigma", 1, 0, 0),
            gen("tau", 1, 1, 1),
            gen("rho1", 2, 2, 2),
            gen("rho2", 2, 2, 2),
            gen("rho3", 3, 2, 2),
        ]
        # Q1(sigma): xi(sigma) at ell = 2, -(1/2)[sigma,sigma] at odd ell
        q1 = gen("xi(sigma)" if ell == 2 else "[sigma,sigma]", 2, 1, 0)
        sigma_tau = {"sigma": 1, "tau": 1}
        diff = {
            "rho1": [(10, sigma_tau)],
            "rho2": [(1 if ell == 2 else Fraction(-1, 2), {q1.name: 1}), (-3, sigma_tau)],
            "rho3": [(1, {"sigma": 2, "tau": 1})],
        }
        module = name != "A-algebra-fl"
        quotient = ("sigma",) if module else ()
        return _Preset(fld, gens, gens + [q1], diff, quotient, module, DEFAULT_LINE)

    raise InputError(f"unknown preset: {name}")


def _assemble(spec: _Preset, letters, box: tuple[int, int]):
    """The complex of ``spec`` on ``letters``, which lie in ``box`` and hold
    every named letter there: the differential is set on those letters,
    those of them that ``spec`` divides out are divided out, and the module
    is built on the module generators in the box.  A term of d(x) has the
    genus of x and one degree less, so no letter's differential leaves the
    box."""
    fld = spec.field
    cx = CDGA(fld, letters)
    diff = {x: terms for x, terms in spec.diff.items() if x in cx.index}
    cx.set_differential({x: {cx.mono_of(m): fld.of(c) for c, m in terms} for x, terms in diff.items()})
    if spec.quotient:
        cx = cx.quotient([x for x in spec.quotient if x in cx.index])
    if spec.module:
        gens = [t for t in (("1", 0, 0, 0), ("rho4", 3, 3, 3)) if t[1] <= box[0] and t[2] <= box[1]]
        mdiff = {"rho4": [({cx.mono_of({"rho3": 1}): fld.one()}, "1")]} if len(gens) == 2 else {}
        cx = DGModule(cx, gens, mdiff)
    return cx


def build_paper_complex(preset: str, box: tuple[int, int], ell: int | None = None):
    """One of the named complexes, spelled ``NAME`` or ``NAME(ELL)``, as its
    `KunnethSplit`, for the homology table of a ``box`` (`grading.check_box`).

    vanishA        Lambda_Q(L/<sigma,lambda>) on sigma(1,0), lambda(3,2),
                   rho(2,2), with d(rho) = [sigma,sigma].
    vanishB        as vanishA plus rho'(4,4) with d(rho') = [sigma,lambda].
    intstab-f2     F2 module complex (1, rho4) over the xi-tower algebra on
                   sigma, tau, rho1, rho2, rho3 mod sigma; d(rho2) = xi(sigma),
                   d(rho4) = rho3.
    intstab-fl     odd-ell analogue; d(rho2) = -(1/2)[sigma,sigma].
    A-algebra-fl   the full algebra over F_ell with d(rho1) = 10 sigma tau,
                   d(rho2) = Q1(sigma) - 3 sigma tau, d(rho3) = sigma^2 tau.

    The -fl presets take their prime from the name, from ``ell``, or from
    both if they agree.  L is the free Lie algebra (or, at ell = 2, the
    xi-tower alphabet) on the generators, in the box with one degree more,
    so the top row of the box has its incoming differentials.  Only its
    named letters there are built; the complex on them is split
    (`_kunneth_split`), and every other letter is closed and enters only
    through `freealg.letter_counts`.  Every letter has g >= 1 and d >= 0,
    so the table of a box is the truncation of that of any larger box.
    """
    check_box(box)  # before the preset is read
    spec = _preset(preset, ell)
    g_max, d_max = letter_box = (box[0], box[1] + 1)
    closed = Counter(freealg.letter_counts(spec.gens, letter_box, spec.field.char))
    named = [x for x in spec.named if x.g <= g_max and x.d <= d_max]
    split = _kunneth_split(_assemble(spec, named, letter_box), letter_box)
    closed.subtract((x.g, x.d) for x in named)
    closed.update(split.closed)
    closed = {cell: n for cell, n in closed.items() if n}
    return KunnethSplit(split.field, split.factors, closed, split.substitutions)


# ---------------------------------------------------------------------------
# expression and file parsing


_LETTER_NAME = r"\[[^\]]*\]|[A-Za-z_'][A-Za-z_0-9']*"


def parse_poly(cdga: CDGA, text: str):
    """Parse ``c*x^a*y*[u,v]^b +- ...`` with integer or p/q coefficients."""
    f = cdga.field
    out: dict = {}
    for coeff, exps in parse_terms(text, _LETTER_NAME):
        _add_into(f, out, cdga.mono_of(exps), f.of(coeff))
    return out


def parse_cdga_file(text: str, fld) -> CDGA:
    """CDGA spec file: letter lines ``name g d [r]`` and differential lines
    ``d name = <expr>``."""
    letter_lines = []
    diff_lines = {}
    for raw, line in content_lines(text):
        if line.startswith(("d ", "d\t")):
            if "=" not in line:
                raise InputError(f"bad differential line: {raw!r}")
            lhs, rhs = line[2:].split("=", 1)
            if lhs.strip() in diff_lines:
                raise InputError(f"second differential line for {lhs.strip()}")
            diff_lines[lhs.strip()] = rhs.strip()
        else:
            letter_lines.append((raw, line))
    cx = CDGA(fld, freealg.read_letters(letter_lines, "letter"))
    cx.set_differential({name: parse_poly(cx, expr) for name, expr in diff_lines.items()})
    return cx
