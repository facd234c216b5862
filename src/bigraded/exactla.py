"""Exact linear algebra over Q and F_ell, and Smith normal form over Z.

Everything here is exact: rationals are `fractions.Fraction`, residues are
ints reduced into [0, ell).  No floating point is used anywhere.

Scalars are plain Python numbers, and a field decides in one place how a
value is reduced: its ``of``, which makes an int or a Fraction canonical (a
Fraction over Q, a residue in [0, ell) over F_ell).  Code computes with
Python operators, passes a value through ``of`` (or, in `_SparseWork`,
through ``% ell``) wherever it stores it, and tests zero by truthiness,
which is exact for canonical values.  A field keeps only ``of``, ``inv``,
``zero`` and ``one``.

A `Matrix` is sparse: each row lists its nonzero entries as ``(col, value)``
pairs.  Field elimination, back-substitution and the Smith form share one
sparse working copy, `_SparseWork`: dict rows, a column index and one row
operation, reduced mod ell over F_ell.  Each keeps its own pivot policy.
`rank`, `rref` and `kernel_basis` pivot on the shortest remaining row,
scaled to 1 at its leading column, which it clears from the other rows;
that keeps fill-in low on the very sparse differentials of chain complexes.
`rref` back-substitutes the pivot rows with the same row operation; the
reduced echelon form is unique, so echelon forms and kernel bases do not
depend on the pivot order.

`smith_normal_form` takes the same sparse rows with integer values, under
the same row check, and reduces them in two phases.  Phase 1 eliminates unit
pivots in sparse order, the sparsest column and the shortest row holding +-1
in it first, which keeps the fill-in of chain-complex boundaries low (Dumas,
Saunders & Villard, J. Symb. Comput. 32, 2001; Kaczynski, Mrozek & Slusarek,
Comput. Math. Appl. 35, 1998).  Phase 2 is one loop of min-abs passes on
what phase 1 leaves, which is nothing for the order complex of a sphere:
each pass clears the least entry's column and row by floor division, then
retires it if it divides every entry left, or folds in a row it does not
divide.  Every pass retires a pivot or leaves an entry smaller than the
least one before it, so the loop ends.  Invariant factors are unique, so
the pivot order does not show in them; `det_int` checks the certificates
independently.

`chain_homology` turns the group sizes of a chain complex and the ranks of
its boundaries into homology, for posets and CDGA factors alike: it reduces
the boundaries from the top degree down with clearing, through a backend of
the caller's (bitmask elimination over F2, `rank`, or the Smith form), and
its docstring proves which rows a backend may clear.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import isqrt

from .errors import DomainError, InputError
from .parsing import content_lines


# ---------------------------------------------------------------------------
# coefficient fields


class Rationals:
    """The field Q, with Fraction scalars."""

    name = "Q"
    char = 0

    def of(self, x):
        """The canonical Q scalar of an int or a Fraction: a Fraction."""
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise InputError(f"not a rational scalar: {x!r}")

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def inv(self, a):
        if a == 0:
            raise DomainError("division by zero in Q")
        return 1 / a

    def __repr__(self):
        return "QQ"


# field characteristics must lie below this bound, so that the trial division
# that checks primality takes a few milliseconds at most
PRIME_BOUND = 2**31


class PrimeField:
    """The field F_ell for a prime ell < PRIME_BOUND, with int scalars in
    [0, ell)."""

    def __init__(self, ell: int):
        if ell >= PRIME_BOUND:
            raise InputError("field characteristic too large: primes must be below 2**31")
        if ell < 2 or any(ell % p == 0 for p in range(2, isqrt(ell) + 1)):
            raise InputError(f"not a prime: {ell}")
        self.ell = ell
        self.name = f"F{ell}"
        self.char = ell

    def of(self, x):
        """The canonical residue in [0, ell) of an int or a Fraction whose
        denominator ell does not divide."""
        if isinstance(x, int):
            return x % self.ell
        if isinstance(x, Fraction):
            den = x.denominator % self.ell
            if den == 0:
                raise DomainError(f"denominator divisible by {self.ell}")
            return (x.numerator * pow(den, -1, self.ell)) % self.ell
        raise InputError(f"not a scalar: {x!r}")

    def zero(self):
        return 0

    def one(self):
        return 1

    def inv(self, a):
        if a % self.ell == 0:
            raise DomainError(f"division by zero in F_{self.ell}")
        return pow(a, -1, self.ell)

    def __repr__(self):
        return f"GF({self.ell})"


QQ = Rationals()

_GF_CACHE: dict[int, PrimeField] = {}


def GF(ell: int) -> PrimeField:
    if ell not in _GF_CACHE:
        _GF_CACHE[ell] = PrimeField(ell)
    return _GF_CACHE[ell]


def field_by_name(name: str):
    """Parse a coefficient-field tag like ``Q``, ``F2``, ``F5``."""
    if name in ("Q", "QQ"):
        return QQ
    digits = name[1:]
    if name.startswith("F") and digits.isdecimal():
        if len(digits.lstrip("0")) > 10:  # past PRIME_BOUND; int() refuses 4300 digits
            raise InputError("field characteristic too large: primes must be below 2**31")
        return GF(int(digits))
    raise InputError(f"unknown field: {name}")


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Sparse matrix over one coefficient field.

    Each row is a list of ``(col, value)`` pairs with increasing col and no
    zero value.  The constructor checks the shape and the column order and
    passes every value through the field's ``of``, so mixing scalar domains
    is rejected; values that are zero in the field are dropped.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, fld, nrows: int, ncols: int, rows):
        if len(rows) != nrows:
            raise InputError("matrix shape mismatch")
        self.field = fld
        self.nrows = nrows
        self.ncols = ncols
        self.rows = _checked_rows(rows, ncols, fld.of)

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"


def _checked_rows(rows, ncols: int, of):
    """Sparse rows with their columns checked, increasing and below
    ``ncols``, and every value passed through ``of``; values that come out
    zero are dropped."""
    checked = []
    for row in rows:
        out = []
        last = -1
        for j, x in row:
            if not last < j < ncols:
                raise InputError("matrix row columns out of order or out of range")
            last = j
            x = of(x)
            if x:
                out.append((j, x))
        checked.append(out)
    return checked


def _integer(x) -> int:
    """The scalar check of integer matrices: ints only."""
    if not isinstance(x, int):
        raise InputError("Smith normal form requires integer entries")
    return x


def sparse_rows(dense, ncols: int):
    """The nonzero entries of each row of a dense integer matrix, as
    increasing ``(col, value)`` pairs, each entry passed through the
    integer check of `smith_normal_form`'s input first."""
    if any(len(r) != ncols for r in dense):
        raise InputError("matrix shape mismatch")
    return [[(j, x) for j, x in enumerate(map(_integer, r)) if x] for r in dense]


class _SparseWork:
    """The working copy of a sparse elimination: the nonzero rows as
    ``{col: value}`` dicts, the rows meeting each column, and, with
    certificates, the dense U and V that record every row and column
    operation.  Values are reduced mod ``mod``, the characteristic of the
    field over F_ell; it is 0 over Q and Z, whose scalars are exact."""

    __slots__ = ("A", "colocc", "mod", "U", "V")

    def __init__(self, A, nrows: int, ncols: int, mod: int, want_certs: bool = False):
        self.A = A  # row index -> {col: value}, for the nonzero rows of nrows
        self.colocc = colocc = {}  # col -> rows meeting it
        for i, r in A.items():
            for j in r:
                colocc.setdefault(j, set()).add(i)
        self.mod = mod
        self.U = [[int(i == j) for j in range(nrows)] for i in range(nrows)] if want_certs else None
        self.V = [[int(i == j) for j in range(ncols)] for i in range(ncols)] if want_certs else None

    def row_op(self, dst, src, q):
        # row dst -= q * row src, for q != 0; a row that becomes zero leaves A
        A, colocc, mod = self.A, self.colocc, self.mod
        dst_row = A[dst]
        for j, v in A[src].items():
            if j in dst_row:
                nv = dst_row[j] - q * v
                if mod:
                    nv %= mod
                if nv:
                    dst_row[j] = nv
                else:
                    del dst_row[j]
                    colocc[j].discard(dst)
            else:
                dst_row[j] = -q * v % mod if mod else -q * v
                colocc[j].add(dst)
        if not dst_row:
            del A[dst]
        if self.U is not None:
            self.U[dst] = [a - q * b for a, b in zip(self.U[dst], self.U[src])]

    def col_op(self, dst, src, q):
        # col dst -= q * col src
        A, colocc = self.A, self.colocc
        for i in colocc[src]:
            row = A[i]
            nv = row.get(dst, 0) - q * row[src]
            if nv:
                if dst not in row:
                    colocc[dst].add(i)
                row[dst] = nv
            elif dst in row:
                del row[dst]
                colocc[dst].discard(i)
        self.record_col_op(dst, src, q)

    def record_col_op(self, dst, src, q):
        # col dst -= q * col src, in V only
        if self.V is not None:
            for row in self.V:
                row[dst] -= q * row[src]

    def scale_row(self, i, s):
        # row i *= s, for a unit s
        row, mod = self.A[i], self.mod
        for j, v in row.items():
            row[j] = v * s % mod if mod else v * s
        if self.U is not None:
            self.U[i] = [s * x for x in self.U[i]]

    def retire(self, r, c):
        """Take pivot row r out of A and return it, and with it column c,
        which no other row meets any more."""
        colocc = self.colocc
        row = self.A.pop(r)
        for j in row:
            colocc[j].discard(r)
        del colocc[c]
        return row


def _eliminate(m: Matrix):
    """Sparse Gaussian elimination, pivoting on the shortest row.

    A heap of (length, row) entries, refreshed whenever a row changes, yields
    the shortest remaining row of the working copy; it is scaled to 1 at its
    leading column, which is cleared from every other row that meets it, and
    retired (structured Gaussian elimination, LaMacchia & Odlyzko, CRYPTO
    '90).  Returns the pivot rows as ``(pivot column, row)`` in the order
    chosen: each pivot is its row's leading column with value 1, and each
    row is zero at the pivot columns chosen before it.
    """
    A = {i: dict(r) for i, r in enumerate(m.rows) if r}
    w = _SparseWork(A, m.nrows, m.ncols, m.field.char)
    colocc, inv = w.colocc, m.field.inv
    heap = [(len(row), i) for i, row in A.items()]
    heapify(heap)
    echelon = []
    while heap:
        size, p = heappop(heap)
        piv = A.get(p)
        if piv is None or len(piv) != size:
            continue  # stale entry: the row was retired or has changed
        c = min(piv)
        if piv[c] != 1:
            w.scale_row(p, inv(piv[c]))
        for i in colocc[c] - {p}:
            w.row_op(i, p, A[i][c])
            if i in A:
                heappush(heap, (len(A[i]), i))
        echelon.append((c, w.retire(p, c)))
    return echelon


def rank(m: Matrix) -> int:
    """Rank, as the number of pivot rows of `_eliminate`."""
    return len(_eliminate(m))


def rref(m: Matrix):
    """Reduced row echelon form: its nonzero rows, as sparse rows in
    pivot-column order, and their pivot columns.

    The pivot rows of `_eliminate`, already 1 at their pivots, are
    back-substituted in reverse with `_SparseWork.row_op` on a working copy
    keyed by pivot column.  Each row is zero at the pivots chosen before
    it, so it only meets the rows of pivots chosen after it, which are
    already reduced and lead with those pivots: every row still leads with
    its own pivot.  The reduced echelon form is unique, so the
    elimination's pivot order does not show in the result.
    """
    echelon = _eliminate(m)
    w = _SparseWork(dict(echelon), m.nrows, m.ncols, m.field.char)
    for c, row in reversed(echelon):
        for k in [k for k in row if k != c and k in w.A]:
            w.row_op(c, k, row[k])
    pivots = sorted(w.A)
    return [sorted(w.A[c].items()) for c in pivots], pivots


def kernel_basis(m: Matrix):
    """Basis of the right null space, in the reduced echelon convention.

    One vector per free column j: entry 1 at j, minus the reduced echelon
    coefficients at the pivot columns, zero elsewhere.  Deterministic.
    """
    f = m.field
    rows, pivots = rref(m)
    pivot_set = set(pivots)
    basis = {j: [f.zero()] * m.ncols for j in range(m.ncols) if j not in pivot_set}
    for j, v in basis.items():
        v[j] = f.one()
    for row, pc in zip(rows, pivots):
        for j, x in row[1:]:  # row[0] is the pivot; the rest sit at free columns
            basis[j][pc] = f.of(-x)
    return list(basis.values())


# ---------------------------------------------------------------------------
# Smith normal form over Z


@dataclass
class SmithForm:
    """Invariant factors d1 | d2 | ... (all > 0) plus the free rank.

    ``unit_rows`` lists the rows, as indices into the given rows, of phase
    1's unit pivots, in the order chosen.  Phase 1's row operations only add
    multiples of earlier pivot rows, and its pivot columns are cleared in
    every later pivot row, so the block of A on these rows and on phase 1's
    pivot columns is unimodular."""

    factors: list[int]
    free_rank: int
    U: list[list[int]] | None = field(default=None, repr=False)
    V: list[list[int]] | None = field(default=None, repr=False)
    unit_rows: list[int] = field(default_factory=list, repr=False)

    def abelian_group_symbol(self) -> str:
        return abelian_symbol(self.factors, self.free_rank)


def abelian_symbol(factors, free_rank: int) -> str:
    """"Z/d1 + ... + Z^r" for invariant factors d1 | d2 | ... (those equal
    to 1 are left out) and a free rank; "0" for the trivial group."""
    parts = [f"Z/{d}" for d in factors if d > 1]
    if free_rank == 1:
        parts.append("Z")
    elif free_rank > 1:
        parts.append(f"Z^{free_rank}")
    return " + ".join(parts) if parts else "0"


def _mat_mul_int(A, B):
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                row = out[i]
                for j in range(m):
                    row[j] += a * Bt[j]
    return out


def det_int(A) -> int:
    """Integer determinant by fraction-free Bareiss elimination."""
    n = len(A)
    M = [list(r) for r in A]
    prev = 1
    sign = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1] if n else 1


def _unit_pivots(w: _SparseWork):
    """Phase 1 of `smith_normal_form`: eliminate the unit pivots in sparse
    order, before any gcd work.

    A heap of (occupancy, column) entries, pushed again for every column a
    pivot step touches, yields the sparsest remaining column, and the
    shortest row holding +-1 in it is the pivot.  The row is scaled to +1,
    the column is cleared with row operations, and the row is retired: with
    its column clear, the column operations that clear the row touch only
    that row, so they are recorded in V and not applied.  A column with no
    unit is passed over until a row operation changes it.  Returns the
    pivots as (row, column) in the order chosen.
    """
    A, colocc = w.A, w.colocc
    heap = [(len(occ), j) for j, occ in colocc.items()]
    heapify(heap)
    pivots = []
    while heap:
        size, c = heappop(heap)
        occ = colocc.get(c)
        if occ is None or len(occ) != size:
            continue  # stale entry: the column was retired or has changed
        units = [(len(A[i]), i) for i in occ if A[i][c] in (1, -1)]
        if not units:
            continue
        r = min(units)[1]
        if A[r][c] < 0:
            w.scale_row(r, -1)
        piv = A[r]
        for i in [i for i in occ if i != r]:
            w.row_op(i, r, A[i][c])
        for j, v in piv.items():
            if j != c:
                w.record_col_op(j, c, v)
        w.retire(r, c)
        pivots.append((r, c))
        for j in piv:
            if j != c:
                if colocc[j]:
                    heappush(heap, (len(colocc[j]), j))
                else:
                    del colocc[j]
    return pivots


def _smith_residual(w: _SparseWork):
    """Phase 2 of `smith_normal_form`: the Smith form of what
    `_unit_pivots` leaves in ``w.A``, by min-abs pivots, one pass at a time.

    Each pass takes the entry p of least absolute value (ties to the lowest
    row, then column) and makes it positive.  It reduces p's column by
    floor division, and the pass ends if a remainder is left; then p's row
    the same way.  With both clear, p is retired if it is 1 or divides every
    entry left; otherwise the first row holding an entry p does not divide
    is added to p's row, and that entry is reduced by p's column.  Every
    row operation's multiplier is nonzero, since no entry of p's column is
    smaller than p.  Each pass either retires a pivot or leaves an entry
    smaller than the least absolute value before it, so the loop ends.
    Returns the pivots as (row, column, value) in divisibility order.
    """
    A, colocc = w.A, w.colocc
    diag = []
    while A:
        _, r, c = min((abs(v), i, j) for i, row in A.items() for j, v in row.items())
        if A[r][c] < 0:
            w.scale_row(r, -1)
        p = A[r][c]
        for i in [i for i in colocc[c] if i != r]:
            w.row_op(i, r, A[i][c] // p)  # floor division: remainder in [0, p)
        if len(colocc[c]) > 1:
            continue
        for j, v in [(j, v) for j, v in A[r].items() if j != c]:
            w.col_op(j, c, v // p)
        if len(A[r]) > 1:
            continue
        bad = None if p == 1 else next((i for i in sorted(A) if any(v % p for v in A[i].values())), None)
        if bad is None:
            diag.append((r, c, p))
            w.retire(r, c)
        else:
            w.row_op(r, bad, -1)
            j, v = next((j, v) for j, v in A[r].items() if v % p)
            w.col_op(j, c, v // p)
    return diag


def _nonzero_integer(x) -> int:
    """The scalar check of Smith form rows: nonzero ints only."""
    if not _integer(x):
        raise InputError("Smith normal form rows list nonzero entries only")
    return x


def _smith_rows(rows, ncols: int):
    """`smith_normal_form`'s sparse rows, checked by `_checked_rows` with
    nonzero int values, as the ``{col: value}`` dicts of its nonzero rows."""
    checked = _checked_rows(rows, ncols, _nonzero_integer)
    return {i: dict(row) for i, row in enumerate(checked) if row}


def smith_normal_form(rows, ncols: int, want_certs: bool = False) -> SmithForm:
    """Smith normal form of an integer matrix with ``ncols`` columns, given
    as sparse rows of ``(col, value)`` pairs with increasing col below
    ``ncols`` and nonzero int values (as `sparse_rows` makes them); any
    other row is an input error.

    Returns the invariant factors d1 | d2 | ... and the free rank, ncols
    minus the number of factors.  With ``want_certs`` the unimodular U, V
    with U*A*V = diag(factors) are returned as dense integer matrices.

    Two phases, one code path, with or without certificates.  Phase 1
    (`_unit_pivots`) eliminates unit pivots in sparse (Markowitz-style)
    order, sparsest column and shortest row first, which keeps the fill-in
    of chain-complex boundaries low (Dumas, Saunders & Villard, J. Symb.
    Comput. 32, 2001; Kaczynski, Mrozek & Slusarek, Comput. Math. Appl. 35,
    1998).  Phase 2 (`_smith_residual`) runs one loop of min-abs passes on
    the residual that phase 1 leaves, which is empty for the order complexes
    of spheres; each pass retires a pivot or leaves an entry smaller than
    the least one before it.  The factors are phase 1's 1s followed by
    phase 2's divisibility chain.
    """
    w = _SparseWork(_smith_rows(rows, ncols), len(rows), ncols, 0, want_certs)
    units = _unit_pivots(w)
    residual = _smith_residual(w)
    factors = [1] * len(units) + [p for _, _, p in residual]
    U, V = w.U, w.V
    if want_certs:
        # fold row/column permutations into U and V so the pivots land on the
        # literal diagonal, in divisibility order
        diag = units + [(r, c) for r, c, _ in residual]
        rows_used, cols_used = {r for r, _ in diag}, {c for _, c in diag}
        row_order = [r for r, _ in diag] + [i for i in range(len(rows)) if i not in rows_used]
        col_order = [c for _, c in diag] + [j for j in range(ncols) if j not in cols_used]
        U = [U[r] for r in row_order]
        V = [[row[c] for c in col_order] for row in V]
    return SmithForm(
        factors=factors, free_rank=ncols - len(factors), U=U, V=V, unit_rows=[r for r, _ in units]
    )


def snf_certificate_ok(rows, sf: SmithForm) -> bool:
    """Check U*A*V = diag(factors) literally, for the sparse rows A that
    `smith_normal_form` was given: the k factors, positive and each dividing
    the next, on the first k diagonal places, 0 everywhere else, free rank
    ncols - k, and U, V square and unimodular."""
    if sf.U is None or sf.V is None:
        raise InputError("certificates were not requested")
    U, V, factors = sf.U, sf.V, sf.factors
    nrows, ncols, k = len(rows), len(V), len(factors)
    if (
        len(U) != nrows
        or any(len(r) != nrows for r in U)
        or any(len(r) != ncols for r in V)
        or k > min(nrows, ncols)
        or sf.free_rank != ncols - k
        or any(d <= 0 for d in factors)
        or any(b % a for a, b in zip(factors, factors[1:]))
    ):
        return False
    dense = [[0] * ncols for _ in range(nrows)]
    for i, r in enumerate(rows):
        for j, x in r:
            dense[i][j] = x
    for i, row in enumerate(_mat_mul_int(_mat_mul_int(U, dense), V)):
        for j, x in enumerate(row):
            if x != (factors[i] if i == j < k else 0):
                return False
    return abs(det_int(U)) == 1 and abs(det_int(V)) == 1


# ---------------------------------------------------------------------------
# homology of a chain complex


def chain_homology(sizes: list[int], reduce, augmented: bool = False):
    """Homology of a chain complex C_0 <- C_1 <- ... <- C_top from the ranks
    of its boundaries.

    ``sizes[k]`` is the rank of C_k, and ``reduce(k, drop)`` (1 <= k <= top)
    reduces the boundary out of C_k without its columns in ``drop`` and
    returns its rank, its torsion factors (the invariant factors above 1)
    and a set of its rows to clear, which may be empty.  It is asked for
    only when both groups of the boundary are nonzero.  C_top only gives
    the boundary into C_(top-1): homology is returned in degrees 0..top-1.
    With ``augmented``, C_0 maps onto one chain in degree -1 (rank 1 when
    C_0 is nonzero), and degree -1 is returned too; the augmentation is
    never reduced.  Returns the nonzero free ranks and the nonempty torsion,
    each as a dict keyed by degree.

    Clearing (Chen & Kerber, *Persistent homology computation with a
    twist*, EuroCG 2011; Bauer, Kerber & Reininghaus, *Clear and compress*,
    2014).  The boundaries are reduced from the top degree down, and each
    drops the columns that are the rows R of the boundary above before it is
    reduced.  This keeps the lattice its columns span, and so its rank and
    every torsion factor: if C_k has a basis made of the e_j with j not in R
    and of |R| boundaries z, then ``d z = 0`` and the image of d is spanned
    by the d e_j alone.
    - Over F2, r in R is the ``low`` key of a reduced column z_r of the
      boundary above: a sum of its columns, so a boundary, equal to e_r
      plus rows above r.  These z_r and the other e_j are triangular in the
      row order, so they form a basis.
    - Over Z (and Q), R holds the rows of the Smith form's unit pivots
      (phase 1).  The block B of the boundary above on R and on the unit
      pivot columns C is unimodular, so the columns z_c, c in C, of the
      boundary above and the e_j, j not in R, are a Z-basis: with the rows
      R first they form [[B, 0], [*, I]], of determinant +-1.  Over a field
      every pivot block is nonsingular, so any elimination's pivot rows
      could be cleared the same way.
    - Phase 2's pivot rows are not cleared: their block need not be
      unimodular.  With d e0 = 2v, d e1 = 3v and the boundary 3 e0 - 2 e1
      above, no entry is a unit, and dropping column e0 or e1 leaves the
      lattice 3Z or 2Z: a false Z/3 or Z/2 where the cokernel is 0."""
    ranks = [0] * len(sizes)  # ranks[k]: the boundary out of degree k
    if augmented:  # C_0 maps onto the one chain of degree -1
        ranks[0] = min(sizes[0], 1)
    torsion = {}
    clear = ()  # the rows the boundary above cleared: columns to drop
    for k in range(len(sizes) - 1, 0, -1):
        if sizes[k] and sizes[k - 1]:
            ranks[k], tors, clear = reduce(k, clear)
            if tors:
                torsion[k - 1] = tors
        else:
            clear = ()
    dims = {-1: 1} if augmented and not ranks[0] else {}
    for k in range(len(sizes) - 1):
        free = sizes[k] - ranks[k] - ranks[k + 1]
        if free:
            dims[k] = free
    return dims, torsion


def parse_int_matrix(text: str):
    """Whitespace-separated integer matrix, one row per line, as sparse
    rows and a column count.

    Each invariant factor divides the product of all of them, the gcd of
    the r x r minors (r the rank), so it is at most the absolute value of
    any nonzero such minor, and so at most Hadamard's bound: the product of
    the nonzero rows' Euclidean norms.  A matrix whose bound has more digits
    than Python prints is an input error, raised before any Smith form is
    taken."""
    rows = []
    for _, line in content_lines(text):
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise InputError(f"bad matrix line: {line!r}") from exc
    if not rows:
        raise InputError("empty matrix")
    sparse = sparse_rows(rows, len(rows[0]))
    limit = sys.get_int_max_str_digits()  # 0: no limit
    cap, square = 100**limit, 1  # square: the bound's square
    for row in sparse:
        square *= sum(x * x for _, x in row) or 1
        if limit and square >= cap:
            raise InputError(f"the invariant factors may have more than {limit} digits (Hadamard's bound)")
    return sparse, len(rows[0])
