"""Exact linear algebra over Q and F_ell, and Smith normal form over Z.

Everything here is exact: rationals are `fractions.Fraction`, residues are
ints reduced into [0, ell).  No floating point is used anywhere.

A `Matrix` is sparse: each row lists its nonzero entries as ``(col, value)``
pairs.  `rank`, `rref` and `kernel_basis` share one sparse-row elimination
over any of these fields: the shortest remaining row is the pivot and clears
its leading column from the other rows, which keeps fill-in low on the very
sparse differentials of chain complexes.  `rref` back-substitutes the pivot
rows; the reduced echelon form is unique, so echelon forms and kernel bases
do not depend on the pivot order.  `rank_oracle` is an independent dense
elimination for cross-checks, and `smith_normal_form` takes the same sparse
rows with integer values.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, isqrt

from .errors import DomainError, InputError
from .parsing import content_lines


# ---------------------------------------------------------------------------
# coefficient fields


class Rationals:
    """The field Q, with Fraction scalars."""

    name = "Q"
    char = 0

    def of(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise InputError(f"not a rational scalar: {x!r}")

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DomainError("division by zero in Q")
        return 1 / a

    def is_zero(self, a):
        return a == 0

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
        if isinstance(x, Fraction):
            den = x.denominator % self.ell
            if den == 0:
                raise DomainError(f"denominator divisible by {self.ell}")
            return (x.numerator * pow(den, -1, self.ell)) % self.ell
        if isinstance(x, int):
            return x % self.ell
        raise InputError(f"not a scalar: {x!r}")

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.ell

    def sub(self, a, b):
        return (a - b) % self.ell

    def mul(self, a, b):
        return (a * b) % self.ell

    def neg(self, a):
        return (-a) % self.ell

    def inv(self, a):
        if a % self.ell == 0:
            raise DomainError(f"division by zero in F_{self.ell}")
        return pow(a, -1, self.ell)

    def is_zero(self, a):
        return a % self.ell == 0

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
        of, is_zero = fld.of, fld.is_zero
        checked = []
        for row in rows:
            out = []
            last = -1
            for j, x in row:
                if not last < j < ncols:
                    raise InputError("matrix row columns out of order or out of range")
                last = j
                x = of(x)
                if not is_zero(x):
                    out.append((j, x))
            checked.append(out)
        self.field = fld
        self.nrows = nrows
        self.ncols = ncols
        self.rows = checked

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"


def _integer(x) -> int:
    """The scalar check of `smith_normal_form`'s input: ints only."""
    if not isinstance(x, int):
        raise InputError("Smith normal form requires integer entries")
    return x


def sparse_rows(dense, ncols: int, of=_integer):
    """The nonzero entries of each row of a dense matrix, as increasing
    ``(col, value)`` pairs.  Every entry passes through ``of`` first: a
    field's ``of`` for a `Matrix`, or by default the integer check of
    `smith_normal_form`'s input."""
    if any(len(r) != ncols for r in dense):
        raise InputError("matrix shape mismatch")
    return [[(j, x) for j, x in enumerate(map(of, r)) if x] for r in dense]


def _eliminate(m: Matrix):
    """Sparse Gaussian elimination, pivoting on the shortest row.

    Rows are ``{col: value}`` dicts; a heap of (length, row) entries,
    refreshed whenever a row changes, yields the shortest remaining row, and
    its leading column is cleared from every remaining row that meets it
    (structured Gaussian elimination, LaMacchia & Odlyzko, CRYPTO '90).
    Returns the pivot rows as ``(pivot column, row)`` in the order chosen:
    each pivot is its row's leading column, and each row is zero at the
    pivot columns chosen before it.
    """
    f = m.field
    sub, mul, is_zero = f.sub, f.mul, f.is_zero
    zero = f.zero()
    rows = {i: dict(r) for i, r in enumerate(m.rows) if r}
    col_rows: defaultdict[int, set[int]] = defaultdict(set)  # col -> rows meeting it
    for i, row in rows.items():
        for j in row:
            col_rows[j].add(i)
    heap = [(len(row), i) for i, row in rows.items()]
    heapify(heap)
    echelon = []
    while heap:
        size, p = heappop(heap)
        piv = rows.get(p)
        if piv is None or len(piv) != size:
            continue  # stale entry: the row was used or has changed
        del rows[p]
        for j in piv:
            col_rows[j].discard(p)
        c = min(piv)
        echelon.append((c, piv))
        inv = f.inv(piv[c])
        for i in col_rows.pop(c, ()):
            row = rows[i]
            q = mul(row[c], inv)
            for j, v in piv.items():
                x = sub(row.get(j, zero), mul(q, v))
                if is_zero(x):
                    del row[j]
                    if j != c:
                        col_rows[j].discard(i)
                else:
                    if j not in row:
                        col_rows[j].add(i)
                    row[j] = x
            if row:
                heappush(heap, (len(row), i))
            else:
                del rows[i]
    return echelon


def rank(m: Matrix) -> int:
    """Rank, as the number of pivot rows of `_eliminate`."""
    return len(_eliminate(m))


def rref(m: Matrix):
    """Reduced row echelon form: its nonzero rows, as sparse rows in
    pivot-column order, and their pivot columns.

    The pivot rows of `_eliminate` are back-substituted in reverse: each is
    scaled to 1 at its pivot and cleared at the pivots chosen after it,
    whose rows are already reduced and lead with those pivots, so every row
    still leads with its own pivot.  The reduced echelon form is unique, so
    the elimination's pivot order does not show in the result.
    """
    f = m.field
    reduced: dict[int, dict] = {}  # pivot column -> reduced row
    for c, row in reversed(_eliminate(m)):
        inv = f.inv(row[c])
        row = {j: f.mul(inv, v) for j, v in row.items()}
        for k in [k for k in row if k != c and k in reduced]:
            q = row[k]
            for j, v in reduced[k].items():
                row[j] = f.sub(row.get(j, f.zero()), f.mul(q, v))
        reduced[c] = {j: v for j, v in row.items() if not f.is_zero(v)}
    pivots = sorted(reduced)
    return [sorted(reduced[c].items()) for c in pivots], pivots


def rank_oracle(m: Matrix) -> int:
    """Independent rank computation by dense column elimination (for
    cross-checks)."""
    f = m.field
    cols = [[f.zero()] * m.nrows for _ in range(m.ncols)]
    for i, row in enumerate(m.rows):
        for j, x in row:
            cols[j][i] = x
    rk = 0
    used = []
    for col in cols:
        for lead, ucol in used:
            if not f.is_zero(col[lead]):
                c = f.mul(col[lead], f.inv(ucol[lead]))
                col = [f.sub(x, f.mul(c, y)) for x, y in zip(col, ucol)]
        lead = next((i for i, x in enumerate(col) if not f.is_zero(x)), None)
        if lead is not None:
            used.append((lead, col))
            rk += 1
    return rk


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
            basis[j][pc] = f.neg(x)
    return list(basis.values())


# ---------------------------------------------------------------------------
# Smith normal form over Z


@dataclass
class SmithForm:
    """Invariant factors d1 | d2 | ... (all > 0) plus the free rank."""

    factors: list[int]
    free_rank: int
    U: list[list[int]] | None = field(default=None, repr=False)
    V: list[list[int]] | None = field(default=None, repr=False)

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


def smith_normal_form(rows, ncols: int, want_certs: bool = False) -> SmithForm:
    """Smith normal form of an integer matrix with ``ncols`` columns, given
    as sparse rows of ``(col, value)`` pairs with no zero value (as
    `sparse_rows` makes them).

    Returns invariant factors with the divisibility chain enforced and the
    free rank (number of zero diagonal entries in the cokernel direction,
    i.e. ncols - #factors).  With ``want_certs`` the unimodular U, V with
    U*A*V = diag(factors) are returned as dense integer matrices.

    Sparse-friendly: pivots of absolute value 1 are preferred, so incidence
    matrices of chain complexes reduce without coefficient growth.
    """
    nrows = len(rows)
    # dict-of-dicts working copy
    A: dict[int, dict[int, int]] = {i: dict(r) for i, r in enumerate(rows) if r}
    colocc: dict[int, set[int]] = {}
    for i, r in A.items():
        for j in r:
            colocc.setdefault(j, set()).add(i)

    U = [[int(i == j) for j in range(nrows)] for i in range(nrows)] if want_certs else None
    V = [[int(i == j) for j in range(ncols)] for i in range(ncols)] if want_certs else None

    def row_op(dst, src, q):
        # row dst -= q * row src
        if q == 0:
            return
        src_row = A.get(src, {})
        dst_row = A.setdefault(dst, {})
        for j, v in list(src_row.items()):
            nv = dst_row.get(j, 0) - q * v
            if nv:
                dst_row[j] = nv
                colocc.setdefault(j, set()).add(dst)
            else:
                dst_row.pop(j, None)
                occ = colocc.get(j)
                if occ:
                    occ.discard(dst)
        if not dst_row:
            A.pop(dst, None)
        if U is not None:
            U[dst] = [a - q * b for a, b in zip(U[dst], U[src])]

    def col_op(dst, src, q):
        # col dst -= q * col src
        if q == 0:
            return
        for i in list(colocc.get(src, ())):
            v = A.get(i, {}).get(src, 0)
            if not v:
                continue
            row = A[i]
            nv = row.get(dst, 0) - q * v
            if nv:
                row[dst] = nv
                colocc.setdefault(dst, set()).add(i)
            else:
                row.pop(dst, None)
                occ = colocc.get(dst)
                if occ:
                    occ.discard(i)
        if V is not None:
            for i in range(ncols):
                V[i][dst] -= q * V[i][src]

    def negate_row(i):
        for j in list(A.get(i, {})):
            A[i][j] = -A[i][j]
        if U is not None:
            U[i] = [-x for x in U[i]]

    def pick_pivot(active_rows, active_cols):
        best = None
        for i in sorted(active_rows & set(A.keys())):
            for j in sorted(A[i]):
                if j not in active_cols:
                    continue
                a = abs(A[i][j])
                if a == 1:
                    return (i, j)
                if best is None or a < best[0]:
                    best = (a, i, j)
        return None if best is None else (best[1], best[2])

    active_rows = set(range(nrows))
    active_cols = set(range(ncols))
    diag = []
    while True:
        piv = pick_pivot(active_rows, active_cols)
        if piv is None:
            break
        # shrink the min-abs pivot until its row and column are clear and it
        # divides every remaining active entry
        while True:
            r0, c0 = piv
            if A[r0][c0] < 0:
                negate_row(r0)
            p = A[r0][c0]
            dirty = False
            for i in sorted(colocc.get(c0, set()) & active_rows):
                if i == r0:
                    continue
                v = A.get(i, {}).get(c0, 0)
                if v:
                    row_op(i, r0, v // p)  # floor division: remainder in [0, p)
                    if A.get(i, {}).get(c0, 0):
                        dirty = True
            if dirty:
                piv = pick_pivot(active_rows, active_cols)
                continue
            if p == 1 and V is None:
                break  # clearing the row would touch only this row, now retired
            for j in sorted(set(A.get(r0, {})) & active_cols):
                if j == c0:
                    continue
                v = A[r0].get(j, 0)
                if v:
                    col_op(j, c0, v // p)
                    if A.get(r0, {}).get(j, 0):
                        dirty = True
            if dirty:
                piv = pick_pivot(active_rows, active_cols)
                continue
            if p == 1:
                break  # a unit divides every remaining entry
            bad = None
            for i in sorted(active_rows & set(A.keys())):
                if i == r0:
                    continue
                for j, v in A[i].items():
                    if j in active_cols and v % p != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_op(r0, bad, -1)  # fold the offending row into the pivot row
            piv = (r0, c0)
        r0, c0 = piv
        diag.append((r0, c0, A[r0][c0]))
        active_rows.discard(r0)
        active_cols.discard(c0)

    factors = [p for _, _, p in diag]
    if want_certs and diag:
        # fold row/column permutations into U and V so the pivots land on the
        # literal diagonal, in divisibility order
        row_order = [r for r, _, _ in diag] + sorted(active_rows)
        col_order = [c for _, c, _ in diag] + sorted(active_cols)
        U = [U[r] for r in row_order]
        V = [[row[c] for c in col_order] for row in V]
    free_rank = ncols - len(factors)
    return SmithForm(factors=factors, free_rank=free_rank, U=U, V=V)


def snf_certificate_ok(rows, sf: SmithForm) -> bool:
    """Check U*A*V = diag(factors) and that U, V are unimodular, for the
    sparse rows A that `smith_normal_form` was given."""
    if sf.U is None or sf.V is None:
        raise InputError("certificates were not requested")
    nrows = len(rows)
    ncols = len(sf.V)  # V is ncols x ncols
    dense = [[0] * ncols for _ in range(nrows)]
    for i, r in enumerate(rows):
        for j, x in r:
            dense[i][j] = x
    D = _mat_mul_int(_mat_mul_int(sf.U, dense), sf.V) if nrows and ncols else []
    diag_vals = [D[i][i] for i in range(min(nrows, ncols)) if D[i][i] != 0] if D else []
    for i in range(nrows):
        for j in range(ncols):
            if i != j and D[i][j] != 0:
                return False
    if diag_vals != sf.factors:
        return False
    for a, b in zip(sf.factors, sf.factors[1:]):
        if b % a != 0:
            return False
    if nrows and abs(det_int(sf.U)) != 1:
        return False
    if ncols and abs(det_int(sf.V)) != 1:
        return False
    return True


def parse_int_matrix(text: str):
    """Whitespace-separated integer matrix, one row per line, as sparse
    rows and a column count."""
    rows = []
    for _, line in content_lines(text):
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise InputError(f"bad matrix line: {line!r}") from exc
    if not rows:
        raise InputError("empty matrix")
    return sparse_rows(rows, len(rows[0])), len(rows[0])


def normalize_triple(a: int, b: int, e: int):
    """gcd-normalize (a, b, e) with a > 0."""
    g = gcd(gcd(abs(a), abs(b)), abs(e))
    if g == 0:
        return a, b, e
    return a // g, b // g, e // g
