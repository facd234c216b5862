"""Exact linear algebra over Q and F_ell, and Smith normal form over Z.

Everything here is exact: rationals are `fractions.Fraction`, residues are
ints reduced into [0, ell).  No floating point is used anywhere.

`rank` is one sparse-row elimination over any of these fields: the shortest
remaining row is the pivot and clears its leading column from the other
rows, which keeps fill-in low on the very sparse differentials of chain
complexes.  `rref` and `kernel_basis` keep dense elimination with the first
nonzero entry in row-major order as pivot, so echelon forms and kernel bases
are reproducible across runs and platforms.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress, repeat
from math import gcd
from operator import is_not

from .errors import DomainError, InputError


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
        # one shared (immutable) zero: the zero entries of a fresh Matrix are
        # then the same object, which `rank` skips by identity
        return _Q_ZERO

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


class PrimeField:
    """The field F_ell for a prime ell, with int scalars in [0, ell)."""

    def __init__(self, ell: int):
        if ell < 2 or any(ell % p == 0 for p in range(2, int(ell**0.5) + 1)):
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


_Q_ZERO = Fraction(0)
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
    if name.startswith("F") and name[1:].isdigit():
        return GF(int(name[1:]))
    raise InputError(f"unknown field: {name}")


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Dense matrix over one coefficient field.

    Rows are lists of field scalars; the field tag is part of the matrix, and
    mixing scalar domains is rejected at construction time.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, fld, nrows: int, ncols: int, rows=None):
        self.field = fld
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            z = fld.zero()
            self.rows = [[z] * ncols for _ in range(nrows)]
        else:
            if len(rows) != nrows or any(len(r) != ncols for r in rows):
                raise InputError("matrix shape mismatch")
            self.rows = [[fld.of(x) for x in r] for r in rows]

    @classmethod
    def identity(cls, fld, n: int) -> "Matrix":
        m = cls(fld, n, n)
        for i in range(n):
            m.rows[i][i] = fld.one()
        return m

    def copy_rows(self):
        return [list(r) for r in self.rows]

    def mul_vec(self, v):
        f = self.field
        if len(v) != self.ncols:
            raise InputError("vector length mismatch")
        out = []
        for r in self.rows:
            acc = f.zero()
            for a, x in zip(r, v):
                if not f.is_zero(a) and not f.is_zero(x):
                    acc = f.add(acc, f.mul(a, x))
            out.append(acc)
        return out

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"


def _rref(fld, rows, ncols):
    """In-place reduced row echelon form; returns pivot column list."""
    pivots = []
    pr = 0
    nrows = len(rows)
    for pc in range(ncols):
        pivot_row = None
        for r in range(pr, nrows):
            if not fld.is_zero(rows[r][pc]):
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = fld.inv(rows[pr][pc])
        rows[pr] = [fld.mul(inv, x) for x in rows[pr]]
        for r in range(nrows):
            if r != pr and not fld.is_zero(rows[r][pc]):
                c = rows[r][pc]
                rows[r] = [fld.sub(x, fld.mul(c, y)) for x, y in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return pivots


def rref(m: Matrix):
    rows = m.copy_rows()
    pivots = _rref(m.field, rows, m.ncols)
    return rows, pivots


def rank(m: Matrix) -> int:
    """Rank by sparse-row elimination, pivoting on the shortest row.

    Rows are ``{col: value}`` dicts of nonzeros; a heap of (length, row)
    entries, refreshed whenever a row changes, yields the shortest row, and
    its leading column is cleared from every row that meets it.
    """
    f = m.field
    sub, mul, is_zero = f.sub, f.mul, f.is_zero
    zero = f.zero()
    rows: dict[int, dict] = {}
    col_rows: defaultdict[int, set[int]] = defaultdict(set)  # col -> rows meeting it
    cols = range(m.ncols)
    for i, r in enumerate(m.rows):
        # the identity test skips the shared zero object in C; is_zero decides
        nonzero = compress(cols, map(is_not, r, repeat(zero)))
        row = {j: r[j] for j in nonzero if not is_zero(r[j])}
        if row:
            rows[i] = row
            for j in row:
                col_rows[j].add(i)
    heap = [(len(row), i) for i, row in rows.items()]
    heapify(heap)
    rk = 0
    while heap:
        size, p = heappop(heap)
        piv = rows.get(p)
        if piv is None or len(piv) != size:
            continue  # stale entry: the row was used or has changed
        del rows[p]
        for j in piv:
            col_rows[j].discard(p)
        rk += 1
        c = min(piv)
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
    return rk


def rank_oracle(m: Matrix) -> int:
    """Independent rank computation by column elimination (for cross-checks)."""
    f = m.field
    cols = [[m.rows[r][c] for r in range(m.nrows)] for c in range(m.ncols)]
    rk = 0
    used = []
    for col in cols:
        col = list(col)
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
    free = [c for c in range(m.ncols) if c not in pivot_set]
    basis = []
    for j in free:
        v = [f.zero()] * m.ncols
        v[j] = f.one()
        for i, pc in enumerate(pivots):
            v[pc] = f.neg(rows[i][j])
        basis.append(v)
    return basis


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
        parts = [f"Z/{d}" for d in self.factors if d > 1]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
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


def smith_normal_form(rows, want_certs: bool = False) -> SmithForm:
    """Smith normal form of an integer matrix given as a list of rows.

    Returns invariant factors with the divisibility chain enforced and the
    free rank (number of zero diagonal entries in the cokernel direction,
    i.e. ncols - #factors).  With ``want_certs`` the unimodular U, V with
    U*A*V = diag(factors) are returned as dense integer matrices.

    Sparse-friendly: pivots of absolute value 1 are preferred, so incidence
    matrices of chain complexes reduce without coefficient growth.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    for r in rows:
        for x in r:
            if not isinstance(x, int):
                raise InputError("Smith normal form requires integer entries")
    # sparse dict-of-dicts working copy
    A: dict[int, dict[int, int]] = {}
    colocc: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for j, x in enumerate(r):
            if x:
                A.setdefault(i, {})[j] = x
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
    """Check U*A*V = diag(factors) and that U, V are unimodular."""
    if sf.U is None or sf.V is None:
        raise InputError("certificates were not requested")
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    D = _mat_mul_int(_mat_mul_int(sf.U, [list(r) for r in rows]), sf.V) if nrows and ncols else []
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
    """Whitespace-separated integer matrix, one row per line."""
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise InputError(f"bad matrix line: {line!r}") from exc
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise InputError("ragged matrix")
    return rows


def normalize_triple(a: int, b: int, e: int):
    """gcd-normalize (a, b, e) with a > 0."""
    g = gcd(gcd(abs(a), abs(b)), abs(e))
    if g == 0:
        return a, b, e
    return a // g, b // g, e // g
