import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from bigraded import exactla
from bigraded.errors import InputError
from bigraded.exactla import (
    GF,
    PRIME_BOUND,
    QQ,
    Matrix,
    SmithForm,
    det_int,
    PrimeField,
    field_by_name,
    kernel_basis,
    parse_int_matrix,
    rank,
    rref,
    smith_normal_form,
    snf_certificate_ok,
    sparse_rows,
)
from oracles import rank_oracle


def _mat(fld, rows, ncols=None):
    """The Matrix of a dense row list."""
    ncols = len(rows[0]) if ncols is None else ncols
    return Matrix(fld, len(rows), ncols, [list(enumerate(r)) for r in rows])


def _dense(fld, rows, ncols):
    """Dense rows of a list of sparse rows."""
    out = [[fld.zero()] * ncols for _ in rows]
    for dense, row in zip(out, rows):
        for j, x in row:
            dense[j] = x
    return out


def _mul_vec(m, v):
    f = m.field
    out = []
    for row in m.rows:
        acc = f.zero()
        for j, a in row:
            acc = f.of(acc + a * v[j])
        out.append(acc)
    return out


def _snf(dense, want_certs=False):
    """Sparse rows of an integer matrix and their Smith form."""
    ncols = len(dense[0])
    rows = sparse_rows(dense, ncols)
    return rows, smith_normal_form(rows, ncols, want_certs)


def test_rank_identity():
    assert rank(Matrix(QQ, 3, 3, [[(i, 1)] for i in range(3)])) == 3


def test_rank_mod2():
    assert rank(_mat(GF(2), [[2]])) == 0
    assert rank(Matrix(GF(2), 1, 1, [[(0, 2)]])) == 0


def test_rank_agrees_with_independent_oracle():
    rng = random.Random(5)
    f = GF(5)
    for _ in range(25):
        rows = [[rng.randint(0, 4) for _ in range(20)] for _ in range(20)]
        m = _mat(f, rows)
        assert rank(m) == rank_oracle(m)


def _random_matrix(rng, fld, nrows, ncols, density):
    rows = []
    for _ in range(nrows):
        row = [0] * ncols
        for j in range(ncols):
            if rng.random() < density:
                x = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                row[j] = x if fld is QQ else rng.randrange(fld.char)
        rows.append(row)
    if nrows > 1 and rng.random() < 0.5:
        rows[rng.randrange(nrows)] = list(rows[0])  # duplicate row
    return _mat(fld, rows, ncols)


def _check_rref(m):
    """Oracle-free: every pivot entry is 1 and leads its row, every pivot
    column is zero in the other rows, and the rows lie in the row space of
    ``m`` (stacking them on it does not raise its rank)."""
    f = m.field
    rows, pivots = rref(m)
    assert pivots == sorted(set(pivots)) and len(rows) == len(pivots) == rank(m)
    for row, pc in zip(rows, pivots):
        assert row[0] == (pc, f.one())
        assert not {j for j, _ in row[1:]} & set(pivots)
    stacked = Matrix(f, m.nrows + len(rows), m.ncols, m.rows + rows)
    assert rank_oracle(stacked) == rank_oracle(m)


@pytest.mark.parametrize("fld", [QQ, GF(2), GF(3), GF(5)])
def test_sparse_rank_matches_oracle(fld):
    rng = random.Random(fld.char + 17)
    shapes = [(0, 4), (4, 0), (0, 0), (1, 1), (5, 5)]
    shapes += [(rng.randint(1, 14), rng.randint(1, 14)) for _ in range(40)]
    for nrows, ncols in shapes:
        for density in (0.0, 0.15, 0.5, 1.0):
            m = _random_matrix(rng, fld, nrows, ncols, density)
            assert rank(m) == rank_oracle(m), (nrows, ncols, density, m.rows)
            _check_rref(m)
    # a duplicate block: rank counts it once
    m = _mat(fld, [[1, 0, 1], [0, 1, 1]] * 3)
    assert rank(m) == rank_oracle(m) == 2
    _check_rref(m)


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_working_copy_keeps_residues_reduced(monkeypatch, ell):
    """Over F_ell every value in the shared working copy stays in [0, ell)
    after each row operation, on the fill branch as on the update branch:
    unreduced fill would be congruent, so ranks would not show it, but its
    ints would grow with every later row operation that reads it."""
    row_op = exactla._SparseWork.row_op

    def checked(w, dst, src, q):
        row_op(w, dst, src, q)
        assert all(0 < v < ell for row in w.A.values() for v in row.values())

    monkeypatch.setattr(exactla._SparseWork, "row_op", checked)
    rng = random.Random(ell + 29)
    for _ in range(30):
        m = _random_matrix(rng, GF(ell), rng.randint(2, 9), rng.randint(2, 9), 0.5)
        assert rank(m) == rank_oracle(m)


def _echelon_cases():
    """Seeded random matrices over Q, F2, F3 and F5: the empty shapes,
    all-zero matrices (density 0), duplicate rows and dense ones."""
    for fld in (QQ, GF(2), GF(3), GF(5)):
        rng = random.Random(fld.char + 101)
        shapes = [(0, 4), (4, 0), (0, 0), (3, 3)]
        shapes += [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(30)]
        for nrows, ncols in shapes:
            for density in (0.0, 0.3, 0.7):
                yield _random_matrix(rng, fld, nrows, ncols, density)


def test_rref_and_kernel_match_recorded_digest():
    """sha256 over (field, pivots, reduced pivot rows, kernel basis) of every
    case above, recorded with the dense row-major elimination: the reduced
    echelon form is unique, so any pivot order must reproduce it."""
    h = hashlib.sha256()
    for m in _echelon_cases():
        rows, pivots = rref(m)
        dense = _dense(m.field, rows, m.ncols)
        h.update(repr((m.field, pivots, dense, kernel_basis(m))).encode())
    assert h.hexdigest() == "9ae1808d2fae73327a7295fcac34770918863b327df034470f3dc5c6621c5d65"


def test_kernel_zero_matrix():
    m = _mat(QQ, [[0, 0, 0], [0, 0, 0]])
    basis = kernel_basis(m)
    assert len(basis) == 3
    assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_kernel_one_relation():
    m = _mat(QQ, [[1, 1]])
    assert kernel_basis(m) == [[Fraction(-1), Fraction(1)]]


def test_kernel_multiply_back_random():
    rng = random.Random(11)
    for fld in (QQ, GF(3), GF(7)):
        for _ in range(15):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[fld.of(rng.randint(-4, 4)) for _ in range(nc)] for _ in range(nr)]
            m = _mat(fld, rows)
            basis = kernel_basis(m)
            assert len(basis) == nc - rank(m)
            for v in basis:
                assert all(x == 0 for x in _mul_vec(m, v))


def test_rank_plus_kernel_dim_is_column_count():
    rng = random.Random(13)
    for fld in (QQ, GF(2), GF(5)):
        for _ in range(10):
            nr, nc = rng.randint(1, 7), rng.randint(1, 7)
            rows = [[fld.of(rng.randint(-3, 3)) for _ in range(nc)] for _ in range(nr)]
            m = _mat(fld, rows)
            assert rank(m) + len(kernel_basis(m)) == nc


def test_hilbert_like_matrices_stay_exact():
    # ill-conditioned for floats; exact arithmetic must see full rank
    for n in (4, 6, 8):
        rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
        assert rank(_mat(QQ, rows)) == n
    # integer Hilbert-like matrix: lcm-scaled rows
    n = 7
    rows = [[(362880 // (i + j + 1)) for j in range(n)] for i in range(n)]
    sparse, sf = _snf(rows, want_certs=True)
    assert snf_certificate_ok(sparse, sf)
    assert len(sf.factors) == n


def test_snf_examples():
    assert _snf([[2], [3]])[1].unit_rows == []  # factor 1, found by gcd steps
    assert _snf([[10]])[1].factors == [10]
    assert _snf([[10]])[1].free_rank == 0
    assert _snf([[2, 0], [0, 3]])[1].factors == [1, 6]
    sf = _snf([[0]])[1]
    assert sf.factors == [] and sf.free_rank == 1


def test_snf_divisibility_and_certificates_random():
    rng = random.Random(99)
    for _ in range(150):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-12, 12) for _ in range(nc)] for _ in range(nr)]
        sparse, sf = _snf(rows, want_certs=True)
        for a, b in zip(sf.factors, sf.factors[1:]):
            assert b % a == 0
        assert snf_certificate_ok(sparse, sf)


_I2, _SWAP = [[1, 0], [0, 1]], [[0, 1], [1, 0]]


@pytest.mark.parametrize(
    "dense, forged",
    [
        # U*A*V = diag(0, 1): the factor sits off the literal diagonal
        ([[0, 0], [0, 1]], SmithForm([1], 1, U=_I2, V=_I2)),
        ([[-1]], SmithForm([-1], 0, U=[[1]], V=[[1]])),  # a negative factor
        ([[1]], SmithForm([1], 5, U=[[1]], V=[[1]])),  # a wrong free rank
        ([[1]], SmithForm([1, 1], -1, U=[[1]], V=[[1]])),  # more factors than fit
        ([[2, 0], [0, 3]], SmithForm([2, 3], 0, U=_I2, V=_I2)),  # 2 does not divide 3
        ([[0, 0], [0, 1]], SmithForm([], 2, U=[], V=_I2)),  # U of the wrong shape
        ([[2, 0], [0, 1]], SmithForm([1, 2], 0, U=[[0, 1], [2, 1]], V=_SWAP)),  # det U = -2
    ],
)
def test_snf_certificate_rejects_forgeries(dense, forged):
    rows = sparse_rows(dense, len(dense[0]))
    assert not snf_certificate_ok(rows, forged)


def test_snf_certificate_accepts_the_literal_diagonal():
    rows = sparse_rows([[0, 0], [0, 1]], 2)
    assert snf_certificate_ok(rows, SmithForm([1], 1, U=_SWAP, V=_SWAP))
    assert snf_certificate_ok(rows, smith_normal_form(rows, 2, want_certs=True))


def test_snf_rejects_non_integers():
    with pytest.raises(InputError):
        _snf([[Fraction(1, 2)]])


@pytest.mark.parametrize(
    "ncols, rows",
    [
        (1, [[(0, 0)]]),  # a zero value
        (2, [[(5, 1)]]),  # a column past ncols
        (2, [[(-1, 1)]]),
        (1, [[(0, 2), (0, 3)]]),  # a repeated column
        (2, [[(1, 1), (0, 1)]]),  # columns out of order
        (1, [[(0, 1.0)]]),  # not an int
    ],
)
def test_snf_rejects_malformed_sparse_rows(ncols, rows):
    with pytest.raises(InputError):
        smith_normal_form(rows, ncols)


def _determinantal_factors(dense):
    """Invariant factors from determinantal divisors, independently of the
    Smith form: d_k is the gcd of the k x k minors, and factor k is
    d_k / d_(k-1)."""
    nr, nc = len(dense), len(dense[0])
    factors, prev = [], 1
    for k in range(1, min(nr, nc) + 1):
        d = 0
        for rs in combinations(range(nr), k):
            for cs in combinations(range(nc), k):
                d = gcd(d, det_int([[dense[i][j] for j in cs] for i in rs]))
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
    return factors


def _small_dense(rng, nr, nc):
    return [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]


def _no_units(rng, nr, nc):
    # every entry a multiple of 2 or 3, so no unit pivot exists at the start
    return [[rng.choice((2, 3)) * rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]


def _boundary_like(rng, nr, nc):
    # sparse +-1 columns with at most three entries, like a chain boundary
    dense = [[0] * nc for _ in range(nr)]
    for j in range(nc):
        for i in rng.sample(range(nr), min(nr, rng.randint(0, 3))):
            dense[i][j] = rng.choice((1, -1))
    return dense


@pytest.mark.parametrize(
    "kind, seed", [(_small_dense, 11), (_no_units, 12), (_boundary_like, 13)]
)
def test_snf_matches_determinantal_divisors(kind, seed):
    """Factors and free rank agree with the determinantal divisors on seeded
    random matrices up to 5 x 6, and the certificates of the same pivot
    order hold.  The rows of the unit pivots carry a unimodular block: some
    minor on them is +-1, which a row of a non-unit pivot would break."""
    rng = random.Random(seed)
    for _ in range(100):
        nr, nc = rng.randint(1, 5), rng.randint(1, 6)
        dense = kind(rng, nr, nc)
        factors = _determinantal_factors(dense)
        rows, sf = _snf(dense)
        assert (sf.factors, sf.free_rank) == (factors, nc - len(factors)), dense
        units = sf.unit_rows
        assert len(set(units)) == len(units) <= factors.count(1)
        assert not units or any(
            abs(det_int([[dense[i][j] for j in cs] for i in units])) == 1
            for cs in combinations(range(nc), len(units))
        ), dense
        _, cert = _snf(dense, want_certs=True)
        assert cert.factors == factors
        assert snf_certificate_ok(rows, cert), dense


def test_chain_homology_clears_only_unit_pivot_rows():
    """The counterexample of `exactla.chain_homology`'s docstring, through
    the routine with a Smith backend on integer sparse rows that clears
    ``unit_rows``: C2 = Z<f>, C1 = Z<e0, e1>, C0 = Z<v>, with d f =
    3 e0 - 2 e1, d e0 = 2 v and d e1 = 3 v, has zero homology over Z.  d f
    has no unit pivot, so nothing is cleared; dropping column e0 or e1 of
    d e would leave a false Z/3 or Z/2."""
    sizes = [1, 2, 1, 0]
    rows = {1: [[(0, 2), (1, 3)]], 2: [[(0, 3)], [(0, -2)]]}

    def smith(k, drop):
        place = {j: i for i, j in enumerate(j for j in range(sizes[k]) if j not in drop)}
        kept = [[(place[j], x) for j, x in row if j in place] for row in rows[k]]
        sf = smith_normal_form(kept, len(place))
        return len(sf.factors), [d for d in sf.factors if d > 1], set(sf.unit_rows)

    assert exactla.chain_homology(sizes, smith) == ({}, {})
    assert smith(2, ()) == (1, [], set())
    assert smith(1, {0}) == (1, [3], set()) and smith(1, {1}) == (1, [2], set())


def test_mixed_domain_rejected():
    from bigraded.errors import DomainError, WorkbenchError

    with pytest.raises(DomainError):
        _mat(GF(3), [[Fraction(1, 3)]])  # 1/3 has no meaning mod 3
    with pytest.raises(WorkbenchError):
        _mat(QQ, [[object()]])
    # the sparse constructor checks every value the same way
    with pytest.raises(DomainError):
        Matrix(GF(3), 1, 1, [[(0, Fraction(1, 3))]])
    with pytest.raises(WorkbenchError):
        Matrix(QQ, 1, 1, [[(0, object())]])
    with pytest.raises(InputError):
        sparse_rows([[1, 2], [3]], 2)  # a ragged dense matrix


@pytest.mark.parametrize(
    "nrows, ncols, rows",
    [
        (2, 2, [[(0, 1)]]),  # one row short
        (1, 2, [[(1, 1), (0, 1)]]),  # columns out of order
        (1, 2, [[(0, 1), (0, 2)]]),  # a repeated column
        (1, 2, [[(2, 1)]]),  # column out of range
        (1, 2, [[(-1, 1)]]),
    ],
)
def test_malformed_sparse_rows_rejected(nrows, ncols, rows):
    with pytest.raises(InputError):
        Matrix(QQ, nrows, ncols, rows)


def test_deterministic_pivoting():
    rows = [[0, 2, 1], [3, 1, 0], [3, 3, 1]]
    m = _mat(QQ, rows)
    r1, p1 = rref(m)
    r2, p2 = rref(_mat(QQ, rows))
    assert r1 == r2 and p1 == p2


def test_parse_int_matrix_bounds_the_invariant_factors_it_lets_through():
    """Hadamard's bound, the product of the nonzero rows' norms, bounds every
    invariant factor: a matrix under it has factors Python prints, and one
    over it is refused before its Smith form is taken."""
    a, b = int("1" * 2000), int("7" * 2000)
    rows, ncols = parse_int_matrix(f"{a} 2\n0 0\n3 {b}\n")
    factors = smith_normal_form(rows, ncols).factors
    assert factors == [1, a * b - 6] and len(str(factors[-1])) == 3999
    with pytest.raises(InputError, match="^the invariant factors may have more than 4300 digits"):
        parse_int_matrix(f"{'1' * 4000} 2\n3 {b}\n")
    with pytest.raises(InputError, match="more than 4300 digits"):
        parse_int_matrix(f"{10**2150} 0\n0 {10**2150}\n")  # the factor 10**4300 has 4301 digits


def test_parse_int_matrix():
    assert parse_int_matrix("1 2\n3 4\n") == ([[(0, 1), (1, 2)], [(0, 3), (1, 4)]], 2)
    assert parse_int_matrix("0 5 0\n# comment\n0 0 0\n") == ([[(1, 5)], []], 3)
    with pytest.raises(InputError):
        parse_int_matrix("1 2\n3\n")
    with pytest.raises(InputError):
        parse_int_matrix("1 x\n")
    with pytest.raises(InputError):
        parse_int_matrix("# nothing\n")


def test_field_by_name():
    assert field_by_name("Q") is QQ
    assert field_by_name("F5").ell == 5
    with pytest.raises(InputError):
        field_by_name("F4")
    for name in ("F" + "1" * 5000, "F\u00b2", "F2147483648", "F"):
        with pytest.raises(InputError):
            field_by_name(name)


def test_prime_fields_match_a_sieve():
    n = 10**4
    sieve = [False, False] + [True] * (n - 2)
    for p in range(2, n):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(range(p * p, n, p))
    for ell in range(-2, n):
        try:
            PrimeField(ell)
        except InputError:
            assert ell < 0 or not sieve[ell], ell
        else:
            assert sieve[ell], ell
    PrimeField(PRIME_BOUND - 1)  # the largest prime below 2**31
    for ell in (PRIME_BOUND, 1000000000000000003, 10**400):
        with pytest.raises(InputError):
            PrimeField(ell)
