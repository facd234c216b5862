import random
from fractions import Fraction

import pytest

from bigraded.errors import InputError
from bigraded.exactla import (
    GF,
    QQ,
    Matrix,
    field_by_name,
    kernel_basis,
    normalize_triple,
    parse_int_matrix,
    rank,
    rank_oracle,
    rref,
    smith_normal_form,
    snf_certificate_ok,
)


def test_rank_identity():
    assert rank(Matrix.identity(QQ, 3)) == 3


def test_rank_mod2():
    assert rank(Matrix(GF(2), 1, 1, [[2]])) == 0


def test_rank_agrees_with_independent_oracle():
    rng = random.Random(5)
    f = GF(5)
    for _ in range(25):
        rows = [[rng.randint(0, 4) for _ in range(20)] for _ in range(20)]
        m = Matrix(f, 20, 20, rows)
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
    return Matrix(fld, nrows, ncols, rows)


@pytest.mark.parametrize("fld", [QQ, GF(2), GF(3), GF(5)])
def test_sparse_rank_matches_oracle(fld):
    rng = random.Random(fld.char + 17)
    shapes = [(0, 4), (4, 0), (0, 0), (1, 1), (5, 5)]
    shapes += [(rng.randint(1, 14), rng.randint(1, 14)) for _ in range(40)]
    for nrows, ncols in shapes:
        for density in (0.0, 0.15, 0.5, 1.0):
            m = _random_matrix(rng, fld, nrows, ncols, density)
            assert rank(m) == rank_oracle(m), (nrows, ncols, density, m.rows)
    # a duplicate block: rank counts it once
    m = Matrix(fld, 6, 3, [[1, 0, 1], [0, 1, 1]] * 3)
    assert rank(m) == rank_oracle(m) == 2


def test_kernel_zero_matrix():
    m = Matrix(QQ, 2, 3, [[0, 0, 0], [0, 0, 0]])
    basis = kernel_basis(m)
    assert len(basis) == 3
    assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_kernel_one_relation():
    m = Matrix(QQ, 1, 2, [[1, 1]])
    assert kernel_basis(m) == [[Fraction(-1), Fraction(1)]]


def test_kernel_multiply_back_random():
    rng = random.Random(11)
    for fld in (QQ, GF(3), GF(7)):
        for _ in range(15):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[fld.of(rng.randint(-4, 4)) for _ in range(nc)] for _ in range(nr)]
            m = Matrix(fld, nr, nc, rows)
            basis = kernel_basis(m)
            assert len(basis) == nc - rank(m)
            for v in basis:
                assert all(fld.is_zero(x) for x in m.mul_vec(v))


def test_rank_plus_kernel_dim_is_column_count():
    rng = random.Random(13)
    for fld in (QQ, GF(2), GF(5)):
        for _ in range(10):
            nr, nc = rng.randint(1, 7), rng.randint(1, 7)
            rows = [[fld.of(rng.randint(-3, 3)) for _ in range(nc)] for _ in range(nr)]
            m = Matrix(fld, nr, nc, rows)
            assert rank(m) + len(kernel_basis(m)) == nc


def test_hilbert_like_matrices_stay_exact():
    # ill-conditioned for floats; exact arithmetic must see full rank
    for n in (4, 6, 8):
        rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
        assert rank(Matrix(QQ, n, n, rows)) == n
    # integer Hilbert-like matrix: lcm-scaled rows
    n = 7
    rows = [[(362880 // (i + j + 1)) for j in range(n)] for i in range(n)]
    sf = smith_normal_form(rows, want_certs=True)
    assert snf_certificate_ok(rows, sf)
    assert len(sf.factors) == n


def test_snf_examples():
    assert smith_normal_form([[10]]).factors == [10]
    assert smith_normal_form([[10]]).free_rank == 0
    assert smith_normal_form([[2, 0], [0, 3]]).factors == [1, 6]
    sf = smith_normal_form([[0]])
    assert sf.factors == [] and sf.free_rank == 1


def test_snf_divisibility_and_certificates_random():
    rng = random.Random(99)
    for _ in range(150):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-12, 12) for _ in range(nc)] for _ in range(nr)]
        sf = smith_normal_form(rows, want_certs=True)
        for a, b in zip(sf.factors, sf.factors[1:]):
            assert b % a == 0
        assert snf_certificate_ok(rows, sf)


def test_snf_rejects_non_integers():
    with pytest.raises(InputError):
        smith_normal_form([[Fraction(1, 2)]])


def test_mixed_domain_rejected():
    from bigraded.errors import DomainError, WorkbenchError

    with pytest.raises(DomainError):
        Matrix(GF(3), 1, 1, [[Fraction(1, 3)]])  # 1/3 has no meaning mod 3
    with pytest.raises(WorkbenchError):
        Matrix(QQ, 1, 1, [[object()]])


def test_deterministic_pivoting():
    rows = [[0, 2, 1], [3, 1, 0], [3, 3, 1]]
    m = Matrix(QQ, 3, 3, rows)
    r1, p1 = rref(m)
    r2, p2 = rref(Matrix(QQ, 3, 3, rows))
    assert r1 == r2 and p1 == p2


def test_parse_int_matrix():
    assert parse_int_matrix("1 2\n3 4\n") == [[1, 2], [3, 4]]
    with pytest.raises(InputError):
        parse_int_matrix("1 2\n3\n")
    with pytest.raises(InputError):
        parse_int_matrix("1 x\n")


def test_field_by_name():
    assert field_by_name("Q") is QQ
    assert field_by_name("F5").ell == 5
    with pytest.raises(InputError):
        field_by_name("F4")


def test_normalize_triple():
    assert normalize_triple(6, 4, -2) == (3, 2, -1)
    assert normalize_triple(3, 2, -1) == (3, 2, -1)
