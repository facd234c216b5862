import itertools
import random
from collections import Counter

import pytest

from bigraded.errors import DomainError, InputError
from bigraded.freealg import (
    betti_table_f2,
    cohen_generators_f2,
    free_gerstenhaber_betti,
    free_graded_lie_basis,
    free_series,
    gen,
    generator_set,
    letter_counts,
    lie_basis_char2,
    lie_dimensions_bruteforce,
    _lyndon_counts,
)
from bigraded.grading import slope
from series_oracle import betti_generating_function

SIGMA = gen("sigma", 1, 0)
TAU = gen("tau", 1, 1)
LAM = gen("lambda", 3, 2)
RHO = gen("rho", 2, 2)


def _content_and_bidegree(basis):
    return {(b.content, b.g, b.d) for b in basis}


def test_figure_lgens_box():
    basis = free_graded_lie_basis([SIGMA, LAM, RHO], (4, 3))
    got = _content_and_bidegree(basis)
    expected = {
        (("sigma",), 1, 0),
        (("sigma", "sigma"), 2, 1),
        (("rho",), 2, 2),
        (("lambda",), 3, 2),
        (("rho", "sigma"), 3, 3),
        (("lambda", "sigma"), 4, 3),
    }
    assert got == expected
    # the triple self-bracket [sigma,[sigma,sigma]] dies by the Jacobi identity
    assert not any(b.content == ("sigma", "sigma", "sigma") for b in basis)


def test_tau_self_bracket_vanishes():
    # [tau,tau] = 0: odd homological degree means even shifted parity
    assert [b.name for b in free_graded_lie_basis([TAU], (3, 4))] == ["tau"]


def test_sigma_only_large_box():
    assert [b.name for b in free_graded_lie_basis([SIGMA], (8, 8))] == [
        "sigma",
        "[sigma,sigma]",
    ]


@pytest.mark.parametrize(
    "gens,box",
    [
        ([SIGMA, LAM, RHO], (6, 6)),
        ([SIGMA, TAU], (6, 6)),
        ([SIGMA, TAU, gen("rho1", 2, 2), gen("rho3", 3, 2)], (5, 5)),
        ([gen("a", 1, 1), gen("b", 1, 2)], (5, 6)),
    ],
)
def test_basis_dimensions_match_bruteforce_relation_quotient(gens, box):
    oracle = lie_dimensions_bruteforce(gens, box)
    mine = {}
    for b in free_graded_lie_basis(gens, box):
        mine[(b.g, b.d)] = mine.get((b.g, b.d), 0) + 1
    assert mine == oracle


def test_bracket_bidegree_additivity():
    for b in free_graded_lie_basis([SIGMA, LAM, RHO], (8, 8)):
        # total degree = letter degrees + bracket count
        letters = len(b.content)
        letter_d = {"sigma": 0, "lambda": 2, "rho": 2}
        assert b.d == sum(letter_d[nm] for nm in b.content) + letters - 1


def test_generator_validation():
    with pytest.raises(DomainError):
        gen("x", 0, 1)
    with pytest.raises(InputError):
        generator_set([SIGMA, gen("sigma", 2, 2)])


def test_free_gerstenhaber_betti_sigma_tau_degree_one_row():
    t = free_gerstenhaber_betti([SIGMA, TAU], (6, 3))
    assert [t.dim(g, 1) for g in range(1, 7)] == [1, 2, 2, 2, 2, 2]


def test_free_gerstenhaber_betti_empty():
    t = free_gerstenhaber_betti([], (4, 4))
    assert t.dims == {}


def test_free_gerstenhaber_betti_sigma_rows():
    t = free_gerstenhaber_betti([SIGMA], (6, 2))
    assert [t.dim(g, 0) for g in range(1, 7)] == [1] * 6
    assert [t.dim(g, 1) for g in range(1, 7)] == [0, 1, 1, 1, 1, 1]
    assert [t.dim(g, 2) for g in range(1, 7)] == [0] * 6


def _enumerate_monomials(letters, box):
    """Independent exhaustive monomial generator (explicit exponent vectors)."""
    g_max, d_max = box
    out = {}

    def rec(i, g, d):
        if g > g_max or d > d_max:
            return
        if i == len(letters):
            if (g, d) != (0, 0):
                out[(g, d)] = out.get((g, d), 0) + 1
            return
        x = letters[i]
        cap = 1 if x.d % 2 == 1 else g_max
        e = 0
        while e <= cap and g + e * x.g <= g_max and d + e * x.d <= d_max:
            rec(i + 1, g + e * x.g, d + e * x.d)
            e += 1

    rec(0, 0, 0)
    return out


def test_betti_agrees_with_exhaustive_enumeration_and_generating_function():
    box = (5, 5)
    basis = free_graded_lie_basis([SIGMA, TAU], box)
    table = free_gerstenhaber_betti([SIGMA, TAU], box)
    enumerated = _enumerate_monomials(basis, box)
    assert {k: v for k, v in table.dims.items() if v} == enumerated
    assert betti_generating_function(basis, box, False) == enumerated


def test_cohen_generators_sigma():
    got = {(c.name, c.g, c.d) for c in cohen_generators_f2([SIGMA], (4, 4))}
    # mod 2 the self-bracket vanishes (xi is its quadratic refinement), so the
    # indecomposables over one degree-zero generator are the xi-towers alone
    assert got == {("sigma", 1, 0), ("xi(sigma)", 2, 1), ("xi^2(sigma)", 4, 3)}


def test_cohen_generators_tau():
    got = {(c.name, c.g, c.d) for c in cohen_generators_f2([TAU], (2, 3))}
    assert got == {("tau", 1, 1), ("xi(tau)", 2, 3)}


def test_cohen_weight_bound():
    # classes built from generators with d >= r keep d >= r
    gens = [gen("sigma", 1, 0, 0), gen("tau", 1, 1, 1), gen("rho3", 3, 2, 2)]
    for c in cohen_generators_f2(gens, (8, 8)):
        assert c.d >= c.r


def test_betti_f2_entries():
    t = betti_table_f2([SIGMA], (5, 5))
    assert t.dim(2, 1) == 1  # xi(sigma)
    assert t.dim(2, 0) == 1  # sigma^2


def test_betti_f2_matches_exhaustive_monomials():
    box = (5, 5)
    letters = cohen_generators_f2([SIGMA, TAU], box)
    table = betti_table_f2([SIGMA, TAU], box)

    g_max, d_max = box
    out = {}

    def rec(i, g, d):
        if g > g_max or d > d_max:
            return
        if i == len(letters):
            if (g, d) != (0, 0):
                out[(g, d)] = out.get((g, d), 0) + 1
            return
        x = letters[i]
        e = 0
        while g + e * x.g <= g_max and d + e * x.d <= d_max:
            rec(i + 1, g + e * x.g, d + e * x.d)
            e += 1

    rec(0, 0, 0)
    assert {k: v for k, v in table.dims.items() if v} == out
    assert betti_generating_function(letters, box, True) == out


def test_slope_monotonicity_of_bracket_and_operations():
    basis = free_graded_lie_basis([SIGMA, LAM, RHO], (8, 8))
    slopes = {b.name: slope((b.g, b.d)) for b in basis}
    for b1 in basis:
        for b2 in basis:
            g, d = b1.g + b2.g, b1.d + b2.d + 1
            if g <= 8 and d <= 8:
                assert slope((g, d)) >= min(slopes[b1.name], slopes[b2.name])
        for m, a in ((2, 1), (3, 2)):
            g, d = m * b1.g, m * b1.d + a
            assert slope((g, d)) >= slopes[b1.name]


def test_char2_basis_is_lyndon_only():
    basis = lie_basis_char2([SIGMA, TAU], (4, 4))
    assert not any(b.doubled for b in basis)
    names = {b.name for b in basis}
    assert "tau" in names and "[sigma,tau]" in names and "[sigma,sigma]" not in names


def _lyndon_bruteforce(gens, box):
    """(word, g, d, name) of every Lyndon word in the box: every word is
    tried, kept if it is smaller than each of its proper rotations, and
    named by its recursive standard factorization."""
    gens = generator_set(gens)
    g_max, d_max = box

    def lyndon(w):
        return all(w < w[i:] + w[:i] for i in range(1, len(w)))

    def name(w):
        if len(w) == 1:
            return gens[w[0]].name
        i = next(i for i in range(1, len(w)) if lyndon(w[i:]))
        return f"[{name(w[:i])},{name(w[i:])}]"

    out = []
    for length in range(1, g_max + 1):
        for w in itertools.product(range(len(gens)), repeat=length):
            g = sum(gens[i].g for i in w)
            d = sum(gens[i].d for i in w) + length - 1
            if g <= g_max and d <= d_max and lyndon(w):
                out.append((w, g, d, name(w)))
    return sorted(out, key=lambda t: (t[1], t[2], t[3]))


def _random_gens(rng):
    return [gen(f"x{k}", rng.randint(1, 3), rng.randint(0, 3)) for k in range(rng.randint(1, 4))]


INTSTAB_GENS = [gen("sigma", 1, 0, 0), TAU, gen("rho1", 2, 2), gen("rho2", 2, 2), gen("rho3", 3, 2)]


@pytest.mark.parametrize(
    "gens,box",
    [([SIGMA, LAM, RHO, gen("rho'", 4, 4)], (8, 9)), (INTSTAB_GENS, (6, 7))]
    + [(_random_gens(random.Random(seed)), (6, 6)) for seed in range(6)],
)
def test_lyndon_enumeration_matches_bruteforce(gens, box):
    expected = _lyndon_bruteforce(gens, box)
    char2 = lie_basis_char2(gens, box)
    assert [(b.word, b.g, b.d, b.name) for b in char2] == expected
    assert not any(b.doubled for b in char2)
    doubles = [
        (w, 2 * g, 2 * d + 1, f"[{nm},{nm}]")
        for w, g, d, nm in expected
        if d % 2 == 0 and 2 * g <= box[0] and 2 * d + 1 <= box[1]
    ]
    basis = free_graded_lie_basis(gens, box)
    assert [(b.word, b.g, b.d, b.name) for b in basis] == sorted(
        expected + doubles, key=lambda t: (t[1], t[2], t[3])
    )


@pytest.mark.parametrize("all_polynomial", [False, True])
def test_free_series_matches_generating_function(all_polynomial):
    rng = random.Random(17 + all_polynomial)
    cases = [(free_graded_lie_basis([SIGMA, LAM, RHO], (9, 9)), (9, 9))]
    cases += [(cohen_generators_f2(INTSTAB_GENS, (6, 7)), (6, 7))]
    for _ in range(10):
        # few cells, many letters each: binomials with n > 1
        letters = [gen(f"y{k}", rng.randint(1, 3), rng.randint(0, 3)) for k in range(rng.randint(0, 12))]
        cases.append((letters, (rng.randint(0, 7), rng.randint(0, 7))))
    for letters, box in cases:
        series = free_series(Counter((x.g, x.d) for x in letters), box, all_polynomial)
        assert series.pop((0, 0)) == 1
        assert series == betti_generating_function(letters, box, all_polynomial)


def _cells(letters):
    return dict(Counter((x.g, x.d) for x in letters))


def _assert_counts_equal_enumeration(gens, box):
    assert _lyndon_counts(gens, box) == _cells(lie_basis_char2(gens, box))
    assert letter_counts(gens, box, 0) == _cells(free_graded_lie_basis(gens, box))
    assert letter_counts(gens, box, 3) == letter_counts(gens, box, 0)
    assert letter_counts(gens, box, 2) == _cells(cohen_generators_f2(gens, box))


@pytest.mark.parametrize(
    "gens,box",
    [([SIGMA, LAM, RHO, gen("rho'", 4, 4)], (20, 21)), (INTSTAB_GENS, (14, 15))],
)
def test_letter_counts_equal_the_enumerated_cells_on_the_presets(gens, box):
    """The Witt counts are the cells of the three enumerated alphabets, on
    the vanishB and the intstab generators."""
    _assert_counts_equal_enumeration(gens, box)


def test_letter_counts_equal_the_enumerated_cells_on_random_generators():
    """Random generator sets with two generators in one cell and some at
    d = 0, and with generators outside the box."""
    rng = random.Random(29)
    for _ in range(12):
        g0, d0 = rng.randint(1, 2), rng.randint(0, 1)
        gens = [gen("a", g0, d0), gen("b", g0, d0)]
        gens += [gen(f"c{k}", rng.randint(2, 12), rng.randint(0, 12)) for k in range(rng.randint(0, 3))]
        _assert_counts_equal_enumeration(gens, (10, 11))
    assert letter_counts([], (4, 4), 0) == {}
    with pytest.raises(InputError, match="box bounds"):
        letter_counts([SIGMA], (0, 3), 2)
    with pytest.raises(InputError, match="duplicate"):
        letter_counts([SIGMA, SIGMA], (3, 3), 0)
