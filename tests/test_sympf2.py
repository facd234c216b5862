import random
import re
from functools import cache
from itertools import combinations, permutations, product

import pytest

from bigraded import sympf2
from bigraded.errors import DomainError, InputError
from bigraded.exactla import GF, Matrix, rank
from bigraded.sympf2 import (
    CANONICAL_SUBSETS,
    SWAP_MATRIX,
    IsomorphismReport,
    all_symplectic_matrices,
    apply_matrix,
    compose_lr,
    cycle_lengths,
    cycle_notation,
    is_symplectic,
    mat_mul,
    matrix_from_rows,
    pairing,
    parse_matrix,
    perm_sign,
    phi,
    totally_nonorthogonal_subsets,
    vector_name,
    vector_of_name,
    verify_isomorphism,
)

IDENTITY = matrix_from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def test_pairing_is_alternating_and_standard():
    for v in range(16):
        assert pairing(v, v) == 0
    e1, f1, e2, f2 = 1, 2, 4, 8
    assert pairing(e1, f1) == 1 and pairing(e2, f2) == 1
    assert pairing(e1, e2) == 0 and pairing(e1, f2) == 0


def test_exactly_six_subsets_matching_printed_list():
    subs = totally_nonorthogonal_subsets()
    assert len(subs) == 6
    assert subs[0] == frozenset(
        vector_of_name(nm)
        for nm in ("e1", "f1", "e1+f1+e2", "e1+f1+f2", "e1+f1+e2+f2")
    )
    assert list(subs) == list(CANONICAL_SUBSETS)


def test_all_pairwise_pairings_are_one():
    for s in totally_nonorthogonal_subsets():
        assert all(pairing(u, v) == 1 for u, v in combinations(sorted(s), 2))
        assert 0 not in s


def test_phi_swap_is_the_triple_transposition():
    p = phi(SWAP_MATRIX)
    assert cycle_notation(p) == "(12)(34)(56)"
    assert perm_sign(p) == -1  # odd, hence nontrivial in the mod-2 abelianization


def test_phi_identity():
    assert phi(IDENTITY) == (0, 1, 2, 3, 4, 5)
    assert cycle_notation(phi(IDENTITY)) == "()"


def test_phi_rejects_nonsymplectic():
    bad = matrix_from_rows([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    with pytest.raises(DomainError):
        phi(bad)


def test_group_permutes_the_subsets():
    # closure: applying any form-preserving matrix permutes the six subsets
    subs = set(totally_nonorthogonal_subsets())
    rng = random.Random(6)
    group = all_symplectic_matrices()
    for m in rng.sample(group, 60):
        for s in subs:
            assert frozenset(apply_matrix(v, m) for v in s) in subs


def test_phi_is_a_homomorphism_on_random_pairs():
    rng = random.Random(9)
    group = all_symplectic_matrices()
    for _ in range(300):
        a, b = rng.choice(group), rng.choice(group)
        assert phi(mat_mul(a, b)) == compose_lr(phi(a), phi(b))


def test_verify_isomorphism():
    rep = verify_isomorphism(random_pairs=500)
    assert rep.group_order == 720
    assert rep.kernel_trivial
    assert rep.image_is_full_symmetric
    assert rep.has_transposition and rep.has_six_cycle
    assert rep.is_isomorphism


def test_parse_matrix_round_trip():
    m = parse_matrix("0,0,1,0;0,0,0,1;1,0,0,0;0,1,0,0")
    assert m == SWAP_MATRIX
    assert is_symplectic(m)


def test_vector_names():
    assert vector_name(vector_of_name("e1+f1+e2")) == "e1+f1+e2"
    assert vector_name(0) == "0"


def _oracle_symplectic(m) -> bool:
    # the form is preserved on all 16 ordered basis pairs, and M has rank 4
    basis = [1 << i for i in range(4)]
    preserved = all(
        pairing(apply_matrix(u, m), apply_matrix(v, m)) == pairing(u, v)
        for u in basis
        for v in basis
    )
    rows = [[(j, 1) for j in range(4) if (r >> j) & 1] for r in m]
    return preserved and rank(Matrix(GF(2), 4, 4, rows)) == 4


def test_is_symplectic_matches_the_oracle_on_all_matrices():
    passing = 0
    for m in product(range(16), repeat=4):
        expected = _oracle_symplectic(m)
        assert is_symplectic(m) == expected, m
        passing += expected
    assert passing == 720


@cache
def _oracle_group():
    return tuple(m for m in product(range(16), repeat=4) if _oracle_symplectic(m))


def test_group_is_the_oracle_sublist_in_lexicographic_order():
    # verify_isomorphism draws its random pairs by index into this list
    assert all_symplectic_matrices() == list(_oracle_group())


def test_group_search_prunes_rows_by_their_pairings(monkeypatch):
    """The search pairs vectors a few hundred times; testing every one of
    the 2^16 matrices needs at least one pairing each."""
    calls = 0

    def counted(u, v):
        nonlocal calls
        calls += 1
        return pairing(u, v)

    monkeypatch.setattr(sympf2, "pairing", counted)
    assert len(all_symplectic_matrices()) == 720
    assert 0 < calls <= 1024


def _oracle_phi(m):
    index = {s: i for i, s in enumerate(CANONICAL_SUBSETS)}
    return tuple(index[frozenset(apply_matrix(v, m) for v in s)] for s in CANONICAL_SUBSETS)


def test_phi_matches_the_subset_oracle_on_the_whole_group():
    perms = [phi(m) for m in _oracle_group()]
    assert perms == [_oracle_phi(m) for m in _oracle_group()]
    assert len(set(perms)) == 720


def test_verify_isomorphism_report_at_the_cli_default():
    assert verify_isomorphism(10000, 2) == IsomorphismReport(
        group_order=720,
        kernel_trivial=True,
        image_is_full_symmetric=True,
        homomorphism_checked_pairs=10000,
        has_transposition=True,
        has_six_cycle=True,
    )


def test_verify_isomorphism_refuses_a_negative_pair_count_before_any_work(monkeypatch):
    """As the command line does: -3 pairs would check none, and report an
    isomorphism checked on no pair."""

    def work():
        raise AssertionError("the group was enumerated")

    monkeypatch.setattr(sympf2, "all_symplectic_matrices", work)
    with pytest.raises(InputError, match="^--pairs must be >= 0, got -3$"):
        verify_isomorphism(random_pairs=-3)


@pytest.mark.parametrize("entry", [2, 3, -1, 10**29 + 1])
def test_matrix_entries_are_zero_or_one(entry):
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    rows[2][3] = entry
    with pytest.raises(InputError, match=f"must be 0 or 1, got {entry}"):
        matrix_from_rows(rows)
    text = ";".join(",".join(map(str, r)) for r in rows)
    with pytest.raises(InputError, match=f"must be 0 or 1, got {entry}"):
        parse_matrix(text)


def _orbit(p, i):
    orbit, j = {i}, p[i]
    while j not in orbit:
        orbit.add(j)
        j = p[j]
    return frozenset(orbit)


def _parse_cycles(text, n):
    p = list(range(n))
    for cyc in re.findall(r"\((\d*)\)", text):
        labels = [int(c) - 1 for c in cyc]
        for a, b in zip(labels, labels[1:] + labels[:1]):
            p[a] = b
    return tuple(p)


@pytest.mark.parametrize("n", [6, 5])  # odd n tells the sign from the cycle-count parity
def test_cycle_routines_on_all_permutations(n):
    for p in permutations(range(n)):
        inversions = sum(1 for i, j in combinations(range(n), 2) if p[i] > p[j])
        assert perm_sign(p) == (-1) ** inversions
        orbits = {_orbit(p, i) for i in range(n)}
        assert cycle_lengths(p) == sorted(len(o) for o in orbits)
        text = cycle_notation(p)
        assert re.fullmatch(r"(\(\d{2,}\))+|\(\)", text), text
        assert _parse_cycles(text, n) == p
