import os
import random

import pytest

from bigraded.errors import InputError
from bigraded.presentations import (
    BRAID3,
    abelianization,
    exponent_matrix,
    parse_presentation,
    presentation,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "bigraded", "fixtures")


def _word_scan_oracle(word, gens):
    """Independent exponent-sum count by scanning tokens one at a time."""
    sums = {g: 0 for g in gens}
    for tok in word:
        if tok.islower():
            sums[tok] += 1
        else:
            sums[tok.lower()] -= 1
    return [sums[g] for g in gens]


def test_braid_group_abelianization_is_z():
    inv = abelianization(BRAID3)
    assert inv.free_rank == 1 and inv.torsion == ()
    assert inv.symbol() == "Z"


def test_braid_relator_exponent_sums():
    rows = exponent_matrix(BRAID3)
    assert rows == [[1, -1]]
    assert rows[0] == _word_scan_oracle(BRAID3.relators[0], ["a", "b"])


def test_torsion_example():
    p = presentation(["t"], ["t t t t t t t t t t"])
    inv = abelianization(p)
    assert inv.symbol() == "Z/10"


def test_gamma21_fixture():
    with open(os.path.join(FIXTURES, "gamma21.abel")) as fh:
        p = parse_presentation(fh.read())
    assert abelianization(p).symbol() == "Z/10"


def test_file_relators_are_read_like_presentation_words():
    """A ``rel:`` line is read by the grammar of `presentation`: compact
    single-letter words, spaced tokens and multi-letter generator names."""
    p = parse_presentation("gens: a b\nrel: abAB\n")
    assert p == presentation(["a", "b"], ["abAB"])
    assert p.relators == (("a", "b", "A", "B"),)
    assert abelianization(p).symbol() == "Z^2"
    assert parse_presentation("gens: a b\nrel: a b A B\n") == p
    q = parse_presentation("gens: x1 x2\nrel: x1\nrel: x1 X2 x2\n")
    assert q.relators == (("x1",), ("x1", "X2", "x2"))


def test_no_relators():
    p = presentation(["a", "b"], [])
    inv = abelianization(p)
    assert inv.free_rank == 2 and inv.torsion == ()
    assert exponent_matrix(p) == []


def test_single_relator_examples():
    assert exponent_matrix(presentation(["a"], ["a a a"])) == [[3]]
    assert exponent_matrix(presentation(["a", "b"], ["abAB"])) == [[0, 0]]
    # a whole-word generator is one token, not a compact word
    assert exponent_matrix(presentation(["alpha"], ["alpha"])) == [[1]]
    assert exponent_matrix(presentation(["alpha", "b"], ["Alpha", "b alpha"])) == [[-1, 0], [1, 1]]


def test_abelianization_invariant_under_tietze_like_moves():
    rng = random.Random(31)
    gens = ["a", "b", "c"]
    for _ in range(30):
        words = []
        for _ in range(rng.randint(1, 3)):
            length = rng.randint(1, 6)
            toks = [rng.choice(gens + [g.upper() for g in gens]) for _ in range(length)]
            words.append(" ".join(toks))
        base = abelianization(presentation(gens, words))
        # permute relators
        shuffled = list(words)
        rng.shuffle(shuffled)
        assert abelianization(presentation(gens, shuffled)) == base
        # invert one relator
        toks = words[0].split()
        inverted = " ".join(t.lower() if t.isupper() else t.upper() for t in reversed(toks))
        assert abelianization(presentation(gens, [inverted] + words[1:])) == base
        # cyclically rotate one relator
        rotated = " ".join(toks[1:] + toks[:1]) if len(toks) > 1 else words[0]
        assert abelianization(presentation(gens, [rotated] + words[1:])) == base


def test_torsion_divisibility_chain():
    rng = random.Random(41)
    for _ in range(30):
        gens = ["a", "b", "c"]
        words = []
        for _ in range(rng.randint(1, 4)):
            toks = [rng.choice(gens + [g.upper() for g in gens]) for _ in range(rng.randint(1, 8))]
            words.append(" ".join(toks))
        inv = abelianization(presentation(gens, words))
        for x, y in zip(inv.torsion, inv.torsion[1:]):
            assert y % x == 0


def test_malformed_relator_rejected():
    with pytest.raises(InputError):
        presentation(["a"], ["a z"])
    with pytest.raises(InputError):
        parse_presentation("rel: a\n")
    with pytest.raises(InputError):
        parse_presentation("junk line\n")
