import re
import time
from fractions import Fraction

import pytest

from bigraded import cdga, freealg
from bigraded.errors import DomainError, InputError
from bigraded.exactla import QQ
from bigraded.grading import (
    MAX_BIDEGREES,
    Bidegree,
    VanishingLine,
    auto_g_bound,
    bidegrees_between,
    parse_line,
    parse_range,
    parse_rational,
    range_statement,
    slope,
)


def test_slope_examples():
    assert slope((4, 3)) == Fraction(3, 4)
    assert slope((5, 0)) == 0
    assert slope((6, 4)) == Fraction(2, 3)


def test_slope_genus_zero_is_domain_error():
    with pytest.raises(DomainError):
        slope((0, 3))


def test_slope_times_genus_is_degree_exactly():
    for g in range(1, 40):
        for d in range(0, 40):
            assert slope((g, d)) * g == d


def test_bidegree_invariants():
    with pytest.raises(DomainError):
        Bidegree(-1, 0)
    with pytest.raises(DomainError):
        Bidegree(0, -2)


def test_bidegrees_between_quarter_line():
    pts = bidegrees_between(Fraction(3, 4), 20)
    assert [(p.g, p.d) for p in pts] == [(1, 0), (2, 1), (3, 2), (4, 3)]


def test_bidegrees_between_zero_slope_edge():
    # (1,0) has slope 0 <= 0; this edge case is part of the contract
    pts = bidegrees_between(Fraction(0), 5)
    assert [(p.g, p.d) for p in pts] == [(1, 0)]


def _brute_force_scan(high, g_max, d_max):
    out = []
    for g in range(1, g_max + 1):
        for d in range(0, d_max + 1):
            if d >= g - 1 and Fraction(d, g) <= high:
                out.append((g, d))
    return sorted(out)


def test_bidegrees_between_four_fifths_matches_brute_force():
    # expected values computed by the independent double-loop oracle
    expected = _brute_force_scan(Fraction(4, 5), 6, 6)
    assert expected == [(1, 0), (2, 1), (3, 2), (4, 3), (5, 4)]
    pts = bidegrees_between(Fraction(4, 5), 6)
    assert [(p.g, p.d) for p in pts] == expected


def test_bidegrees_between_closure_property():
    for num, den in ((3, 4), (4, 5), (1, 2), (7, 8)):
        high = Fraction(num, den)
        pts = {(p.g, p.d) for p in bidegrees_between(high, 12)}
        for g in range(1, 13):
            for d in range(0, 14):
                inside = d >= g - 1 and Fraction(d, g) <= high
                assert ((g, d) in pts) == inside, (g, d, high)


def test_auto_g_bound():
    assert auto_g_bound(Fraction(3, 4)) == 4
    assert auto_g_bound(Fraction(4, 5)) == 5
    big = auto_g_bound(Fraction(7, 8))
    assert all(p.g <= big for p in bidegrees_between(Fraction(7, 8), big + 10))


def test_bidegrees_between_stops_at_the_finiteness_bound():
    # below slope 1 nothing lies past auto_g_bound, so a huge g_max costs nothing
    for high in (Fraction(3, 4), Fraction(0), Fraction(99, 100)):
        pts = bidegrees_between(high, 10**18)
        assert pts == bidegrees_between(high, auto_g_bound(high))
        assert pts[-1].g == auto_g_bound(high)


def test_bidegrees_between_counts_them_against_the_cap():
    # 99999/100000 holds one bidegree per genus up to 10^5, under the cap
    assert len(bidegrees_between(Fraction(99999, 100000), 10**9)) == 100_000 < MAX_BIDEGREES
    # the cap is checked before a genus is listed, so no list of 10^30 is made
    for high, g_max in ((Fraction(2), 10**9), (Fraction(10**30), 1), (Fraction(10**20 - 1, 10**20), 10**30)):
        with pytest.raises(InputError, match=f"more than {MAX_BIDEGREES} bidegrees"):
            bidegrees_between(high, g_max)


_BAD_BOXES = [
    ((-1, 3), "box bounds must be >= 1"),
    ((3, -1), "box bounds must be >= 1"),
    ((0, 3), "box bounds must be >= 1"),
    ((3, 0), "box bounds must be >= 1"),
    ((129, 1), "box bounds must be <= 128, got 129,1"),
    ((1, 129), "box bounds must be <= 128, got 1,129"),
    ((10**9, 1), "box bounds must be <= 128, got 1000000000,1"),
]


@pytest.mark.parametrize("box, message", _BAD_BOXES)
def test_every_library_box_follows_the_command_line_rule(box, message, monkeypatch):
    """Each entry point that takes a table's box raises the command line's
    input error before any work: with every counting, enumerating and
    splitting routine broken, and an unknown preset, the box is what fails."""

    def work(*_):
        raise AssertionError("work before the box check")

    for module, name in ((freealg, "letter_counts"), (freealg, "_lyndon_counts"), (freealg, "_lyndon_words"),
                         (freealg, "free_series"), (cdga, "_kunneth_split"), (cdga, "_preset")):
        monkeypatch.setattr(module, name, work)
    gens = [freealg.gen("sigma", 1, 0)]
    cx = cdga.parse_cdga_file("a 1 0\n", QQ)
    calls = [
        lambda: cdga.homology_table(cx, box),
        lambda: cdga.verify_vanishing(cx, Fraction(1), box),
        lambda: cdga.build_paper_complex("nonsense", box),
        lambda: freealg.free_gerstenhaber_betti(gens, box),
        lambda: freealg.betti_table_f2(gens, box),
        lambda: freealg.free_graded_lie_basis(gens, box),
        lambda: freealg.lie_basis_char2(gens, box),
        lambda: freealg.cohen_generators_f2(gens, box),
    ]
    start = time.monotonic()
    for call in calls:
        with pytest.raises(InputError, match=f"^{message}$"):
            call()
    assert time.monotonic() - start < 1


def test_the_cap_is_on_the_table_box_not_the_letter_box():
    """A preset takes its letters one degree above the box, so at the
    largest box they reach 128,129, and every preset still builds."""
    for preset in ("vanishA", "vanishB", "intstab-f2", "intstab-fl(3)", "A-algebra-fl(3)"):
        split = cdga.build_paper_complex(preset, (128, 128))
        assert max(d for _, d in split.closed) == 129, preset
    sigma = [freealg.gen("sigma", 1, 0)]
    assert freealg.letter_counts(sigma, (129, 129), 0)
    with pytest.raises(InputError, match="^box bounds must be <= 129, got 130,1$"):
        freealg.letter_counts(sigma, (130, 1), 0)


def test_lie_bases_count_their_words_before_naming_any(monkeypatch):
    """More than freealg.MAX_LIE_WORDS words are an input error, counted
    before the Lyndon walk starts."""
    gens = [freealg.gen("sigma", 1, 0), freealg.gen("lambda", 3, 2), freealg.gen("rho", 2, 2)]
    monkeypatch.setattr(freealg, "_lyndon_words", None)
    with pytest.raises(InputError, match="^the basis has 395433 words; at most 200000 are listed$"):
        freealg.free_graded_lie_basis(gens, (28, 28))
    with pytest.raises(InputError, match="^the basis has [0-9]+ words; at most 200000 are listed$"):
        freealg.cohen_generators_f2(gens, (30, 30))


def test_range_statement_renderings():
    assert range_statement("vanishing", 3, 2, -1).render() == "3d ≤ 2g-1"
    assert range_statement("epimorphism", 4, 3, -1).render() == "4d ≤ 3g-1"
    # twisted family at s = 1: e = -(2s+1)
    assert range_statement("epimorphism", 3, 2, -3).render() == "3d ≤ 2g-3"


def test_range_statement_normalization():
    for triple in ((6, 4, -2), (3, 2, -1)):
        s = range_statement("vanishing", *triple)
        assert (s.a, s.b, s.e) == (3, 2, -1)
    # a <= 0 is refused: negating the triple would reverse the inequality
    for a, b, e in ((0, 1, 0), (0, 0, 0), (-2, 1, 0), (-1, -1, -1), (-6, 4, -2)):
        with pytest.raises(DomainError, match="needs a >= 1"):
            range_statement("vanishing", a, b, e)
    with pytest.raises(InputError):
        range_statement("nonsense", 1, 1, 0)


def test_satisfies_examples():
    assert range_statement("vanishing", 3, 2, -1).satisfies((3, 1))
    assert not range_statement("epimorphism", 4, 3, -5).satisfies((6, 4))
    # isomorphisms for 5d <= 4g-6 applied at (6,3): 15 <= 18
    assert range_statement("isomorphism", 5, 4, -6).satisfies((6, 3))


def test_render_parse_round_trip():
    for a, b, e in [(3, 2, -1), (4, 3, -1), (4, 3, -5), (5, 4, -1), (5, 4, -6),
                    (1, 1, 0), (2, 1, 3), (7, 5, 0), (1, -2, 1), (2, -3, -1), (1, 0, 1)]:
        s = range_statement("vanishing", a, b, e)
        assert parse_range(s.render()) == s
    assert parse_range("3d <= 2g-1") == range_statement("vanishing", 3, 2, -1)


def test_vanishing_line():
    line = VanishingLine(Fraction(3, 4))
    assert line.strictly_below((8, 5))
    assert not line.strictly_below((8, 6))
    offset = VanishingLine(Fraction(2, 3), Fraction(1, 2))
    assert offset.strictly_below((2, 0))
    with pytest.raises(DomainError):
        VanishingLine(Fraction(0))


def test_vanishing_line_integer_test_equals_the_fraction_form():
    """The line test compares integers; it agrees with d < lam * (g - c) in
    Fractions on every cell, for offsets c negative, zero and non-integer,
    on and off the line."""
    slopes = [Fraction(1), Fraction(3, 4), Fraction(4, 5), Fraction(5, 3), Fraction(7, 2), Fraction(1, 9)]
    offsets = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-5, 2), Fraction(7, 3),
               Fraction(-4, 9)]
    for lam in slopes:
        for c in offsets:
            line = VanishingLine(lam, c)
            for g in range(-3, 13):
                for d in range(-2, 13):
                    assert line.strictly_below((g, d)) == (d < lam * (g - c)), (lam, c, g, d)
    assert VanishingLine(Fraction(2, 3), Fraction(3)).strictly_below(Bidegree(6, 1))
    assert not VanishingLine(Fraction(2, 3), Fraction(3)).strictly_below(Bidegree(6, 2))


def test_vanishing_line_renderings():
    assert VanishingLine(Fraction(3, 4)).render() == "d < 3/4*g"
    assert VanishingLine(Fraction(2, 3), Fraction(1, 2)).render() == "d < 2/3*(g - 1/2)"
    assert VanishingLine(Fraction(3, 4), Fraction(-1)).render() == "d < 3/4*(g + 1)"
    assert VanishingLine(Fraction(1), Fraction(-5, 2)).render() == "d < 1*(g + 5/2)"


@pytest.mark.parametrize("text, value", [
    ("3", Fraction(3)), ("-3/4", Fraction(-3, 4)), (" +6/8 ", Fraction(3, 4)), ("0", Fraction(0)),
    ("0/5", Fraction(0)), ("007/010", Fraction(7, 10)), ("9" * 4300, Fraction(10**4300 - 1)),
])
def test_parse_rational_reads_an_integer_or_p_over_q(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["", " ", "3/0", "3/", "/4", "3 /4", "3/ 4", "--3", "3/-4", "0.75", ".5",
                                  "1e5", "1E-5", "1_000", "3/4/5", "inf", "nan", "1/2:0"])
def test_parse_rational_rejects_every_other_form(text):
    with pytest.raises(InputError, match=f"^bad rational {re.escape(repr(text))}$"):
        parse_rational(text)


def test_parse_rational_rejects_more_digits_than_python_converts():
    """The number is refused as text, before any arithmetic on it."""
    cases = [("1" * 4301, "1" * 4301), ("-" + "2" * 5000 + "/3", "-" + "2" * 5000), ("1/" + "3" * 4400, "3" * 4400)]
    for text, part in cases:
        message = f"number too long: {part[:20]}... has {len(part)} characters"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            parse_rational(text)


def test_parse_line_reads_lam_colon_c():
    assert parse_line("3/4:0") == VanishingLine(Fraction(3, 4))
    assert parse_line(" 2/3 : -1/2 ") == VanishingLine(Fraction(2, 3), Fraction(-1, 2))
    for text in ("3/4", "", "3/4;1"):
        with pytest.raises(InputError, match=f"^bad line {re.escape(repr(text))}; expected LAM:C$"):
            parse_line(text)
    with pytest.raises(InputError, match="^bad rational '1e5000'$"):
        parse_line("3/4:1e5000")
    with pytest.raises(InputError, match="^bad rational '1:2'$"):
        parse_line("3/4:1:2")
    with pytest.raises(DomainError, match="^vanishing-line slope must be positive$"):
        parse_line("-1:0")
