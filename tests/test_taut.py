import hashlib
import random
from fractions import Fraction

import pytest

from bigraded.errors import DomainError, InputError, WorkbenchError
from bigraded.taut import (
    MAX_KAPPA_INDEX,
    HomologyFunctional,
    Ledger,
    ParamPoly,
    TautPoly,
    deduce_h43_kernel,
    euler,
    gysin_pushforward,
    kappa,
    mono_name,
    nfold_coproduct,
    pair_tensor,
    paper_63_functionals,
    paper_63_pairing,
    parse_taut,
    r12_restricted,
    restrict_terms,
    taut_const,
)


def test_gysin_examples():
    A, B = ParamPoly.param("A"), ParamPoly.param("B")
    p = euler().scale(A) + kappa(1).scale(B)
    out = gysin_pushforward(euler() * p, 4)
    assert out == kappa(1).scale(A - B * 6)  # (A - 6B) * k1, symbolically
    assert out.render() == "(A-6*B)*k1"
    out2 = gysin_pushforward(euler(2) * p, 9)
    assert out2 == kappa(2).scale(A) + (kappa(1) * kappa(1)).scale(B)
    assert out2.render() == "B*k1^2+A*k2"
    assert gysin_pushforward(euler(), 0).render() == "2"
    assert gysin_pushforward(kappa(2), 3).render() == "0"  # no e factor


def test_gysin_projection_formula():
    # pi_!(q * p) = q * pi_!(p) for q free of e
    rng = random.Random(3)
    for _ in range(40):
        q = TautPoly()
        q.add_term(
            (0, 0, (rng.randint(0, 2), rng.randint(0, 2))),
            ParamPoly.const(Fraction(rng.randint(-5, 5), rng.randint(1, 4))),
        )
        p = TautPoly()
        p.add_term((rng.randint(1, 3), 0, (rng.randint(0, 2),)), ParamPoly.const(rng.randint(1, 7)))
        g = rng.randint(0, 6)
        lhs = gysin_pushforward(q * p, g)
        rhs = q * gysin_pushforward(p, g)
        assert lhs == rhs


def test_gysin_rejects_negative_genus_and_inhomogeneous():
    with pytest.raises(DomainError):
        gysin_pushforward(euler(), -1)
    bad = euler() + kappa(1) * kappa(1)
    with pytest.raises(DomainError):
        gysin_pushforward(bad, 2)


def test_kappa_index_is_bounded_before_any_tuple_is_built():
    top = MAX_KAPPA_INDEX
    assert gysin_pushforward(euler(top + 1), 2) == kappa(top)
    assert parse_taut(f"e*k{top}") == euler() * kappa(top)
    # e^(i+1) pushes forward to kappa_i, so the Gysin rule may not go past it
    with pytest.raises(InputError, match=f"needs kappa_{top + 1}"):
        gysin_pushforward(euler(top + 2), 2)
    with pytest.raises(InputError, match="kappa index"):
        parse_taut(f"e*k{top + 1}")
    with pytest.raises(InputError, match="kappa index"):
        parse_taut("e*k2000000")
    with pytest.raises(InputError, match="needs kappa_1999999"):
        gysin_pushforward(parse_taut("e^2000000"), 2)


def test_h43_kernel_zero_with_default_ledger():
    rep = deduce_h43_kernel()
    assert rep.solution_dim == 0
    assert rep.zero_only
    assert rep.contradiction is None


def test_h43_kernel_without_kappa2_fact_is_a_line():
    led = Ledger()
    led.nonvanishing = [(4, (0, 0, (1,)))]
    rep = deduce_h43_kernel(led)
    assert rep.solution_dim == 1
    assert rep.insufficient


def test_h43_kernel_detects_inconsistent_ledger():
    led = Ledger()
    led.add_from_text("k1^2+6*k2", 4, "inconsistent extra relation")
    rep = deduce_h43_kernel(led)
    assert rep.contradiction is not None
    assert "k2" in rep.contradiction


def test_coproduct_binomial():
    terms = nfold_coproduct(parse_taut("k1^2"), 2)
    rendered = {tuple(mono_name(s) for s in t.slots): t.coeff.render() for t in terms}
    assert rendered == {
        ("k1^2", "1"): "1",
        ("k1", "k1"): "2",
        ("1", "k1^2"): "1",
    }


def test_coproduct_multinomial_coefficient_with_bruteforce_oracle():
    # every one of the seven kappa_1 factors lands in one of five slots
    counts = {}
    for assignment in range(5**7):
        slots = [0] * 5
        a = assignment
        for _ in range(7):
            slots[a % 5] += 1
            a //= 5
        counts[tuple(slots)] = counts.get(tuple(slots), 0) + 1
    oracle = counts[(1, 1, 1, 2, 2)]
    assert oracle == 1260
    terms = nfold_coproduct(parse_taut("k1^7"), 5)
    key = ((0, 0, (1,)),) * 3 + ((0, 0, (2,)),) * 2
    got = {t.slots: t.coeff for t in terms}[key]
    assert got == ParamPoly.const(1260)


def test_restricted_r12_coproduct_coefficients():
    terms = nfold_coproduct(r12_restricted(), 5)
    k1 = (0, 0, (1,))
    k1sq = (0, 0, (2,))
    k2 = (0, 0, (0, 1))
    pats = [{k1}] * 3 + [{k1sq, k2}] * 2
    got = {
        t.slots[3:]: t.coeff for t in restrict_terms(terms, pats)
    }
    assert got[(k1sq, k1sq)] == ParamPoly.const(101348100)
    assert got[(k1sq, k2)] == ParamPoly.const(1303192800)
    assert got[(k2, k1sq)] == ParamPoly.const(1303192800)
    assert got[(k2, k2)] == ParamPoly.const(16644434688)


def test_coassociativity_on_random_polynomials():
    rng = random.Random(17)

    def tensor_all(p, n):
        return {t.slots: t.coeff for t in nfold_coproduct(p, n)}

    for _ in range(10):
        p = TautPoly()
        for _ in range(rng.randint(1, 3)):
            ks = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
            p.add_term((0, 0, ks), ParamPoly.const(rng.randint(1, 9)))
        from bigraded.taut import _mono_degree

        if max(_mono_degree(m) for m in p) > 20:
            continue
        # (Delta x id) Delta = (id x Delta) Delta = the 3-fold coproduct
        three = tensor_all(p, 3)
        left = {}
        for slots2, c2 in tensor_all(p, 2).items():
            sub = TautPoly()
            sub.add_term(slots2[0], ParamPoly.const(1))
            for slots_l, cl in tensor_all(sub, 2).items():
                key = (slots_l[0], slots_l[1], slots2[1])
                cur = left.get(key, ParamPoly()) + cl * c2
                if cur.is_zero():
                    left.pop(key, None)
                else:
                    left[key] = cur
        assert left == three


def test_counit_collapse_every_slot():
    # collapsing any one slot by the augmentation recovers the lower coproduct
    p = r12_restricted()
    five = nfold_coproduct(p, 5)
    four = {t.slots: t.coeff for t in nfold_coproduct(p, 4)}
    for drop in range(5):
        collapsed = {}
        for t in five:
            if t.slots[drop] != (0, 0, ()):  # augmentation kills kappa monomials
                continue
            key = t.slots[:drop] + t.slots[drop + 1 :]
            cur = collapsed.get(key, ParamPoly()) + t.coeff
            if cur.is_zero():
                collapsed.pop(key, None)
            else:
                collapsed[key] = cur
        assert collapsed == four, drop


def test_paper_63_pairing_value():
    value = paper_63_pairing()
    u, t = ParamPoly.param("u"), ParamPoly.param("t")
    assert value == ParamPoly.const(128024064) * u * u * u * t * t
    assert value.render() == "128024064*t^2*u^3"
    # independent re-derivation from the four restricted coefficients
    x = Fraction(-72, 5)
    assert 101348100 * x * x + 2 * 1303192800 * x + 16644434688 == 128024064


def test_pairing_trivial_cases():
    zero = HomologyFunctional("z", {})
    terms = nfold_coproduct(parse_taut("k1^2"), 2)
    assert pair_tensor(terms, [zero, zero]).is_zero()
    t = ParamPoly.param("t")
    x = HomologyFunctional("x", {(0, 0, (0, 1)): t})
    single = nfold_coproduct(parse_taut("k2"), 2)
    # slot pairing of k2 (x) 1 against (x, counit-like functional on 1)
    one = HomologyFunctional("one", {(0, 0, ()): ParamPoly.const(1)})
    assert pair_tensor(single, [x, one]) == t


def test_pairing_bilinearity():
    u = ParamPoly.param("u")
    lam = HomologyFunctional("lam", {(0, 0, (1,)): u})
    lam2 = HomologyFunctional("lam2", {(0, 0, (1,)): u * 2})
    terms = nfold_coproduct(parse_taut("k1^2"), 2)
    assert pair_tensor(terms, [lam2, lam]) == pair_tensor(terms, [lam, lam]) * 2
    doubled = nfold_coproduct(parse_taut("2*k1^2"), 2)
    assert pair_tensor(doubled, [lam, lam]) == pair_tensor(terms, [lam, lam]) * 2


def test_functional_mixed_degree_rejected():
    with pytest.raises(InputError):
        HomologyFunctional("bad", {(0, 0, (1,)): ParamPoly.const(1), (0, 0, (0, 1)): ParamPoly.const(1)})


def test_coproduct_rejects_euler_class():
    with pytest.raises(DomainError):
        nfold_coproduct(parse_taut("e*k1"), 2)


def test_ledger_lookup():
    led = Ledger()
    deg4_g5 = led.lookup(genus=5, degree=4)
    assert any(r.poly().render() == "5*k1^2+72*k2" for r in deg4_g5)
    deg4_g4 = led.lookup(genus=4, degree=4)
    assert any(r.poly().render() == "3*k1^2+32*k2" for r in deg4_g4)
    # the genus-independent Hodge-class relation shows up everywhere
    assert any("12" in r.poly().render() for r in led.lookup(genus=7, degree=2))
    # user file with only built-ins
    assert len(led.lookup()) == 4


def test_ledger_rejects_inhomogeneous():
    led = Ledger()
    with pytest.raises(DomainError):
        led.add_from_text("k1+k2", 3, "bad")


def test_parse_taut_round_trips():
    p = parse_taut("80435*k1^7+21719880*k1^5*k2")
    assert p.degree() == 14
    assert parse_taut(p.render()) == p
    q = parse_taut("3/4*e^2*k1-t*e*k2")
    assert q.degree() == 6
    assert parse_taut(q.render()) == q
    assert parse_taut("0*k1") == TautPoly()


def test_taut_const():
    assert (taut_const(3) * kappa(1)).render() == "3*k1"


# random token strings for the expression grammar: no zero denominator and
# no trailing whitespace, so every string reads the same before and after
# those two fixes
_TAUT_TOKENS = ["+", "-", "*", "^", "^", "0", "1", "2", "3", "12", "1/2", "2/3", "4/3",
                "e", "l1", "k1", "k2", "k3", "k0", "A", "t", "x'", "[u,v]", "!"]
# recorded when a '^' after no name and a kappa index above MAX_KAPPA_INDEX
# became input errors: of the 3000 strings, the 215 with such a '^' and the
# one with k3120 went from a parsed polynomial to "error", and no other changed
_TAUT_DIGEST = "e214b3c99885799d8527ef6ccfe8a979912c4c8b1e99f5a0194f3438478455ae"


def test_parse_taut_zero_denominator_trailing_space_and_large_powers():
    with pytest.raises(InputError, match="zero denominator"):
        parse_taut("1/0*e")
    with pytest.raises(InputError, match="zero denominator"):
        parse_taut("k1^2+1/0")
    assert parse_taut("e^2*k1 ") == parse_taut("e^2*k1")
    # a '^' with no name before it is no name itself
    for text in ("2^3*e^2", "^", "e*^2", "e+^k1", "k1 ^ 2 ^ 3"):
        with pytest.raises(InputError, match="'\\^' without a name"):
            parse_taut(text)
    # the parameter monomial is built directly, not by 10^9 multiplications
    assert parse_taut("e^2*A^1000000000") == {(2, 0, ()): ParamPoly({(("A", 10**9),): 1})}


def test_parse_taut_numbers_longer_than_int_converts_are_input_errors():
    """int() refuses strings of more than 4300 digits with a ValueError; a
    coefficient, an exponent or a kappa index that long is an input error."""
    long = "9" * 5000
    for text in (f"{long}*e", f"1/{long}*e", f"e^{long}"):
        with pytest.raises(InputError, match=r"number too long: [19/]{20}\.\.\. has 500\d characters"):
            parse_taut(text)
    with pytest.raises(InputError, match="kappa index"):
        parse_taut(f"e*k{long}")
    assert parse_taut("9" * 4000 + "*e") == euler().scale(int("9" * 4000))


def test_parse_taut_matches_recorded_digest():
    rng = random.Random(11)
    lines = []
    for _ in range(3000):
        parts = [rng.choice(_TAUT_TOKENS) + rng.choice(["", "", " "])
                 for _ in range(rng.randint(0, 7))]
        text = (rng.choice(["", " "]) + "".join(parts)).rstrip()
        try:
            result = repr(list(parse_taut(text).items()))
        except WorkbenchError:
            result = "error"
        lines.append(f"{text!r}\t{result}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _TAUT_DIGEST
