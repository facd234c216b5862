import hashlib
import operator
import random
from fractions import Fraction
from math import comb

import pytest

from bigraded.errors import DomainError, InputError, WorkbenchError
from bigraded.exactla import QQ, Matrix
from bigraded.taut import (
    MAX_COPRODUCT_SLOTS,
    MAX_KAPPA_INDEX,
    MAX_WEIGHT_DIGITS,
    HomologyFunctional,
    Ledger,
    ParamPoly,
    Relation,
    TautPoly,
    deduce_h43_kernel,
    euler,
    gysin_pushforward,
    kappa,
    mono_name,
    nfold_coproduct,
    pair_tensor,
    pair_tensor_trace,
    paper_63_functionals,
    paper_63_pairing,
    parse_functionals,
    parse_slot_patterns,
    parse_taut,
    r12_restricted,
    restrict_terms,
    taut_const,
    TensorTerm,
    _largest_weight,
    _mono_degree,
    _slot_picks,
)
from oracles import rank_oracle


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


def test_h43_kernel_names_each_class_the_relations_force_to_vanish():
    """A relation that kills kappa_2 alone contradicts kappa_2 != 0, though
    it does not span degree 4; the message names only the forced classes."""
    led = Ledger(relations=[])
    led.add_from_text("k2", 4, "k2 only")
    rep = deduce_h43_kernel(led)
    assert rep.contradiction == "ledger relations force k2 to vanish"
    assert not rep.insufficient
    led = Ledger()
    led.add_from_text("k1^2+6*k2", 4, "inconsistent extra relation")
    assert deduce_h43_kernel(led).contradiction == "ledger relations force k2 to vanish"
    # kappa_1 is forced by a degree-2 relation, here a genus-free one
    led = Ledger()
    led.add_from_text("2*k1", None, "k1 vanishes")
    assert deduce_h43_kernel(led).contradiction == "ledger relations force k1 to vanish"


def test_h43_kernel_reads_e_relations_through_the_pushforward():
    """A relation r = 0 that holds e lives on the universal curve, so
    pi_!(e^k * r) = 0 on M_4: e^2 = 0 gives kappa_1 = pi_!(e^2) = 0 and
    kappa_2 = pi_!(e^3) = 0, at genus 4 and genus-free alike.  For
    e^2 + e*k1/6, pi_!(r) = kappa_1 + kappa_0*kappa_1/6 vanishes only with
    kappa_0 = 2 - 2g = -6, and pi_!(e*r) = kappa_2 + kappa_1^2/6, which with
    3 kappa_1^2 + 32 kappa_2 = 0 forces kappa_2 = 0 alone."""
    for genus in (4, None):
        led = Ledger()
        led.add_from_text("e^2", genus, "euler")
        assert deduce_h43_kernel(led).contradiction == "ledger relations force k1 and k2 to vanish"
    led = Ledger()
    led.add_from_text("e^2 + 1/6*e*k1", 4, "euler")
    assert deduce_h43_kernel(led).contradiction == "ledger relations force k2 to vanish"
    # nothing is read from another genus, from a relation with l1, or past degree 4
    for text, genus in (("e^2", 5), ("e^2 + e*l1", 4), ("e^4 + e^2*k2", None)):
        led = Ledger()
        led.add_from_text(text, genus, "unread")
        assert deduce_h43_kernel(led).zero_only, text
    led = Ledger()
    led.add_from_text("e^2 + t*e*k1", None, "p")
    with pytest.raises(DomainError, match="^ledger relation 'p' has a formal parameter"):
        deduce_h43_kernel(led)


def test_h43_kernel_rejects_a_relation_with_a_parameter():
    """Its constant part alone would read t*k1^2+k2 as k2 = 0."""
    led = Ledger()
    led.add_from_text("t*k1^2+k2", 4, "p")
    with pytest.raises(DomainError, match="^ledger relation 'p' has a formal parameter"):
        deduce_h43_kernel(led)
    # relations the deduction does not read may hold parameters
    led = Ledger()
    led.add_from_text("t*k1^3", 4, "degree 6")
    led.add_from_text("t*k2", 5, "genus 5")
    led.add_from_text("t*k1+l1", 4, "with l1")
    assert deduce_h43_kernel(led).zero_only


def test_h43_kernel_contradictions_match_rank_oracle():
    """On seeded random ledgers: a domain error exactly when a relation the
    deduction reads has a parameter, and otherwise the contradiction names
    exactly the known-nonzero classes m with rank(R) = rank(R + e_m), R the
    genus-4 and genus-free relations on kappa_1 or on kappa_1^2, kappa_2."""
    basis = [(0, 0, (1,)), (0, 0, (2,)), (0, 0, (0, 1))]  # kappa_1, kappa_1^2, kappa_2
    rng = random.Random(35)
    seen = {"error": 0, "forced": 0, "clean": 0}
    for _ in range(400):
        facts = [(rng.choice([4, 4, 5]), m) for m in basis if rng.random() < 0.6]
        led = Ledger(relations=[], nonvanishing=facts)
        rows, parametric = [], False
        for k in range(rng.randint(0, 3)):
            genus = rng.choice([4, 4, None, 5])
            if rng.random() < 0.8:  # on kappa_1^2 and kappa_2
                coeffs = [0, rng.randint(-3, 3), rng.randint(-3, 3)]
            else:  # on kappa_1
                coeffs = [rng.randint(-2, 2), 0, 0]
            cs = [ParamPoly.const(c) for c in coeffs]
            if rng.random() < 0.1:
                j = rng.choice([j for j, c in enumerate(coeffs) if c] or [1])
                cs[j] = cs[j] + ParamPoly.param("t")
                parametric = parametric or genus != 5
            elif genus != 5:
                rows.append(coeffs)
            poly = TautPoly()
            for m, c in zip(basis, cs):
                poly.add_term(m, c)
            led.relations.append(Relation(poly, genus, f"r{k}"))
        if parametric:
            with pytest.raises(DomainError, match="has a formal parameter"):
                deduce_h43_kernel(led)
            seen["error"] += 1
            continue

        def rank_of(dense):
            return rank_oracle(Matrix(QQ, len(dense), 3, [list(enumerate(r)) for r in dense]))

        forced = [mono_name(m) for k, m in enumerate(basis) if (4, m) in led.nonvanishing
                  and rank_of(rows) == rank_of(rows + [[int(j == k) for j in range(3)]])]
        rep = deduce_h43_kernel(led)
        named = f"ledger relations force {' and '.join(forced)} to vanish"
        assert rep.contradiction == (named if forced else None)
        seen["forced" if forced else "clean"] += 1
    assert min(seen.values()) >= 40, seen


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
                if not cur:
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
            if not cur:
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
    assert not pair_tensor(terms, [zero, zero])
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


def _oracle_distributions(a, n):
    if n == 1:
        yield (a,), 1
        return
    for first in range(a + 1):
        for rest, ways in _oracle_distributions(a - first, n - 1):
            yield (first,) + rest, ways * comb(a, first)


def _oracle_trim(ks):
    ks = list(ks)
    while ks and ks[-1] == 0:
        ks.pop()
    return tuple(ks)


def _oracle_nfold_coproduct(p, n):
    """The n-fold expansion by accumulation: distribute one kappa index at a
    time over every partial slot tuple, then merge the terms in a dict."""
    terms = {}
    for (e, l1, ks), coeff in p.items():
        slotted = [((0, 0, ()),) * n]
        weights = [1]
        for i, a in enumerate(ks):
            if not a:
                continue
            new_slotted = []
            new_weights = []
            for slots, w in zip(slotted, weights):
                for dist, ways in _oracle_distributions(a, n):
                    ns = []
                    for s, cnt in zip(slots, dist):
                        kse = list(s[2]) + [0] * max(0, i + 1 - len(s[2]))
                        kse[i] += cnt
                        ns.append((0, 0, _oracle_trim(kse)))
                    new_slotted.append(tuple(ns))
                    new_weights.append(w * ways)
            slotted, weights = new_slotted, new_weights
        for slots, w in zip(slotted, weights):
            cur = terms.get(slots, ParamPoly()) + coeff * Fraction(w)
            if not cur:
                terms.pop(slots, None)
            else:
                terms[slots] = cur
    return [TensorTerm(coeff=c, slots=s) for s, c in sorted(terms.items())]


def _random_kappa_poly(rng):
    """Up to four monomials, kappa exponents summing to at most 4, each with
    a random parameter polynomial as its coefficient."""
    p = TautPoly()
    for _ in range(rng.randint(1, 4)):
        ks = [0] * rng.randint(0, 4)
        for _ in range(rng.randint(0, 4) if ks else 0):
            ks[rng.randrange(len(ks))] += 1
        c = ParamPoly()
        for _ in range(rng.randint(1, 3)):
            mono = tuple(sorted({rng.choice("tuv"): rng.randint(1, 2) for _ in range(rng.randint(0, 2))}.items()))
            c = c + ParamPoly({mono: Fraction(rng.randint(-9, 9), rng.randint(1, 4))})
        p.add_term((0, 0, tuple(ks)), c)
    return p


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_coproduct_matches_the_merging_oracle(n):
    rng = random.Random(100 + n)
    for _ in range(40):
        p = _random_kappa_poly(rng)
        assert nfold_coproduct(p, n) == _oracle_nfold_coproduct(p, n), p.render()
    assert nfold_coproduct(r12_restricted(), n) == _oracle_nfold_coproduct(r12_restricted(), n)


def _distributions(a, n):
    """The slot walk on kappa_1^a, each pick as its n exponents of kappa_1."""
    return [(tuple(s[2][0] if s[2] else 0 for s in slots), w) for slots, w in _slot_picks((a,), n)]


def test_distributions_do_not_recurse_per_slot():
    # the recursive form went one Python frame deep per slot
    assert _distributions(0, 5000) == [((0,) * 5000, 1)]
    ways = _distributions(1, 1200)
    assert len(ways) == 1200 and all(w == 1 and sum(d) == 1 for d, w in ways)
    assert ways[0][0][-1] == 1 and ways[-1][0][0] == 1  # lexicographic order
    assert _distributions(3, 2) == [((0, 3), 1), ((1, 2), 3), ((2, 1), 3), ((3, 0), 1)]
    for a in range(6):
        for n in range(1, 6):
            assert _distributions(a, n) == list(_oracle_distributions(a, n))


def _random_patterns(rng, full, n):
    """Per-slot patterns: some monomials the full expansion puts in that
    slot, and entries no slot holds (one too large, one with e, with l1,
    with an untrimmed kappa tuple or with a negative exponent); sometimes a
    slot allows nothing."""
    pats = []
    for s in range(n):
        held = sorted({t.slots[s] for t in full})
        pat = set(rng.sample(held, rng.randint(0, len(held)))) if held else set()
        junk = [(0, 0, (0, 0, 7)), (1, 0, ()), (0, 1, ()), (0, 0, (1, 0)), (0, 0, (-1, 1))]
        pat |= set(rng.sample(junk, 2))
        if rng.random() < 0.1:
            pat = set()
        pats.append(pat)
    return pats


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pruned_expansion_is_the_restricted_full_one(n):
    rng = random.Random(200 + n)
    for _ in range(40):
        p = _random_kappa_poly(rng)
        full = nfold_coproduct(p, n)
        pats = _random_patterns(rng, full, n)
        # same slots, coefficients and order
        assert nfold_coproduct(p, n, pats) == restrict_terms(full, pats), (p.render(), pats)
        assert nfold_coproduct(p, n, [set()] + pats[1:]) == []
    assert nfold_coproduct(TautPoly(), n, [set()] * n) == []
    # the patterns' arity is checked as restrict_terms checks it
    with pytest.raises(InputError, match="pattern arity mismatch"):
        nfold_coproduct(kappa(1), n, [set()] * (n + 1))
    assert nfold_coproduct(TautPoly(), n, [set()] * (n + 1)) == []


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pairing_on_the_supports_is_the_full_pairing(n):
    rng = random.Random(300 + n)
    nonzero = 0
    for _ in range(40):
        p = _random_kappa_poly(rng)
        full = nfold_coproduct(p, n)
        # every slot's functional sees the slot of one term, so that
        # the pairing is seldom zero
        seen = rng.choice(full).slots if full else ((0, 0, ()),) * n
        funcs = []
        for s, pat in enumerate(_random_patterns(rng, full, n)):
            pat.add(seen[s])
            # a functional has one degree; some of its values are zero
            deg = _mono_degree(seen[s])
            values = {
                m: ParamPoly.const(rng.randint(-2, 3)) * ParamPoly.param("t")
                for m in pat if _mono_degree(m) == deg
            }
            funcs.append(HomologyFunctional(f"f{s}", values))
        pruned = nfold_coproduct(p, n, [f.support for f in funcs])
        assert pair_tensor_trace(pruned, funcs) == pair_tensor_trace(full, funcs), p.render()
        assert pair_tensor(pruned, funcs) == pair_tensor(full, funcs)
        nonzero += bool(pair_tensor(full, funcs))
    assert nonzero >= 10
    assert pair_tensor_trace(nfold_coproduct(TautPoly(), n, [set()] * n), funcs) == (ParamPoly(), [])


def test_support_drops_zero_values():
    t = ParamPoly.param("t")
    f = HomologyFunctional("f", {(0, 0, (2,)): t, (0, 0, (0, 1)): ParamPoly()})
    assert f.support == {(0, 0, (2,))}
    terms = nfold_coproduct(parse_taut("k1^2+k2"), 2)
    assert pair_tensor_trace(nfold_coproduct(parse_taut("k1^2+k2"), 2, [f.support, {(0, 0, ())}]), [f, f]) == (
        pair_tensor_trace(terms, [f, f])
    )


def test_paper_pairing_builds_four_terms(monkeypatch, capsys):
    """The paper's pairing walks only the supports of lambda and x: 4 terms
    of the 1660 in the full 5-fold expansion of R12."""
    from bigraded import cli, taut

    built = []

    class Counted(TensorTerm):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(taut, "TensorTerm", Counted)
    assert len(nfold_coproduct(r12_restricted(), 5)) == len(built) == 1660
    del built[:]
    assert paper_63_pairing().render() == "128024064*t^2*u^3"
    assert len(built) == 4
    del built[:]
    assert cli.main(["taut", "pair", "--paper-6-3"]) == 0
    assert capsys.readouterr().out.strip().endswith("128024064*t^2*u^3")
    assert len(built) == 4


def test_oversized_coproducts_are_input_errors_before_expanding():
    with pytest.raises(InputError, match="100000 terms of 100000 slots"):
        nfold_coproduct(parse_taut("k1"), 100000)
    with pytest.raises(InputError, match=f"more than {MAX_COPRODUCT_SLOTS} terms of 40 slots"):
        nfold_coproduct(parse_taut("k1^40"), 40)
    with pytest.raises(InputError, match="1 terms of 10000000000 slots"):
        nfold_coproduct(taut_const(), 10**10)
    # at the bound itself the expansion is built
    (term,) = nfold_coproduct(taut_const(), MAX_COPRODUCT_SLOTS)
    assert term.slots == ((0, 0, ()),) * MAX_COPRODUCT_SLOTS
    with pytest.raises(InputError, match=f"1 terms of {MAX_COPRODUCT_SLOTS + 1} slots"):
        nfold_coproduct(taut_const(), MAX_COPRODUCT_SLOTS + 1)
    # k1^a in 2 slots has a + 1 terms
    half = MAX_COPRODUCT_SLOTS // 2
    with pytest.raises(InputError, match=f"{half + 1} terms of 2 slots"):
        nfold_coproduct(parse_taut(f"k1^{half}"), 2)


def test_largest_weight_is_the_largest_term_coefficient():
    """_largest_weight is the largest coefficient of an expansion of a kappa
    monomial, or past the cap when that is larger."""
    for expr in ("k1", "k1^4", "k1^4*k2^2", "k2*k3^5", "k1^7*k4"):
        ((_, _, ks),) = parse_taut(expr)
        for n in range(2, 6):
            big = max(t.coeff[()] for t in nfold_coproduct(parse_taut(expr), n))
            assert _largest_weight(ks, n, 10**9) == _largest_weight(ks, n, big) == big
            assert _largest_weight(ks, n, big - 1) > big - 1


def test_coproduct_weights_are_bounded_before_expanding():
    """k1^a in 2 slots has the weights C(a, c): a = 14291 is the largest a
    whose weights have at most MAX_WEIGHT_DIGITS digits, so it passes the
    bound and the next fails it."""
    cap = 10**MAX_WEIGHT_DIGITS
    a = 14291
    assert _largest_weight((a,), 2, cap - 1) == comb(a, a // 2) < cap <= comb(a + 1, (a + 1) // 2)
    with pytest.raises(InputError, match=f"more than {MAX_WEIGHT_DIGITS} digits"):
        nfold_coproduct(parse_taut(f"k1^{a + 1}"), 2)


def test_coefficients_too_long_to_print_are_input_errors():
    longest = 10**MAX_WEIGHT_DIGITS - 1
    assert ParamPoly.const(longest).render() == "9" * MAX_WEIGHT_DIGITS
    for c in (longest + 1, Fraction(1, longest + 1)):
        with pytest.raises(InputError, match=f"more than {MAX_WEIGHT_DIGITS} digits"):
            ParamPoly.const(c).render()
        with pytest.raises(InputError, match=f"more than {MAX_WEIGHT_DIGITS} digits"):
            kappa(1).scale(c).render()


def test_coproduct_rejects_euler_class():
    with pytest.raises(DomainError):
        nfold_coproduct(parse_taut("e*k1"), 2)


def test_ledger_lookup():
    led = Ledger()
    deg4_g5 = led.lookup(genus=5, degree=4)
    assert any(r.poly.render() == "5*k1^2+72*k2" for r in deg4_g5)
    deg4_g4 = led.lookup(genus=4, degree=4)
    assert any(r.poly.render() == "3*k1^2+32*k2" for r in deg4_g4)
    # the genus-independent Hodge-class relation shows up everywhere
    assert any("12" in r.poly.render() for r in led.lookup(genus=7, degree=2))
    # user file with only built-ins
    assert len(led.lookup()) == 4


def test_ledger_rejects_a_negative_genus():
    """As the Gysin pushforward does: a ledger is neither read nor filed
    at a genus below 0."""
    led = Ledger()
    with pytest.raises(DomainError, match="^negative genus$"):
        led.lookup(genus=-3)
    with pytest.raises(DomainError, match="^negative genus$"):
        led.add_relations_file("k1^2\n", -3)
    assert len(led.relations) == 4 and led.lookup(genus=0)


def test_relation_rejects_a_negative_genus():
    """However a relation is made, it is not filed at a genus below 0."""
    with pytest.raises(DomainError, match="^negative genus$"):
        Relation(kappa(1), -7, "r")
    led = Ledger()
    with pytest.raises(DomainError, match="^negative genus$"):
        led.add_from_text("k1^2", -3, "r")
    assert len(led.lookup()) == 4


def test_ledger_rejects_inhomogeneous():
    led = Ledger()
    with pytest.raises(DomainError):
        led.add_from_text("k1+k2", 3, "bad")


def test_relations_file_labels_each_relation_by_its_raw_line():
    led = Ledger()
    led.add_relations_file("# extra relations\nk1^3 - k3\n\n  # none here\nk1*k2 # k3 part\n", 6)
    added = [(r.poly.render(), r.ambient_genus, r.source_label) for r in led.relations[4:]]
    assert added == [("k1^3-k3", 6, "user relation 2"), ("k1*k2", 6, "user relation 5")]


_PAPER_FN = """# the functionals of the degree-14 pairing
functional lambda
k1 = u
functional x   # pairs with k2 and k1^2
k2 = t
k1^2 = -72/5*t
pair: 80435*k1^7 + 21719880*k1^5*k2 + 1387036224*k1^3*k2^2 + 17581100544*k1*k2^3
slots: lambda lambda lambda x x
"""


def test_functionals_file_of_the_paper_round_trips():
    p, funcs = parse_functionals(_PAPER_FN)
    assert p == r12_restricted() and funcs == paper_63_functionals()
    u, t = ParamPoly.param("u"), ParamPoly.param("t")
    value = pair_tensor(nfold_coproduct(p, 5, [f.support for f in funcs]), funcs)
    assert value == ParamPoly.const(128024064) * u**3 * t**2


def test_slot_patterns_of_the_paper_pairing():
    k1, k1sq, k2 = (0, 0, (1,)), (0, 0, (2,)), (0, 0, (0, 1))
    patterns = parse_slot_patterns("k1,k1,k1,{k1^2|k2},{k1^2|k2}", 5)
    assert patterns == [{k1}] * 3 + [{k1sq, k2}] * 2
    assert parse_slot_patterns(" k1 ,{ k2 | k1^2 }", 2) == [{k1}, {k1sq, k2}]


def test_parse_taut_round_trips():
    p = parse_taut("80435*k1^7+21719880*k1^5*k2")
    assert p.degree() == 14
    assert parse_taut(p.render()) == p
    q = parse_taut("3/4*e^2*k1-t*e*k2")
    assert q.degree() == 6
    assert parse_taut(q.render()) == q
    assert parse_taut("0*k1") == TautPoly()


def _assert_no_zero_stored(p):
    """No coefficient p stores is zero, also inside the ParamPoly
    coefficients of a TautPoly, and no kappa exponents end in a zero."""
    for m, c in p.items():
        assert c, (m, c)
        if isinstance(p, TautPoly):
            assert not m[2] or m[2][-1], m
            _assert_no_zero_stored(c)
        else:
            assert isinstance(c, Fraction), (m, c)


def test_polynomials_store_no_zero_coefficient():
    """Sums, differences, products, powers, scalings and parsed text that
    cancel leave no zero behind: a polynomial is zero exactly when it is
    empty."""
    rng = random.Random(21)
    t, u = ParamPoly.param("t"), ParamPoly.param("u")
    params = [ParamPoly(), ParamPoly.const(1), ParamPoly.const(Fraction(-1, 2)), t, u, t - u]
    texts = ["0*t*k1 + k2", "k1 - k1", "t*k1 - t*k1 + 0*e", "k3^0*k1 + 0", "2*u*k2 - 2*u*k2 + u^2",
             "1/2*e*k1 - 1/2*k1*e", "0", "0*k3^2 + l1"]
    tauts = [TautPoly(), kappa(1), kappa(2), kappa(2, 0), euler(), taut_const(0), taut_const(-1)]
    tauts += [parse_taut(text) for text in texts]
    assert parse_taut("0*t*k1 + k2") == kappa(2)
    param_ops = [operator.add, operator.sub, operator.mul, lambda a, _: a ** rng.randint(0, 3)]
    taut_ops = [operator.add, operator.sub, operator.mul,
                lambda x, _: x.scale(rng.choice(params)), lambda x, _: x.scale(rng.randint(-1, 1))]
    for _ in range(400):
        c = rng.choice(param_ops)(rng.choice(params), rng.choice(params))
        _assert_no_zero_stored(c)
        assert not c - c
        if len(c) <= 6:
            params.append(c)
        z = rng.choice(taut_ops)(rng.choice(tauts), rng.choice(tauts))
        _assert_no_zero_stored(z)
        assert not z - z
        if len(z) <= 6 and max(map(_mono_degree, z), default=0) <= 16:
            tauts.append(z)


def test_taut_const():
    assert (taut_const(3) * kappa(1)).render() == "3*k1"


# random token strings for the expression grammar: no zero denominator and
# no trailing whitespace, so every string reads the same before and after
# those two fixes
_TAUT_TOKENS = ["+", "-", "*", "^", "^", "0", "1", "2", "3", "12", "1/2", "2/3", "4/3",
                "e", "l1", "k1", "k2", "k3", "k0", "A", "t", "x'", "[u,v]", "!"]
# recorded when a '^' after no name and a kappa index above MAX_KAPPA_INDEX
# became input errors: of the 3000 strings, the 215 with such a '^' and the
# one with k3120 went from a parsed polynomial to "error", and no other changed;
# re-recorded when a text with no term became an input error: the 378 strings
# that are empty or a lone sign went from [] to "error", and no other changed
_TAUT_DIGEST = "ebd67b319349d4545e8c9e1fb3f0e5b765f085624ae9517bbaa75fb803af36f2"


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
