import hashlib
import random
from itertools import combinations, permutations

import pytest

from bigraded.errors import InputError
from bigraded.posets import (
    INF,
    CoverFunctor,
    FinitePoset,
    PosetMap,
    antichain_poset,
    chain_poset,
    check_nerve_theorem,
    check_poset_map_theorem,
    _chain_count,
    cone_homology_f2,
    connectivity_report,
    core,
    euler_characteristic,
    fuzz_nerve,
    fuzz_poset_map,
    is_homologically_connected,
    order_chains,
    parse_cover,
    parse_weights,
    poset_from_text,
    random_monotone_map,
    random_poset,
    reduced_homology_f2,
    reduced_homology_q,
    reduced_homology_z,
    subsets_poset,
    wreath_poset,
)


def test_order_complex_of_total_chain():
    chains = order_chains(chain_poset(3))
    assert [len(level) for level in chains] == [3, 3, 1]  # a full 2-simplex


def test_order_complex_of_antichain():
    chains = order_chains(antichain_poset(4))
    assert [len(level) for level in chains] == [4, 0, 0, 0]


def test_subsets_of_three_is_a_circle():
    # barycentric subdivision of the boundary of a triangle
    p = subsets_poset(3)
    assert reduced_homology_f2(p) == {1: 1}
    assert reduced_homology_q(p) == {1: 1}
    assert reduced_homology_z(p) == {1: (1, [])}


@pytest.mark.parametrize("base", [2, 3, 4, 5, 6])
def test_boundary_of_simplex_connectivity(base):
    # proper nonempty subsets of a (p+1)-set: sphere of dimension p-1
    p = base - 1
    rep = connectivity_report(subsets_poset(base))
    assert rep.connectivity == p - 2
    assert rep.dims == {p - 1: 1}


def test_boundary_of_simplex_integral_homology():
    for base in (3, 4):
        hz = reduced_homology_z(subsets_poset(base))
        assert hz == {base - 2: (1, [])}


def test_empty_poset_convention():
    empty = FinitePoset([], [])
    rep = connectivity_report(empty)
    assert rep.connectivity == -2
    assert rep.dims == {-1: 1}


def test_cone_posets_are_acyclic():
    rng = random.Random(4)
    for _ in range(25):
        q = random_poset(rng, 7)
        pairs = q.cover_pairs() + [(nm, "TOP") for nm in q.names]
        cone = FinitePoset(list(q.names) + ["TOP"], pairs)
        assert connectivity_report(cone).connectivity == INF
        bottom = FinitePoset(list(q.names) + ["BOT"], q.cover_pairs() + [("BOT", nm) for nm in q.names])
        assert connectivity_report(bottom).connectivity == INF


def _with_beat_points(rng, max_size):
    """A random poset, a cone over it, and it with one extra point above a
    single element (a down beat point)."""
    q = random_poset(rng, max_size)
    cone = FinitePoset(list(q.names) + ["TOP"], q.cover_pairs() + [(nm, "TOP") for nm in q.names])
    x = rng.choice(q.names)
    beat = FinitePoset(list(q.names) + ["B"], q.cover_pairs() + [(x, "B")])
    return [q, cone, beat]


def test_core_removes_beat_points_only():
    rng = random.Random(6)
    for _ in range(20):
        q, cone, beat = _with_beat_points(rng, 7)
        assert bin(core(cone)).count("1") == 1
        # the core is unique up to isomorphism (Stong)
        assert bin(core(beat)).count("1") == bin(core(q)).count("1")
        for p in (q, cone, beat):
            reduced = p.subposet(core(p))
            assert core(reduced) == (1 << reduced.n) - 1
    for base in (3, 4, 5):  # spheres have no beat points
        p = subsets_poset(base)
        assert core(p) == (1 << p.n) - 1


def test_connectivity_on_the_core_equals_unreduced_homology():
    rng = random.Random(19)
    posets = [subsets_poset(3), FinitePoset(["*"], [])]
    for _ in range(15):
        posets += _with_beat_points(rng, 6)
    for p in posets:
        f2, q = reduced_homology_f2(p), reduced_homology_q(p)
        hz = reduced_homology_z(p)
        for field, dims in (("F2", f2), ("Q", q)):
            rep = connectivity_report(p, field)
            assert rep.dims == dims and rep.torsion is None
            assert rep.connectivity == (min(dims) - 1 if dims else INF)
        rep = connectivity_report(p, "Z")
        assert rep.dims == {k: free for k, (free, _) in hz.items()}
        assert rep.torsion == {k: tors for k, (_, tors) in hz.items() if tors}
        assert rep.connectivity == (min(hz) - 1 if hz else INF)
        for m in range(-1, p.n + 2):
            assert is_homologically_connected(p, m) == all(k > m for k in f2)
            assert is_homologically_connected(p, m, "Q") == all(k > m for k in q)
            assert is_homologically_connected(p, m, "Z") == all(k > m for k in hz)
    rp2 = _rp2_faces()  # H_1 = Z/2: connected over Q, not over Z or F2
    assert connectivity_report(rp2, "Z").connectivity == 0
    assert is_homologically_connected(rp2, 1, "Q")
    assert not is_homologically_connected(rp2, 1, "Z")
    assert not is_homologically_connected(rp2, 1, "F2")
    for field in ("F3", "bogus"):
        with pytest.raises(InputError):
            is_homologically_connected(rp2, 1, field)
        with pytest.raises(InputError):
            connectivity_report(rp2, field)


def _rp2_faces():
    """The face poset of the six-vertex real projective plane: H_1 = Z/2."""
    triangles = ["123", "134", "145", "156", "126", "235", "346", "245", "356", "246"]
    faces = sorted({"".join(s) for t in triangles for k in (1, 2, 3) for s in combinations(t, k)})
    return FinitePoset(faces, [(a, b) for a in faces for b in faces if a != b and set(a) <= set(b)])


def test_rational_and_integral_homology_are_pinned():
    """sha256 over reduced_homology_q, reduced_homology_z and
    connectivity_report over Q and Z, recorded with dense matrix assembly,
    on subsets_poset(3..5), the projective plane and 200 random posets."""
    rng = random.Random(2026)
    posets = [subsets_poset(base) for base in (3, 4, 5)] + [_rp2_faces()]
    posets += [random_poset(rng, rng.randint(1, 9)) for _ in range(200)]
    h = hashlib.sha256()
    for p in posets:
        q, z = reduced_homology_q(p), reduced_homology_z(p)
        reports = connectivity_report(p, "Q"), connectivity_report(p, "Z")
        h.update(repr((q, z, *reports)).encode())
    assert reduced_homology_z(posets[3]) == {1: (0, [2])}
    assert h.hexdigest() == "d03a4ddaf2220763975d4c7e6419b9a40299b8796c853a281cb2ca46496ae87c"


def _random_maps(seed, count, max_size):
    rng = random.Random(seed)
    for _ in range(count):
        X, Y = random_poset(rng, max_size), random_poset(rng, max_size)
        yield random_monotone_map(rng, X, Y)


def test_f2_and_cone_homology_are_pinned():
    """sha256 over reduced_homology_f2 for every ``through`` in -1..3 and
    None on 300 random posets, and over cone_homology_f2 for ``through`` in
    -1..3 on 200 random monotone maps, recorded before the four homology
    routines shared one chain complex."""
    rng = random.Random(2027)
    h = hashlib.sha256()
    for _ in range(300):
        p = random_poset(rng, rng.randint(1, 9))
        h.update(repr([reduced_homology_f2(p, t) for t in (-1, 0, 1, 2, 3, None)]).encode())
    assert h.hexdigest() == "24d251fba259c739a2c2fa34f001cbd4ddb6f89d6a0a25d511ec0c1126675c36"
    h = hashlib.sha256()
    for f in _random_maps(2028, 200, 7):
        h.update(repr([cone_homology_f2(f, t) for t in (-1, 0, 1, 2, 3)]).encode())
    assert h.hexdigest() == "f592464ca93fbc328063c4dac977fa87673ff5a624f0cb9bb0e6a3af898af2d5"


def test_cone_homology_obeys_the_long_exact_sequence():
    """Oracles from the long exact sequence of the mapping cone: a map to a
    point shifts the source's homology up by one, a map from a point leaves
    the target's, and the Euler characteristic is chi(Y) - chi(X)."""
    pt = FinitePoset(["*"], [])
    for f in _random_maps(2029, 300, 6):
        X, Y = f.source, f.target
        to_point = PosetMap(X, pt, {nm: "*" for nm in X.names})
        hx = reduced_homology_f2(X)
        assert cone_homology_f2(to_point, X.n + 1) == {k + 1: v for k, v in hx.items()}
        from_point = PosetMap(pt, Y, {"*": Y.names[0]})
        assert cone_homology_f2(from_point, Y.n) == reduced_homology_f2(Y)
        hc = cone_homology_f2(f, X.n + Y.n)
        chi = sum((-1) ** k * v for k, v in hc.items())
        assert chi == euler_characteristic(Y) - euler_characteristic(X)


def test_subposet_from_masks_equals_validated_construction():
    rng = random.Random(31)
    for _ in range(40):
        p = random_poset(rng, 9)
        mask = rng.getrandbits(p.n)
        names = [nm for i, nm in enumerate(p.names) if (mask >> i) & 1]
        pairs = [(a, b) for a in names for b in names if a != b and p.leq(a, b)]
        assert vars(p.subposet(mask)) == vars(FinitePoset(names, pairs))
        reverse = [(b, a) for a in p.names for b in p.names if a != b and p.leq(a, b)]
        assert vars(p.op()) == vars(FinitePoset(p.names, reverse))


def test_order_chains_match_bruteforce():
    rng = random.Random(5)
    for _ in range(15):
        p = random_poset(rng, 6)
        for k, level in enumerate(order_chains(p)):
            assert level == sorted(
                c
                for c in permutations(range(p.n), k + 1)
                if all((p.gt_mask(a) >> b) & 1 for a, b in zip(c, c[1:]))
            )


def test_chain_count_counts_order_chains():
    rng = random.Random(12)
    for _ in range(30):
        p = random_poset(rng, 10)
        for max_len in range(1, p.n + 2):
            chains = order_chains(p, max_len=max_len)
            assert _chain_count(p, max_len) == sum(len(level) for level in chains)


def test_euler_characteristic_matches_homology():
    rng = random.Random(8)
    for _ in range(20):
        p = random_poset(rng, 7)
        chi_chains = euler_characteristic(p)
        hom = reduced_homology_q(p)
        chi_hom = sum((-1) ** k * v for k, v in hom.items())
        assert chi_chains == chi_hom


def test_homology_f2_and_q_agree_on_small_random_posets():
    # no torsion is reachable at these sizes, so the surrogates coincide
    rng = random.Random(15)
    for _ in range(15):
        p = random_poset(rng, 6)
        assert reduced_homology_f2(p) == reduced_homology_q(p)


def test_poset_validation():
    with pytest.raises(InputError):
        FinitePoset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(InputError):
        FinitePoset(["a", "a"], [])
    with pytest.raises(InputError):
        FinitePoset(["a"], [("a", "zzz")])


def test_identity_map_theorem_holds():
    p = subsets_poset(3)
    f = PosetMap(p, p, {nm: nm for nm in p.names})
    assert cone_homology_f2(f, 3) == {}
    t = {nm: 5 for nm in p.names}
    rep = check_poset_map_theorem(f, t, 0, "i")
    assert rep.conclusion_holds
    assert rep.consistent


def test_point_to_antichain_fails_consistently():
    pt = FinitePoset(["*"], [])
    ac = antichain_poset(2)
    f = PosetMap(pt, ac, {"*": "a0"})
    # conclusion fails at n = 0 and some hypothesis fails for every t
    for t0 in range(-2, 4):
        for t1 in range(-2, 4):
            for variant in ("i", "ii"):
                rep = check_poset_map_theorem(f, {"a0": t0, "a1": t1}, 0, variant)
                assert not rep.conclusion_holds
                assert not rep.hypotheses_hold
                assert rep.consistent


def test_non_order_preserving_map_rejected():
    c = chain_poset(2)
    a = antichain_poset(2)
    with pytest.raises(InputError):
        PosetMap(c, a, {"c0": "a0", "c1": "a1"})


def test_nerve_point_cover_trivial_case():
    X = chain_poset(3)
    A = FinitePoset(["*"], [])
    F = CoverFunctor(A, X, {"*": list(X.names)})
    tX = {"c0": 0, "c1": 1, "c2": 2}
    rep = check_nerve_theorem(X, A, F, 2, tX, {"*": 0})
    assert rep.hypotheses_hold and rep.conclusion_holds


def test_cover_functor_validation():
    X = chain_poset(2)
    A = chain_poset(2)
    with pytest.raises(InputError):
        CoverFunctor(A, X, {"c0": ["c1"], "c1": []})  # not closed downward
    with pytest.raises(InputError):
        CoverFunctor(A, X, {"c0": ["c0"], "c1": ["c0", "c1"]})  # not contravariant


def test_wreath_poset_counts_and_projections():
    rng = random.Random(21)
    for _ in range(10):
        A = random_poset(rng, 4)
        X = random_poset(rng, 5)
        F = None
        from bigraded.posets import random_cover

        F = random_cover(rng, A, X)
        w, pi1, pi2 = wreath_poset(A, F)
        assert w.n == sum(len(F.value(a).names) for a in A.names)
        # projections validated order-preserving at construction; fibers of
        # pi1 have the homology of F(a)
        for a in A.names:
            fib = pi1.fiber_leq(a)
            assert reduced_homology_f2(fib) == reduced_homology_f2(F.value(a))


def test_wreath_point_index():
    X = subsets_poset(3)
    A = FinitePoset(["*"], [])
    F = CoverFunctor(A, X, {"*": list(X.names)})
    w, _, _ = wreath_poset(A, F)
    assert w.n == X.n
    assert reduced_homology_f2(w) == reduced_homology_f2(X)


def test_connected_checks_conventions():
    empty = FinitePoset([], [])
    assert is_homologically_connected(empty, -2)
    assert not is_homologically_connected(empty, -1)
    pt = FinitePoset(["*"], [])
    assert is_homologically_connected(pt, -1)
    assert is_homologically_connected(pt, 10)
    circle = subsets_poset(3)
    assert is_homologically_connected(circle, 0)
    assert not is_homologically_connected(circle, 1)


def test_fuzz_campaigns_small():
    rep = fuzz_poset_map(400, 9, seed=1234)
    assert rep.instances == 400
    assert rep.hypotheses_satisfied > 0
    assert rep.clean, rep.counterexamples
    rep2 = fuzz_nerve(400, 9, seed=4321)
    assert rep2.instances == 400
    assert rep2.hypotheses_satisfied > 0
    assert rep2.clean, rep2.counterexamples


def test_fuzz_determinism():
    a = fuzz_poset_map(100, 8, seed=7)
    b = fuzz_poset_map(100, 8, seed=7)
    assert (a.hypotheses_satisfied, a.resampled_oversize) == (
        b.hypotheses_satisfied,
        b.resampled_oversize,
    )


# (instances, hypotheses_satisfied, resampled_oversize), recorded with
# homology computed on the whole poset; the max_size 26 cases resample
@pytest.mark.parametrize(
    "fuzz, count, max_size, seed, expected",
    [
        (fuzz_poset_map, 200, 7, 0, (200, 48, 0)),
        (fuzz_poset_map, 200, 7, 7, (200, 57, 0)),
        (fuzz_poset_map, 10, 26, 1, (10, 3, 2)),
        (fuzz_nerve, 200, 7, 0, (200, 46, 0)),
        (fuzz_nerve, 200, 7, 7, (200, 53, 0)),
        (fuzz_nerve, 10, 26, 0, (10, 2, 1)),
    ],
)
def test_campaign_results_are_pinned(fuzz, count, max_size, seed, expected):
    rep = fuzz(count, max_size, seed)
    assert (rep.instances, rep.hypotheses_satisfied, rep.resampled_oversize) == expected
    assert rep.clean


def test_counterexample_minimizers_produce_wellformed_dumps():
    # the campaigns never find violations, so exercise the dump plumbing
    # directly on fabricated instances
    from bigraded.posets import _minimize_map_instance, _minimize_nerve_instance

    pt = FinitePoset(["*"], [])
    ac = antichain_poset(2)
    f = PosetMap(pt, ac, {"*": "a0"})
    dump = _minimize_map_instance(f, {"a0": 0, "a1": 0}, 0, "i")
    assert set(dump) == {
        "source", "source_elements", "target", "target_elements", "map", "t", "n", "variant",
    }
    X = subsets_poset(2)
    A = FinitePoset(["*"], [])
    F = CoverFunctor(A, X, {"*": list(X.names)})
    dump2 = _minimize_nerve_instance(X, A, F, 1, {x: 1 for x in X.names}, {"*": 5})
    assert set(dump2) == {"X", "X_elements", "A", "A_elements", "F", "n", "tA", "tX"}


def test_random_monotone_map_is_monotone():
    rng = random.Random(2)
    for _ in range(50):
        X, Y = random_poset(rng, 7), random_poset(rng, 7)
        f = random_monotone_map(rng, X, Y)  # constructor validates
        assert set(f.mapping) == set(X.names)


def test_parsers():
    p = poset_from_text("a < b\nb < c\nd\n")
    assert p.n == 4 and p.leq("a", "c") and not p.leq("a", "d")
    w = parse_weights("a 1\nb -2\n")
    assert w == {"a": 1, "b": -2}
    X = chain_poset(2)
    A = FinitePoset(["*"], [])
    F = parse_cover("* : c0 c1\n", A, X)
    assert F.member("*", "c0")
    with pytest.raises(InputError):
        parse_weights("a\n")
    with pytest.raises(InputError):
        parse_weights("a x\n")
    with pytest.raises(InputError):  # an index element the index poset lacks
        parse_cover("* : c0 c1\nv : c0\n", A, X)
