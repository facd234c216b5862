import hashlib
import json
import random
from itertools import combinations, permutations

import pytest

from bigraded import cli, exactla, posets
from bigraded.errors import DomainError, InputError
from bigraded.posets import (
    INF,
    MAX_CHAINS,
    CoverFunctor,
    FinitePoset,
    PosetMap,
    check_nerve_theorem,
    check_poset_map_theorem,
    _chain_count,
    cone_homology_f2,
    connectivity_report,
    core,
    fuzz_nerve,
    fuzz_poset_map,
    is_homologically_connected,
    map_is_n_connected,
    mapping_cone,
    order_chains,
    _oversize,
    parse_cover,
    parse_weights,
    poset_from_text,
    random_monotone_map,
    random_poset,
    reduced_homology_f2,
    reduced_homology_q,
    reduced_homology_z,
    subsets_poset,
)
from oracles import antichain_poset, chain_poset, euler_characteristic, leq


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


def _core_by_sweeps(p, mask):
    """``core`` as first written, kept as the oracle of its removal order:
    sweeps in ascending index, each over the points alive at its start,
    until one removes nothing."""
    alive = mask
    changed = True
    while changed:
        changed = False
        for x in posets._bits(alive):
            bit = 1 << x
            up = p.above[x] & alive & ~bit
            down = p.below[x] & alive & ~bit
            if any(p.above[y] & alive == up for y in posets._bits(up)) or any(
                p.below[y] & alive == down for y in posets._bits(down)
            ):
                alive &= ~bit
                changed = True
    return alive


def test_core_keeps_the_removal_order_of_the_sweeps():
    """The same mask, not only a core of the same size: the points removed
    decide which chains the checkers list."""
    rng = random.Random(23)
    for _ in range(300):
        p = random_poset(rng, 12)
        full = (1 << p.n) - 1
        masks = [0, full, *(1 << i for i in range(p.n))]
        masks += [rng.getrandbits(p.n) for _ in range(6)]
        for mask in masks:
            assert core(p, mask) == _core_by_sweeps(p, mask)
        assert core(p) == _core_by_sweeps(p, full)


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


def test_mask_forms_equal_unreduced_homology_of_the_subposet():
    """connectivity_report and is_homologically_connected on a subset given
    as a mask agree with their forms on the built subposet and with its
    unreduced homology, over F2, Q and Z: empty and one-point masks, cones
    and beat points (one-point cores) and random masks."""
    rng = random.Random(41)
    cases = []
    for _ in range(8):
        for p in _with_beat_points(rng, 7):
            cases += [(p, 0), (p, 1 << rng.randrange(p.n)), (p, (1 << p.n) - 1)]
            cases += [(p, rng.getrandbits(p.n)) for _ in range(4)]
    rp2 = _rp2_faces()
    cases += [(rp2, (1 << rp2.n) - 1)] + [(rp2, rng.getrandbits(rp2.n)) for _ in range(4)]
    homology = {"F2": reduced_homology_f2, "Q": reduced_homology_q, "Z": reduced_homology_z}
    for p, mask in cases:
        sub = p.subposet(mask)
        for field, hom in homology.items():
            h = hom(sub)
            rep = connectivity_report(p, field, mask)
            assert rep == connectivity_report(sub, field)
            if field == "Z":
                assert rep.dims == {k: free for k, (free, _) in h.items()}
                assert rep.torsion == {k: tors for k, (_, tors) in h.items() if tors}
            else:
                assert rep.dims == h and rep.torsion is None
            assert rep.connectivity == (min(h) - 1 if h else INF)
            for m in range(-2, 5):
                expected = all(k > m for k in h)
                assert is_homologically_connected(p, m, field, mask) == expected
                assert is_homologically_connected(sub, m, field) == expected


def _rp2_faces():
    """The face poset of the six-vertex real projective plane: H_1 = Z/2."""
    triangles = ["123", "134", "145", "156", "126", "235", "346", "245", "356", "246"]
    faces = sorted({"".join(s) for t in triangles for k in (1, 2, 3) for s in combinations(t, k)})
    return FinitePoset(faces, [(a, b) for a in faces for b in faces if a != b and set(a) <= set(b)])


def _uct_posets():
    rng = random.Random(2029)
    return [subsets_poset(base) for base in (3, 4, 5, 6)] + [_rp2_faces()] + [
        random_poset(rng, rng.randint(1, 9)) for _ in range(100)
    ]


def test_integral_homology_obeys_universal_coefficients():
    """Over Z the free ranks are the rational Betti numbers, and the F2 Betti
    number in degree k is the free rank plus the even torsion factors in
    degrees k and k-1."""
    for p in _uct_posets():
        z, q, f2 = reduced_homology_z(p), reduced_homology_q(p), reduced_homology_f2(p)
        assert {k: free for k, (free, _) in z.items() if free} == q
        even = {k: sum(d % 2 == 0 for d in tors) for k, (_, tors) in z.items()}
        for k in q.keys() | f2.keys() | even.keys() | {k + 1 for k in even}:
            expected = q.get(k, 0) + even.get(k, 0) + even.get(k - 1, 0)
            assert f2.get(k, 0) == expected, (p.names, k)


def test_rational_rank_is_the_rank_over_q(monkeypatch):
    """Every boundary rank reduced_homology_q reads off the Smith form equals
    exactla.rank of the signed boundary over QQ, on the columns left after
    clearing; the rows it clears are rows of that boundary."""
    checked = []
    rank_z = posets._rank_z

    def compare(cols, nrows):
        got = rank_z(cols, nrows)
        rows = posets._signed_rows(cols, nrows)
        assert got[0] == exactla.rank(exactla.Matrix(exactla.QQ, nrows, len(cols), rows))
        assert len(got[2]) <= got[0] and all(0 <= r < nrows for r in got[2])
        checked.append(nrows)
        return got

    monkeypatch.setattr(posets, "_rank_z", compare)
    for p in _uct_posets():
        reduced_homology_q(p)
    assert len(checked) > 50


def test_cleared_boundaries_have_the_ranks_and_torsion_of_the_full_ones(monkeypatch):
    """Boundary by boundary, over F2 and over Z, the rank and torsion of a
    boundary reduced on the columns that clearing leaves equal those of the
    whole boundary: on random posets, RP^2 (Z/2 in degree 1),
    subsets_poset(3..6) and random mapping cones, whose signed boundaries
    are integral chain complexes too."""
    homology = exactla.chain_homology
    dropped = {"F2": 0, "Z": 0}
    name = None

    def checked(sizes, reduce, augmented=False):
        def compare(k, drop):
            got = reduce(k, drop)
            assert got[:2] == reduce(k, ())[:2]
            dropped[name] += len(drop)
            return got

        return homology(sizes, compare, augmented)

    monkeypatch.setattr(exactla, "chain_homology", checked)
    rng = random.Random(2030)
    complexes = [subsets_poset(base) for base in (3, 4, 5, 6)] + [_rp2_faces()]
    complexes += [random_poset(rng, rng.randint(1, 9)) for _ in range(60)]
    for f in _random_maps(2031, 60, 7):
        cone = mapping_cone(f)
        complexes.append(cone.subposet(core(cone)))
    for p in complexes:
        for name, homology_of in (("F2", reduced_homology_f2), ("Z", reduced_homology_z)):
            homology_of(p)
    assert reduced_homology_z(_rp2_faces()) == {1: (0, [2])}
    assert dropped["F2"] > 2000 and dropped["Z"] > 2000


def test_clearing_halves_the_boundary_work_on_subsets_of_six(monkeypatch):
    """subsets_poset(6), a 4-sphere, has 4 620 columns in its boundaries and
    16 560 nonzero entries; clearing leaves 2 341 columns to reduce over F2
    and 9 483 entries for the Smith form over Z."""
    columns, entries = [], []
    gf2_rank, smith = posets._gf2_rank, exactla.smith_normal_form

    def counting_rank(cols, nrows):
        columns.append(len(cols))
        return gf2_rank(cols, nrows)

    def counting_smith(rows, ncols):
        entries.append(sum(map(len, rows)))
        return smith(rows, ncols)

    monkeypatch.setattr(posets, "_gf2_rank", counting_rank)
    monkeypatch.setattr(exactla, "smith_normal_form", counting_smith)
    p = subsets_poset(6)
    assert connectivity_report(p, "F2").dims == connectivity_report(p, "Z").dims == {4: 1}
    assert (sum(columns), sum(entries)) == (2341, 9483)
    levels = order_chains(p)
    assert sum(map(len, levels[1:])) == 4620
    assert sum(k * len(levels[k - 1]) for k in range(2, len(levels) + 1)) == 16560


def test_sphere_boundaries_reduce_by_unit_pivots_alone(monkeypatch):
    """The boundaries of the order complexes of subsets_poset(3..6), spheres,
    leave nothing for the Smith form's second phase; RP^2's Z/2 does.  A
    pivot order that fills the boundaries in fails this without any timing."""
    residuals = []

    def record(w):
        residuals.append(sum(map(len, w.A.values())))
        return smith_residual(w)

    smith_residual = exactla._smith_residual
    monkeypatch.setattr(exactla, "_smith_residual", record)
    for base in (3, 4, 5, 6):
        residuals.clear()
        assert reduced_homology_z(subsets_poset(base)) == {base - 2: (1, [])}
        assert residuals and not any(residuals)
    residuals.clear()
    assert reduced_homology_z(_rp2_faces()) == {1: (0, [2])}
    assert any(residuals)


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


def _validated_cone(f):
    """The mapping cone of f built from its relations by the validating
    constructor: X's and Y's orders, x < y iff f(x) <= y, x < the cone point."""
    X, Y = f.source, f.target
    xs, ys = [("X", x) for x in X.names], [("Y", y) for y in Y.names]
    pairs = [(("X", a), ("X", b)) for a in X.names for b in X.names if a != b and leq(X, a, b)]
    pairs += [(("Y", a), ("Y", b)) for a in Y.names for b in Y.names if a != b and leq(Y, a, b)]
    pairs += [(("X", x), ("Y", y)) for x in X.names for y in Y.names if leq(Y, f.mapping[x], y)]
    pairs += [(x, ("cone", "*")) for x in xs]
    return FinitePoset(xs + ys + [("cone", "*")], pairs)


def test_mapping_cone_from_masks_equals_validated_construction():
    """On random maps, constant maps and maps to and from a point; the
    identity map's cone is contractible, so its core is one point."""
    rng = random.Random(37)
    pt = FinitePoset(["*"], [])
    maps = []
    for f in _random_maps(2032, 80, 8):
        X, Y = f.source, f.target
        y = rng.choice(Y.names)
        maps += [f, PosetMap(X, Y, {x: y for x in X.names})]
        maps += [PosetMap(X, pt, {x: "*" for x in X.names}), PosetMap(pt, Y, {"*": y})]
    for f in maps:
        assert vars(mapping_cone(f)) == vars(_validated_cone(f))
    for p in [pt, subsets_poset(3), subsets_poset(4)] + [random_poset(rng, 10) for _ in range(40)]:
        cone = mapping_cone(PosetMap(p, p, {nm: nm for nm in p.names}))
        assert bin(core(cone)).count("1") == 1
    empty = FinitePoset([], [])
    for f in (PosetMap(empty, pt, {}), PosetMap(empty, empty, {})):
        with pytest.raises(DomainError):
            mapping_cone(f)
        with pytest.raises(DomainError):
            cone_homology_f2(f, 1)
        with pytest.raises(DomainError):
            map_is_n_connected(f, 1)


def test_subposet_from_masks_equals_validated_construction():
    rng = random.Random(31)
    for _ in range(40):
        p = random_poset(rng, 9)
        mask = rng.getrandbits(p.n)
        names = [nm for i, nm in enumerate(p.names) if (mask >> i) & 1]
        pairs = [(a, b) for a in names for b in names if a != b and leq(p, a, b)]
        assert vars(p.subposet(mask)) == vars(FinitePoset(names, pairs))


def test_subsets_poset_from_masks_equals_validated_construction():
    for base in range(1, 8):
        subsets = range(1, (1 << base) - 1)
        name = posets.frozenset_to_name
        pairs = [(name(s, base), name(t, base)) for s in subsets for t in subsets if s != t and s & t == s]
        assert vars(subsets_poset(base)) == vars(FinitePoset(sorted(name(s, base) for s in subsets), pairs))


def _validated_random_poset(rng, max_size):
    """random_poset's draws, given to the validating constructor."""
    n = rng.randint(1, max_size)
    p_edge = rng.uniform(0.08, 0.45)
    names = [f"p{i}" for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    pairs = [(names[order[i]], names[order[j]])
             for i in range(n) for j in range(i + 1, n) if rng.random() < p_edge]
    return FinitePoset(names, pairs)


def test_random_poset_trusts_the_order_it_draws():
    """random_poset builds the poset the validating constructor builds from
    the same draws, and leaves the generator in the same state."""
    for seed in range(3000):
        rng, ref = random.Random(seed), random.Random(seed)
        max_size = 1 + seed % 12
        assert vars(random_poset(rng, max_size)) == vars(_validated_random_poset(ref, max_size))
        assert rng.getstate() == ref.getstate()


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


def test_oversize_is_the_chain_count_test():
    """The 2^n - 1 shortcut skips the count exactly where it cannot exceed
    MAX_CHAINS: the total orders on 12 and 13 points have 4 095 and 8 191
    chains, each above it, and are counted."""
    for n, chains in ((11, 2047), (12, 4095), (13, 8191)):
        p = chain_poset(n)
        assert _chain_count(p, n) == chains
        assert _oversize(p, n) == (chains > MAX_CHAINS) == (n >= 12)
        assert not _oversize(p, 3)
    rng = random.Random(13)
    for _ in range(400):
        p = random_poset(rng, 13)
        for max_len in range(1, 6):
            assert _oversize(p, max_len) == (_chain_count(p, max_len) > MAX_CHAINS)


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


@pytest.mark.parametrize(
    "names, pairs, message",
    [
        (["a", "b", "c"], [("c", "b"), ("b", "c")], "b and c"),
        # q < r directly, and r < q only through the closure: r < s < q
        (["p", "q", "r", "s"], [("p", "q"), ("q", "r"), ("r", "s"), ("s", "q")], "q and r"),
    ],
)
def test_cycles_name_their_first_mutually_comparable_pair(names, pairs, message):
    """The closure runs before the check, which names the first pair in
    element order."""
    with pytest.raises(InputError, match=f"^not a partial order: {message} are mutually comparable$"):
        FinitePoset(names, pairs)


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
    # c2 < c0 < c1 with two violations: the first in source order is reported
    x = FinitePoset(["c0", "c1", "c2"], [("c2", "c0"), ("c0", "c1")])
    with pytest.raises(InputError) as err:
        PosetMap(x, a, {"c0": "a0", "c1": "a1", "c2": "a0"})
    assert str(err.value) == "not order-preserving: c0 <= c1 but a0 !<= a1"


def test_poset_map_rejects_keys_outside_the_source():
    c = chain_poset(2)
    with pytest.raises(InputError, match="bogus"):
        PosetMap(c, c, {"c0": "c0", "c1": "c1", "bogus": "c0"})
    with pytest.raises(InputError, match="c1"):
        PosetMap(c, c, {"c0": "c0"})


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


@pytest.mark.parametrize(
    "count, max_size, message",
    [
        (1, 0, "maximum poset size must be >= 1, got 0"),
        (1, 65, "maximum poset size must be <= 64, got 65"),
        (2, 500, "maximum poset size must be <= 64, got 500"),
        (-5, 12, "instance count must be >= 0, got -5"),
    ],
)
@pytest.mark.parametrize("fuzz", [fuzz_poset_map, fuzz_nerve])
def test_campaign_bounds_are_checked_before_the_first_draw(fuzz, count, max_size, message, monkeypatch):
    """The command line's campaign bounds hold for a library caller too,
    checked before any poset is drawn."""
    monkeypatch.setattr(posets, "random_poset", None)
    with pytest.raises(InputError, match=f"^{message}$"):
        fuzz(count, max_size, 1)


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


def _rebuilt(elements, covers):
    return FinitePoset(elements, [tuple(pair) for pair in covers])


def _plant_map_violations(m):
    """The campaign and its minimizer look map_is_n_connected up at call
    time, so demanding one degree more plants violations of the theorem."""
    real = posets.map_is_n_connected
    m.setattr(posets, "map_is_n_connected", lambda f, n: real(f, n + 1))


def _plant_nerve_violations(m):
    """Re-judge the conclusion one degree higher: X must be n-connected.
    Returns the weakened checker."""
    real = posets.check_nerve_theorem

    def weakened(X, A, F, n, tX, tA):
        rep = real(X, A, F, n, tX, tA)
        rep.conclusion_holds = is_homologically_connected(X, n)
        return rep

    m.setattr(posets, "check_nerve_theorem", weakened)
    return weakened


def test_poset_map_campaign_finds_planted_violations(monkeypatch):
    with monkeypatch.context() as m:
        _plant_map_violations(m)
        instances = [
            (PosetMap(_rebuilt(d["source_elements"], d["source"]),
                      _rebuilt(d["target_elements"], d["target"]), d["map"]),
             d["t"], d["n"], d["variant"])
            for d in fuzz_poset_map(200, 7, seed=0).counterexamples
        ]
        assert not any(check_poset_map_theorem(*args).consistent for args in instances)
    assert len(instances) == 24
    assert all(check_poset_map_theorem(*args).consistent for args in instances)


def test_nerve_campaign_finds_planted_violations(monkeypatch):
    with monkeypatch.context() as m:
        weakened = _plant_nerve_violations(m)
        dumps = fuzz_nerve(200, 7, seed=0).counterexamples
    assert len(dumps) == 25
    for d in dumps:
        X, A = _rebuilt(d["X_elements"], d["X"]), _rebuilt(d["A_elements"], d["A"])
        args = (X, A, CoverFunctor(A, X, d["F"]), d["n"], d["tX"], d["tA"])
        assert not weakened(*args).consistent
        assert check_nerve_theorem(*args).consistent


# the first 16 hex digits of sha256 over the whole JSON report, recorded
# before subsets were passed as masks: six clean runs per campaign and the
# two planted-violation runs, which also exercise both minimizers
@pytest.mark.parametrize(
    "run, digest",
    [
        ("map0", "b7fe82be55996ad0"),
        ("map1", "ed6139aa6f7fe03c"),
        ("map2", "010b24d81cd14c9b"),
        ("map3", "7e7ac1e7985bc792"),
        ("map4", "cf218586f385570c"),
        ("map5", "114db3ab5f1770da"),
        ("nerve0", "0491cabbf26f7daa"),
        ("nerve1", "1a92ec9461c97a7d"),
        ("nerve2", "2040bfa72d7a9a26"),
        ("nerve3", "9852197dcd530054"),
        ("nerve4", "cd9f3c822b409ae4"),
        ("nerve5", "68b95f6e982ef86e"),
        ("planted_map", "8188ce115a294b82"),
        ("planted_nerve", "1f0a0a56d1a7c473"),
    ],
)
def test_whole_campaign_reports_are_pinned(run, digest, monkeypatch):
    if run == "planted_map":
        _plant_map_violations(monkeypatch)
        rep = fuzz_poset_map(200, 7, seed=0)
    elif run == "planted_nerve":
        _plant_nerve_violations(monkeypatch)
        rep = fuzz_nerve(200, 7, seed=0)
    else:
        fuzz = fuzz_poset_map if run.startswith("map") else fuzz_nerve
        rep = fuzz(300, 10, int(run[-1]))
    text = json.dumps(cli._jsonable(rep), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_clean_campaigns_build_no_subposet(monkeypatch):
    """The checkers and the informed weights run homology on masks of the
    parent poset, so a clean campaign, which runs no minimizer, builds no
    subposet at all."""
    built = []
    real = FinitePoset.subposet

    def recording(self, mask):
        built.append(mask)
        return real(self, mask)

    monkeypatch.setattr(FinitePoset, "subposet", recording)
    assert fuzz_poset_map(200, 7, seed=0).clean and fuzz_nerve(200, 7, seed=0).clean
    assert built == []
    subsets_poset(3).subposet(3)  # the recording sees a call
    assert built == [3]


def _random_masks(seed, count, max_size):
    """Random posets, each with its empty, one-point, whole and random
    masks."""
    rng = random.Random(seed)
    for _ in range(count):
        p = random_poset(rng, max_size)
        full = (1 << p.n) - 1
        masks = [0, 1 << rng.randrange(p.n), full] + [rng.getrandbits(p.n) for _ in range(4)]
        yield p, masks


def test_degree_zero_is_a_walk_of_the_comparability_graph():
    """is_homologically_connected(p, 0, mask=...) and the walk behind it
    agree with reduced F2 homology of the subposet in degrees -1 and 0:
    empty and one-point masks, and random masks, over every field."""
    cases = list(_random_masks(47, 150, 9))
    cases.append((subsets_poset(3), [0, 1, 3, 0b100001, 0b111111]))
    for p, masks in cases:
        for mask in masks:
            h = reduced_homology_f2(p.subposet(mask))
            connected = -1 not in h and 0 not in h
            if mask:
                assert posets._connected(p, mask) == connected
            for field in ("F2", "Q", "Z"):
                assert is_homologically_connected(p, 0, field, mask) == connected


def test_capped_connectivity_is_the_capped_report():
    """_connectivity(p, mask, cap) is min(connectivity, cap) for caps -3..5
    over F2, Q and Z: on spheres (homology in one degree only), RP^2
    (torsion in degree 1) and random posets and masks."""
    cases = list(_random_masks(53, 60, 8))
    for p in [subsets_poset(3), subsets_poset(4), subsets_poset(5), _rp2_faces()]:
        cases.append((p, [0, 1, (1 << p.n) - 1, (1 << p.n) - 2]))
    for p, masks in cases:
        for mask in masks:
            for field in ("F2", "Q", "Z"):
                conn = connectivity_report(p, field, mask).connectivity
                for cap in range(-3, 6):
                    assert posets._connectivity(p, mask, cap, field) == min(conn, cap)


def test_homology_of_a_mask_is_that_of_its_subposet():
    """Chains and reduced homology of a mask, over F2, Q and Z and through
    every degree, equal those of the subposet built on it; the chains are
    the subposet's, in the same order, in the parent's indices."""
    homology = (reduced_homology_f2, reduced_homology_q, reduced_homology_z)
    cases = list(_random_masks(59, 80, 9))
    cases.append((_rp2_faces(), [(1 << 31) - 1, 0x5A5A5A5A, 0x7FFF0000]))
    for p, masks in cases:
        for mask in masks:
            sub = p.subposet(mask)
            keep = posets._bits(mask)
            assert [[tuple(keep[i] for i in c) for c in level] for level in order_chains(sub)] == (
                order_chains(p, mask=mask)
            )
            for through in (None, 0, 1, 2):
                for hom in homology:
                    assert hom(p, through, mask) == hom(sub, through)


def test_masks_outside_the_poset_are_input_errors():
    p = subsets_poset(3)
    for mask in (1 << 10 | 3, 1 << 6, -1, -8):
        with pytest.raises(InputError, match="not a subset"):
            connectivity_report(p, "F2", mask=mask)
        with pytest.raises(InputError, match="not a subset"):
            is_homologically_connected(p, 1, mask=mask)
        with pytest.raises(InputError, match="not a subset"):
            order_chains(p, mask=mask)
        with pytest.raises(InputError, match="not a subset"):
            core(p, mask)
    assert connectivity_report(p, "F2", mask=(1 << 6) - 1).connectivity == 0


def test_random_monotone_map_is_monotone():
    rng = random.Random(2)
    for _ in range(50):
        X, Y = random_poset(rng, 7), random_poset(rng, 7)
        f = random_monotone_map(rng, X, Y)  # constructor validates
        assert set(f.mapping) == set(X.names)


def test_parsers():
    p = poset_from_text("a < b\nb < c\nd\n")
    assert p.n == 4 and leq(p, "a", "c") and not leq(p, "a", "d")
    for bad in ("a < b < c\n", "a <\n", "< b\n"):
        with pytest.raises(InputError, match="bad relation line"):
            poset_from_text(bad)
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
