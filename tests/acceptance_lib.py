"""Acceptance-criteria computations, shared by test_acceptance and the
determinism check.  Every criterion is computed exactly (zero tolerance) and
the aggregate report is canonical JSON: running this module twice, in any
process, must produce byte-identical output."""

from __future__ import annotations

import json
import time
from fractions import Fraction

from bigraded import freealg, grading, posets, presentations, sympf2, taut
from bigraded.cdga import build_paper_complex, homology_table, verify_vanishing
from bigraded.exactla import GF


def crit_1_pairing():
    t0 = time.monotonic()
    value = taut.paper_63_pairing()
    elapsed = time.monotonic() - t0
    u, t = taut.ParamPoly.param("u"), taut.ParamPoly.param("t")
    expected = taut.ParamPoly.const(128024064) * u**3 * t**2
    return {
        "pass": value == expected and elapsed < 1.0,
        "pairing": value.render(),
        "within_budget": elapsed < 1.0,
    }


def crit_2_coproduct_restriction():
    terms = taut.nfold_coproduct(taut.r12_restricted(), 5)
    k1, k1sq, k2 = (0, 0, (1,)), (0, 0, (2,)), (0, 0, (0, 1))
    got = {
        t.slots[3:]: t.coeff
        for t in taut.restrict_terms(terms, [{k1}] * 3 + [{k1sq, k2}] * 2)
    }
    expected = {
        (k1sq, k1sq): 101348100,
        (k1sq, k2): 1303192800,
        (k2, k1sq): 1303192800,
        (k2, k2): 16644434688,
    }
    ok = all(got.get(k) == taut.ParamPoly.const(v) for k, v in expected.items()) and len(
        got
    ) == 4
    return {"pass": ok, "coefficients": sorted(str(c.render()) for c in got.values())}


def crit_3_gysin_and_kernel():
    A, B = taut.ParamPoly.param("A"), taut.ParamPoly.param("B")
    p = taut.euler().scale(A) + taut.kappa(1).scale(B)
    eq1 = taut.gysin_pushforward(taut.euler() * p, 4) == taut.kappa(1).scale(A - B * 6)
    eq2 = taut.gysin_pushforward(taut.euler(2) * p, 4) == taut.kappa(2).scale(A) + (
        taut.kappa(1) * taut.kappa(1)
    ).scale(B)
    kern = taut.deduce_h43_kernel()
    return {
        "pass": eq1 and eq2 and kern.zero_only,
        "identity_1": eq1,
        "identity_2": eq2,
        "kernel_dim": kern.solution_dim,
    }


def crit_4_lie_basis():
    gens = [freealg.gen("sigma", 1, 0), freealg.gen("lambda", 3, 2), freealg.gen("rho", 2, 2)]
    basis = freealg.free_graded_lie_basis(gens, (4, 3))
    got = {(b.content, b.g, b.d) for b in basis}
    expected = {
        (("sigma",), 1, 0),
        (("sigma", "sigma"), 2, 1),
        (("rho",), 2, 2),
        (("lambda",), 3, 2),
        (("rho", "sigma"), 3, 3),
        (("lambda", "sigma"), 4, 3),
    }
    triple_absent = not any(b.content == ("sigma", "sigma", "sigma") for b in basis)
    oracle = freealg.lie_dimensions_bruteforce(gens, (6, 6))
    mine: dict = {}
    for b in freealg.free_graded_lie_basis(gens, (6, 6)):
        mine[(b.g, b.d)] = mine.get((b.g, b.d), 0) + 1
    return {
        "pass": got == expected and triple_absent and mine == oracle,
        "basis": sorted(b.name for b in basis),
        "oracle_box_6_6_match": mine == oracle,
    }


def crit_5_bidegree_enumeration():
    pts = [(p.g, p.d) for p in grading.bidegrees_between(Fraction(3, 4), 20)]
    return {"pass": pts == [(1, 0), (2, 1), (3, 2), (4, 3)], "bidegrees": pts}


def crit_6_vanishing_certifications():
    t0 = time.monotonic()
    results = {}
    results["vanishA"] = verify_vanishing(
        build_paper_complex("vanishA", (8, 8)), Fraction(3, 4), (8, 8)
    ).certified
    results["vanishB"] = verify_vanishing(
        build_paper_complex("vanishB", (8, 8)), Fraction(4, 5), (8, 8)
    ).certified
    results["intstab-f2"] = verify_vanishing(
        build_paper_complex("intstab-f2", (6, 6)), Fraction(3, 4), (6, 6)
    ).certified
    for ell in (3, 5):
        results[f"intstab-fl({ell})"] = verify_vanishing(
            build_paper_complex("intstab-fl", (6, 6), ell=ell), Fraction(3, 4), (6, 6)
        ).certified
    elapsed = time.monotonic() - t0
    return {
        "pass": all(results.values()) and elapsed < 120.0,
        "certified": results,
        "within_budget": elapsed < 120.0,
    }


def crit_7_koszul_factors():
    from bigraded.cdga import CDGA, Letter

    f2 = CDGA(GF(2), [Letter(2, 1, 1, "qs"), Letter(2, 2, 2, "rho2")], {"rho2": {(1, 0): 1}})
    t2 = homology_table(f2, (8, 8))
    ok2 = t2.sorted_items() == [((0, 0), 1), ((4, 4), 1), ((8, 8), 1)]
    lows = {}
    for ell in (3, 5):
        fld = GF(ell)
        cx = CDGA(
            fld,
            [Letter(2, 1, 1, "b"), Letter(2, 2, 2, "rho2")],
            {"rho2": {(1, 0): fld.of(Fraction(-1, 2))}},
        )
        t = homology_table(cx, (2 * ell, 2 * ell))
        lows[ell] = min(gd for gd, n in t.sorted_items() if gd != (0, 0))
    ok_odd = lows[3] == (6, 5) and lows[5] == (10, 9)
    return {
        "pass": ok2 and ok_odd,
        "f2_table": [list(gd) for gd, _ in t2.sorted_items()],
        "lowest_positive": {str(k): list(v) for k, v in lows.items()},
    }


def crit_8_h_g1_tables():
    bt = freealg.free_gerstenhaber_betti(
        [freealg.gen("sigma", 1, 0), freealg.gen("tau", 1, 1)], (6, 1)
    )
    free_row = [bt.dim(g, 1) for g in range(1, 5)]
    ok_free = free_row == [1, 2, 2, 2]
    h21 = {}
    higher_ok = True
    for ell in (2, 3, 5):
        t = homology_table(build_paper_complex("A-algebra-fl", (6, 6), ell=ell), (6, 1))
        h21[ell] = t.dim(2, 1)
        higher_ok = higher_ok and all(t.dim(g, 1) == 0 for g in range(3, 7))
    ok_h21 = h21 == {2: 1, 3: 0, 5: 1}
    return {
        "pass": ok_free and ok_h21 and higher_ok,
        "free_algebra_row": free_row,
        "h21_by_prime": {str(k): v for k, v in h21.items()},
        "h_g1_vanishes_3_to_6": higher_ok,
    }


def crit_9_sp4():
    subs = sympf2.totally_nonorthogonal_subsets()
    ok_list = len(subs) == 6 and list(subs) == list(sympf2.CANONICAL_SUBSETS)
    p = sympf2.phi(sympf2.SWAP_MATRIX)
    ok_swap = sympf2.cycle_notation(p) == "(12)(34)(56)" and sympf2.perm_sign(p) == -1
    rep = sympf2.verify_isomorphism(random_pairs=2000)
    return {
        "pass": ok_list and ok_swap and rep.is_isomorphism,
        "swap_permutation": sympf2.cycle_notation(p),
        "group_order": rep.group_order,
        "kernel_trivial": rep.kernel_trivial,
    }


def crit_10_poset_suites(fuzz_count: int = 10000):
    conn_ok = True
    for base in range(3, 7):  # boundary of a simplex on base points: p = base-1
        rep = posets.connectivity_report(posets.subsets_poset(base))
        conn_ok = conn_ok and rep.connectivity == base - 3
    import random as _random

    rng = _random.Random(77)
    cones_ok = True
    for _ in range(10):
        q = posets.random_poset(rng, 8)
        cone = posets.FinitePoset(
            list(q.names) + ["TOP"], q.cover_pairs() + [(nm, "TOP") for nm in q.names]
        )
        cones_ok = cones_ok and posets.connectivity_report(cone).connectivity == posets.INF
    fz1 = posets.fuzz_poset_map(fuzz_count, 12, seed=20260101)
    fz2 = posets.fuzz_nerve(fuzz_count, 12, seed=20260102)
    return {
        "pass": conn_ok and cones_ok and fz1.clean and fz2.clean,
        "connectivities_ok": conn_ok,
        "cones_acyclic": cones_ok,
        "poset_map_fuzz": {
            "instances": fz1.instances,
            "hypotheses_satisfied": fz1.hypotheses_satisfied,
            "counterexamples": len(fz1.counterexamples),
        },
        "nerve_fuzz": {
            "instances": fz2.instances,
            "hypotheses_satisfied": fz2.hypotheses_satisfied,
            "counterexamples": len(fz2.counterexamples),
        },
    }


def crit_11_abelianizations():
    import os

    b3 = presentations.abelianization(presentations.BRAID3).symbol()
    t10 = presentations.abelianization(
        presentations.presentation(["t"], ["t t t t t t t t t t"])
    ).symbol()
    fix = os.path.join(os.path.dirname(__file__), "..", "src", "bigraded", "fixtures", "gamma21.abel")
    with open(fix) as fh:
        gamma = presentations.abelianization(presentations.parse_presentation(fh.read())).symbol()
    return {
        "pass": b3 == "Z" and t10 == "Z/10" and gamma == "Z/10",
        "braid3": b3,
        "t10": t10,
        "gamma21": gamma,
    }


def crit_12_range_calculus():
    cases = [
        (("vanishing", 3, 2, -1), "3d ≤ 2g-1"),
        (("epimorphism", 4, 3, -1), "4d ≤ 3g-1"),
        (("isomorphism", 4, 3, -5), "4d ≤ 3g-5"),
        (("epimorphism", 5, 4, -1), "5d ≤ 4g-1"),
        (("isomorphism", 5, 4, -6), "5d ≤ 4g-6"),
    ]
    for s in range(0, 4):
        cases.append((("epimorphism", 3, 2, -(2 * s + 1)), f"3d ≤ 2g-{2 * s + 1}"))
    rendered = {}
    ok = True
    for (kind, a, b, e), want in cases:
        stmt = grading.range_statement(kind, a, b, e)
        rendered[want] = stmt.render()
        ok = ok and stmt.render() == want and grading.parse_range(want, kind) == stmt
    return {"pass": ok, "renderings": sorted(rendered.values())}


CRITERIA = [
    ("1", "tautological pairing 128024064*u^3*t^2", crit_1_pairing),
    ("2", "coproduct restriction coefficients", crit_2_coproduct_restriction),
    ("3", "Gysin identities and zero kernel", crit_3_gysin_and_kernel),
    ("4", "free Lie basis in the (4,3) box + oracle", crit_4_lie_basis),
    ("5", "bidegrees below the 3/4 line", crit_5_bidegree_enumeration),
    ("6", "vanishing certifications", crit_6_vanishing_certifications),
    ("7", "Koszul factor homologies", crit_7_koszul_factors),
    ("8", "degree-one homology tables", crit_8_h_g1_tables),
    ("9", "Sp4(F2) subsets and permutation image", crit_9_sp4),
    ("10", "poset suites and fuzz campaigns", crit_10_poset_suites),
    ("11", "abelianizations", crit_11_abelianizations),
    ("12", "range calculus renderings", crit_12_range_calculus),
]


def build_report(fuzz_count: int = 10000) -> dict:
    report = {}
    for num, desc, fn in CRITERIA:
        result = fn(fuzz_count) if num == "10" else fn()
        # volatile fields (time-derived booleans stay, timings are excluded)
        report[num] = {"description": desc, **result}
    return report


def report_bytes(fuzz_count: int = 10000) -> bytes:
    return json.dumps(build_report(fuzz_count), sort_keys=True, separators=(",", ":")).encode()


if __name__ == "__main__":
    import sys

    count = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    sys.stdout.buffer.write(report_bytes(count))
    sys.stdout.write("\n")
