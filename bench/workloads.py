"""The benchmark's three workloads, as passes of checked calls.

A pass is a fixed list of `Op`s.  Each op calls into `bigraded` through module
attributes (never through names bound at import time, so the traced run's
wrappers see every call) and returns a canonical JSON-able result, which
`mismatch` compares exactly with the committed reference.

- paper-suite: every paper computation at the paper's own sizes.
- homology-scale: vanishing certificates and homology above the paper's boxes.
- poset-campaign: fixed-size shards of the two randomized campaigns.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# the benchmark measures the checkout it sits in, never an installed copy
if SRC not in sys.path:
    sys.path.insert(0, SRC)
import bigraded  # noqa: E402

if not os.path.abspath(bigraded.__file__).startswith(SRC + os.sep):
    raise ImportError(f"bigraded imported from {bigraded.__file__}, not from {SRC}")
from bigraded import (  # noqa: E402
    cdga,
    cli,
    exactla,
    freealg,
    grading,
    posets,
    presentations,
    sympf2,
    taut,
)

DEFAULT_SEED = 1

# poset-campaign: campaigns of CAMPAIGN_COUNT instances split into 16 shards
# exactly as `cli.run_fuzz_sharded` splits them, so every shard is one call
# of SHARD_SIZE instances.  Round r of a run uses campaign seed
# seed + r * ROUND_STRIDE; round 0 is `bigraded poset fuzz --seed <seed>`.
CAMPAIGNS = ("poset-map", "nerve")
CAMPAIGN_COUNT = 1024
SHARDS = 16
SHARD_SIZE = CAMPAIGN_COUNT // SHARDS
MAX_SIZE = 12
ROUND_STRIDE = 10**9
SHARD_STRIDE = 1000003  # cli.run_fuzz_sharded's per-shard seed offset


class Op(NamedTuple):
    name: str  # reference key
    fn: Callable[[], object]
    units: int  # work units for ops_per_s: checks, certificates or instances


# ---------------------------------------------------------------------------
# paper-suite: criteria 1-9, 11, 12 of the acceptance gate, plus the CLI
# battery of criterion 13 and one SVG rendering


def _pairing():
    value = taut.paper_63_pairing()
    u, t = taut.ParamPoly.param("u"), taut.ParamPoly.param("t")
    return {
        "pairing": value.render(),
        "paper": value == taut.ParamPoly.const(128024064) * u**3 * t**2,
    }


def _coproduct_restriction():
    terms = taut.nfold_coproduct(taut.r12_restricted(), 5)
    k1, k1sq, k2 = (0, 0, (1,)), (0, 0, (2,)), (0, 0, (0, 1))
    got = {
        t.slots[3:]: t.coeff for t in taut.restrict_terms(terms, [{k1}] * 3 + [{k1sq, k2}] * 2)
    }
    paper = {
        (k1sq, k1sq): 101348100,
        (k1sq, k2): 1303192800,
        (k2, k1sq): 1303192800,
        (k2, k2): 16644434688,
    }
    return {
        "terms": len(terms),
        "coefficients": sorted(c.render() for c in got.values()),
        "paper": len(got) == 4
        and all(got.get(k) == taut.ParamPoly.const(v) for k, v in paper.items()),
    }


def _gysin_h43():
    A, B = taut.ParamPoly.param("A"), taut.ParamPoly.param("B")
    p = taut.euler().scale(A) + taut.kappa(1).scale(B)
    eq1 = taut.gysin_pushforward(taut.euler() * p, 4) == taut.kappa(1).scale(A - B * 6)
    eq2 = taut.gysin_pushforward(taut.euler(2) * p, 4) == taut.kappa(2).scale(A) + (
        taut.kappa(1) * taut.kappa(1)
    ).scale(B)
    kern = taut.deduce_h43_kernel()
    return {
        "identity_1": eq1,
        "identity_2": eq2,
        "kernel_dim": kern.solution_dim,
        "paper": eq1 and eq2 and kern.zero_only,
    }


def _lie_gens():
    return [freealg.gen("sigma", 1, 0), freealg.gen("lambda", 3, 2), freealg.gen("rho", 2, 2)]


def _lie_basis():
    basis = freealg.free_graded_lie_basis(_lie_gens(), (4, 3))
    got = {(b.content, b.g, b.d) for b in basis}
    paper = {
        (("sigma",), 1, 0),
        (("sigma", "sigma"), 2, 1),
        (("rho",), 2, 2),
        (("lambda",), 3, 2),
        (("rho", "sigma"), 3, 3),
        (("lambda", "sigma"), 4, 3),
    }
    return {"basis": sorted(b.name for b in basis), "paper": got == paper}


def _lie_oracle():
    oracle = freealg.lie_dimensions_bruteforce(_lie_gens(), (6, 6))
    mine: dict = {}
    for b in freealg.free_graded_lie_basis(_lie_gens(), (6, 6)):
        mine[(b.g, b.d)] = mine.get((b.g, b.d), 0) + 1
    return {"dims": sorted([g, d, n] for (g, d), n in oracle.items()), "paper": mine == oracle}


def _bidegrees():
    pts = [[p.g, p.d] for p in grading.bidegrees_between(Fraction(3, 4), 20)]
    return {"bidegrees": pts, "paper": pts == [[1, 0], [2, 1], [3, 2], [4, 3]]}


def _table(table) -> dict:
    return {
        "field": table.field_name,
        "box": list(table.box),
        "dims": [[g, d, n] for (g, d), n in table.sorted_items()],
    }


def _certificate(preset, box, slope, ell=None, paper=False):
    """A vanishing certificate; with `paper`, the paper states it certifies."""

    def op():
        rep = cdga.verify_vanishing(cdga.build_paper_complex(preset, box, ell=ell), slope, box)
        out = {
            **_table(rep.table),
            "certified": rep.certified,
            "violation": list(rep.violation) if rep.violation else None,
        }
        if paper:
            out["paper"] = rep.certified
        return out

    return op


def _koszul():
    f2 = cdga.CDGA(
        exactla.GF(2),
        [cdga.Letter(2, 1, 1, "qs"), cdga.Letter(2, 2, 2, "rho2")],
        {"rho2": {(1, 0): 1}},
    )
    t2 = cdga.homology_table(f2, (8, 8))
    lows = {}
    for ell in (3, 5):
        fld = exactla.GF(ell)
        cx = cdga.CDGA(
            fld,
            [cdga.Letter(2, 1, 1, "b"), cdga.Letter(2, 2, 2, "rho2")],
            {"rho2": {(1, 0): fld.of(Fraction(-1, 2))}},
        )
        t = cdga.homology_table(cx, (2 * ell, 2 * ell))
        lows[str(ell)] = list(min(gd for gd, n in t.sorted_items() if gd != (0, 0)))
    return {
        "f2": _table(t2),
        "lowest_positive": lows,
        "paper": t2.sorted_items() == [((0, 0), 1), ((4, 4), 1), ((8, 8), 1)]
        and lows == {"3": [6, 5], "5": [10, 9]},
    }


def _h_g1():
    bt = freealg.free_gerstenhaber_betti(
        [freealg.gen("sigma", 1, 0), freealg.gen("tau", 1, 1)], (6, 1)
    )
    free_row = [bt.dim(g, 1) for g in range(1, 5)]
    rows = {}
    for ell in (2, 3, 5):
        t = cdga.homology_table(cdga.build_paper_complex("A-algebra-fl", (6, 6), ell=ell), (6, 1))
        rows[str(ell)] = [t.dim(g, 1) for g in range(1, 7)]
    return {
        "free_algebra_row": free_row,
        "h_g1_by_prime": rows,
        "paper": free_row == [1, 2, 2, 2]
        and {ell: row[1] for ell, row in rows.items()} == {"2": 1, "3": 0, "5": 1}
        and all(row[2:] == [0, 0, 0, 0] for row in rows.values()),
    }


def _sp4(seed):
    def op():
        subs = sympf2.totally_nonorthogonal_subsets()
        p = sympf2.phi(sympf2.SWAP_MATRIX)
        rep = sympf2.verify_isomorphism(random_pairs=2000, seed=seed)
        return {
            "subsets": [sorted(sympf2.vector_name(v) for v in s) for s in subs],
            "swap": sympf2.cycle_notation(p),
            "swap_sign": sympf2.perm_sign(p),
            "group_order": rep.group_order,
            "kernel_trivial": rep.kernel_trivial,
            "checked_pairs": rep.homomorphism_checked_pairs,
            "paper": list(subs) == list(sympf2.CANONICAL_SUBSETS)
            and sympf2.cycle_notation(p) == "(12)(34)(56)"
            and rep.is_isomorphism,
        }

    return op


def _abelianizations():
    fixture = os.path.join(os.path.dirname(bigraded.__file__), "fixtures", "gamma21.abel")
    with open(fixture) as fh:
        gamma = presentations.parse_presentation(fh.read())
    got = {
        "braid3": presentations.abelianization(presentations.BRAID3).symbol(),
        "t10": presentations.abelianization(
            presentations.presentation(["t"], ["t t t t t t t t t t"])
        ).symbol(),
        "gamma21": presentations.abelianization(gamma).symbol(),
    }
    return {**got, "paper": got == {"braid3": "Z", "t10": "Z/10", "gamma21": "Z/10"}}


def _ranges():
    cases = [
        (("vanishing", 3, 2, -1), "3d ≤ 2g-1"),
        (("epimorphism", 4, 3, -1), "4d ≤ 3g-1"),
        (("isomorphism", 4, 3, -5), "4d ≤ 3g-5"),
        (("epimorphism", 5, 4, -1), "5d ≤ 4g-1"),
        (("isomorphism", 5, 4, -6), "5d ≤ 4g-6"),
    ] + [(("epimorphism", 3, 2, -(2 * s + 1)), f"3d ≤ 2g-{2 * s + 1}") for s in range(4)]
    rendered, ok = [], True
    for (kind, a, b, e), paper in cases:
        stmt = grading.range_statement(kind, a, b, e)
        rendered.append(stmt.render())
        ok = ok and stmt.render() == paper and grading.parse_range(paper, kind) == stmt
    return {"renderings": rendered, "paper": ok}


def _connectivity(field, base):
    def op():
        rep = posets.connectivity_report(posets.subsets_poset(base), field)
        # the boundary of a simplex on `base` points is a (base-2)-sphere
        return {
            "dims": sorted([k, v] for k, v in rep.dims.items()),
            "torsion": sorted([k, v] for k, v in (rep.torsion or {}).items()),
            "connectivity": rep.connectivity,
            "paper": rep.connectivity == base - 3,
        }

    return op


# criterion 13's battery, plus one SVG rendering
CLI_BATTERY = (
    ("taut", "pair", "--paper-6-3", "--format", "json"),
    ("vanish-check", "--preset", "intstab-f2", "--box", "5,5", "--format", "json"),
    ("report", "figure-lgens", "--format", "json"),
    ("sp4", "subsets", "--format", "json"),
    ("homology", "--preset", "vanishA", "--box", "8,8", "--format", "svg"),
)


def _cli(argv):
    def op():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return {"exit": code, "stdout": out.getvalue()}

    return op


def paper_suite(seed: int) -> list[Op]:
    ops = [
        ("pairing", _pairing),
        ("coproduct-restriction", _coproduct_restriction),
        ("gysin-h43-kernel", _gysin_h43),
        ("lie-basis(4,3)", _lie_basis),
        ("lie-oracle(6,6)", _lie_oracle),
        ("bidegrees-below-3/4", _bidegrees),
        ("certificate:vanishA(8,8)@3/4", _certificate("vanishA", (8, 8), Fraction(3, 4), None, True)),
        ("certificate:vanishB(8,8)@4/5", _certificate("vanishB", (8, 8), Fraction(4, 5), None, True)),
        (
            "certificate:intstab-f2(6,6)@3/4",
            _certificate("intstab-f2", (6, 6), Fraction(3, 4), None, True),
        ),
    ]
    ops += [
        (
            f"certificate:intstab-fl({ell})(6,6)@3/4",
            _certificate("intstab-fl", (6, 6), Fraction(3, 4), ell, True),
        )
        for ell in (3, 5)
    ]
    ops += [
        ("koszul-tables", _koszul),
        ("h_g1-tables", _h_g1),
        ("sp4", _sp4(seed)),
        ("abelianizations", _abelianizations),
        ("range-renderings", _ranges),
    ]
    # Q stops at base 5: connectivity_report(subsets_poset(6), "Q") runs for
    # minutes in the dense Fraction elimination
    ops += [
        (f"connectivity:{field}:subsets({base})", _connectivity(field, base))
        for field, bases in (("F2", range(3, 7)), ("Q", range(3, 6)), ("Z", range(3, 7)))
        for base in bases
    ]
    ops += [("cli:" + " ".join(argv), _cli(argv)) for argv in CLI_BATTERY]
    return [Op(name, fn, 1) for name, fn in ops]


# ---------------------------------------------------------------------------
# homology-scale: above the paper's boxes.  vanishB (14,14) is left out: it
# raises RecursionError in the recursive monomial enumeration.

HOMOLOGY_OPS = (
    ("certificate:vanishB(12,12)@4/5", ("vanishB", (12, 12), Fraction(4, 5), None)),
    ("certificate:intstab-f2(8,8)@3/4", ("intstab-f2", (8, 8), Fraction(3, 4), None)),
    ("certificate:intstab-fl(3)(8,8)@3/4", ("intstab-fl", (8, 8), Fraction(3, 4), 3)),
    ("homology:A-algebra-fl(5)(7,7)", ("A-algebra-fl", (7, 7), None, 5)),
)


def _homology(preset, box, ell):
    def op():
        return _table(cdga.homology_table(cdga.build_paper_complex(preset, box, ell=ell), box))

    return op


def homology_scale() -> list[Op]:
    """The inputs are the paper's complexes; no seed enters."""
    return [
        Op(name, _certificate(preset, box, slope, ell) if slope else _homology(preset, box, ell), 1)
        for name, (preset, box, slope, ell) in HOMOLOGY_OPS
    ]


# ---------------------------------------------------------------------------
# poset-campaign


def shard_seeds(campaign_seed: int) -> list[int]:
    """cli.run_fuzz_sharded's partition of a CAMPAIGN_COUNT campaign."""
    return [campaign_seed + SHARD_STRIDE * i for i in range(SHARDS)]


def _shard(campaign, shard_seed):
    fuzz = posets.fuzz_poset_map if campaign == "poset-map" else posets.fuzz_nerve

    def op():
        rep = fuzz(SHARD_SIZE, MAX_SIZE, shard_seed)
        return {
            "instances": rep.instances,
            "hypotheses_satisfied": rep.hypotheses_satisfied,
            "resampled_oversize": rep.resampled_oversize,
            "counterexamples": len(rep.counterexamples),
        }

    return op


def poset_campaign(seed: int, round_index: int) -> list[Op]:
    campaign_seed = seed + ROUND_STRIDE * round_index
    return [
        Op(f"{campaign}:{s}", _shard(campaign, s), SHARD_SIZE)
        for campaign in CAMPAIGNS
        for s in shard_seeds(campaign_seed)
    ]


def ops_for_pass(workload: str, seed: int, round_index: int) -> list[Op]:
    if workload == "paper-suite":
        return paper_suite(seed)
    if workload == "homology-scale":
        return homology_scale()
    if workload == "poset-campaign":
        return poset_campaign(seed, round_index)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# references


def canonical(result) -> str:
    return json.dumps(result, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _first_difference(got, want, path="") -> str:
    if isinstance(got, dict) and isinstance(want, dict):
        for k in sorted(set(got) | set(want)):
            if k not in got or k not in want:
                return f"{path}/{k}: present on one side only"
            if canonical(got[k]) != canonical(want[k]):
                return _first_difference(got[k], want[k], f"{path}/{k}")
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != reference {len(want)}"
        for i, (a, b) in enumerate(zip(got, want)):
            if canonical(a) != canonical(b):
                return _first_difference(a, b, f"{path}[{i}]")
    if isinstance(got, str) and isinstance(want, str):
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        return f"{path}: differs at character {i}"
    return f"{path}: {got!r} != reference {want!r}"


def mismatch(workload: str, op: Op, result, reference: dict) -> str | None:
    """None when the result is exactly the committed reference, else the
    first difference.  Campaign shards must also hold their invariants; a
    shard whose seed has no committed reference is checked by those alone."""
    want = reference[workload].get(op.name)
    if workload == "poset-campaign":
        if result["instances"] != SHARD_SIZE:
            return f"{op.name}: {result['instances']} instances, expected {SHARD_SIZE}"
        if result["counterexamples"]:
            return f"{op.name}: {result['counterexamples']} counterexamples"
        if want is None:
            return None
    elif want is None:
        return f"{op.name}: no committed reference"
    if canonical(result) == canonical(want):
        return None
    return op.name + _first_difference(result, want)
