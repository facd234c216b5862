"""Regenerate bench/reference.json from the code in this checkout.

    python3 bench/make_reference.py

Every paper-suite result must hold its paper value and every CLI call must
exit 0 before anything is written.  Campaign shards are stored for the first
REFERENCE_ROUNDS rounds of the default seed and for round 0 of seeds
0..REFERENCE_SEEDS-1; shards of other seeds are checked by their invariants
only.  Only regenerate when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import json
import sys

import workloads as w
from run import git_sha, src_digest

REFERENCE_ROUNDS = 40
REFERENCE_SEEDS = 32


def _results(ops) -> dict:
    out = {}
    for op in ops:
        out[op.name] = op.fn()
        print(f"  {op.name}", file=sys.stderr)
    return out


def main() -> int:
    paper = _results(w.paper_suite(w.DEFAULT_SEED))
    bad = [
        name
        for name, r in paper.items()
        if (r.get("exit") != 0 if name.startswith("cli:") else r.get("paper") is not True)
    ]
    if bad:
        raise SystemExit(f"paper values do not hold: {bad}")
    homology = _results(w.homology_scale())
    rounds = [(w.DEFAULT_SEED, r) for r in range(REFERENCE_ROUNDS)]
    rounds += [(s, 0) for s in range(REFERENCE_SEEDS) if (s, 0) not in rounds]
    campaign = {}
    for seed, r in rounds:
        for op in w.poset_campaign(seed, r):
            res = op.fn()
            if res["counterexamples"] or res["instances"] != w.SHARD_SIZE:
                raise SystemExit(f"shard {op.name} breaks an invariant: {res}")
            campaign[op.name] = res
        print(f"  campaign seed {seed} round {r}", file=sys.stderr)
    reference = {
        "generated_from": {"git_sha": git_sha(), "src_digest": src_digest()},
        "paper-suite": paper,
        "homology-scale": homology,
        "poset-campaign": campaign,
    }
    write(reference)
    return 0


def write(reference: dict) -> None:
    """One line per op, so that a changed result shows as a changed line."""
    sections = []
    for section, body in sorted(reference.items()):
        if section == "generated_from":
            sections.append(f"{json.dumps(section)}: {w.canonical(body)}")
            continue
        items = ",\n".join(f"{json.dumps(k)}: {w.canonical(v)}" for k, v in sorted(body.items()))
        sections.append(f"{json.dumps(section)}: {{\n{items}\n}}")
    with open(w.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(sections) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
