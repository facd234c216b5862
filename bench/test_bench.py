"""Tests of the benchmark's own machinery: self-time arithmetic, wrapper
installation, calibrated time, and the exact reference checker."""

import copy
import os
import shutil
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as w  # noqa: E402
from bigraded import cdga, cli, posets  # noqa: E402


def _synthetic(spans):
    """A Tracer holding the given (name, start, end, parent) spans."""
    tr = tracing.Tracer()
    for name, start, end, parent in spans:
        tr._stack = [parent] if parent >= 0 else []
        idx = tr.open(name)
        tr.start[idx], tr.end[idx] = start, end
    tr._stack = []
    return tr


def test_self_time_nested_and_reentrant():
    tr = _synthetic(
        [
            ("bench.pass", 0.0, 10.0, -1),
            ("bench.op", 0.5, 9.5, 0),
            ("cdga.DGModule.monomial_basis", 1.0, 5.0, 1),
            ("cdga.CDGA.monomial_basis", 2.0, 4.0, 2),  # re-entrant: same layer
            ("trace.bookkeeping", 5.0, 5.5, 1),
            ("exactla.rank", 6.0, 9.0, 1),
            ("exactla.rref", 7.0, 8.0, 5),
        ]
    )
    assert tracing.self_times(tr) == [1.0, 1.5, 2.0, 2.0, 0.5, 2.0, 1.0]
    layers = tracing.layer_self_seconds(tr)
    assert layers == {"cdga.enum": 4.0, "exactla.rank": 3.0, "trace.bookkeeping": 0.5}
    assert sum(layers.values()) <= tr.end[0] - tr.start[0]


def test_self_time_merges_overlapping_children():
    tr = _synthetic(
        [
            ("bench.pass", 0.0, 10.0, -1),
            ("exactla.rank", 1.0, 4.0, 0),
            ("exactla.rank", 3.0, 6.0, 0),
            ("exactla.rank", 9.0, 12.0, 0),  # clipped to the parent's end
        ]
    )
    assert tracing.self_times(tr)[0] == 10.0 - 5.0 - 1.0


def _bindings():
    """Every (namespace, attribute) a target is bound to, with its object."""
    out = {}
    for module, path, _, _ in tracing.TARGETS:
        owner, attr = tracing._resolve(module, path)
        original = owner.__dict__[attr]
        out[(id(owner), attr)] = (owner, original)
        for name, mod in sys.modules.items():
            if name.startswith("bigraded") and mod.__dict__.get(attr) is original:
                out[(id(mod), attr)] = (mod, original)
    return out


def test_install_wraps_every_binding_and_counts_reentrant_call_once():
    before = _bindings()
    assert any(ns.__name__ == "bigraded.presentations" for ns, _ in before.values())
    tr = tracing.Tracer()
    patches = tracing.install(tr)
    try:
        for (_, attr), (ns, original) in before.items():
            assert getattr(ns, attr) is not original, (ns, attr)
        module = cdga.build_paper_complex("intstab-f2", (3, 3))
        basis = module.monomial_basis((3, 3))
    finally:
        tracing.uninstall(patches)
    for (_, attr), (ns, original) in before.items():
        assert getattr(ns, attr) is original, (ns, attr)
    assert tr.counts["cdga.monomials"] == len(basis)
    names = [tr.span_name(i) for i in range(len(tr.start))]
    outer = names.index("cdga.DGModule.monomial_basis")
    inner = [i for i in range(len(names)) if tr.parent[i] == outer]
    assert inner and all(names[i] == "cdga.CDGA.monomial_basis" for i in inner)


def test_untraced_run_installs_no_wrapper():
    before = _bindings()
    alarm = signal.getsignal(signal.SIGALRM)
    result, _, record, tr = run.run("poset-campaign", 5, 0.01, trace=False, probes=1)
    assert tr is None and result["correct"] and record["provenance"]["passes"] == 1
    for (_, attr), (ns, original) in before.items():
        assert getattr(ns, attr) is original, (ns, attr)
    assert signal.getsignal(signal.SIGALRM) is alarm
    assert record["provenance"]["speed_probes"] > 0


def test_calibrated_time_drops_probe_time_and_scales_by_nearby_probes():
    probe = run.SpeedProbe()
    ref = probe.REFERENCE_MS / 1000.0
    # probes at 0.0 and 0.5 s ran at twice the reference time, the one at 10 s at it
    probe.at, probe.took = [0.0, 0.5, 10.0], [2 * ref, 2 * ref, ref]
    assert probe.speed(0.0, 1.0) == pytest.approx(0.5)
    assert probe.calibrated(0.0, 1.0) == pytest.approx((1.0 - 4 * ref) * 0.5)
    assert probe.speed(9.0, 11.0) == pytest.approx(1.0)
    # no probe within WINDOW of the interval: the run's mean speed is used
    assert probe.calibrated(2.0, 3.0) == pytest.approx(0.6)


def _op(workload, name):
    ops = w.paper_suite(w.DEFAULT_SEED) if workload == "paper-suite" else w.homology_scale()
    return next(op for op in ops if op.name == name)


def test_checker_flags_one_homology_dimension_and_one_cli_byte():
    reference = w.load_reference()

    cert = _op("paper-suite", "certificate:vanishA(8,8)@3/4")
    got = cert.fn()
    assert w.mismatch("paper-suite", cert, got, reference) is None
    bad = copy.deepcopy(reference)
    bad["paper-suite"][cert.name]["dims"][-1][2] += 1
    assert "dims" in w.mismatch("paper-suite", cert, got, bad)

    big = _op("homology-scale", "certificate:vanishB(12,12)@4/5")
    stored = reference["homology-scale"][big.name]
    bad = copy.deepcopy(reference)
    bad["homology-scale"][big.name]["dims"][0][2] += 1
    assert w.mismatch("homology-scale", big, copy.deepcopy(stored), reference) is None
    assert "dims" in w.mismatch("homology-scale", big, copy.deepcopy(stored), bad)

    battery = _op("paper-suite", "cli:sp4 subsets --format json")
    got = battery.fn()
    assert w.mismatch("paper-suite", battery, got, reference) is None
    bad = copy.deepcopy(reference)
    text = bad["paper-suite"][battery.name]["stdout"]
    i = len(text) // 2
    bad["paper-suite"][battery.name]["stdout"] = text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1 :]
    assert f"differs at character {i}" in w.mismatch("paper-suite", battery, got, bad)


def test_checker_holds_campaign_shards_to_their_invariants():
    op = w.poset_campaign(10**6, 0)[0]
    reference = {"poset-campaign": {}}
    ok = {"instances": w.SHARD_SIZE, "hypotheses_satisfied": 3, "resampled_oversize": 0, "counterexamples": 0}
    assert w.mismatch("poset-campaign", op, ok, reference) is None
    assert w.mismatch("poset-campaign", op, {**ok, "counterexamples": 1}, reference)
    assert w.mismatch("poset-campaign", op, {**ok, "instances": 63}, reference)
    reference["poset-campaign"][op.name] = {**ok, "hypotheses_satisfied": 4}
    assert w.mismatch("poset-campaign", op, ok, reference)


def test_shards_use_the_cli_partition(monkeypatch):
    jobs = []

    def record(campaign, count, max_size, seed):
        jobs.append((campaign, count, max_size, seed))
        return posets.FuzzReport(campaign, seed, count, 0, [], 0)

    monkeypatch.setattr(cli, "_fuzz_shard", record)
    for campaign in w.CAMPAIGNS:
        cli.run_fuzz_sharded(campaign, w.CAMPAIGN_COUNT, w.MAX_SIZE, 42, threads=1)
    assert [tuple(op.name.split(":")) for op in w.poset_campaign(42, 0)] == [
        (c, str(s)) for c, _, _, s in jobs
    ]
    assert {(n, m) for _, n, m, _ in jobs} == {(w.SHARD_SIZE, w.MAX_SIZE)}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper-suite", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
