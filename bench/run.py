"""Benchmark of the bigraded workbench.

    python3 bench/run.py --workload paper-suite --seed 1 --seconds 30 --trace 0

Runs one workload closed-loop in this process (the next call starts when the
last one returns) for about --seconds, checks every call's result against
bench/reference.json, and prints a readable report followed, as the last
line, by one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 measures the end-to-end metrics with no wrapper installed; loop
timings are in calibrated time (see SpeedProbe), and the readable report also
gives them in wall time.
--trace 1 first runs untraced for half the time, then wraps the public
functions of each layer (bench/tracer.py) and runs traced for the other half;
it reports the per-layer metrics and the tracing overhead.

Workloads are run in whole passes: a new pass starts while less than
--seconds have passed.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("paper-suite", "homology-scale", "poset-campaign")
SETUP_PROBES = 5

# Percentile behind op_tail_ms, fixed per workload.  Every pass of
# paper-suite and homology-scale makes the same calls, so a percentile falls
# in the block of one call kind whatever the number of passes, and does not
# jump between kinds from run to run.  paper-suite: p89 is the highest whole
# percentile with ten calls beyond it at three passes (96 calls); it lands in
# the middle of the sp4 block.  homology-scale makes 8 calls in 30 s, so no
# percentile has ten beyond; p87 is the slowest certificate, vanishB (12,12).
# poset-campaign makes about 600 shard calls; p95 leaves about 30 beyond.
# The output states the percentile and how many calls lay beyond it.
TAIL_PERCENTILE = {"paper-suite": 89, "homology-scale": 87, "poset-campaign": 95}


def _declared_metrics() -> dict[str, dict[str, str]]:
    """Unit of every metric BENCHMARK.json declares, per kind."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def _setup(workload: str, seed: int):
    """Everything before the first op can run: imports, references, the
    first pass's ops."""
    import workloads

    reference = workloads.load_reference()
    first = workloads.ops_for_pass(workload, seed, 0)
    return workloads, reference, first


def _probe_setup_seconds(workload: str, seed: int) -> float:
    """Wall seconds from starting a fresh interpreter to its first op being
    ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe", "--workload", workload]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd + ["--seed", str(seed)], stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code})")
    return elapsed


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def src_digest() -> str:
    """sha256 over the program's source files, identifying the code measured
    when no git sha is available."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "bigraded")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith((".py", ".abel")):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


class Loop:
    """Closed-loop passes of checked calls, and what they measured."""

    def __init__(self, workloads, reference, workload: str, seed: int, tracer=None):
        self.w = workloads
        self.reference = reference
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.calls: list[tuple[float, float]] = []  # (start, end) of every call
        self.units = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.passes = 0
        self.window = (0.0, 0.0)  # (start, end) of run()
        self.reference_checked = 0
        self.campaign = {"instances": 0, "satisfied": 0, "resampled": 0}

    def run(self, seconds: float, first_round: int, first_ops=None) -> None:
        t_start = perf_counter()
        rnd = first_round
        while True:
            ops = first_ops if first_ops is not None else self.w.ops_for_pass(
                self.workload, self.seed, rnd
            )
            first_ops = None
            self._pass(ops)
            now = perf_counter()
            self.passes += 1
            rnd += 1
            if now - t_start >= seconds:
                break
        self.window = (t_start, perf_counter())
        self.next_round = rnd

    def _pass(self, ops) -> None:
        tr = self.tracer
        pass_span = tr.open("bench.pass") if tr else None
        for op in ops:
            op_span = tr.open("bench.op") if tr else None
            t0 = perf_counter()
            try:
                result = op.fn()
            except Exception as exc:  # a raising call is a failed op, not a crash
                result, error = None, f"{op.name}: raised {type(exc).__name__}: {exc}"
            else:
                error = None
            self.calls.append((t0, perf_counter()))
            if tr:
                tr.close(op_span)
            self.attempted += 1
            self.units += op.units
            if error is None:
                error = self.w.mismatch(self.workload, op, result, self.reference)
            if error is not None:
                self.failures.append(error)
            if op.name in self.reference[self.workload]:
                self.reference_checked += 1
            if self.workload == "poset-campaign" and result is not None:
                self.campaign["instances"] += result["instances"]
                self.campaign["satisfied"] += result["hypotheses_satisfied"]
                self.campaign["resampled"] += result["resampled_oversize"]
        if tr:
            tr.close(pass_span)

    def merge_checks(self, other: "Loop") -> None:
        """Count another loop's checked calls as this loop's."""
        self.attempted += other.attempted
        self.failures[:0] = other.failures
        self.reference_checked += other.reference_checked

    @property
    def latencies(self) -> list[float]:
        return [end - start for start, end in self.calls]

    @property
    def wall(self) -> float:
        return self.window[1] - self.window[0]

    @property
    def ops_per_s(self) -> float:
        return self.units / self.wall


def _tail(latencies: list[float], percentile: int) -> tuple[float, int]:
    """Nearest-rank percentile of the latencies and the number of calls
    beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class SpeedProbe:
    """Samples the machine's single-thread speed while the loop runs: every
    PERIOD seconds a SIGALRM handler times a fixed pure-Python kernel.

    The VM the bounds were set on switches between two speeds about 1.7x
    apart, every 50-80 ms, and the share of slow time drifts over seconds to
    minutes (bench/NOTES.md).  Loop timings are therefore reported in
    calibrated time: the wall time of an interval, less the probes run inside
    it, scaled by REFERENCE_MS over the mean kernel time of the probes taken
    within WINDOW of the interval.  This cancels most of the drift."""

    PERIOD = 0.025
    WINDOW = 0.05
    REFERENCE_MS = 0.65

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._table = dict.fromkeys(range(256), 0)

    def _kernel(self) -> int:
        # dict and integer work that creates no object the cycle collector
        # tracks, so the probes do not move the program's garbage collections
        # (and with them its peak memory)
        table = self._table
        acc = 0
        for i in range(1500):
            key = (acc ^ i) & 255
            table[key] += 1
            acc = (acc * 31 + table[key]) & 0xFFFFFFFF
        return acc

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self._kernel()
        self.at.append(t0)
        self.took.append(perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float, end: float) -> float:
        """Calibrated seconds per wall second around [start, end]; above 1
        when the machine runs faster than the reference."""
        near = self.took[bisect_left(self.at, start - self.WINDOW) : bisect_right(self.at, end + self.WINDOW)]
        return self.REFERENCE_MS / (statistics.fmean(near or self.took) * 1000.0)

    def calibrated(self, start: float, end: float) -> float:
        """Calibrated seconds of the wall interval [start, end]."""
        inside = sum(self.took[bisect_left(self.at, start) : bisect_right(self.at, end)])
        return (end - start - inside) * self.speed(start, end)


def _end_to_end(workload: str, loop: Loop, setup: list[float], probe: SpeedProbe):
    latencies = [probe.calibrated(start, end) for start, end in loop.calls]
    tail, beyond = _tail(latencies, TAIL_PERCENTILE[workload])
    wall_tail, _ = _tail(loop.latencies, TAIL_PERCENTILE[workload])
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": loop.units / probe.calibrated(*loop.window),
        "op_p50_ms": statistics.median(latencies) * 1000.0,
        "op_tail_ms": tail * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "tail_percentile": TAIL_PERCENTILE[workload],
        "calls_beyond_tail": beyond,
        "speed_factor": probe.speed(*loop.window),
        "speed_probes": len(probe.took),
        "wall_ops_per_s": loop.ops_per_s,
        "wall_op_p50_ms": statistics.median(loop.latencies) * 1000.0,
        "wall_op_tail_ms": wall_tail * 1000.0,
    }
    return metrics, extra


def _per_layer(tracer, traced: Loop, untraced: Loop) -> dict[str, float]:
    import tracer as tracing

    passes = traced.passes
    selfs = tracing.layer_self_seconds(tracer)
    pass_s = sum(
        tracer.end[i] - tracer.start[i]
        for i in range(len(tracer.start))
        if tracer.span_name(i) == "bench.pass"
    )
    attributed = sum(selfs.get(layer, 0.0) for layer in tracing.TIMED_LAYERS)
    bookkeeping = selfs.get(tracing.BOOKKEEPING, 0.0)
    out = {f"{layer}_s": selfs.get(layer, 0.0) / passes for layer in tracing.TIMED_LAYERS}
    counts = tracer.counts
    for metric in tracing.COUNT_METRICS:
        out[metric] = counts.get(metric, 0) / passes
    entries = counts.get("cdga.matrix_entries", 0)
    out["cdga.density"] = counts.get("cdga.nnz", 0) / entries if entries else 0.0
    camp = traced.campaign
    drawn = camp["instances"] + camp["resampled"]
    out["posets.satisfied_ratio"] = camp["satisfied"] / camp["instances"] if camp["instances"] else 0.0
    out["posets.resampled_ratio"] = camp["resampled"] / drawn if drawn else 0.0
    out["trace.overhead"] = traced.ops_per_s / untraced.ops_per_s
    out["trace.pass_s"] = pass_s / passes
    out["trace.bookkeeping_s"] = bookkeeping / passes
    out["trace.unattributed_share"] = (pass_s - attributed - bookkeeping) / pass_s
    return dict(sorted(out.items()))


def _report_lines(workload, loop: Loop, metrics, units, extra, trace: bool) -> list[str]:
    kind = "traced passes" if trace else "passes"
    lines = [
        f"workload {workload}: {loop.passes} {kind} in {loop.wall:.3f} s; "
        f"{loop.attempted} calls checked, {len(loop.failures)} failed"
    ]
    for name, value in metrics.items():
        note = ""
        if name in ("cdga.matrix_entries", "exactla.entries"):
            note = "  (computed from matrix shapes)"
        elif name == "op_tail_ms":
            note = (
                f"  (p{extra['tail_percentile']} of {loop.attempted} calls, "
                f"{extra['calls_beyond_tail']} beyond)"
            )
        elif name == "setup_s":
            note = f"  (median of {SETUP_PROBES} fresh interpreters)"
        lines.append(f"  {name:<28} {value:>16.6f} {units[name]}{note}")
    if not trace:
        lines.append(
            f"  calibrated time: wall time x {extra['speed_factor']:.4f} over the run "
            f"({extra['speed_probes']} speed probes); in wall time: "
            f"ops_per_s {extra['wall_ops_per_s']:.6f}, op_p50_ms {extra['wall_op_p50_ms']:.6f}, "
            f"op_tail_ms {extra['wall_op_tail_ms']:.6f}"
        )
        share = len(loop.failures) / loop.attempted
        lines.append(f"  {'failed_ops':<28} {share:>16.6f} share  ({len(loop.failures)} of {loop.attempted} calls)")
        if workload == "poset-campaign":
            rate = loop.campaign["satisfied"] * metrics["ops_per_s"] / loop.units
            lines.append(f"  {'satisfied_per_s':<28} {rate:>16.6f} 1/s")
        else:
            lines.append(f"  {'satisfied_per_s':<28} {'undefined':>16} (no campaign in this workload)")
    for failure in loop.failures[:20]:
        lines.append(f"  FAILED {failure}")
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool, probes: int = SETUP_PROBES):
    """One benchmark run: (result object, readable lines, record, tracer or None)."""
    setup = [_probe_setup_seconds(workload, seed) for _ in range(probes)]
    workloads, reference, first = _setup(workload, seed)
    if not trace:
        loop = Loop(workloads, reference, workload, seed)
        with SpeedProbe() as probe:
            loop.run(seconds, 0, first)
        metrics, extra = _end_to_end(workload, loop, setup, probe)
        tracer_obj = None
    else:
        import tracer as tracing

        untraced = Loop(workloads, reference, workload, seed)
        untraced.run(seconds / 2, 0, first)
        tracer_obj = tracing.Tracer()
        loop = Loop(workloads, reference, workload, seed, tracer_obj)
        patches = tracing.install(tracer_obj)
        try:
            loop.run(seconds / 2, untraced.next_round)
        finally:
            tracing.uninstall(patches)
        metrics = _per_layer(tracer_obj, loop, untraced)
        extra = {"untraced_passes": untraced.passes, "untraced_calls": untraced.attempted}
        loop.merge_checks(untraced)
    units = _declared_metrics()["per_layer" if trace else "end_to_end"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    lines = _report_lines(workload, loop, metrics, units, extra, trace)
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "provenance": {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "git_sha": git_sha(),
            "src_digest": src_digest(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "setup_probes": len(setup),
            "passes": loop.passes,
            "calls": len(loop.latencies),
            "calls_checked_against_stored_reference": loop.reference_checked,
            "work_units": loop.units,
            **extra,
        },
        **result,
    }
    return result, lines, record, tracer_obj


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if args.probe:
        _setup(args.workload, args.seed)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0

    try:
        result, lines, record, tracer_obj = run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except (ImportError, OSError, RuntimeError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer_obj is not None:
        tracer_obj.write(stem + "-spans.tsv.gz")
    print("\n".join(lines))
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
