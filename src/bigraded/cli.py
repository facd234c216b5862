"""Unified command-line front end.

Each subcommand handler computes and describes, and nothing else: it returns
one `Outcome`.  `main` wraps that in the report envelope, renders it per
--format and picks the exit code.  A handler parses no mathematics of its
own; each grammar lives with its module.  `cdga` reads presets (``NAME`` or
``NAME(ELL)``, and the prime) and CDGA files, `freealg` generator files, and
`taut` expressions, ``--restrict`` slot patterns, functionals files and
ledger relations files; `posets`, `presentations`, `exactla` and `sympf2`
read their own files and matrices, and `charts` holds the figures of
``report``; `grading` reads rationals and ``LAM:C`` lines, and `cdga` holds
each preset's default line.  The CLI reads only its own flags: ``--config``
files and ``G,D`` boxes.  The size caps are the library's: the box rule
`grading.check_box`, met before any work, `freealg.MAX_LIE_WORDS` and the
campaign bounds of `posets.check_campaign`.

Exit codes: 0 = success / certificate holds, 1 = counterexample or failed
certificate (and nothing else), 2 = input error, 3 = internal error (a bug).
Reports are deterministic: JSON is emitted with sorted keys and no volatile
fields, so identical invocations produce byte identical output; wall-clock
timing is opt-in via --timings.

Configuration: ``--config FILE`` reads ``key = value`` lines as the flags
``--key=value`` (a bare ``key`` line is a boolean flag), spliced in right
after the subcommand words.  Config keys are long flag names, typed and
validated like flags, and later flags on the command line win.  An unknown
key, or a value for a boolean flag, is an input error.  The only environment
variable consulted is WORKBENCH_THREADS, which caps the worker pool used to
shard fuzz campaigns (shards merge deterministically in seed order); the
pool never has more workers than shards, at most 16.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass

from . import __version__
from . import charts, cdga, exactla, freealg, grading, posets, presentations, sympf2, taut
from .errors import InputError, WorkbenchError
from .parsing import content_lines

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# options whose value names an input file; reports hash each one given
INPUT_FILES = ("gens", "cdga", "expr_file", "functionals", "relations",
               "poset", "A", "cover", "tx", "ta", "infile")
# options that exclude each other (--cdga takes --field, --preset takes --ell)
EXCLUSIVE = (("cdga", "preset"), ("cdga", "ell"), ("preset", "field"), ("slope", "line"),
             ("swap", "matrix"), ("paper_6_3", "functionals"), ("expr", "expr_file"))


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if hasattr(x, "__dataclass_fields__"):
        return {k: _jsonable(getattr(x, k)) for k in sorted(x.__dataclass_fields__)}
    return x


def _digest(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()[:16]
    except OSError:
        return "unreadable"


@dataclass
class Outcome:
    """What a handler computed: the report's ``result`` payload, the text
    lines, a (headers, rows) table for csv/tsv, a (cells, box, lines, title)
    chart for svg, and the status; ``counterexample`` is the exit-1 verdict."""

    result: dict
    lines: list
    table: tuple | None = None
    chart: tuple | None = None
    status: str = "ok"


def _envelope(args, outcome: Outcome, t0: float) -> dict:
    """The JSON report: the command, its parameters, a digest of each input
    file, the handler's result and status, and with --timings the wall time
    since ``t0``."""
    inputs = [getattr(args, k) for k in INPUT_FILES if getattr(args, k, None) is not None]
    env = {
        "tool": "bigraded",
        "version": __version__,
        "command": " ".join(_subcommand(args) + ([args.figure] if args.cmd == "report" else [])),
        "params": _jsonable({k: v for k, v in vars(args).items() if k != "fn"}),
        "inputs": {os.path.basename(p): _digest(p) for p in sorted(inputs)},
        "result": outcome.result,
        "status": outcome.status,
    }
    if args.timings:
        env["wall_ms"] = round((time.monotonic() - t0) * 1000.0, 3)
    return env


def _emit(args, outcome: Outcome, t0: float):
    """Render per --format to --out or stdout."""
    fmt = args.format
    if fmt == "json":
        out = json.dumps(_envelope(args, outcome, t0), sort_keys=True, separators=(",", ":")) + "\n"
    elif fmt in ("csv", "tsv"):
        if outcome.table is None:
            raise InputError(f"--format {fmt} is not available for this subcommand")
        sep = "," if fmt == "csv" else "\t"
        headers, rows = outcome.table
        out = sep.join(headers) + "\n"
        for row in rows:
            out += sep.join(str(v) for v in row) + "\n"
    elif fmt == "svg":
        if outcome.chart is None:
            raise InputError("--format svg is not available for this subcommand")
        cells, box, lines, title = outcome.chart
        out = charts.svg_grid(cells, box, lines, title=title) + "\n"
    else:
        out = "\n".join(outcome.lines) + ("\n" if outcome.lines else "")
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(out)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(out)


def _parse_box(text: str) -> tuple[int, int]:
    try:
        g, d = text.split(",")
        return int(g), int(d)
    except ValueError as exc:
        raise InputError(f"bad box {text!r}; expected G,D") from exc


def _box(text: str | None) -> tuple[int, int]:
    """The --box G,D, 8,8 if none is given, checked before any file is read."""
    return grading.check_box(_parse_box(text) if text is not None else (8, 8))


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _gens_from_file(path: str):
    return freealg.read_letters(content_lines(_read(path)), "generator")


def _table_outcome(table, box, title, result, head=(), guides=(), status="ok") -> Outcome:
    """Shared rendering of a bigraded dimension table: ``dims`` in the
    payload, an ASCII grid after the ``head`` lines, a g,d,dim table and a
    chart, both with the vanishing lines ``guides`` drawn in."""
    items = table.sorted_items()
    cells = charts.cells_from_dims(table.dims)
    return Outcome(
        result={**result, "dims": {f"{g},{d}": n for (g, d), n in items}},
        lines=[*head, charts.ascii_grid(cells, box, guides)],
        table=(["g", "d", "dim"], [[g, d, n] for (g, d), n in items]),
        chart=(cells, box, guides, title),
        status=status,
    )


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_ranges(args) -> Outcome:
    stmt = grading.range_statement(args.kind, args.a, args.b, args.e)
    result = {
        "kind": stmt.kind,
        "normalized": [stmt.a, stmt.b, stmt.e],
        "rendering": stmt.render(),
    }
    lines = [f"{stmt.kind} for {stmt.render()}"]
    status = "ok"
    if args.check is not None:
        g, d = _parse_box(args.check)
        ok = stmt.satisfies((g, d))
        result["check"] = {"g": g, "d": d, "satisfies": ok}
        lines.append(f"({g},{d}): {'in range' if ok else 'out of range'}")
        status = "ok" if ok else "counterexample"
    table = (["kind", "a", "b", "e", "rendering"],
             [[stmt.kind, stmt.a, stmt.b, stmt.e, stmt.render()]])
    return Outcome(result, lines, table=table, status=status)


def cmd_slope_box(args) -> Outcome:
    high = grading.parse_rational(args.high)
    result = {}
    gmax = args.gmax
    if gmax is None:
        gmax = grading.auto_g_bound(high)
        result["auto_gmax"] = gmax
    pts = grading.bidegrees_between(high, gmax)
    result["bidegrees"] = [[p.g, p.d] for p in pts]
    lines = [f"bidegrees with d >= g-1 and slope <= {high}, g <= {gmax}:"]
    lines += [f"  ({p.g},{p.d})  slope {grading.slope(p)}" for p in pts]
    return Outcome(result, lines, table=(["g", "d"], [[p.g, p.d] for p in pts]))


def cmd_lie_basis(args) -> Outcome:
    box = _box(args.box)
    basis = freealg.free_graded_lie_basis(_gens_from_file(args.gens), box)
    dims = Counter((b.g, b.d) for b in basis)
    return Outcome(
        {"basis": [{"name": b.name, "g": b.g, "d": b.d, "r": b.r} for b in basis]},
        [f"{b.name}  ({b.g},{b.d})  weight {b.r}" for b in basis],
        table=(["name", "g", "d", "r"], [[b.name, b.g, b.d, b.r] for b in basis]),
        chart=(charts.cells_from_dims(dims), box, (), "free Lie basis dimensions"),
    )


def cmd_betti(args) -> Outcome:
    box = _box(args.box)
    betti = {"Q": freealg.free_gerstenhaber_betti, "F2": freealg.betti_table_f2}[args.field]
    table = betti(_gens_from_file(args.gens), box)
    name = table.field_name
    return _table_outcome(table, box, f"Betti table over {name}", {"field": name})


def _complex_and_box(args):
    """The complex named by --cdga (over --field) or by --preset (with
    --ell), and the --box.  The preset's spelling and prime are
    `cdga.build_paper_complex`'s to read."""
    box = _box(args.box)
    if args.cdga is not None:
        fld = exactla.field_by_name(args.field if args.field is not None else "Q")
        cx = cdga.parse_cdga_file(_read(args.cdga), fld)
    elif args.preset is not None:
        cx = cdga.build_paper_complex(args.preset, box, ell=args.ell)
    else:
        raise InputError("need --preset or --cdga")
    return cx, box


def cmd_homology(args) -> Outcome:
    cx, box = _complex_and_box(args)
    table = cdga.homology_table(cx, box)
    name = table.field_name
    return _table_outcome(table, box, f"homology over {name}", {"field": name})


def cmd_vanish_check(args) -> Outcome:
    cx, box = _complex_and_box(args)
    if args.line is not None:
        line = grading.parse_line(args.line)
    elif args.slope is not None:
        line = grading.VanishingLine(grading.parse_rational(args.slope))
    else:
        line = cdga.default_line(args.preset, args.ell)
    res = cdga.verify_vanishing(cx, line, box)
    head = [
        f"{'CERTIFIED' if res.certified else 'COUNTEREXAMPLE'}: homology below "
        f"{line.render()} in box {box}"
    ]
    if res.violation:
        g, d, n = res.violation
        head.append(f"  violation at ({g},{d}), dimension {n}")
    result = {
        "certified": res.certified,
        "line": line.render(),
        "box": list(box),
        "violation": list(res.violation) if res.violation else None,
    }
    return _table_outcome(
        res.table, box, "vanishing certification", result, head=head, guides=[line],
        status="certified" if res.certified else "counterexample",
    )


def cmd_taut_gysin(args) -> Outcome:
    out = taut.gysin_pushforward(taut.parse_taut(args.expr), args.genus).render()
    return Outcome({"pushforward": out}, [out])


def cmd_taut_coproduct(args) -> Outcome:
    text = _read(args.expr_file) if args.expr_file is not None else args.expr
    if text is None:
        raise InputError("need --expr or --expr-file")
    p = taut.parse_taut(text)
    patterns = None
    if args.restrict is not None:
        taut.check_coproduct(p, args.n)  # the expansion's errors before the restriction's
        patterns = taut.parse_slot_patterns(args.restrict, args.n)
    terms = taut.nfold_coproduct(p, args.n, patterns)
    rows = [[t.coeff.render()] + [taut.mono_name(s) for s in t.slots] for t in terms]
    return Outcome(
        {"terms": [{"coeff": row[0], "slots": row[1:]} for row in rows]},
        [t.render() for t in terms],
        table=(["coeff"] + [f"slot{i+1}" for i in range(args.n)], rows),
    )


def cmd_taut_pair(args) -> Outcome:
    if args.paper_6_3:
        p, funcs = taut.r12_restricted(), taut.paper_63_functionals()
    elif args.functionals is not None:
        p, funcs = taut.parse_functionals(_read(args.functionals))
    else:
        raise InputError("need --paper-6-3 or --functionals FILE")
    # a term with a slot outside its functional's support pairs to zero
    terms = taut.nfold_coproduct(p, len(funcs), [f.support for f in funcs])
    value, trace = taut.pair_tensor_trace(terms, funcs)
    contributing = [
        {
            "coeff": t.coeff.render(),
            "slots": [taut.mono_name(s) for s in t.slots],
            "contribution": c.render(),
        }
        for t, c in trace
    ]
    return Outcome({"pairing": value.render(), "contributing_terms": contributing},
                   [value.render()])


def cmd_taut_ledger(args) -> Outcome:
    ledger = taut.Ledger()
    if args.relations is not None:
        ledger.add_relations_file(_read(args.relations), args.genus)
    rels = ledger.lookup(genus=args.genus, degree=args.degree)
    relations = [
        {
            "poly": r.poly.render(),
            "genus": r.ambient_genus,
            "degree": r.degree,
            "source": r.source_label,
        }
        for r in rels
    ]
    lines = [
        f"[genus {r.ambient_genus if r.ambient_genus is not None else '*'}, "
        f"degree {r.degree}] {r.poly.render()} = 0   ({r.source_label})"
        for r in rels
    ]
    return Outcome({"relations": relations}, lines)


def cmd_taut_h43(args) -> Outcome:
    res = taut.deduce_h43_kernel()
    lines = [f"solution space dimension: {res.solution_dim}"]
    lines += [f"  {c}" for c in res.constraints]
    return Outcome(_jsonable(res), lines, status="ok" if res.zero_only else "counterexample")


def cmd_nerve(args) -> Outcome:
    X = posets.poset_from_text(_read(args.poset))
    A = posets.poset_from_text(_read(args.A))
    F = posets.parse_cover(_read(args.cover), A, X)
    tX = posets.parse_weights(_read(args.tx))
    tA = posets.parse_weights(_read(args.ta))
    res = posets.check_nerve_theorem(X, A, F, args.n, tX, tA)
    lines = [
        f"hypotheses: {'hold' if res.hypotheses_hold else 'fail'}",
        f"conclusion (X is (n-1)-connected, homologically): "
        f"{'holds' if res.conclusion_holds else 'fails'}",
    ]
    lines += [f"  [{'ok' if r.holds else 'NO'}] {r.element}: {r.requirement}" for r in res.records]
    return Outcome(_jsonable(res), lines, status="ok" if res.consistent else "counterexample")


def cmd_poset_fuzz(args) -> Outcome:
    threads = _thread_count(args)
    res = run_fuzz_sharded(args.campaign, args.count, args.max_size, args.seed, threads)
    result = _jsonable(res)
    lines = [
        f"campaign {res.campaign}: {res.instances} instances, "
        f"{res.hypotheses_satisfied} with hypotheses satisfied, "
        f"{len(res.counterexamples)} counterexamples"
    ]
    if res.counterexamples:
        lines.append(json.dumps(result["counterexamples"], sort_keys=True))
    return Outcome(result, lines, status="ok" if res.clean else "counterexample")


def _thread_count(args) -> int:
    env = os.environ.get("WORKBENCH_THREADS")
    if args.threads is not None:
        if args.threads < 1:
            raise InputError(f"--threads must be >= 1, got {args.threads}")
        return args.threads
    if env:
        if not env.isdigit() or int(env) < 1:
            raise InputError(f"bad WORKBENCH_THREADS: {env!r}")
        return int(env)
    return os.cpu_count() or 1


def _fuzz_shard(campaign: str, count: int, max_size: int, seed: int) -> posets.FuzzReport:
    fn = posets.fuzz_poset_map if campaign == "poset-map" else posets.fuzz_nerve
    return fn(count, max_size, seed)


def run_fuzz_sharded(
    campaign: str, count: int, max_size: int, seed: int, threads: int = 1
) -> posets.FuzzReport:
    """Shard a campaign across workers by derived seeds; the partition and
    the merge order depend only on (count, seed), never on the worker count,
    so reports are identical for every thread setting.  The campaign's
    bounds are checked before any shard is made: a count of -5 would make
    none, and an empty report."""
    if campaign not in ("poset-map", "nerve"):
        raise InputError(f"unknown campaign {campaign!r}")
    posets.check_campaign(count, max_size)
    shards = min(16, count) or 1
    sizes = [count // shards + (1 if i < count % shards else 0) for i in range(shards)]
    jobs = [(campaign, sz, max_size, seed + 1000003 * i) for i, sz in enumerate(sizes) if sz]
    if threads > 1 and len(jobs) > 1:
        import concurrent.futures

        # at most one worker per shard: the pool forks all of its workers at once
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            reports = list(pool.map(_fuzz_shard, *zip(*jobs)))
    else:
        reports = [_fuzz_shard(*job) for job in jobs]
    return posets.FuzzReport(
        campaign=campaign,
        seed=seed,
        instances=sum(r.instances for r in reports),
        hypotheses_satisfied=sum(r.hypotheses_satisfied for r in reports),
        counterexamples=[c for r in reports for c in r.counterexamples],
        resampled_oversize=sum(r.resampled_oversize for r in reports),
    )


def cmd_sp4_subsets(args) -> Outcome:
    names = [sorted(sympf2.vector_name(v) for v in s)
             for s in sympf2.totally_nonorthogonal_subsets()]
    return Outcome(
        {"subsets": {str(i + 1): s for i, s in enumerate(names)}},
        [f"{i + 1} = {{{', '.join(s)}}}" for i, s in enumerate(names)],
    )


def cmd_sp4_phi(args) -> Outcome:
    if args.swap:
        m = sympf2.SWAP_MATRIX
    elif args.matrix is not None:
        m = sympf2.parse_matrix(args.matrix)
    else:
        raise InputError("need --matrix or --swap")
    p = sympf2.phi(m)
    sign = sympf2.perm_sign(p)
    parity = "odd" if sign < 0 else "even"
    cycles = sympf2.cycle_notation(p)
    return Outcome({"cycles": cycles, "sign": sign, "parity": parity}, [f"{cycles} {parity}"])


def cmd_sp4_verify(args) -> Outcome:
    res = sympf2.verify_isomorphism(random_pairs=args.pairs)
    result = {**_jsonable(res), "is_isomorphism": res.is_isomorphism}
    lines = [
        f"group order: {res.group_order}",
        f"kernel trivial: {res.kernel_trivial}",
        f"image is all of Sym(6): {res.image_is_full_symmetric}",
        f"isomorphism: {res.is_isomorphism}",
    ]
    return Outcome(result, lines, status="ok" if res.is_isomorphism else "counterexample")


def cmd_abelianize(args) -> Outcome:
    inv = presentations.abelianization(presentations.parse_presentation(_read(args.infile)))
    return Outcome({**_jsonable(inv), "group": inv.symbol()}, [inv.symbol()])


def cmd_la_snf(args) -> Outcome:
    rows, ncols = exactla.parse_int_matrix(_read(args.infile))
    sf = exactla.smith_normal_form(rows, ncols, want_certs=args.certificate)
    result = {
        "factors": sf.factors,
        "free_rank": sf.free_rank,
        "cokernel": sf.abelian_group_symbol(),
    }
    lines = [
        f"invariant factors: {sf.factors}",
        f"free rank: {sf.free_rank}",
        f"cokernel: {sf.abelian_group_symbol()}",
    ]
    if args.certificate:
        ok = exactla.snf_certificate_ok(rows, sf)
        result["certificate_ok"] = ok
        lines.append(f"certificate U*A*V = D verified: {ok}")
    return Outcome(result, lines)


def cmd_report(args) -> Outcome:
    cells, box, lines, title = charts.FIGURES[args.figure]()
    return Outcome(
        {"cells": _jsonable(cells)},
        [charts.ascii_grid(cells, box, lines)],
        table=(["g", "d", "label", "provenance"],
               [[c.g, c.d, c.label, c.provenance] for c in cells]),
        chart=(cells, box, lines, title),
    )


# ---------------------------------------------------------------------------
# parser


def _leaf(sub, name: str, handler: str, **kw) -> argparse.ArgumentParser:
    """A subcommand parser with the common options, bound to the name of
    its handler; `main` looks the handler up by that name on each call."""
    sp = sub.add_parser(name, **kw)
    sp.add_argument("--format", choices=("text", "json", "csv", "tsv", "svg"), default="text")
    sp.add_argument("--out", help="write output to a file instead of stdout")
    sp.add_argument("--timings", action="store_true", help="include wall-clock time in reports")
    sp.add_argument("--config", help="key = value file of flags (later flags win)")
    sp.set_defaults(fn=handler)
    return sp


def _add_complex_options(sp):
    sp.add_argument("--preset", help="vanishA | vanishB | intstab-f2 | intstab-fl(L) | A-algebra-fl(L)")
    sp.add_argument("--ell", type=int, help="prime for -fl presets")
    sp.add_argument("--cdga", help="user CDGA file")
    sp.add_argument("--field", help="coefficient field for --cdga (Q, F2, F3, ...)")
    sp.add_argument("--box", help="G,D (default 8,8)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="bigraded",
        description="exact-arithmetic workbench: bigraded homology boxes, slope "
        "calculus, tautological pairings, poset connectivity checkers",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = _leaf(sub, "ranges", "cmd_ranges", help="normalize and check stability-range inequalities")
    sp.add_argument("--kind", choices=grading.KINDS, default="vanishing")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--check", help="bidegree 'g,d' to test against the range")

    sp = _leaf(
        sub, "slope-box", "cmd_slope_box", help="bidegrees between d >= g-1 and a slope bound"
    )
    sp.add_argument("--high", required=True, help="slope bound p/q")
    sp.add_argument("--gmax", type=int, help="genus bound (default: the finiteness bound)")

    sp = _leaf(sub, "lie-basis", "cmd_lie_basis", help="free graded Lie basis in a box")
    sp.add_argument("--gens", required=True, help="generator file: name g d [r]")
    sp.add_argument("--box", required=True, help="G,D")

    sp = _leaf(sub, "betti", "cmd_betti", help="bigraded dimensions of the free algebra")
    sp.add_argument("--gens", required=True)
    sp.add_argument("--box", required=True)
    sp.add_argument("--field", choices=("Q", "F2"), default="Q")

    sp = _leaf(sub, "homology", "cmd_homology", help="homology table of a named or user complex")
    _add_complex_options(sp)

    sp = _leaf(
        sub, "vanish-check", "cmd_vanish_check", help="certify homology vanishing below a line"
    )
    _add_complex_options(sp)
    sp.add_argument("--slope", help="slope bound p/q (line through the origin)")
    sp.add_argument("--line", help="lam:c for the line d < lam*(g-c)")

    sp = sub.add_parser("taut", help="tautological-ring calculator")
    tsub = sp.add_subparsers(dest="taut_cmd", required=True)
    g = _leaf(tsub, "gysin", "cmd_taut_gysin", help="Gysin pushforward of an e/kappa polynomial")
    g.add_argument("--expr", required=True)
    g.add_argument("--genus", type=int, required=True)
    c = _leaf(tsub, "coproduct", "cmd_taut_coproduct", help="n-fold coproduct expansion")
    c.add_argument("--expr")
    c.add_argument("--expr-file", dest="expr_file")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--restrict", help="per-slot patterns, e.g. k1,k1,{k1^2|k2}")
    p = _leaf(tsub, "pair", "cmd_taut_pair", help="pair functionals against a coproduct expansion")
    p.add_argument("--paper-6-3", dest="paper_6_3", action="store_true",
                   help="the recorded degree-14 pairing")
    p.add_argument("--functionals")
    led = _leaf(tsub, "ledger", "cmd_taut_ledger", help="query the relation ledger")
    led.add_argument("--genus", type=int)
    led.add_argument("--degree", type=int)
    led.add_argument("--relations", help="extra relations file, one polynomial per line")
    _leaf(tsub, "h43", "cmd_taut_h43", help="solve the degree-3 kernel deduction")

    sp = sub.add_parser("nerve", help="nerve-criterion checker")
    nsub = sp.add_subparsers(dest="nerve_cmd", required=True)
    nc = _leaf(nsub, "check", "cmd_nerve")
    nc.add_argument("--poset", required=True, help="covered poset file")
    nc.add_argument("--A", required=True, help="index poset file")
    nc.add_argument("--cover", required=True, help="functor file: a : x1 x2 ...")
    nc.add_argument("--n", type=int, required=True)
    nc.add_argument("--tx", required=True, help="weight file for the covered poset")
    nc.add_argument("--ta", required=True, help="weight file for the index poset")

    sp = sub.add_parser("poset", help="poset campaigns")
    psub = sp.add_subparsers(dest="poset_cmd", required=True)
    pf = _leaf(psub, "fuzz", "cmd_poset_fuzz")
    pf.add_argument("--campaign", choices=("poset-map", "nerve"), required=True)
    pf.add_argument("--count", type=int, default=10000)
    pf.add_argument("--max-size", dest="max_size", type=int, default=12)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--threads", type=int, help="worker cap (default WORKBENCH_THREADS)")

    sp = sub.add_parser("sp4", help="symplectic group over F2")
    ssub = sp.add_subparsers(dest="sp4_cmd", required=True)
    _leaf(ssub, "subsets", "cmd_sp4_subsets")
    s2 = _leaf(ssub, "phi", "cmd_sp4_phi")
    s2.add_argument("--matrix", help='rows "a,b,c,d;e,f,g,h;..." over F2')
    s2.add_argument("--swap", action="store_true", help="use the block swap matrix")
    s3 = _leaf(ssub, "verify", "cmd_sp4_verify")
    s3.add_argument("--pairs", type=int, default=10000)

    sp = _leaf(sub, "abelianize", "cmd_abelianize", help="abelianization of a presentation file")
    sp.add_argument("--in", dest="infile", required=True)

    sp = sub.add_parser("la", help="exact linear algebra utilities")
    lsub = sp.add_subparsers(dest="la_cmd", required=True)
    snf = _leaf(lsub, "snf", "cmd_la_snf")
    snf.add_argument("--in", dest="infile", required=True)
    snf.add_argument("--certificate", action="store_true")

    sp = _leaf(sub, "report", "cmd_report", help="emit a recorded or computed figure")
    sp.add_argument("figure", choices=tuple(charts.FIGURES))

    return ap


def _subcommand(args) -> list[str]:
    """The subcommand words, e.g. ``["taut", "pair"]``."""
    nested = getattr(args, f"{args.cmd}_cmd", None)
    return [args.cmd, nested] if nested else [args.cmd]


def _config_flags(text: str) -> list[str]:
    """``key = value`` lines as ``--key=value`` flags; a bare ``key`` line is
    a boolean flag."""
    flags = []
    for _, line in content_lines(text):
        key, eq, value = line.partition("=")
        flag = "--" + key.strip().replace("_", "-")
        flags.append(f"{flag}={value.strip()}" if eq else flag)
    return flags


def _parse_args(argv=None) -> argparse.Namespace:
    """Parse the command line; a --config file is read as flags spliced in
    right after the subcommand words, so the flags that follow win.  Two
    `EXCLUSIVE` options given, even with empty values, are an input error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.config is not None:
        at = len(_subcommand(args))
        args = ap.parse_args(argv[:at] + _config_flags(_read(args.config)) + argv[at:])
    for a, b in EXCLUSIVE:
        if not any(getattr(args, k, None) is None or getattr(args, k) is False for k in (a, b)):
            raise InputError(f"--{a} and --{b} exclude each other".replace("_", "-"))
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        t0 = time.monotonic()
        outcome = globals()[args.fn](args)
        _emit(args, outcome, t0)
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SystemExit as exc:  # argparse has printed its usage error (2) or --help (0)
        return exc.code
    except BrokenPipeError:
        return EXIT_OK
    except Exception as exc:
        import traceback

        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL
    return EXIT_COUNTEREXAMPLE if outcome.status == "counterexample" else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
