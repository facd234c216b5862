"""Unified command-line front end.

Exit codes: 0 = success / certificate holds, 1 = counterexample or failed
assertion, 2 = input error.  Reports are deterministic: JSON is emitted with
sorted keys and no volatile fields, so identical invocations produce byte
identical output; wall-clock timing is opt-in via --timings.

Configuration: a flat ``key = value`` file may supply defaults for long flag
names (``format = json``); flags win.  The only environment variable
consulted is WORKBENCH_THREADS, which caps the worker pool used to shard
fuzz campaigns (shards merge deterministically in seed order).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from . import charts, cdga, exactla, freealg, grading, posets, presentations, sympf2, taut
from .errors import InputError, WorkbenchError

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT = 2


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float) and x == posets.INF:
        return "inf"
    if isinstance(x, dict):
        return {_key(k): _jsonable(v) for k, v in sorted(x.items(), key=lambda kv: _key(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, frozenset):
        return sorted(_jsonable(v) for v in x)
    if hasattr(x, "__dataclass_fields__"):
        return {k: _jsonable(getattr(x, k)) for k in sorted(x.__dataclass_fields__)}
    return x


def _key(k):
    if isinstance(k, tuple):
        return ",".join(str(v) for v in k)
    return str(k)


def _digest(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()[:16]
    except OSError:
        return "unreadable"


class Report:
    def __init__(self, command: str, params: dict, input_paths=()):
        params = {k: v for k, v in params.items() if k != "fn" and not callable(v)}
        self.payload = {
            "tool": "bigraded",
            "version": __version__,
            "command": command,
            "params": _jsonable(params),
            "inputs": {os.path.basename(p): _digest(p) for p in sorted(input_paths)},
            "result": {},
            "status": "ok",
        }
        self._t0 = time.monotonic()
        self.timings = False

    def finish(self):
        if self.timings:
            self.payload["wall_ms"] = round((time.monotonic() - self._t0) * 1000.0, 3)
        return self.payload

    def json(self) -> str:
        return json.dumps(self.finish(), sort_keys=True, separators=(",", ":")) + "\n"


def _emit(args, report: Report, text_lines, table=None, chart=None):
    """Render per --format.  ``table`` is (headers, rows) for csv/tsv;
    ``chart`` is (cells, box, lines, title) for svg."""
    fmt = args.format
    if fmt == "json":
        out = report.json()
    elif fmt in ("csv", "tsv"):
        if table is None:
            raise InputError(f"--format {fmt} is not available for this subcommand")
        sep = "," if fmt == "csv" else "\t"
        headers, rows = table
        out = sep.join(headers) + "\n"
        for row in rows:
            out += sep.join(str(v) for v in row) + "\n"
    elif fmt == "svg":
        if chart is None:
            raise InputError("--format svg is not available for this subcommand")
        cells, box, lines, title = chart
        out = charts.svg_grid(cells, box, lines, title=title) + "\n"
    else:
        out = "\n".join(text_lines) + ("\n" if text_lines else "")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}") from exc


def _parse_box(text: str) -> tuple[int, int]:
    try:
        g, d = text.split(",")
        return int(g), int(d)
    except ValueError as exc:
        raise InputError(f"bad box {text!r}; expected G,D") from exc


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _gens_from_file(path: str):
    gens = []
    for raw in _read(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise InputError(f"bad generator line: {raw!r}")
        gens.append(
            freealg.gen(
                parts[0], int(parts[1]), int(parts[2]), int(parts[3]) if len(parts) == 4 else None
            )
        )
    return gens


def _preset_of(args):
    name = args.preset
    ell = getattr(args, "ell", None)
    if name and "(" in name:
        name, rest = name.split("(", 1)
        try:
            ell = int(rest.rstrip(")"))
        except ValueError as exc:
            raise InputError(f"bad prime in preset {args.preset!r}") from exc
    return name, ell


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_ranges(args) -> int:
    rep = Report("ranges", vars(args))
    stmt = grading.range_statement(args.kind, args.a, args.b, args.e)
    rep.payload["result"] = {
        "kind": stmt.kind,
        "normalized": [stmt.a, stmt.b, stmt.e],
        "rendering": stmt.render(),
    }
    lines = [f"{stmt.kind} for {stmt.render()}"]
    code = EXIT_OK
    if args.check:
        g, d = _parse_box(args.check)
        ok = stmt.satisfies((g, d))
        rep.payload["result"]["check"] = {"g": g, "d": d, "satisfies": ok}
        lines.append(f"({g},{d}): {'in range' if ok else 'out of range'}")
        code = EXIT_OK if ok else EXIT_COUNTEREXAMPLE
    _emit(args, rep, lines, table=(["kind", "a", "b", "e", "rendering"],
                                   [[stmt.kind, stmt.a, stmt.b, stmt.e, stmt.render()]]))
    return code


def cmd_slope_box(args) -> int:
    rep = Report("slope-box", vars(args))
    high = _parse_fraction(args.high)
    if args.gmax is None:
        gmax = grading.auto_g_bound(high)
        rep.payload["result"]["auto_gmax"] = gmax
    else:
        gmax = args.gmax
    pts = grading.bidegrees_between(high, gmax)
    rep.payload["result"]["bidegrees"] = [[p.g, p.d] for p in pts]
    lines = [f"bidegrees with d >= g-1 and slope <= {high}, g <= {gmax}:"]
    lines += [f"  ({p.g},{p.d})  slope {grading.slope(p)}" for p in pts]
    _emit(args, rep, lines, table=(["g", "d"], [[p.g, p.d] for p in pts]))
    return EXIT_OK


def cmd_lie_basis(args) -> int:
    rep = Report("lie-basis", vars(args), input_paths=[args.gens])
    gens = _gens_from_file(args.gens)
    box = _parse_box(args.box)
    basis = freealg.free_graded_lie_basis(gens, box)
    rep.payload["result"]["basis"] = [
        {"name": b.name, "g": b.g, "d": b.d, "r": b.r} for b in basis
    ]
    lines = [f"{b.name}  ({b.g},{b.d})  weight {b.r}" for b in basis]
    dims = {}
    for b in basis:
        dims[(b.g, b.d)] = dims.get((b.g, b.d), 0) + 1
    _emit(
        args,
        rep,
        lines,
        table=(["name", "g", "d", "r"], [[b.name, b.g, b.d, b.r] for b in basis]),
        chart=(charts.cells_from_dims(dims), box, (), "free Lie basis dimensions"),
    )
    return EXIT_OK


def cmd_betti(args) -> int:
    rep = Report("betti", vars(args), input_paths=[args.gens])
    gens = _gens_from_file(args.gens)
    box = _parse_box(args.box)
    if args.field == "Q":
        table = freealg.free_gerstenhaber_betti(gens, box)
    elif args.field == "F2":
        table = freealg.betti_table_f2(gens, box)
    else:
        raise InputError("betti supports --field Q or F2")
    rep.payload["result"] = {
        "field": table.field_name,
        "dims": {f"{g},{d}": n for (g, d), n in table.sorted_items()},
    }
    lines = [charts.ascii_grid(charts.cells_from_dims(table.dims), box)]
    _emit(
        args,
        rep,
        lines,
        table=(["g", "d", "dim"], [[g, d, n] for (g, d), n in table.sorted_items()]),
        chart=(charts.cells_from_dims(table.dims), box, (), f"Betti table over {table.field_name}"),
    )
    return EXIT_OK


def _build_complex(args):
    inputs = []
    if getattr(args, "cdga", None):
        fld = exactla.field_by_name(args.field or "Q")
        cx = cdga.parse_cdga_file(_read(args.cdga), fld)
        inputs.append(args.cdga)
        return cx, inputs
    name, ell = _preset_of(args)
    if not name:
        raise InputError("need --preset or --cdga")
    box = _parse_box(args.box) if args.box else None
    return cdga.build_paper_complex(name, box, ell=ell), inputs


def cmd_homology(args) -> int:
    cx, inputs = _build_complex(args)
    rep = Report("homology", vars(args), input_paths=inputs)
    box = _parse_box(args.box) if args.box else (8, 8)
    table = cdga.homology_table(cx, box)
    rep.payload["result"] = {
        "field": table.field_name,
        "dims": {f"{g},{d}": n for (g, d), n in table.sorted_items()},
    }
    lines = [charts.ascii_grid(charts.cells_from_dims(table.dims), box)]
    _emit(
        args,
        rep,
        lines,
        table=(["g", "d", "dim"], [[g, d, n] for (g, d), n in table.sorted_items()]),
        chart=(charts.cells_from_dims(table.dims), box, (), f"homology over {table.field_name}"),
    )
    return EXIT_OK


def cmd_vanish_check(args) -> int:
    cx, inputs = _build_complex(args)
    rep = Report("vanish-check", vars(args), input_paths=inputs)
    box = _parse_box(args.box) if args.box else (8, 8)
    if args.line:
        lam, c = args.line.split(":")
        line = grading.VanishingLine(_parse_fraction(lam), _parse_fraction(c))
    else:
        slope_default = {"vanishB": "4/5"}.get(args.preset, "3/4")
        line = grading.VanishingLine(_parse_fraction(args.slope or slope_default))
    result = cdga.verify_vanishing(cx, line, box)
    rep.payload["result"] = {
        "certified": result.certified,
        "line": line.render(),
        "box": list(box),
        "dims": {f"{g},{d}": n for (g, d), n in result.table.sorted_items()},
        "violation": list(result.violation) if result.violation else None,
    }
    rep.payload["status"] = "certified" if result.certified else "counterexample"
    lines = [
        f"{'CERTIFIED' if result.certified else 'COUNTEREXAMPLE'}: homology below "
        f"{line.render()} in box {box}"
    ]
    if result.violation:
        g, d, n = result.violation
        lines.append(f"  violation at ({g},{d}), dimension {n}")
    lines.append(charts.ascii_grid(charts.cells_from_dims(result.table.dims), box, [line]))
    _emit(
        args,
        rep,
        lines,
        table=(["g", "d", "dim"], [[g, d, n] for (g, d), n in result.table.sorted_items()]),
        chart=(
            charts.cells_from_dims(result.table.dims),
            box,
            [line],
            "vanishing certification",
        ),
    )
    return EXIT_OK if result.certified else EXIT_COUNTEREXAMPLE


def cmd_taut(args) -> int:
    sub = args.taut_cmd
    if sub == "gysin":
        rep = Report("taut gysin", vars(args))
        p = taut.parse_taut(args.expr)
        out = taut.gysin_pushforward(p, args.genus)
        rep.payload["result"] = {"pushforward": out.render()}
        _emit(args, rep, [out.render()])
        return EXIT_OK
    if sub == "coproduct":
        inputs = [args.expr_file] if args.expr_file else []
        rep = Report("taut coproduct", vars(args), input_paths=inputs)
        text = _read(args.expr_file) if args.expr_file else args.expr
        if not text:
            raise InputError("need --expr or --expr-file")
        p = taut.parse_taut(text.strip())
        terms = taut.nfold_coproduct(p, args.n)
        if args.restrict:
            patterns = _parse_restrict(args.restrict, args.n)
            terms = taut.restrict_terms(terms, patterns)
        rep.payload["result"]["terms"] = [
            {"coeff": t.coeff.render(), "slots": [taut.mono_name(s) for s in t.slots]}
            for t in terms
        ]
        lines = [t.render() for t in terms]
        _emit(
            args,
            rep,
            lines,
            table=(
                ["coeff"] + [f"slot{i+1}" for i in range(args.n)],
                [[t.coeff.render()] + [taut.mono_name(s) for s in t.slots] for t in terms],
            ),
        )
        return EXIT_OK
    if sub == "pair":
        inputs = [args.functionals] if args.functionals else []
        rep = Report("taut pair", vars(args), input_paths=inputs)
        if args.paper_6_3:
            terms = taut.nfold_coproduct(taut.r12_restricted(), 5)
            funcs = taut.paper_63_functionals()
        else:
            if not args.functionals:
                raise InputError("need --paper-6-3 or --functionals FILE")
            funcs, expr, n = _parse_functionals(_read(args.functionals))
            terms = taut.nfold_coproduct(taut.parse_taut(expr), n)
        value, trace = taut.pair_tensor_trace(terms, funcs)
        rep.payload["result"]["pairing"] = value.render()
        rep.payload["result"]["contributing_terms"] = [
            {
                "coeff": t.coeff.render(),
                "slots": [taut.mono_name(s) for s in t.slots],
                "contribution": c.render(),
            }
            for t, c in trace
        ]
        _emit(args, rep, [value.render()])
        return EXIT_OK
    if sub == "ledger":
        inputs = [args.relations] if args.relations else []
        rep = Report("taut ledger", vars(args), input_paths=inputs)
        ledger = taut.Ledger()
        if args.relations:
            for i, raw in enumerate(_read(args.relations).splitlines()):
                line = raw.split("#", 1)[0].strip()
                if line:
                    ledger.add_from_text(line, args.genus, f"user relation {i+1}")
        rels = ledger.lookup(genus=args.genus, degree=args.degree)
        rep.payload["result"]["relations"] = [
            {
                "poly": r.poly().render(),
                "genus": r.ambient_genus,
                "degree": r.degree(),
                "source": r.source_label,
            }
            for r in rels
        ]
        lines = [
            f"[genus {r.ambient_genus if r.ambient_genus is not None else '*'}, "
            f"degree {r.degree()}] {r.poly().render()} = 0   ({r.source_label})"
            for r in rels
        ]
        _emit(args, rep, lines)
        return EXIT_OK
    if sub == "h43":
        rep = Report("taut h43", vars(args))
        result = taut.deduce_h43_kernel()
        rep.payload["result"] = {
            "solution_dim": result.solution_dim,
            "constraints": result.constraints,
            "contradiction": result.contradiction,
            "insufficient": result.insufficient,
        }
        ok = result.zero_only
        rep.payload["status"] = "ok" if ok else "counterexample"
        _emit(args, rep, [f"solution space dimension: {result.solution_dim}"]
              + [f"  {c}" for c in result.constraints])
        return EXIT_OK if ok else EXIT_COUNTEREXAMPLE
    raise InputError(f"unknown taut subcommand {sub}")


def _parse_restrict(text: str, n: int):
    chunks = text.split(",")
    # rejoin chunks inside {...}
    merged, depth, cur = [], 0, ""
    for ch in chunks:
        cur = f"{cur},{ch}" if cur else ch
        depth += ch.count("{") - ch.count("}")
        if depth == 0:
            merged.append(cur)
            cur = ""
    if cur:
        raise InputError(f"unbalanced braces in {text!r}")
    if len(merged) != n:
        raise InputError(f"--restrict needs {n} slots, got {len(merged)}")
    patterns = []
    for chunk in merged:
        chunk = chunk.strip()
        opts = chunk[1:-1].split("|") if chunk.startswith("{") else [chunk]
        allowed = set()
        for opt in opts:
            p = taut.parse_taut(opt.strip())
            if len(p) != 1:
                raise InputError(f"restriction option must be a monomial: {opt!r}")
            allowed.add(next(iter(p.keys())))
        patterns.append(allowed)
    return patterns


def _parse_functionals(text: str):
    """Functional file: ``functional NAME`` heads, ``MONO = VALUE`` entries,
    one ``pair: EXPR`` line and one ``slots: NAME...`` line."""
    funcs: dict[str, dict] = {}
    current = None
    expr = None
    slots = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("functional "):
            current = line.split(None, 1)[1].strip()
            funcs[current] = {}
        elif line.startswith("pair:"):
            expr = line[5:].strip()
        elif line.startswith("slots:"):
            slots = line[6:].split()
        elif "=" in line:
            if current is None:
                raise InputError("functional entry before any 'functional NAME' line")
            lhs, rhs = (s.strip() for s in line.split("=", 1))
            mono_poly = taut.parse_taut(lhs)
            if len(mono_poly) != 1:
                raise InputError(f"functional key must be a monomial: {lhs!r}")
            mono = next(iter(mono_poly.keys()))
            value = taut.parse_taut(rhs)
            if any(m != (0, 0, ()) for m in value):
                raise InputError(f"functional value must be parameters only: {rhs!r}")
            funcs[current][mono] = value.get((0, 0, ()), taut.ParamPoly())
        else:
            raise InputError(f"bad functionals line: {raw!r}")
    if expr is None or slots is None:
        raise InputError("functionals file needs 'pair:' and 'slots:' lines")
    built = {nm: taut.HomologyFunctional(nm, vals) for nm, vals in funcs.items()}
    try:
        ordered = [built[nm] for nm in slots]
    except KeyError as exc:
        raise InputError(f"unknown functional in slots: {exc}") from exc
    return ordered, expr, len(slots)


def cmd_nerve(args) -> int:
    inputs = [args.poset, args.A, args.cover, args.tx, args.ta]
    rep = Report("nerve check", vars(args), input_paths=inputs)
    X = posets.poset_from_text(_read(args.poset))
    A = posets.poset_from_text(_read(args.A))
    F = posets.parse_cover(_read(args.cover), A, X)
    tX = posets.parse_weights(_read(args.tx))
    tA = posets.parse_weights(_read(args.ta))
    result = posets.check_nerve_theorem(X, A, F, args.n, tX, tA)
    rep.payload["result"] = {
        "hypotheses_hold": result.hypotheses_hold,
        "conclusion_holds": result.conclusion_holds,
        "records": [
            {"element": r.element, "requirement": r.requirement, "holds": r.holds}
            for r in result.records
        ],
        "note": result.note,
    }
    rep.payload["status"] = "ok" if result.consistent else "counterexample"
    lines = [
        f"hypotheses: {'hold' if result.hypotheses_hold else 'fail'}",
        f"conclusion (X is (n-1)-connected, homologically): "
        f"{'holds' if result.conclusion_holds else 'fails'}",
    ]
    lines += [f"  [{'ok' if r.holds else 'NO'}] {r.element}: {r.requirement}" for r in result.records]
    _emit(args, rep, lines)
    return EXIT_OK if result.consistent else EXIT_COUNTEREXAMPLE


def cmd_poset_fuzz(args) -> int:
    rep = Report("poset fuzz", vars(args))
    threads = _thread_count(args)
    result = run_fuzz_sharded(args.campaign, args.count, args.max_size, args.seed, threads)
    rep.payload["result"] = {
        "campaign": result.campaign,
        "instances": result.instances,
        "hypotheses_satisfied": result.hypotheses_satisfied,
        "counterexamples": _jsonable(result.counterexamples),
        "resampled_oversize": result.resampled_oversize,
        "seed": result.seed,
    }
    rep.payload["status"] = "ok" if result.clean else "counterexample"
    lines = [
        f"campaign {result.campaign}: {result.instances} instances, "
        f"{result.hypotheses_satisfied} with hypotheses satisfied, "
        f"{len(result.counterexamples)} counterexamples"
    ]
    if result.counterexamples:
        lines.append(json.dumps(_jsonable(result.counterexamples), sort_keys=True))
    _emit(args, rep, lines)
    return EXIT_OK if result.clean else EXIT_COUNTEREXAMPLE


def _thread_count(args) -> int:
    env = os.environ.get("WORKBENCH_THREADS")
    if getattr(args, "threads", None):
        return max(1, args.threads)
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
    so reports are identical for every thread setting."""
    if campaign not in ("poset-map", "nerve"):
        raise InputError(f"unknown campaign {campaign!r}")
    shards = min(16, count) or 1
    sizes = [count // shards + (1 if i < count % shards else 0) for i in range(shards)]
    jobs = [(campaign, sz, max_size, seed + 1000003 * i) for i, sz in enumerate(sizes) if sz]
    if threads > 1 and len(jobs) > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(_fuzz_shard_star, jobs))
    else:
        reports = [_fuzz_shard(*job) for job in jobs]
    merged = posets.FuzzReport(
        campaign=campaign,
        seed=seed,
        instances=sum(r.instances for r in reports),
        hypotheses_satisfied=sum(r.hypotheses_satisfied for r in reports),
        counterexamples=[c for r in reports for c in r.counterexamples],
        resampled_oversize=sum(r.resampled_oversize for r in reports),
    )
    return merged


def _fuzz_shard_star(job):
    return _fuzz_shard(*job)


def cmd_sp4(args) -> int:
    sub = args.sp4_cmd
    if sub == "subsets":
        rep = Report("sp4 subsets", vars(args))
        subs = sympf2.totally_nonorthogonal_subsets()
        rep.payload["result"]["subsets"] = {
            str(i + 1): sorted(sympf2.vector_name(v) for v in s) for i, s in enumerate(subs)
        }
        lines = [
            f"{i + 1} = {{{', '.join(sorted(sympf2.vector_name(v) for v in s))}}}"
            for i, s in enumerate(subs)
        ]
        _emit(args, rep, lines)
        return EXIT_OK
    if sub == "phi":
        rep = Report("sp4 phi", vars(args))
        m = sympf2.SWAP_MATRIX if args.swap else sympf2.parse_matrix(args.matrix)
        p = sympf2.phi(m)
        sign = sympf2.perm_sign(p)
        rep.payload["result"] = {
            "cycles": sympf2.cycle_notation(p),
            "sign": sign,
            "parity": "odd" if sign < 0 else "even",
        }
        _emit(args, rep, [f"{sympf2.cycle_notation(p)} {'odd' if sign < 0 else 'even'}"])
        return EXIT_OK
    if sub == "verify":
        rep = Report("sp4 verify", vars(args))
        result = sympf2.verify_isomorphism(random_pairs=args.pairs)
        rep.payload["result"] = _jsonable(result)
        rep.payload["result"]["is_isomorphism"] = result.is_isomorphism
        rep.payload["status"] = "ok" if result.is_isomorphism else "counterexample"
        _emit(
            args,
            rep,
            [
                f"group order: {result.group_order}",
                f"kernel trivial: {result.kernel_trivial}",
                f"image is all of Sym(6): {result.image_is_full_symmetric}",
                f"isomorphism: {result.is_isomorphism}",
            ],
        )
        return EXIT_OK if result.is_isomorphism else EXIT_COUNTEREXAMPLE
    raise InputError(f"unknown sp4 subcommand {sub}")


def cmd_abelianize(args) -> int:
    rep = Report("abelianize", vars(args), input_paths=[args.infile])
    p = presentations.parse_presentation(_read(args.infile))
    inv = presentations.abelianization(p)
    rep.payload["result"] = {
        "free_rank": inv.free_rank,
        "torsion": list(inv.torsion),
        "group": inv.symbol(),
    }
    _emit(args, rep, [inv.symbol()])
    return EXIT_OK


def cmd_la_snf(args) -> int:
    rep = Report("la snf", vars(args), input_paths=[args.infile])
    rows = exactla.parse_int_matrix(_read(args.infile))
    if not rows:
        raise InputError("empty matrix")
    sf = exactla.smith_normal_form(rows, want_certs=args.certificate)
    rep.payload["result"] = {
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
        rep.payload["result"]["certificate_ok"] = ok
        lines.append(f"certificate U*A*V = D verified: {ok}")
    _emit(args, rep, lines)
    return EXIT_OK


def cmd_report(args) -> int:
    rep = Report(f"report {args.figure}", vars(args))
    if args.figure == "figure-lgens":
        gens = [freealg.gen("sigma", 1, 0), freealg.gen("lambda", 3, 2), freealg.gen("rho", 2, 2)]
        basis = freealg.free_graded_lie_basis(gens, (4, 3))
        by_cell: dict[tuple[int, int], list[str]] = {}
        for b in basis:
            by_cell.setdefault((b.g, b.d), []).append(b.name)
        cells = [
            charts.Cell(g=g, d=d, label=",".join(sorted(names)), provenance="computed")
            for (g, d), names in sorted(by_cell.items())
        ]
        box = (4, 3)
        lines = []
        title = "additive generators of the free bracket algebra, g <= 4, d <= 3"
    elif args.figure == "figure-rat":
        cells = charts.figure_rat_cells()
        box = (9, 8)
        lines = charts.figure_rat_lines()
        title = "low-genus rational homology summary (literature fixtures)"
    else:
        raise InputError(f"unknown figure {args.figure}")
    rep.payload["result"]["cells"] = [
        {"g": c.g, "d": c.d, "label": c.label, "provenance": c.provenance} for c in cells
    ]
    text = [charts.ascii_grid(cells, box, lines)]
    _emit(
        args,
        rep,
        text,
        table=(
            ["g", "d", "label", "provenance"],
            [[c.g, c.d, c.label, c.provenance] for c in cells],
        ),
        chart=(cells, box, lines, title),
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(sp):
    sp.add_argument("--format", choices=("text", "json", "csv", "tsv", "svg"), default=None)
    sp.add_argument("--out", help="write output to a file instead of stdout")
    sp.add_argument("--timings", action="store_true", help="include wall-clock time in reports")
    sp.add_argument("--config", help="flat key=value defaults file (flags win)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bigraded",
        description="exact-arithmetic workbench: bigraded homology boxes, slope "
        "calculus, tautological pairings, poset connectivity checkers",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("ranges", help="normalize and check stability-range inequalities")
    sp.add_argument("--kind", choices=grading.KINDS, default="vanishing")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--check", help="bidegree 'g,d' to test against the range")
    _add_common(sp)
    sp.set_defaults(fn=cmd_ranges)

    sp = sub.add_parser("slope-box", help="bidegrees between d >= g-1 and a slope bound")
    sp.add_argument("--high", required=True, help="slope bound p/q")
    sp.add_argument("--gmax", type=int, help="genus bound (default: the finiteness bound)")
    _add_common(sp)
    sp.set_defaults(fn=cmd_slope_box)

    sp = sub.add_parser("lie-basis", help="free graded Lie basis in a box")
    sp.add_argument("--gens", required=True, help="generator file: name g d [r]")
    sp.add_argument("--box", required=True, help="G,D")
    _add_common(sp)
    sp.set_defaults(fn=cmd_lie_basis)

    sp = sub.add_parser("betti", help="bigraded dimensions of the free algebra")
    sp.add_argument("--gens", required=True)
    sp.add_argument("--box", required=True)
    sp.add_argument("--field", choices=("Q", "F2"), default="Q")
    _add_common(sp)
    sp.set_defaults(fn=cmd_betti)

    sp = sub.add_parser("homology", help="homology table of a named or user complex")
    sp.add_argument("--preset", help="vanishA | vanishB | intstab-f2 | intstab-fl(L) | A-algebra-fl(L)")
    sp.add_argument("--ell", type=int, help="prime for -fl presets")
    sp.add_argument("--cdga", help="user CDGA file")
    sp.add_argument("--field", help="coefficient field for --cdga (Q, F2, F3, ...)")
    sp.add_argument("--box", help="G,D (default 8,8)")
    _add_common(sp)
    sp.set_defaults(fn=cmd_homology)

    sp = sub.add_parser("vanish-check", help="certify homology vanishing below a line")
    sp.add_argument("--preset")
    sp.add_argument("--ell", type=int)
    sp.add_argument("--cdga")
    sp.add_argument("--field")
    sp.add_argument("--box")
    sp.add_argument("--slope", help="slope bound p/q (line through the origin)")
    sp.add_argument("--line", help="lam:c for the line d < lam*(g-c)")
    _add_common(sp)
    sp.set_defaults(fn=cmd_vanish_check)

    sp = sub.add_parser("taut", help="tautological-ring calculator")
    tsub = sp.add_subparsers(dest="taut_cmd", required=True)
    g = tsub.add_parser("gysin", help="Gysin pushforward of an e/kappa polynomial")
    g.add_argument("--expr", required=True)
    g.add_argument("--genus", type=int, required=True)
    _add_common(g)
    g.set_defaults(fn=cmd_taut)
    c = tsub.add_parser("coproduct", help="n-fold coproduct expansion")
    c.add_argument("--expr")
    c.add_argument("--expr-file", dest="expr_file")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--restrict", help="per-slot patterns, e.g. k1,k1,{k1^2|k2}")
    _add_common(c)
    c.set_defaults(fn=cmd_taut)
    p = tsub.add_parser("pair", help="pair functionals against a coproduct expansion")
    p.add_argument("--paper-6-3", dest="paper_6_3", action="store_true",
                   help="the recorded degree-14 pairing")
    p.add_argument("--functionals")
    _add_common(p)
    p.set_defaults(fn=cmd_taut)
    led = tsub.add_parser("ledger", help="query the relation ledger")
    led.add_argument("--genus", type=int)
    led.add_argument("--degree", type=int)
    led.add_argument("--relations", help="extra relations file, one polynomial per line")
    _add_common(led)
    led.set_defaults(fn=cmd_taut)
    h = tsub.add_parser("h43", help="solve the degree-3 kernel deduction")
    _add_common(h)
    h.set_defaults(fn=cmd_taut)

    sp = sub.add_parser("nerve", help="nerve-criterion checker")
    nsub = sp.add_subparsers(dest="nerve_cmd", required=True)
    nc = nsub.add_parser("check")
    nc.add_argument("--poset", required=True, help="covered poset file")
    nc.add_argument("--A", required=True, help="index poset file")
    nc.add_argument("--cover", required=True, help="functor file: a : x1 x2 ...")
    nc.add_argument("--n", type=int, required=True)
    nc.add_argument("--tx", required=True, help="weight file for the covered poset")
    nc.add_argument("--ta", required=True, help="weight file for the index poset")
    _add_common(nc)
    nc.set_defaults(fn=cmd_nerve)

    sp = sub.add_parser("poset", help="poset campaigns")
    psub = sp.add_subparsers(dest="poset_cmd", required=True)
    pf = psub.add_parser("fuzz")
    pf.add_argument("--campaign", choices=("poset-map", "nerve"), required=True)
    pf.add_argument("--count", type=int, default=10000)
    pf.add_argument("--max-size", dest="max_size", type=int, default=12)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--threads", type=int, help="worker cap (default WORKBENCH_THREADS)")
    _add_common(pf)
    pf.set_defaults(fn=cmd_poset_fuzz)

    sp = sub.add_parser("sp4", help="symplectic group over F2")
    ssub = sp.add_subparsers(dest="sp4_cmd", required=True)
    s1 = ssub.add_parser("subsets")
    _add_common(s1)
    s1.set_defaults(fn=cmd_sp4)
    s2 = ssub.add_parser("phi")
    s2.add_argument("--matrix", help='rows "a,b,c,d;e,f,g,h;..." over F2')
    s2.add_argument("--swap", action="store_true", help="use the block swap matrix")
    _add_common(s2)
    s2.set_defaults(fn=cmd_sp4)
    s3 = ssub.add_parser("verify")
    s3.add_argument("--pairs", type=int, default=10000)
    _add_common(s3)
    s3.set_defaults(fn=cmd_sp4)

    sp = sub.add_parser("abelianize", help="abelianization of a presentation file")
    sp.add_argument("--in", dest="infile", required=True)
    _add_common(sp)
    sp.set_defaults(fn=cmd_abelianize)

    sp = sub.add_parser("la", help="exact linear algebra utilities")
    lsub = sp.add_subparsers(dest="la_cmd", required=True)
    snf = lsub.add_parser("snf")
    snf.add_argument("--in", dest="infile", required=True)
    snf.add_argument("--certificate", action="store_true")
    _add_common(snf)
    snf.set_defaults(fn=cmd_la_snf)

    sp = sub.add_parser("report", help="emit a recorded or computed figure")
    sp.add_argument("figure", choices=("figure-lgens", "figure-rat"))
    _add_common(sp)
    sp.set_defaults(fn=cmd_report)

    return ap


def _apply_config(args):
    if getattr(args, "config", None):
        defaults = {}
        for raw in _read(args.config).splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"bad config line: {raw!r}")
            k, v = (s.strip() for s in line.split("=", 1))
            defaults[k.replace("-", "_")] = v
        known = vars(args)
        for k, v in defaults.items():
            if k not in known:
                raise InputError(f"unknown config key: {k}")
            if known[k] is None:
                setattr(args, k, v)
    if args.format is None:
        args.format = "text"


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        _apply_config(args)
        return args.fn(args)
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
