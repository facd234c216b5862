"""Spans recorded from outside the program, for the traced benchmark run.

`install` wraps the public functions listed in `TARGETS` in every namespace of
the loaded `bigraded` modules that binds them, and `uninstall` puts the
original objects back.  Each call becomes a span (name, start, end, parent)
held in memory; `layer_self_seconds` turns them into per-layer self seconds.
Work counts are taken from each call's arguments and return value.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# time the wrappers spend counting work; excluded from every layer
BOOKKEEPING = "trace.bookkeeping"


def _len(ret, *_):
    return len(ret)


def _matrix_counts(ret, *_):
    entries = ret.nrows * ret.ncols
    zero = ret.field.zero()
    nnz = sum(len(row) - row.count(zero) for row in ret.rows)
    return {"cdga.matrix_entries": entries, "cdga.nnz": nnz}


def _rank_counts(ret, args, kwargs):
    m = args[0] if args else kwargs["m"]
    return {"exactla.rank_calls": 1, "exactla.entries": m.nrows * m.ncols}


def _rank_value(ret, *_):
    return ret


def _rref_rank(ret, *_):
    return len(ret[1])


def _kernel_rank(ret, args, kwargs):
    m = args[0] if args else kwargs["m"]
    return m.ncols - len(ret)


def _box_cells(ret, args, kwargs):
    g, d = args[1] if len(args) > 1 else kwargs["box"]
    return (g + 1) * (d + 1)


def _chain_count(ret, *_):
    return sum(len(level) for level in ret)


def _one(*_):
    return 1


# counters that scan a whole matrix get their own span, so that their time is
# charged to no layer
COSTLY_COUNTERS = {_matrix_counts}

# (module, attribute path, layer, counters).  A counter is (metric, fn) where
# fn(ret, args, kwargs) gives a number, or (None, fn) where fn gives a dict of
# metric -> number.  Counters run only on the outermost span of their layer,
# so a re-entrant call (DGModule.monomial_basis -> CDGA.monomial_basis,
# kernel_basis -> rref) is counted once.
TARGETS = [
    ("freealg", "free_graded_lie_basis", "freealg.basis", [("freealg.letters", _len)]),
    ("freealg", "cohen_generators_f2", "freealg.basis", [("freealg.letters", _len)]),
    ("freealg", "lie_basis_char2", "freealg.basis", [("freealg.letters", _len)]),
    ("freealg", "lie_dimensions_bruteforce", "freealg.oracle", []),
    ("cdga", "build_paper_complex", "cdga.build", []),
    ("cdga", "CDGA.quotient", "cdga.build", []),
    ("cdga", "CDGA.monomial_basis", "cdga.enum", [("cdga.monomials", _len)]),
    ("cdga", "DGModule.monomial_basis", "cdga.enum", [("cdga.monomials", _len)]),
    ("cdga", "CDGA.differential_matrix", "cdga.assembly", [(None, _matrix_counts)]),
    ("cdga", "DGModule.differential_matrix", "cdga.assembly", [(None, _matrix_counts)]),
    ("cdga", "homology_table", "cdga.table", [("cdga.cells", _box_cells)]),
    ("exactla", "rank", "exactla.rank", [(None, _rank_counts), ("exactla.rank_sum", _rank_value)]),
    ("exactla", "rref", "exactla.rank", [(None, _rank_counts), ("exactla.rank_sum", _rref_rank)]),
    (
        "exactla",
        "kernel_basis",
        "exactla.rank",
        [(None, _rank_counts), ("exactla.rank_sum", _kernel_rank)],
    ),
    ("exactla", "smith_normal_form", "exactla.snf", [("exactla.snf_calls", _one)]),
    ("posets", "FinitePoset.__init__", "posets.build", [("posets.built", _one)]),
    ("posets", "order_chains", "posets.chains", [("posets.chains", _chain_count)]),
    ("posets", "reduced_homology_f2", "posets.homology", []),
    ("posets", "reduced_homology_q", "posets.homology", []),
    ("posets", "reduced_homology_z", "posets.homology", []),
    ("posets", "cone_homology_f2", "posets.homology", []),
    ("posets", "check_poset_map_theorem", "posets.check", []),
    ("posets", "check_nerve_theorem", "posets.check", []),
    ("taut", "gysin_pushforward", "taut.gysin", []),
    ("taut", "nfold_coproduct", "taut.coproduct", [("taut.coproduct_terms", _len)]),
    ("taut", "pair_tensor", "taut.pair", []),
    ("taut", "pair_tensor_trace", "taut.pair", []),
    ("sympf2", "verify_isomorphism", "sympf2.verify", []),
    ("cli", "main", "cli.main", []),
    ("charts", "svg_grid", "charts.svg", []),
]

# layers whose self time is reported as `<layer>_s`; `cdga.table` is traced
# only for its cell count, so its self time stays unattributed
TIMED_LAYERS = sorted({layer for _, _, layer, _ in TARGETS} - {"cdga.table"})

# every metric the counters above sum
COUNT_METRICS = (
    "freealg.letters",
    "cdga.monomials",
    "cdga.matrix_entries",
    "cdga.nnz",
    "cdga.cells",
    "exactla.rank_calls",
    "exactla.rank_sum",
    "exactla.entries",
    "exactla.snf_calls",
    "posets.built",
    "posets.chains",
    "taut.coproduct_terms",
)


class Tracer:
    """Spans in parallel arrays: name id, start, end, parent index (-1 for a
    root).  Counts are summed per metric name."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span_name(self, idx: int) -> str:
        return self.names[self.name[idx]]

    def write(self, path: str) -> None:
        """Every span as a tab-separated line: name, start, end, parent."""
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.span_name(i)}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n"
                )


def self_times(tracer: Tracer) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (children are clipped to the parent and merged)."""
    n = len(tracer.start)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(n):
        s, e = tracer.start[i], tracer.end[i]
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(children[i], key=lambda c: tracer.start[c]):
            cs, ce = max(tracer.start[c], s), min(tracer.end[c], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out


def layer_self_seconds(tracer: Tracer) -> dict[str, float]:
    """Sum of self times per layer (and of bookkeeping); spans of no layer,
    such as the benchmark's own pass and op spans, are left out."""
    totals: dict[str, float] = defaultdict(float)
    for i, st in enumerate(self_times(tracer)):
        layer = LAYER_OF.get(tracer.span_name(i))
        if layer is not None:
            totals[layer] += st
    return dict(totals)


def _span_name(module: str, path: str) -> str:
    return f"{module}.{path}"


LAYER_OF = {_span_name(m, p): layer for m, p, layer, _ in TARGETS}
LAYER_OF[BOOKKEEPING] = BOOKKEEPING


def _wrap(tracer: Tracer, fn, name: str, layer: str, counters):
    depth = tracer._depth
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outer = depth[layer] == 0
        depth[layer] += 1
        idx = tracer.open(name)
        try:
            ret = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
            depth[layer] -= 1
        if outer:
            for metric, count in counters:
                bk = tracer.open(BOOKKEEPING) if count in COSTLY_COUNTERS else None
                value = count(ret, args, kwargs)
                if metric is None:
                    for k, v in value.items():
                        counts[k] += v
                else:
                    counts[metric] += value
                if bk is not None:
                    tracer.close(bk)
        return ret

    return wrapper


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"bigraded.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target in every `bigraded` namespace that binds it.
    Returns the patches made, for `uninstall`."""
    patches = []
    for module, path, layer, counters in TARGETS:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        wrapped = _wrap(tracer, original, _span_name(module, path), layer, counters)
        owners = [owner]
        if "." not in path:  # module-level function: also `from x import f` bindings
            owners += [
                mod
                for name, mod in sorted(sys.modules.items())
                if (name == "bigraded" or name.startswith("bigraded."))
                and mod is not owner
                and mod.__dict__.get(attr) is original
            ]
        for ns in owners:
            patches.append((ns, attr, original))
            setattr(ns, attr, wrapped)
    return patches


def uninstall(patches) -> None:
    for ns, attr, original in reversed(patches):
        setattr(ns, attr, original)
