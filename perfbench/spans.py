"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: :func:`install`
replaces a public ``windplan`` function at the module attribute through
which ``cli`` or ``siting.run_multistart`` calls it, and :func:`uninstall`
puts the original back.  A span carries a name, its layer (the module),
start and end, the span that caused it and the id of the timed call it
belongs to.  Spans and counters stay in memory; the caller writes them
out once at the end.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run: int
    thread: int


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict[int, dict[str, float]] = field(default_factory=dict)
    run: int = 0
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _pool_parent: int | None = None
    _installed: list = field(default_factory=list)

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, value: float) -> None:
        with self._lock:
            bucket = self.counters.setdefault(self.run, {})
            bucket[key] = bucket.get(key, 0.0) + float(value)

    def span(self, name: str, fn, *args, after=None, pool_parent: bool = False, **kwargs):
        """Call ``fn`` inside a span; ``after(args, kwargs, result, seconds)``
        turns the result into counters once the span has closed."""
        stack = self._stack()
        # Worker threads of run_multistart start with an empty stack; their
        # spans hang under the run_multistart span that spawned them.
        parent = stack[-1] if stack else self._pool_parent
        with self._lock:
            span_id = len(self.spans)
            span = Span(span_id, name, name.split(".")[0], 0.0, 0.0, parent, self.run,
                        threading.get_ident())
            self.spans.append(span)
        stack.append(span_id)
        if pool_parent:
            self._pool_parent = span_id
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if pool_parent:
                self._pool_parent = None
        if after is not None:
            after(args, kwargs, result, span.end - span.start)
        return result

    # -- patching ----------------------------------------------------------

    def install(self, targets) -> None:
        """``targets`` holds ``(module, attribute, span name, after, options)``."""
        for module, attr, name, after, options in targets:
            original = getattr(module, attr)

            def wrapper(*args, _fn=original, _name=name, _after=after, _opt=options, **kwargs):
                if _opt.get("inject"):
                    args, kwargs = _opt["inject"](args, kwargs)
                return self.span(_name, _fn, *args, after=_after,
                                 pool_parent=_opt.get("pool_parent", False), **kwargs)

            setattr(module, attr, wrapper)
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self, runs) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        runs = set(runs)
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.run in runs and s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            if s.run not in runs:
                continue
            covered = _union_length([(max(c.start, s.start), min(c.end, s.end))
                                     for c in children.get(s.id, ())])
            out[s.id] = max(0.0, (s.end - s.start) - covered)
        return out

    def write(self, path: Path, extra: dict) -> None:
        doc = {
            **extra,
            "spans": [vars(s) for s in self.spans],
            "counters": {str(k): v for k, v in self.counters.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# ---------------------------------------------------------------------------
# Where the spans go
# ---------------------------------------------------------------------------

def _file_mb(path) -> float:
    try:
        return os.path.getsize(path) / 1e6
    except OSError:
        return 0.0


def lp_quality(lp, solution) -> tuple[float, float]:
    """Largest relative row or bound violation, and the relative gap between
    the primal objective and the Lagrangian bound of the returned duals.

    Reduced costs below a dual feasibility tolerance scaled to the costs are
    rounding noise and count as zero.  A larger one that points at an
    infinite bound leaves the Lagrangian bound at minus infinity; the gap is
    then reported as 1.0, the cap of the relative gap, so it stays a number.
    """
    import scipy.sparse as sp

    x = solution.x
    a = sp.csr_matrix((lp.entry_vals, (lp.entry_rows, lp.entry_cols)),
                      shape=(lp.n_rows, lp.n_vars))
    act = a @ x
    senses = np.array(lp.senses)
    scale = 1.0 + np.abs(lp.rhs)
    viol = np.where(senses == "<", act - lp.rhs,
                    np.where(senses == ">", lp.rhs - act, np.abs(act - lp.rhs)))
    bound_viol = np.maximum(lp.lower - x, x - lp.upper)
    residual = max(float(np.max(np.maximum(viol, 0.0) / scale, initial=0.0)),
                   float(np.max(np.maximum(bound_viol, 0.0), initial=0.0)))
    y = solution.duals
    d = lp.objective - a.T @ y
    bound = np.where(d > 0, lp.lower, lp.upper)
    tol = 1e-9 * (1.0 + float(np.max(np.abs(lp.objective), initial=0.0)))
    active = np.abs(d) > tol
    if np.any(~np.isfinite(bound[active])):
        return residual, 1.0
    dual_obj = float(y @ lp.rhs) + float(d[active] @ bound[active])
    gap = abs(solution.objective - dual_obj) / max(1.0, abs(solution.objective))
    return residual, min(gap, 1.0)


def targets(tracer: Tracer):
    """Every patched name, with the counters its span records."""
    import windplan.cli as cli
    import windplan.fileio as fileio
    import windplan.mps as mps_io
    import windplan.resource as resource
    import windplan.siting as siting

    count = tracer.count

    def on_build(args, kwargs, result, secs):
        lp = result[0]
        count("lp.vars", lp.n_vars)
        count("lp.rows", lp.n_rows)
        count("lp.nnz", lp.entry_vals.size)

    def on_solve(args, kwargs, result, secs):
        count("lp.iterations", result.iterations)
        if result.status == "optimal":
            residual, gap = lp_quality(args[0], result)
            count("lp.primal_residual_max", residual)
            count("lp.duality_gap_rel", gap)

    def on_decode(args, kwargs, result, secs):
        total = sum(result.cost_breakdown.values())
        count("cep.cost_check_relerr",
              abs(total - result.objective) / max(1.0, abs(result.objective)))

    def on_export(args, kwargs, result, secs):
        count("mps.bytes", os.path.getsize(result))

    def on_cf(args, kwargs, result, secs):
        count("resource.cf_values", sum(len(s) for s in result.values()))

    def on_matrix(args, kwargs, result, secs):
        count("resource.criticality_cells", result.n_sites * result.n_windows)
        count("resource.criticality_ones", int(np.count_nonzero(result.dense)))

    def on_greedy(args, kwargs, result, secs):
        count("siting.greedy_objective", result.objective)

    def inject_observer(args, kwargs):
        # local_search(init, matrix, catalog, plan, params, rng, ...): count
        # the incumbent trajectory through the existing on_iteration hook.
        params = args[4]
        state = {"best": -1, "best_iter": 0}

        def on_iteration(i, gain, accepted, incumbent):
            count("siting.iterations", 1)
            count("siting.neighbors_evaluated", params.neighbors)
            count("siting.accepted", int(accepted))
            count("siting.improving", int(gain > 0))
            if incumbent > state["best"]:
                state["best"], state["best_iter"] = incumbent, i
            if i == params.iterations - 1:
                count("siting.best_iter_frac_sum", state["best_iter"] / max(1, params.iterations))
                count("siting.search_runs", 1)

        return args, {**kwargs, "on_iteration": on_iteration}

    def reads(args, kwargs, result, secs):
        count("fileio.read_mb", _file_mb(args[0]))

    def writes(args, kwargs, result, secs):
        count("fileio.write_mb", _file_mb(args[0]))

    none = {}
    out = [
        (cli, "run_siting", "siting.run_siting", None, none),
        (cli, "run_cep", "cep.run_cep", None, none),
        (cli, "build_lp", "cep.build_lp", on_build, none),
        (cli, "solve", "lp.solve", on_solve, none),
        (cli, "decode_solution", "cep.decode", on_decode, none),
        (cli, "run_multistart", "siting.run_multistart", None, {"pool_parent": True}),
        (siting, "greedy_init", "siting.greedy_init", on_greedy, none),
        (siting, "local_search", "siting.local_search", None, {"inject": inject_observer}),
        (cli, "residual_demand", "siting.residual_demand", None, none),
        (cli, "residual_summary", "siting.residual_summary", None, none),
        (cli, "build_criticality_matrix", "resource.criticality", on_matrix, none),
        (cli, "capacity_factors_from_speeds", "resource.cf_convert", on_cf, none),
        (cli, "resample_mean", "timeseries.resample", None, none),
        (mps_io, "export_mps", "mps.export", on_export, none),
        # the library-level siting call reaches these through their own modules
        (resource, "build_criticality_matrix", "resource.criticality", on_matrix, none),
        (siting, "run_multistart", "siting.run_multistart", None, {"pool_parent": True}),
        (siting, "residual_demand", "siting.residual_demand", None, none),
        (siting, "residual_summary", "siting.residual_summary", None, none),
    ]
    for name in ("read_series_csv", "load_catalog", "read_hydro_params_csv",
                 "read_runoff_manifest"):
        out.append((fileio, name, f"fileio.{name}", reads, none))
    for name in ("load_default_curves", "load_curves_dir"):
        out.append((fileio, name, f"fileio.{name}", None, none))
    for name in ("save_criticality", "write_solution_json", "write_solution_geojson",
                 "write_series_csv", "write_cep_report_csv"):
        out.append((fileio, name, f"fileio.{name}", writes, none))
    for name in ("ror_capacity_factors", "unit_head_inflow", "calibrate_flow_multiplier",
                 "phs_storage"):
        out.append((cli, name, f"hydro.{name}", None, none))
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

LAYERS = ("cli", "siting", "resource", "cep", "lp", "mps", "fileio", "timeseries", "hydro")
_READERS = {"fileio.read_series_csv", "fileio.load_catalog", "fileio.read_hydro_params_csv",
            "fileio.read_runoff_manifest", "fileio.load_default_curves", "fileio.load_curves_dir"}


def per_layer(tracer: Tracer, runs, threads: int) -> dict[str, float]:
    """Per-call means over the given traced calls, plus the coverage of
    each call's wall time by its top-level spans (the worst call)."""
    runs = list(runs)
    n = max(1, len(runs))
    spans = [s for s in tracer.spans if s.run in set(runs)]
    by_id = {s.id: s for s in spans}
    selft = tracer.self_times(runs)

    def total(pred) -> float:
        """Summed duration of matching spans not nested in another match."""
        out = 0.0
        for s in spans:
            if not pred(s):
                continue
            p = s.parent
            nested = False
            while p is not None:
                if pred(by_id[p]):
                    nested = True
                    break
                p = by_id[p].parent
            if not nested:
                out += s.end - s.start
        return out

    def named(*names):
        return total(lambda s: s.name in names)

    counters: dict[str, float] = {}
    for run in runs:
        for key, value in tracer.counters.get(run, {}).items():
            counters[key] = counters.get(key, 0.0) + value
    c = {k: v / n for k, v in counters.items()}

    m: dict[str, float] = {}
    m["lp.solve_s"] = named("lp.solve") / n
    m["lp.iterations"] = c.get("lp.iterations", 0.0)
    m["lp.us_per_iter"] = 1e6 * m["lp.solve_s"] / m["lp.iterations"] if m["lp.iterations"] else 0.0
    m["lp.primal_residual_max"] = c.get("lp.primal_residual_max", 0.0)
    m["lp.duality_gap_rel"] = c.get("lp.duality_gap_rel", 0.0)
    m["cep.build_lp_s"] = named("cep.build_lp") / n
    m["lp.vars"] = c.get("lp.vars", 0.0)
    m["lp.rows"] = c.get("lp.rows", 0.0)
    m["lp.nnz"] = c.get("lp.nnz", 0.0)
    m["cep.build_lp_us_per_nnz"] = 1e6 * m["cep.build_lp_s"] / m["lp.nnz"] if m["lp.nnz"] else 0.0
    m["cep.instance_s"] = sum(selft[s.id] for s in spans if s.name == "cep.run_cep") / n
    m["cep.decode_s"] = named("cep.decode") / n
    m["cep.cost_check_relerr"] = c.get("cep.cost_check_relerr", 0.0)
    m["mps.export_s"] = named("mps.export") / n
    m["mps.bytes"] = c.get("mps.bytes", 0.0)
    m["mps.mb_per_s"] = m["mps.bytes"] / 1e6 / m["mps.export_s"] if m["mps.export_s"] else 0.0

    greedy = named("siting.greedy_init")
    multistart = named("siting.run_multistart")
    search = multistart - greedy if multistart else 0.0
    searches = sum(s.end - s.start for s in spans if s.name == "siting.local_search")
    iters = counters.get("siting.iterations", 0.0)
    m["siting.greedy_s"] = greedy / n
    m["siting.greedy_objective"] = c.get("siting.greedy_objective", 0.0)
    m["siting.search_s"] = search / n
    m["siting.neighbors_evaluated"] = c.get("siting.neighbors_evaluated", 0.0)
    m["siting.neighbors_per_s"] = counters.get("siting.neighbors_evaluated", 0.0) / search if search else 0.0
    m["siting.parallel_eff"] = searches / (threads * search) if search else 0.0
    m["siting.accept_rate"] = counters.get("siting.accepted", 0.0) / iters if iters else 0.0
    m["siting.improving_frac"] = counters.get("siting.improving", 0.0) / iters if iters else 0.0
    runs_done = counters.get("siting.search_runs", 0.0)
    m["siting.best_iter_frac"] = (counters.get("siting.best_iter_frac_sum", 0.0) / runs_done
                                  if runs_done else 0.0)
    m["siting.residual_s"] = named("siting.residual_demand", "siting.residual_summary") / n

    m["resource.cf_convert_s"] = named("resource.cf_convert") / n
    m["resource.cf_values"] = c.get("resource.cf_values", 0.0)
    m["resource.criticality_s"] = named("resource.criticality") / n
    m["resource.criticality_cells"] = c.get("resource.criticality_cells", 0.0)
    cells = counters.get("resource.criticality_cells", 0.0)
    m["resource.criticality_density"] = (counters.get("resource.criticality_ones", 0.0) / cells
                                         if cells else 0.0)
    m["fileio.read_s"] = total(lambda s: s.name in _READERS) / n
    m["fileio.read_mb"] = c.get("fileio.read_mb", 0.0)
    m["fileio.write_s"] = total(lambda s: s.layer == "fileio" and s.name not in _READERS) / n
    m["fileio.write_mb"] = c.get("fileio.write_mb", 0.0)
    m["timeseries.resample_s"] = named("timeseries.resample") / n
    m["hydro.prep_s"] = total(lambda s: s.layer == "hydro") / n
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selft[s.id] for s in spans if s.layer == layer) / n

    worst = 1.0
    for s in spans:
        if s.parent is None:
            top = _union_length([(c.start, c.end) for c in spans if c.parent == s.id])
            worst = min(worst, top / (s.end - s.start))
    m["trace.top_level_frac"] = worst
    return m
