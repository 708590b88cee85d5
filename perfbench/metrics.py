"""Catalogue of the metrics the benchmark reports.

Every metric has a unit and a better direction.  End-to-end metrics also
carry the bound by which a change may worsen their median; per-layer
metrics name the layer (a ``windplan`` module) and the end-to-end metric
and workloads they are expected to move.  ``BENCHMARK.json`` mirrors this
table and ``selftest.py`` checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str = ""
    moves: str = ""
    bound: float | None = None


END_TO_END = (
    Metric("wall_s", "s", "lower", bound=0.25,
           moves="median wall time of one timed call, tracing off"),
    Metric("setup_s", "s", "lower", bound=0.25,
           moves="imports (fresh interpreter) plus data generation and config writing"),
    Metric("peak_rss_mb", "MB", "lower", bound=0.1,
           moves="ru_maxrss of the workload's own process"),
    Metric("coverage_frac", "ratio", "higher", bound=0.1,
           moves="covered windows of the returned selection divided by W"),
)

_L = Metric
PER_LAYER = (
    # lp: the reference simplex
    _L("lp.solve_s", "s", "lower", "lp", "wall_s on sizing (~75 %); 0 elsewhere"),
    _L("lp.iterations", "count", "lower", "lp", "wall_s on sizing"),
    _L("lp.us_per_iter", "us", "lower", "lp", "wall_s on sizing"),
    _L("lp.primal_residual_max", "ratio", "lower", "lp", "correctness of sizing results"),
    _L("lp.duality_gap_rel", "ratio", "lower", "lp", "correctness of sizing results"),
    _L("lp.ref_relerr", "ratio", "lower", "lp", "objective agreement with scipy HiGHS on sizing"),
    # cep: instance build, LP assembly and decode
    _L("cep.build_lp_s", "s", "lower", "cep", "wall_s and peak_rss_mb on export-19bus"),
    _L("cep.build_lp_us_per_nnz", "us", "lower", "cep", "wall_s on export-19bus"),
    _L("lp.vars", "count", "lower", "cep", "lp.iterations on sizing; wall_s on export-19bus"),
    _L("lp.rows", "count", "lower", "cep", "lp.iterations on sizing; wall_s on export-19bus"),
    _L("lp.nnz", "count", "lower", "cep", "wall_s and peak_rss_mb on export-19bus"),
    _L("cep.instance_s", "s", "lower", "cep", "wall_s on export-19bus and sizing (small)"),
    _L("cep.decode_s", "s", "lower", "cep", "wall_s on sizing (small)"),
    _L("cep.cost_check_relerr", "ratio", "lower", "cep", "correctness of sizing results"),
    # mps: model export
    _L("mps.export_s", "s", "lower", "mps", "wall_s and peak_rss_mb on export-19bus; 0 elsewhere"),
    _L("mps.bytes", "bytes", "lower", "mps", "wall_s on export-19bus"),
    _L("mps.mb_per_s", "MB/s", "higher", "mps", "wall_s on export-19bus"),
    # siting: greedy start, annealed search, residual diagnostics
    _L("siting.greedy_s", "s", "lower", "siting", "wall_s on siting-paper"),
    _L("siting.greedy_objective", "count", "higher", "siting", "coverage_frac on siting-paper"),
    _L("siting.search_s", "s", "lower", "siting", "wall_s on siting-paper"),
    _L("siting.neighbors_evaluated", "count", "higher", "siting", "coverage_frac on siting-paper"),
    _L("siting.neighbors_per_s", "1/s", "higher", "siting", "wall_s on siting-paper"),
    _L("siting.parallel_eff", "ratio", "higher", "siting", "wall_s on siting-paper"),
    _L("siting.accept_rate", "ratio", "higher", "siting", "coverage_frac on siting-paper"),
    _L("siting.improving_frac", "ratio", "higher", "siting", "coverage_frac on siting-paper"),
    _L("siting.best_iter_frac", "ratio", "lower", "siting", "coverage_frac on siting-paper"),
    _L("siting.residual_s", "s", "lower", "siting", "wall_s on siting-paper (small)"),
    # resource / powercurve: CF conversion and criticality matrix
    _L("resource.cf_convert_s", "s", "lower", "resource", "wall_s on export-19bus and sizing"),
    _L("resource.cf_values", "count", "lower", "resource", "wall_s on export-19bus and sizing"),
    _L("resource.criticality_s", "s", "lower", "resource", "wall_s on siting-paper"),
    _L("resource.criticality_cells", "count", "lower", "resource", "wall_s on siting-paper"),
    _L("resource.criticality_density", "ratio", "higher", "resource", "coverage_frac everywhere"),
    # fileio / timeseries: CSV and artifact I/O, resampling
    _L("fileio.read_s", "s", "lower", "fileio", "wall_s on export-19bus and sizing"),
    _L("fileio.read_mb", "MB", "lower", "fileio", "wall_s on export-19bus and sizing"),
    _L("fileio.write_s", "s", "lower", "fileio", "wall_s on export-19bus and sizing"),
    _L("fileio.write_mb", "MB", "lower", "fileio", "wall_s on export-19bus and sizing"),
    _L("timeseries.resample_s", "s", "lower", "timeseries", "wall_s on export-19bus and sizing"),
    # hydro
    _L("hydro.prep_s", "s", "lower", "hydro", "wall_s on sizing and export-19bus (small)"),
    # self time per layer (span time not covered by child spans)
    *(_L(f"{layer}.self_s", "s", "lower", layer, "share of wall_s spent in the layer itself")
      for layer in ("cli", "siting", "resource", "cep", "lp", "mps", "fileio", "timeseries",
                    "hydro")),
    # the trace itself
    _L("trace.wall_s", "s", "lower", "trace", "wall_s measured with tracing on"),
    _L("trace.overhead_s", "s", "lower", "trace", "traced wall_s minus untraced wall_s"),
    _L("tracing_overhead_frac", "ratio", "lower", "trace", "traced over untraced wall_s, minus 1"),
    _L("trace.top_level_frac", "ratio", "higher", "trace", "share of traced wall time in top-level spans"),
)

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
