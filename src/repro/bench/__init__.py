"""Experiment harness behind the ``benchmarks/`` suite.

One module per concern:

* :mod:`repro.bench.configs` — experiment descriptions (graph ×
  algorithm × engine × machines) with the paper's per-figure defaults;
* :mod:`repro.bench.harness` — execution over a registry of resident
  :class:`~repro.session.GraphSession` objects (one per graph ×
  machines × partitioner, shared across engines and figures) and the
  lazy-vs-Sync comparison every per-graph figure needs;
* :mod:`repro.bench.persistence` — one collector per paper table/figure,
  shared by ``repro figures`` and the ``benchmarks/bench_*`` shape tests;
* :mod:`repro.bench.reporting` — plain-text table/series printers that
  emit the same rows the paper's figures plot.
"""

from repro.bench.configs import (
    FIG9_ALGORITHMS,
    FIG9_GRAPHS,
    FIG12_GRAPHS,
    FIG12_MACHINES,
    ExperimentConfig,
    default_kcore_k,
    default_program_params,
)
from repro.bench.harness import (
    clear_caches,
    compare_lazy_vs_sync,
    run_experiment,
    session_for,
)
from repro.bench.expectations import (
    FIG_EXPECTATIONS,
    PAPER_INTERVAL_RULE,
    PAPER_MEAN_SPEEDUPS,
    PAPER_SPEEDUP_RANGE,
)
from repro.bench.plots import bar_chart, sparkline, timeline_plot
from repro.bench.reporting import format_series, format_table

__all__ = [
    "ExperimentConfig",
    "FIG9_GRAPHS",
    "FIG9_ALGORITHMS",
    "FIG12_GRAPHS",
    "FIG12_MACHINES",
    "default_kcore_k",
    "default_program_params",
    "session_for",
    "run_experiment",
    "compare_lazy_vs_sync",
    "clear_caches",
    "format_table",
    "format_series",
    "sparkline",
    "bar_chart",
    "timeline_plot",
    "PAPER_SPEEDUP_RANGE",
    "PAPER_MEAN_SPEEDUPS",
    "PAPER_INTERVAL_RULE",
    "FIG_EXPECTATIONS",
]
