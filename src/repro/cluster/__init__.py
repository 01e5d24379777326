"""Deterministic in-process cluster simulation.

This package is the substitution for the paper's 48-node EC2-like
testbed (see DESIGN.md §2). It provides:

* :class:`~repro.cluster.stats.RunStats` — the measured counters (global
  synchronizations, network bytes/messages, supersteps, edge work) that
  the paper's Figs 10–11 report directly;
* :class:`~repro.cluster.network.NetworkModel` — the calibrated cost
  model converting those counters into modeled wall-clock seconds,
  including the paper's fitted all-to-all / mirrors-to-master
  communication-time curves (§4.2.2);
* :class:`~repro.cluster.simulator.ClusterSim` — P simulated machines'
  compute meters, bulk-exchange accounting and barriers. All engine
  communication is reported to it (through the exchange plane's
  channels), so the counters cannot be bypassed.
"""

from repro.cluster.network import CommMode, NetworkModel
from repro.cluster.simulator import ClusterSim
from repro.cluster.stats import RunStats

__all__ = ["NetworkModel", "CommMode", "ClusterSim", "RunStats"]
