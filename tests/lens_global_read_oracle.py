"""The lens probe as a direct global read — ``CoherencyLens.probe`` as it
stood while ``CoherencyLens(sharded=False)`` existed (commit ``8511722``),
kept as the readable oracle.

The body of :func:`global_read_probe` is a verbatim copy of that branch —
do not tidy it. The production probe builds one ``ProbeSample`` per
machine and folds them at the merge point;
``tests/integration/test_shard_equivalence.py`` patches this function in
as ``CoherencyLens.probe`` and requires the two record streams to be
equal bit for bit on every lazy engine × algorithm.
"""

import numpy as np


def global_read_probe(self) -> None:
    """Per-superstep staleness/divergence gauges (pre-exchange)."""
    self.probes += 1
    masses, pending = zip(*(
        self._pending(self.runtimes[ri], lo, hi)
        for ri, lo, hi in self._machines
    ))
    total_mass = float(sum(masses))
    stale_max = 0
    for ri, lo, hi in self._machines:
        live = self._ages[ri][lo:hi][self.runtimes[ri].has_delta[lo:hi]]
        if live.size:
            stale_max = max(stale_max, int(live.max()))
            if self.h_staleness is not None:
                counts = np.bincount(live)
                for age_value in np.flatnonzero(counts):
                    self.h_staleness.observe(
                        float(age_value), int(counts[age_value])
                    )
    if self.h_pending is not None:
        self.h_pending.observe(total_mass)
    drift = self.sample_drift()
    if self.g_drift is not None:
        self.g_drift.set(drift)
    active = int(sum(rt.num_active for rt in self.runtimes))
    tracer = self.tracer
    if tracer.enabled and not self._instants_due():
        # rollup window: keep the timeline bounded on long runs
        # (metrics above already accumulated this probe)
        self.rolled_up += 1
        return
    if tracer.enabled:
        tracer.counter("active_vertices", active)
        tracer.instant(
            "lens-probe",
            superstep=self.superstep,
            pending_mass=total_mass,
            pending_replicas=int(sum(pending)),
            staleness_max=stale_max,
            drift_max=drift,
            machine_mass=[float(m) for m in masses],
        )
    self._snapshot_channels()
