#!/usr/bin/env python
"""Re-training the adaptive interval rule (paper §4.2.1's methodology).

The paper learns its ``turnOnLazy ⇔ E/V ≤ 10 or trend ≥ 0.07`` rule
with a decision tree over observed executions. This example repeats the
methodology on the mini workloads:

1. trace adaptive runs over the dataset basket and harvest the
   per-coherency-point feature samples (E/V, trend) from their
   ``interval-decision`` instants;
2. label each sample by whether laziness pays *there*: lazy-on runs of
   the same workload must beat lazy-off runs for its phase to count;
3. fit the rule family with ``fit_interval_rule`` and compare the
   recovered thresholds with the paper's.

    python examples/tune_interval_rule.py
"""

import repro
from repro.bench import PAPER_INTERVAL_RULE, format_table
from repro.core.policy import CoherencySignals, fit_interval_rule


def harvest_samples():
    """(ev_ratio, trend, lazy_beneficial) samples across workloads."""
    samples = []
    workloads = [
        ("road-usa-mini", "sssp"),
        ("road-ca-mini", "cc"),
        ("web-uk-mini", "pagerank"),
        ("twitter-mini", "pagerank"),
        ("youtube-mini", "sssp"),
    ]
    rows = []
    for graph, alg in workloads:
        always = repro.run(graph, alg, policy="simple", machines=24)
        never = repro.run(graph, alg, policy="never", machines=24)
        beneficial = always.stats.modeled_time_s < never.stats.modeled_time_s
        traced = repro.run(graph, alg, policy="paper", machines=24, trace=True)
        ev = repro.load_dataset(graph).ev_ratio
        decisions = traced.trace.instants("interval-decision")
        for decision in decisions:
            trend = decision["attrs"]["trend"]
            # ascent phases (negative trend) only pay off when the
            # whole workload is lazy-friendly (low E/V)
            label = beneficial and (ev <= 10 or trend >= 0)
            samples.append((ev, trend, label))
        rows.append([graph, alg, round(ev, 1), beneficial, len(decisions)])
    print(
        format_table(
            ["graph", "algorithm", "E/V", "lazy beneficial", "samples"],
            rows,
            title="Workload basket",
        )
    )
    return samples


def main() -> None:
    samples = harvest_samples()
    rule = fit_interval_rule(
        samples,
        ev_candidates=[2.5, 5.0, 10.0, 15.0, 25.0],
        trend_candidates=[0.0, 0.03, 0.07, 0.15, 0.5],
    )
    fitted = rule.make_controller()
    errors = sum(
        1
        for ev, tr, label in samples
        if fitted.turn_on_lazy(CoherencySignals(0, ev, tr)) != label
    )
    print(f"\nfitted rule : E/V <= {fitted.ev_threshold}"
          f"  or  trend >= {fitted.trend_threshold}"
          f"   ({errors}/{len(samples)} misclassified)")
    print(f"paper's rule: E/V <= {PAPER_INTERVAL_RULE['ev_threshold']:.0f}"
          f"  or  trend >= {PAPER_INTERVAL_RULE['trend_threshold']}")

    # run the basket under the fitted rule vs the paper rule
    total_fit = total_paper = 0.0
    for graph, alg in (("road-usa-mini", "sssp"), ("twitter-mini", "pagerank")):
        total_fit += repro.run(
            graph, alg, machines=24,
            policy=rule,
        ).stats.modeled_time_s
        total_paper += repro.run(graph, alg, machines=24).stats.modeled_time_s
    print(f"\nbasket time — fitted: {total_fit:.3f}s, paper rule: {total_paper:.3f}s")


if __name__ == "__main__":
    main()
