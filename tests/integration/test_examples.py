"""The example scripts run, and print what they printed when written.

Both read a traced run's per-superstep record — the ``superstep``
spans' ``active`` and lazy-block's ``interval-decision`` instants — so
these lines pin that the trace carries what the tables are made of.
Every number below is a modeled quantity: deterministic, host-free.
"""

import runpy
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _run_example(name, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_analytics_report(capsys, monkeypatch):
    lines = _run_example("analytics_report.py", capsys, monkeypatch)
    assert lines[0] == "=== analytics report: livejournal-mini ==="
    # the PageRank convergence panel, from the run's trace
    assert "supersteps: 56   peak active: 15583   final time: 1.4742s" in lines
    (lazy,) = [line for line in lines if line.startswith("lazy    ")]
    assert lazy == (
        "lazy    ...................................+.+.+.+++++++++"
        "   (+ = local stage on)"
    )
    assert "reaches 3000/3000 vertices" in lines


def test_tune_interval_rule(capsys, monkeypatch):
    lines = _run_example("tune_interval_rule.py", capsys, monkeypatch)
    # one feature sample per interval-decision of each traced run
    samples = {
        line.split()[0]: int(line.split()[-1]) for line in lines
        if line.strip().startswith(("road-", "web-", "twitter-", "youtube-"))
    }
    assert samples == {
        "road-usa-mini": 65, "road-ca-mini": 22, "web-uk-mini": 41,
        "twitter-mini": 59, "youtube-mini": 10,
    }
    assert ("fitted rule : E/V <= 10.0  or  trend >= 0.5"
            "   (3/197 misclassified)") in lines
    assert "paper's rule: E/V <= 10  or  trend >= 0.07" in lines
    assert lines[-1] == "basket time — fitted: 2.581s, paper rule: 2.577s"

