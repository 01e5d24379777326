"""Experiment description files: batch runs from JSON.

Lets a user script a whole study declaratively and run it with
``python -m repro experiment --config study.json``:

```json
{
  "name": "my-study",
  "defaults": {"machines": 24, "partitioner": "coordinated"},
  "experiments": [
    {"graph": "road-usa-mini", "algorithm": "sssp",
     "engine": "lazy-block"},
    {"graph": "road-usa-mini", "algorithm": "sssp",
     "engine": "powergraph-sync"},
    {"graph": "twitter-mini", "algorithm": "kcore",
     "params": {"k": 12}}
  ]
}
```

Unknown keys are rejected loudly — a typo'd field silently ignored is a
wrong experiment.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.bench.configs import ExperimentConfig
from repro.bench.harness import run_experiment
from repro.core.policy import named_policy
from repro.errors import ConfigError
from repro.runtime.result import EngineResult
from repro.runtime.run_config import RunConfig

__all__ = ["load_experiment_file", "run_experiment_file"]

#: the flat per-experiment keys: graph-level ones name the session,
#: the rest (``policy_opts`` folded into ``policy``) are RunConfig fields
_ALLOWED_KEYS = {
    "graph",
    "algorithm",
    "engine",
    "machines",
    "partitioner",
    "policy",
    "policy_opts",
    "seed",
    "lens",
    "params",
}


def _build_config(entry: Dict, defaults: Dict, index: int) -> ExperimentConfig:
    merged = dict(defaults)
    merged.update(entry)
    removed = {"interval", "coherency_mode"} & set(merged)
    if removed:
        raise ConfigError(
            f"experiment #{index}: {sorted(removed)} were removed; use "
            f'"policy" / "policy_opts" (e.g. "policy": "simple", '
            f'"policy_opts": {{"mode": "a2a"}})'
        )
    unknown = set(merged) - _ALLOWED_KEYS
    if unknown:
        raise ConfigError(
            f"experiment #{index}: unknown keys {sorted(unknown)}; "
            f"allowed: {sorted(_ALLOWED_KEYS)}"
        )
    for required in ("graph", "algorithm"):
        if required not in merged:
            raise ConfigError(f"experiment #{index}: missing {required!r}")
    for key in ("params", "policy_opts"):
        if not isinstance(merged.get(key, {}), dict):
            raise ConfigError(f"experiment #{index}: {key} must be an object")
    merged["policy"] = named_policy(
        merged.get("policy"), merged.pop("policy_opts", {})
    )
    run_keys = set(RunConfig.field_names())
    return ExperimentConfig(
        run=RunConfig(**{k: v for k, v in merged.items() if k in run_keys}),
        **{k: v for k, v in merged.items() if k not in run_keys},
    )


def load_experiment_file(path: str) -> Tuple[str, List[ExperimentConfig]]:
    """Parse a study file; returns ``(study name, configs)``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read experiment file {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    extras = set(doc) - {"name", "defaults", "experiments"}
    if extras:
        raise ConfigError(f"{path}: unknown top-level keys {sorted(extras)}")
    entries = doc.get("experiments")
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{path}: 'experiments' must be a non-empty list")
    defaults = doc.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ConfigError(f"{path}: 'defaults' must be an object")
    configs = [
        _build_config(e, defaults, i) for i, e in enumerate(entries)
    ]
    return str(doc.get("name", path)), configs


def run_experiment_file(
    path: str,
) -> Tuple[str, List[Tuple[ExperimentConfig, EngineResult]]]:
    """Load and execute every experiment in the file (shared sessions)."""
    name, configs = load_experiment_file(path)
    results = [(cfg, run_experiment(cfg)) for cfg in configs]
    return name, results
