"""Output checks on one finished ``pipecraft run``.

Each check returns a list of failure messages; an empty list means the run's
outputs are correct. They run outside the timed region.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from pipecraft import cli
from pipecraft.config import load_run_config
from pipecraft.corpus import DatasetError, load_dataset
from pipecraft.operators import apply_strategy
from pipecraft.strategy import parse_strategy

REPORT = "report.json"
FINAL = "final_dataset.jsonl"


@dataclass(frozen=True)
class Outputs:
    report: bytes
    final: bytes

    @classmethod
    def read(cls, run_dir: str | Path) -> "Outputs":
        run_dir = Path(run_dir)
        return cls((run_dir / REPORT).read_bytes(), (run_dir / FINAL).read_bytes())

    def report_without_cache(self) -> dict:
        report = json.loads(self.report)
        report.pop("cache", None)
        return report


def recompute_fingerprint(outputs: Outputs, corpus: str | Path, config: str | Path) -> str:
    """Fingerprint of the run's best strategy applied to the full corpus
    without any cache, with the clients ``pipecraft run`` would build."""
    best = parse_strategy(json.loads(outputs.report)["best_strategy"])
    context = cli.build_context(load_run_config(config))
    return apply_strategy(best, load_dataset(corpus), context).fingerprint


def check_run(
    run_dir: str | Path,
    expected_fingerprint: str,
    first: Outputs | None = None,
    cold: Outputs | None = None,
) -> list[str]:
    """Check the final dataset of a run that exited with 0 against an
    uncached recompute; with ``first``, that ``report.json`` matches the
    workload's first run byte for byte; with ``cold``, the cold run that
    filled the cache, that the final dataset and the report minus its cache
    counters match it."""
    outputs = Outputs.read(run_dir)
    failures = []
    try:
        fingerprint = load_dataset(Path(run_dir) / FINAL).fingerprint
    except DatasetError as exc:
        fingerprint = f"unreadable: {exc}"
    if fingerprint != expected_fingerprint:
        failures.append(f"{FINAL} differs from an uncached recompute of the best strategy")
    if first is not None and outputs.report != first.report:
        failures.append(f"{REPORT} differs from the first run of this workload")
    if cold is not None:
        if outputs.final != cold.final:
            failures.append(f"{FINAL} differs from the cold run that filled the cache")
        if outputs.report_without_cache() != cold.report_without_cache():
            failures.append(f"{REPORT} without cache counters differs from the cold run")
    return failures
