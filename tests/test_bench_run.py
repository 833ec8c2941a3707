"""The traced benchmark runs end to end and prints every per-layer metric
that ``BENCHMARK.json`` names.

Tracing rebinds module names that refer to wrapped functions, so a program
that reaches a traced function's attributes through its module name (a
memo's ``cache_clear``, say) fails only under tracing. The benchmark runs in
a subprocess, as it is run in practice, with one short timed run.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_run_prints_every_per_layer_metric():
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "replicated-2k",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    missing = [layer["name"] for layer in declared["per_layer"]
               if layer["name"] not in summary["metrics"]]
    assert missing == []
