"""``tools/probe_phases.py`` runs end to end: one small size, run in a
subprocess as it is run in practice, prints a row with the total, the four
phase times and the SHA-256 of ``report.json`` and ``final_dataset.jsonl``."""
from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PHASES = ["sampling", "screening", "processing", "evaluation"]


def cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def test_probe_prints_phases_and_digests():
    result = subprocess.run(
        [sys.executable, "tools/probe_phases.py", "--sizes", "300"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
    header, row = result.stdout.strip().splitlines()
    names, values = cells(header), cells(row)
    assert names[2:6] == PHASES and len(values) == len(names)
    assert values[0] == "300"
    assert all(float(value) >= 0 for value in values[1:6])
    assert names[-2:] == ["report.json", "final_dataset.jsonl"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest in values[-2:])
