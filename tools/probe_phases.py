"""Phase probe: one ``pipecraft run`` per corpus size, phase times and output digests.

    PYTHONPATH=src python3 tools/probe_phases.py --sizes 12000 24000

Each size N runs ``cli.main(["run", ...])`` on ``bench.corpora.distinct(44, N)``
with ``{"seed": 0, "sampling_rate": 0.2}`` in a fresh temporary directory,
then prints the total and per-phase seconds from ``timings.json``, each model
role's requests sent and reused from the run log's ``model-requests`` event,
and the SHA-256 of ``report.json`` and ``final_dataset.jsonl``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from corpora import distinct  # noqa: E402
from pipecraft import cli  # noqa: E402
from pipecraft.corpus import save_dataset  # noqa: E402

PHASES = ("sampling", "screening", "processing", "evaluation")
ROLES = ("optimizer", "generator", "scorer")


def probe(size: int, work: Path) -> str:
    save_dataset(distinct(44, size), work / "corpus.jsonl")
    config = {"dataset": str(work / "corpus.jsonl"), "seed": 0, "sampling_rate": 0.2}
    (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--config", str(work / "config.json"), "--out", str(work / "run")])
    if code != 0:
        raise SystemExit(f"run on {size} samples exited {code}")
    timings = json.loads((work / "run" / "timings.json").read_text(encoding="utf-8"))
    records = [json.loads(line) for line in
               (work / "run" / "run_log.jsonl").read_text(encoding="utf-8").splitlines()]
    (requests,) = [record for record in records if record["event"] == "model-requests"]
    digests = [hashlib.sha256((work / "run" / name).read_bytes()).hexdigest()
               for name in ("report.json", "final_dataset.jsonl")]
    seconds = [timings["total"], *(timings["phases"].get(phase, 0.0) for phase in PHASES)]
    counts = [f"{requests[role]['sent']:,} / {requests[role]['reused']:,}" for role in ROLES]
    return " | ".join([f"{size:,}", *(f"{value:.2f}" for value in seconds), *counts, *digests])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", required=True)
    args = parser.parse_args()
    print("| N | total s | " + " | ".join(PHASES) + " | "
          + " | ".join(f"{role} sent / reused" for role in ROLES)
          + " | report.json | final_dataset.jsonl |")
    for size in args.sizes:
        with tempfile.TemporaryDirectory(prefix="probe-phases-") as work:
            print(f"| {probe(size, Path(work))} |", flush=True)


if __name__ == "__main__":
    main()
