"""Golden fingerprints of one full run.

Acceptance criterion 10 compares two runs of the same code; these pinned
digests hold every later refactor to the bytes the run produced before the
text-profile memo was introduced. A change that is meant to alter outputs
must re-pin them and say why.
"""
from __future__ import annotations

import hashlib
import json

from pipecraft.cli import main
from pipecraft.corpus import save_dataset
from pipecraft.synthetic import messy_corpus

GOLDEN_SHA256 = {
    "report.json": "6630025633fbf7196218b488167d58de3c9074cbf0afb7a67ecbcba8cff2a15c",
    "final_dataset.jsonl": "3a1fb433e575d408b57d686b361c84884a7c0cf2c06b49a9ad2dd1e6c24bfde6",
}


def test_run_artifacts_match_golden_fingerprints(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    save_dataset(messy_corpus(seed=10), corpus_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"dataset": str(corpus_path), "sampling_rate": 0.2, "seed": 3}),
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
        for name in GOLDEN_SHA256
    }
    assert digests == GOLDEN_SHA256
