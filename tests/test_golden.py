"""Golden fingerprints of full runs.

Acceptance criterion 10 compares two runs of the same code; these pinned
digests hold every later refactor to the bytes the run produced before the
text-profile memo was introduced, and to the bytes each benchmark workload
produced before the accelerators were cut down. A change that is meant to
alter outputs must re-pin them and say why.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from pipecraft.cli import main
from pipecraft.corpus import save_dataset
from pipecraft.synthetic import messy_corpus

GOLDEN_SHA256 = {
    "report.json": "6630025633fbf7196218b488167d58de3c9074cbf0afb7a67ecbcba8cff2a15c",
    "final_dataset.jsonl": "3a1fb433e575d408b57d686b361c84884a7c0cf2c06b49a9ad2dd1e6c24bfde6",
}


# bench corpora (corpus seed 44), run seed 0, sampling rate 0.2
BENCH_GOLDEN_SHA256 = {
    "replicated-2k": {
        "report.json": "6058d515959ddaf5412a691a2ca929deac40d1b19515611fd6180f59a8a287c8",
        "final_dataset.jsonl": "50b6596ba13ca11ed19b5b6f51772abd6ae814bfecc9510c04a6254f351cb883",
    },
    "distinct-3k": {
        "report.json": "9a002274124c6d8d6633d30679dea2893ca46b174b2a680ba885aaa0eb88f574",
        "final_dataset.jsonl": "8f141c6a18c6511bfa09cce4bd7b7d7abd8ee9056e24fdd6ae8eaab3eabd8006",
    },
}


def run_digests(tmp_path, dataset, seed: int) -> dict[str, str]:
    corpus_path = tmp_path / "corpus.jsonl"
    save_dataset(dataset, corpus_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"dataset": str(corpus_path), "sampling_rate": 0.2, "seed": seed}),
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 0
    return {
        name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
        for name in ("report.json", "final_dataset.jsonl")
    }


def test_run_artifacts_match_golden_fingerprints(tmp_path, capsys):
    assert run_digests(tmp_path, messy_corpus(seed=10), seed=3) == GOLDEN_SHA256


@pytest.mark.parametrize("workload", sorted(BENCH_GOLDEN_SHA256))
def test_bench_workload_artifacts_match_golden_fingerprints(
    tmp_path, capsys, bench_corpora, workload
):
    assert run_digests(tmp_path, bench_corpora[workload], seed=0) == BENCH_GOLDEN_SHA256[workload]
