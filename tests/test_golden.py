"""Golden fingerprints of full runs.

Acceptance criterion 10 compares two runs of the same code; these pinned
digests hold every later refactor to the bytes of the last change meant to
alter outputs: the trigram embedder's move to the shared code-point n-gram
hash, which changes the sampled subset and so the search's scores. A change
that is meant to alter outputs must re-pin them and say why.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from pipecraft.cli import main
from pipecraft.corpus import save_dataset
from pipecraft.synthetic import messy_corpus

GOLDEN_SHA256 = {
    "report.json": "236a79b3d70697669a417145d5c7573555e8c7636d19529c7ec96430ddbad457",
    "final_dataset.jsonl": "960b05c9a47226c7e1be4553a95ca094b9b6fc017c73c92b5bd9a3a1a62b4184",
}


# bench corpora (corpus seed 44), run seed 0, sampling rate 0.2
BENCH_GOLDEN_SHA256 = {
    "replicated-2k": {
        "report.json": "9c6de2f335319a1958ca51e7efe4d7884b51fc547d82f749fb5c43b6d657f82a",
        "final_dataset.jsonl": "50b6596ba13ca11ed19b5b6f51772abd6ae814bfecc9510c04a6254f351cb883",
    },
    "distinct-3k": {
        "report.json": "2d2c1e65de25b35ee1a9c7bb5bd7844860cec2f6733c5f63540da3ddb85d975f",
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
