"""What the benchmark relies on still exists: every function the traced
benchmark wraps, under its name, and what it reads from a run.

The bench directory is appended to ``sys.path``, not prepended, so that
``tests`` keeps resolving to this directory."""
from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

from pipecraft import cli, config
from pipecraft.corpus import save_dataset
from pipecraft.synthetic import messy_corpus

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH_DIR) not in sys.path:
    sys.path.append(str(BENCH_DIR))

import layers  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("target", layers.TARGETS, ids=lambda target: target.key)
def test_target_resolves(target):
    importlib.import_module(target.module)
    assert callable(spans.resolve(target))


def test_run_exposes_what_the_benchmark_reads(tmp_path, monkeypatch, capsys):
    """The benchmark counts calls on the context that ``cli.build_context``
    returns, wraps its embedder's ``embed`` on the instance, and reads three
    files of the run."""
    for var in (config.ENV_AGENT_ENDPOINT, config.ENV_EMBEDDER_ENDPOINT,
                config.ENV_SCREENER_ENDPOINT, config.ENV_TRAINER_ENDPOINT,
                config.ENV_CACHE_ROOT):
        monkeypatch.delenv(var, raising=False)
    contexts, embedded = [], []
    build_context = cli.build_context

    def probe(*args, **kwargs):
        context = build_context(*args, **kwargs)
        embed = context.embedder.embed

        def counted(text):
            embedded.append(text)
            return embed(text)

        context.embedder.embed = counted
        contexts.append(context)
        return context

    monkeypatch.setattr(cli, "build_context", probe)
    corpus = messy_corpus(seed=4)
    save_dataset(corpus, tmp_path / "corpus.jsonl")
    run_config = {"dataset": str(tmp_path / "corpus.jsonl"), "seed": 0, "sampling_rate": 0.2}
    (tmp_path / "config.json").write_text(json.dumps(run_config), encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 0

    (context,) = contexts
    assert sorted(embedded) == sorted({sample.combined_text for sample in corpus})
    model_calls = [client.calls for client in (context.optimizer, context.generator,
                                               context.scorer)]
    assert all(type(calls) is int for calls in model_calls) and sum(model_calls) > 0
    assert context.screener.classify_calls > 0
    assert context.total_invocations() > 0
    stats = context.cache.stats()
    assert type(stats["hits"]) is int and type(stats["team_invocations_saved"]) is int
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["rounds_executed"] >= 1
    phases = json.loads((out / "timings.json").read_text(encoding="utf-8"))["phases"]
    assert {"sampling", "processing", "evaluation"} <= set(phases)
    events = [json.loads(line)["event"]
              for line in (out / "run_log.jsonl").read_text(encoding="utf-8").splitlines()]
    assert events.count("baseline") == 1
    assert events.count("evaluation") >= report["rounds_executed"]
