from __future__ import annotations

import json
import logging

import pytest

from pipecraft.cache import CacheLock
from pipecraft.cli import main
from pipecraft.config import (
    ENV_AGENT_ENDPOINT,
    ENV_CACHE_ROOT,
    ENV_EMBEDDER_ENDPOINT,
    ENV_SCREENER_ENDPOINT,
    ENV_TRAINER_ENDPOINT,
    MinhashConfig,
    OperatorConfig,
    load_run_config,
)
from pipecraft.corpus import load_dataset, save_dataset
from pipecraft.operators import ExecutionContext, apply_strategy
from pipecraft.strategy import parse_strategy
from pipecraft.synthetic import messy_corpus


@pytest.fixture
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_dataset(messy_corpus(seed=4), path)
    return path


def write_config(tmp_path, corpus_path, **overrides):
    config = {"dataset": str(corpus_path), "sampling_rate": 0.2, "seed": 11}
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestEnumerate:
    def test_prints_65_unique_lines(self, capsys):
        assert main(["enumerate"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 65
        assert len(set(lines)) == 65
        assert lines[0] == "NONE"


class TestApply:
    def test_none_is_byte_identity(self, tmp_path, corpus_path):
        out = tmp_path / "out.jsonl"
        assert main(["apply", "--strategy", "NONE", "--input", str(corpus_path),
                     "--output", str(out)]) == 0
        assert out.read_bytes() == corpus_path.read_bytes()

    def test_cleaning_twice_idempotent(self, tmp_path, corpus_path):
        once = tmp_path / "once.jsonl"
        twice = tmp_path / "twice.jsonl"
        main(["apply", "--strategy", "Cleaning", "--input", str(corpus_path),
              "--output", str(once)])
        main(["apply", "--strategy", "Cleaning", "--input", str(once),
              "--output", str(twice)])
        assert once.read_bytes() == twice.read_bytes()

    def test_matches_direct_application(self, tmp_path, corpus_path):
        out = tmp_path / "co.jsonl"
        assert main(["apply", "--strategy", "Cleaning -> Optimization",
                     "--input", str(corpus_path), "--output", str(out)]) == 0
        expected = apply_strategy(
            parse_strategy("Cleaning -> Optimization"),
            load_dataset(corpus_path),
            ExecutionContext.with_defaults(OperatorConfig()),
        )
        assert load_dataset(out).fingerprint == expected.fingerprint

    def test_cache_dir_on_file_root_exits_1(self, tmp_path, corpus_path, capsys):
        root = tmp_path / "not-a-dir"
        root.write_text("x", encoding="utf-8")
        assert main(["apply", "--strategy", "Cleaning", "--input", str(corpus_path),
                     "--output", str(tmp_path / "x"), "--cache-dir", str(root)]) == 1
        assert "cache error" in capsys.readouterr().err

    def test_cache_dir_while_locked_exits_1(self, tmp_path, corpus_path, capsys):
        root = tmp_path / "cache"
        argv = ["apply", "--strategy", "Cleaning", "--input", str(corpus_path),
                "--output", str(tmp_path / "x"), "--cache-dir", str(root)]
        with CacheLock(root):
            assert main(argv) == 1
        assert "locked" in capsys.readouterr().err
        assert main(argv) == 0

    def test_bad_strategy_is_config_error(self, tmp_path, corpus_path):
        assert main(["apply", "--strategy", "Data Cooking Team",
                     "--input", str(corpus_path), "--output", str(tmp_path / "x")]) == 2

    def test_missing_input_is_config_error(self, tmp_path):
        assert main(["apply", "--strategy", "NONE",
                     "--input", str(tmp_path / "no.jsonl"),
                     "--output", str(tmp_path / "x")]) == 2


class TestSample:
    def test_writes_subset(self, tmp_path, corpus_path):
        out = tmp_path / "sampled.jsonl"
        assert main(["sample", "--input", str(corpus_path), "--output", str(out),
                     "--rate", "0.25"]) == 0
        sampled = load_dataset(out)
        full = load_dataset(corpus_path)
        assert 0 < len(sampled) < len(full)
        assert {s.id for s in sampled} <= {s.id for s in full}

    def test_bad_rate(self, tmp_path, corpus_path):
        assert main(["sample", "--input", str(corpus_path),
                     "--output", str(tmp_path / "x"), "--rate", "1.5"]) == 2


class TestRun:
    def test_deterministic_artifacts(self, tmp_path, corpus_path, capsys):
        config = write_config(tmp_path, corpus_path)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "r1")]) == 0
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "r2")]) == 0
        for name in ("report.json", "final_dataset.jsonl", "report.txt", "config.json"):
            assert (tmp_path / "r1" / name).read_bytes() == (
                tmp_path / "r2" / name
            ).read_bytes(), name

    def test_artifacts_complete_and_consistent(self, tmp_path, corpus_path, capsys):
        config = write_config(tmp_path, corpus_path)
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(config), "--out", str(run_dir)]) == 0
        report = json.loads((run_dir / "report.json").read_text())
        # exactly one baseline entry, echoed once in the report
        log_lines = [
            json.loads(line)
            for line in (run_dir / "run_log.jsonl").read_text().splitlines()
        ]
        baseline_events = [r for r in log_lines if r["event"] == "baseline"]
        assert len(baseline_events) == 1
        none_evaluations = [
            r for r in log_lines
            if r["event"] == "evaluation" and r["strategy"] == "NONE"
        ]
        assert len(none_evaluations) == 1
        # phase accounting: exclusive phase times sum to at most the total
        timings = json.loads((run_dir / "timings.json").read_text())
        assert sum(timings["phases"].values()) <= timings["total"] + 1e-6
        assert {"sampling", "processing", "evaluation"} <= set(timings["phases"])
        # report matches the cache counters and final dataset on disk
        final = load_dataset(run_dir / "final_dataset.jsonl")
        assert report["final_dataset_fingerprint"] == final.fingerprint
        assert report["termination_reason"] in ("best-team", "no-processing", "budget")

    def test_missing_dataset_is_config_error(self, tmp_path):
        config = write_config(tmp_path, tmp_path / "ghost.jsonl")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "r")]) == 2

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "r")]) == 2

    def test_trainer_mode_without_endpoint_is_config_error(self, tmp_path, corpus_path):
        config = write_config(tmp_path, corpus_path, evaluation={"mode": "trainer"})
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("overrides", [
        {"seed": "x"},
        {"seed": 3.0},
        {"seed": True},
        {"sampling_rate": "abc"},
        {"evaluation": {"proxy_weights": [float("nan"), 0.3, 0.2, 0.1]}},
        {"temperature": float("-inf")},
        {"operators": {"token_range": ["a", 3]}},
        {"operators": {"token_range": [10]}},
        {"evaluation": {"proxy_weights": ["a", 1, 1, 1]}},
        {"endpoints": "x"},
        {"endpoints": {"agent": 5}},
        {"operators": [1]},
        {"operators": None},
        {"max_group_size": 0},
        {"sampling_rat": 0.2},
        {"operators": {"selection_keep": 0.5}},
        {"operators": {"minhash": {"bands_": 16}}},
        {"evaluation": {"weights": [0.4, 0.3, 0.2, 0.1]}},
        {"evaluation": {"trainer": {"epoch": 2}}},
        {"endpoints": {"agnet": None}},
    ], ids=json.dumps)
    def test_malformed_config_is_config_error(self, tmp_path, corpus_path, capsys, overrides):
        config = write_config(tmp_path, corpus_path, **overrides)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config")
        assert "Traceback" not in err

    def test_config_snapshot_loads_back(self, tmp_path, corpus_path, capsys):
        config = write_config(tmp_path, corpus_path, operators={"token_range": [5, 900]},
                              endpoints={"agent": None})
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(config), "--out", str(run_dir)]) == 0
        assert load_run_config(run_dir / "config.json") == load_run_config(config)

    def test_env_overrides_endpoints_and_cache_root(self, tmp_path, corpus_path, monkeypatch):
        for var in (ENV_EMBEDDER_ENDPOINT, ENV_SCREENER_ENDPOINT, ENV_TRAINER_ENDPOINT):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv(ENV_AGENT_ENDPOINT, "http://agent.env")
        monkeypatch.setenv(ENV_CACHE_ROOT, "/cache/env")
        config = write_config(tmp_path, corpus_path, cache_root="/cache/file",
                              endpoints={"agent": "http://agent.file",
                                         "embedder": "http://embedder.file"})
        run_cfg = load_run_config(config)
        assert run_cfg.endpoints.agent == "http://agent.env"
        assert run_cfg.endpoints.embedder == "http://embedder.file"
        assert run_cfg.endpoints.screener is None
        assert run_cfg.cache_root == "/cache/env"
        monkeypatch.setenv(ENV_SCREENER_ENDPOINT, "http://screener.env")
        assert load_run_config(write_config(tmp_path, corpus_path)).endpoints.screener == (
            "http://screener.env"
        )

    def test_integer_for_float_keeps_digest(self, tmp_path, corpus_path):
        config = write_config(tmp_path, corpus_path,
                              operators={"minhash": {"jaccard_threshold": 1}})
        expected = OperatorConfig(minhash=MinhashConfig(jaccard_threshold=1.0)).digest()
        assert load_run_config(config).operators.digest() == expected


class TestCacheCommands:
    def _run_once(self, tmp_path, corpus_path):
        config = write_config(tmp_path, corpus_path)
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(config), "--out", str(run_dir)]) == 0
        return run_dir / "cache"

    def test_stats_and_verify_clean(self, tmp_path, corpus_path, capsys):
        cache_dir = self._run_once(tmp_path, corpus_path)
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert stats["entries"] > 0
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 0

    def test_verify_names_corrupted_key(self, tmp_path, corpus_path, capsys):
        cache_dir = self._run_once(tmp_path, corpus_path)
        data_files = sorted(cache_dir.glob("entries/*/data.jsonl"))
        victim = data_files[0]
        raw = victim.read_bytes()
        victim.write_bytes(raw[:40] + b"Z" + raw[41:])
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 1
        out = capsys.readouterr().out
        assert out.count("mismatch:") == 1

    def test_prune_to_zero(self, tmp_path, corpus_path, capsys):
        cache_dir = self._run_once(tmp_path, corpus_path)
        assert main(["cache", "prune", "--cache-dir", str(cache_dir),
                     "--max-entries", "0"]) == 0
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert stats["entries"] == 0

    def test_prune_skips_mistyped_meta(self, tmp_path, corpus_path, capsys, caplog):
        cache_dir = self._run_once(tmp_path, corpus_path)
        metas = sorted(cache_dir.glob("entries/*/meta.json"))
        assert len(metas) > 1
        meta = json.loads(metas[0].read_text(encoding="utf-8"))
        meta["created_at"] = "yesterday"
        metas[0].write_text(json.dumps(meta), encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="pipecraft.cache"):
            assert main(["cache", "prune", "--cache-dir", str(cache_dir),
                         "--max-entries", "1"]) == 0
        assert "skipping unreadable cache entry" in caplog.text
        assert "created_at" in caplog.text
        assert "pruned" in capsys.readouterr().out


class TestCacheErrors:
    def test_run_on_file_root_exits_1(self, tmp_path, corpus_path, capsys):
        root = tmp_path / "not-a-dir"
        root.write_text("x", encoding="utf-8")
        config = write_config(tmp_path, corpus_path, cache_root=str(root))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
        assert "cache" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stats", "verify", "prune"])
    def test_cache_command_on_file_root_exits_1(self, tmp_path, capsys, command):
        root = tmp_path / "not-a-dir"
        root.write_text("x", encoding="utf-8")
        assert main(["cache", command, "--cache-dir", str(root)]) == 1
        assert "cache error" in capsys.readouterr().err

    def test_prune_while_locked_exits_1(self, tmp_path, capsys):
        root = tmp_path / "cache"
        with CacheLock(root):
            assert main(["cache", "prune", "--cache-dir", str(root), "--max-entries", "0"]) == 1
        assert "locked" in capsys.readouterr().err
        assert main(["cache", "prune", "--cache-dir", str(root), "--max-entries", "0"]) == 0


class TestReportCommand:
    def test_report_prints_saved_run(self, tmp_path, corpus_path, capsys):
        config = write_config(tmp_path, corpus_path)
        run_dir = tmp_path / "run"
        main(["run", "--config", str(config), "--out", str(run_dir)])
        capsys.readouterr()
        assert main(["report", "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "best strategy:" in out

    def test_missing_run_dir(self, tmp_path):
        assert main(["report", "--run-dir", str(tmp_path / "ghost")]) == 2
