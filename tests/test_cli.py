from __future__ import annotations

import json
import logging
import urllib.request

import pytest

from pipecraft import cli, clients
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
    run_config_from,
)
from pipecraft.corpus import load_dataset, save_dataset
from pipecraft.operators import ExecutionContext, apply_strategy
from pipecraft.sampling import stratified_sample
from pipecraft.screener import Screener
from pipecraft.strategy import parse_strategy
from pipecraft.synthetic import messy_corpus
from tests.scripted_clients import (CannedResponse, CutShortResponse, answer_not_in_http,
                                    open_without_connecting)


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

    def test_duplicate_team_names_the_team(self, tmp_path, corpus_path, capsys):
        out = tmp_path / "x"
        assert main(["apply", "--strategy", "Cleaning, Cleaning",
                     "--input", str(corpus_path), "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: bad strategy: team Cleaning listed twice\n"
        )
        assert not out.exists()

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

    def test_remote_embedder_of_768_dimensions(self, tmp_path, corpus_path, monkeypatch):
        """The remote embedder takes its dimension from what the endpoint
        returns. ``urlopen`` is replaced, so no request leaves the process."""
        reference = clients.HashingEmbedder(768)

        def embed(request, timeout):
            vector = reference.embed(json.loads(request.data)["text"])
            return CannedResponse(json.dumps({"vector": vector.tolist()}).encode())

        monkeypatch.setattr(urllib.request, "urlopen", embed)
        monkeypatch.setenv(ENV_EMBEDDER_ENDPOINT, "http://embedder.test/embed")
        monkeypatch.delenv(ENV_SCREENER_ENDPOINT, raising=False)
        out = tmp_path / "sampled.jsonl"
        assert main(["sample", "--input", str(corpus_path), "--output", str(out)]) == 0
        expected = stratified_sample(load_dataset(corpus_path), 0.2, Screener(), reference)
        assert load_dataset(out).fingerprint == expected.fingerprint

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
        assert {"sampling", "screening", "processing", "evaluation"} <= set(timings["phases"])
        (requests,) = [r for r in log_lines if r["event"] == "model-requests"]
        assert requests["screener"]["classified"] > 0  # premise: the screener has misses
        assert timings["phases"]["screening"] > 0
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
        {"operators": {"minhash": {"bands": 0, "num_permutations": 0}}},
        {"evaluation": {"weights": [0.4, 0.3, 0.2, 0.1]}},
        {"evaluation": {"trainer": {"epoch": 2}}},
        {"endpoints": {"agnet": None}},
        {"initial_group_size": 9, "max_group_size": 2},
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


class TestOutputErrors:
    """An output under a regular file cannot be written: exit 1, one line."""

    @staticmethod
    def blocked(tmp_path):
        (tmp_path / "file").write_text("x", encoding="utf-8")
        return str(tmp_path / "file" / "x")

    def assert_one_line(self, capsys, prefix):
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        assert len(err.splitlines()) == 1

    def test_run_out_under_file(self, tmp_path, corpus_path, capsys):
        config = write_config(tmp_path, corpus_path)
        assert main(["run", "--config", str(config), "--out", self.blocked(tmp_path)]) == 1
        self.assert_one_line(capsys, "run failed: ")

    def test_apply_output_under_file(self, tmp_path, corpus_path, capsys):
        assert main(["apply", "--strategy", "Cleaning", "--input", str(corpus_path),
                     "--output", self.blocked(tmp_path)]) == 1
        self.assert_one_line(capsys, "apply failed: ")

    def test_sample_output_under_file(self, tmp_path, corpus_path, capsys):
        assert main(["sample", "--input", str(corpus_path),
                     "--output", self.blocked(tmp_path)]) == 1
        self.assert_one_line(capsys, "sample failed: ")

    def test_run_embedder_failure(self, tmp_path, corpus_path, capsys, monkeypatch):
        monkeypatch.delenv(ENV_EMBEDDER_ENDPOINT, raising=False)

        def unreachable(endpoint, payload):
            raise OSError("connection refused")

        monkeypatch.setattr(clients, "post_json", unreachable)
        config = write_config(tmp_path, corpus_path,
                              endpoints={"embedder": "http://embedder.test/embed"})
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
        self.assert_one_line(capsys, "run failed: sampling failed: ")


class TestLoneSurrogate:
    """A record whose text holds a lone surrogate (a ``\\ud800`` escape) is a
    bad input: ``run`` exits 1, ``apply`` and ``sample`` exit 2, each with
    one line naming the record's line."""

    @pytest.fixture
    def bad_corpus(self, tmp_path, corpus_path):
        path = tmp_path / "surrogate.jsonl"
        lines = corpus_path.read_text(encoding="utf-8").splitlines()
        lines.insert(3, json.dumps({"id": "bad", "question": "q", "answer": "bad \ud800 text"}))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def assert_one_line(self, capsys, prefix):
        err = capsys.readouterr().err
        assert err.startswith(prefix + "line 4: ")
        assert len(err.splitlines()) == 1

    def test_run_exits_1(self, tmp_path, bad_corpus, capsys):
        config = write_config(tmp_path, bad_corpus)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
        self.assert_one_line(capsys, "run failed: ")

    def test_apply_exits_2(self, tmp_path, bad_corpus, capsys):
        assert main(["apply", "--strategy", "Cleaning", "--input", str(bad_corpus),
                     "--output", str(tmp_path / "out.jsonl")]) == 2
        self.assert_one_line(capsys, "config error: ")

    def test_sample_exits_2(self, tmp_path, bad_corpus, capsys):
        assert main(["sample", "--input", str(bad_corpus),
                     "--output", str(tmp_path / "out.jsonl")]) == 2
        self.assert_one_line(capsys, "config error: ")


BAD_META = {"zero": "0", "false": "false", "empty-string": '""', "empty-list": "[]",
            "nan": '{"w": NaN}', "infinity": '{"w": Infinity}',
            "minus-infinity": '{"w": -Infinity}', "overflow": '{"w": 1e999}'}


class TestBadMeta:
    """A first record whose ``meta`` is not an object, or holds a number that
    is not finite, is a bad input: ``run`` exits 1, ``apply`` and ``sample``
    exit 2, each with one line naming line 1; nothing is written back."""

    @pytest.fixture(params=sorted(BAD_META))
    def bad_corpus(self, request, tmp_path, corpus_path):
        path = tmp_path / "meta.jsonl"
        bad = '{"id": "bad", "question": "q", "answer": "a", "meta": %s}' % BAD_META[request.param]
        path.write_text(bad + "\n" + corpus_path.read_text(encoding="utf-8"), encoding="utf-8")
        return path

    def assert_one_line(self, capsys, prefix):
        err = capsys.readouterr().err
        assert err.startswith(prefix + "line 1: sample 'bad': meta ")
        assert len(err.splitlines()) == 1

    def test_run_exits_1(self, tmp_path, bad_corpus, capsys):
        config = write_config(tmp_path, bad_corpus)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
        self.assert_one_line(capsys, "run failed: ")
        assert not (tmp_path / "run" / "final_dataset.jsonl").exists()

    def test_apply_exits_2(self, tmp_path, bad_corpus, capsys):
        assert main(["apply", "--strategy", "NONE", "--input", str(bad_corpus),
                     "--output", str(tmp_path / "out.jsonl")]) == 2
        self.assert_one_line(capsys, "config error: ")
        assert not (tmp_path / "out.jsonl").exists()

    def test_sample_exits_2(self, tmp_path, bad_corpus, capsys):
        assert main(["sample", "--input", str(bad_corpus),
                     "--output", str(tmp_path / "out.jsonl")]) == 2
        self.assert_one_line(capsys, "config error: ")
        assert not (tmp_path / "out.jsonl").exists()


class TestInvalidUtf8:
    """Bytes that are not valid UTF-8 are a bad input, never a traceback: a
    dataset fails ``run`` with exit 1 and ``apply`` and ``sample`` with exit 2,
    a config fails ``run`` with exit 2, and a cached ``data.jsonl`` is a
    corrupt entry."""

    @pytest.fixture
    def bad_corpus(self, tmp_path, corpus_path):
        path = tmp_path / "bad-bytes.jsonl"
        path.write_bytes(corpus_path.read_bytes() + b"\xff\n")
        return path

    @pytest.fixture
    def bad_line(self, corpus_path):
        """Where the message must point: the line after the corpus's last."""
        return "line %d: " % (corpus_path.read_bytes().count(b"\n") + 1)

    def assert_one_line(self, capsys, prefix, line=""):
        err = capsys.readouterr().err
        assert err.startswith(prefix + "cannot read ")
        assert "0xff" in err
        assert line in err
        assert len(err.splitlines()) == 1

    def corrupt_cache(self, run_dir):
        data_files = sorted((run_dir / "cache").glob("entries/*/data.jsonl"))
        assert data_files
        for path in data_files:
            path.write_bytes(path.read_bytes() + b"\xff")

    def test_run_exits_1(self, tmp_path, bad_corpus, bad_line, capsys):
        config = write_config(tmp_path, bad_corpus)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
        self.assert_one_line(capsys, "run failed: ", bad_line)

    def test_apply_exits_2(self, tmp_path, bad_corpus, bad_line, capsys):
        assert main(["apply", "--strategy", "Cleaning", "--input", str(bad_corpus),
                     "--output", str(tmp_path / "out.jsonl")]) == 2
        self.assert_one_line(capsys, "config error: ", bad_line)

    def test_sample_exits_2(self, tmp_path, bad_corpus, bad_line, capsys):
        assert main(["sample", "--input", str(bad_corpus),
                     "--output", str(tmp_path / "out.jsonl")]) == 2
        self.assert_one_line(capsys, "config error: ", bad_line)

    def test_run_config_exits_2(self, tmp_path, corpus_path, capsys):
        config = write_config(tmp_path, corpus_path)
        config.write_bytes(config.read_bytes() + b"\xff")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
        self.assert_one_line(capsys, "config error: ")

    def test_run_recomputes_corrupt_cache_entry(self, tmp_path, corpus_path, capsys, caplog):
        config = write_config(tmp_path, corpus_path)
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(config), "--out", str(run_dir)]) == 0
        first = (run_dir / "final_dataset.jsonl").read_bytes()
        self.corrupt_cache(run_dir)
        with caplog.at_level(logging.WARNING, logger="pipecraft.cache"):
            assert main(["run", "--config", str(config), "--out", str(run_dir)]) == 0
        assert "evicting corrupt cache entry" in caplog.text
        assert (run_dir / "final_dataset.jsonl").read_bytes() == first

    def test_cache_verify_counts_mismatch(self, tmp_path, corpus_path, capsys):
        config = write_config(tmp_path, corpus_path)
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(config), "--out", str(run_dir)]) == 0
        self.corrupt_cache(run_dir)
        entries = len(list((run_dir / "cache").glob("entries/*/meta.json")))
        assert main(["cache", "verify", "--cache-dir", str(run_dir / "cache")]) == 1
        assert capsys.readouterr().out.count("mismatch:") == entries


class TestEnvironmentEndpoints:
    """``apply`` and ``sample`` read the endpoint variables, as ``run`` does.
    Every HTTP call is refused here without touching the network."""

    @pytest.fixture(autouse=True)
    def refused(self, monkeypatch):
        for var in (ENV_AGENT_ENDPOINT, ENV_EMBEDDER_ENDPOINT, ENV_SCREENER_ENDPOINT,
                    ENV_TRAINER_ENDPOINT, ENV_CACHE_ROOT):
            monkeypatch.delenv(var, raising=False)

        def refuse(endpoint, payload):
            raise OSError(f"connection refused: {endpoint}")

        monkeypatch.setattr(clients, "post_json", refuse)

    def test_sample_uses_embedder_variable(self, tmp_path, corpus_path, capsys, monkeypatch):
        monkeypatch.setenv(ENV_EMBEDDER_ENDPOINT, "http://embedder.env/embed")
        out = tmp_path / "subset.jsonl"
        assert main(["sample", "--input", str(corpus_path), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sample failed: ") and "http://embedder.env/embed" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_apply_uses_screener_variable(self, tmp_path, corpus_path, caplog, monkeypatch):
        monkeypatch.setenv(ENV_SCREENER_ENDPOINT, "http://screener.env/classify")
        with caplog.at_level(logging.WARNING, logger="pipecraft.screener"):
            assert main(["apply", "--strategy", "Optimization", "--input", str(corpus_path),
                         "--output", str(tmp_path / "out.jsonl")]) == 0
        assert "remote screener failed" in caplog.text
        assert "http://screener.env/classify" in caplog.text


# JSON-object bodies that lack each role's field or give it a wrong type or value
BODY_FAILURES = {
    "agent": {"empty": b"{}", "int-content": b'{"content": 5}'},
    "embedder": {"empty": b"{}", "nan": b'{"vector": [NaN, 1.0]}',
                 "bools": b'{"vector": [true, false]}', "string": b'{"vector": "12"}'},
    "screener": {"empty": b"{}", "two": b'{"label": 2}', "bool": b'{"label": true}',
                 "float": b'{"label": 1.0}'},
    "trainer": {"empty": b"{}", "nan": b'{"score": NaN}', "above-one": b'{"score": 1.5}',
                "bool": b'{"score": true}'},
}


class TestBadResponseBody:
    """An endpoint answering with a body that is not a JSON object, or an
    object without a valid field for its role, not answering in HTTP, or
    cutting its body short fails like any other client: the agent and the embedder end the run with one line, the
    trainer's baseline failure too, and the screener falls back to its
    heuristic. ``urlopen`` is replaced, so no request leaves the process."""

    HTTP_FAILURES = {
        "bad-status-line": answer_not_in_http,
        "incomplete-read": lambda request, timeout: CutShortResponse(b'{"content": "Cle'),
    }
    # (role, command, exit code, stderr prefix): each command that calls the
    # role's client; a prefix of None is the screener's counted fallback
    HTTP_FAILURE_CASES = [
        ("agent", "run", 1, "run failed: agent client failed: "),
        ("embedder", "run", 1, "run failed: sampling failed: "),
        ("embedder", "sample", 1, "sample failed: "),
        ("trainer", "run", 1, "run failed: baseline evaluation failed: trainer failed: "),
        ("screener", "run", 0, None),
        ("screener", "sample", 0, None),
        ("screener", "apply", 0, None),
    ]

    @pytest.fixture(autouse=True)
    def no_env_endpoints(self, monkeypatch):
        for var in (ENV_AGENT_ENDPOINT, ENV_EMBEDDER_ENDPOINT, ENV_SCREENER_ENDPOINT,
                    ENV_TRAINER_ENDPOINT, ENV_CACHE_ROOT):
            monkeypatch.delenv(var, raising=False)

    def run(self, tmp_path, corpus_path, monkeypatch, body, **overrides):
        monkeypatch.setattr(urllib.request, "urlopen",
                            lambda request, timeout: CannedResponse(body))
        config = write_config(tmp_path, corpus_path, **overrides)
        return main(["run", "--config", str(config), "--out", str(tmp_path / "run")])

    def assert_one_line(self, capsys, prefix):
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("body", [b"[]", b"<html>busy</html>", b"\xff\xfe"],
                             ids=["list", "html", "not-utf8"])
    def test_agent_exits_1(self, tmp_path, corpus_path, capsys, monkeypatch, body):
        assert self.run(tmp_path, corpus_path, monkeypatch, body,
                        endpoints={"agent": "http://agent.test/complete"}) == 1
        self.assert_one_line(capsys, "run failed: agent client failed: ")

    def test_embedder_exits_1(self, tmp_path, corpus_path, capsys, monkeypatch):
        assert self.run(tmp_path, corpus_path, monkeypatch, b"[]",
                        endpoints={"embedder": "http://embedder.test/embed"}) == 1
        self.assert_one_line(capsys, "run failed: sampling failed: ")

    def test_trainer_exits_1(self, tmp_path, corpus_path, capsys, monkeypatch):
        assert self.run(tmp_path, corpus_path, monkeypatch, b"[]",
                        evaluation={"mode": "trainer"},
                        endpoints={"trainer": "http://trainer.test/evaluate"}) == 1
        self.assert_one_line(capsys, "run failed: baseline evaluation failed: trainer failed: ")

    def test_screener_falls_back(self, tmp_path, corpus_path, caplog, monkeypatch):
        with caplog.at_level(logging.WARNING, logger="pipecraft.screener"):
            assert self.run(tmp_path, corpus_path, monkeypatch, b"[]",
                            endpoints={"screener": "http://screener.test/classify"}) == 0
        assert "remote screener failed" in caplog.text

    # each body-level failure of the role, through each command above
    BODY_FAILURE_CASES = [pytest.param(body, role, command, code, prefix,
                                       id=f"{role}-{command}-{name}")
                          for role, command, code, prefix in HTTP_FAILURE_CASES
                          for name, body in BODY_FAILURES[role].items()]

    def assert_ends_cleanly(self, tmp_path, corpus_path, capsys, caplog, monkeypatch,
                            role, command, code, prefix):
        """Run ``command`` with ``role``'s endpoint set, ``urlopen`` already
        replaced: the run ends in ``code`` with one stderr line starting with
        ``prefix``, or in the screener's counted fallback. Returns what reported the
        failure: that line, or the screener's log."""
        monkeypatch.setenv(ENDPOINT_VARIABLES[role], f"http://{role}.test/endpoint")
        overrides = {"evaluation": {"mode": "trainer"}} if role == "trainer" else {}
        config = write_config(tmp_path, corpus_path, **overrides)
        argv = {
            "run": ["run", "--config", str(config), "--out", str(tmp_path / "run")],
            "apply": ["apply", "--strategy", "Optimization", "--input", str(corpus_path),
                      "--output", str(tmp_path / "out.jsonl")],
            "sample": ["sample", "--input", str(corpus_path),
                       "--output", str(tmp_path / "subset.jsonl")],
        }[command]
        with caplog.at_level(logging.WARNING, logger="pipecraft.screener"):
            assert main(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if prefix is None:
            assert "remote screener failed" in caplog.text
            assert "the heuristic screened them" in caplog.text  # the fallbacks are counted
            return caplog.text
        assert err.startswith(prefix)
        assert len(err.splitlines()) == 1
        return err

    @pytest.mark.parametrize("failure", sorted(HTTP_FAILURES))
    @pytest.mark.parametrize("role, command, code, prefix", HTTP_FAILURE_CASES,
                             ids=[f"{role}-{command}" for role, command, *_ in HTTP_FAILURE_CASES])
    def test_http_failure_ends_cleanly(self, tmp_path, corpus_path, capsys, caplog, monkeypatch,
                                       failure, role, command, code, prefix):
        monkeypatch.setattr(urllib.request, "urlopen", self.HTTP_FAILURES[failure])
        report = self.assert_ends_cleanly(tmp_path, corpus_path, capsys, caplog, monkeypatch,
                                          role, command, code, prefix)
        assert f"http://{role}.test/endpoint" in report

    @pytest.mark.parametrize("body, role, command, code, prefix", BODY_FAILURE_CASES)
    def test_bad_field_ends_cleanly(self, tmp_path, corpus_path, capsys, caplog, monkeypatch,
                                    body, role, command, code, prefix):
        monkeypatch.setattr(urllib.request, "urlopen",
                            lambda request, timeout: CannedResponse(body))
        report = self.assert_ends_cleanly(tmp_path, corpus_path, capsys, caplog, monkeypatch,
                                          role, command, code, prefix)
        assert f"http://{role}.test/endpoint" in report

    @pytest.mark.parametrize("endpoint", ["notaurl", "http://agent.test:port/complete"],
                             ids=["no-scheme", "bad-port"])
    def test_malformed_agent_url_is_config_error(self, tmp_path, corpus_path, capsys,
                                                 monkeypatch, endpoint):
        """The URL is refused when the config is read, before any client is
        built or any connection is made."""
        monkeypatch.setattr(urllib.request, "urlopen", open_without_connecting)
        monkeypatch.setenv(ENV_AGENT_ENDPOINT, endpoint)
        config = write_config(tmp_path, corpus_path)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {ENV_AGENT_ENDPOINT} ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "run").exists()


ENDPOINT_VARIABLES = {"agent": ENV_AGENT_ENDPOINT, "embedder": ENV_EMBEDDER_ENDPOINT,
                      "screener": ENV_SCREENER_ENDPOINT, "trainer": ENV_TRAINER_ENDPOINT}


class TestEndpointUrls:
    """Each endpoint, from its variable or its config field, must be an
    ``http`` or ``https`` URL with a host, and a numeric port if it gives
    one. Any other value stops every subcommand that reads it with exit 2
    and one ``config error:`` line naming where the value came from.
    ``urlopen`` is replaced, so no request leaves the process."""

    BAD = ["notaurl", "ftp://h/x", "http://", "http://h:port/"]

    @pytest.fixture(autouse=True)
    def no_connection(self, monkeypatch):
        for var in (*ENDPOINT_VARIABLES.values(), ENV_CACHE_ROOT):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setattr(urllib.request, "urlopen", open_without_connecting)

    def commands(self, tmp_path, corpus_path, **overrides):
        config = write_config(tmp_path, corpus_path, **overrides)
        return {
            "run": ["run", "--config", str(config), "--out", str(tmp_path / "run")],
            "apply": ["apply", "--strategy", "Cleaning", "--input", str(corpus_path),
                      "--output", str(tmp_path / "out.jsonl")],
            "sample": ["sample", "--input", str(corpus_path),
                       "--output", str(tmp_path / "subset.jsonl")],
        }

    def assert_config_error(self, tmp_path, capsys, argv, where):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {where} "), err
        assert len(err.splitlines()) == 1
        assert not any((tmp_path / name).exists()
                       for name in ("run", "out.jsonl", "subset.jsonl"))

    @pytest.mark.parametrize("url", BAD)
    @pytest.mark.parametrize("role", sorted(ENDPOINT_VARIABLES))
    def test_variable_is_checked_by_every_subcommand(self, tmp_path, corpus_path, capsys,
                                                     monkeypatch, role, url):
        monkeypatch.setenv(ENDPOINT_VARIABLES[role], url)
        for argv in self.commands(tmp_path, corpus_path).values():
            self.assert_config_error(tmp_path, capsys, argv, ENDPOINT_VARIABLES[role])

    @pytest.mark.parametrize("url", BAD)
    @pytest.mark.parametrize("role", sorted(ENDPOINT_VARIABLES))
    def test_config_field_is_checked(self, tmp_path, corpus_path, capsys, role, url):
        argv = self.commands(tmp_path, corpus_path, endpoints={role: url})["run"]
        self.assert_config_error(tmp_path, capsys, argv, f"config.endpoints.{role}")

    @pytest.mark.parametrize("url", ["http://h", "https://h:8443/v1/complete",
                                     "http://[::1]:80/x", "http://10.0.0.2/"])
    def test_usable_urls_pass(self, monkeypatch, url):
        for var in ENDPOINT_VARIABLES.values():
            monkeypatch.setenv(var, url)
        endpoints = run_config_from({"endpoints": {"agent": "http://other"}}).endpoints
        assert {name: getattr(endpoints, name) for name in ENDPOINT_VARIABLES} == dict.fromkeys(
            ENDPOINT_VARIABLES, url)

    def test_empty_value_leaves_the_endpoint_unset(self, monkeypatch):
        monkeypatch.setenv(ENV_AGENT_ENDPOINT, "")
        assert run_config_from({}).endpoints.agent == ""


class TestModelRequestsEvent:
    """After the final processing a run appends one ``model-requests`` event:
    what each model client sent, answered from its memo and lost, and what
    the screener classified and how often it fell back to its heuristic."""

    @pytest.fixture(autouse=True)
    def no_env_endpoints(self, monkeypatch):
        for var in (*ENDPOINT_VARIABLES.values(), ENV_CACHE_ROOT):
            monkeypatch.delenv(var, raising=False)

    def run(self, tmp_path, corpus_path, monkeypatch, **overrides):
        contexts = []
        build_context = cli.build_context

        def probe(*args, **kwargs):
            contexts.append(build_context(*args, **kwargs))
            return contexts[-1]

        monkeypatch.setattr(cli, "build_context", probe)
        config = write_config(tmp_path, corpus_path, **overrides)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
        records = [json.loads(line) for line in
                   (tmp_path / "run" / "run_log.jsonl").read_text(encoding="utf-8").splitlines()]
        (event,) = [record for record in records if record["event"] == "model-requests"]
        assert records[-1] is event
        (context,) = contexts
        return context, event

    def test_default_run(self, tmp_path, corpus_path, monkeypatch, capsys):
        context, event = self.run(tmp_path, corpus_path, monkeypatch)
        for role in ("optimizer", "generator", "scorer"):
            client = getattr(context, role)
            assert event[role] == {"sent": client.calls, "reused": client.reused,
                                   "failed": client.failed}
        assert event["scorer"]["sent"] > 0 and event["scorer"]["reused"] > 0
        assert event["screener"] == {"classified": context.screener.classify_calls,
                                     "remote_fallbacks": 0}

    def test_failing_screener_warns_once_with_the_total(self, tmp_path, corpus_path,
                                                        monkeypatch, caplog, capsys):
        attempts = []

        def refuse(request, timeout):
            attempts.append(request.full_url)
            raise OSError("connection refused")

        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        with caplog.at_level(logging.WARNING):
            context, event = self.run(tmp_path, corpus_path, monkeypatch,
                                      endpoints={"screener": "http://screener.test/classify"})
        assert len(attempts) == 3  # then the screener stops calling the endpoint
        classified = context.screener.classify_calls
        assert classified > 3
        assert event["screener"] == {"classified": classified, "remote_fallbacks": classified}
        fallbacks = [record.getMessage() for record in caplog.records
                     if "remote screener failed" in record.getMessage()]
        assert len(fallbacks) == 2
        assert "connection refused" in fallbacks[0]
        assert f"failed on {classified} of {classified} samples" in fallbacks[1]


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

    def test_rewritten_data_file_is_a_mismatch(self, tmp_path, corpus_path, capsys, caplog):
        """Each ``data.jsonl`` rewritten as the same records in other JSON
        still parses, but is not the bytes its fingerprint covers: ``verify``
        flags it, and a warm run evicts and recomputes it into the same final
        dataset."""
        cache_dir = self._run_once(tmp_path, corpus_path)
        final = tmp_path / "run" / "final_dataset.jsonl"
        first = final.read_bytes()
        data_files = sorted(cache_dir.glob("entries/*/data.jsonl"))
        for path in data_files:
            raw = path.read_bytes()
            records = [json.loads(line) for line in raw.decode("utf-8").split("\n") if line]
            path.write_text("".join(json.dumps(record) + "\n" for record in records),
                            encoding="utf-8")
            assert path.read_bytes() != raw
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 1
        assert capsys.readouterr().out.count("mismatch:") == len(data_files)
        with caplog.at_level(logging.WARNING, logger="pipecraft.cache"):
            self._run_once(tmp_path, corpus_path)
        assert "evicting corrupt cache entry" in caplog.text
        assert final.read_bytes() == first

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

    @pytest.mark.parametrize("command", ["stats", "verify", "prune"])
    def test_cache_command_on_missing_root_creates_nothing(self, tmp_path, capsys, command):
        root = tmp_path / "nonexist" / "typo"
        assert main(["cache", command, "--cache-dir", str(root)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cache error:") and err.count("\n") == 1
        assert not (tmp_path / "nonexist").exists()

    @pytest.mark.parametrize("command", ["stats", "verify", "prune"])
    def test_cache_command_on_directory_that_is_not_a_cache_writes_nothing(self, tmp_path,
                                                                           capsys, command):
        root = tmp_path / "empty"
        root.mkdir()
        assert main(["cache", command, "--cache-dir", str(root)]) == 1
        err = capsys.readouterr().err
        assert err == f"cache error: {root} is not a cache directory\n"
        assert list(root.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [("--max-entries", "-1"), ("--max-age-days", "-1"),
                                             ("--max-age-days", "nan"),
                                             ("--max-age-days", "inf")])
    def test_prune_rejects_negative_or_non_finite_limit(self, tmp_path, corpus_path, capsys,
                                                         flag, value):
        root = tmp_path / "cache"
        assert main(["apply", "--strategy", "Cleaning -> Selection", "--input", str(corpus_path),
                     "--output", str(tmp_path / "out.jsonl"), "--cache-dir", str(root)]) == 0
        before = sorted(root.rglob("*"))
        assert len(list(root.glob("entries/*/meta.json"))) == 2
        capsys.readouterr()
        assert main(["cache", "prune", "--cache-dir", str(root), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert sorted(root.rglob("*")) == before

    def test_entry_naming_a_file_outside_the_root_is_ignored(self, tmp_path, corpus_path,
                                                            capsys):
        root = tmp_path / "shared" / "cache"
        config = write_config(tmp_path, corpus_path, cache_root=str(root))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "first")]) == 0
        expected = (tmp_path / "first" / "final_dataset.jsonl").read_bytes()
        victim = tmp_path / "victim"
        victim.mkdir()
        for name in ("meta.json", "data.jsonl"):
            (victim / name).write_text("keep\n", encoding="utf-8")
        metas = sorted(root.glob("entries/*/meta.json"))
        assert metas
        for meta_path in metas:  # root/../../victim is tmp_path/victim
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            meta["storage_path"] = "../../victim/data.jsonl"
            meta_path.write_text(json.dumps(meta), encoding="utf-8")

        def victim_intact() -> bool:
            return all((victim / name).read_text(encoding="utf-8") == "keep\n"
                       for name in ("meta.json", "data.jsonl"))

        assert main(["cache", "verify", "--cache-dir", str(root)]) == 0
        assert victim_intact()
        assert main(["cache", "prune", "--cache-dir", str(root), "--max-entries", "0"]) == 0
        assert victim_intact()
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "second")]) == 0
        assert victim_intact()
        assert (tmp_path / "second" / "final_dataset.jsonl").read_bytes() == expected

    @pytest.mark.parametrize("command", ["run", "apply", "prune"])
    def test_symlinked_lock_is_refused(self, tmp_path, corpus_path, capsys, command):
        """A ``.lock`` planted as a symlink, dangling into a directory outside
        the root, is never opened, so the lock creates no file there."""
        root, outside = tmp_path / "cache", tmp_path / "outside"
        (root / "entries").mkdir(parents=True)
        outside.mkdir()
        (root / ".lock").symlink_to(outside / "victim_lock")
        config = write_config(tmp_path, corpus_path, cache_root=str(root))
        argv = {
            "run": ["run", "--config", str(config), "--out", str(tmp_path / "run")],
            "apply": ["apply", "--strategy", "Cleaning", "--input", str(corpus_path),
                      "--output", str(tmp_path / "out.jsonl"), "--cache-dir", str(root)],
            "prune": ["cache", "prune", "--cache-dir", str(root), "--max-entries", "5"],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "cannot open cache lock" in err and err.count("\n") == 1
        assert list(outside.iterdir()) == []
        assert (root / ".lock").is_symlink()
        assert list(root.glob("entries/*")) == []

    @pytest.mark.parametrize("command", ["run", "verify", "prune"])
    def test_symlinked_entries_directory_is_refused(self, tmp_path, corpus_path, capsys,
                                                    command):
        """An ``entries`` directory planted as a symlink would put every entry
        outside the root: the cache refuses to open, and the entries there
        are neither read nor pruned."""
        root = tmp_path / "cache"
        config = write_config(tmp_path, corpus_path, cache_root=str(root))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "first")]) == 0
        outside = tmp_path / "outside"
        (root / "entries").rename(outside)
        (root / "entries").symlink_to(outside, target_is_directory=True)
        kept = sorted(outside.rglob("*"))
        capsys.readouterr()
        argv = {
            "run": ["run", "--config", str(config), "--out", str(tmp_path / "second")],
            "verify": ["cache", "verify", "--cache-dir", str(root)],
            "prune": ["cache", "prune", "--cache-dir", str(root), "--max-entries", "0"],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "symlinked entries directory" in err and err.count("\n") == 1
        assert sorted(outside.rglob("*")) == kept

    def test_symlinked_entry_directory_is_skipped_and_replaced(self, tmp_path, corpus_path,
                                                              capsys):
        root = tmp_path / "shared" / "cache"
        config = write_config(tmp_path, corpus_path, cache_root=str(root))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "first")]) == 0
        expected = (tmp_path / "first" / "final_dataset.jsonl").read_bytes()
        entry_dir = sorted(root.glob("entries/*/meta.json"))[0].parent
        outside = tmp_path / "outside"
        entry_dir.rename(outside)
        entry_dir.symlink_to(outside, target_is_directory=True)
        kept = {path.name: path.read_bytes() for path in outside.iterdir()}
        assert set(kept) == {"meta.json", "data.jsonl"}

        def outside_intact() -> bool:
            return {path.name: path.read_bytes() for path in outside.iterdir()} == kept

        assert main(["cache", "prune", "--cache-dir", str(root), "--max-entries", "0"]) == 0
        assert outside_intact()
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "second")]) == 0
        assert outside_intact()
        assert not entry_dir.is_symlink() and (entry_dir / "meta.json").is_file()
        assert (tmp_path / "second" / "final_dataset.jsonl").read_bytes() == expected

    @staticmethod
    def symlink_outside(path, outside):
        """Move ``path`` to ``outside`` and leave a symlink to it in its
        place: the entry still reads the same bytes, from outside the root."""
        outside.parent.mkdir(parents=True, exist_ok=True)
        path.rename(outside)
        path.symlink_to(outside)
        return outside.read_bytes()

    def test_symlinked_data_file_fails_verify(self, tmp_path, corpus_path, capsys):
        root = tmp_path / "cache"
        config = write_config(tmp_path, corpus_path, cache_root=str(root))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
        metas = sorted(root.glob("entries/*/meta.json"))
        key = json.loads(metas[0].read_text(encoding="utf-8"))["key"]
        self.symlink_outside(metas[0].parent / "data.jsonl", tmp_path / "outside" / "data.jsonl")
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", str(root)]) == 1
        out = capsys.readouterr().out
        assert out.splitlines() == [f"mismatch: {key}",
                                    f"1 mismatch(es) in {len(metas)} entries"]

    def test_run_evicts_a_symlinked_data_file(self, tmp_path, corpus_path, capsys, caplog):
        root = tmp_path / "cache"
        config = write_config(tmp_path, corpus_path, cache_root=str(root))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "first")]) == 0
        expected = (tmp_path / "first" / "final_dataset.jsonl").read_bytes()
        data_files = sorted(root.glob("entries/*/data.jsonl"))
        outside = [tmp_path / "outside" / f"{index}.jsonl" for index in range(len(data_files))]
        kept = [self.symlink_outside(path, copy) for path, copy in zip(data_files, outside)]
        with caplog.at_level(logging.WARNING, logger="pipecraft.cache"):
            assert main(["run", "--config", str(config), "--out", str(tmp_path / "second")]) == 0
        assert "evicting corrupt cache entry" in caplog.text
        assert (tmp_path / "second" / "final_dataset.jsonl").read_bytes() == expected
        assert any(path.is_file() and not path.is_symlink() for path in data_files)
        assert [copy.read_bytes() for copy in outside] == kept

    def test_symlinked_meta_is_skipped(self, tmp_path, corpus_path, capsys, caplog):
        root = tmp_path / "cache"
        config = write_config(tmp_path, corpus_path, cache_root=str(root))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        meta = sorted(root.glob("entries/*/meta.json"))[0]
        kept = self.symlink_outside(meta, tmp_path / "outside" / "meta.json")
        with caplog.at_level(logging.WARNING, logger="pipecraft.cache"):
            assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == entries - 1
        assert "skipping unreadable cache entry" in caplog.text
        assert (tmp_path / "outside" / "meta.json").read_bytes() == kept

    def test_prune_while_locked_exits_1(self, tmp_path, capsys):
        root = tmp_path / "cache"
        (root / "entries").mkdir(parents=True)
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

    @pytest.mark.parametrize("body", ["{not json", "[]", "{}", '{"seed": 1}', "\xff"])
    def test_unrenderable_report_is_config_error(self, tmp_path, capsys, body):
        (tmp_path / "report.json").write_bytes(body.encode("latin-1"))
        assert main(["report", "--run-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read report")
        assert len(err.splitlines()) == 1
