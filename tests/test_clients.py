from __future__ import annotations

import os
import random
import subprocess
import sys
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from pipecraft import clients
from pipecraft.clients import (
    ClientError,
    HashingEmbedder,
    HeuristicScorer,
    HttpAgentClient,
    HttpEmbeddingClient,
    HttpModelClient,
    HttpScreenerClient,
    HttpTrainerClient,
    NormalizingOptimizer,
    TemplateGenerator,
    normalize_text,
)
from pipecraft.synthetic import messy_corpus
from pipecraft.textstats import clean_text, clear_run_memos, is_allowed_char
from tests.conftest import copies_corpus, random_unicode, window_hash_int
from tests.scripted_clients import (
    CannedResponse,
    ConstantScorer,
    ScriptedModelClient,
    open_without_connecting,
)


class FlakyClient(ScriptedModelClient):
    """Fails a fixed number of times before succeeding."""

    def __init__(self, failures: int):
        super().__init__("optimizer", lambda req: {"text": "ok", "status": "ok"})
        self.failures = failures
        self.attempts = 0

    def _do_complete(self, request):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise RuntimeError("transient")
        return super()._do_complete(request)


class TestRetry:
    def test_succeeds_after_two_failures(self):
        client = FlakyClient(failures=2)
        response = client.complete({"role": "optimizer", "mode": "question", "text": "x"})
        assert response["text"] == "ok"
        assert client.attempts == 3

    def test_gives_up_after_retries_exhausted(self):
        client = FlakyClient(failures=10)
        with pytest.raises(ClientError):
            client.complete({"role": "optimizer", "mode": "question", "text": "x"})
        assert client.attempts == 3  # initial try + two retries

    def test_bad_status_is_failure(self):
        client = ScriptedModelClient("scorer", lambda req: {"status": "overloaded"})
        with pytest.raises(ClientError):
            client.complete({"role": "scorer"})


class TestDefaults:
    def test_normalizing_optimizer(self):
        client = NormalizingOptimizer()
        out = client.complete(
            {"role": "optimizer", "mode": "answer", "text": "  spaced <b>out</b>  ## "}
        )
        assert out["text"] == "spaced out"

    def test_normalize_text_drops_disallowed(self):
        assert normalize_text("abc ### def") == "abc def"
        assert normalize_text("fine, text!") == "fine, text!"

    def test_template_generator_modes(self):
        client = TemplateGenerator()
        answer_out = client.complete(
            {
                "role": "generator",
                "mode": "answer",
                "question": "what about fevers",
                "answer": "",
                "shots": [{"question": "q", "answer": "a"}],
            }
        )
        assert "what about fevers" in answer_out["text"]
        question_out = client.complete(
            {
                "role": "generator",
                "mode": "question",
                "question": "",
                "answer": "rest and fluids",
                "shots": [],
            }
        )
        assert "rest and fluids" in question_out["text"]

    def test_generator_snippets_long_fields(self):
        client = TemplateGenerator()
        long_question = "word " * 100
        out = client.complete(
            {"role": "generator", "mode": "answer", "question": long_question,
             "answer": "", "shots": []}
        )
        assert len(out["text"].split()) < 40

    def test_heuristic_scorer_range_and_order(self):
        scorer = HeuristicScorer()
        good = scorer.complete(
            {"role": "scorer", "question": "w " * 30, "answer": "w x y z " * 10}
        )["score"]
        bad = scorer.complete({"role": "scorer", "question": "w", "answer": ""})["score"]
        assert 0.0 <= bad < good <= 1.0

    def test_constant_scorer(self):
        scorer = ConstantScorer(0.5)
        assert scorer.complete({"role": "scorer"})["score"] == 0.5


def ref_normalize_text(text: str) -> str:
    """``normalize_text`` as the per-character formula: one alphabet check
    for every character of the cleaned text."""
    return clean_text("".join(ch for ch in clean_text(text) if is_allowed_char(ch)))


class TestNormalizeText:
    """Dropping special characters through the translate table equals the
    per-character formula."""

    def test_matches_per_character_formula_on_random_unicode(self):
        rng = random.Random(17)
        # unassigned code points, in the BMP and in astral planes
        unassigned = "\u0378\u0380\U0001FFFE\U0003FFFF\U000E0080\U0010FFFF"
        texts = [random_unicode(rng, 80) for _ in range(500)]
        texts += [text + rng.choice(unassigned) + text[::-1] for text in texts[:100]]
        texts += ["", "###", unassigned, "fine, text!"]
        for text in texts:
            assert normalize_text(text) == ref_normalize_text(text), text

    @pytest.mark.usefixtures("restore_char_classes")
    def test_matches_per_character_formula_over_all_code_points(self):
        every = "".join(map(chr, range(0x110000)))
        for start in range(0, len(every), 1 << 12):
            chunk = every[start : start + (1 << 12)]
            assert normalize_text(chunk) == ref_normalize_text(chunk), hex(start)
        clear_run_memos()


class TestHashingEmbedder:
    def test_identical_text_identical_vector(self):
        embedder = HashingEmbedder()
        a = embedder.embed("same text")
        b = embedder.embed("same text")
        assert np.array_equal(a, b)

    def test_no_zero_norm_even_for_empty(self):
        embedder = HashingEmbedder()
        assert np.linalg.norm(embedder.embed("")) > 0

    def test_fixed_corpus_reproducible(self):
        embedder = HashingEmbedder(dimension=16)
        texts = ["one", "two", "three"]
        first = embedder.embed_many(texts)
        second = HashingEmbedder(dimension=16).embed_many(texts)
        assert np.array_equal(first, second)
        assert first.shape == (3, 16)


def reference_embed(text: str, dimension: int = 64) -> np.ndarray:
    """``HashingEmbedder.embed`` as a plain loop: each trigram of ``^text$``
    adds one to bucket ``window_hash_int(its code points) % (dimension - 1)``."""
    vec = np.zeros(dimension, dtype=np.float64)
    padded = f"^{text}$"
    for i in range(len(padded) - 2):
        vec[window_hash_int([ord(ch) for ch in padded[i : i + 3]]) % (dimension - 1)] += 1.0
    vec[dimension - 1] = 1.0
    return vec


def assert_embeds_like_reference(embedder: HashingEmbedder, texts) -> None:
    for text in texts:
        vector = embedder.embed(text)
        assert vector.dtype == np.float64
        assert np.array_equal(vector, reference_embed(text, embedder.dimension)), text


class TestHashingEmbedderExactness:
    """Hashing every trigram at once and counting with bincount change no
    vector: each equals the reference loop exactly."""

    @pytest.mark.parametrize("dimension", [2, 16, 64])
    def test_random_unicode(self, dimension):
        rng = random.Random(dimension)
        texts = ["", "a", "ab", "\U0001F600"] + [random_unicode(rng, 60) for _ in range(300)]
        assert_embeds_like_reference(HashingEmbedder(dimension), texts * 2)

    def test_messy_and_copies_corpora(self):
        texts = [s.combined_text for seed in range(3) for s in messy_corpus(seed)]
        texts += [s.combined_text for s in copies_corpus()]
        assert_embeds_like_reference(HashingEmbedder(), texts)

    @pytest.mark.parametrize("workload", ["replicated-2k", "distinct-3k"])
    def test_bench_corpora(self, bench_corpora, workload):
        texts = [s.combined_text for s in bench_corpora[workload]]
        assert_embeds_like_reference(HashingEmbedder(), texts)


class TestWireContracts:
    """The HTTP clients speak the documented JSON shapes."""

    def _capture(self, monkeypatch, response):
        seen = {}

        def fake_post(endpoint, payload):
            seen["endpoint"] = endpoint
            seen["payload"] = payload
            return response

        monkeypatch.setattr(clients, "post_json", fake_post)
        return seen

    def test_model_client(self, monkeypatch):
        seen = self._capture(monkeypatch, {"text": "better", "status": "ok"})
        client = HttpModelClient("optimizer", "http://svc/optimize")
        out = client.complete(
            {"role": "optimizer", "mode": "question", "text": "raw", "seed": 3}
        )
        assert out["text"] == "better"
        assert seen["payload"] == {
            "role": "optimizer", "mode": "question", "text": "raw", "seed": 3
        }

    def test_embedding_client(self, monkeypatch):
        seen = self._capture(monkeypatch, {"vector": [1.0, 2.0, 3.0]})
        client = HttpEmbeddingClient("http://svc/embed")
        vec = client.embed("hello")
        assert seen["payload"] == {"text": "hello"}
        assert vec.tolist() == [1.0, 2.0, 3.0]
        assert client.dimension == 3

    def test_embedding_dimension_mismatch(self, monkeypatch):
        """The first vector sets the dimension; a later one of another length
        is refused."""
        self._capture(monkeypatch, {"vector": [1.0, 2.0, 3.0]})
        client = HttpEmbeddingClient("http://svc/embed")
        client.embed("first")
        self._capture(monkeypatch, {"vector": [1.0]})
        with pytest.raises(ClientError, match="not the 3 of its first vector"):
            client.embed("second")
        assert client.dimension == 3

    @pytest.mark.parametrize("vector", [[], [[1.0, 2.0], [3.0, 4.0]], 1.0],
                             ids=["empty", "2-D", "scalar"])
    def test_embedding_that_is_not_a_vector(self, monkeypatch, vector):
        self._capture(monkeypatch, {"vector": vector})
        client = HttpEmbeddingClient("http://svc/embed")
        with pytest.raises(ClientError, match="not a vector"):
            client.embed("hello")
        assert client.dimension == 0

    def test_screener_client(self, monkeypatch):
        seen = self._capture(monkeypatch, {"label": 1})
        client = HttpScreenerClient("http://svc/screen")
        assert client.classify("q", "a") == 1
        assert seen["payload"] == {"question": "q", "answer": "a"}

    def test_screener_bad_label(self, monkeypatch):
        self._capture(monkeypatch, {"label": 7})
        client = HttpScreenerClient("http://svc/screen")
        with pytest.raises(ClientError):
            client.classify("q", "a")

    def test_trainer_client(self, monkeypatch):
        seen = self._capture(monkeypatch, {"score": 0.73})
        client = HttpTrainerClient("http://svc/train")
        score = client.evaluate("/data/d.jsonl", "base-model", 3, "val-1")
        assert score == 0.73
        assert seen["payload"] == {
            "dataset": "/data/d.jsonl",
            "base_model": "base-model",
            "epochs": 3,
            "validation_set": "val-1",
        }

    def test_trainer_out_of_range(self, monkeypatch):
        self._capture(monkeypatch, {"score": 1.5})
        client = HttpTrainerClient("http://svc/train")
        with pytest.raises(ClientError):
            client.evaluate("/d", "m", 1, "v")

    def test_agent_client(self, monkeypatch):
        seen = self._capture(monkeypatch, {"content": "###Combination[1]###"})
        client = HttpAgentClient("http://svc/agent")
        messages = [{"role": "user", "content": "prompt"}]
        reply = client.complete(messages, temperature=0.6, seed=4)
        assert reply == "###Combination[1]###"
        assert seen["payload"] == {"messages": messages, "temperature": 0.6, "seed": 4}


class TestPostJson:
    """``post_json`` returns the JSON object an endpoint answers with and
    raises ``ClientError`` for any other body. ``urlopen`` is replaced, so
    no request leaves the process."""

    def _answer(self, monkeypatch, body):
        seen = {}

        def fake_urlopen(request, timeout):
            seen["request"], seen["timeout"] = request, timeout
            return CannedResponse(body)

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        return seen

    def test_object_body_is_returned(self, monkeypatch):
        seen = self._answer(monkeypatch, b'{"label": 1}')
        assert clients.post_json("http://svc/screen", {"question": "q"}) == {"label": 1}
        assert seen["request"].data == b'{"question": "q"}'
        assert seen["timeout"] == clients.DEFAULT_TIMEOUT_S

    @pytest.mark.parametrize("body", [b"[]", b'"ok"', b"3", b"null"], ids=bytes.decode)
    def test_json_that_is_not_an_object(self, monkeypatch, body):
        self._answer(monkeypatch, body)
        with pytest.raises(ClientError, match="not an object"):
            clients.post_json("http://svc/screen", {})

    @pytest.mark.parametrize("body", [b"<html>busy</html>", b"", b"\xff\xfe{}"],
                             ids=["html", "empty", "not-utf8"])
    def test_body_that_is_not_json(self, monkeypatch, body):
        self._answer(monkeypatch, body)
        with pytest.raises(ClientError, match="not JSON"):
            clients.post_json("http://svc/screen", {})

    @pytest.mark.parametrize("endpoint, message", [
        ("notaurl", "unknown url type: 'notaurl'"),
        ("http://svc:port/screen", "nonnumeric port: 'port'"),
    ], ids=["no-scheme", "bad-port"])
    def test_malformed_url_is_client_error(self, monkeypatch, endpoint, message):
        """Building the request refuses a URL without a scheme; opening it
        refuses a port that is not a number while the connection object is
        made, before it connects (``urlopen`` stops there)."""
        monkeypatch.setattr(urllib.request, "urlopen", open_without_connecting)
        with pytest.raises(ClientError, match=message):
            clients.post_json(endpoint, {})

    def test_screener_client_sees_client_error(self, monkeypatch):
        self._answer(monkeypatch, b"[]")
        with pytest.raises(ClientError):
            HttpScreenerClient("http://svc/screen").classify("q", "a")


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this
    checkout's sources."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_importing_the_cli_loads_no_http_stack():
    """``urllib.request`` (and with it ``http.client`` and ``ssl``) is
    imported by ``post_json`` on first use, so a run with no endpoint
    configured never pays for it."""
    code = ("import sys, pipecraft.cli; "
            "print(sorted({'http.client', 'ssl', 'urllib.request'} & set(sys.modules)))")
    assert run_fresh(code) == "[]"


def test_importing_the_cli_classifies_no_character():
    """The character-class translate table is filled as texts are read, so
    importing does no work for it."""
    code = "import pipecraft.cli, pipecraft.textstats as t; print(len(t.ALLOWED_CHARS))"
    assert run_fresh(code) == "0"
