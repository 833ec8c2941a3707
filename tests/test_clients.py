from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from pipecraft import cli, clients
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
from pipecraft.config import (ENV_AGENT_ENDPOINT, ENV_CACHE_ROOT, ENV_EMBEDDER_ENDPOINT,
                              ENV_SCREENER_ENDPOINT, ENV_TRAINER_ENDPOINT)
from pipecraft.corpus import Sample, canonical_json, save_dataset
from pipecraft.operators import generate_missing, optimize_sample
from pipecraft.synthetic import messy_corpus
from pipecraft.textstats import clean_text, clear_run_memos, is_allowed_char
from tests.conftest import bench_corpora_module, copies_corpus, random_unicode, window_hash_int
from tests.scripted_clients import (
    CannedResponse,
    ConstantScorer,
    ScriptedModelClient,
    open_without_connecting,
)


OPTIMIZER_REQUEST = {"role": "optimizer", "question": "x", "answer": "y", "seed": 0}


class FlakyClient(ScriptedModelClient):
    """Fails a fixed number of times before succeeding."""

    def __init__(self, failures: int):
        super().__init__("optimizer", lambda req: dict(req, status="ok"))
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
        response = client.complete(OPTIMIZER_REQUEST)
        assert response["question"] == "x"
        assert client.attempts == 3

    def test_gives_up_after_retries_exhausted(self):
        client = FlakyClient(failures=10)
        with pytest.raises(ClientError):
            client.complete(OPTIMIZER_REQUEST)
        assert client.attempts == 3  # initial try + two retries

    def test_bad_status_is_failure(self):
        client = ScriptedModelClient("scorer", lambda req: {"status": "overloaded"})
        with pytest.raises(ClientError):
            client.complete({"role": "scorer"})


class TestReplyMemo:
    """``complete`` sends each distinct request once per client and answers a
    repeat from its memo; only a reply that passed its checks is stored."""

    REQUEST = {"role": "generator", "question": "q", "answer": "",
               "shots": [{"question": "sq", "answer": "sa"}], "seed": 3}
    REPLY = {"question": "q", "answer": "t", "status": "ok"}

    def recording(self, role="generator", reply=lambda req: TestReplyMemo.REPLY):
        sent = []

        def fn(request):
            sent.append(request)
            return reply(request)

        return ScriptedModelClient(role, fn), sent

    def test_identical_request_is_sent_once(self):
        client, sent = self.recording()
        first = client.complete(dict(self.REQUEST))
        again = client.complete(dict(self.REQUEST))
        assert again == first == self.REPLY
        assert sent == [self.REQUEST]
        assert (client.calls, client.reused, client.failed) == (1, 1, 0)

    @pytest.mark.parametrize("field, value", [
        ("seed", 4), ("seed", 3.0), ("seed", True), ("answer", "a"),
        ("shots", []), ("shots", [{"question": "sq", "answer": "sb"}]),
        ("shots", [{"question": "sq", "answer": "sa"}] * 2),
    ], ids=["seed", "seed-float", "seed-bool", "answer", "no-shots", "other-shot",
            "more-shots"])
    def test_request_differing_in_one_field_is_sent(self, field, value):
        client, sent = self.recording()
        client.complete(self.REQUEST)
        client.complete({**self.REQUEST, field: value})
        assert len(sent) == 2
        assert (client.calls, client.reused) == (2, 0)

    @pytest.mark.parametrize("bad_reply", [
        {**REPLY, "status": "overloaded"}, {"status": "ok"}, RuntimeError("down"),
    ], ids=["status", "no-text", "raises"])
    def test_failed_request_is_sent_again_and_can_succeed(self, bad_reply):
        replies = [bad_reply] * (ScriptedModelClient.max_retries + 1)
        replies.append(self.REPLY)

        def reply(request):
            answer = replies.pop(0)
            if isinstance(answer, Exception):
                raise answer
            return answer

        client, sent = self.recording(reply=reply)
        with pytest.raises(ClientError):
            client.complete(self.REQUEST)
        assert (client.calls, client.reused, client.failed) == (1, 0, 1)
        assert client.complete(self.REQUEST) == self.REPLY
        assert client.complete(self.REQUEST) == self.REPLY
        assert len(sent) == ScriptedModelClient.max_retries + 2
        assert (client.calls, client.reused, client.failed) == (2, 1, 1)

    def test_retried_success_is_stored(self):
        client = FlakyClient(failures=2)
        client.complete(OPTIMIZER_REQUEST)
        client.complete(OPTIMIZER_REQUEST)
        assert client.attempts == 3
        assert (client.calls, client.reused, client.failed) == (1, 1, 0)

    def test_clients_share_nothing(self):
        (one, sent_one), (two, sent_two) = self.recording(), self.recording()
        one.complete(self.REQUEST)
        two.complete(self.REQUEST)
        assert len(sent_one) == len(sent_two) == 1
        assert one.reused == two.reused == 0


def json_value(rng: random.Random, depth: int = 0):
    """A random value of the JSON types, drawn from few atoms so that equal
    and nearly equal values are common: ``1``, ``1.0`` and ``True``, ``0.0``
    and ``-0.0``, strings that look like other atoms."""
    atoms = [0, 1, -1, 1.0, 0.0, -0.0, 0.5, True, False, None, "", "1", "a", "true", "null",
             '"a"', "\u00e9", r"\u00e9"]
    roll = rng.random()
    if depth >= 3 or roll < 0.5:
        return rng.choice(atoms)
    if roll < 0.75:
        return [json_value(rng, depth + 1) for _ in range(rng.randrange(3))]
    keys = rng.sample(["a", "b", "1", "true"], rng.randrange(4))
    return {key: json_value(rng, depth + 1) for key in keys}


class TestRequestKey:
    """A request's memo key is its ``canonical_json`` text: two keys are equal
    exactly when the values' sorted JSON texts are."""

    def test_agrees_with_sorted_json_on_random_values(self):
        rng = random.Random(22)
        values = [json_value(rng) for _ in range(600)]
        values += [dict(reversed(list(v.items()))) for v in values if isinstance(v, dict)]
        texts = [json.dumps(v, sort_keys=True) for v in values]
        keys = [canonical_json(v) for v in values]
        equal_pairs = 0
        for i, j in itertools.combinations(range(len(values)), 2):
            assert (keys[i] == keys[j]) == (texts[i] == texts[j]), (values[i], values[j])
            equal_pairs += texts[i] == texts[j]
        assert equal_pairs > 1000  # the draw holds many equal values, not only unequal ones

    @pytest.mark.parametrize("one, other", [
        (1, 1.0), (1, True), (0, False), (0.0, -0.0), ("1", 1), (None, "null"), ([1], (1.0,)),
        ({"a": 1}, {"a": True}), ({1: "x"}, {True: "x"}), ({"1": [1]}, {"1": [[1]]}),
        ([[]], [{}]), (float("nan"), float("inf")),
    ])
    def test_python_equal_or_alike_json_unequal(self, one, other):
        assert json.dumps(one, sort_keys=True) != json.dumps(other, sort_keys=True)
        assert canonical_json(one) != canonical_json(other)

    @pytest.mark.parametrize("one, other", [
        ([1, 2], (1, 2)), ({1: "x"}, {"1": "x"}), ({"b": 1, "a": 2}, {"a": 2, "b": 1}),
        (float("nan"), float("nan")),
    ])
    def test_json_equal(self, one, other):
        assert json.dumps(one, sort_keys=True) == json.dumps(other, sort_keys=True)
        assert canonical_json(one) == canonical_json(other)

    def test_other_types_never_match_an_unequal_value(self):
        class Text(str):
            pass

        assert canonical_json(Text("a")) != canonical_json('"a"')
        assert canonical_json(Text("a")) == canonical_json(Text("a"))
        assert canonical_json({Text("a"): 1}) == canonical_json({"a": 1})


def test_no_request_reaches_a_model_twice_in_a_run(tmp_path, monkeypatch, capsys):
    """A search re-scores and re-processes the same samples under many
    strategies; each distinct request still reaches each model once, and
    every ``complete`` is either sent or reused."""
    for var in (ENV_AGENT_ENDPOINT, ENV_EMBEDDER_ENDPOINT, ENV_SCREENER_ENDPOINT,
                ENV_TRAINER_ENDPOINT, ENV_CACHE_ROOT):
        monkeypatch.delenv(var, raising=False)
    roles = ("optimizer", "generator", "scorer")
    sent = {role: [] for role in roles}
    completed = {role: 0 for role in roles}
    contexts = []
    build_context = cli.build_context

    def probe(*args, **kwargs):
        context = build_context(*args, **kwargs)
        for role in roles:
            client = getattr(context, role)

            def send(request, do=client._do_complete, role=role):
                sent[role].append(json.dumps(request, sort_keys=True))
                return do(request)

            def complete(request, complete=client.complete, role=role):
                completed[role] += 1
                return complete(request)

            client._do_complete, client.complete = send, complete
        contexts.append(context)
        return context

    monkeypatch.setattr(cli, "build_context", probe)
    save_dataset(bench_corpora_module().distinct(44, 600), tmp_path / "corpus.jsonl")
    config = {"dataset": str(tmp_path / "corpus.jsonl"), "seed": 0, "sampling_rate": 0.2}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["run", "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "run")]) == 0
    (context,) = contexts
    for role in roles:
        client = getattr(context, role)
        assert len(sent[role]) == len(set(sent[role])) == client.calls, role
        assert client.calls + client.reused == completed[role], role
        assert client.failed == 0
    assert context.scorer.reused > 0  # Selection re-scores samples across strategies


class TestDefaults:
    def test_normalizing_optimizer(self):
        client = NormalizingOptimizer()
        out = client.complete({"role": "optimizer", "question": "<i>why</i> ## ?",
                               "answer": "  spaced <b>out</b>  ## ", "seed": 0})
        assert out == {"question": "why ?", "answer": "spaced out", "status": "ok"}

    def test_normalize_text_drops_disallowed(self):
        assert normalize_text("abc ### def") == "abc def"
        assert normalize_text("fine, text!") == "fine, text!"

    def test_template_generator_modes(self):
        """Each empty field is filled and each present one echoed; with both
        empty, the answer quotes the question written first."""
        client = TemplateGenerator()
        answer_out = client.complete(
            {
                "role": "generator",
                "question": "what about fevers",
                "answer": "",
                "shots": [{"question": "q", "answer": "a"}],
            }
        )
        assert answer_out["question"] == "what about fevers"
        assert "1 reference examples: what about fevers" in answer_out["answer"]
        question_out = client.complete(
            {"role": "generator", "question": "", "answer": "rest and fluids", "shots": []}
        )
        assert "rest and fluids" in question_out["question"]
        assert question_out["answer"] == "rest and fluids"
        both_out = client.complete({"role": "generator", "question": "", "answer": "",
                                    "shots": []})
        assert both_out["question"].startswith("Considering the reference material")
        assert both_out["answer"].endswith(
            " ".join(both_out["question"].split()[:TemplateGenerator.snippet_tokens]))

    def test_generator_snippets_long_fields(self):
        client = TemplateGenerator()
        long_question = "word " * 100
        out = client.complete(
            {"role": "generator", "question": long_question, "answer": "", "shots": []}
        )
        assert len(out["answer"].split()) < 40

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
        """The operator's one request per sample is the body posted, and the
        reply's ``question`` and ``answer`` are what the sample takes."""
        seen = self._capture(monkeypatch,
                             {"question": "better q", "answer": "better a", "status": "ok"})
        client = HttpModelClient("optimizer", "http://svc/optimize")
        out = optimize_sample(Sample(id="x", question="raw q", answer="raw a"), client, seed=3)
        assert (out.question, out.answer) == ("better q", "better a")
        assert seen == {"endpoint": "http://svc/optimize", "payload": {
            "role": "optimizer", "question": "raw q", "answer": "raw a", "seed": 3}}

    def test_generator_model_client(self, monkeypatch):
        seen = self._capture(monkeypatch, {"question": "q", "answer": "filled", "status": "ok"})
        client = HttpModelClient("generator", "http://svc/generate")
        shots = [Sample(id="s", question="sq", answer="sa")]
        out = generate_missing(Sample(id="x", question="q", answer=""), shots, client, seed=3)
        assert out.answer == "filled"
        assert seen["payload"] == {"role": "generator", "question": "q", "answer": "",
                                   "shots": [{"question": "sq", "answer": "sa"}], "seed": 3}

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


class TestStrictReplies:
    """The remote screener answers with the integer 0 or 1, the trainer
    with a real number in [0, 1] and the embedder with a list of finite
    numbers, checked as strictly as the scorer's reply; any other body is a
    ``ClientError``. ``urlopen`` is replaced, so no request leaves the
    process."""

    def answer(self, monkeypatch, body: bytes):
        monkeypatch.setattr(urllib.request, "urlopen",
                            lambda request, timeout: CannedResponse(body))

    @pytest.mark.parametrize("body, label", [(b'{"label": 0}', 0), (b'{"label": 1}', 1)])
    def test_screener_label(self, monkeypatch, body, label):
        self.answer(monkeypatch, body)
        result = HttpScreenerClient("http://svc/screen").classify("q", "a")
        assert result == label and type(result) is int

    @pytest.mark.parametrize("body", [
        b'{"label": true}', b'{"label": false}', b'{"label": 1.0}', b'{"label": 0.0}',
        b'{"label": "1"}', b'{"label": null}', b'{"label": 2}', b'{"label": -1}',
        b'{"label": [1]}', b"{}",
    ], ids=bytes.decode)
    def test_screener_bad_label(self, monkeypatch, body):
        self.answer(monkeypatch, body)
        with pytest.raises(ClientError, match="not 0 or 1"):
            HttpScreenerClient("http://svc/screen").classify("q", "a")

    @pytest.mark.parametrize("body, score", [
        (b'{"score": 0}', 0.0), (b'{"score": 1}', 1.0), (b'{"score": 0.25}', 0.25),
    ])
    def test_trainer_score(self, monkeypatch, body, score):
        self.answer(monkeypatch, body)
        result = HttpTrainerClient("http://svc/train").evaluate("/d", "m", 1, "v")
        assert result == score and type(result) is float

    @pytest.mark.parametrize("body", [
        b'{"score": true}', b'{"score": false}', b'{"score": "0.5"}', b'{"score": NaN}',
        b'{"score": Infinity}', b'{"score": null}', b'{"score": 1.5}', b'{"score": -0.1}',
        b'{"score": [0.5]}', b"{}",
    ], ids=bytes.decode)
    def test_trainer_bad_score(self, monkeypatch, body):
        self.answer(monkeypatch, body)
        with pytest.raises(ClientError, match=r"not a number in \[0, 1\]"):
            HttpTrainerClient("http://svc/train").evaluate("/d", "m", 1, "v")

    @pytest.mark.parametrize("body", [
        b'{"vector": [0.5, -2, 3.0]}', b'{"vector": [1e308]}',
    ], ids=bytes.decode)
    def test_embedding_vector(self, monkeypatch, body):
        self.answer(monkeypatch, body)
        vector = HttpEmbeddingClient("http://svc/embed").embed("q")
        assert vector.dtype == np.float64 and vector.tolist() == json.loads(body)["vector"]

    @pytest.mark.parametrize("body", [
        b"{}", b'{"vector": null}', b'{"vector": "1, 2"}', b'{"vector": [true, false]}',
        b'{"vector": ["1", "2"]}', b'{"vector": [null, 1.0]}', b'{"vector": [NaN, 1.0]}',
        b'{"vector": [1.0, Infinity]}', b'{"vector": [-Infinity]}', b'{"vector": [1e400]}',
        b'{"vector": [1' + b"0" * 400 + b']}', b'{"vector": {"0": 1.0}}',
    ], ids=lambda body: body.decode()[:40])
    def test_embedding_bad_vector(self, monkeypatch, body):
        self.answer(monkeypatch, body)
        client = HttpEmbeddingClient("http://svc/embed")
        with pytest.raises(ClientError, match="not a vector of finite numbers"):
            client.embed("q")
        assert client.dimension == 0


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
