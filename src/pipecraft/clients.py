"""Client interfaces for model-backed operators and external services.

Every external dependency (optimizer/generator/scorer models, the embedding
model, the remote quality screener, the fine-tune-and-validate trainer, and
the strategy agent) sits behind a small client interface. Each interface has
a deterministic default implementation so the whole engine runs without any
endpoint configured, plus an HTTP implementation speaking the documented
JSON wire contract.

A ``ModelClient`` sends each distinct request once per instance, keyed by
the request's canonical JSON text, the form a dataset line takes: ``calls``
counts requests sent, ``reused`` counts requests answered from its memo of
earlier replies, and ``failed`` counts requests that failed every attempt.
"""
from __future__ import annotations

import json
import reprlib
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from .config import OperatorConfig
from .corpus import canonical_json
from .textstats import ALLOWED_CHARS, clean_text, ngram_hashes, text_profile, violations

DEFAULT_TIMEOUT_S = 60.0


class ClientError(RuntimeError):
    """A client call failed after exhausting retries."""


def post_json(endpoint: str, payload: dict) -> dict:
    """POST a JSON payload and decode the JSON object it answers with."""
    import http.client  # here, so runs with no endpoint never load http.client or ssl
    import urllib.request

    body = json.dumps(payload).encode("utf-8")
    try:
        request = urllib.request.Request(endpoint, body, {"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=DEFAULT_TIMEOUT_S) as response:
            raw = response.read()
    except (ValueError, http.client.InvalidURL) as exc:  # no scheme, a port not a number
        raise ClientError(f"cannot post to {endpoint!r}: {exc}") from exc
    except http.client.HTTPException as exc:  # an answer not in HTTP, a body cut short
        raise ClientError(f"{endpoint} broke off the HTTP exchange: {exc!r}") from exc
    try:
        decoded = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # also UnicodeDecodeError
        raise ClientError(f"{endpoint} answered with a body that is not JSON: {exc}") from exc
    if not isinstance(decoded, dict):
        raise ClientError(f"{endpoint} answered with JSON {type(decoded).__name__}, not an object")
    return decoded


def is_unit_score(value) -> bool:
    """A real number in [0, 1]: not a bool, a string, None or NaN."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and 0.0 <= value <= 1.0  # NaN fails the comparison


class ModelClient(ABC):
    """Text-model client for operator roles: optimizer, generator, scorer.

    Each role gets one request per sample, a JSON object of named fields:

    - optimizer: {"role", "question", "answer", "seed"} ->
      {"question": str, "answer": str, "status": "ok"}, the rewritten pair;
    - generator: {"role", "question", "answer", "shots": [{"question",
      "answer"}...], "seed"} -> {"question": str, "answer": str, "status":
      "ok"}, the pair with its empty fields filled;
    - scorer: {"role", "mode": "score", "question", "answer", "seed"} ->
      {"score": number in [0, 1], "status": "ok"}.

    ``complete`` sends each distinct request once and answers a repeat from a
    memo that lives as long as the client, keyed by the request's canonical
    JSON text (so no field may be a dict whose keys mix strings and numbers;
    no operator builds one). This assumes a deterministic model, as prefix
    reuse does; every request carries the run seed. ``calls`` counts
    requests sent, each with up to ``max_retries`` retries; ``reused``
    counts requests answered from the memo; ``failed`` counts requests whose
    every attempt raised or gave a reply without ``status`` ``"ok"`` or
    without its role's fields. Only a reply that passed is stored, so a
    failed request is sent again when it comes again. A repeat gets the
    stored reply object itself, which callers only read.
    """

    role: str = ""
    max_retries: int = 2

    def __init__(self) -> None:
        self.calls = 0
        self.reused = 0
        self.failed = 0
        self._replies: dict = {}

    def complete(self, request: dict) -> dict:
        key = canonical_json(request)
        reply = self._replies.get(key)
        if reply is not None:
            self.reused += 1
            return reply
        self.calls += 1
        last_error: Exception | None = None
        for _ in range(self.max_retries + 1):
            try:
                response = self._do_complete(request)
            except Exception as exc:  # noqa: BLE001 - retries wrap any failure
                last_error = exc
                continue
            last_error = self._reply_error(response)
            if last_error is None:
                self._replies[key] = response
                return response
        self.failed += 1
        raise ClientError(f"{self.role} client failed: {last_error}")

    def _reply_error(self, response) -> ClientError | None:
        """Why ``response`` cannot be used, or None: it is not an object,
        its status is not ``"ok"``, or it lacks a field its role's operator
        reads (the scorer's ``score``, the others' ``question`` and
        ``answer``)."""
        if not isinstance(response, dict):
            return ClientError(f"client returned {type(response).__name__}, not an object")
        if response.get("status") != "ok":
            return ClientError(f"client returned status {response.get('status')!r}")
        if self.role == "scorer":
            score = response.get("score")
            if not is_unit_score(score):
                return ClientError(f"client returned score {score!r}, not a number in [0, 1]")
            return None
        for name in ("question", "answer"):
            if not isinstance(response.get(name), str):
                return ClientError(f"client returned {name} {response.get(name)!r}, not a string")
        return None

    @abstractmethod
    def _do_complete(self, request: dict) -> dict:
        ...


def normalize_text(text: str) -> str:
    """Deterministic text improvement: strip noise, drop disallowed special
    characters, collapse whitespace."""
    return clean_text(clean_text(text).translate(ALLOWED_CHARS))


class NormalizingOptimizer(ModelClient):
    """Default optimizer: rewrites both fields to their normalized forms."""

    role = "optimizer"

    def _do_complete(self, request: dict) -> dict:
        return {
            "question": normalize_text(request["question"]),
            "answer": normalize_text(request["answer"]),
            "status": "ok",
        }


class TemplateGenerator(ModelClient):
    """Default generator: fills each empty field from a snippet of the other
    plus the shot count, the question first, so that with both empty the
    answer quotes the generated question. Quoting only a snippet keeps the
    filled sample free of long repeated word sequences."""

    role = "generator"
    snippet_tokens = 10

    def _snippet(self, text: str) -> str:
        return " ".join(clean_text(text).split()[: self.snippet_tokens])

    def _do_complete(self, request: dict) -> dict:
        question = request["question"] or clean_text(
            "Considering the reference material, what should be asked about "
            f"the following topic? {self._snippet(request['answer'])}"
        )
        answer = request["answer"] or clean_text(
            f"In response to the question, here is a structured summary derived "
            f"from {len(request['shots'])} reference examples: {self._snippet(question)}"
        )
        return {"question": question, "answer": answer, "status": "ok"}


class HeuristicScorer(ModelClient):
    """Default scorer: per-sample quality heuristic in [0, 1].

    Mean of three indicators: passes the cleaning thresholds, has both fields
    present, and has adequate length.
    """

    role = "scorer"

    def __init__(self, cfg: OperatorConfig | None = None) -> None:
        super().__init__()
        self.cfg = cfg or OperatorConfig()

    def _do_complete(self, request: dict) -> dict:
        question = request.get("question", "")
        answer = request.get("answer", "")
        profile = text_profile(question + "\n" + answer, self.cfg.ngram.n)
        passes = not violations(profile, self.cfg)
        complete = bool(question) and bool(answer)
        score = (float(passes) + float(complete) + profile.adequacy(self.cfg)) / 3.0
        return {"score": score, "status": "ok"}


class HttpModelClient(ModelClient):
    def __init__(self, role: str, endpoint: str) -> None:
        super().__init__()
        self.role = role
        self.endpoint = endpoint

    def _do_complete(self, request: dict) -> dict:
        return post_json(self.endpoint, request)


class EmbeddingClient(ABC):
    """Maps text to a fixed-dimension vector. Wire: {"text"} -> {"vector"}."""

    dimension: int = 0

    @abstractmethod
    def embed(self, text: str) -> np.ndarray:
        ...

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, self.dimension), dtype=np.float64)
        return np.stack([self.embed(text) for text in texts])


class HashingEmbedder(EmbeddingClient):
    """Deterministic feature-hash embedder over character trigrams
    (Weinberger et al. 2009, "Feature Hashing for Large Scale Multitask
    Learning"): trigram ``g`` of ``^text$`` adds one to bucket
    ``h(g) % (dimension - 1)``, where ``h`` is
    :func:`~pipecraft.textstats.ngram_hashes`, the code-point n-gram hash
    MinHash dedup uses.

    A constant bias component keeps every vector, including the one for empty
    text, away from zero norm.
    """

    def __init__(self, dimension: int = 64) -> None:
        if dimension < 2:
            raise ValueError("dimension must be >= 2")
        self.dimension = dimension

    def embed(self, text: str) -> np.ndarray:
        codes = np.frombuffer(f"^{text}$".encode("utf-32-le"), dtype=np.uint32)
        buckets = ngram_hashes(codes, 3)
        buckets %= np.uint64(self.dimension - 1)
        vec = np.bincount(buckets.view(np.intp), minlength=self.dimension)
        vec = vec.astype(np.float64)  # integer counts, exact in float64
        vec[self.dimension - 1] = 1.0
        return vec


class HttpEmbeddingClient(EmbeddingClient):
    """Its dimension is the length of the first vector the endpoint returns."""

    def __init__(self, endpoint: str) -> None:
        self.endpoint = endpoint

    def embed(self, text: str) -> np.ndarray:
        response = post_json(self.endpoint, {"text": text})
        values = response.get("vector")
        vector = None
        # numbers only: not true, false, "1", null or a nested list
        if isinstance(values, list) and values and all(type(v) in (int, float) for v in values):
            try:
                vector = np.array(values, dtype=np.float64)
            except OverflowError:  # an integer beyond float range
                pass
        if vector is None or not np.isfinite(vector).all():
            raise ClientError(f"{self.endpoint} returned \"vector\" {reprlib.repr(values)}, "
                              "not a vector of finite numbers")
        self.dimension = self.dimension or vector.size
        if vector.size != self.dimension:
            raise ClientError(f"{self.endpoint} returned {vector.size} values, "
                              f"not the {self.dimension} of its first vector")
        return vector


class ScreenerClient(ABC):
    """Remote binary quality screener. Wire: {"question", "answer"} -> {"label": integer 0|1}."""

    @abstractmethod
    def classify(self, question: str, answer: str) -> int:
        ...


class HttpScreenerClient(ScreenerClient):
    def __init__(self, endpoint: str) -> None:
        self.endpoint = endpoint

    def classify(self, question: str, answer: str) -> int:
        response = post_json(self.endpoint, {"question": question, "answer": answer})
        label = response.get("label")
        if type(label) is not int or label not in (0, 1):  # not true, false or 1.0
            raise ClientError(f"{self.endpoint} returned label {label!r}, not 0 or 1")
        return label


class TrainerClient(ABC):
    """Fine-tune-and-validate service.

    Wire: {"dataset": location, "base_model", "epochs", "validation_set"}
    -> {"score": number in [0, 1]}.
    """

    @abstractmethod
    def evaluate(
        self, dataset_path: str, base_model: str, epochs: int, validation_set: str
    ) -> float:
        ...


class HttpTrainerClient(TrainerClient):
    def __init__(self, endpoint: str) -> None:
        self.endpoint = endpoint

    def evaluate(
        self, dataset_path: str, base_model: str, epochs: int, validation_set: str
    ) -> float:
        response = post_json(
            self.endpoint,
            {
                "dataset": dataset_path,
                "base_model": base_model,
                "epochs": epochs,
                "validation_set": validation_set,
            },
        )
        score = response.get("score")
        if not is_unit_score(score):
            raise ClientError(f"{self.endpoint} returned score {score!r}, not a number in [0, 1]")
        return float(score)


class AgentClient(ABC):
    """Strategy-proposing agent.

    Wire: {"messages": [{"role", "content"}...], "temperature", "seed"}
    -> {"content": str}.
    """

    @abstractmethod
    def complete(self, messages: list[dict[str, str]], temperature: float, seed: int) -> str:
        ...


class HttpAgentClient(AgentClient):
    def __init__(self, endpoint: str) -> None:
        self.endpoint = endpoint

    def complete(self, messages: list[dict[str, str]], temperature: float, seed: int) -> str:
        response = post_json(
            self.endpoint, {"messages": messages, "temperature": temperature, "seed": seed}
        )
        content = response.get("content")
        if not isinstance(content, str):
            raise ClientError(f"{self.endpoint} returned content {reprlib.repr(content)}, "
                              "not a string")
        return content
