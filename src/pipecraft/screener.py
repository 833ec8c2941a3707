"""Binary clean/noisy screening of samples.

The screener decides which samples get routed through model-backed teams and
how the sampler stratifies. The default is a deterministic rule set sharing
its thresholds with the cleaning filters; a remote classifier can be dropped
in behind the same interface and falls back to the rules on failure; after
``REMOTE_FAILURE_LIMIT`` failures in a row it is not called again.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

from .clients import ScreenerClient
from .config import OperatorConfig
from .corpus import Dataset, Sample
from .textstats import clean_text, text_profile, violations

logger = logging.getLogger(__name__)

# consecutive remote failures after which a screener stops calling its client
REMOTE_FAILURE_LIMIT = 3


@dataclass(frozen=True)
class ScreenerVerdict:
    is_noisy: bool


def heuristic_verdict(sample: Sample, cfg: OperatorConfig) -> ScreenerVerdict:
    """Noisy iff a field is missing, markup/noise is present, or any cleaning
    threshold is violated. Thresholds are measured on the noise-stripped text,
    matching what the cleaning filters would see; past the markup checks,
    stripping changed neither field, so that is the sample's own text."""
    question, answer = sample.question, sample.answer
    return ScreenerVerdict(
        not question
        or not answer
        or clean_text(question) != question
        or clean_text(answer) != answer
        or bool(violations(text_profile(question + "\n" + answer, cfg.ngram.n), cfg))
    )


class Screener:
    """Caching screener front-end.

    Verdicts are cached per (question, answer), the only fields either
    classifier reads, because the same text is screened by the sampler, by
    every Optimization pass and, if it is missing a field or read for the
    few-shot examples, by every Generation pass, often under several ids;
    with a remote model behind the interface, re-screening would be the
    dominant cost.

    ``classify_calls`` counts the samples classified (cache misses), and
    ``remote_fallbacks`` those of them the heuristic decided because the
    remote classifier failed; only the first such failure is logged. After
    ``REMOTE_FAILURE_LIMIT`` failures in a row, a success resetting the
    count, the remote classifier is not called again: every later miss is a
    fallback, so a dead endpoint costs a run at most that many timeouts.

    The screener keeps no time: a routing pass that classifies a dataset
    times its whole verdict loop, memo hits included, as the ``screening``
    phase.
    """

    def __init__(
        self,
        cfg: OperatorConfig | None = None,
        client: ScreenerClient | None = None,
    ) -> None:
        self.cfg = cfg or OperatorConfig()
        self.client = client
        self._cache: dict[tuple[str, str], ScreenerVerdict] = {}
        self.classify_calls = 0
        self.remote_fallbacks = 0
        self._remote_failures = 0  # in a row

    def classify(self, sample: Sample) -> ScreenerVerdict:
        key = (sample.question, sample.answer)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        self.classify_calls += 1
        verdict = self._classify_uncached(sample)
        self._cache[key] = verdict
        return verdict

    def _classify_uncached(self, sample: Sample) -> ScreenerVerdict:
        if self.client is None:
            return heuristic_verdict(sample, self.cfg)
        if self._remote_failures < REMOTE_FAILURE_LIMIT:
            try:
                label = self.client.classify(sample.question, sample.answer)
            except Exception as exc:  # noqa: BLE001 - remote failure falls back
                if not self.remote_fallbacks:
                    logger.warning("remote screener failed (%s); using heuristic fallback", exc)
                self._remote_failures += 1
            else:
                self._remote_failures = 0
                return ScreenerVerdict(label == 1)
        self.remote_fallbacks += 1
        return heuristic_verdict(sample, self.cfg)

    def partition(self, dataset: Dataset) -> tuple[Dataset, Dataset]:
        """Split into (clean, noisy), preserving order within each part."""
        clean: list[Sample] = []
        noisy: list[Sample] = []
        for sample in dataset:
            if self.classify(sample).is_noisy:
                noisy.append(sample)
            else:
                clean.append(sample)
        return Dataset.from_samples(clean), Dataset.from_samples(noisy)
