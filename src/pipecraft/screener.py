"""Binary clean/noisy screening of samples.

The screener decides which samples get routed through model-backed teams and
how the sampler stratifies. The default is a deterministic rule set sharing
its thresholds with the cleaning filters; a remote classifier can be dropped
in behind the same interface and falls back to the rules on failure.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

from .clients import ScreenerClient
from .config import OperatorConfig
from .corpus import Dataset, Sample
from .textstats import clean_text, text_profile, violations
from .textstats import REASON_NGRAM, REASON_SPECIAL_CHARS, REASON_TOKEN_COUNT  # noqa: F401
from .timing import NULL_TIMER, PhaseTimer

logger = logging.getLogger(__name__)

LABEL_CLEAN = 0
LABEL_NOISY = 1

REASON_MISSING_QUESTION = "missing-question"
REASON_MISSING_ANSWER = "missing-answer"
REASON_MARKUP = "markup"
# the three threshold reasons (special-char, token-count, n-gram) come from textstats
REASON_REMOTE_FALLBACK = "remote-fallback"


@dataclass(frozen=True)
class ScreenerVerdict:
    label: int
    reasons: tuple[str, ...] = ()

    @property
    def is_noisy(self) -> bool:
        return self.label == LABEL_NOISY


def heuristic_verdict(sample: Sample, cfg: OperatorConfig) -> ScreenerVerdict:
    """Noisy iff a field is missing, markup/noise is present, or any cleaning
    threshold is violated. Thresholds are measured on the noise-stripped text,
    matching what the cleaning filters would see."""
    reasons: list[str] = []
    if not sample.question:
        reasons.append(REASON_MISSING_QUESTION)
    if not sample.answer:
        reasons.append(REASON_MISSING_ANSWER)
    clean_q = clean_text(sample.question)
    clean_a = clean_text(sample.answer)
    if clean_q != sample.question or clean_a != sample.answer:
        reasons.append(REASON_MARKUP)
    reasons += violations(text_profile(clean_q + "\n" + clean_a, cfg.ngram.n), cfg)
    if reasons:
        return ScreenerVerdict(LABEL_NOISY, tuple(reasons))
    return ScreenerVerdict(LABEL_CLEAN)


class Screener:
    """Caching screener front-end.

    Verdicts are cached per (question, answer), the only fields either
    classifier reads, because the same text is screened by both the sampler
    and every clean/noisy routing pass, often under several ids; with a remote
    model behind the interface, re-screening would be the dominant cost.
    """

    def __init__(
        self,
        cfg: OperatorConfig | None = None,
        client: ScreenerClient | None = None,
        timer: PhaseTimer = NULL_TIMER,
    ) -> None:
        self.cfg = cfg or OperatorConfig()
        self.client = client
        self.timer = timer
        self._cache: dict[tuple[str, str], ScreenerVerdict] = {}
        self.classify_calls = 0

    def classify(self, sample: Sample) -> ScreenerVerdict:
        key = (sample.question, sample.answer)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        with self.timer.phase("screening"):
            self.classify_calls += 1
            verdict = self._classify_uncached(sample)
        self._cache[key] = verdict
        return verdict

    def _classify_uncached(self, sample: Sample) -> ScreenerVerdict:
        if self.client is None:
            return heuristic_verdict(sample, self.cfg)
        try:
            label = self.client.classify(sample.question, sample.answer)
        except Exception as exc:  # noqa: BLE001 - remote failure falls back
            logger.warning("remote screener failed (%s); using heuristic fallback", exc)
            fallback = heuristic_verdict(sample, self.cfg)
            return ScreenerVerdict(
                fallback.label, fallback.reasons + (REASON_REMOTE_FALLBACK,)
            )
        return ScreenerVerdict(label)

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
