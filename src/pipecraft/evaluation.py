"""Strategy evaluation: a pluggable scoring contract.

The production path hands the processed dataset to a trainer client that
fine-tunes and validates a model, returning a scalar in [0, 1]. The default
desk-scale path is a deterministic proxy that scores dataset quality
directly from four measurable components. The proxy is explicitly a
stand-in: it makes the search loop testable end to end, while the trainer
client is the faithful route.
"""
from __future__ import annotations

import json
import math
import tempfile
import time
from bisect import bisect_right
from itertools import count
from pathlib import Path

from .config import DEFAULT_PROXY_WEIGHTS, EvalConfig, OperatorConfig
from .corpus import Dataset, save_dataset
from .operators import ExecutionContext, apply_strategy
from .strategy import Strategy
from .textstats import text_profile, violations


class EvaluationError(RuntimeError):
    pass


def _containment_duplicate_ratio(texts: list[str]) -> float:
    """Fraction of samples whose text equals, contains, or is contained in an
    earlier sample's text; an empty text never contains or is contained.

    Each distinct non-empty text is searched once, in the joined run of the
    strictly longer distinct texts; each holder found flags whichever of the
    pair came later."""
    if len(texts) < 2:
        return 0.0
    first: dict[str, int] = {}
    for index, text in enumerate(texts):
        first.setdefault(text, index)
    distinct = sorted((text for text in first if text), key=len)
    used = set("".join(distinct))
    # a separator no text contains, so no match can span two texts
    separator = next(chr(code) for code in count() if chr(code) not in used)
    joined = separator.join(distinct)
    lengths = [len(text) for text in distinct]
    starts = [0]
    for length in lengths[:-1]:
        starts.append(starts[-1] + length + 1)
    flagged: set[str] = set()
    for text in distinct:
        longer = bisect_right(lengths, len(text))
        if longer == len(distinct):
            break
        position = joined.find(text, starts[longer])
        while position >= 0:
            holder = bisect_right(starts, position) - 1
            container = distinct[holder]
            flagged.add(text if first[container] < first[text] else container)
            position = joined.find(text, starts[holder] + lengths[holder] + 1)
    return (len(texts) - len(first) + len(flagged)) / len(texts)


def proxy_components(dataset: Dataset, cfg: OperatorConfig) -> tuple[float, float, float, float]:
    """(threshold pass fraction, completeness, uniqueness, mean length adequacy),
    each in [0, 1]. Empty datasets are handled by the caller."""
    n = len(dataset)
    texts = [sample.combined_text for sample in dataset]
    profiles = [text_profile(text, cfg.ngram.n) for text in texts]
    passing = sum(1 for profile in profiles if not violations(profile, cfg)) / n
    complete = sum(1 for s in dataset if s.question and s.answer) / n
    uniqueness = 1.0 - _containment_duplicate_ratio(texts)
    adequacy = sum(profile.adequacy(cfg) for profile in profiles) / n
    return passing, complete, uniqueness, adequacy


def proxy_score(
    dataset: Dataset,
    weights: tuple[float, float, float, float] = DEFAULT_PROXY_WEIGHTS,
    cfg: OperatorConfig | None = None,
) -> float:
    """Weighted sum of the four quality components; empty dataset scores 0."""
    if len(dataset) == 0:
        return 0.0
    components = proxy_components(dataset, cfg or OperatorConfig())
    score = math.fsum(w * c for w, c in zip(weights, components))
    return min(1.0, max(0.0, score))


class RunLog:
    """Append-only structured log; one JSON record per line, single writer."""

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self.records: list[dict] = []

    def append(self, record: dict) -> None:
        self.records.append(record)
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def _trainer_score(processed: Dataset, eval_cfg: EvalConfig, ctx: ExecutionContext) -> float:
    if ctx.trainer is None:
        raise EvaluationError("eval mode is 'trainer' but no trainer client is configured")
    with tempfile.NamedTemporaryFile(
        mode="w", suffix=".jsonl", prefix="pipecraft-eval-", delete=False
    ) as handle:
        dataset_path = handle.name
    try:
        save_dataset(processed, dataset_path)
        try:
            score = ctx.trainer.evaluate(
                dataset_path,
                eval_cfg.trainer.base_model,
                eval_cfg.trainer.epochs,
                eval_cfg.trainer.validation_set,
            )
        except Exception as exc:
            raise EvaluationError(f"trainer failed: {exc}") from exc
    finally:
        Path(dataset_path).unlink(missing_ok=True)
    if not 0.0 <= score <= 1.0:
        raise EvaluationError(f"trainer returned out-of-range score {score}")
    return float(score)


def evaluate_strategy(
    f: Strategy,
    base: Dataset,
    eval_cfg: EvalConfig,
    ctx: ExecutionContext,
    round_index: int = 0,
) -> float:
    """Process ``base`` with ``f`` (reusing cached prefixes when a cache is
    attached) and score the result. Appends one record to the run log."""
    started = time.perf_counter()
    hits_before = ctx.cache.stats()["hits"] if ctx.cache is not None else 0
    with ctx.timer.phase("processing"):
        if ctx.cache is not None:
            processed = ctx.cache.apply_with_reuse(f, base, ctx, producer_round=round_index)
        else:
            processed = apply_strategy(f, base, ctx)
    with ctx.timer.phase("evaluation"):
        if eval_cfg.mode == "trainer":
            score = _trainer_score(processed, eval_cfg, ctx)
        else:
            score = proxy_score(processed, eval_cfg.proxy_weights, ctx.cfg)
    hits_after = ctx.cache.stats()["hits"] if ctx.cache is not None else 0
    if ctx.run_log is not None:
        ctx.run_log.append(
            {
                "event": "evaluation",
                "round": round_index,
                "strategy": f.canonical(),
                "score": score,
                "result_fingerprint": processed.fingerprint,
                "wall_time_s": time.perf_counter() - started,
                "cache_hits": hits_after - hits_before,
            }
        )
    return score
