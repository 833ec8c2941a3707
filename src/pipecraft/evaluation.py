"""Strategy evaluation: a pluggable scoring contract.

The production path hands the processed dataset to a trainer client that
fine-tunes and validates a model, returning a scalar in [0, 1]. The default
desk-scale path is a deterministic proxy that scores dataset quality
directly from four measurable components. The proxy is explicitly a
stand-in: it makes the search loop testable end to end, while the trainer
client is the faithful route.

The proxy's uniqueness component is the fraction of distinct texts: a
sample whose text exactly equals an earlier sample's counts as a duplicate.
A search scores each distinct output once: ``evaluate_strategy`` looks the
output's fingerprint up in the scores the search has kept so far. That is
sound in both modes, since the proxy is a pure function of the dataset and
a trainer is assumed deterministic, as prefix reuse assumes of operators.
"""
from __future__ import annotations

import json
import math
import tempfile
import time
from pathlib import Path

from .clients import is_unit_score
from .config import DEFAULT_PROXY_WEIGHTS, EvalConfig, OperatorConfig
from .corpus import Dataset, save_dataset
from .operators import ExecutionContext, apply_strategy
from .strategy import Strategy
from .textstats import text_profile, violations


class EvaluationError(RuntimeError):
    pass


def proxy_components(dataset: Dataset, cfg: OperatorConfig) -> tuple[float, float, float, float]:
    """(threshold pass fraction, completeness, uniqueness, mean length adequacy),
    each in [0, 1]. Uniqueness is the fraction of samples whose text is not an
    exact copy of an earlier one. Empty datasets are handled by the caller."""
    n = len(dataset)
    texts = [sample.combined_text for sample in dataset]
    profiles = [text_profile(text, cfg.ngram.n) for text in texts]
    passing = sum(1 for profile in profiles if not violations(profile, cfg)) / n
    complete = sum(1 for s in dataset if s.question and s.answer) / n
    uniqueness = 1.0 - (n - len(set(texts))) / n
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

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def append(self, record: dict) -> None:
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
    if not is_unit_score(score):
        raise EvaluationError(f"trainer returned score {score!r}, not a number in [0, 1]")
    return float(score)


def evaluate_strategy(
    f: Strategy,
    base: Dataset,
    eval_cfg: EvalConfig,
    ctx: ExecutionContext,
    round_index: int = 0,
    scores: dict[str, float] | None = None,
) -> float:
    """Process ``base`` with ``f`` (reusing cached prefixes when a cache is
    attached) and score the result, unless ``scores`` already maps the
    output's fingerprint to its score; a newly scored output is added to it.
    A search passes one ``scores`` to all its evaluations, so it scores each
    distinct output once. Appends one record to the run log, which says
    whether the score was reused."""
    started = time.perf_counter()
    scores = {} if scores is None else scores
    hits_before = ctx.cache.stats()["hits"] if ctx.cache is not None else 0
    with ctx.timer.phase("processing"):
        if ctx.cache is not None:
            processed = ctx.cache.apply_with_reuse(f, base, ctx, producer_round=round_index)
        else:
            processed = apply_strategy(f, base, ctx)
    key = processed.fingerprint
    reused = key in scores
    if not reused:
        with ctx.timer.phase("evaluation"):
            if eval_cfg.mode == "trainer":
                scores[key] = _trainer_score(processed, eval_cfg, ctx)
            else:
                scores[key] = proxy_score(processed, eval_cfg.proxy_weights, ctx.cfg)
    score = scores[key]
    hits_after = ctx.cache.stats()["hits"] if ctx.cache is not None else 0
    if ctx.run_log is not None:
        ctx.run_log.append(
            {
                "event": "evaluation",
                "round": round_index,
                "strategy": f.canonical(),
                "score": score,
                "result_fingerprint": key,
                "wall_time_s": time.perf_counter() - started,
                "cache_hits": hits_after - hits_before,
                "score_reused": reused,
            }
        )
    return score
