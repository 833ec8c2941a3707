"""Strategy evaluation: a pluggable scoring contract.

The production path hands the processed dataset to a trainer client that
fine-tunes and validates a model, returning a scalar in [0, 1]. The default
desk-scale path is a deterministic proxy that scores dataset quality
directly from four measurable components. The proxy is explicitly a
stand-in: it makes the search loop testable end to end, while the trainer
client is the faithful route.

The proxy's uniqueness component counts a sample as a duplicate when its
text equals, contains or is contained in an earlier sample's text. A search
scores many outputs that share most of their texts, and containment between
two strings never changes, so one ``ContainmentMemo`` per search records each
containment once, when a text first arrives; every evaluation then reads its
own pairs from it. A direct ``proxy_score`` call starts from an empty memo.
The memo finds a text's holders through an index of the characters beside
every newline, since each text the proxy scores is ``question + "\n" +
answer``; a text the index cannot key, or whose every key many texts share,
is searched for in every longer one.
"""
from __future__ import annotations

import json
import math
import tempfile
import time
from bisect import bisect_right
from collections import defaultdict
from itertools import accumulate, count
from pathlib import Path
from typing import Iterable, Iterator

from .config import DEFAULT_PROXY_WEIGHTS, EvalConfig, OperatorConfig
from .corpus import Dataset, save_dataset
from .operators import ExecutionContext, apply_strategy
from .strategy import Strategy
from .textstats import text_profile, violations


# characters beside a newline that key a text in ``ContainmentMemo``'s index
ANCHOR_WIDTH = 16
# most seen texts that may have a text's key; a text whose every window more
# texts have is searched for instead, so a window shared by all texts (a
# common question ending or answer opening) keeps the lookups linear
ANCHOR_HOLDERS = 32


class EvaluationError(RuntimeError):
    pass


class ContainmentMemo:
    """Which scored texts contain which, kept for one search.

    ``holders`` maps each distinct non-empty text seen so far to the strictly
    longer seen texts that contain it. Containment between two strings never
    changes, so each text is looked up once, when it first arrives.

    Where one text holds another, each newline of the held text lies on a
    newline of the holder, with the characters beside it. So the memo
    indexes the windows of every seen text (:func:`_windows`) and looks a
    text up by its key, the one of its windows that the fewest seen texts
    have: only those texts can hold it, and one comparison at the aligned
    offset confirms each. A text with no window, or whose every window more
    than ``ANCHOR_HOLDERS`` texts have (every question ending in one phrase
    and every answer starting with one), is searched for in the joined run
    of longer texts instead, so a shared window costs no more than that
    scan."""

    def __init__(self) -> None:
        self.holders: dict[str, list[str]] = {}
        # each window of the seen texts -> every (text, start) where it occurs
        self._windows: dict[str, list[tuple[str, int]]] = defaultdict(list)
        # each key -> every (text, start of the key) it keys
        self._keyed: dict[str, list[tuple[str, int]]] = defaultdict(list)
        # the seen texts with no key, searched for in the texts of each add
        self._unkeyed: list[str] = []

    def add(self, texts: Iterable[str]) -> None:
        """Record every containment between the new texts among ``texts`` and
        all texts seen so far. Each known key is looked for among the new
        texts' windows; then each new text takes as its key the window of it
        that the fewest texts have, and is compared with those texts. A text
        with no window, or whose every window more than ``ANCHOR_HOLDERS``
        texts have, is searched for in the joined run of the longer texts
        instead: a new one in all texts, a known one in the new texts."""
        new = {text: list(_windows(text)) for text in dict.fromkeys(texts)
               if text and text not in self.holders}
        if not new:
            return
        self.holders.update((text, []) for text in new)
        found: dict[str, dict[str, None]] = defaultdict(dict)

        def note(needle: str, at: int, holder: str, start: int) -> None:
            # The needle's key starts at ``at``, the holder's window at ``start``.
            # Below 0, startswith counts from the end and keeps fewer than
            # ``at`` characters, too few to match.
            if len(holder) > len(needle) and holder.startswith(needle, start - at):
                found[needle][holder] = None

        for holder, windows in new.items():
            for start, window in windows:
                for needle, at in self._keyed.get(window, ()):
                    note(needle, at, holder, start)
        for text, windows in new.items():
            for start, window in windows:
                self._windows[window].append((text, start))
        unkeyed = []
        for needle, windows in new.items():
            # the key: the needle's window that the fewest texts have
            at, key = min(windows, key=lambda window: len(self._windows[window[1]]),
                          default=(0, None))
            if key is None or len(self._windows[key]) > ANCHOR_HOLDERS:
                unkeyed.append(needle)
                continue
            self._keyed[key].append((needle, at))
            for holder, start in self._windows[key]:
                note(needle, at, holder, start)
        for needle, held in found.items():
            self.holders[needle] += held
        if unkeyed:
            self._search(unkeyed, list(self.holders))
        if self._unkeyed:
            self._search(self._unkeyed, list(new))
        self._unkeyed += unkeyed

    def _search(self, needles: list[str], haystacks: list[str]) -> None:
        """Search each needle once, in the joined run of the haystacks strictly
        longer than it, and note each haystack found as its holder."""
        every = "".join(haystacks) + "".join(needles)
        # a separator no text contains, so no match can span two texts
        separator = next(chr(code) for code in count() if chr(code) not in every)
        haystacks = sorted(haystacks, key=len)
        lengths = [len(text) for text in haystacks]
        starts = list(accumulate((length + 1 for length in lengths[:-1]), initial=0))
        joined = separator.join(haystacks)
        for needle in needles:
            longer = bisect_right(lengths, len(needle))
            position = joined.find(needle, starts[longer]) if longer < len(haystacks) else -1
            while position >= 0:
                holder = bisect_right(starts, position) - 1
                self.holders[needle].append(haystacks[holder])
                position = joined.find(needle, starts[holder] + lengths[holder] + 1)


def _windows(text: str) -> Iterator[tuple[int, str]]:
    """``(start, window)`` for each run of ``ANCHOR_WIDTH + 1`` characters
    of ``text`` that ends or begins at one of its newlines, in text order."""
    newline = text.find("\n")
    while newline >= 0:
        if newline >= ANCHOR_WIDTH:
            yield newline - ANCHOR_WIDTH, text[newline - ANCHOR_WIDTH : newline + 1]
        if newline + ANCHOR_WIDTH < len(text):
            yield newline, text[newline : newline + ANCHOR_WIDTH + 1]
        newline = text.find("\n", newline + 1)


def _containment_duplicate_ratio(texts: list[str], memo: ContainmentMemo | None = None) -> float:
    """Fraction of samples whose text equals, contains, or is contained in an
    earlier sample's text; an empty text never contains or is contained.

    The containments come from ``memo`` (a fresh one when none is given),
    after it has taken in this call's texts; each containment between two of
    them flags whichever text came later."""
    if not texts:
        return 0.0
    first: dict[str, int] = {}
    for index, text in enumerate(texts):
        first.setdefault(text, index)
    memo = ContainmentMemo() if memo is None else memo
    memo.add(first)
    flagged: set[str] = set()
    for text, index in first.items():
        for container in memo.holders.get(text, ()):
            at = first.get(container)
            if at is not None:
                flagged.add(text if at < index else container)
    return (len(texts) - len(first) + len(flagged)) / len(texts)


def proxy_components(
    dataset: Dataset, cfg: OperatorConfig, memo: ContainmentMemo | None = None
) -> tuple[float, float, float, float]:
    """(threshold pass fraction, completeness, uniqueness, mean length adequacy),
    each in [0, 1]. Empty datasets are handled by the caller. Uniqueness reads
    its containments from ``memo``, a fresh one when none is given."""
    n = len(dataset)
    texts = [sample.combined_text for sample in dataset]
    profiles = [text_profile(text, cfg.ngram.n) for text in texts]
    passing = sum(1 for profile in profiles if not violations(profile, cfg)) / n
    complete = sum(1 for s in dataset if s.question and s.answer) / n
    uniqueness = 1.0 - _containment_duplicate_ratio(texts, memo)
    adequacy = sum(profile.adequacy(cfg) for profile in profiles) / n
    return passing, complete, uniqueness, adequacy


def proxy_score(
    dataset: Dataset,
    weights: tuple[float, float, float, float] = DEFAULT_PROXY_WEIGHTS,
    cfg: OperatorConfig | None = None,
    memo: ContainmentMemo | None = None,
) -> float:
    """Weighted sum of the four quality components; empty dataset scores 0."""
    if len(dataset) == 0:
        return 0.0
    components = proxy_components(dataset, cfg or OperatorConfig(), memo)
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
    if not 0.0 <= score <= 1.0:
        raise EvaluationError(f"trainer returned out-of-range score {score}")
    return float(score)


def evaluate_strategy(
    f: Strategy,
    base: Dataset,
    eval_cfg: EvalConfig,
    ctx: ExecutionContext,
    round_index: int = 0,
    memo: ContainmentMemo | None = None,
) -> float:
    """Process ``base`` with ``f`` (reusing cached prefixes when a cache is
    attached) and score the result. Appends one record to the run log. A
    search passes one ``memo`` to all its evaluations, so the proxy searches
    each text's containments once."""
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
            score = proxy_score(processed, eval_cfg.proxy_weights, ctx.cfg, memo)
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
