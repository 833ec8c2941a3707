"""The four processing teams and their operators.

Cleaning operators are native and deterministic: MinHash/LSH near-duplicate
removal, noise stripping, and threshold filters on special-character ratio,
token count, and word n-gram repetition. Optimization, Generation, and
Selection are model-backed and run behind :class:`~pipecraft.clients.ModelClient`;
they fail open (pass the sample through with a flag) so one bad call cannot
abort a long search.

Optimization and Generation route each sample on its screener verdict: a
noisy sample goes through the team's per-sample operator, which sends at most
one model request for it, carrying the whole QA pair, and a clean sample
passes through as the same object, without a model call. Optimization asks
the screener about every sample. Generation asks only about the samples
missing a field, and about complete samples until it has found
``GENERATION_SHOT_COUNT`` clean ones for its shots: its operator returns a
complete sample unchanged, so no other verdict can change its output.

MinHash dedup signs the distinct shingle texts of a pass together, in numpy:
a shingle is a window of code points, hashed by
:func:`pipecraft.textstats.ngram_hashes` (as the trigram embedder's are), and
one-permutation hashing with optimal densification (Li, Owen & Zhang 2012;
Shrivastava 2017) spreads each text's window hashes over
``num_permutations`` bins. Identical texts share a signature and are always
duplicates of each other. LSH bands the signatures with one sort: each band
of each text gets a 64-bit digest, and only text-bands whose digest repeats
are grouped, in Python, by their exact band row; candidates then pass a
signature-estimated Jaccard check. Clusters are formed over the distinct
texts: one union-find joins the near-duplicate pairs of texts, and each
cluster keeps the earliest sample of its texts, so no pair of copies is
ever built.

A change that can alter any team's output for the same config and seed must
bump :data:`pipecraft.strategy.OPERATOR_REVISION`, which cache keys bind.
"""
from __future__ import annotations

import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from . import textstats
from .clients import (AgentClient, ClientError, EmbeddingClient, HashingEmbedder, HeuristicScorer,
                      ModelClient, NormalizingOptimizer, TemplateGenerator, TrainerClient)
from .config import MinhashConfig, OperatorConfig
from .corpus import Dataset, Sample
from .screener import Screener
from .strategy import Strategy, Team
from .textstats import clean_text, ngram_hashes, text_profile, violations
from .timing import NULL_TIMER, PhaseTimer

logger = logging.getLogger(__name__)

META_OPTIMIZED = "optimized"
META_OPTIMIZE_ERROR = "optimize_error"
META_GENERATED = "generated"
META_GENERATE_ERROR = "generate_error"

GENERATION_SHOT_COUNT = 3

# ---------------------------------------------------------------------------
# MinHash / LSH near-duplicate removal
# ---------------------------------------------------------------------------

_EMPTY_SENTINEL = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
# one past the last code point: pads a text shorter than a shingle
_PAD_BYTES = (0x110000).to_bytes(4, "little")
# most shingle windows hashed at once, which bounds the hashing arrays (the
# densification works on the whole signature matrix)
SIGN_BLOCK_WINDOWS = 1 << 15


def sample_shingle_text(sample: Sample) -> str:
    """Normalized view used for duplicate detection: noise-stripped fields.

    Shingling the stripped text keeps dedup decisions stable across repeated
    cleaning passes and matches markup variants of the same content.
    """
    return clean_text(sample.question) + "\n" + clean_text(sample.answer)


def _densify_candidates(num_bins: int) -> np.ndarray:
    """Row ``b`` is a seeded permutation of all bins: the order in which an
    empty bin ``b`` looks for a filled bin to borrow from."""
    rng = np.random.default_rng(textstats.HASH_SEED)
    return rng.permuted(np.tile(np.arange(num_bins), (num_bins, 1)), axis=1)


def _blocks(texts: Sequence[str], shingle_size: int):
    """Yield ``(rows, windows)``: whole texts packed in order, text
    ``rows[i]`` holding ``windows[i]`` shingle windows, while a block holds
    at most ``SIGN_BLOCK_WINDOWS`` windows. A text with more windows is a
    block of its own; an empty text has no windows and appears in none."""
    rows: list[int] = []
    windows: list[int] = []
    total = 0
    for row, text in enumerate(texts):
        if not text:
            continue
        count = max(len(text), shingle_size) - shingle_size + 1
        if rows and total + count > SIGN_BLOCK_WINDOWS:
            yield rows, windows
            rows, windows, total = [], [], 0
        rows.append(row)
        windows.append(count)
        total += count
    if rows:
        yield rows, windows


def _window_hashes(texts: list[str], windows: np.ndarray, shingle_size: int) -> np.ndarray:
    """:func:`~pipecraft.textstats.ngram_hashes` of every shingle window of
    the texts, in order; text ``i`` has ``windows[i]`` windows. A text
    shorter than a shingle is padded with 0x110000, which is not a code
    point, to one window. The texts are joined and hashed at once; the
    windows that straddle two texts are dropped."""
    data = b"".join(text.encode("utf-32-le") + _PAD_BYTES * (shingle_size - len(text))
                    for text in texts)
    hashes = ngram_hashes(np.frombuffer(data, dtype=np.uint32), shingle_size)
    ends = np.cumsum(windows + shingle_size - 1)[:-1]
    straddling = (ends[:, None] - np.arange(shingle_size - 1, 0, -1)).ravel()
    return np.delete(hashes, straddling)


def minhash_signature(texts: Sequence[str], cfg: MinhashConfig) -> np.ndarray:
    """One-permutation MinHash signatures, one row per text.

    Each shingle window's hash ``h`` picks one of ``K = cfg.num_permutations``
    bins and competes for that bin's minimum with ``q = h // K``; the bin,
    ``h - q * K``, is taken from the quotient, which equals ``h % K`` and
    spares a second 64-bit division. A bin no window reached borrows the
    value of the first filled bin in its seeded candidate order (optimal
    densification), so every bin of every non-empty text is filled. An empty
    text has no shingles and gets the sentinel row, so two empty texts still
    hash identically. The texts are hashed a block of whole texts at a time
    (see :func:`_blocks`), and the whole matrix is densified at once.
    """
    num_bins = cfg.num_permutations
    bins = np.uint64(num_bins)
    signatures = np.full((len(texts), num_bins), _EMPTY_SENTINEL, dtype=np.uint64)
    for rows, windows in _blocks(texts, cfg.shingle_size):
        counts = np.asarray(windows, dtype=np.intp)
        hashes = _window_hashes([texts[row] for row in rows], counts, cfg.shingle_size)
        # each window's cell in the flattened signature matrix
        cells = np.repeat(np.asarray(rows, dtype=np.intp) * num_bins, counts)
        quotients = hashes // bins
        hashes -= quotients * bins  # the bin, hash % K, from the quotient
        np.add(cells, hashes, out=cells, casting="unsafe")
        np.minimum.at(signatures.reshape(-1), cells, quotients)
    _densify(signatures, _densify_candidates(num_bins))
    return signatures


def _densify(signatures: np.ndarray, candidates: np.ndarray) -> None:
    """Optimal densification, in place: every bin no window reached takes
    the value of the first reached bin in its candidate order. The order is
    a permutation of all bins, so the search ends for any text with one
    reached bin; a text with none keeps the sentinel row."""
    # for K > 1 a value h // K is below the sentinel, which marks unreached bins
    empty = signatures == _EMPTY_SENTINEL
    rows, holes = np.nonzero(empty & ~empty.all(axis=1, keepdims=True))
    for attempt in range(candidates.shape[1]):
        if not rows.size:
            break
        sources = candidates[holes, attempt]
        found = ~empty[rows, sources]
        signatures[rows[found], holes[found]] = signatures[rows[found], sources[found]]
        rows, holes = rows[~found], holes[~found]


def _band_digests(signatures: np.ndarray, mcfg: MinhashConfig) -> np.ndarray:
    """One 64-bit digest per (text, band), shape ``(texts, bands)``: a
    splitmix64 chain over the band's ``rows_per_band`` values, seeded by the
    band index. Equal band rows have equal digests; equal digests are only
    likely to mean equal rows, so callers confirm on the rows themselves."""
    rows = signatures.reshape(len(signatures), mcfg.bands, mcfg.rows_per_band)
    digests = np.tile(np.arange(mcfg.bands, dtype=np.uint64), (len(signatures), 1))
    for column in range(mcfg.rows_per_band):
        digests ^= rows[:, :, column]
        textstats._mix64(digests)
    return digests


def _near_duplicate_texts(
    dataset: Dataset, cfg: OperatorConfig
) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """``(members, near)``: ``members[g]`` lists, ascending, the samples
    whose shingle text is the ``g``-th distinct one to appear, and ``near``
    the group pairs ``(g, h)``, ``g < h``, judged near-duplicates: LSH band
    collision, then a signature-estimated Jaccard check. Each text is signed
    once and only the distinct texts are banded. Every band of every text is
    digested (:func:`_band_digests`) and the digests are sorted once; only
    the text-bands whose digest repeats reach Python, where they are grouped
    by band and exact band row, so a candidate pair shares a band key.
    """
    mcfg = cfg.minhash
    groups: dict[str, list[int]] = defaultdict(list)
    for idx, sample in enumerate(dataset):
        groups[sample_shingle_text(sample)].append(idx)
    members = list(groups.values())
    signatures = minhash_signature(list(groups), mcfg)
    del groups  # the texts are not needed for banding
    digests = _band_digests(signatures, mcfg).ravel()
    order = np.argsort(digests)
    ordered = digests[order]
    same = ordered[1:] == ordered[:-1]
    repeats = np.zeros(len(ordered), dtype=bool)
    repeats[1:] = same
    repeats[:-1] |= same
    # flat index text * bands + band, ascending: each key lists its texts in order
    keys: dict[tuple[int, bytes], list[int]] = defaultdict(list)
    band_rows = signatures.reshape(len(signatures), mcfg.bands, mcfg.rows_per_band)
    for flat in np.sort(order[repeats]).tolist():
        text, band = divmod(flat, mcfg.bands)
        keys[band, band_rows[text, band].tobytes()].append(text)
    candidates: set[tuple[int, int]] = set()
    for gids in keys.values():
        for pos, g in enumerate(gids):
            candidates.update((g, h) for h in gids[pos + 1 :])
    near = [(g, h) for g, h in candidates
            if np.mean(signatures[g] == signatures[h]) >= mcfg.jaccard_threshold]
    return members, near


def duplicate_pairs(dataset: Dataset, cfg: OperatorConfig) -> set[tuple[int, int]]:
    """Index pairs (i < j) judged near-duplicates: LSH band collision followed
    by a signature-estimated Jaccard check against the threshold.

    This is the sample-pair expansion of :func:`_near_duplicate_texts`.
    Samples with the same shingle text collide in every band with estimated
    Jaccard 1, so every pair within a group passes (the threshold is at most
    1); a near pair of groups contributes every pair of their samples.
    """
    members, near = _near_duplicate_texts(dataset, cfg)
    pairs = {(i, j) for group in members for pos, i in enumerate(group) for j in group[pos + 1 :]}
    for g, h in near:
        pairs.update((min(i, j), max(i, j)) for i in members[g] for j in members[h])
    return pairs


class _UnionFind:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # keep the smaller index as representative
            if rx > ry:
                rx, ry = ry, rx
            self.parent[ry] = rx


def minhash_dedup(dataset: Dataset, cfg: OperatorConfig) -> Dataset:
    """Remove near-duplicates, keeping the earliest sample of each cluster;
    output order follows input order. The union-find runs over distinct
    texts, numbered by first sample, so each root's group holds its
    cluster's earliest sample; no sample pair is built."""
    members, near = _near_duplicate_texts(dataset, cfg)
    uf = _UnionFind(len(members))
    for g, h in near:
        uf.union(g, h)
    return Dataset.from_samples(
        dataset[group[0]] for g, group in enumerate(members) if uf.find(g) == g
    )


# ---------------------------------------------------------------------------
# Cleaning
# ---------------------------------------------------------------------------


def strip_noise(sample: Sample) -> Sample:
    """Remove markup, entity escapes, control characters; collapse whitespace.
    Only question/answer change; id and meta are untouched."""
    question = clean_text(sample.question)
    answer = clean_text(sample.answer)
    if question == sample.question and answer == sample.answer:
        return sample
    return sample.with_fields(question=question, answer=answer)


def filter_violations(text: str, cfg: OperatorConfig) -> list[str]:
    """Threshold-filter violations for one combined text, as reason ids."""
    return violations(text_profile(text, cfg.ngram.n), cfg)


def passes_filters(text: str, cfg: OperatorConfig) -> bool:
    return not filter_violations(text, cfg)


def apply_cleaning(dataset: Dataset, cfg: OperatorConfig) -> Dataset:
    """Dedup, then strip noise, then drop threshold violators. Order-preserving
    and idempotent."""
    deduped = minhash_dedup(dataset, cfg)
    stripped = [strip_noise(s) for s in deduped]
    kept = [s for s in stripped if passes_filters(s.combined_text, cfg)]
    return Dataset.from_samples(kept)


# ---------------------------------------------------------------------------
# Model-backed operators
# ---------------------------------------------------------------------------


def optimize_sample(sample: Sample, client: ModelClient, seed: int = 0) -> Sample:
    """Rewrite the sample in one optimizer request, {"role": "optimizer",
    "question", "answer", "seed"}: each non-empty field is replaced with the
    reply's field of the same name, and ``meta["optimized"]`` names the
    field, or ``both``. A sample with no text is returned unchanged without
    any client call. Client failure passes the sample through with an error
    flag."""
    names = [name for name in ("question", "answer") if getattr(sample, name)]
    if not names:
        return sample
    try:
        response = client.complete(
            {"role": "optimizer", "question": sample.question, "answer": sample.answer,
             "seed": seed}
        )
    except ClientError as exc:
        logger.warning("optimizer failed on %s: %s", sample.id, exc)
        return sample.with_fields(meta_updates={META_OPTIMIZE_ERROR: str(exc)})
    optimized = "both" if len(names) == 2 else names[0]
    return sample.with_fields(**{name: response[name] for name in names},
                              meta_updates={META_OPTIMIZED: optimized})


def generate_missing(
    sample: Sample, shots: Sequence[Sample], client: ModelClient, seed: int = 0
) -> Sample:
    """Fill exactly the empty field(s) in one generator request,
    {"role": "generator", "question", "answer", "shots": [{"question",
    "answer"}...], "seed"}: each empty field takes the reply's field of the
    same name. Samples with nothing missing are returned unchanged without
    any client call."""
    missing = [name for name in ("question", "answer") if not getattr(sample, name)]
    if not missing:
        return sample
    if not shots:
        logger.warning("no shots available to generate fields of %s", sample.id)
        return sample.with_fields(meta_updates={META_GENERATE_ERROR: "no-shots"})
    try:
        response = client.complete(
            {
                "role": "generator",
                "question": sample.question,
                "answer": sample.answer,
                "shots": [{"question": s.question, "answer": s.answer} for s in shots],
                "seed": seed,
            }
        )
    except ClientError as exc:
        logger.warning("generator failed on %s: %s", sample.id, exc)
        return sample.with_fields(meta_updates={META_GENERATE_ERROR: str(exc)})
    return sample.with_fields(**{name: response[name] for name in missing},
                              meta_updates={META_GENERATED: ",".join(missing)})


def select_high_quality(
    dataset: Dataset, scorer: ModelClient, keep_fraction: float, seed: int = 0
) -> Dataset:
    """Keep the top ``ceil(keep_fraction * n)`` samples by score; ties break to
    the earlier position, output keeps the original relative order. A scorer
    failure scores that sample -inf."""
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")
    scores: list[float] = []
    for sample in dataset:
        try:
            response = scorer.complete(
                {
                    "role": "scorer",
                    "mode": "score",
                    "question": sample.question,
                    "answer": sample.answer,
                    "seed": seed,
                }
            )
            scores.append(float(response["score"]))
        except ClientError as exc:
            logger.warning("scorer failed on %s: %s", sample.id, exc)
            scores.append(float("-inf"))
    keep = math.ceil(keep_fraction * len(dataset))
    ranked = sorted(range(len(dataset)), key=lambda i: (-scores[i], i))
    chosen = sorted(ranked[:keep])
    return Dataset.from_samples(dataset[i] for i in chosen)


# ---------------------------------------------------------------------------
# Team-level application
# ---------------------------------------------------------------------------


@dataclass
class ExecutionContext:
    """Everything a team application needs: thresholds, clients, the screener,
    and per-run counters. Evaluation-side handles (cache, run log, trainer)
    ride along so one context drives a whole search."""

    cfg: OperatorConfig
    screener: Screener
    optimizer: ModelClient
    generator: ModelClient
    scorer: ModelClient
    embedder: EmbeddingClient | None = None
    agent: AgentClient | None = None
    trainer: TrainerClient | None = None
    cache: object | None = None
    run_log: object | None = None
    timer: PhaseTimer = NULL_TIMER
    seed: int = 0
    team_invocations: dict[Team, int] = field(default_factory=dict)

    @classmethod
    def with_defaults(
        cls,
        cfg: OperatorConfig | None = None,
        seed: int = 0,
        timer: PhaseTimer = NULL_TIMER,
        **overrides,
    ) -> "ExecutionContext":
        cfg = cfg or OperatorConfig()
        kwargs = dict(
            cfg=cfg,
            screener=Screener(cfg),
            optimizer=NormalizingOptimizer(),
            generator=TemplateGenerator(),
            scorer=HeuristicScorer(cfg),
            embedder=HashingEmbedder(),
            timer=timer,
            seed=seed,
        )
        kwargs.update(overrides)
        return cls(**kwargs)

    def count_invocation(self, team: Team) -> None:
        self.team_invocations[team] = self.team_invocations.get(team, 0) + 1

    def total_invocations(self) -> int:
        return sum(self.team_invocations.values())


def _generation_shots(dataset: Dataset, screener: Screener) -> tuple[list[Sample], list[bool]]:
    """The Generation shots, and per sample whether it is screener-noisy and
    missing a field, from one walk in dataset order.

    The shots are the first complete samples the screener calls clean, else
    the first complete samples of the dataset. Every sample missing a field
    is classified; a complete sample only until ``GENERATION_SHOT_COUNT``
    clean ones are found, since either verdict passes it through unchanged.
    """
    clean: list[Sample] = []
    complete: list[Sample] = []
    fill: list[bool] = []
    for sample in dataset:
        if sample.question and sample.answer:
            if len(complete) < GENERATION_SHOT_COUNT:
                complete.append(sample)
            if len(clean) < GENERATION_SHOT_COUNT and not screener.classify(sample).is_noisy:
                clean.append(sample)
            fill.append(False)
        else:
            fill.append(screener.classify(sample).is_noisy)
    return clean or complete, fill


def apply_team(team: Team, dataset: Dataset, ctx: ExecutionContext) -> Dataset:
    """Apply one team. Cleaning and Selection act on the whole dataset;
    Optimization and Generation route each screener-noisy sample through
    their per-sample operator and pass every other sample through as the
    same object. Optimization classifies every sample; Generation only the
    samples missing a field and the complete samples its shot scan reads."""
    ctx.count_invocation(team)
    if team is Team.CLEANING:
        return apply_cleaning(dataset, ctx.cfg)
    if team is Team.SELECTION:
        return select_high_quality(dataset, ctx.scorer, ctx.cfg.selection_keep_fraction, ctx.seed)
    if team is Team.OPTIMIZATION:
        with ctx.timer.phase("screening"):
            route = [ctx.screener.classify(sample).is_noisy for sample in dataset]
        process = partial(optimize_sample, client=ctx.optimizer, seed=ctx.seed)
    else:  # Team.GENERATION
        with ctx.timer.phase("screening"):
            shots, route = _generation_shots(dataset, ctx.screener)
        process = partial(generate_missing, shots=shots, client=ctx.generator, seed=ctx.seed)
    return Dataset.from_samples(
        process(sample) if routed else sample for sample, routed in zip(dataset, route)
    )


def apply_strategy(strategy: Strategy, dataset: Dataset, ctx: ExecutionContext) -> Dataset:
    """Apply a full strategy left to right, without any caching."""
    current = dataset
    for team in strategy.teams:
        current = apply_team(team, current, ctx)
    return current
