from __future__ import annotations

import hashlib
import itertools
import random
from collections import defaultdict

import numpy as np
import pytest

from pipecraft import operators, textstats
from pipecraft.clients import HashingEmbedder, ModelClient, ScreenerClient
from pipecraft.config import MinhashConfig, OperatorConfig
from pipecraft.corpus import Dataset, Sample
from pipecraft.operators import (
    ExecutionContext,
    apply_cleaning,
    apply_strategy,
    apply_team,
    duplicate_pairs,
    generate_missing,
    minhash_dedup,
    minhash_signature,
    optimize_sample,
    passes_filters,
    sample_shingle_text,
    select_high_quality,
    strip_noise,
)
from pipecraft.screener import REMOTE_FAILURE_LIMIT, Screener, ScreenerVerdict, heuristic_verdict
from pipecraft.strategy import Strategy, Team
from pipecraft.synthetic import messy_corpus
from tests.conftest import (MASK64, clean_corpus, clean_sample, copies_corpus, make_words,
                            random_unicode, window_hash_int)
from tests.scripted_clients import ConstantScorer, ScriptedModelClient


def shingle_set(text: str, shingle_size: int) -> frozenset[str]:
    """Character shingles; texts shorter than the shingle size yield the whole
    text as a single shingle (empty text yields no shingles). This is the set
    the MinHash signatures estimate Jaccard similarity over."""
    if not text:
        return frozenset()
    if len(text) < shingle_size:
        return frozenset((text,))
    return frozenset(text[i : i + shingle_size] for i in range(len(text) - shingle_size + 1))


def exact_jaccard(text_a: str, text_b: str, shingle_size: int = 5) -> float:
    """Independent oracle: exact Jaccard over the same shingle definition the
    MinHash signatures approximate."""
    sa, sb = shingle_set(text_a, shingle_size), shingle_set(text_b, shingle_size)
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def overlap_pair_corpus(n_pairs: int = 50, words_per_text: int = 40) -> Dataset:
    """Planted near-duplicate pairs with overlap swept from 0% to 100%, using
    pair-unique vocabulary so cross-pair similarity stays near zero."""
    samples = []
    for p in range(n_pairs):
        original = [f"p{p:02d}x{k:03d}" for k in range(words_per_text)]
        keep = round(words_per_text * p / (n_pairs - 1))
        variant = original[:keep] + [f"p{p:02d}y{k:03d}" for k in range(keep, words_per_text)]
        samples.append(Sample(id=f"o{p:02d}", question="q", answer=" ".join(original)))
        samples.append(Sample(id=f"v{p:02d}", question="q", answer=" ".join(variant)))
    return Dataset.from_samples(samples)


class TestDedup:
    def test_exact_duplicate_keeps_first(self, cfg):
        rng = random.Random(0)
        original = clean_sample("first", rng)
        copy = Sample(id="second", question=original.question, answer=original.answer)
        third = clean_sample("third", rng)
        deduped = minhash_dedup(Dataset.from_samples([original, copy, third]), cfg)
        assert [s.id for s in deduped] == ["first", "third"]

    def test_zero_shared_shingles_both_kept(self, cfg):
        a = Sample(id="a", question="qqqq qqqq", answer="rrrr ssss tttt uuuu")
        b = Sample(id="b", question="mmmm nnnn", answer="vvvv wwww xxxx yyyy")
        assert exact_jaccard(sample_shingle_text(a), sample_shingle_text(b)) == 0.0
        deduped = minhash_dedup(Dataset.from_samples([a, b]), cfg)
        assert len(deduped) == 2

    def test_empty_dataset_passes_through(self, cfg):
        assert minhash_dedup(Dataset.from_samples(()), cfg) == Dataset.from_samples(())

    def test_single_sample_passes_through(self, cfg):
        corpus = clean_corpus(1, seed=4)
        assert minhash_dedup(corpus, cfg) == corpus

    def test_order_preserved(self, cfg):
        corpus = clean_corpus(12, seed=3)
        deduped = minhash_dedup(corpus, cfg)
        kept = [s.id for s in deduped]
        assert kept == [s.id for s in corpus if s.id in set(kept)]

    def test_no_false_positives_on_shared_vocabulary(self, cfg):
        """Samples drawing words from one small bank share many shingles but
        sit far below the threshold; none may be flagged as duplicates."""
        corpus = clean_corpus(40, seed=8)
        texts = [sample_shingle_text(s) for s in corpus]
        for i, j in itertools.combinations(range(len(corpus)), 2):
            assert exact_jaccard(texts[i], texts[j]) < 0.5  # premise
        assert duplicate_pairs(corpus, cfg) == set()

    def test_lsh_agrees_with_exact_jaccard_oracle(self, cfg):
        corpus = overlap_pair_corpus()
        threshold = cfg.minhash.jaccard_threshold
        flagged = duplicate_pairs(corpus, cfg)
        texts = [sample_shingle_text(s) for s in corpus]
        checked = agreements = 0
        for i, j in itertools.combinations(range(len(corpus)), 2):
            exact = exact_jaccard(texts[i], texts[j])
            if threshold - 0.1 <= exact <= threshold + 0.1:
                continue  # inside the indeterminate band
            checked += 1
            lsh_says_dup = (i, j) in flagged
            oracle_says_dup = exact >= threshold
            agreements += lsh_says_dup == oracle_says_dup
        assert checked > 100
        assert agreements / checked >= 0.9


def oracle_dedup(dataset: Dataset, cfg: OperatorConfig) -> Dataset:
    """Sample-level reference for ``minhash_dedup``: union-find over every
    duplicate sample pair, keeping the smallest index of each component."""
    return dedup_by_pairs(dataset, duplicate_pairs(dataset, cfg))


def dedup_by_pairs(dataset: Dataset, pairs: set[tuple[int, int]]) -> Dataset:
    """The samples left when each component of the sample ``pairs`` keeps
    only its smallest index."""
    parent = list(range(len(dataset)))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in pairs:
        ri, rj = find(i), find(j)
        parent[max(ri, rj)] = min(ri, rj)
    return Dataset.from_samples(s for idx, s in enumerate(dataset) if find(idx) == idx)


def edited_corpus(seed: int, n: int = 90) -> Dataset:
    """Exact copies and chains of edits (one to four answer words replaced)
    of eight base samples, in shuffled order. An edited text is a distinct
    shingle text, so only the LSH Jaccard check can join it to another; an
    edit of an edit can join texts that are not near each other."""
    rng = random.Random(seed)
    texts = [(s.question, s.answer) for s in clean_corpus(8, seed=seed + 200)]
    samples = []
    for i in range(n):
        question, answer = rng.choice(texts)
        if rng.random() < 0.5:
            words = answer.split()
            for _ in range(rng.randint(1, 4)):
                words[rng.randrange(len(words))] = make_words(rng, 1)
            answer = " ".join(words)
            texts.append((question, answer))
        samples.append(Sample(id=f"e{i:03d}", question=question, answer=answer))
    rng.shuffle(samples)
    return Dataset.from_samples(samples)


def chain_texts() -> list[str]:
    """Answers A, B, C where A~B and B~C pass the check but A~C does not:
    B replaces A's first three words, C replaces B's last three."""
    words = [f"alpha{k:02d}" for k in range(40)]
    b = [f"beta{k:02d}" for k in range(3)] + words[3:]
    c = b[:37] + [f"gamma{k:02d}" for k in range(37, 40)]
    return [" ".join(text) for text in (words, b, c)]


class TestTextClustering:
    """``minhash_dedup`` clusters distinct texts; it must keep exactly what a
    union-find over every duplicate sample pair keeps."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_sample_pair_oracle_on_edited_variants(self, seed, cfg):
        corpus = edited_corpus(seed)
        texts = [sample_shingle_text(s) for s in corpus]
        # premise: some duplicate pairs join distinct texts (the Jaccard path)
        assert any(texts[i] != texts[j] for i, j in duplicate_pairs(corpus, cfg))
        assert minhash_dedup(corpus, cfg) == oracle_dedup(corpus, cfg)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_sample_pair_oracle_on_copies(self, seed, cfg):
        corpus = copies_corpus(seed=seed)
        assert minhash_dedup(corpus, cfg) == oracle_dedup(corpus, cfg)

    @pytest.mark.parametrize("order", itertools.permutations(range(3)))
    def test_chain_collapses_to_earliest_sample(self, order, cfg):
        chain = chain_texts()
        rng = random.Random(1)
        fillers = [clean_sample(f"f{k}", rng) for k in range(2)]
        first, second, third = (Sample(id=f"t{k}", question="chain", answer=chain[k])
                                for k in order)
        copy = Sample(id="copy", question="chain", answer=first.answer)
        corpus = Dataset.from_samples([first, fillers[0], second, copy, third, fillers[1]])
        text_of = [sample_shingle_text(s) for s in corpus]
        joined = {frozenset((text_of[i], text_of[j])) for i, j in duplicate_pairs(corpus, cfg)
                  if text_of[i] != text_of[j]}
        a, b, c = (sample_shingle_text(Sample(id="x", question="chain", answer=t)) for t in chain)
        # premise: A~B and B~C pass, A~C does not
        assert joined == {frozenset((a, b)), frozenset((b, c))}
        deduped = minhash_dedup(corpus, cfg)
        assert [s.id for s in deduped] == [first.id, "f0", "f1"]
        assert deduped == oracle_dedup(corpus, cfg)

    def test_run_path_builds_no_sample_pair(self, bench_corpora, cfg, monkeypatch):
        corpus = bench_corpora["replicated-2k"]
        deduped = oracle_dedup(corpus, cfg)
        cleaned = Dataset.from_samples(
            s for s in map(strip_noise, deduped) if passes_filters(s.combined_text, cfg))
        distinct_texts = len({sample_shingle_text(s) for s in corpus})
        sizes = []
        union_find = operators._UnionFind

        def sized(size):
            sizes.append(size)
            return union_find(size)

        def refuse(*args, **kwargs):
            raise AssertionError("sample pairs expanded")

        monkeypatch.setattr(operators, "duplicate_pairs", refuse)
        monkeypatch.setattr(operators, "_UnionFind", sized)
        assert minhash_dedup(corpus, cfg) == deduped
        assert apply_cleaning(corpus, cfg) == cleaned
        assert sizes == [distinct_texts, distinct_texts]


# Reference versions of the MinHash layer as it was before one-permutation
# hashing: one blake2b call per shingle of every sample, 128 seeded splitmix64
# permutations, and banding of every sample's signature. Its pairs on the bench
# corpora are the anchor the one-permutation signer must keep, and its error
# against exact Jaccard is the bar for the new estimator's.


def reference_signature(
    shingles: frozenset[str], mcfg: MinhashConfig, seed: int = 0x5EED_CAFE
) -> np.ndarray:
    if not shingles:
        return np.full(mcfg.num_permutations, np.uint64(0xFFFF_FFFF_FFFF_FFFF), dtype=np.uint64)
    hashes = np.asarray(
        [int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "big")
         for s in shingles],
        dtype=np.uint64,
    )
    seeds = np.random.default_rng(seed).integers(
        0, 1 << 64, size=mcfg.num_permutations, dtype=np.uint64
    )
    return reference_mix64(hashes[:, None] ^ seeds[None, :]).min(axis=0)


def permutation_signature(text: str, mcfg: MinhashConfig, seed: int = 0x5EED_CAFE) -> np.ndarray:
    return reference_signature(shingle_set(text, mcfg.shingle_size), mcfg, seed)


def reference_mix64(values: np.ndarray) -> np.ndarray:
    values = (values ^ (values >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    values = (values ^ (values >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return values ^ (values >> np.uint64(31))


# A plain per-text version of the one-permutation signer, in Python integers:
# each window of code points (padded with 0x110000 up to one window) is hashed
# by ``window_hash_int``; the hash picks bin ``h % K`` for value ``h // K``; an
# empty bin borrows from the first filled bin of its seeded candidate permutation.


def oph_signature(text: str, mcfg: MinhashConfig) -> np.ndarray:
    k, size = mcfg.shingle_size, mcfg.num_permutations
    if not text:
        return np.full(size, np.uint64(MASK64), dtype=np.uint64)
    codes = [ord(ch) for ch in text] + [0x110000] * (k - len(text))
    bins: list[int | None] = [None] * size
    for i in range(len(codes) - k + 1):
        h = window_hash_int(codes[i : i + k])
        b, value = h % size, h // size
        if bins[b] is None or value < bins[b]:
            bins[b] = value
    order = np.random.default_rng(0x5EED_CAFE).permuted(
        np.tile(np.arange(size), (size, 1)), axis=1)
    dense = [v if v is not None else next(bins[c] for c in order[b] if bins[c] is not None)
             for b, v in enumerate(bins)]
    return np.asarray(dense, dtype=np.uint64)


def reference_duplicate_pairs(
    dataset: Dataset, cfg: OperatorConfig, signature=permutation_signature
) -> set[tuple[int, int]]:
    mcfg = cfg.minhash
    signatures = [signature(sample_shingle_text(s), mcfg) for s in dataset]
    buckets: dict[tuple[int, bytes], list[int]] = defaultdict(list)
    for idx, sig in enumerate(signatures):
        for band in range(mcfg.bands):
            chunk = sig[band * mcfg.rows_per_band : (band + 1) * mcfg.rows_per_band]
            buckets[(band, chunk.tobytes())].append(idx)
    candidates: set[tuple[int, int]] = set()
    for members in buckets.values():
        for pos, i in enumerate(members):
            for j in members[pos + 1 :]:
                candidates.add((min(i, j), max(i, j)))
    return {
        (i, j)
        for i, j in candidates
        if float(np.mean(signatures[i] == signatures[j])) >= mcfg.jaccard_threshold
    }


HASHING_CONFIGS = {
    "default": OperatorConfig(),
    "k2-loose": OperatorConfig(minhash=MinhashConfig(
        shingle_size=2, num_permutations=32, bands=8, rows_per_band=4, jaccard_threshold=0.5)),
    "k3-exact": OperatorConfig(minhash=MinhashConfig(
        shingle_size=3, num_permutations=16, bands=16, rows_per_band=1, jaccard_threshold=1.0)),
}


def unicode_corpus(n: int = 300, seed: int = 0) -> Dataset:
    """Fields drawn from a pool of 40 random Unicode texts, some empty and some
    shorter than a shingle, so exact copies and shared fields are common."""
    rng = random.Random(seed)
    pool = [random_unicode(rng, 14) for _ in range(40)]
    return Dataset.from_samples(
        Sample(id=f"u{i:04d}", question=rng.choice(pool), answer=rng.choice(pool))
        for i in range(n)
    )


HASHING_CORPORA = {
    "unicode": unicode_corpus,
    "messy": lambda: Dataset.from_samples(
        Sample(id=f"{seed}-{s.id}", question=s.question, answer=s.answer)
        for seed in range(3) for s in messy_corpus(seed)),
    "copies": copies_corpus,
}


def signature_texts(seed: int, n: int = 400, max_len: int = 30) -> list[str]:
    """Random Unicode texts with astral code points, empty texts and texts
    shorter than a shingle, plus one of up to 900 code points."""
    rng = random.Random(seed)
    texts = [random_unicode(rng, max_len) for _ in range(n)]
    return texts + ["", "x", "".join(random_unicode(rng, 300) for _ in range(3))]


def mean_abs_error(signatures: np.ndarray, pairs: np.ndarray, exact: np.ndarray) -> float:
    """Mean |estimated - exact| Jaccard over index ``pairs`` of signature rows."""
    estimated = (signatures[pairs[:, 0]] == signatures[pairs[:, 1]]).mean(axis=1)
    return float(np.abs(estimated - exact).mean())


class TestHashingExactness:
    """The block signer equals a plain per-text reference bit for bit, and
    duplicate pairs equal the reference banding loop's."""

    @pytest.mark.parametrize("name", HASHING_CONFIGS)
    def test_signatures_on_random_unicode(self, name):
        mcfg = HASHING_CONFIGS[name].minhash
        texts = signature_texts(21)
        expected = np.stack([oph_signature(t, mcfg) for t in texts])
        assert np.array_equal(minhash_signature(texts, mcfg), expected)

    @pytest.mark.parametrize("shingle_size", range(1, 10))
    def test_signatures_for_each_shingle_size(self, shingle_size):
        mcfg = MinhashConfig(shingle_size=shingle_size, num_permutations=32, bands=8,
                             rows_per_band=4)
        texts = signature_texts(shingle_size, n=120, max_len=2 * shingle_size + 4)
        expected = np.stack([oph_signature(t, mcfg) for t in texts])
        assert np.array_equal(minhash_signature(texts, mcfg), expected)

    @pytest.mark.parametrize("block", [1, 64])
    def test_signatures_across_block_boundaries(self, block, cfg, monkeypatch):
        """At a block of 1 window every text is a block of its own; at 64,
        whole texts share blocks and any text of more windows is alone."""
        texts = signature_texts(5, n=60)
        expected = minhash_signature(texts, cfg.minhash)
        assert np.array_equal(expected, np.stack([oph_signature(t, cfg.minhash) for t in texts]))
        monkeypatch.setattr(operators, "SIGN_BLOCK_WINDOWS", block)
        assert np.array_equal(minhash_signature(texts, cfg.minhash), expected)

    def test_text_longer_than_a_block_between_short_texts(self, cfg, monkeypatch):
        monkeypatch.setattr(operators, "SIGN_BLOCK_WINDOWS", 16)
        long_text = "a long text with 🦊 astral foxes 🦊 in it, " * 3
        texts = ["ab", "", "short text", long_text, "", "x", "tail text"]
        size = cfg.minhash.shingle_size
        assert list(operators._blocks(texts, size)) == [
            ([0, 2], [1, 6]), ([3], [len(long_text) - size + 1]), ([5, 6], [1, 5])]
        expected = np.stack([oph_signature(t, cfg.minhash) for t in texts])
        assert np.array_equal(minhash_signature(texts, cfg.minhash), expected)

    def test_single_window_text_fills_every_bin(self, cfg):
        signature = minhash_signature(["abcde"], cfg.minhash)[0]
        assert len(set(signature.tolist())) == 1
        assert signature[0] != np.uint64(MASK64)

    def test_empty_shingle_set_keeps_sentinel(self, cfg):
        mcfg = cfg.minhash
        signatures = minhash_signature(["", "text", ""], mcfg)
        assert np.array_equal(signatures[0], reference_signature(frozenset(), mcfg))
        assert np.array_equal(signatures[2], signatures[0])
        assert not np.array_equal(signatures[1], signatures[0])

    def test_hash_seed_reseeds_windows_and_densification(self, monkeypatch):
        codes = np.arange(40, dtype=np.uint64)
        shipped = textstats.ngram_hashes(codes, 5), operators._densify_candidates(16)
        monkeypatch.setattr(textstats, "HASH_SEED", 1)
        reseeded = textstats.ngram_hashes(codes, 5), operators._densify_candidates(16)
        assert not any(np.array_equal(a, b) for a, b in zip(shipped, reseeded))
        # Callers hash the uint32 codes np.frombuffer gives; sizes 1-9 cross
        # both word boundaries, with astral code points and the pad.
        monkeypatch.setattr(textstats, "HASH_SEED", 0xDEAD_BEEF_0123_4567)
        for size in range(1, 10):
            rng = random.Random(size)
            text = "\U0001F600" + random_unicode(rng, 240) + "\U0010FFFF"
            narrow = np.frombuffer(text.encode("utf-32-le") + operators._PAD_BYTES * size,
                                   dtype=np.uint32)
            hashes = textstats.ngram_hashes(narrow, size)
            assert hashes.dtype == np.uint64
            assert np.array_equal(hashes, textstats.ngram_hashes(narrow.astype(np.uint64), size))

    def test_mix64_wraps_like_the_reference(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 1 << 64, size=(64, 8), dtype=np.uint64)
        values[0, :2] = (0, 0xFFFF_FFFF_FFFF_FFFF)
        expected = reference_mix64(values.copy())
        assert np.array_equal(textstats._mix64(values), expected)

    @pytest.mark.parametrize("config_name", HASHING_CONFIGS)
    @pytest.mark.parametrize("corpus_name", HASHING_CORPORA)
    def test_pairs_match_reference(self, corpus_name, config_name):
        corpus = HASHING_CORPORA[corpus_name]()
        cfg = HASHING_CONFIGS[config_name]
        expected = reference_duplicate_pairs(corpus, cfg, oph_signature)
        assert expected  # premise: every corpus has duplicates under every config
        assert duplicate_pairs(corpus, cfg) == expected

    @pytest.mark.parametrize("workload", ["replicated-2k", "distinct-3k"])
    def test_pairs_match_reference_on_bench_corpora(self, bench_corpora, workload, cfg):
        corpus = bench_corpora[workload]
        assert duplicate_pairs(corpus, cfg) == reference_duplicate_pairs(corpus, cfg)

    @pytest.mark.parametrize("corpus_name", [*HASHING_CORPORA, "replicated-2k", "distinct-3k"])
    def test_colliding_band_digests_keep_band_keys_exact(self, corpus_name, bench_corpora,
                                                         monkeypatch):
        """With every band digest equal, every band row of every text reaches
        the exact grouping; pairs and clusters must still be the reference
        banding loop's."""
        if corpus_name in HASHING_CORPORA:
            corpus, configs = HASHING_CORPORA[corpus_name](), HASHING_CONFIGS.values()
            signature = oph_signature
        else:
            corpus, configs = bench_corpora[corpus_name], [OperatorConfig()]
            signature = permutation_signature
        calls = []

        def colliding(signatures, mcfg):
            calls.append(signatures.shape)
            return np.zeros((len(signatures), mcfg.bands), dtype=np.uint64)

        monkeypatch.setattr(operators, "_band_digests", colliding)
        for cfg in configs:
            expected = reference_duplicate_pairs(corpus, cfg, signature)
            assert duplicate_pairs(corpus, cfg) == expected
            assert minhash_dedup(corpus, cfg) == dedup_by_pairs(corpus, expected)
        assert len(calls) == 2 * len(configs)

    def test_one_signature_per_distinct_text(self, cfg, monkeypatch):
        corpus = copies_corpus()
        calls = []
        signature = operators.minhash_signature

        def counted(texts, mcfg):
            calls.append(texts)
            return signature(texts, mcfg)

        monkeypatch.setattr(operators, "minhash_signature", counted)
        duplicate_pairs(corpus, cfg)
        texts = {sample_shingle_text(s) for s in corpus}
        assert len(calls) == 1
        assert sorted(calls[0]) == sorted(texts) and len(texts) < len(corpus)

    def test_no_blake2b_on_the_minhash_path(self, cfg, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("blake2b called")

        monkeypatch.setattr(hashlib, "blake2b", refuse)
        assert duplicate_pairs(copies_corpus(), cfg)
        assert HashingEmbedder().embed_many([s.combined_text for s in copies_corpus()]).any()


# One hash seed's error on one corpus swings widely, because every pair shares
# the same few hundred shingle hashes: on the overlap sweep the new estimator's
# mean absolute error ranged 0.021-0.038 over 16 seeds, the old one's
# 0.022-0.042. The quality bar compares the two averaged over these seeds; the
# first of them is the one both estimators ship with.
QUALITY_SEEDS = (0x5EED_CAFE, 1, 2, 3, 4, 5, 6, 7)


class TestEstimatorQuality:
    """One-permutation MinHash with optimal densification stays close to the
    128-permutation estimator it replaced: its mean absolute error against
    exact Jaccard is at most 1.5 times the old one's."""

    @pytest.mark.parametrize("corpus", [overlap_pair_corpus, unicode_corpus],
                             ids=["overlap-sweep", "unicode"])
    def test_error_within_bound_of_permutation_minhash(self, corpus, cfg, monkeypatch):
        mcfg = cfg.minhash
        texts = sorted({sample_shingle_text(s) for s in corpus()})
        pairs = np.asarray(list(itertools.combinations(range(len(texts)), 2)))
        exact = np.asarray([exact_jaccard(texts[i], texts[j], mcfg.shingle_size) for i, j in pairs])
        shipped = minhash_signature(texts, mcfg)
        old_error = new_error = 0.0
        for seed in QUALITY_SEEDS:
            old = np.stack([permutation_signature(t, mcfg, seed) for t in texts])
            monkeypatch.setattr(textstats, "HASH_SEED", seed)
            new = minhash_signature(texts, mcfg)
            assert np.array_equal(new, shipped) == (seed == QUALITY_SEEDS[0])  # the patch reseeds
            old_error += mean_abs_error(old, pairs, exact)
            new_error += mean_abs_error(new, pairs, exact)
        assert new_error <= 1.5 * old_error, (new_error, old_error)


class TestStripNoise:
    def test_tag_removal(self):
        sample = Sample(id="x", question="<b>hi</b>", answer="ok")
        assert strip_noise(sample).question == "hi"

    def test_identity_when_clean(self):
        sample = Sample(id="x", question="plain", answer="text here")
        assert strip_noise(sample) is sample

    def test_hand_derived_rules(self):
        sample = Sample(id="x", question="a" + chr(0) + "  b&amp;c", answer="")
        assert strip_noise(sample).question == "a b&c"

    def test_id_meta_untouched(self):
        sample = Sample(id="keep", question="<i>q</i>", answer="a", meta={"src": "web"})
        stripped = strip_noise(sample)
        assert stripped.id == "keep"
        assert stripped.meta == {"src": "web"}

    def test_idempotent(self):
        rng = random.Random(9)
        for i in range(50):
            sample = Sample(
                id=f"s{i}",
                question=rng.choice(["<p>", "&lt;", "  ", "w"]) * rng.randint(1, 5) + "tail",
                answer=make_words(rng, 5),
            )
            once = strip_noise(sample)
            assert strip_noise(once) == once


def messy_test_corpus(seed: int = 0) -> Dataset:
    rng = random.Random(seed)
    samples = []
    for i in range(24):
        s = clean_sample(f"s{i:02d}", rng)
        roll = i % 6
        if roll == 1:
            s = s.with_fields(answer=s.answer + " " + "#" * 150)
        elif roll == 2:
            s = s.with_fields(question="<div>" + s.question + "</div>")
        elif roll == 3:
            s = Sample(id=s.id, question=s.question, answer=f"w{i} " * 40)
        samples.append(s)
    samples.append(Sample(id="dup-of-s00", question=samples[0].question, answer=samples[0].answer))
    return Dataset.from_samples(samples)


class TestApplyCleaning:
    def test_fixpoint_dataset_unchanged(self, cfg):
        corpus = clean_corpus(10, seed=1)
        assert apply_cleaning(corpus, cfg).fingerprint == corpus.fingerprint

    def test_idempotent(self, cfg):
        for seed in range(5):
            corpus = messy_test_corpus(seed)
            once = apply_cleaning(corpus, cfg)
            twice = apply_cleaning(once, cfg)
            assert twice.fingerprint == once.fingerprint

    def test_hand_traced_survivors(self, cfg):
        rng = random.Random(42)
        keeper = clean_sample("keeper", rng)
        over_length = clean_sample("overlong", rng).with_fields(
            answer=make_words(rng, 5000)
        )
        duplicate = Sample(id="copy", question=keeper.question, answer=keeper.answer)
        markup_base = clean_sample("markup", rng)
        markup = markup_base.with_fields(question="<b>" + markup_base.question + "</b>")
        corpus = Dataset.from_samples([keeper, over_length, duplicate, markup])
        cleaned = apply_cleaning(corpus, cfg)
        # dedup drops the copy, the length filter drops the overlong sample,
        # the markup sample survives in stripped form
        assert [s.id for s in cleaned] == ["keeper", "markup"]
        assert cleaned[1].question == markup_base.question

    def test_empty_dataset(self, cfg):
        assert len(apply_cleaning(Dataset.from_samples(()), cfg)) == 0


def trim(req: dict) -> dict:
    return {"question": req["question"].strip(), "answer": req["answer"].strip(), "status": "ok"}


def trim_optimizer() -> ScriptedModelClient:
    return ScriptedModelClient("optimizer", trim)


def template_reply(req: dict) -> dict:
    question = req["question"] or f"QUESTION({req['answer']})"
    answer = req["answer"] or f"ANSWER({question})"
    return {"question": question, "answer": answer, "status": "ok"}


def template_generator() -> ScriptedModelClient:
    return ScriptedModelClient("generator", template_reply)


def recording_trim_optimizer(requests: list[dict]) -> ScriptedModelClient:
    def fn(req):
        requests.append(dict(req))
        return trim(req)

    return ScriptedModelClient("optimizer", fn)


class TestOptimizeSample:
    @pytest.mark.parametrize(
        "question, answer, optimized",
        [(" q ", " a ", "both"), (" q ", "", "question"), ("", " a ", "answer")],
        ids=["both", "question-only", "answer-only"],
    )
    def test_rewrites_every_non_empty_field_question_first(self, question, answer, optimized):
        """One request carries the whole pair; each non-empty field takes
        the reply's field of the same name."""
        requests: list[dict] = []
        sample = Sample(id="x", question=question, answer=answer)
        out = optimize_sample(sample, recording_trim_optimizer(requests), seed=5)
        assert requests == [{"role": "optimizer", "question": question, "answer": answer,
                             "seed": 5}]
        assert list(requests[0]) == ["role", "question", "answer", "seed"]
        assert (out.question, out.answer) == (question.strip(), answer.strip())
        assert out.meta == {"optimized": optimized}

    def test_empty_field_keeps_its_value_whatever_the_reply(self):
        client = ScriptedModelClient(
            "optimizer", lambda req: {"question": "Q", "answer": "invented", "status": "ok"})
        out = optimize_sample(Sample(id="x", question="q", answer=""), client)
        assert (out.question, out.answer) == ("Q", "")
        assert out.meta == {"optimized": "question"}

    def test_sample_without_text_makes_no_call(self):
        client = trim_optimizer()
        sample = Sample(id="x", question="", answer="", meta={"k": 1})
        assert optimize_sample(sample, client) is sample
        assert client.calls == 0

    def test_client_error_passes_through_with_flag(self):
        failing = ScriptedModelClient("optimizer", lambda req: {"status": "error"})
        sample = Sample(id="x", question="q text", answer="a text")
        out = optimize_sample(sample, failing)
        assert out.question == sample.question
        assert out.answer == sample.answer
        assert "optimize_error" in out.meta
        assert "optimized" not in out.meta

    def test_same_pair_under_different_ids_is_sent_once(self):
        client = trim_optimizer()
        one = optimize_sample(Sample(id="a", question=" q ", answer=" a "), client)
        two = optimize_sample(Sample(id="b", question=" q ", answer=" a "), client)
        assert (one.question, one.answer) == (two.question, two.answer) == ("q", "a")
        assert (client.calls, client.reused) == (1, 1)

    def test_shared_question_alone_is_sent_twice(self):
        client = trim_optimizer()
        optimize_sample(Sample(id="a", question=" q ", answer=" a "), client)
        optimize_sample(Sample(id="b", question=" q ", answer=" b "), client)
        assert (client.calls, client.reused) == (2, 0)


class TestGenerateMissing:
    def test_fill_missing_answer(self):
        shots = [Sample(id="shot", question="sq", answer="sa")]
        out = generate_missing(Sample(id="x", question="q", answer=""), shots, template_generator())
        assert (out.question, out.answer) == ("q", "ANSWER(q)")
        assert out.meta["generated"] == "answer"

    def test_nothing_missing_means_zero_calls(self):
        client = template_generator()
        sample = Sample(id="x", question="q", answer="a")
        out = generate_missing(sample, [sample], client)
        assert out == sample
        assert client.calls == 0

    def test_both_missing_question_first_then_conditioned_answer(self):
        shots = [Sample(id="shot", question="sq", answer="sa")]
        out = generate_missing(Sample(id="x", question="", answer=""), shots, template_generator())
        assert out.question == "QUESTION()"
        assert out.answer == "ANSWER(QUESTION())"
        assert out.meta["generated"] == "question,answer"

    def test_both_missing_sends_one_request(self):
        requests: list[dict] = []

        def fn(req):
            requests.append(req)
            return {"question": "Q", "answer": "A", "status": "ok"}

        shots = [Sample(id="shot", question="sq", answer="sa")]
        client = ScriptedModelClient("generator", fn)
        out = generate_missing(Sample(id="x", question="", answer=""), shots, client, seed=2)
        assert (out.question, out.answer) == ("Q", "A")
        assert requests == [{"role": "generator", "question": "", "answer": "",
                             "shots": [{"question": "sq", "answer": "sa"}], "seed": 2}]
        assert client.calls == 1

    def test_present_field_keeps_its_value_whatever_the_reply(self):
        client = ScriptedModelClient(
            "generator", lambda req: {"question": "rewritten", "answer": "A", "status": "ok"})
        shots = [Sample(id="shot", question="sq", answer="sa")]
        out = generate_missing(Sample(id="x", question="q", answer=""), shots, client)
        assert (out.question, out.answer) == ("q", "A")

    def test_no_shots_flags_and_passes_through(self):
        client = template_generator()
        sample = Sample(id="x", question="q", answer="")
        out = generate_missing(sample, [], client)
        assert out.answer == ""
        assert out.meta["generate_error"] == "no-shots"
        assert client.calls == 0

    def test_client_error_passes_through_with_flag(self):
        failing = ScriptedModelClient("generator", lambda req: {"status": "error"})
        sample = Sample(id="x", question="q", answer="")
        out = generate_missing(sample, [Sample(id="s", question="a", answer="b")], failing)
        assert out.answer == ""
        assert "generate_error" in out.meta


def table_scorer(table: dict[str, float]) -> ScriptedModelClient:
    return ScriptedModelClient(
        "scorer", lambda req: {"score": table[req["question"]], "status": "ok"}
    )


class TestSelectHighQuality:
    def _corpus(self, n: int = 4) -> Dataset:
        return Dataset.from_samples(
            Sample(id=f"s{i}", question=f"q{i}", answer="a") for i in range(n)
        )

    def test_keep_fraction_one_is_identity(self):
        corpus = self._corpus()
        out = select_high_quality(corpus, ConstantScorer(), 1.0)
        assert out.fingerprint == corpus.fingerprint

    def test_empty_dataset_makes_no_scorer_call(self):
        scorer = ConstantScorer()
        assert select_high_quality(self._corpus(0), scorer, 0.25) == self._corpus(0)
        assert scorer.calls == 0

    def test_single_sample_is_kept(self):
        """One sample is scored, as every sample is, and kept: ``ceil`` of
        any keep fraction of 1 is 1, whatever the score."""
        def down(req):
            raise RuntimeError("down")

        scorer = ScriptedModelClient("scorer", down)
        assert select_high_quality(self._corpus(1), scorer, 0.25) == self._corpus(1)
        assert scorer.calls == 1

    def test_stated_tie_break(self):
        # scores 0.9, 0.1, 0.5, 0.5 keep half: top-2 are positions 0 and 2
        # (the 0.5 tie breaks to the earlier position)
        scorer = table_scorer({"q0": 0.9, "q1": 0.1, "q2": 0.5, "q3": 0.5})
        out = select_high_quality(self._corpus(), scorer, 0.5)
        assert [s.id for s in out] == ["s0", "s2"]

    def test_all_equal_keeps_first_quarter(self):
        out = select_high_quality(self._corpus(8), ConstantScorer(), 0.25)
        assert [s.id for s in out] == ["s0", "s1"]

    def test_scorer_failure_ranks_last(self):
        def fn(req):
            if req["question"] == "q1":
                raise RuntimeError("down")
            return {"score": 0.5, "status": "ok"}

        out = select_high_quality(self._corpus(4), ScriptedModelClient("scorer", fn), 0.75)
        assert [s.id for s in out] == ["s0", "s2", "s3"]

    def test_output_preserves_relative_order(self):
        scorer = table_scorer({"q0": 0.1, "q1": 0.9, "q2": 0.2, "q3": 0.8})
        out = select_high_quality(self._corpus(), scorer, 0.5)
        assert [s.id for s in out] == ["s1", "s3"]


class TestRepliesWithoutTheirField:
    """An ``ok`` reply without the field its operator reads is a client
    failure, so each operator fails open as it does for a client error."""

    @pytest.mark.parametrize("reply, message", [
        ({"status": "ok"}, "question None, not a string"),
        ({"question": None, "answer": "a", "status": "ok"}, "question None, not a string"),
        ({"question": ["t"], "answer": "a", "status": "ok"}, "question ['t'], not a string"),
        ({"score": 0.5, "status": "ok"}, "question None, not a string"),
        (["t"], "not an object"),
        ({"question": "q", "status": "ok"}, "answer None, not a string"),
        ({"answer": "a", "status": "ok"}, "question None, not a string"),
        ({"question": "q", "answer": 5, "status": "ok"}, "answer 5, not a string"),
        ({"text": "t", "status": "ok"}, "question None, not a string"),
    ], ids=["no-field", "null", "list", "score-only", "not-an-object", "question-only",
            "answer-only", "int-answer", "text-only"])
    def test_optimizer_and_generator_need_text(self, reply, message):
        """Each reply must carry ``question`` and ``answer`` as strings, even
        the field the operator does not take."""
        sample = Sample(id="x", question="q text", answer="")
        shots = [Sample(id="s", question="sq", answer="sa")]
        optimizer = ScriptedModelClient("optimizer", lambda req: reply)
        generator = ScriptedModelClient("generator", lambda req: reply)
        optimized = optimize_sample(sample, optimizer)
        generated = generate_missing(sample, shots, generator)
        assert message in optimized.meta["optimize_error"]
        assert message in generated.meta["generate_error"]
        assert (optimized.question, generated.answer) == ("q text", "")
        assert "optimized" not in optimized.meta and "generated" not in generated.meta
        assert (optimizer.calls, optimizer.failed) == (generator.calls, generator.failed) == (1, 1)

    @pytest.mark.parametrize("score", [float("nan"), 1.5, -0.1, True, "0.5", None, [0.5]],
                             ids=["nan", "above-one", "below-zero", "true", "string", "null",
                                  "list"])
    def test_scorer_needs_a_number_in_the_unit_interval(self, score):
        def fn(req):
            if req["question"] == "q1":
                return {"score": score, "status": "ok"}
            return {"score": 0.5, "status": "ok"}

        scorer = ScriptedModelClient("scorer", fn)
        corpus = Dataset.from_samples(
            Sample(id=f"s{i}", question=f"q{i}", answer="a") for i in range(4))
        out = select_high_quality(corpus, scorer, 0.75)
        assert [s.id for s in out] == ["s0", "s2", "s3"]  # s1 scored -inf
        assert (scorer.calls, scorer.failed) == (4, 1)

    @pytest.mark.parametrize("score", [0, 1, 0.0, 1.0, np.float64(0.25)],
                             ids=["int-0", "int-1", "zero", "one", "numpy"])
    def test_scorer_accepts_any_real_number_in_the_unit_interval(self, score):
        scorer = ScriptedModelClient("scorer", lambda req: {"score": score, "status": "ok"})
        assert scorer.complete({"question": "q"})["score"] == score
        assert scorer.failed == 0


def make_ctx(cfg=None, **overrides) -> ExecutionContext:
    return ExecutionContext.with_defaults(cfg or OperatorConfig(), **overrides)


class TestApplyTeam:
    def test_optimization_on_all_clean_makes_zero_calls(self):
        corpus = clean_corpus(6, seed=2)
        ctx = make_ctx(optimizer=trim_optimizer())
        out = apply_team(Team.OPTIMIZATION, corpus, ctx)
        assert ctx.optimizer.calls == 0
        assert out.fingerprint == corpus.fingerprint

    def test_cleaning_on_empty_dataset(self):
        ctx = make_ctx()
        assert len(apply_team(Team.CLEANING, Dataset.from_samples(()), ctx)) == 0

    def test_generation_partition_trace_one_call(self):
        rng = random.Random(6)
        complete_a = clean_sample("a", rng)
        complete_b = clean_sample("b", rng)
        missing = Sample(id="m", question=make_words(rng, 20) + " qm", answer="")
        corpus = Dataset.from_samples([complete_a, missing, complete_b])
        ctx = make_ctx(generator=template_generator())
        out = apply_team(Team.GENERATION, corpus, ctx)
        assert ctx.generator.calls == 1
        assert out[1].answer.startswith("ANSWER(")
        assert out[0] == complete_a and out[2] == complete_b

    def test_clean_samples_byte_identical_through_model_teams(self):
        """Clean samples pass untouched and trigger zero model calls."""
        rng = random.Random(8)
        cleans = [clean_sample(f"c{i}", rng) for i in range(5)]
        noisies = [
            Sample(id="n0", question=make_words(rng, 20) + " qq", answer=""),
            clean_sample("n1", rng).with_fields(answer="<b>tagged</b> " + make_words(rng, 15)),
        ]
        order = [cleans[0], noisies[0], cleans[1], cleans[2], noisies[1], cleans[3], cleans[4]]
        corpus = Dataset.from_samples(order)
        for team in (Team.OPTIMIZATION, Team.GENERATION):
            ctx = make_ctx(optimizer=trim_optimizer(), generator=template_generator())
            before = ctx.optimizer.calls + ctx.generator.calls
            out = apply_team(team, corpus, ctx)
            clean_ids = {s.id for s in cleans}
            for sample_in, sample_out in zip(corpus, out):
                if sample_in.id in clean_ids:
                    assert sample_out == sample_in  # byte-identical fields and meta
            # one call for each noisy sample, none for a clean one
            calls = ctx.optimizer.calls + ctx.generator.calls - before
            assert calls <= len(noisies)
            if team is Team.GENERATION:
                assert ctx.generator.calls == 1  # only n0 has a missing field

    def test_selection_runs_on_full_dataset(self):
        corpus = clean_corpus(8, seed=4)
        ctx = make_ctx(scorer=ConstantScorer())
        out = apply_team(Team.SELECTION, corpus, ctx)
        assert len(out) == 4  # keep fraction 0.5 of the whole dataset

    def test_invocation_counter(self):
        corpus = clean_corpus(4, seed=5)
        ctx = make_ctx()
        apply_team(Team.CLEANING, corpus, ctx)
        apply_team(Team.CLEANING, corpus, ctx)
        apply_team(Team.SELECTION, corpus, ctx)
        assert ctx.team_invocations == {Team.CLEANING: 2, Team.SELECTION: 1}

    def test_run_seed_reaches_every_model_role(self):
        requests: list[dict] = []

        def recording(role, respond):
            def fn(req):
                requests.append(req)
                return respond(req)

            return ScriptedModelClient(role, fn)

        rng = random.Random(9)
        markup = clean_sample("mk", rng)
        markup = markup.with_fields(question="<b>" + markup.question + "</b>")
        missing = Sample(id="m", question=make_words(rng, 20) + " qm", answer="")
        corpus = Dataset.from_samples([clean_sample("c", rng), markup, missing])
        ctx = ExecutionContext.with_defaults(
            seed=7,
            optimizer=recording("optimizer", trim),
            generator=recording("generator", lambda req: {"question": req["question"],
                                                          "answer": "filled", "status": "ok"}),
            scorer=recording("scorer", lambda req: {"score": 0.5, "status": "ok"}),
        )
        apply_strategy(Strategy((Team.OPTIMIZATION, Team.GENERATION, Team.SELECTION)), corpus, ctx)
        assert {req["role"] for req in requests} == {"optimizer", "generator", "scorer"}
        assert [req["seed"] for req in requests] == [7] * len(requests)


class TestOneRequestPerSample:
    """Optimization sends one request per distinct QA pair among the
    screener-noisy samples with text, and its output is what the two
    requests per sample of the earlier wire contract gave."""

    # Optimization's output fingerprint on messy_corpus(seed), pinned when
    # each field was still sent as its own request
    FINGERPRINTS = {
        0: "f684478577ccd98defa750439a52197a01d0c8cd649881073904d25bc86dc1e5",
        1: "47897ea1ad5d7b6c3d233e7fa5a86eb06e99127e187fb5e5efc0e3a9d4f6938f",
        2: "4f63528e8788306e340637364a9f17c3b8e643bf9b0f9c894d7992772b734237",
        3: "0d03114d36825b19a4370726d0559c85b680d5ee9afdedb9544cad93626a9665",
    }

    @pytest.mark.parametrize("seed", sorted(FINGERPRINTS))
    def test_optimizer_calls_count_distinct_noisy_pairs(self, seed):
        corpus = messy_corpus(seed)
        ctx = make_ctx()
        out = apply_team(Team.OPTIMIZATION, corpus, ctx)
        pairs = {(s.question, s.answer) for s in corpus
                 if ctx.screener.classify(s).is_noisy and (s.question or s.answer)}
        assert ctx.optimizer.calls == len(pairs)
        assert out.fingerprint == self.FINGERPRINTS[seed]


class TableScreenerClient(ScreenerClient):
    """Remote screener reading each label from a table keyed by QA pair, or
    failing every call when there is no table."""

    def __init__(self, labels: dict[tuple[str, str], int] | None) -> None:
        self.labels = labels
        self.calls = 0

    def classify(self, question: str, answer: str) -> int:
        self.calls += 1
        if self.labels is None:
            raise RuntimeError("screener down")
        return self.labels[(question, answer)]


class RecordingScreener(Screener):
    """Screener that lists every sample it is asked about, memo hits included."""

    def __init__(self, client: ScreenerClient | None = None) -> None:
        super().__init__(client=client)
        self.asked: list[Sample] = []

    def classify(self, sample: Sample) -> ScreenerVerdict:
        self.asked.append(sample)
        return super().classify(sample)


def recording_generator(requests: list[dict]) -> ScriptedModelClient:
    def fn(req):
        requests.append(req)
        return template_reply(req)

    return ScriptedModelClient("generator", fn)


def routing_corpus(seed: int, noisy_rate: float) -> tuple[Dataset, dict[tuple[str, str], int]]:
    """Complete, question-only, answer-only and empty samples, with exact
    copies, and a seeded clean/noisy label per distinct QA pair."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(rng.randint(1, 14)):
        kind = rng.choices(("complete", "question", "answer", "empty"), (6, 2, 2, 1))[0]
        question = make_words(rng, 4) if kind in ("complete", "question") else ""
        answer = make_words(rng, 5) if kind in ("complete", "answer") else ""
        pairs.append((question, answer))
    labels = {pair: int(rng.random() < noisy_rate) for pair in pairs}
    samples = [Sample(id=f"s{i}", question=q, answer=a)
               for i, (q, a) in enumerate(rng.choice(pairs) for _ in range(rng.randint(0, 24)))]
    return Dataset.from_samples(samples), labels


def reference_generation(dataset: Dataset, labels: dict, generator: ModelClient) -> list[Sample]:
    """Generation as every sample is classified: noisy samples through
    ``generate_missing``, with the first three clean complete samples as
    shots, else the first three complete ones."""
    noisy = [labels[(s.question, s.answer)] for s in dataset]
    complete = [(s, is_noisy) for s, is_noisy in zip(dataset, noisy) if s.question and s.answer]
    shots = ([s for s, is_noisy in complete if not is_noisy] or [s for s, _ in complete])[:3]
    return [generate_missing(s, shots, generator) if is_noisy else s
            for s, is_noisy in zip(dataset, noisy)]


def expected_asked(dataset: Dataset, labels: dict) -> list[Sample]:
    """The samples missing a field, and the complete samples up to and
    including the third clean one (all of them if there are fewer)."""
    asked, clean = [], 0
    for sample in dataset:
        if not (sample.question and sample.answer):
            asked.append(sample)
        elif clean < 3:
            asked.append(sample)
            clean += not labels[(sample.question, sample.answer)]
    return asked


class TestGenerationRouting:
    """A Generation pass asks the screener only about samples whose verdict
    can change its output, and its output and generator requests equal
    those of classifying every sample."""

    @pytest.mark.parametrize("noisy_rate", [0.0, 0.3, 0.6, 0.9, 1.0])
    def test_matches_classifying_every_sample(self, noisy_rate):
        stopped_early = clean_incomplete = 0
        for seed in range(40):
            dataset, labels = routing_corpus(seed, noisy_rate)
            expected_requests: list[dict] = []
            expected = reference_generation(dataset, labels,
                                            recording_generator(expected_requests))
            requests: list[dict] = []
            screener = RecordingScreener(TableScreenerClient(labels))
            ctx = make_ctx(screener=screener, generator=recording_generator(requests))
            out = apply_team(Team.GENERATION, dataset, ctx)

            assert list(out) == expected, seed
            assert [a is b for a, b in zip(out, dataset)] == \
                [a is b for a, b in zip(expected, dataset)], seed
            assert requests == expected_requests, seed
            asked = expected_asked(dataset, labels)
            assert [s.id for s in screener.asked] == [s.id for s in asked], seed
            assert screener.client.calls == len({(s.question, s.answer) for s in asked}), seed
            stopped_early += len(asked) < len(dataset)
            clean_incomplete += any(not labels[(s.question, s.answer)]
                                    for s in dataset if not (s.question and s.answer))
        if noisy_rate < 1.0:
            assert stopped_early and clean_incomplete

    def test_failing_remote_screener_falls_back_to_heuristic(self):
        dataset = Dataset.from_samples(
            list(messy_test_corpus(3))
            + [Sample(id="q-only", question="what is " + make_words(random.Random(1), 8)),
               Sample(id="a-only", answer=make_words(random.Random(2), 12)),
               Sample(id="empty")])
        heuristic_requests: list[dict] = []
        heuristic = RecordingScreener()
        expected = apply_team(Team.GENERATION, dataset, make_ctx(
            screener=heuristic, generator=recording_generator(heuristic_requests)))
        requests: list[dict] = []
        screener = RecordingScreener(TableScreenerClient(None))
        out = apply_team(Team.GENERATION, dataset, make_ctx(
            screener=screener, generator=recording_generator(requests)))

        assert screener.client.calls == REMOTE_FAILURE_LIMIT
        distinct = {(s.question, s.answer) for s in screener.asked}
        assert screener.remote_fallbacks == screener.classify_calls == len(distinct)
        labels = {(s.question, s.answer): heuristic_verdict(s, OperatorConfig()).label
                  for s in dataset}
        asked = expected_asked(dataset, labels)
        assert len(asked) < len(dataset)  # the shot scan stops early
        assert [s.id for s in screener.asked] == [s.id for s in heuristic.asked] == \
            [s.id for s in asked]
        assert out == expected
        assert requests == heuristic_requests
        assert len(requests) == 3


class TestOrderAndDeterminism:
    def test_output_order_is_subsequence(self, cfg):
        corpus = messy_test_corpus(1)
        positions = {s.id: i for i, s in enumerate(corpus)}
        for team in Team:
            ctx = make_ctx(cfg)
            out = apply_team(team, corpus, ctx)
            indices = [positions[s.id] for s in out]
            assert indices == sorted(indices)

    def test_strategy_application_deterministic(self, cfg):
        corpus = messy_test_corpus(2)
        strategy = Strategy((Team.CLEANING, Team.GENERATION, Team.SELECTION))
        out1 = apply_strategy(strategy, corpus, make_ctx(cfg))
        out2 = apply_strategy(strategy, corpus, make_ctx(cfg))
        assert out1.fingerprint == out2.fingerprint
