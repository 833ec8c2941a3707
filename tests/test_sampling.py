from __future__ import annotations

import json
import math
import random
import urllib.request

import numpy as np
import pytest

from pipecraft.clients import EmbeddingClient, HashingEmbedder, HttpEmbeddingClient
from pipecraft.corpus import Dataset, Sample
from pipecraft.sampling import (
    EmbeddingError,
    embed_all,
    greedy_select,
    stratified_sample,
    stratum_counts,
)
from pipecraft.screener import Screener
from tests.conftest import clean_corpus, clean_sample, copies_corpus, make_words
from tests.scripted_clients import CannedResponse


def greedy_select_bruteforce(vectors: np.ndarray, n: int) -> list[int]:
    """Oracle: recompute every candidate's similarity sum at every step with
    explicit loops; ties break to the lowest index via strict comparison."""
    vectors = np.asarray(vectors, dtype=np.float64)
    unit = vectors / np.linalg.norm(vectors, axis=1)[:, None]
    remaining = list(range(len(vectors)))
    selected: list[int] = []
    for _ in range(n):
        best_idx, best_score = None, None
        for x in remaining:
            total = 0.0
            for p in remaining:
                if p != x:
                    total += float(unit[x] @ unit[p])
            if best_score is None or total > best_score:
                best_idx, best_score = x, total
        selected.append(best_idx)
        remaining.remove(best_idx)
    return selected


class TestGreedySelect:
    def test_n_zero(self):
        assert greedy_select(np.ones((3, 2)), 0) == []

    def test_n_equals_count_exhausts(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(5, 3))
        assert sorted(greedy_select(vectors, 5)) == [0, 1, 2, 3, 4]

    def test_hand_computed_tie(self):
        # candidate sums: index0 -> cos(0,1)+cos(0,2)=1+0=1, index1 -> 1,
        # index2 -> 0; the tie at 1 breaks to index 0
        vectors = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        assert greedy_select(vectors, 1) == [0]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            greedy_select(np.ones((2, 2)), 3)

    def test_zero_norm_rejected(self):
        with pytest.raises(EmbeddingError):
            greedy_select(np.array([[0.0, 0.0], [1.0, 0.0]]), 1)

    def test_matches_bruteforce_oracle_randomized(self):
        rng = np.random.default_rng(1234)
        for _ in range(300):
            count = int(rng.integers(1, 21))
            n = int(rng.integers(0, min(count, 8) + 1))
            vectors = rng.normal(size=(count, int(rng.integers(2, 6))))
            assert greedy_select(vectors, n) == greedy_select_bruteforce(vectors, n)

    def test_matches_oracle_with_duplicate_vectors(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(6, 3))
        vectors = np.vstack([base, base[2], base[0]])  # exact duplicates
        for n in (1, 3, 5):
            assert greedy_select(vectors, n) == greedy_select_bruteforce(vectors, n)


class TestEmbedAll:
    def test_identical_texts_identical_vectors(self):
        corpus = Dataset.from_samples(
            [Sample(id="a", question="same", answer="text"),
             Sample(id="b", question="same", answer="text")]
        )
        vectors = embed_all(corpus, HashingEmbedder())
        assert np.array_equal(vectors[0], vectors[1])

    def test_empty_dataset(self):
        vectors = embed_all(Dataset.from_samples(()), HashingEmbedder())
        assert vectors.shape[0] == 0

    def test_deterministic_across_runs(self):
        corpus = clean_corpus(3, seed=9)
        first = embed_all(corpus, HashingEmbedder())
        second = embed_all(corpus, HashingEmbedder())
        assert np.array_equal(first, second)

    def test_zero_norm_aborts(self):
        class ZeroEmbedder(EmbeddingClient):
            dimension = 4

            def embed(self, text):
                return np.zeros(4)

        corpus = clean_corpus(2, seed=1)
        with pytest.raises(EmbeddingError):
            embed_all(corpus, ZeroEmbedder())

    def test_failing_client_aborts(self):
        class FailingEmbedder(EmbeddingClient):
            dimension = 4

            def embed(self, text):
                raise RuntimeError("down")

        with pytest.raises(EmbeddingError):
            embed_all(clean_corpus(2, seed=1), FailingEmbedder())

    def test_each_distinct_text_embedded_once_in_first_appearance_order(self):
        corpus = copies_corpus(120, seed=3)
        seen = []

        class CountingEmbedder(HashingEmbedder):
            def embed(self, text):
                seen.append(text)
                return super().embed(text)

        embed_all(corpus, CountingEmbedder())
        distinct = list(dict.fromkeys(sample.combined_text for sample in corpus))
        assert len(distinct) < len(corpus)
        assert seen == distinct

    def test_each_row_is_the_row_of_the_first_sample_with_its_text(self):
        corpus = copies_corpus(120, seed=4)
        vectors = embed_all(corpus, HashingEmbedder())
        first: dict[str, int] = {}
        for index, sample in enumerate(corpus):
            assert np.array_equal(vectors[index], vectors[first.setdefault(sample.combined_text, index)])
        # and every row is what embedding that sample on its own gives
        expected = np.stack([HashingEmbedder().embed(sample.combined_text) for sample in corpus])
        assert np.array_equal(vectors, expected)

    def test_zero_norm_names_the_first_sample_with_that_text(self):
        corpus = Dataset.from_samples(
            [Sample(id="a", question="fine", answer="text"),
             Sample(id="b", question="bad", answer="text"),
             Sample(id="c", question="fine", answer="text"),
             Sample(id="d", question="bad", answer="text")]
        )

        class ZeroOnBad(HashingEmbedder):
            def embed(self, text):
                return np.zeros(self.dimension) if text.startswith("bad") else super().embed(text)

        with pytest.raises(EmbeddingError, match="sample 'b'"):
            embed_all(corpus, ZeroOnBad())

    def test_shape_is_checked_against_the_distinct_count(self):
        class OneRowPerSample(EmbeddingClient):
            dimension = 4

            def embed(self, text):
                return np.ones(4)

            def embed_many(self, texts):
                return np.ones((len(texts) + 1, 4))

        corpus = copies_corpus(30, seed=2)
        with pytest.raises(EmbeddingError, match="misaligned"):
            embed_all(corpus, OneRowPerSample())

    def test_http_embedder_sends_one_request_per_distinct_text(self, monkeypatch):
        """``urlopen`` is replaced by an endpoint that answers with the
        hashing embedder's vector, so no request leaves the process."""
        reference = HashingEmbedder(dimension=16)
        requested = []

        def fake_urlopen(request, timeout):
            text = json.loads(request.data)["text"]
            requested.append(text)
            return CannedResponse(json.dumps({"vector": reference.embed(text).tolist()}).encode())

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        corpus = copies_corpus(90, seed=6)
        client = HttpEmbeddingClient("http://embedder.test/embed")
        subset = stratified_sample(corpus, 0.2, Screener(), client)
        assert requested == list(dict.fromkeys(sample.combined_text for sample in corpus))
        expected = stratified_sample(corpus, 0.2, Screener(), HashingEmbedder(dimension=16))
        assert subset.fingerprint == expected.fingerprint


def mixed_corpus(n: int, n_noisy: int, seed: int = 0) -> Dataset:
    (" noisy samples get an empty answer, which the screener flags ")
    rng = random.Random(seed)
    samples = []
    for i in range(n):
        if i < n_noisy:
            samples.append(Sample(id=f"n{i:03d}", question=make_words(rng, 25) + f" u{i}", answer=""))
        else:
            samples.append(clean_sample(f"c{i:03d}", rng))
    rng.shuffle(samples)
    return Dataset.from_samples(samples)


class TestStratumCounts:
    def test_example_arithmetic(self):
        # 10 samples, 4 noisy, rate 0.5 -> 3 clean + 2 noisy = 5 total
        assert stratum_counts(6, 4, 0.5) == (3, 2)

    def test_absorb_rule(self):
        # per-stratum round-half-up gives 2 + 1 = 3 but the global target is
        # round(0.5 * 4) = 2; the larger stratum absorbs the difference
        assert stratum_counts(3, 1, 0.5) == (1, 1)
        # both strata round 0.5 up; the global target of 1 absorbs in one
        clean_take, noisy_take = stratum_counts(1, 1, 0.5)
        assert clean_take + noisy_take == 1

    def test_equals_adjustment_loop_on_grid(self):
        rates = [k / 200 for k in range(1, 201)]
        rates += [1 / 3, 2 / 3, 1 / 7, 0.1 + 0.2, 1e-9, 1 - 1e-12]
        grid = [(n_clean, n_noisy) for n_clean in range(81) for n_noisy in range(81)]
        for rate in rates:
            got = [stratum_counts(*sizes, rate) for sizes in grid]
            assert got == [stratum_counts_by_loop(*sizes, rate) for sizes in grid], rate

    @pytest.mark.parametrize("rate", [0.0, -0.2, 1.0000001, 2.0, float("nan"), float("inf")])
    def test_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError):
            stratum_counts(6, 4, rate)


def stratum_counts_by_loop(n_clean: int, n_noisy: int, rate: float) -> tuple[int, int]:
    """The earlier rule, kept as the oracle: clamp each stratum's rounded
    take, then step the larger stratum (or, when it is at a bound, the other)
    one sample at a time until the pair meets the rounded global target."""
    def round_half_up(x: float) -> int:
        return int(math.floor(x + 0.5))

    total_target = round_half_up(rate * (n_clean + n_noisy))
    take_clean = min(n_clean, round_half_up(rate * n_clean))
    take_noisy = min(n_noisy, round_half_up(rate * n_noisy))
    diff = total_target - (take_clean + take_noisy)
    if diff != 0:
        clean_is_larger = n_clean >= n_noisy
        for _ in range(abs(diff)):
            step = 1 if diff > 0 else -1
            if clean_is_larger:
                adjusted = take_clean + step
                if 0 <= adjusted <= n_clean:
                    take_clean = adjusted
                else:
                    take_noisy = min(max(take_noisy + step, 0), n_noisy)
            else:
                adjusted = take_noisy + step
                if 0 <= adjusted <= n_noisy:
                    take_noisy = adjusted
                else:
                    take_clean = min(max(take_clean + step, 0), n_clean)
    return take_clean, take_noisy


class TestStratifiedSample:
    def test_rate_one_is_identity(self):
        corpus = mixed_corpus(10, 4)
        out = stratified_sample(corpus, 1.0, Screener(), HashingEmbedder())
        assert out.fingerprint == corpus.fingerprint

    def test_example_counts(self):
        corpus = mixed_corpus(10, 4, seed=3)
        out = stratified_sample(corpus, 0.5, Screener(), HashingEmbedder())
        assert len(out) == 5
        noisy = sum(1 for s in out if s.answer == "")
        assert noisy == 2

    def test_all_clean_rate(self):
        corpus = clean_corpus(20, seed=5)
        out = stratified_sample(corpus, 0.2, Screener(), HashingEmbedder())
        assert len(out) == 4
        assert all(s.answer for s in out)

    def test_subset_no_duplicates_order_preserved(self):
        corpus = mixed_corpus(30, 10, seed=7)
        out = stratified_sample(corpus, 0.3, Screener(), HashingEmbedder())
        ids_in = [s.id for s in corpus]
        ids_out = [s.id for s in out]
        assert len(set(ids_out)) == len(ids_out)
        assert set(ids_out) <= set(ids_in)
        assert ids_out == [i for i in ids_in if i in set(ids_out)]

    def test_noisy_fraction_preserved_randomized(self):
        rng = random.Random(99)
        for trial in range(60):
            n = rng.randint(5, 40)
            n_noisy = rng.randint(0, n)
            rate = rng.choice([0.1, 0.2, 0.25, 0.5, 0.75])
            corpus = mixed_corpus(n, n_noisy, seed=trial)
            out = stratified_sample(corpus, rate, Screener(), HashingEmbedder())
            if len(out) == 0:
                continue
            fraction_in = n_noisy / n
            fraction_out = sum(1 for s in out if s.answer == "") / len(out)
            assert abs(fraction_out - fraction_in) <= 1.0 / len(out) + 1e-12

    def test_deterministic(self):
        corpus = mixed_corpus(25, 8, seed=11)
        a = stratified_sample(corpus, 0.4, Screener(), HashingEmbedder())
        b = stratified_sample(corpus, 0.4, Screener(), HashingEmbedder())
        assert a.fingerprint == b.fingerprint

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            stratified_sample(clean_corpus(4), 0.0, Screener(), HashingEmbedder())
