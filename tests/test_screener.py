from __future__ import annotations

import random
import zlib

from pipecraft.clients import ScreenerClient
from pipecraft.corpus import Dataset, Sample
from pipecraft.operators import apply_cleaning, minhash_dedup
from pipecraft.screener import (
    REASON_MARKUP,
    REASON_MISSING_ANSWER,
    REASON_REMOTE_FALLBACK,
    REMOTE_FAILURE_LIMIT,
    Screener,
)
from pipecraft.textstats import REASON_NGRAM
from tests.conftest import clean_corpus, clean_sample, make_words


def adequate_sample(sample_id: str = "ok") -> Sample:
    rng = random.Random(zlib.crc32(sample_id.encode()))  # str hash varies per process
    return clean_sample(sample_id, rng)


class TestClassify:
    def test_missing_answer_is_noisy(self):
        verdict = Screener().classify(Sample(id="x", question="q", answer=""))
        assert verdict.is_noisy
        assert REASON_MISSING_ANSWER in verdict.reasons

    def test_well_formed_is_clean(self):
        verdict = Screener().classify(adequate_sample())
        assert not verdict.is_noisy
        assert verdict.reasons == ()

    def test_ngram_repetition_09_is_noisy(self):
        # one word repeated 14 times: all ten 5-grams identical,
        # ratio = 1 - 1/10 = 0.9 > the 0.3 threshold
        sample = Sample(id="rep", question="lead in words here", answer="echo " * 14)
        verdict = Screener().classify(sample)
        assert verdict.is_noisy
        assert REASON_NGRAM in verdict.reasons

    def test_markup_is_noisy(self):
        base = adequate_sample("mk")
        sample = base.with_fields(answer="<p>" + base.answer + "</p>")
        verdict = Screener().classify(sample)
        assert verdict.is_noisy
        assert REASON_MARKUP in verdict.reasons

    def test_deterministic_across_calls(self):
        screener = Screener()
        sample = adequate_sample("det")
        assert screener.classify(sample) == screener.classify(sample)


class TestPartition:
    def test_all_clean(self):
        corpus = clean_corpus(6)
        clean, noisy = Screener().partition(corpus)
        assert [s.id for s in clean] == [s.id for s in corpus]
        assert len(noisy) == 0

    def test_all_noisy(self):
        corpus = Dataset.from_samples(
            Sample(id=f"n{i}", question="q", answer="") for i in range(4)
        )
        clean, noisy = Screener().partition(corpus)
        assert len(clean) == 0
        assert [s.id for s in noisy] == [s.id for s in corpus]

    def test_interleaved_order_preserved(self):
        rng = random.Random(5)
        samples = []
        for i in range(5):
            if i in (1, 3):
                samples.append(Sample(id=f"s{i}", question=make_words(rng, 20), answer=""))
            else:
                samples.append(clean_sample(f"s{i}", rng))
        clean, noisy = Screener().partition(Dataset.from_samples(samples))
        assert [s.id for s in clean] == ["s0", "s2", "s4"]
        assert [s.id for s in noisy] == ["s1", "s3"]

    def test_disjoint_cover(self):
        rng = random.Random(11)
        samples = []
        for i in range(30):
            s = clean_sample(f"s{i}", rng)
            if i % 3 == 0:
                s = s.with_fields(answer="")
            samples.append(s)
        corpus = Dataset.from_samples(samples)
        clean, noisy = Screener().partition(corpus)
        assert len(clean) + len(noisy) == len(corpus)
        assert {s.id for s in clean}.isdisjoint({s.id for s in noisy})
        assert {s.id for s in clean} | {s.id for s in noisy} == {s.id for s in corpus}


def test_cleaning_drops_imply_noisy(cfg):
    """On a duplicate-free corpus, every sample the cleaning filters drop is
    classified noisy (dedup drops are dataset-relative and out of scope)."""
    rng = random.Random(23)
    samples = []
    for i in range(40):
        s = clean_sample(f"s{i}", rng)
        roll = i % 4
        if roll == 1:
            s = s.with_fields(answer=s.answer + " " + "#" * 150)
        elif roll == 2:
            s = Sample(id=s.id, question=s.question, answer=f"repeat{i} " * 30)
        samples.append(s)
    corpus = Dataset.from_samples(samples)
    assert len(minhash_dedup(corpus, cfg)) == len(corpus)  # duplicate-free premise
    survivors = {s.id for s in apply_cleaning(corpus, cfg)}
    screener = Screener(cfg)
    for sample in corpus:
        if sample.id not in survivors:
            assert screener.classify(sample).is_noisy


def test_verdicts_cached_per_sample():
    screener = Screener()
    sample = adequate_sample("cache")
    screener.classify(sample)
    screener.classify(sample)
    screener.partition(Dataset.from_samples([sample]))
    # a copy under another id and meta has the same text, so costs no second miss
    screener.classify(Sample(id="copy", question=sample.question, answer=sample.answer,
                             meta={"source": "elsewhere"}))
    assert screener.classify_calls == 1


class _StubRemote(ScreenerClient):
    """``fail`` is True, False, or one bool per call."""

    def __init__(self, label=0, fail=False):
        self.label = label
        self.fail = fail
        self.calls = 0

    def classify(self, question, answer):
        fail = self.fail if isinstance(self.fail, bool) else self.fail[self.calls]
        self.calls += 1
        if fail:
            raise RuntimeError("remote down")
        return self.label


def distinct_samples(count: int) -> list[Sample]:
    return [Sample(id=f"s{i}", question=f"question {i}", answer="") for i in range(count)]


class TestRemoteScreener:
    def test_remote_label_used(self):
        remote = _StubRemote(label=1)
        screener = Screener(client=remote)
        verdict = screener.classify(adequate_sample("r1"))
        assert verdict.is_noisy
        assert remote.calls == 1

    def test_failure_falls_back_to_heuristic_with_flag(self):
        screener = Screener(client=_StubRemote(fail=True))
        verdict = screener.classify(Sample(id="x", question="q", answer=""))
        assert verdict.is_noisy  # heuristic rules decided
        assert REASON_REMOTE_FALLBACK in verdict.reasons

    def test_failures_in_a_row_stop_the_remote_calls(self):
        remote = _StubRemote(fail=True)
        screener = Screener(client=remote)
        verdicts = [screener.classify(sample) for sample in distinct_samples(7)]
        assert remote.calls == REMOTE_FAILURE_LIMIT == 3
        assert screener.classify_calls == screener.remote_fallbacks == 7
        assert all(REASON_REMOTE_FALLBACK in verdict.reasons for verdict in verdicts)

    def test_a_success_resets_the_failure_count(self):
        remote = _StubRemote(label=1, fail=[True, True, False] * 3)
        screener = Screener(client=remote)
        verdicts = [screener.classify(sample) for sample in distinct_samples(9)]
        assert remote.calls == 9
        assert screener.remote_fallbacks == 6
        assert [REASON_REMOTE_FALLBACK in verdict.reasons for verdict in verdicts] == remote.fail
        assert [verdict.reasons for verdict in verdicts[2::3]] == [()] * 3  # the remote label
