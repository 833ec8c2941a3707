from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from pipecraft import evaluation
from pipecraft.agent import HillClimbAgent, run_search
from pipecraft.cache import StrategyCache
from pipecraft.clients import TrainerClient
from pipecraft.config import EvalConfig, OperatorConfig, RunConfig, TrainerConfig
from pipecraft.corpus import Dataset, Sample, load_dataset
from pipecraft.evaluation import (
    EvaluationError,
    RunLog,
    evaluate_strategy,
    proxy_components,
    proxy_score,
)
from pipecraft.operators import ExecutionContext, apply_cleaning, apply_strategy
from pipecraft.strategy import EMPTY_STRATEGY, Strategy, Team, enumerate_space
from pipecraft.synthetic import messy_corpus
from tests.conftest import clean_corpus, make_words, random_unicode
from tests.test_operators import messy_test_corpus


def adequate(rng: random.Random, sample_id: str, words: int = 45) -> Sample:
    return Sample(
        id=sample_id,
        question=make_words(rng, words // 2) + f" u{sample_id}",
        answer=make_words(rng, words // 2) + f" v{sample_id}",
    )


class TestProxyScore:
    def test_perfect_dataset_scores_one(self):
        assert proxy_score(clean_corpus(8, seed=0)) == 1.0

    def test_empty_dataset_scores_zero(self):
        assert proxy_score(Dataset.from_samples(())) == 0.0

    def test_hand_arithmetic_equal_weights(self):
        # 4 samples: one fails thresholds, one misses its answer, none are
        # duplicates, all are length-adequate:
        # 0.25*(3/4) + 0.25*(3/4) + 0.25*1 + 0.25*1 = 0.875
        rng = random.Random(3)
        violator = adequate(rng, "bad")
        violator = violator.with_fields(answer=violator.answer + " " + "#" * 200)
        missing = Sample(id="miss", question=make_words(rng, 45) + " umiss", answer="")
        corpus = Dataset.from_samples(
            [adequate(rng, "ok1"), violator, missing, adequate(rng, "ok2")]
        )
        score = proxy_score(corpus, (0.25, 0.25, 0.25, 0.25))
        assert score == pytest.approx(0.875)

    def test_components_in_range_randomized(self):
        for seed in range(8):
            corpus = messy_test_corpus(seed)
            components = proxy_components(corpus, OperatorConfig())
            assert all(0.0 <= c <= 1.0 for c in components)
            assert 0.0 <= proxy_score(corpus) <= 1.0

    def test_duplicate_pair_lowers_uniqueness(self):
        rng = random.Random(5)
        base = adequate(rng, "a")
        copy = Sample(id="b", question=base.question, answer=base.answer)
        corpus = Dataset.from_samples([base, copy])
        _, _, uniqueness, _ = proxy_components(corpus, OperatorConfig())
        assert uniqueness == 0.5

    def test_threshold_pass_fraction_monotone_under_cleaning(self, cfg):
        for seed in range(6):
            corpus = messy_test_corpus(seed)
            cleaned = apply_cleaning(corpus, cfg)
            if len(cleaned) == 0:
                continue
            before = proxy_components(corpus, cfg)[0]
            after = proxy_components(cleaned, cfg)[0]
            assert after >= before


def quadratic_duplicate_ratio(texts: list[str]) -> float:
    """The definition, pair by pair: the fraction of samples whose text
    equals, contains, or is contained in an earlier sample's text."""
    if len(texts) < 2:
        return 0.0
    duplicates = 0
    for j in range(1, len(texts)):
        tj = texts[j]
        for i in range(j):
            ti = texts[i]
            if ti == tj or (ti and tj and (ti in tj or tj in ti)):
                duplicates += 1
                break
    return duplicates / len(texts)


class TestContainmentScan:
    """Uniqueness counts exact copies. On the benchmark's corpora and on
    every strategy's output of the messy corpora this equals the pairwise
    containment scan it replaced, so no score there changed."""

    def test_uniqueness_is_the_distinct_fraction(self):
        """Random samples, some copies of earlier ones, some with an empty
        question or answer or both."""
        rng = random.Random(2024)

        def side() -> str:
            return rng.choice(("", random_unicode(rng, rng.randint(1, 4))))

        for _ in range(300):
            samples: list[Sample] = []
            for i in range(rng.randint(1, 14)):
                if samples and rng.random() < 0.3:
                    copy = rng.choice(samples)
                    samples.append(Sample(id=f"s{i}", question=copy.question, answer=copy.answer))
                else:
                    samples.append(Sample(id=f"s{i}", question=side(), answer=side()))
            texts = [sample.combined_text for sample in samples]
            uniqueness = proxy_components(Dataset.from_samples(samples), OperatorConfig())[2]
            assert uniqueness == pytest.approx(len(set(texts)) / len(texts)), texts

    def test_copy_cut_short_is_unique(self):
        """A text inside a longer one is no longer a duplicate."""
        rng = random.Random(6)
        whole = adequate(rng, "whole")
        cut = Sample(id="cut", question=whole.question, answer=whole.answer + " more")
        corpus = Dataset.from_samples([whole, cut])
        texts = [sample.combined_text for sample in corpus]
        assert texts[0] in texts[1] and quadratic_duplicate_ratio(texts) == 0.5
        assert proxy_components(corpus, OperatorConfig())[2] == 1.0

    @pytest.mark.parametrize("workload", ["replicated-2k", "distinct-3k"])
    def test_uniqueness_matches_oracle_on_bench_corpora(self, bench_corpora, workload):
        corpus = bench_corpora[workload]
        subset = Dataset.from_samples(random.Random(7).sample(list(corpus), len(corpus) // 5))
        for dataset in (corpus, subset):
            texts = [sample.combined_text for sample in dataset]
            uniqueness = proxy_components(dataset, OperatorConfig())[2]
            assert uniqueness == 1.0 - quadratic_duplicate_ratio(texts)

    @pytest.mark.parametrize("seed", range(4))
    def test_uniqueness_matches_oracle_on_every_strategy(self, seed):
        corpus = messy_corpus(seed)
        ctx = ExecutionContext.with_defaults(OperatorConfig())
        outputs = {}
        for f in enumerate_space():
            output = apply_strategy(f, corpus, ctx)
            outputs[output.fingerprint] = output
        uniqueness = {}
        for key, dataset in outputs.items():
            if len(dataset) == 0:
                continue
            texts = [sample.combined_text for sample in dataset]
            uniqueness[key] = proxy_components(dataset, OperatorConfig())[2]
            assert uniqueness[key] == 1.0 - quadratic_duplicate_ratio(texts)
        assert sum(value < 1.0 for value in uniqueness.values()) >= 10  # premise: copies kept


def proxy_ctx(cache=None, run_log=None) -> ExecutionContext:
    return ExecutionContext.with_defaults(OperatorConfig(), cache=cache, run_log=run_log)


class TestEvaluateStrategy:
    def test_empty_strategy_is_direct_proxy_score(self):
        corpus = messy_test_corpus(0)
        ctx = proxy_ctx()
        score = evaluate_strategy(EMPTY_STRATEGY, corpus, EvalConfig(), ctx)
        assert score == proxy_score(corpus, cfg=ctx.cfg)

    def test_repeat_evaluation_identical_with_cache_hit(self, tmp_path):
        corpus = messy_test_corpus(1)
        cache = StrategyCache(tmp_path / "c", OperatorConfig().digest(), seed=0)
        ctx = proxy_ctx(cache=cache)
        f = Strategy((Team.CLEANING, Team.SELECTION))
        first = evaluate_strategy(f, corpus, EvalConfig(), ctx)
        hits_before = cache.stats()["hits"]
        second = evaluate_strategy(f, corpus, EvalConfig(), ctx)
        assert first == second
        assert cache.stats()["hits"] == hits_before + 1

    def test_cleaning_noisy_corpus_beats_baseline(self):
        # every defect in this corpus is one the cleaning filters remove
        rng = random.Random(9)
        samples = [adequate(rng, f"k{i}") for i in range(12)]
        for i in range(6):
            samples.append(
                adequate(rng, f"viol{i}").with_fields(answer="#" * 300)
            )
        corpus = Dataset.from_samples(samples)
        ctx = proxy_ctx()
        baseline = evaluate_strategy(EMPTY_STRATEGY, corpus, EvalConfig(), ctx)
        cleaned = evaluate_strategy(Strategy((Team.CLEANING,)), corpus, EvalConfig(), ctx)
        assert cleaned > baseline

    def test_run_log_records_each_evaluation_once(self, tmp_path):
        corpus = messy_test_corpus(2)
        ctx = proxy_ctx(run_log=RunLog(tmp_path / "run_log.jsonl"))
        evaluate_strategy(EMPTY_STRATEGY, corpus, EvalConfig(), ctx, round_index=0)
        evaluate_strategy(Strategy((Team.CLEANING,)), corpus, EvalConfig(), ctx, round_index=1)
        records = (tmp_path / "run_log.jsonl").read_text(encoding="utf-8").splitlines()
        events = [r for r in map(json.loads, records) if r["event"] == "evaluation"]
        assert [e["strategy"] for e in events] == ["NONE", "Cleaning"]
        for event in events:
            assert {"round", "score", "result_fingerprint", "wall_time_s", "cache_hits",
                    "score_reused"} <= set(event)

    def test_known_output_is_not_scored_again(self, monkeypatch):
        corpus = messy_test_corpus(3)
        ctx = proxy_ctx()
        scores: dict[str, float] = {}
        first = evaluate_strategy(EMPTY_STRATEGY, corpus, EvalConfig(), ctx, scores=scores)
        assert scores == {corpus.fingerprint: first}
        monkeypatch.setattr(evaluation, "proxy_score", None)  # any call would fail
        assert evaluate_strategy(EMPTY_STRATEGY, corpus, EvalConfig(), ctx, scores=scores) == first


class _StubTrainer(TrainerClient):
    def __init__(self, score=0.7, fail=False):
        self.score = score
        self.fail = fail
        self.requests: list[tuple] = []

    def evaluate(self, dataset_path, base_model, epochs, validation_set):
        self.requests.append((dataset_path, base_model, epochs, validation_set))
        if self.fail:
            raise RuntimeError("gpu cluster on fire")
        return self.score


class TestTrainerMode:
    def _eval_cfg(self):
        return EvalConfig(
            mode="trainer",
            trainer=TrainerConfig(base_model="base-1b", epochs=3, validation_set="val"),
        )

    def test_trainer_receives_contract_fields(self):
        trainer = _StubTrainer(score=0.42)
        ctx = proxy_ctx()
        ctx.trainer = trainer
        score = evaluate_strategy(EMPTY_STRATEGY, clean_corpus(4), self._eval_cfg(), ctx)
        assert score == 0.42
        (dataset_path, base_model, epochs, validation_set), = trainer.requests
        assert dataset_path.endswith(".jsonl")
        assert (base_model, epochs, validation_set) == ("base-1b", 3, "val")

    def test_trainer_failure_raises_evaluation_error(self):
        ctx = proxy_ctx()
        ctx.trainer = _StubTrainer(fail=True)
        with pytest.raises(EvaluationError):
            evaluate_strategy(EMPTY_STRATEGY, clean_corpus(4), self._eval_cfg(), ctx)

    @pytest.mark.parametrize("score", [True, "0.5", None, float("nan"), 1.5],
                             ids=["bool", "string", "none", "nan", "above-one"])
    def test_score_not_in_unit_interval_is_evaluation_error(self, score):
        ctx = proxy_ctx()
        ctx.trainer = _StubTrainer(score=score)
        with pytest.raises(EvaluationError, match="not a number in"):
            evaluate_strategy(EMPTY_STRATEGY, clean_corpus(4), self._eval_cfg(), ctx)

    def test_search_trains_each_distinct_output_once(self, tmp_path):
        """A dataset file holds exactly the bytes its fingerprint covers, so
        the trainer sees each output's fingerprint; it is asked about each
        distinct output once, while every evaluation is still logged."""
        trained: list[str] = []

        class CountingTrainer(TrainerClient):
            def evaluate(self, dataset_path, base_model, epochs, validation_set):
                trained.append(hashlib.sha256(Path(dataset_path).read_bytes()).hexdigest())
                return proxy_score(load_dataset(dataset_path))

        log = tmp_path / "run_log.jsonl"
        ctx = ExecutionContext.with_defaults(
            OperatorConfig(), agent=HillClimbAgent(), run_log=RunLog(log)
        )
        ctx.trainer = CountingTrainer()
        run_search(messy_test_corpus(0), RunConfig(sampling_rate=0.5, evaluation=self._eval_cfg()), ctx)
        events = [e for e in map(json.loads, log.read_text(encoding="utf-8").splitlines())
                  if e["event"] == "evaluation"]
        assert set(Counter(trained).values()) == {1}
        assert set(trained) == {event["result_fingerprint"] for event in events}
        reused = [event["score_reused"] for event in events]
        assert reused.count(False) == len(trained) and reused.count(True) > 0  # premise

    def test_missing_trainer_is_error(self):
        ctx = proxy_ctx()
        with pytest.raises(EvaluationError):
            evaluate_strategy(EMPTY_STRATEGY, clean_corpus(4), self._eval_cfg(), ctx)
