from __future__ import annotations

import gc
import json
import random
import weakref
from collections import Counter

import pytest

from pipecraft import cli, evaluation
from pipecraft.agent import HillClimbAgent, run_search
from pipecraft.cache import StrategyCache
from pipecraft.clients import TrainerClient
from pipecraft.config import EvalConfig, OperatorConfig, RunConfig, TrainerConfig
from pipecraft.corpus import Dataset, Sample, save_dataset
from pipecraft.evaluation import (
    ContainmentMemo,
    EvaluationError,
    RunLog,
    _containment_duplicate_ratio,
    evaluate_strategy,
    proxy_components,
    proxy_score,
)
from pipecraft.operators import ExecutionContext, apply_cleaning
from pipecraft.strategy import EMPTY_STRATEGY, Strategy, Team
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


def containment_case(rng: random.Random) -> list[str]:
    """Short texts over a small alphabet that holds the likeliest separator
    characters, with exact copies and texts nested in earlier ones."""
    alphabet = rng.choice(("ab", "a\0b", "\x01\0", "\u00e9\U0001F600a", "ab\0\x01\u00e9\U0001F600"))
    texts: list[str] = []
    for _ in range(rng.randint(0, 14)):
        roll = rng.random()
        if texts and roll < 0.15:
            texts.append(rng.choice(texts))
        elif texts and roll < 0.3:
            inner = rng.choice(texts)
            texts.append(random_unicode(rng, 2) + inner + "".join(rng.choices(alphabet, k=2)))
        elif roll < 0.4:
            texts.append(random_unicode(rng, 6))
        else:
            texts.append("".join(rng.choices(alphabet, k=rng.randint(0, 5))))
    return texts


def combined_case(rng: random.Random, pool: list[str] = ()) -> list[str]:
    """Texts shaped like ``question + "\\n" + answer`` over a small alphabet:
    one or several newlines, a newline first or last, sides shorter than,
    as long as and longer than the index's key window, exact copies, texts
    that hold an earlier one (or one of ``pool``), and slices of one that
    end at a newline or span two."""
    width = evaluation.ANCHOR_WIDTH
    alphabet = rng.choice(("a", "ab", "ab\u00e9"))

    def side() -> str:
        size = rng.choice((0, 1, width - 1, width, width + 1, 2 * width + 3))
        return "".join(rng.choices(alphabet, k=size))

    texts: list[str] = []
    for _ in range(rng.randint(0, 14)):
        earlier = texts + list(pool)
        with_newline = [text for text in earlier if "\n" in text]
        roll = rng.random()
        if earlier and roll < 0.15:
            texts.append(rng.choice(earlier))
        elif earlier and roll < 0.35:
            texts.append(rng.choice(("", side(), side() + "\n")) + rng.choice(earlier)
                         + rng.choice(("", side(), "\n" + side())))
        elif with_newline and roll < 0.55:
            text = rng.choice(with_newline)
            newlines = [at for at, char in enumerate(text) if char == "\n"]
            first = rng.randrange(len(newlines))
            last = min(len(newlines) - 1, first + rng.randint(0, 1))
            start = rng.randint(0, newlines[first])
            end = rng.choice((newlines[last] + 1, rng.randint(newlines[last] + 1, len(text))))
            texts.append(text[start:end])
        else:
            texts.append("\n".join(side() for _ in range(rng.choice((2, 2, 2, 3, 4)))))
    return texts


def keyed_containments(texts: list[str]) -> list[tuple[str, str]]:
    """The pairs ``(needle, holder)`` of distinct texts where the holder
    holds the needle and the needle has a window, so the memo finds the pair
    through its index, not its scan."""
    distinct = [text for text in set(texts) if text]
    return [(needle, holder) for needle in distinct if any(evaluation._windows(needle))
            for holder in distinct if len(holder) > len(needle) and needle in holder]


class TestContainmentScan:
    def test_matches_quadratic_oracle_on_random_unicode(self):
        rng = random.Random(2024)
        for _ in range(3000):
            texts = containment_case(rng)
            assert _containment_duplicate_ratio(texts) == quadratic_duplicate_ratio(texts), texts

    def test_matches_quadratic_oracle_on_combined_texts(self):
        rng = random.Random(2026)
        keyed = 0
        for _ in range(3000):
            texts = combined_case(rng)
            keyed += len(keyed_containments(texts))
            assert _containment_duplicate_ratio(texts) == quadratic_duplicate_ratio(texts), texts
        assert keyed > 1000  # premise: the index, not only the scan, finds holders

    def test_empty_text_never_contains_or_is_contained(self):
        assert _containment_duplicate_ratio(["", "a", "b"]) == 0.0
        assert _containment_duplicate_ratio(["a", "", ""]) == pytest.approx(1 / 3)
        assert _containment_duplicate_ratio(["b", "ab", "abc", "x"]) == 0.5

    @pytest.mark.parametrize("workload", ["replicated-2k", "distinct-3k"])
    def test_uniqueness_matches_oracle_on_bench_corpora(self, bench_corpora, workload):
        corpus = bench_corpora[workload]
        subset = Dataset.from_samples(random.Random(7).sample(list(corpus), len(corpus) // 5))
        for dataset in (corpus, subset):
            texts = [sample.combined_text for sample in dataset]
            uniqueness = proxy_components(dataset, OperatorConfig())[2]
            assert uniqueness == 1.0 - quadratic_duplicate_ratio(texts)


def record_memos(monkeypatch) -> list[tuple[weakref.ref, int, list[str]]]:
    """Patch ``ContainmentMemo.add`` to note, for each memo in order of first
    use, a weak reference to it, how many texts it held when first used, and
    the texts that entered it."""
    memos: list[tuple[weakref.ref, int, list[str]]] = []
    add = ContainmentMemo.add

    def recording(self, texts):
        record = next((record for record in memos if record[0]() is self), None)
        if record is None:
            record = (weakref.ref(self), len(self.holders), [])
            memos.append(record)
        before = set(self.holders)
        add(self, texts)
        record[2].extend(text for text in self.holders if text not in before)

    monkeypatch.setattr(ContainmentMemo, "add", recording)
    return memos


class TestContainmentMemo:
    def test_shared_memo_matches_oracle_on_every_call(self):
        """Calls that share one memo and many of their texts each score what
        the definition gives for that call's texts alone."""
        rng = random.Random(2025)
        for _ in range(300):
            memo = ContainmentMemo()
            seen: list[str] = []
            for _ in range(rng.randint(2, 6)):
                texts = containment_case(rng) + rng.sample(seen, min(len(seen), rng.randint(0, 10)))
                rng.shuffle(texts)
                seen += texts
                assert _containment_duplicate_ratio(texts, memo) == \
                    quadratic_duplicate_ratio(texts), texts

    def test_shared_memo_matches_oracle_on_combined_texts(self):
        """Later calls hold texts of earlier ones and are held by them, so
        known texts meet new holders and new texts meet known holders."""
        rng = random.Random(2027)
        # keyed pairs of one call whose needle is known and holder new, and
        # whose needle is new and holder known
        across = Counter()
        for _ in range(300):
            memo = ContainmentMemo()
            seen: list[str] = []
            for _ in range(rng.randint(2, 6)):
                texts = combined_case(rng, seen) + rng.sample(seen, min(len(seen), rng.randint(0, 10)))
                rng.shuffle(texts)
                known = set(seen)
                across.update((needle in known, holder in known)
                              for needle, holder in keyed_containments(texts))
                seen += texts
                assert _containment_duplicate_ratio(texts, memo) == \
                    quadratic_duplicate_ratio(texts), texts
        assert across[True, False] > 100 and across[False, True] > 100, across

    @pytest.mark.parametrize("holders", [1, 3])
    def test_few_holders_per_key_match_oracle_on_combined_texts(self, monkeypatch, holders):
        """With a key allowed to few texts, the texts of one memo split
        between the index and the scan and meet each other across calls."""
        monkeypatch.setattr(evaluation, "ANCHOR_HOLDERS", holders)
        rng = random.Random(2028 + holders)
        keyed = scanned = 0
        for _ in range(200):
            memo = ContainmentMemo()
            seen: list[str] = []
            for _ in range(rng.randint(2, 6)):
                texts = combined_case(rng, seen) + rng.sample(seen, min(len(seen), rng.randint(0, 10)))
                rng.shuffle(texts)
                seen += texts
                assert _containment_duplicate_ratio(texts, memo) == \
                    quadratic_duplicate_ratio(texts), texts
            keyed += sum(map(len, memo._keyed.values()))
            scanned += sum(1 for text in memo._unkeyed if any(evaluation._windows(text)))
        # premise: both routes take texts that have a window
        assert keyed > 500 and scanned > 500, (keyed, scanned)

    def test_shared_question_ending_and_answer_opening(self):
        """Every question ends in one phrase and every answer opens with one,
        so every text has the same two windows. The first call's texts are
        keyed by them; once more than ``ANCHOR_HOLDERS`` texts have them,
        new texts are scanned, and no key is held by more texts than that."""
        rng = random.Random(2029)
        ending, opening = " Answer in one word, please.", "The answer is as follows: "
        memo = ContainmentMemo()
        seen: list[str] = []
        for size in (20, 60, 60):
            texts: list[str] = []
            for _ in range(size):
                earlier = seen + texts
                roll = rng.random()
                if earlier and roll < 0.2:
                    # the question alone, up to and with its newline
                    texts.append(rng.choice(earlier).split("\n")[0] + "\n")
                elif earlier and roll < 0.4:
                    whole = [text for text in earlier if not text.endswith("\n")]
                    texts.append(rng.choice(whole) + " " + make_words(rng, 2))
                elif earlier and roll < 0.5:
                    texts.append(rng.choice(earlier))
                else:
                    texts.append(make_words(rng, rng.randint(1, 4)) + ending + "\n"
                                 + opening + make_words(rng, rng.randint(1, 4)))
            assert _containment_duplicate_ratio(texts, memo) == quadratic_duplicate_ratio(texts)
            seen += texts
        assert len({window for text in memo.holders for _, window in evaluation._windows(text)}) == 2
        assert sum(map(len, memo.holders.values())) > 50  # premise: many containments
        keys = [len(needles) for needles in memo._keyed.values()]
        assert sum(keys) > 10 and len(memo._unkeyed) > 60
        assert max(keys) <= evaluation.ANCHOR_HOLDERS

    def test_key_is_the_window_fewest_texts_have(self):
        """Questions that share their ending are keyed by their answers'
        openings, which differ."""
        texts = [f"question {i} ends: Answer in one word, please.\nanswer {i:03d} is this one"
                 for i in range(10)]
        memo = ContainmentMemo()
        memo.add(texts)
        width = evaluation.ANCHOR_WIDTH
        assert sorted(memo._keyed) == sorted(text[text.index("\n"):][: width + 1] for text in texts)

    def test_later_texts_hold_earlier_separators(self):
        """The first call is joined on ``\\0``, the second on ``\\x01``; later
        texts hold those characters, alone and inside others. The last call's
        new texts hold neither, so only the known texts rule both out."""
        memo = ContainmentMemo()
        calls = [
            ["ab", "b", "xab", "b"],
            ["\0", "a\0b", "ab", "b\0", "xab"],
            ["\x01", "a\0b\x01", "\0", "b", "\x01\0"],
            ["\0", "\x01", "xyz", "pqrs", "ab"],
        ]
        for texts in calls:
            assert _containment_duplicate_ratio(texts, memo) == quadratic_duplicate_ratio(texts)
        assert memo.holders["\0"] and memo.holders["\x01"]

    def test_each_scored_text_enters_the_memo_once_per_run(
        self, bench_corpora, tmp_path, monkeypatch
    ):
        memos = record_memos(monkeypatch)
        scored: list[list[str]] = []
        components = evaluation.proxy_components

        def recording(dataset, *args):
            scored.append([sample.combined_text for sample in dataset])
            return components(dataset, *args)

        monkeypatch.setattr(evaluation, "proxy_components", recording)
        save_dataset(bench_corpora["distinct-3k"], tmp_path / "corpus.jsonl")
        config = {"dataset": str(tmp_path / "corpus.jsonl"), "seed": 0, "sampling_rate": 0.2}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        args = ["run", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "run")]
        assert cli.main(args) == 0
        distinct = {text for texts in scored for text in texts if text}
        # premise: the evaluations share most of their texts
        assert len(scored) >= 5 and sum(len(set(texts)) for texts in scored) > 2 * len(distinct)
        entered = Counter(text for _, _, texts in memos for text in texts)
        assert set(entered) == distinct and set(entered.values()) == {1}
        assert [held for _, held, _ in memos] == [0]

    def test_memo_lives_one_search_or_one_direct_score(self, tmp_path, monkeypatch):
        memos = record_memos(monkeypatch)
        corpus = messy_test_corpus(6)
        for name in ("first", "second"):
            cache = StrategyCache(tmp_path / name, OperatorConfig().digest(), seed=0)
            ctx = ExecutionContext.with_defaults(OperatorConfig(), cache=cache, agent=HillClimbAgent())
            run_search(corpus, RunConfig(sampling_rate=0.5), ctx)
        assert len(memos) == 2
        assert [held for _, held, _ in memos] == [0, 0]
        memos.clear()
        proxy_score(corpus)
        proxy_score(corpus)
        gc.collect()
        assert [(ref(), held) for ref, held, _ in memos] == [(None, 0), (None, 0)]


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
            assert {"round", "score", "result_fingerprint", "wall_time_s", "cache_hits"} <= set(event)


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

    def test_missing_trainer_is_error(self):
        ctx = proxy_ctx()
        with pytest.raises(EvaluationError):
            evaluate_strategy(EMPTY_STRATEGY, clean_corpus(4), self._eval_cfg(), ctx)
