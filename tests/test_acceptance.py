"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and holding its stated runtime budget. Everything runs with
the deterministic default clients only."""
from __future__ import annotations

import io
import itertools
import json
import random
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np

from pipecraft.agent import HillClimbAgent, run_search
from pipecraft.cache import StrategyCache
from pipecraft.cli import main
from pipecraft.config import OperatorConfig, RunConfig
from pipecraft.corpus import Dataset, Sample, save_dataset
from pipecraft.evaluation import proxy_score
from pipecraft.operators import (
    ExecutionContext,
    apply_strategy,
    duplicate_pairs,
    sample_shingle_text,
)
from pipecraft.sampling import greedy_select, stratified_sample
from pipecraft.screener import Screener
from pipecraft.clients import HashingEmbedder
from pipecraft.strategy import EMPTY_STRATEGY, Strategy, Team, enumerate_space, parse_strategy
from pipecraft.synthetic import landscape_generation, messy_corpus
from tests.conftest import clean_sample, lines, make_words
from tests.landscapes import landscape_cleaning, landscape_optimization, perfect_corpus
from tests.test_agent import compute_feedback
from tests.test_cache import brute_force_longest_prefix
from tests.test_operators import exact_jaccard
from tests.test_sampling import greedy_select_bruteforce, mixed_corpus

C, O, G, S = Team.CLEANING, Team.OPTIMIZATION, Team.GENERATION, Team.SELECTION


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE {number:02d}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    status = "PASS" if elapsed < budget_s else "FAIL (over budget)"
    print(f"[ACCEPTANCE {number:02d}] {name}: {status} ({elapsed:.2f}s / {budget_s:.0f}s)")
    assert elapsed < budget_s


def fresh_ctx(**overrides) -> ExecutionContext:
    return ExecutionContext.with_defaults(OperatorConfig(), **overrides)


def synthetic_corpus_200(seed: int = 0) -> Dataset:
    """200-sample corpus mixing clean, duplicate, markup, special-character,
    repetition, and missing-field records."""
    rng = random.Random(seed)
    samples: list[Sample] = []
    for i in range(120):
        samples.append(clean_sample(f"ok{i:03d}", rng))
    for i in range(20):
        original = samples[i * 3]
        samples.append(Sample(id=f"dup{i:02d}", question=original.question, answer=original.answer))
    for i in range(20):
        base = clean_sample(f"mk{i:02d}", rng)
        samples.append(base.with_fields(answer="<div>" + base.answer + "</div>"))
    for i in range(15):
        base = clean_sample(f"sp{i:02d}", rng)
        samples.append(base.with_fields(answer=base.answer + " " + "#" * 160))
    for i in range(15):
        samples.append(Sample(id=f"ms{i:02d}", question=make_words(rng, 25) + f" m{i}", answer=""))
    for i in range(10):
        samples.append(Sample(id=f"rep{i:02d}", question=make_words(rng, 12) + f" r{i}",
                              answer=f"loop{i} " * 40))
    rng.shuffle(samples)
    return Dataset.from_samples(samples)


def test_criterion_01_search_space_count():
    with criterion(1, "search-space count (4+12+24+24+1)", 1.0):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert main(["enumerate"]) == 0
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == 65
        assert len(set(lines)) == 65
        by_length: dict[int, int] = {}
        for line in lines:
            length = 0 if line == "NONE" else line.count("->") + 1
            by_length[length] = by_length.get(length, 0) + 1
        assert by_length == {0: 1, 1: 4, 2: 12, 3: 24, 4: 24}
        # cross-check against an independent permutation generator
        brute: set[tuple] = set()
        for r in range(5):
            brute.update(itertools.permutations([t.value for t in Team], r))
        assert {tuple(() if line == "NONE" else line.split(" -> ")) for line in lines} == brute


def test_criterion_02_feedback_identity():
    with criterion(2, "feedback identity and shift invariance", 1.0):
        rng = random.Random(20)
        for _ in range(1000):
            r_k, r_0 = rng.uniform(0, 1), rng.uniform(0, 1)
            assert compute_feedback(r_k, r_0) == r_k - r_0
        for _ in range(200):
            group = [rng.uniform(0, 1) for _ in range(6)]
            r_0 = rng.uniform(0, 1)
            shift = rng.uniform(-100, 100)
            before = [compute_feedback(r, r_0) for r in group]
            after = [compute_feedback(r + shift, r_0 + shift) for r in group]
            assert before.index(max(before)) == after.index(max(after))


def test_criterion_03_prefix_reuse_soundness(tmp_path):
    with criterion(3, "prefix-reuse soundness vs from-scratch oracle", 60.0):
        corpus = synthetic_corpus_200()
        cache = StrategyCache(tmp_path / "cache", OperatorConfig().digest(), seed=0)
        space = [f for f in enacted_space()]
        rng = random.Random(30)
        direct_results: dict[str, str] = {}
        for trial in range(200):
            f = rng.choice(space)
            query_oracle = brute_force_longest_prefix(cache, f, corpus.fingerprint)
            got = cache.find_longest_prefix(f, corpus.fingerprint)
            if query_oracle is None:
                assert got is None
            else:
                assert got is not None
                assert len(parse_strategy(got[0].strategy)) == len(
                    parse_strategy(query_oracle.strategy)
                )
            reused = cache.apply_with_reuse(f, corpus, fresh_ctx(cache=cache))
            key = f.canonical()
            if key not in direct_results:
                direct = apply_strategy(f, corpus, fresh_ctx())
                direct_results[key] = direct.fingerprint
                assert lines(reused) == lines(direct)
            assert reused.fingerprint == direct_results[key]


def enacted_space() -> list[Strategy]:
    return [f for f in enumerate_space() if f != EMPTY_STRATEGY]


def test_criterion_04_prefix_reuse_savings(tmp_path):
    with criterion(4, "prefix-reuse invocation savings <= 50%", 60.0):
        corpus = synthetic_corpus_200(seed=1)
        schedule = [
            [Strategy((C,)), Strategy((O,)), Strategy((G,)), Strategy((S,))],
            [Strategy((C, O)), Strategy((C, G)), Strategy((C, S))],
            [Strategy((C, O, G)), Strategy((C, O, S))],
            [Strategy((C, O, G, S))],
        ]
        cache = StrategyCache(tmp_path / "cache", OperatorConfig().digest(), seed=0)
        ctx = fresh_ctx(cache=cache)
        for round_group in schedule:
            for f in round_group:
                cache.apply_with_reuse(f, corpus, ctx)
        with_reuse = ctx.total_invocations()
        without_reuse = sum(len(f) for group in schedule for f in group)
        ratio = with_reuse / without_reuse
        print(
            f"  team invocations: {with_reuse} with reuse vs {without_reuse} without "
            f"(ratio {ratio:.3f}, saved {cache.stats()['team_invocations_saved']})"
        )
        assert ratio <= 0.5


def test_criterion_05_greedy_and_stratified_oracle():
    with criterion(5, "greedy selection oracle and noisy-fraction preservation", 60.0):
        rng = np.random.default_rng(50)
        for _ in range(500):
            count = int(rng.integers(1, 21))
            n = int(rng.integers(0, min(count, 8) + 1))
            vectors = rng.normal(size=(count, int(rng.integers(2, 8))))
            assert greedy_select(vectors, n) == greedy_select_bruteforce(vectors, n)
        trials = random.Random(51)
        done = 0
        while done < 100:
            n = trials.randint(4, 50)
            n_noisy = trials.randint(0, n)
            rate = trials.choice([0.1, 0.2, 0.25, 0.4, 0.5])
            corpus = mixed_corpus(n, n_noisy, seed=600 + done)
            sampled = stratified_sample(corpus, rate, Screener(), HashingEmbedder())
            if len(sampled) == 0:
                continue
            done += 1
            fraction_in = n_noisy / n
            fraction_out = sum(1 for s in sampled if s.answer == "") / len(sampled)
            assert abs(fraction_out - fraction_in) <= 1.0 / len(sampled) + 1e-12


def test_criterion_06_clean_samples_untouched():
    with criterion(6, "clean/noisy routing leaves clean samples byte-identical", 10.0):
        rng = random.Random(60)
        cleans = [clean_sample(f"c{i:02d}", rng) for i in range(30)]
        noisies = []
        for i in range(10):
            if i % 2 == 0:
                noisies.append(Sample(id=f"n{i}", question=make_words(rng, 25) + f" n{i}", answer=""))
            else:
                base = clean_sample(f"n{i}", rng)
                noisies.append(base.with_fields(answer="<b>" + base.answer + "</b>"))
        interleaved = []
        for position, sample in enumerate(cleans):
            interleaved.append(sample)
            if position < len(noisies):
                interleaved.append(noisies[position])
        corpus = Dataset.from_samples(interleaved)
        clean_ids = {s.id for s in cleans}
        from pipecraft.operators import apply_team

        for team in (Team.OPTIMIZATION, Team.GENERATION):
            ctx = fresh_ctx()
            out = apply_team(team, corpus, ctx)
            assert len(out) == len(corpus)
            for before, after in zip(corpus, out):
                if before.id in clean_ids:
                    assert after == before, f"{team} touched clean sample {before.id}"
            # model clients were called only for noisy samples
            model_calls = ctx.optimizer.calls + ctx.generator.calls
            assert model_calls <= 2 * len(noisies)
            assert model_calls > 0


def test_criterion_07_dedup_vs_exact_jaccard():
    with criterion(7, "near-duplicate decisions vs exact-Jaccard oracle", 30.0):
        cfg = OperatorConfig()
        threshold = cfg.minhash.jaccard_threshold
        n_pairs, words = 50, 40
        samples = []
        for p in range(n_pairs):
            original = [f"p{p:02d}x{k:03d}" for k in range(words)]
            keep = round(words * p / (n_pairs - 1))
            variant = original[:keep] + [f"p{p:02d}y{k:03d}" for k in range(keep, words)]
            samples.append(Sample(id=f"o{p:02d}", question="q", answer=" ".join(original)))
            samples.append(Sample(id=f"v{p:02d}", question="q", answer=" ".join(variant)))
        corpus = Dataset.from_samples(samples)
        assert len(corpus) == 100
        flagged = duplicate_pairs(corpus, cfg)
        texts = [sample_shingle_text(s) for s in corpus]
        checked = agreements = 0
        for i, j in itertools.combinations(range(len(corpus)), 2):
            exact = exact_jaccard(texts[i], texts[j])
            if threshold - 0.1 <= exact <= threshold + 0.1:
                continue
            checked += 1
            agreements += ((i, j) in flagged) == (exact >= threshold)
        print(f"  {agreements}/{checked} out-of-band pairs agree "
              f"({agreements / checked:.4f})")
        assert checked > 1000
        assert agreements / checked >= 0.9


def _exhaustive_best_score(corpus: Dataset, run_cfg: RunConfig) -> float:
    best = 0.0
    for f in enumerate_space():
        processed = apply_strategy(f, corpus, fresh_ctx())
        score = proxy_score(processed, run_cfg.evaluation.proxy_weights, run_cfg.operators)
        best = max(best, score)
    return best


def test_criterion_08_convergence_on_landscapes(tmp_path):
    with criterion(8, "search convergence on three synthetic landscapes", 120.0):
        run_cfg = RunConfig(sampling_rate=1.0)
        landscapes = {
            "cleaning": landscape_cleaning(),
            "generation": landscape_generation(),
            "optimization": landscape_optimization(),
        }
        hits = 0
        for name, corpus in landscapes.items():
            cache = StrategyCache(tmp_path / name, run_cfg.operators.digest(), run_cfg.seed)
            ctx = fresh_ctx(cache=cache, agent=HillClimbAgent())
            result = run_search(corpus, run_cfg, ctx)
            assert result.termination_reason in ("best-team", "budget")
            assert result.rounds_executed <= 5
            oracle_best = _exhaustive_best_score(corpus, run_cfg)
            attained = abs(result.best_score - oracle_best) <= 1e-9
            hits += attained
            print(
                f"  {name}: {result.best_strategy.canonical()} "
                f"score {result.best_score:.4f} vs oracle max {oracle_best:.4f} "
                f"in {result.rounds_executed} rounds "
                f"[{'argmax attained' if attained else 'missed'}]"
            )
        assert hits >= 2


def test_criterion_09_no_processing_path(tmp_path):
    with criterion(9, "near-zero feedback terminates with no-processing", 30.0):
        corpus = perfect_corpus(60)
        run_cfg = RunConfig()  # default 20% sampling
        cache = StrategyCache(tmp_path / "cache", run_cfg.operators.digest(), run_cfg.seed)
        ctx = fresh_ctx(cache=cache, agent=HillClimbAgent())
        result = run_search(corpus, run_cfg, ctx)
        assert result.termination_reason == "no-processing"
        assert result.best_strategy == EMPTY_STRATEGY
        assert result.rounds_executed <= 5


def test_criterion_10_end_to_end_determinism(tmp_path):
    with criterion(10, "byte-identical runs under a fixed seed", 120.0):
        corpus_path = tmp_path / "corpus.jsonl"
        save_dataset(messy_corpus(seed=10), corpus_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"dataset": str(corpus_path), "sampling_rate": 0.2, "seed": 3}),
            encoding="utf-8",
        )
        for run in ("r1", "r2"):
            assert main(["run", "--config", str(config_path),
                         "--out", str(tmp_path / run)]) == 0
        report_1 = (tmp_path / "r1" / "report.json").read_bytes()
        report_2 = (tmp_path / "r2" / "report.json").read_bytes()
        final_1 = (tmp_path / "r1" / "final_dataset.jsonl").read_bytes()
        final_2 = (tmp_path / "r2" / "final_dataset.jsonl").read_bytes()
        assert report_1 == report_2
        assert final_1 == final_2
