from __future__ import annotations

import json
import logging
import math
import random

import pytest

from pipecraft.agent import (
    _REPROMPT_MESSAGE,
    BEST_TEAM_MARKER,
    NO_PROCESSING_MARKER,
    AgentResponseError,
    HillClimbAgent,
    Round,
    SearchError,
    build_initial_prompt,
    build_iteration_prompt,
    compute_feedback,
    parse_agent_response,
    run_search,
)
from pipecraft.cache import StrategyCache
from pipecraft.clients import ClientError, EmbeddingClient, TrainerClient
from pipecraft.config import EvalConfig, OperatorConfig, RunConfig, TrainerConfig
from pipecraft.corpus import Dataset, Sample
from pipecraft.evaluation import RunLog
from pipecraft.operators import ExecutionContext, apply_strategy
from pipecraft.strategy import EMPTY_STRATEGY, Strategy, Team
from pipecraft.synthetic import messy_corpus
from tests.scripted_clients import ScriptedAgent
from tests.test_operators import messy_test_corpus

C, O, G, S = Team.CLEANING, Team.OPTIMIZATION, Team.GENERATION, Team.SELECTION

ALL_TEAM_NAMES = [team.prompt_name for team in Team]


class TestInitialPrompt:
    def test_each_team_named_exactly_once(self):
        prompt = build_initial_prompt()
        for name in ALL_TEAM_NAMES:
            assert prompt.count(name) == 1

    def test_group_size_injected(self):
        assert "no more than 2" in build_initial_prompt(group_size_limit=2)

    def test_contains_output_format_marker(self):
        assert "###Combination[" in build_initial_prompt()


def one_round_history() -> list[Round]:
    strategies = (Strategy((C,)), Strategy((O,)), Strategy((G,)), Strategy((S,)))
    scores = (0.53, 0.47, 0.55, 0.50)
    relatives = (0.03, -0.03, 0.05, 0.0)
    return [Round(1, strategies, scores, relatives)]


class TestIterationPrompt:
    def test_lists_all_pairs(self):
        prompt = build_iteration_prompt(one_round_history(), 2)
        assert prompt.count("Feedback Score:") == 4

    def test_negative_score_rendered_with_sign(self):
        prompt = build_iteration_prompt(one_round_history(), 2)
        assert "Feedback Score: -0.0300" in prompt
        assert "negative values" in prompt

    def test_round_number_stated(self):
        assert "Round 3" in build_iteration_prompt(one_round_history(), 3)

    def test_requires_history(self):
        with pytest.raises(ValueError):
            build_iteration_prompt([], 2)


class TestComputeFeedback:
    def test_hand_cases(self):
        assert compute_feedback(0.62, 0.50) == pytest.approx(0.12)
        assert compute_feedback(0.5, 0.5) == 0.0
        assert compute_feedback(0.40, 0.50) == pytest.approx(-0.10)

    def test_exact_difference_on_random_pairs(self):
        rng = random.Random(2)
        for _ in range(1000):
            r_k, r_0 = rng.random(), rng.random()
            assert compute_feedback(r_k, r_0) == r_k - r_0

    def test_argmax_invariant_under_constant_shift(self):
        rng = random.Random(3)
        for _ in range(200):
            scores = [rng.random() for _ in range(5)]
            r_0 = rng.random()
            shift = rng.uniform(-10, 10)
            base = [compute_feedback(r, r_0) for r in scores]
            shifted = [compute_feedback(r + shift, r_0 + shift) for r in scores]
            assert base.index(max(base)) == shifted.index(max(shifted))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            compute_feedback(float("inf"), 0.5)
        with pytest.raises(ValueError):
            compute_feedback(0.5, float("nan"))


class TestParseAgentResponse:
    def test_two_blocks_propose_group(self):
        text = (
            "###Combination[1]###\nData Cleaning Team\n\n"
            "###Combination[2]###\nData Cleaning Team, Data Generation Team\n\n"
            "###Reasons for Different Combinations###\nexploring\n"
        )
        decision = parse_agent_response(text)
        assert decision.kind == "propose"
        assert [s.canonical() for s in decision.strategies] == [
            "Cleaning",
            "Cleaning -> Generation",
        ]

    def test_no_processing_marker_wins_regardless(self):
        text = (
            "###Combination[1]###\nData Cleaning Team\n"
            + NO_PROCESSING_MARKER
            + "\nsome trailing prose"
        )
        assert parse_agent_response(text).kind == "no_processing"

    def test_best_team_with_inline_combination(self):
        text = f"{BEST_TEAM_MARKER} ###Combination[1]###\n• Data Cleaning Team, Data Selection Team"
        decision = parse_agent_response(text)
        assert decision.kind == "best_team"
        assert decision.strategies[0].teams == (C, S)

    def test_best_team_marker_after_blocks(self):
        text = (
            "###Combination[1]###\nData Optimization Team\n\n"
            f"{BEST_TEAM_MARKER}\n###Combination[1]###\nData Optimization Team\n"
        )
        decision = parse_agent_response(text)
        assert decision.kind == "best_team"
        assert decision.strategies[0].teams == (O,)

    def test_duplicates_within_group_dropped(self):
        text = (
            "###Combination[1]###\nData Cleaning Team\n\n"
            "###Combination[2]###\nCleaning\n"
        )
        decision = parse_agent_response(text)
        assert len(decision.strategies) == 1

    def test_garbage_is_parse_error(self):
        with pytest.raises(AgentResponseError):
            parse_agent_response("the weather is lovely today")

    def test_malformed_block_skipped_good_block_kept(self):
        text = (
            "###Combination[1]###\nData Cooking Team\n\n"
            "###Combination[2]###\nData Selection Team\n"
        )
        decision = parse_agent_response(text)
        assert [s.canonical() for s in decision.strategies] == ["Selection"]

    def test_block_ends_at_the_next_heading(self):
        text = (
            "###Combination[1]###\nData Selection Team\n\n"
            "###Combination[2]###\nData Cooking Team\n\n"
            "###Reasons for Different Combinations###\nData Cleaning Team\n"
        )
        decision = parse_agent_response(text)
        assert [s.canonical() for s in decision.strategies] == ["Selection"]


class TestHillClimbAgent:
    def test_initial_round_proposes_singletons(self):
        agent = HillClimbAgent()
        reply = agent.complete(
            [{"role": "user", "content": build_initial_prompt(4)}], 0.6, 0
        )
        decision = parse_agent_response(reply)
        assert decision.kind == "propose"
        assert [s.teams for s in decision.strategies] == [(C,), (O,), (G,), (S,)]

    def test_near_zero_round_emits_no_processing(self):
        history = [
            Round(
                1,
                (Strategy((C,)), Strategy((O,))),
                (0.501, 0.4999),
                (0.001, -0.0001),
            )
        ]
        prompt = build_iteration_prompt(history, 2)
        reply = HillClimbAgent().complete([{"role": "user", "content": prompt}], 0.6, 0)
        assert NO_PROCESSING_MARKER in reply

    def test_no_improvement_emits_best_team(self):
        history = [
            Round(1, (Strategy((C,)),), (0.6,), (0.1,)),
            Round(2, (Strategy((C, O)),), (0.55,), (0.05,)),
        ]
        prompt = build_iteration_prompt(history, 3)
        reply = HillClimbAgent().complete([{"role": "user", "content": prompt}], 0.6, 0)
        decision = parse_agent_response(reply)
        assert decision.kind == "best_team"
        assert decision.strategies[0].teams == (C,)

    def test_improvement_extends_best(self):
        history = [Round(1, (Strategy((C,)), Strategy((S,))), (0.6, 0.5), (0.1, 0.0))]
        prompt = build_iteration_prompt(history, 2)
        decision = parse_agent_response(
            HillClimbAgent().complete([{"role": "user", "content": prompt}], 0.6, 0)
        )
        assert decision.kind == "propose"
        assert [s.teams for s in decision.strategies] == [(C, O), (C, G), (C, S)]

    @staticmethod
    def reply_to(history: list[Round]) -> str:
        prompt = build_iteration_prompt(history, len(history) + 1)
        return HillClimbAgent().complete([{"role": "user", "content": prompt}], 0.6, 0)

    def test_tied_best_extends_the_earliest(self):
        history = [Round(1, (Strategy((S,)), Strategy((C,))), (0.6, 0.6), (0.1, 0.1))]
        decision = parse_agent_response(self.reply_to(history))
        assert [s.teams for s in decision.strategies] == [(S, C), (S, O), (S, G)]

    def test_evaluated_extensions_not_proposed_again(self):
        history = [Round(1, (Strategy((C,)), Strategy((C, O))), (0.6, 0.5), (0.1, 0.0))]
        decision = parse_agent_response(self.reply_to(history))
        assert [s.teams for s in decision.strategies] == [(C, G), (C, S)]

    def test_full_strategy_is_declared_best(self):
        full = Strategy((C, O, G, S))
        history = [Round(1, (full, Strategy((C,))), (0.7, 0.6), (0.2, 0.1))]
        decision = parse_agent_response(self.reply_to(history))
        assert decision.kind == "best_team"
        assert decision.strategies == (full,)

    @pytest.mark.parametrize("prompt, reason", [
        ("Propose no more than 2 combinations.",
         "Starting with single-team combinations to measure individual effects."),
        ("Round 1 results:\n\n1. ###Combination[1]###\nData Cooking Team\n"
         "Feedback Score: +0.1000\n\nPropose no more than 2 combinations.",
         "No readable feedback; restarting exploration."),
    ], ids=["no-feedback", "unreadable-feedback"])
    def test_singles_when_no_feedback_is_read(self, prompt, reason):
        reply = HillClimbAgent().complete([{"role": "user", "content": prompt}], 0.6, 0)
        assert reply.endswith("###Reasons for Different Combinations###\n" + reason)
        assert [s.teams for s in parse_agent_response(reply).strategies] == [(C,), (O,)]


class FingerprintTrainer(TrainerClient):
    """Scores a processed dataset by looking up its content fingerprint."""

    def __init__(self, table: dict[str, float], default: float = 0.1):
        self.table = table
        self.default = default
        self.seen: list[str] = []

    def evaluate(self, dataset_path, base_model, epochs, validation_set):
        from pipecraft.corpus import load_dataset

        fingerprint = load_dataset(dataset_path).fingerprint
        self.seen.append(fingerprint)
        return self.table.get(fingerprint, self.default)


def trainer_run_cfg(**overrides) -> RunConfig:
    defaults = dict(
        sampling_rate=1.0,
        evaluation=EvalConfig(mode="trainer", trainer=TrainerConfig(base_model="m")),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def read_log(log: RunLog) -> list[dict]:
    return [json.loads(line) for line in log.path.read_text(encoding="utf-8").splitlines()]


def make_search_ctx(tmp_path, agent, trainer=None, run_log=None) -> ExecutionContext:
    cache = StrategyCache(tmp_path / "cache", OperatorConfig().digest(), seed=0)
    return ExecutionContext.with_defaults(
        OperatorConfig(), cache=cache, agent=agent, trainer=trainer, run_log=run_log
    )


def fingerprint_of(strategy: Strategy, corpus: Dataset) -> str:
    return apply_strategy(strategy, corpus, ExecutionContext.with_defaults(OperatorConfig())).fingerprint


def convergence_corpus() -> Dataset:
    """Every team changes bytes at every trajectory step: missing-answer
    samples survive cleaning and selection, so Optimization (meta flags) and
    Generation (filled answers) stay distinguishable from their prefixes."""
    from tests.conftest import clean_sample, make_words

    rng = random.Random(77)
    samples = []
    for i in range(6):
        samples.append(clean_sample(f"ok{i}", rng))
    for i in range(10):
        samples.append(
            Sample(id=f"miss{i}", question=make_words(rng, 30) + f" mq{i}", answer="")
        )
    for i in range(3):
        bad = clean_sample(f"bad{i}", rng)
        samples.append(bad.with_fields(answer=bad.answer + " " + "#" * 150))
    samples.append(Sample(id="dup", question=samples[0].question, answer=samples[0].answer))
    return Dataset.from_samples(samples)


class TestRunSearch:
    def test_immediate_no_processing(self, tmp_path):
        corpus = messy_test_corpus(0)
        agent = ScriptedAgent([NO_PROCESSING_MARKER])
        ctx = make_search_ctx(tmp_path, agent)
        result = run_search(corpus, RunConfig(sampling_rate=1.0), ctx)
        assert result.best_strategy == EMPTY_STRATEGY
        assert result.rounds_executed == 1
        assert result.termination_reason == "no-processing"

    def test_converges_to_unique_top_strategy(self, tmp_path):
        """Landscape built so Cleaning -> Selection holds the unique top score;
        the hill climber must reach it within the five-round budget."""
        corpus = convergence_corpus()
        table = {
            fingerprint_of(EMPTY_STRATEGY, corpus): 0.50,
            fingerprint_of(Strategy((C,)), corpus): 0.70,
            fingerprint_of(Strategy((O,)), corpus): 0.55,
            fingerprint_of(Strategy((G,)), corpus): 0.52,
            fingerprint_of(Strategy((S,)), corpus): 0.60,
            fingerprint_of(Strategy((C, O)), corpus): 0.72,
            fingerprint_of(Strategy((C, G)), corpus): 0.71,
            fingerprint_of(Strategy((C, S)), corpus): 0.90,
            fingerprint_of(Strategy((C, S, O)), corpus): 0.80,
            fingerprint_of(Strategy((C, S, G)), corpus): 0.80,
        }
        assert len(table) == 10  # premise: these strategies all change bytes
        trainer = FingerprintTrainer(table)
        ctx = make_search_ctx(tmp_path, HillClimbAgent(), trainer=trainer)
        result = run_search(corpus, trainer_run_cfg(), ctx)
        assert result.best_strategy.teams == (C, S)
        assert result.best_score == 0.90
        assert result.termination_reason == "best-team"
        assert result.rounds_executed <= 5

    def test_budget_exhaustion_argmax_with_tie_break(self, tmp_path):
        corpus = messy_test_corpus(2)
        # the agent proposes the same tied pair every round and never stops
        group = "###Combination[1]###\nCleaning\n\n###Combination[2]###\nOptimization\n"
        agent = ScriptedAgent([group] * 5)
        table = {
            fingerprint_of(EMPTY_STRATEGY, corpus): 0.40,
            fingerprint_of(Strategy((C,)), corpus): 0.80,
            fingerprint_of(Strategy((O,)), corpus): 0.80,
        }
        ctx = make_search_ctx(tmp_path, agent, trainer=FingerprintTrainer(table))
        result = run_search(corpus, trainer_run_cfg(max_rounds=3), ctx)
        assert result.termination_reason == "budget"
        assert result.rounds_executed == 3
        # tie at 0.80 breaks to the earliest evaluation: Cleaning, group slot 1
        assert result.best_strategy.teams == (C,)

    def test_budget_with_all_negative_returns_empty(self, tmp_path):
        corpus = messy_test_corpus(3)
        group = "###Combination[1]###\nSelection\n"
        agent = ScriptedAgent([group] * 2)
        table = {
            fingerprint_of(EMPTY_STRATEGY, corpus): 0.90,
            fingerprint_of(Strategy((S,)), corpus): 0.10,
        }
        ctx = make_search_ctx(tmp_path, agent, trainer=FingerprintTrainer(table))
        result = run_search(corpus, trainer_run_cfg(max_rounds=2), ctx)
        assert result.best_strategy == EMPTY_STRATEGY

    def test_baseline_evaluated_exactly_once(self, tmp_path):
        corpus = messy_test_corpus(4)
        base_fp = fingerprint_of(EMPTY_STRATEGY, corpus)
        # round 1 proposes NONE alongside a real strategy: the baseline score
        # must be echoed, not recomputed
        group = "###Combination[1]###\nNONE\n\n###Combination[2]###\nCleaning\n"
        agent = ScriptedAgent([group, f"{BEST_TEAM_MARKER}\n###Combination[1]###\nCleaning\n"])
        trainer = FingerprintTrainer({base_fp: 0.5})
        ctx = make_search_ctx(tmp_path, agent, trainer=trainer)
        result = run_search(corpus, trainer_run_cfg(), ctx)
        assert trainer.seen.count(base_fp) == 1
        assert result.rounds_executed == 2

    def test_round_budget_respected(self, tmp_path):
        corpus = messy_test_corpus(5)
        agent = ScriptedAgent(["###Combination[1]###\nCleaning\n"] * 10)
        ctx = make_search_ctx(tmp_path, agent, trainer=FingerprintTrainer({}))
        result = run_search(corpus, trainer_run_cfg(max_rounds=4), ctx)
        assert result.rounds_executed <= 4
        assert len(result.rounds) <= 4

    def test_reproducible_with_default_agent(self, tmp_path):
        corpus = messy_test_corpus(6)
        results = []
        for name in ("r1", "r2"):
            cache = StrategyCache(tmp_path / name, OperatorConfig().digest(), seed=0)
            ctx = ExecutionContext.with_defaults(OperatorConfig(), cache=cache, agent=HillClimbAgent())
            results.append(run_search(corpus, RunConfig(sampling_rate=0.5), ctx))
        a, b = results
        assert a.best_strategy == b.best_strategy
        assert a.best_score == b.best_score
        assert a.rounds == b.rounds
        assert a.sampled_fingerprint == b.sampled_fingerprint

    def test_feedback_identity_invariant(self, tmp_path):
        corpus = messy_test_corpus(6)
        ctx = make_search_ctx(tmp_path, HillClimbAgent())
        result = run_search(corpus, RunConfig(sampling_rate=1.0), ctx)
        for round_ in result.rounds:
            for score, relative in zip(round_.scores, round_.relative_scores):
                if math.isfinite(score):
                    assert relative == score - result.baseline_score

    def test_unparseable_reply_reprompts_then_aborts(self, tmp_path):
        corpus = messy_test_corpus(7)
        agent = ScriptedAgent(["gibberish", "more gibberish"])
        ctx = make_search_ctx(tmp_path, agent)
        with pytest.raises(SearchError):
            run_search(corpus, RunConfig(sampling_rate=1.0), ctx)
        assert agent.calls == 2

    def test_unparseable_reply_recovers_on_retry(self, tmp_path):
        corpus = messy_test_corpus(7)
        agent = ScriptedAgent(["gibberish", NO_PROCESSING_MARKER])
        ctx = make_search_ctx(tmp_path, agent)
        result = run_search(corpus, RunConfig(sampling_rate=1.0), ctx)
        assert result.termination_reason == "no-processing"

    def test_evaluator_failure_scores_minus_inf(self, tmp_path):
        corpus = messy_test_corpus(8)

        class ExplodingTrainer(TrainerClient):
            def evaluate(self, *args):
                raise RuntimeError("boom")

        group = "###Combination[1]###\nCleaning\n"
        agent = ScriptedAgent([group, NO_PROCESSING_MARKER])
        log = RunLog(tmp_path / "run_log.jsonl")
        ctx = make_search_ctx(tmp_path, agent, trainer=ExplodingTrainer(), run_log=log)
        with pytest.raises(SearchError):
            # the baseline evaluation itself fails: surfaced as a search error
            run_search(corpus, trainer_run_cfg(), ctx)


class TestRunSearchEvaluatorFailureMidRound:
    def test_failed_strategy_reported_not_fatal(self, tmp_path):
        corpus = messy_test_corpus(9)
        base_fp = fingerprint_of(EMPTY_STRATEGY, corpus)
        clean_fp = fingerprint_of(Strategy((C,)), corpus)

        class FlakyTrainer(TrainerClient):
            def evaluate(self, dataset_path, *args):
                from pipecraft.corpus import load_dataset

                fingerprint = load_dataset(dataset_path).fingerprint
                if fingerprint == base_fp:
                    return 0.5
                if fingerprint == clean_fp:
                    raise RuntimeError("transient gpu failure")
                return 0.6

        group = "###Combination[1]###\nCleaning\n\n###Combination[2]###\nSelection\n"
        agent = ScriptedAgent([group, NO_PROCESSING_MARKER])
        log = RunLog(tmp_path / "run_log.jsonl")
        ctx = make_search_ctx(tmp_path, agent, trainer=FlakyTrainer(), run_log=log)
        result = run_search(corpus, trainer_run_cfg(max_rounds=2), ctx)
        (first_round,) = result.rounds
        assert first_round.scores[0] == float("-inf")
        assert first_round.relative_scores[0] == float("-inf")
        assert first_round.scores[1] == 0.6
        assert any(r["event"] == "evaluation-error" for r in read_log(log))


class TestSearchLoop:
    def test_best_team_never_evaluated_is_scored_once(self, tmp_path):
        corpus = messy_test_corpus(10)
        selection = Strategy((S,))
        table = {
            fingerprint_of(EMPTY_STRATEGY, corpus): 0.50,
            fingerprint_of(Strategy((C,)), corpus): 0.60,
            fingerprint_of(selection, corpus): 0.55,
        }
        assert len(table) == 3  # premise: the three datasets differ
        agent = ScriptedAgent([
            "###Combination[1]###\nCleaning\n",
            f"{BEST_TEAM_MARKER}\n###Combination[1]###\nSelection\n",
        ])
        log = RunLog(tmp_path / "run_log.jsonl")
        ctx = make_search_ctx(tmp_path, agent, trainer=FingerprintTrainer(table), run_log=log)
        result = run_search(corpus, trainer_run_cfg(), ctx)
        events = [r for r in read_log(log)
                  if r["event"] == "evaluation" and r["strategy"] == "Selection"]
        assert [r["round"] for r in events] == [2]
        assert result.best_strategy == selection
        assert result.best_score == events[0]["score"] == 0.55
        assert result.termination_reason == "best-team"
        assert result.rounds_executed == 2
        assert [round_.strategies for round_ in result.rounds] == [(Strategy((C,)),)]

    def test_reprompt_conversation(self, tmp_path, caplog):
        agent = ScriptedAgent(["gibberish", NO_PROCESSING_MARKER])
        ctx = make_search_ctx(tmp_path, agent)
        run_cfg = RunConfig(sampling_rate=1.0)
        with caplog.at_level(logging.WARNING, logger="pipecraft.agent"):
            run_search(messy_test_corpus(7), run_cfg, ctx)
        prompt = {"role": "user", "content": build_initial_prompt(run_cfg.initial_group_size)}
        assert agent.messages == [
            [prompt],
            [prompt, {"role": "assistant", "content": "gibberish"},
             {"role": "user", "content": _REPROMPT_MESSAGE}],
        ]
        assert caplog.text.count("re-prompting once") == 1

    def test_second_unparseable_reply_aborts(self, tmp_path, caplog):
        agent = ScriptedAgent(["gibberish", "more gibberish"])
        ctx = make_search_ctx(tmp_path, agent)
        with caplog.at_level(logging.WARNING, logger="pipecraft.agent"):
            with pytest.raises(SearchError, match="^agent reply unparseable after re-prompt: "):
                run_search(messy_test_corpus(7), RunConfig(sampling_rate=1.0), ctx)
        assert caplog.text.count("re-prompting once") == 1

    @pytest.mark.parametrize("responses", [[], ["gibberish"]], ids=["first", "retry"])
    def test_agent_client_error_is_not_reprompted(self, tmp_path, responses):
        agent = ScriptedAgent(responses)
        ctx = make_search_ctx(tmp_path, agent)
        with pytest.raises(SearchError, match="^agent client failed: scripted agent ran out"):
            run_search(messy_test_corpus(7), RunConfig(sampling_rate=1.0), ctx)
        assert len(agent.messages) == len(responses) + 1

    def test_sampling_failure_is_search_error(self, tmp_path):
        class FailingEmbedder(EmbeddingClient):
            dimension = 8

            def embed(self, text):
                raise ClientError("embedder unreachable")

        ctx = ExecutionContext.with_defaults(
            OperatorConfig(), agent=HillClimbAgent(), embedder=FailingEmbedder()
        )
        with pytest.raises(SearchError, match="^sampling failed: .*embedder unreachable"):
            run_search(messy_test_corpus(0), RunConfig(sampling_rate=0.5), ctx)


class RecordingAgent(HillClimbAgent):
    """The hill climber, save that its first reply is unparseable; keeps every
    message it receives and every reply it sends."""

    def __init__(self) -> None:
        self.received: list[str] = []
        self.sent: list[str] = []

    def complete(self, messages, temperature, seed):
        self.received += [message["content"] for message in messages]
        reply = super().complete(messages, temperature, seed) if self.sent else "gibberish"
        self.sent.append(reply)
        return reply


def test_agent_never_sees_corpus_text(tmp_path):
    """The paper's privacy premise: the agent chooses strategies from their
    names and feedback scores alone. A canary in every id, every present
    question and answer (missing fields stay missing, so Generation still has
    work) and every meta value reaches no message the agent receives or sends."""
    canary = "zq7canary"
    corpus = Dataset.from_samples(
        Sample(id=f"{sample.id}-{canary}",
               question=sample.question and f"{sample.question} {canary}",
               answer=sample.answer and f"{sample.answer} {canary}",
               meta={"source": canary})
        for sample in messy_corpus(4))
    agent = RecordingAgent()
    ctx = make_search_ctx(tmp_path, agent)
    result = run_search(corpus, RunConfig(sampling_rate=0.5), ctx)
    assert agent.sent[0] == "gibberish" and _REPROMPT_MESSAGE in agent.received
    assert len(result.rounds) >= 2  # the agent saw feedback, not only the first prompt
    final = apply_strategy(result.best_strategy, corpus, ctx)
    assert any(canary in sample.canonical for sample in final)  # the canary survives processing
    for message in agent.received + agent.sent:
        assert canary not in message.lower()
