"""Strategy-generation loop: prompts, response parsing, feedback, and rounds.

Each round the agent receives every previously evaluated combination with
its feedback score (the difference against the unprocessed baseline) and
either proposes a new group of combinations or terminates with one of two
markers: 【Best Team】 naming the winning combination, or
【No Processing Required for Original Data】 when nothing helps.

The default agent is a deterministic hill climber that reads the same
prompts a hosted model would: it extends the best combination seen so far by
one team at a time and stops when a round brings no strict improvement.
"""
from __future__ import annotations

import logging
import math
import re
from contextlib import suppress
from dataclasses import dataclass
from importlib import resources

from .clients import AgentClient, ClientError
from .config import RunConfig
from .corpus import Dataset
from .evaluation import EvaluationError, evaluate_strategy
from .operators import ExecutionContext
from .sampling import EmbeddingError, stratified_sample
from .strategy import (
    EMPTY_STRATEGY,
    MAX_TEAMS,
    Strategy,
    StrategyParseError,
    TEAM_ORDER,
    parse_strategy,
)

logger = logging.getLogger(__name__)

BEST_TEAM_MARKER = "【Best Team】"
NO_PROCESSING_MARKER = "【No Processing Required for Original Data】"

NEAR_ZERO_EPSILON = 0.005

TERMINATION_BEST_TEAM = "best-team"
TERMINATION_NO_PROCESSING = "no-processing"
TERMINATION_BUDGET = "budget"

_COMBINATION_MARKER_RE = re.compile(r"###Combination\[(\d+)\]###")
_FEEDBACK_PAIR_RE = re.compile(r"###Combination\[\d+\]###\s*\n([^\n]+)\nFeedback Score:\s*(\S+)")
_ROUND_HEADER_RE = re.compile(r"Round (\d+) results:")
_GROUP_LIMIT_RE = re.compile(r"no more than (\d+)")


class AgentResponseError(ValueError):
    """The agent reply contained no terminal marker and no parseable combination."""


class SearchError(RuntimeError):
    """The search loop could not continue: sampling, the baseline evaluation
    or the agent failed."""


@dataclass(frozen=True)
class Round:
    """One search iteration: the strategy group with raw and relative scores."""

    index: int
    strategies: tuple[Strategy, ...]
    scores: tuple[float, ...]
    relative_scores: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.strategies) == len(self.scores) == len(self.relative_scores)):
            raise ValueError("round fields must be aligned")


@dataclass(frozen=True)
class AgentDecision:
    kind: str  # "propose" | "best_team" | "no_processing"
    strategies: tuple[Strategy, ...]


@dataclass(frozen=True)
class SearchResult:
    best_strategy: Strategy
    best_score: float
    baseline_score: float
    rounds: tuple[Round, ...]
    termination_reason: str
    rounds_executed: int
    sampled_fingerprint: str


def compute_feedback(r_k: float, r_0: float) -> float:
    """Relative score of a strategy against the unprocessed baseline."""
    if not (math.isfinite(r_k) and math.isfinite(r_0)):
        raise ValueError("feedback requires finite scores")
    return r_k - r_0


def _load_template(name: str) -> str:
    return (
        resources.files("pipecraft").joinpath("templates").joinpath(name).read_text("utf-8")
    )


def render_template(template: str, mapping: dict[str, object]) -> str:
    for key, value in mapping.items():
        template = template.replace("{" + key + "}", str(value))
    return template


def build_initial_prompt(group_size_limit: int = 4) -> str:
    return render_template(
        _load_template("initial.txt"),
        {"group_size_limit": group_size_limit, "round": 1},
    )


def format_round_feedback(history: list[Round] | tuple[Round, ...]) -> str:
    blocks: list[str] = []
    for round_ in history:
        lines = [f"Round {round_.index} results:", ""]
        for position, (strategy, relative) in enumerate(
            zip(round_.strategies, round_.relative_scores), start=1
        ):
            lines.append(f"{position}. ###Combination[{position}]###")
            lines.append(strategy.prompt_form())
            lines.append(f"Feedback Score: {relative:+.4f}")
            lines.append("")
        blocks.append("\n".join(lines))
    return "\n".join(blocks).rstrip()


def build_iteration_prompt(
    history: list[Round] | tuple[Round, ...],
    round_index: int,
    group_size_limit: int = 6,
) -> str:
    if not history:
        raise ValueError("iteration prompt requires at least one completed round")
    return render_template(
        _load_template("iteration.txt"),
        {
            "round": round_index,
            "group_size_limit": group_size_limit,
            "combinations_with_scores": format_round_feedback(history),
        },
    )


def _extract_combinations(text: str) -> list[Strategy]:
    """Parse every combination block; malformed blocks are skipped with a warning."""
    strategies: list[Strategy] = []
    segments = _COMBINATION_MARKER_RE.split(text)
    # split() yields [before, number, body, number, body, ...]
    for body in segments[2::2]:
        parsed = _first_parseable_line(body)
        if parsed is None:
            logger.warning("skipping combination block with no parseable team list")
            continue
        strategies.append(parsed)
    return strategies


def _first_parseable_line(body: str) -> Strategy | None:
    for line in body.splitlines():
        line = line.strip()
        if line.startswith("###"):
            break
        if not line or line.lower().startswith("feedback score"):
            continue
        with suppress(StrategyParseError):
            return parse_strategy(line)
    return None


def parse_agent_response(text: str) -> AgentDecision:
    """Classify an agent reply. Terminal markers outrank group extraction, and
    the no-processing marker outranks everything."""
    if NO_PROCESSING_MARKER in text:
        return AgentDecision(kind="no_processing", strategies=())
    if BEST_TEAM_MARKER in text:
        position = text.index(BEST_TEAM_MARKER)
        after = text[position + len(BEST_TEAM_MARKER) :]
        candidates = _extract_combinations(after)
        if not candidates:
            loose = _first_parseable_line(after)
            candidates = [loose] if loose is not None else []
        if not candidates:
            before = _extract_combinations(text[:position])
            candidates = before[-1:]
        if not candidates:
            raise AgentResponseError("best-team marker without a parseable combination")
        return AgentDecision(kind="best_team", strategies=(candidates[0],))
    strategies = _extract_combinations(text)
    unique: list[Strategy] = []
    for strategy in strategies:
        if strategy in unique:
            logger.warning("dropping duplicate combination %s", strategy.canonical())
            continue
        unique.append(strategy)
    if not unique:
        raise AgentResponseError("no parseable combinations and no terminal marker")
    return AgentDecision(kind="propose", strategies=tuple(unique))


# ---------------------------------------------------------------------------
# Default deterministic agent
# ---------------------------------------------------------------------------


class HillClimbAgent(AgentClient):
    """Deterministic agent policy over the rendered prompts.

    Round one proposes single-team combinations. Afterwards it extends the
    best combination seen so far by one unused team per proposal; when a
    round brings no strict improvement it declares 【Best Team】, and when a
    whole round's feedback is consistently near zero it declares that the
    data needs no processing.
    """

    def complete(self, messages: list[dict[str, str]], temperature: float, seed: int) -> str:
        prompt = next(
            (m["content"] for m in reversed(messages) if m.get("role") == "user"), ""
        )
        limit_match = _GROUP_LIMIT_RE.search(prompt)
        limit = max(1, int(limit_match.group(1))) if limit_match else MAX_TEAMS
        # _parse_feedback keeps only rounds with at least one pair
        rounds = self._parse_feedback(prompt)
        if not rounds:
            reason = (
                "No readable feedback; restarting exploration."
                if "Feedback Score:" in prompt
                else "Starting with single-team combinations to measure individual effects."
            )
            return self._emit_group([Strategy((team,)) for team in TEAM_ORDER][:limit], reason)
        latest = rounds[-1]
        if all(abs(score) < NEAR_ZERO_EPSILON for _, score in latest):
            return NO_PROCESSING_MARKER
        flat = [pair for pairs in rounds for pair in pairs]
        # max keeps the first of equal keys: ties go to the earliest pair
        best_strategy, _ = max(flat, key=lambda pair: pair[1])
        if len(rounds) >= 2:
            previous_max = max(score for pairs in rounds[:-1] for _, score in pairs)
            if max(score for _, score in latest) <= previous_max:
                return self._emit_best(best_strategy)
        seen = {strategy for strategy, _ in flat}
        unused = (team for team in TEAM_ORDER if team not in best_strategy.teams)
        extensions = [s for s in map(best_strategy.extended, unused) if s not in seen][:limit]
        if not extensions:
            return self._emit_best(best_strategy)
        return self._emit_group(
            extensions,
            "Extending the strongest combination observed so far, one team at a time.",
        )

    @staticmethod
    def _parse_feedback(prompt: str) -> list[list[tuple[Strategy, float]]]:
        rounds: list[list[tuple[Strategy, float]]] = []
        chunks = _ROUND_HEADER_RE.split(prompt)
        for body in chunks[2::2]:
            pairs: list[tuple[Strategy, float]] = []
            for team_line, score_text in _FEEDBACK_PAIR_RE.findall(body):
                try:
                    strategy = parse_strategy(team_line)
                    score = float(score_text)
                except (StrategyParseError, ValueError):
                    continue
                pairs.append((strategy, score))
            if pairs:
                rounds.append(pairs)
        return rounds

    @staticmethod
    def _emit_group(strategies: list[Strategy], reason: str) -> str:
        lines: list[str] = []
        for position, strategy in enumerate(strategies, start=1):
            lines.append(f"###Combination[{position}]###")
            lines.append(strategy.prompt_form())
            lines.append("")
        lines.append("###Reasons for Different Combinations###")
        lines.append(reason)
        return "\n".join(lines)

    @staticmethod
    def _emit_best(strategy: Strategy) -> str:
        return f"{BEST_TEAM_MARKER}\n###Combination[1]###\n{strategy.prompt_form()}\n"


# ---------------------------------------------------------------------------
# Search loop
# ---------------------------------------------------------------------------

_REPROMPT_MESSAGE = (
    "Your previous reply could not be parsed. Follow the output format exactly: "
    "one ###Combination[n]### block per combination with the team names on the "
    "next line, or one of the termination markers."
)


def run_search(base: Dataset, run_cfg: RunConfig, ctx: ExecutionContext) -> SearchResult:
    """Drive the full closed loop on ``base``: sample once, score the baseline
    once, then alternate agent proposals with evaluations until a terminal
    marker or the round budget."""
    if ctx.agent is None:
        raise SearchError("execution context has no agent client")
    if ctx.embedder is None:
        raise SearchError("execution context has no embedding client")

    try:
        sampled = stratified_sample(
            base, run_cfg.sampling_rate, ctx.screener, ctx.embedder, ctx.timer
        )
    except EmbeddingError as exc:
        raise SearchError(f"sampling failed: {exc}") from exc
    # score of each distinct output, by fingerprint: two strategies with one
    # output are scored once
    output_scores: dict[str, float] = {}
    try:
        baseline = evaluate_strategy(
            EMPTY_STRATEGY, sampled, run_cfg.evaluation, ctx, round_index=0, scores=output_scores
        )
    except EvaluationError as exc:
        raise SearchError(f"baseline evaluation failed: {exc}") from exc
    if ctx.run_log is not None:
        ctx.run_log.append(
            {"event": "baseline", "score": baseline, "sampled_fingerprint": sampled.fingerprint}
        )

    # raw score of every evaluated strategy, in evaluation order
    scores: dict[Strategy, float] = {EMPTY_STRATEGY: baseline}
    history: list[Round] = []
    messages: list[dict[str, str]] = []

    def relative(raw: float) -> float:
        return compute_feedback(raw, baseline) if math.isfinite(raw) else float("-inf")

    def evaluate(strategy: Strategy, round_index: int) -> float:
        if strategy in scores:
            return scores[strategy]
        try:
            raw = evaluate_strategy(
                strategy, sampled, run_cfg.evaluation, ctx, round_index, output_scores
            )
        except EvaluationError as exc:
            key = strategy.canonical()
            logger.warning("evaluation failed for %s: %s", key, exc)
            if ctx.run_log is not None:
                ctx.run_log.append(
                    {"event": "evaluation-error", "round": round_index,
                     "strategy": key, "error": str(exc)}
                )
            raw = float("-inf")
        scores[strategy] = raw
        return raw

    def finish(best: Strategy, reason: str, rounds_executed: int) -> SearchResult:
        return SearchResult(
            best_strategy=best,
            best_score=scores[best],
            baseline_score=baseline,
            rounds=tuple(history),
            termination_reason=reason,
            rounds_executed=rounds_executed,
            sampled_fingerprint=sampled.fingerprint,
        )

    for round_index in range(1, run_cfg.max_rounds + 1):
        if round_index == 1:
            prompt = build_initial_prompt(run_cfg.initial_group_size)
        else:
            prompt = build_iteration_prompt(history, round_index, run_cfg.max_group_size)
        messages.append({"role": "user", "content": prompt})
        decision = _ask_agent(ctx.agent, messages, run_cfg)

        if decision.kind == "no_processing":
            return finish(EMPTY_STRATEGY, TERMINATION_NO_PROCESSING, round_index)
        if decision.kind == "best_team":
            best = decision.strategies[0]
            evaluate(best, round_index)
            return finish(best, TERMINATION_BEST_TEAM, round_index)

        if len(decision.strategies) > run_cfg.max_group_size:
            logger.warning("agent proposed %d combinations; keeping the first %d",
                           len(decision.strategies), run_cfg.max_group_size)
        group = decision.strategies[: run_cfg.max_group_size]
        round_scores = tuple(evaluate(strategy, round_index) for strategy in group)
        history.append(
            Round(round_index, group, round_scores, tuple(map(relative, round_scores)))
        )

    # max keeps the first of equal keys: ties go to the earliest evaluation
    best = max(scores, key=lambda strategy: relative(scores[strategy]))
    return finish(best, TERMINATION_BUDGET, run_cfg.max_rounds)


def _ask_agent(
    agent: AgentClient, messages: list[dict[str, str]], run_cfg: RunConfig
) -> AgentDecision:
    """Ask for the next decision; an unparseable reply is re-prompted once."""
    for attempt in range(2):
        if attempt:
            logger.warning("unparseable agent reply; re-prompting once")
            messages.append({"role": "user", "content": _REPROMPT_MESSAGE})
        try:
            reply = agent.complete(messages, run_cfg.temperature, run_cfg.seed)
        except ClientError as exc:
            raise SearchError(f"agent client failed: {exc}") from exc
        messages.append({"role": "assistant", "content": reply})
        try:
            return parse_agent_response(reply)
        except AgentResponseError as exc:
            error = exc
    raise SearchError(f"agent reply unparseable after re-prompt: {error}") from error
