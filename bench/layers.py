"""The pipecraft functions the traced run wraps, and the per-layer metrics
built from their spans.

Only functions named by a per-layer metric, or needed to attribute their
time, are wrapped. Per-character helpers (``is_cjk``, ``is_allowed_char``)
run millions of times per run and are left alone: a wrapper there would
cost more than the work it measures. Wrappers read positional arguments
only, which is how every call site in the package passes them.
"""
from __future__ import annotations

from typing import Any

from spans import Target, aggregate, KEY, PARENT, INFO

TEAMS = ("Cleaning", "Optimization", "Generation", "Selection")
ROUTING_TEAMS = ("Optimization", "Generation")
MODEL_ROLES = ("optimizer", "generator", "scorer")
TEXTSTATS = (
    "tokenize", "token_count", "clean_text",
    "special_char_ratio", "ngram_repetition_ratio", "length_adequacy",
)
PHASES = ("sampling", "screening", "processing", "evaluation")


def _sizes(args: tuple, result: Any) -> dict[str, float]:
    return {"samples_in": len(args[1]), "samples_out": len(result)}


TARGETS = (
    *(Target("pipecraft.textstats", name, f"textstats.{name}") for name in TEXTSTATS),
    Target("pipecraft.operators", "apply_team", "operators.apply_team",
           label=lambda args: args[0].value, describe=_sizes),
    Target("pipecraft.operators", "duplicate_pairs", "operators.duplicate_pairs",
           describe=lambda args, result: {"pairs": len(result)}),
    Target("pipecraft.operators", "minhash_signature", "operators.minhash_signature"),
    Target("pipecraft.operators", "passes_filters", "operators.passes_filters"),
    Target("pipecraft.operators", "strip_noise", "operators.strip_noise"),
    Target("pipecraft.operators", "select_high_quality", "operators.select_high_quality"),
    Target("pipecraft.screener", "Screener.classify", "screener.classify",
           describe=lambda args, result: {"noisy": int(result.is_noisy)}),
    Target("pipecraft.screener", "Screener.partition", "screener.partition"),
    Target("pipecraft.screener", "heuristic_verdict", "screener.heuristic_verdict"),
    Target("pipecraft.sampling", "stratified_sample", "sampling.stratified_sample",
           describe=lambda args, result: {"subset_size": len(result)}),
    Target("pipecraft.sampling", "embed_all", "sampling.embed_all"),
    Target("pipecraft.sampling", "greedy_select", "sampling.greedy_select"),
    Target("pipecraft.clients", "HashingEmbedder.embed", "clients.HashingEmbedder.embed"),
    Target("pipecraft.clients", "ModelClient.complete", "clients",
           label=lambda args: args[0].role),
    Target("pipecraft.evaluation", "evaluate_strategy", "evaluation.evaluate_strategy"),
    Target("pipecraft.evaluation", "proxy_components", "evaluation.proxy_components"),
    Target("pipecraft.cache", "StrategyCache.find_longest_prefix", "cache.find_longest_prefix"),
    Target("pipecraft.cache", "StrategyCache.load_entry", "cache.load_entry"),
    Target("pipecraft.cache", "StrategyCache.put", "cache.put"),
    Target("pipecraft.corpus", "load_dataset", "corpus.load_dataset"),
    Target("pipecraft.corpus", "save_dataset", "corpus.save_dataset"),
    Target("pipecraft.corpus", "fingerprint_samples", "corpus.fingerprint_samples"),
    Target("pipecraft.agent", "run_search", "agent.run_search"),
    Target("pipecraft.agent", "HillClimbAgent.complete", "agent.HillClimbAgent.complete"),
    Target("pipecraft.report", "build_report", "report.build_report"),
)


def routed(spans: list[list]) -> tuple[int, int]:
    """(noisy, clean) screener verdicts read directly by an Optimization or
    Generation application: one per sample it routed. Verdicts read through
    ``Screener.partition`` have that span as parent and are not counted."""
    routing = {f"operators.apply_team.{team}" for team in ROUTING_TEAMS}
    noisy = clean = 0
    for span in spans:
        if span[KEY] == "screener.classify" and span[PARENT] >= 0 \
                and spans[span[PARENT]][KEY] in routing:
            if span[INFO].get("noisy"):
                noisy += 1
            else:
                clean += 1
    return noisy, clean


def layer_metrics(spans: list[list], run: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, by name, as (value, unit).

    ``run`` holds what the spans do not: the traced run's context counters
    (``screener_calls``, ``model_calls``, ``team_applications``, ``cache``
    stats), ``rounds``, the untraced runs' median ``phases`` and the
    ``overhead_ratio``.
    """
    agg = aggregate(spans)

    def get(key: str, field: str) -> float:
        return agg[key][field] if key in agg else 0

    metrics: dict[str, tuple[float, str]] = {}

    def add(name: str, value: float, unit: str) -> None:
        metrics[name] = (value, unit)

    def calls_and_self(key: str) -> None:
        add(f"{key}.calls", get(key, "calls"), "count")
        add(f"{key}.self_s", get(key, "self_s"), "s")

    for name in TEXTSTATS:
        calls_and_self(f"textstats.{name}")
    for team in TEAMS:
        key = f"operators.apply_team.{team}"
        calls_and_self(key)
        add(f"{key}.samples_in", get(key, "samples_in"), "count")
        add(f"{key}.samples_out", get(key, "samples_out"), "count")
    add("operators.duplicate_pairs.self_s", get("operators.duplicate_pairs", "self_s"), "s")
    add("operators.duplicate_pairs.pairs", get("operators.duplicate_pairs", "pairs"), "count")
    calls_and_self("operators.minhash_signature")
    calls_and_self("operators.passes_filters")
    add("operators.strip_noise.self_s", get("operators.strip_noise", "self_s"), "s")
    add("operators.select_high_quality.self_s",
        get("operators.select_high_quality", "self_s"), "s")

    classify_calls = get("screener.classify", "calls")
    add("screener.classify.calls", classify_calls, "count")
    add("screener.classify.misses", run["screener_calls"], "count")
    add("screener.classify.hit_ratio",
        (classify_calls - run["screener_calls"]) / classify_calls if classify_calls else 0.0,
        "ratio")
    add("screener.heuristic_verdict.self_s", get("screener.heuristic_verdict", "self_s"), "s")
    noisy, clean = routed(spans)
    add("screener.routed_noisy", noisy, "count")
    add("screener.routed_clean", clean, "count")

    add("sampling.stratified_sample.s", get("sampling.stratified_sample", "s"), "s")
    add("sampling.embed_all.self_s", get("sampling.embed_all", "self_s"), "s")
    add("sampling.greedy_select.self_s", get("sampling.greedy_select", "self_s"), "s")
    add("sampling.subset_size", get("sampling.stratified_sample", "subset_size"), "count")

    calls_and_self("clients.HashingEmbedder.embed")
    for role in MODEL_ROLES:
        calls_and_self(f"clients.{role}")
        add(f"clients.{role}.failed", get(f"clients.{role}", "failed"), "count")

    add("evaluation.evaluate_strategy.calls",
        get("evaluation.evaluate_strategy", "calls"), "count")
    add("evaluation.evaluate_strategy.s", get("evaluation.evaluate_strategy", "s"), "s")
    add("evaluation.proxy_components.self_s",
        get("evaluation.proxy_components", "self_s"), "s")

    for name in ("find_longest_prefix", "load_entry", "put"):
        calls_and_self(f"cache.{name}")
    saved = run["cache"]["team_invocations_saved"]
    add("cache.hits", run["cache"]["hits"], "count")
    add("cache.team_invocations_saved", saved, "count")
    reused = saved + run["team_applications"]
    add("cache.reuse_ratio", saved / reused if reused else 0.0, "ratio")

    for name in ("load_dataset", "save_dataset", "fingerprint_samples"):
        calls_and_self(f"corpus.{name}")

    add("agent.run_search.s", get("agent.run_search", "s"), "s")
    add("agent.rounds", run["rounds"], "count")
    add("agent.HillClimbAgent.complete.self_s",
        get("agent.HillClimbAgent.complete", "self_s"), "s")
    add("report.build_report.self_s", get("report.build_report", "self_s"), "s")

    for phase in PHASES:
        add(f"phase.{phase}_s", run["phases"].get(phase, 0.0), "s")
    add("trace.overhead_ratio", run["overhead_ratio"], "ratio")
    add("host.wall_run_s", run["wall_run_s"], "s")
    add("host.speed_scale", run["speed_scale"], "ratio")
    return metrics

