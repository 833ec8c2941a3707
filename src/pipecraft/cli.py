"""Command-line front end.

Subcommands: run, enumerate, apply, sample, cache {stats|prune|verify},
report. Endpoints and the cache root can be overridden through environment
variables (see config module constants).

Exit codes: 0 success, 2 configuration/usage error, 1 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .agent import HillClimbAgent, SearchError, run_search
from .cache import ENTRIES_DIR, CacheError, CacheLock, StrategyCache
from .clients import HttpAgentClient, HttpEmbeddingClient, HttpScreenerClient, HttpTrainerClient
from .config import ConfigError, RunConfig, load_run_config, run_config_from
from .corpus import DatasetError, load_dataset, save_dataset
from .evaluation import RunLog
from .operators import ExecutionContext, apply_strategy
from .report import build_report, format_report_text, load_report, write_report
from .sampling import EmbeddingError, stratified_sample
from .screener import Screener
from .strategy import StrategyParseError, enumerate_space, parse_strategy
from .textstats import clear_run_memos
from .timing import NULL_TIMER, PhaseTimer

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

logger = logging.getLogger(__name__)


def build_context(
    run_cfg: RunConfig,
    cache: StrategyCache | None = None,
    run_log: RunLog | None = None,
    timer: PhaseTimer = NULL_TIMER,
) -> ExecutionContext:
    """Wire clients from configured endpoints; anything unset keeps the
    deterministic default of ``ExecutionContext.with_defaults``."""
    endpoints = run_cfg.endpoints
    remote = {}
    if endpoints.screener:
        client = HttpScreenerClient(endpoints.screener)
        remote["screener"] = Screener(run_cfg.operators, client=client)
    if endpoints.embedder:
        remote["embedder"] = HttpEmbeddingClient(endpoints.embedder)
    if endpoints.trainer:
        remote["trainer"] = HttpTrainerClient(endpoints.trainer)
    agent = HttpAgentClient(endpoints.agent) if endpoints.agent else HillClimbAgent()
    return ExecutionContext.with_defaults(
        run_cfg.operators, seed=run_cfg.seed, timer=timer,
        agent=agent, cache=cache, run_log=run_log, **remote,
    )


def _model_requests(ctx: ExecutionContext) -> dict:
    """The run-log record of what the context's model clients sent, answered
    from their memos and lost, and what its screener classified and on how
    many samples it fell back to its heuristic."""
    record: dict = {"event": "model-requests"}
    for role in ("optimizer", "generator", "scorer"):
        client = getattr(ctx, role)
        record[role] = {"sent": client.calls, "reused": client.reused, "failed": client.failed}
    record["screener"] = {"classified": ctx.screener.classify_calls,
                          "remote_fallbacks": ctx.screener.remote_fallbacks}
    return record


def _warn_screener_fallbacks(screener: Screener) -> None:
    """One warning with the number of samples the heuristic screened because
    the remote screener failed; the screener logged only the first failure."""
    if screener.remote_fallbacks:
        logger.warning("remote screener failed on %d of %d samples classified; the heuristic "
                       "screened them", screener.remote_fallbacks, screener.classify_calls)


def cmd_run(args: argparse.Namespace) -> int:
    clear_run_memos()  # the text memos last one run
    try:
        run_cfg = load_run_config(args.config)
        if not run_cfg.dataset:
            raise ConfigError("config has no dataset path")
        dataset_path = Path(run_cfg.dataset)
        if not dataset_path.exists():
            raise ConfigError(f"dataset path {dataset_path} does not exist")
        if run_cfg.evaluation.mode == "trainer" and not run_cfg.endpoints.trainer:
            raise ConfigError("eval mode 'trainer' requires a trainer endpoint")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    run_dir = Path(args.out)
    cache_root = Path(run_cfg.cache_root) if run_cfg.cache_root else run_dir / "cache"

    started = time.perf_counter()
    timer = PhaseTimer()
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "config.json").write_text(
            json.dumps(asdict(run_cfg), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        base = load_dataset(dataset_path)
        with CacheLock(cache_root):
            cache = StrategyCache(cache_root, run_cfg.operators.digest(), run_cfg.seed)
            run_log = RunLog(run_dir / "run_log.jsonl")
            ctx = build_context(run_cfg, cache=cache, run_log=run_log, timer=timer)
            result = run_search(base, run_cfg, ctx)
            with timer.phase("processing"):
                final = cache.apply_with_reuse(result.best_strategy, base, ctx)
            run_log.append(_model_requests(ctx))
            _warn_screener_fallbacks(ctx.screener)
            save_dataset(final, run_dir / "final_dataset.jsonl")
            report = build_report(
                result,
                run_cfg,
                dataset_fingerprint=base.fingerprint,
                cache_stats=cache.stats(),
                final_dataset_fingerprint=final.fingerprint,
            )
            write_report(report, run_dir)
        timings = {
            "phases": {name: round(value, 6) for name, value in timer.snapshot().items()},
            "total": round(time.perf_counter() - started, 6),
        }
        (run_dir / "timings.json").write_text(
            json.dumps(timings, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    except (OSError, DatasetError, CacheError, SearchError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        clear_run_memos()
    print(format_report_text(report))
    return EXIT_OK


def cmd_enumerate(_args: argparse.Namespace) -> int:
    for strategy in enumerate_space():
        print(strategy.canonical())
    return EXIT_OK


def cmd_apply(args: argparse.Namespace) -> int:
    try:
        strategy = parse_strategy(args.strategy)
    except StrategyParseError as exc:
        print(f"config error: bad strategy: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        run_cfg = run_config_from({"seed": args.seed})
        dataset = load_dataset(args.input)
    except (ConfigError, DatasetError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.cache_dir:
            with CacheLock(args.cache_dir):
                cache = StrategyCache(args.cache_dir, run_cfg.operators.digest(), run_cfg.seed)
                ctx = build_context(run_cfg, cache=cache)
                processed = cache.apply_with_reuse(strategy, dataset, ctx)
        else:
            ctx = build_context(run_cfg)
            processed = apply_strategy(strategy, dataset, ctx)
        _warn_screener_fallbacks(ctx.screener)
        save_dataset(processed, args.output)
    except CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"apply failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(
        f"applied {strategy.canonical()}: {len(dataset)} -> {len(processed)} samples"
    )
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    try:
        run_cfg = run_config_from({"seed": args.seed, "sampling_rate": args.rate})
        dataset = load_dataset(args.input)
    except (ConfigError, DatasetError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    ctx = build_context(run_cfg)
    try:
        sampled = stratified_sample(dataset, run_cfg.sampling_rate, ctx.screener, ctx.embedder)
        _warn_screener_fallbacks(ctx.screener)
        save_dataset(sampled, args.output)
    except (EmbeddingError, OSError) as exc:
        print(f"sample failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"sampled {len(sampled)} of {len(dataset)} samples")
    return EXIT_OK


def cmd_cache(args: argparse.Namespace) -> int:
    limits = (args.max_entries, args.max_age_days)
    if any(v is not None and not (math.isfinite(v) and v >= 0) for v in limits):
        print("config error: --max-entries and --max-age-days must be finite and "
              "non-negative", file=sys.stderr)
        return EXIT_CONFIG
    if not (Path(args.cache_dir) / ENTRIES_DIR).is_dir():
        print(f"cache error: {args.cache_dir} is not a cache directory", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        if args.cache_command == "prune":
            max_age_s = args.max_age_days * 86400.0 if args.max_age_days is not None else None
            with CacheLock(args.cache_dir):
                cache = StrategyCache(args.cache_dir, config_digest="", seed=0)
                removed = cache.prune(max_entries=args.max_entries, max_age_s=max_age_s)
            print(f"pruned {removed} entries, {cache.stats()['entries']} remain")
            return EXIT_OK
        cache = StrategyCache(args.cache_dir, config_digest="", seed=0)
    except CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if args.cache_command == "stats":
        print(json.dumps(cache.stats(), sort_keys=True))
        return EXIT_OK
    bad = cache.verify()
    for key in bad:
        print(f"mismatch: {key}")
    print(f"{len(bad)} mismatch(es) in {cache.stats()['entries']} entries")
    return EXIT_OK if not bad else EXIT_RUNTIME


def cmd_report(args: argparse.Namespace) -> int:
    try:  # a torn or foreign report.json fails to decode or to render
        text = format_report_text(load_report(args.run_dir))
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"config error: cannot read report: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(text)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipecraft",
        description="Search for the best data-processing pipeline over a QA corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a full strategy search")
    p_run.add_argument("--config", required=True, help="JSON run config path")
    p_run.add_argument("--out", required=True, help="run artifacts directory")
    p_run.set_defaults(func=cmd_run)

    p_enum = sub.add_parser("enumerate", help="print all 65 strategies")
    p_enum.set_defaults(func=cmd_enumerate)

    p_apply = sub.add_parser("apply", help="apply one strategy to a dataset")
    p_apply.add_argument("--strategy", required=True)
    p_apply.add_argument("--input", required=True)
    p_apply.add_argument("--output", required=True)
    p_apply.add_argument("--cache-dir", default=None)
    p_apply.add_argument("--seed", type=int, default=0)
    p_apply.set_defaults(func=cmd_apply)

    p_sample = sub.add_parser("sample", help="representative sub-sample of a dataset")
    p_sample.add_argument("--input", required=True)
    p_sample.add_argument("--output", required=True)
    p_sample.add_argument("--rate", type=float, default=0.20)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.set_defaults(func=cmd_sample)

    p_cache = sub.add_parser("cache", help="cache administration")
    p_cache.add_argument("cache_command", choices=["stats", "prune", "verify"])
    p_cache.add_argument("--cache-dir", required=True)
    p_cache.add_argument("--max-entries", type=int, default=None)
    p_cache.add_argument("--max-age-days", type=float, default=None)
    p_cache.set_defaults(func=cmd_cache)

    p_report = sub.add_parser("report", help="print the report of a finished run")
    p_report.add_argument("--run-dir", required=True)
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
