"""Command-line front end.

Subcommands: run, enumerate, apply, sample, cache {stats|prune|verify},
report. Endpoints and the cache root can be overridden through environment
variables (see config module constants).

Exit codes: 0 success, 2 configuration/usage error, 1 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .agent import HillClimbAgent, SearchError, run_search
from .cache import CacheError, CacheLock, StrategyCache
from .clients import HttpAgentClient, HttpEmbeddingClient, HttpScreenerClient, HttpTrainerClient
from .config import ConfigError, RunConfig, load_run_config, run_config_snapshot
from .corpus import DatasetError, load_dataset, save_dataset
from .evaluation import RunLog
from .operators import ExecutionContext, apply_strategy
from .report import build_report, format_report_text, load_report, write_report
from .sampling import stratified_sample
from .screener import Screener
from .strategy import StrategyParseError, enumerate_space, parse_strategy
from .textstats import text_profile
from .timing import PhaseTimer

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

DEFAULT_EMBEDDING_DIM = 64


def build_context(
    run_cfg: RunConfig,
    cache: StrategyCache | None = None,
    run_log: RunLog | None = None,
    timer: PhaseTimer | None = None,
) -> ExecutionContext:
    """Wire clients from configured endpoints; anything unset keeps the
    deterministic default of ``ExecutionContext.with_defaults``."""
    timer = timer or PhaseTimer()
    endpoints = run_cfg.endpoints
    remote = {}
    if endpoints.screener:
        client = HttpScreenerClient(endpoints.screener)
        remote["screener"] = Screener(run_cfg.operators, client=client, timer=timer)
    if endpoints.embedder:
        remote["embedder"] = HttpEmbeddingClient(endpoints.embedder, DEFAULT_EMBEDDING_DIM)
    if endpoints.trainer:
        remote["trainer"] = HttpTrainerClient(endpoints.trainer)
    agent = HttpAgentClient(endpoints.agent) if endpoints.agent else HillClimbAgent()
    return ExecutionContext.with_defaults(
        run_cfg.operators, seed=run_cfg.seed, timer=timer,
        agent=agent, cache=cache, run_log=run_log, **remote,
    )


def cmd_run(args: argparse.Namespace) -> int:
    text_profile.cache_clear()  # the profile memo lasts one run
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
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.json").write_text(
        json.dumps(run_config_snapshot(run_cfg), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    cache_root = Path(run_cfg.cache_root) if run_cfg.cache_root else run_dir / "cache"

    started = time.perf_counter()
    timer = PhaseTimer()
    try:
        base = load_dataset(dataset_path)
        with CacheLock(cache_root):
            cache = StrategyCache(cache_root, run_cfg.operators.digest(), run_cfg.seed)
            run_log = RunLog(run_dir / "run_log.jsonl")
            ctx = build_context(run_cfg, cache=cache, run_log=run_log, timer=timer)
            result = run_search(base, run_cfg, ctx)
            with timer.phase("processing"):
                final = cache.apply_with_reuse(result.best_strategy, base, ctx)
            save_dataset(final, run_dir / "final_dataset.jsonl")
            report = build_report(
                result,
                run_cfg,
                dataset_fingerprint=base.fingerprint,
                cache_stats=cache.stats(),
                final_dataset_fingerprint=final.fingerprint,
            )
            write_report(report, run_dir)
    except (DatasetError, CacheError, SearchError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        text_profile.cache_clear()

    timings = {
        "phases": {name: round(value, 6) for name, value in timer.snapshot().items()},
        "total": round(time.perf_counter() - started, 6),
    }
    (run_dir / "timings.json").write_text(
        json.dumps(timings, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
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
        dataset = load_dataset(args.input)
    except DatasetError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    run_cfg = RunConfig(seed=args.seed)
    try:
        if args.cache_dir:
            with CacheLock(args.cache_dir):
                cache = StrategyCache(args.cache_dir, run_cfg.operators.digest(), run_cfg.seed)
                ctx = build_context(run_cfg, cache=cache)
                processed = cache.apply_with_reuse(strategy, dataset, ctx)
        else:
            processed = apply_strategy(strategy, dataset, build_context(run_cfg))
    except CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    save_dataset(processed, args.output)
    print(
        f"applied {strategy.canonical()}: {len(dataset)} -> {len(processed)} samples"
    )
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    try:
        run_cfg = RunConfig(seed=args.seed, sampling_rate=args.rate)
        dataset = load_dataset(args.input)
    except (ConfigError, DatasetError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    ctx = build_context(run_cfg)
    sampled = stratified_sample(dataset, args.rate, ctx.screener, ctx.embedder)
    save_dataset(sampled, args.output)
    print(f"sampled {len(sampled)} of {len(dataset)} samples")
    return EXIT_OK


def cmd_cache(args: argparse.Namespace) -> int:
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
    try:
        report = load_report(args.run_dir)
    except OSError as exc:
        print(f"config error: cannot read report: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(format_report_text(report))
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
