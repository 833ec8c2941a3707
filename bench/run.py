"""Benchmark of ``pipecraft run`` on generated corpora.

    python3 bench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src`` directory. One process serves one workload:

1. set-up, repeated five times: build the workload's corpus from ``--seed``,
   save it and write a run config (default operators, ``seed: 0``, sampling
   rate 0.2);
2. timed runs of ``pipecraft.cli.main(["run", ...])`` in this process, each
   with a fresh output directory and so a fresh cache, repeated until the
   timed runs add up to ``--seconds``;
3. with ``--trace 1``, one more run with every function in ``layers.TARGETS``
   wrapped, whose spans give the per-layer metrics;
4. the output check of every run, outside the timed region. On
   ``replicated-2k`` it includes one untimed run that reads the cache the
   first timed run wrote, whose outputs must equal that run's.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The exit code is 0
when every output check passed. ``NOTES.md`` beside this file defines the
workloads and metrics.
"""
from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

if not (SRC / "pipecraft" / "cli.py").is_file():
    sys.exit(f"bench: no pipecraft sources under {SRC}")
sys.path.insert(0, str(SRC))

import corpora  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from checks import Outputs, check_run, recompute_fingerprint  # noqa: E402
from pipecraft import cli, config  # noqa: E402
from pipecraft.corpus import save_dataset  # noqa: E402

# workload -> (corpus builder, size, whether a rerun on a filled cache is checked)
WORKLOADS = {
    "replicated-2k": (corpora.replicated, 2000, True),
    "distinct-3k": (corpora.distinct, 3000, False),
}
SETUP_REPEATS = 5
RUN_CONFIG = {"seed": 0, "sampling_rate": corpora.SAMPLING_RATE}
END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "model_calls": "count",
    "screener_calls": "count",
    "embed_calls": "count",
    "team_applications": "count",
    "ops_attempted": "count",
}
# deployment overrides that would replace the deterministic default clients
ENV_OVERRIDES = (
    config.ENV_AGENT_ENDPOINT, config.ENV_EMBEDDER_ENDPOINT, config.ENV_SCREENER_ENDPOINT,
    config.ENV_TRAINER_ENDPOINT, config.ENV_CACHE_ROOT,
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark `pipecraft run`.")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class ContextProbe:
    """Wraps ``cli.build_context`` once to keep each context it returns, with
    a count of the embedding requests made through its embedder."""

    def __init__(self) -> None:
        self.contexts: list[tuple[object, list[int]]] = []
        original = cli.build_context

        def probe(*args, **kwargs):
            context = original(*args, **kwargs)
            embeds = [0]
            embed = context.embedder.embed

            def counted(text):
                embeds[0] += 1
                return embed(text)

            context.embedder.embed = counted
            self.contexts.append((context, embeds))
            return context

        cli.build_context = probe


@dataclass(frozen=True)
class Prepared:
    corpus: Path
    config: Path
    check_warm: bool


def quiet_run(config_path: Path, out: Path) -> tuple[int, float, float]:
    """One ``pipecraft run`` with its report text discarded; (exit code,
    start time, wall seconds)."""
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        started = perf_counter()
        code = cli.main(["run", "--config", str(config_path), "--out", str(out)])
        return code, started, perf_counter() - started


def at_reference_speed(probe: SpeedProbe, seconds: float, start: float, end: float) -> float:
    """``seconds`` of wall time scaled by the host speed sampled in
    ``[start, end)`` to the reference speed that ``speed.py`` defines."""
    try:
        return seconds * probe.scale(start, end)
    except ValueError as exc:
        raise BenchError(str(exc)) from exc


def write_config(path: Path, corpus: Path, **extra) -> Path:
    run_config = {"dataset": str(corpus), **RUN_CONFIG, **extra}
    path.write_text(json.dumps(run_config, indent=2) + "\n", encoding="utf-8")
    return path


def prepare(workload: str, seed: int, directory: Path) -> Prepared:
    build, size, check_warm = WORKLOADS[workload]
    directory.mkdir(parents=True)
    corpus = directory / "corpus.jsonl"
    save_dataset(build(seed, size), corpus)
    return Prepared(corpus, write_config(directory / "config.json", corpus), check_warm)


def read_events(run_dir: Path) -> list[str]:
    lines = (run_dir / "run_log.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line)["event"] for line in lines]


class Session:
    """The runs of one workload, their output checks and operation counts.

    One operation is one strategy evaluation (a run log ``evaluation`` or
    ``evaluation-error`` event) plus one per run for its output check.
    """

    def __init__(self, prepared: Prepared, work: Path, probe: SpeedProbe) -> None:
        self.prepared = prepared
        self.work = work
        self.speed = probe
        self.probe = ContextProbe()
        self.expected_fingerprint: str | None = None
        self.first: Outputs | None = None
        self.runs = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, recorder: spans.Recorder | None = None) -> dict:
        """One timed run, traced when given a recorder, then its output check."""
        out = self.work / f"run{self.runs}"
        self.runs += 1
        self.probe.contexts.clear()
        if recorder is not None:
            recorder.install(layers.TARGETS, spans.package_modules("pipecraft"))
        try:
            code, started, seconds = quiet_run(self.prepared.config, out)
        finally:
            if recorder is not None:
                recorder.uninstall()
        if code != 0:  # a failed run leaves no complete outputs to check
            raise BenchError(f"pipecraft run exited with {code}")
        context, embeds = self.probe.contexts[0]
        figures = {
            "wall_s": seconds,
            "run_s": at_reference_speed(self.speed, seconds, started, started + seconds),
            "model_calls": sum(client.calls for client in
                               (context.optimizer, context.generator, context.scorer)),
            "screener_calls": context.screener.classify_calls,
            "embed_calls": embeds[0],
            "team_applications": context.total_invocations(),
            "cache": context.cache.stats(),
            "ops_attempted": self.count(read_events(out)),
            "rounds": json.loads((out / "report.json").read_bytes())["rounds_executed"],
            "phases": json.loads((out / "timings.json").read_bytes())["phases"],
        }
        outputs = Outputs.read(out)
        if self.expected_fingerprint is None:
            self.expected_fingerprint = recompute_fingerprint(
                outputs, self.prepared.corpus, self.prepared.config)
        failures = check_run(out, self.expected_fingerprint, first=self.first)
        if self.first is None:
            self.first = outputs
            if self.prepared.check_warm:
                failures += self.check_warm(out, outputs)
        self.failed += bool(failures)
        self.failures.extend(failures)
        shutil.rmtree(out)
        return figures

    def count(self, events: list[str]) -> int:
        """Adds a run's operations to the totals; returns their number."""
        errors = events.count("evaluation-error")
        operations = events.count("evaluation") + errors + 1
        self.attempted += operations
        self.failed += errors
        return operations

    def check_warm(self, cold_dir: Path, cold: Outputs) -> list[str]:
        """An untimed rerun on the cache that the run in ``cold_dir`` filled;
        it must read more prefixes from the cache than that run did, and its
        final dataset, and its report minus the cache counters, must equal
        that run's."""
        config_path = write_config(self.work / "warm.json", self.prepared.corpus,
                                   cache_root=str(cold_dir / "cache"))
        out = self.work / "warm"
        code, _, _ = quiet_run(config_path, out)
        if code != 0:
            raise BenchError(f"the rerun on a filled cache exited with {code}")
        self.count(read_events(out))
        failures = check_run(out, self.expected_fingerprint, cold=cold)
        hits = [json.loads(outputs.report)["cache"]["hits"]
                for outputs in (cold, Outputs.read(out))]
        if hits[1] <= hits[0]:
            failures.append(f"the rerun on a filled cache read {hits[1]} prefixes from it, "
                            f"the run that filled it {hits[0]}")
        shutil.rmtree(out)
        return failures


def measure(args: argparse.Namespace, work: Path, probe: SpeedProbe) -> tuple[dict, Session]:
    """Set up, run and check one workload; returns its metrics as
    name -> (value, unit), with the session that ran it."""
    setup_start = perf_counter()
    import_s = setup_start - PROCESS_START
    setup_seconds = []
    for index in range(SETUP_REPEATS):
        started = perf_counter()
        prepared = prepare(args.workload, args.seed, work / f"setup{index}")
        setup_seconds.append(perf_counter() - started)
    # the import ran before the probe started; it is scaled like the set-ups
    setup_wall_s = import_s + statistics.median(setup_seconds)
    setup_s = at_reference_speed(probe, setup_wall_s, setup_start, perf_counter())
    session = Session(prepared, work, probe)

    runs = []
    while sum(run["wall_s"] for run in runs) < args.seconds:
        runs.append(session.run())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for name in ("wall_s", "run_s"):
        print(f"{args.workload:<20} timed runs, {name}: "
              + " ".join(f"{run[name]:.3f}" for run in runs), flush=True)

    def median(name: str) -> float:
        return statistics.median(run[name] for run in runs)

    if not args.trace:
        metrics = {
            "run_s": median("run_s"),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "model_calls": median("model_calls"),
            "screener_calls": median("screener_calls"),
            "embed_calls": median("embed_calls"),
            "team_applications": median("team_applications"),
            "ops_attempted": median("ops_attempted"),
        }
        return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}, session

    recorder = spans.Recorder()
    traced = session.run(recorder)
    WORK_ROOT.mkdir(exist_ok=True)
    recorder.write(WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    traced["phases"] = {
        phase: statistics.median(run["phases"].get(phase, 0.0) for run in runs)
        for phase in layers.PHASES
    }
    traced["overhead_ratio"] = traced["run_s"] / median("run_s")
    traced["wall_run_s"] = median("wall_s")
    traced["speed_scale"] = statistics.median(run["run_s"] / run["wall_s"] for run in runs)
    return layers.layer_metrics(recorder.spans, traced), session


def run_workload(args: argparse.Namespace) -> int:
    for name in ENV_OVERRIDES:
        os.environ.pop(name, None)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    probe = SpeedProbe()
    probe.start()
    try:
        metrics, session = measure(args, work, probe)
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)
    for failure in session.failures:
        print(f"output check failed: {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<20} {name:<48} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not session.failures else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, one after another; the last line
    merges their results, metric names prefixed with the workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            raise BenchError(f"{workload} gave no result (exit code {proc.returncode})")
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
