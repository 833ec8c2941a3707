"""End-to-end search with the deterministic default clients.

The hill-climbing agent proposes team combinations, the proxy evaluator
scores each one against the unprocessed baseline, and the loop stops when a
round brings no improvement.
"""
import tempfile

from pipecraft import ExecutionContext, HillClimbAgent, RunConfig, StrategyCache, run_search
from pipecraft.synthetic import landscape_generation

corpus = landscape_generation()
run_cfg = RunConfig(sampling_rate=1.0)

with tempfile.TemporaryDirectory() as root:
    cache = StrategyCache(root, run_cfg.operators.digest(), run_cfg.seed)
    ctx = ExecutionContext.with_defaults(
        run_cfg.operators, seed=run_cfg.seed, cache=cache, agent=HillClimbAgent()
    )
    result = run_search(corpus, run_cfg, ctx)

    print(f"baseline score: {result.baseline_score:.4f}\n")
    for round_ in result.rounds:
        print(f"round {round_.index}:")
        for strategy, relative in zip(round_.strategies, round_.relative_scores):
            print(f"  {strategy.canonical():<45} {relative:+.4f}")
    print(f"\nbest: {result.best_strategy.canonical()} "
          f"(score {result.best_score:.4f}) "
          f"via {result.termination_reason} in {result.rounds_executed} rounds")
    print(f"cache: {cache.stats()}")
