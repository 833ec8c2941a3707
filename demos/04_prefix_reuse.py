"""Prefix reuse: overlapping strategies never re-process shared work.

Applies a schedule of strategies where each round extends the previous
round's pipelines by one team, and counts how many team applications the
cache avoided.
"""
import tempfile

from pipecraft import ExecutionContext, OperatorConfig, Strategy, StrategyCache, Team
from pipecraft.synthetic import messy_corpus

C, O, G, S = Team.CLEANING, Team.OPTIMIZATION, Team.GENERATION, Team.SELECTION

schedule = [
    [Strategy((C,)), Strategy((O,))],
    [Strategy((C, O)), Strategy((C, S))],
    [Strategy((C, O, G)), Strategy((C, O, S))],
]

corpus = messy_corpus(seed=3)
cfg = OperatorConfig()
with tempfile.TemporaryDirectory() as root:
    cache = StrategyCache(root, cfg.digest(), seed=0)
    ctx = ExecutionContext.with_defaults(cfg, cache=cache)
    for round_index, group in enumerate(schedule, start=1):
        for strategy in group:
            cache.apply_with_reuse(strategy, corpus, ctx)
        print(f"after round {round_index}: {cache.stats()}")

    applied = ctx.total_invocations()
    naive = sum(len(f) for group in schedule for f in group)
    print(f"\nteam applications: {applied} with reuse vs {naive} from scratch "
          f"({1 - applied / naive:.0%} avoided)")
