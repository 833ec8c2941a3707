"""Benchmark corpora, each a pure function of a workload seed.

Both builders start from ``pipecraft.synthetic.messy_corpus`` (76 records:
40 clean, 8 exact copies, 8 with markup, 8 over the special-character limit,
8 without an answer, 4 over-short), so every workload has the same mix of
defects and differs only in how much of its text repeats. The text does not
depend on the workload seed, which renames the ids: the default hill-climb
search is sensitive enough to the text that different seeds would otherwise
run different searches, and each metric would mix them.

Run ``python3 bench/corpora.py [seed]`` to print the measured shape of each
workload's corpus.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pipecraft import synthetic
from pipecraft.config import OperatorConfig
from pipecraft.corpus import Dataset, Sample
from pipecraft.operators import duplicate_pairs
from pipecraft.sampling import stratum_counts
from pipecraft.screener import Screener

SAMPLING_RATE = 0.2


def replicated(seed: int, size: int) -> Dataset:
    """``messy_corpus(0)`` copied whole until ``size`` samples, so every
    record has about ``size / 76`` exact copies. Ids carry the workload seed
    and the copy number.

    The workload seed renames ids only: with seed-dependent text the search
    took a shorter path on some seeds (9 strategy evaluations instead of 11).
    """
    base = synthetic.messy_corpus(0).samples
    return Dataset.from_samples(
        Sample(id=f"w{seed}-c{i // len(base):03d}-{s.id}", question=s.question,
               answer=s.answer, meta=s.meta)
        for i, s in ((i, base[i % len(base)]) for i in range(size))
    )


def _tag(text: str, tag: str) -> str:
    return f"{text} {tag}" if text else text


def distinct(seed: int, size: int) -> Dataset:
    """``messy_corpus`` over derived seeds 0, 1, 2, ... until ``size`` samples,
    ids prefixed with the workload seed and the derived seed ``k``.

    The workload seed renames ids only: with seed-dependent text the first
    round's Generation and Selection scores lie within 0.005 of each other
    and the winner flipped on 2 of 5 seeds (another final strategy, 4% more
    screener calls, 23% more peak memory).

    A record whose text an earlier derived seed already produced (the
    over-short "why"/"because" records are the same for every seed) gets
    ``k`` appended to its non-empty fields, so no text repeats across derived
    seeds; the copies ``messy_corpus`` makes within one seed stay.
    """
    samples: list[Sample] = []
    earlier: set[tuple[str, str]] = set()
    k = 0
    while len(samples) < size:
        produced = []
        for s in synthetic.messy_corpus(k):
            question, answer = s.question, s.answer
            if (question, answer) in earlier:
                question, answer = _tag(question, str(k)), _tag(answer, str(k))
            produced.append(Sample(id=f"w{seed}-s{k:03d}-{s.id}", question=question,
                                   answer=answer, meta=s.meta))
        earlier.update((s.question, s.answer) for s in produced)
        samples.extend(produced[: size - len(samples)])
        k += 1
    return Dataset.from_samples(samples)


def shape(dataset: Dataset, cfg: OperatorConfig | None = None) -> dict:
    """Size, MinHash near-duplicate pairs and the share of samples in a
    duplicate cluster, screener-noisy share, and the sampled subset size."""
    cfg = cfg or OperatorConfig()
    pairs = duplicate_pairs(dataset, cfg)
    in_cluster = {index for pair in pairs for index in pair}
    screener = Screener(cfg)
    noisy = sum(screener.classify(sample).is_noisy for sample in dataset)
    return {
        "size": len(dataset),
        "duplicate_pairs": len(pairs),
        "duplicate_cluster_share": len(in_cluster) / len(dataset),
        "noisy_share": noisy / len(dataset),
        "subset_size": sum(stratum_counts(len(dataset) - noisy, noisy, SAMPLING_RATE)),
    }


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    print(json.dumps({
        "replicated-2k": shape(replicated(seed, 2000)),
        "distinct-3k": shape(distinct(seed, 3000)),
    }, indent=2))
