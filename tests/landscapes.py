"""Synthetic corpora that only the acceptance tests search.

``landscape_cleaning`` and ``landscape_optimization`` are search landscapes
whose quality defects favor one processing team each (criterion 08, beside
``pipecraft.synthetic.landscape_generation``); ``perfect_corpus`` needs no
processing at all (criterion 09). Every builder is a pure function of its seed.
"""
from __future__ import annotations

import random

from pipecraft.corpus import Dataset, Sample
from pipecraft.synthetic import _special_violator, make_sample


def perfect_corpus(n: int = 60, seed: int = 0) -> Dataset:
    """Clean, complete, unique, adequate: every quality component is maximal."""
    rng = random.Random(seed)
    return Dataset.from_samples(
        make_sample(f"p{i:04d}", rng, 22, 28) for i in range(n)
    )


def landscape_cleaning(seed: int = 0) -> Dataset:
    """Duplicates and special-character violators on an otherwise perfect
    corpus: dropping the bad records is the only winning move."""
    rng = random.Random(seed)
    samples: list[Sample] = []
    for i in range(70):
        samples.append(make_sample(f"c{i:04d}", rng, 20, 25))
    # duplicate copies sit right behind their originals so positional
    # selection cannot silently avoid them
    with_dups: list[Sample] = []
    for i, sample in enumerate(samples):
        with_dups.append(sample)
        if i < 15:
            with_dups.append(
                Sample(id=f"cdup{i:02d}", question=sample.question, answer=sample.answer)
            )
    for i in range(15):
        with_dups.append(_special_violator(f"cbad{i:02d}", rng))
    return Dataset.from_samples(with_dups)


def landscape_optimization(seed: int = 0) -> Dataset:
    """Special-character violators carry the corpus's only long, adequate
    texts; rewriting them beats dropping them."""
    rng = random.Random(seed)
    samples: list[Sample] = []
    for i in range(70):
        samples.append(make_sample(f"o{i:04d}", rng, 6, 6))
    for i in range(30):
        samples.append(_special_violator(f"obad{i:02d}", rng, specials=140))
    return Dataset.from_samples(samples)
