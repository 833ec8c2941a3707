"""Deterministic synthetic QA corpora for demos and verification.

Every builder is a pure function of its seed. A landscape builder creates a
corpus whose quality defects favor particular processing teams, so a search
over it has a known structure without any external service.
"""
from __future__ import annotations

import random

from .corpus import Dataset, Sample

_WORDS = (
    "patient clinic doctor symptom therapy dosage fever cough remedy tablet "
    "measure history record review balance sleep diet exercise pressure pulse "
    "allergy immune system response recovery period advice contact schedule "
    "treatment followup clinical guidance routine checkup nurse report chart "
    "vitals baseline"
).split()


def _sentence(rng: random.Random, n_words: int, salt: str) -> str:
    words = [rng.choice(_WORDS) for _ in range(n_words - 1)]
    words.append(salt)
    return " ".join(words)


def make_sample(
    sample_id: str,
    rng: random.Random,
    question_words: int = 20,
    answer_words: int = 25,
    answer: str | None = None,
) -> Sample:
    """A clean, complete sample; all text is a fixed point of noise stripping."""
    question = _sentence(rng, question_words, f"q{sample_id}")
    if answer is None:
        answer = _sentence(rng, answer_words, f"a{sample_id}")
    return Sample(id=sample_id, question=question, answer=answer)


def _special_violator(sample_id: str, rng: random.Random, specials: int = 120) -> Sample:
    base = make_sample(sample_id, rng, 20, 25)
    return base.with_fields(answer=base.answer + " " + "#" * specials)


def _markup_sample(sample_id: str, rng: random.Random) -> Sample:
    base = make_sample(sample_id, rng, 20, 25)
    return base.with_fields(answer=f"<div>{base.answer}</div>  <br/>")


def messy_corpus(seed: int = 0) -> Dataset:
    """General-purpose demo corpus: clean majority plus duplicates, markup,
    special-character noise, missing answers, and over-short records."""
    rng = random.Random(seed)
    samples: list[Sample] = []
    for i in range(40):
        samples.append(make_sample(f"m{i:04d}", rng, 22, 28))
    for i in range(8):
        original = samples[i * 2]
        samples.append(
            Sample(id=f"dup{i:02d}", question=original.question, answer=original.answer)
        )
    for i in range(8):
        samples.append(_markup_sample(f"mk{i:02d}", rng))
    for i in range(8):
        samples.append(_special_violator(f"sp{i:02d}", rng))
    for i in range(8):
        base = make_sample(f"ma{i:02d}", rng, 24, 5)
        samples.append(base.with_fields(answer=""))
    for i in range(4):
        samples.append(Sample(id=f"sh{i:02d}", question="why", answer="because"))
    rng.shuffle(samples)
    return Dataset.from_samples(samples)


def landscape_generation(seed: int = 0) -> Dataset:
    """Missing answers dominate: filling the gaps and then cleaning out the
    special-character violators is the winning line. Complete samples are
    scarce enough that pure selection cannot win."""
    rng = random.Random(seed)
    samples: list[Sample] = []
    for i in range(20):
        samples.append(make_sample(f"g{i:04d}", rng, 20, 25))
    for i in range(55):
        samples.append(make_sample(f"gmiss{i:02d}", rng, 45, 1, answer=""))
    for i in range(25):
        samples.append(_special_violator(f"gbad{i:02d}", rng))
    rng.shuffle(samples)
    return Dataset.from_samples(samples)
