from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from pipecraft.config import OperatorConfig
from pipecraft.corpus import Dataset, Sample
from pipecraft.textstats import ALLOWED_CHARS


@pytest.fixture
def cfg() -> OperatorConfig:
    return OperatorConfig()


@pytest.fixture
def restore_char_classes():
    """Put the shared character-class table back as the test found it. A test
    that classifies every code point fills it with about 1.1M entries (about
    100 MB), which the rest of the session would otherwise keep."""
    saved = dict(ALLOWED_CHARS)
    yield
    ALLOWED_CHARS.clear()
    ALLOWED_CHARS.update(saved)


def bench_corpora_module():
    """``bench/corpora.py``, the benchmark's corpus generators. The bench
    directory is appended to ``sys.path``, not prepended, so that ``tests``
    keeps resolving to this directory."""
    bench_dir = str(Path(__file__).resolve().parent.parent / "bench")
    if bench_dir not in sys.path:
        sys.path.append(bench_dir)
    import corpora

    return corpora


@pytest.fixture(scope="session")
def bench_corpora() -> dict[str, Dataset]:
    """Both benchmark workloads at their benchmark sizes."""
    corpora = bench_corpora_module()
    return {"replicated-2k": corpora.replicated(44, 2000),
            "distinct-3k": corpora.distinct(44, 3000)}


def lines(dataset: Dataset) -> list[str]:
    """The dataset's canonical lines, as ``save_dataset`` writes them."""
    return [sample.canonical for sample in dataset]


def make_words(rng: random.Random, n: int) -> str:
    bank = (
        "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo "
        "lima mike november oscar papa quebec romeo sierra tango uniform "
        "victor whiskey xray yankee zulu"
    ).split()
    return " ".join(rng.choice(bank) for _ in range(n))


def clean_sample(sample_id: str, rng: random.Random, q_words: int = 20, a_words: int = 25) -> Sample:
    return Sample(
        id=sample_id,
        question=make_words(rng, q_words) + f" q{sample_id}",
        answer=make_words(rng, a_words) + f" a{sample_id}",
    )


def clean_corpus(n: int, seed: int = 0) -> Dataset:
    rng = random.Random(seed)
    return Dataset.from_samples(clean_sample(f"s{i:03d}", rng) for i in range(n))


def random_unicode(rng: random.Random, max_len: int) -> str:
    """Seeded text of 0 to ``max_len`` code points: ASCII, markup, accents,
    CJK and astral characters, plus an occasional code point drawn from the
    whole Unicode range outside the surrogates."""
    pools = ("abc de", "<b>&amp;", "\u00e9\u00fc\u00a0", "\u4e2d\u6587\u5b57",
             "\U0001F600\U00010348\U0002F800")
    chars = []
    for _ in range(rng.randint(0, max_len)):
        if rng.random() < 0.1:
            chars.append(chr(rng.choice((rng.randint(0x20, 0xD7FF),
                                         rng.randint(0xE000, 0x10FFFF)))))
        else:
            chars.append(rng.choice(rng.choice(pools)))
    return "".join(chars)


def copies_corpus(n: int = 240, seed: int = 0) -> Dataset:
    """Many exact copies of twelve base samples mixed with near-copies (one
    answer word replaced), in shuffled order."""
    rng = random.Random(seed)
    base = list(clean_corpus(12, seed=seed + 100))
    samples = []
    for i in range(n):
        original = rng.choice(base)
        answer = original.answer
        if rng.random() < 0.4:
            words = answer.split()
            words[rng.randrange(len(words))] = make_words(rng, 1)
            answer = " ".join(words)
        samples.append(Sample(id=f"c{i:04d}", question=original.question, answer=answer))
    rng.shuffle(samples)
    return Dataset.from_samples(samples)


# The code-point n-gram hash in Python integers, the oracle for
# ``textstats.ngram_hashes`` and so for both MinHash dedup and the trigram
# embedder: a window packs 21 bits per code point, three to a word, first
# lowest, and mixes its words in turn into a splitmix64 chain.

MASK64 = (1 << 64) - 1


def mix64_int(x: int) -> int:
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def window_hash_int(codes: list[int]) -> int:
    h = 0x5EED_CAFE
    for start in range(0, len(codes), 3):
        word = 0
        for offset, code in enumerate(codes[start : start + 3]):
            word |= code << (21 * offset)
        h = mix64_int(h ^ word)
    return h
