"""Text-level quality metrics shared by cleaning filters, the screener, and scoring.

A text is cleaned, and its threshold statistics computed, once per run:
:func:`clean_text` and :func:`text_profile` each keep a bounded memo, cleared
by :func:`clear_run_memos` when each run starts and ends. A memo holds only
pure functions of its key and so never changes an output.

Passes that cannot change a text are skipped, with the same result:
:func:`clean_text` returns a text unchanged when a few C-level string checks
find nothing a cleaning pass would touch (``&``, ``<``, a control character,
whitespace other than a single inner space), and :func:`tokenize` splits an
ASCII text, which holds no CJK code point, with ``str.split``.

Characters are classified as allowed or special through one ``str.translate``
table, :data:`ALLOWED_CHARS`, so counting or dropping special characters runs
in C. The table starts empty and classifies each code point the first time a
text holds it; it never holds more than one entry per code point seen.

MinHash dedup and the trigram embedder hash code-point n-grams with one
function, :func:`ngram_hashes`: a seeded splitmix64 chain over each window's
code points, packed 21 bits apiece.
"""
from __future__ import annotations

import html
import re
import unicodedata
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .config import OperatorConfig

# Alphabet treated as ordinary content: letters in any script, decimal digits,
# whitespace, and common sentence punctuation. Everything else is "special".
ALLOWED_PUNCTUATION = set(".,!?;:'\"()-")

_TAG_RE = re.compile(r"<!--.*?-->|</?[A-Za-z][^<>]*>", re.DOTALL)
_WS_RUN_RE = re.compile(r"\s+")
# exactly the Unicode "Cc" (control) category, which stability policy fixes
_CONTROL_RE = re.compile("[\x00-\x1f\x7f-\x9f]")
_MAX_CLEAN_PASSES = 8

_CJK_RANGES = (
    (0x3040, 0x30FF),    # hiragana, katakana
    (0x3400, 0x4DBF),    # CJK extension A
    (0x4E00, 0x9FFF),    # CJK unified
    (0xAC00, 0xD7AF),    # hangul syllables
    (0xF900, 0xFAFF),    # CJK compatibility
    (0x20000, 0x2EBEF),  # CJK extensions B..F
)
_CJK_CLASS = "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _CJK_RANGES)
# one CJK codepoint, or a run of characters that are neither whitespace nor CJK
_TOKEN_RE = re.compile(rf"[{_CJK_CLASS}]|[^\s{_CJK_CLASS}]+")

# distinct keys each per-run memo keeps: texts, or (text, n) pairs
PROFILE_MEMO_SIZE = 1 << 15

REASON_SPECIAL_CHARS = "special-char-ratio"
REASON_TOKEN_COUNT = "token-count"
REASON_NGRAM = "ngram-repetition"

# seeds every n-gram hash chain and MinHash's densification order; read at
# call time, so patching it here reseeds both
HASH_SEED = 0x5EED_CAFE
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_SHIFT_1, _SHIFT_2, _SHIFT_3 = np.uint64(30), np.uint64(27), np.uint64(31)
_CODE_BITS = 21
_CODES_PER_WORD = 3


def _clean_once(text: str) -> str:
    text = html.unescape(text)
    text = _TAG_RE.sub(" ", text)
    text = _CONTROL_RE.sub("", text)
    text = _WS_RUN_RE.sub(" ", text)
    return text.strip()


def _is_clean(text: str) -> bool:
    """True when ``text`` is a fixed point of :func:`_clean_once`. Unescaping
    needs an ``&`` and a tag a ``<``; ``str.isprintable`` is false for every
    control character and every whitespace character but the space, so the
    whitespace collapse and strip need a double or an edge space."""
    return (
        text.isprintable()
        and "&" not in text
        and "<" not in text
        and "  " not in text
        and text[:1] != " "
        and text[-1:] != " "
    )


@lru_cache(maxsize=PROFILE_MEMO_SIZE)
def clean_text(text: str) -> str:
    """Remove markup tags, entity escapes, and control characters; collapse
    whitespace runs. Repeats the pass until the text stops changing, at most
    ``_MAX_CLEAN_PASSES`` (8) times, so the result is a fixed point whenever
    at most that many passes change the text. Each pass undoes one level of
    escaping: markup escaped more than 8 times keeps escapes that cleaning
    again removes."""
    if _is_clean(text):
        return text
    for _ in range(_MAX_CLEAN_PASSES):
        cleaned = _clean_once(text)
        if cleaned == text:
            return cleaned
        text = cleaned
    return text


def is_allowed_char(ch: str) -> bool:
    """True for letters in any script, decimal digits, whitespace, and the
    allowed punctuation set."""
    if ch.isspace() or ch in ALLOWED_PUNCTUATION:
        return True
    category = unicodedata.category(ch)
    return category.startswith("L") or category == "Nd"


class _CharClasses(dict):
    """A ``str.translate`` table that keeps allowed characters and deletes
    special ones: a code point maps to itself or to ``None``. It starts
    empty and classifies each code point with :func:`is_allowed_char` the
    first time a text holds it."""

    def __missing__(self, code: int) -> int | None:
        kept = code if is_allowed_char(chr(code)) else None
        self[code] = kept
        return kept


ALLOWED_CHARS = _CharClasses()


def special_char_ratio(text: str) -> float:
    """Fraction of characters outside the allowed alphabet; empty text -> 0."""
    if not text:
        return 0.0
    return (len(text) - len(text.translate(ALLOWED_CHARS))) / len(text)


def tokenize(text: str) -> list[str]:
    """Whitespace-split tokens, with every CJK codepoint its own token."""
    if text.isascii():  # no CJK; str.split splits where \s matches
        return text.split()
    return _TOKEN_RE.findall(text)


def token_count(text: str) -> int:
    return len(tokenize(text))


def _repetition(tokens: list[str], n: int) -> float:
    if n < 1:
        raise ValueError("n must be >= 1")
    total = len(tokens) - n + 1
    if total < 1:
        return 0.0
    grams = set(zip(*(tokens[i:] for i in range(n))))
    return 1.0 - len(grams) / total


def ngram_repetition_ratio(text: str, n: int) -> float:
    """1 - (distinct word n-grams / total word n-grams); short texts -> 0."""
    return _repetition(tokenize(text), n)


def _adequacy(tokens: int, floor_tokens: int) -> float:
    return min(1.0, tokens / max(1, floor_tokens))


def length_adequacy(text: str, floor_tokens: int) -> float:
    """Bounded score in [0, 1]: ramps linearly up to ``floor_tokens`` tokens."""
    return _adequacy(token_count(text), floor_tokens)


class TextProfile(NamedTuple):
    """The threshold statistics of one text, with word n-grams of size ``n``."""

    special_ratio: float
    tokens: int
    ngram_ratio: float

    def adequacy(self, cfg: OperatorConfig) -> float:
        """Length adequacy, saturating at four times the minimum token count."""
        return _adequacy(self.tokens, 4 * max(1, cfg.token_range[0]))


@lru_cache(maxsize=PROFILE_MEMO_SIZE)
def text_profile(text: str, n: int) -> TextProfile:
    """Memoized profile of ``text``; keyed on the text itself, so two texts
    never share an entry."""
    tokens = tokenize(text)
    return TextProfile(special_char_ratio(text), len(tokens), _repetition(tokens, n))


# bound at import, so the functions' own memos are reached even where a
# caller has rebound the module names, for instance to wrap them
_RUN_MEMOS = (clean_text, text_profile)


def clear_run_memos() -> None:
    """Empty the per-run memos of :func:`clean_text` and :func:`text_profile`."""
    for memo in _RUN_MEMOS:
        memo.cache_clear()


def violations(profile: TextProfile, cfg: OperatorConfig) -> list[str]:
    """Reason ids of every cleaning threshold the profiled text violates."""
    reasons = []
    lo, hi = cfg.special_char_range
    if not lo <= profile.special_ratio <= hi:
        reasons.append(REASON_SPECIAL_CHARS)
    tlo, thi = cfg.token_range
    if not tlo <= profile.tokens <= thi:
        reasons.append(REASON_TOKEN_COUNT)
    if profile.ngram_ratio > cfg.ngram.max_repetition_ratio:
        reasons.append(REASON_NGRAM)
    return reasons


def _mix64(values: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place; uint64 arithmetic wraps mod 2**64 by
    design."""
    values ^= values >> _SHIFT_1
    values *= _MIX_1
    values ^= values >> _SHIFT_2
    values *= _MIX_2
    values ^= values >> _SHIFT_3
    return values


def ngram_hashes(codes: np.ndarray, size: int) -> np.ndarray:
    """Seeded 64-bit hash of every window of ``size`` consecutive code points
    in ``codes``, a ``uint32`` (or ``uint64``) array, in order. A window
    packs 21 bits per code point, three code points per word with the first
    lowest, and mixes its words in turn into a splitmix64 chain started at
    :data:`HASH_SEED`. The fields of a word do not overlap, so each code
    point is xored into the chain at its field. Every window is hashed at
    once with slices. ``uint32`` codes are widened once here, so no operand
    of the chain depends on NumPy's scalar promotion rules."""
    codes = codes.astype(np.uint64, copy=False)
    count = max(codes.size - size + 1, 0)
    hashes = codes[:count] ^ np.uint64(HASH_SEED)
    for start in range(1, size):
        field = start % _CODES_PER_WORD
        if not field:
            _mix64(hashes)
        hashes ^= codes[start : start + count] << np.uint64(_CODE_BITS * field)
    return _mix64(hashes)
