from __future__ import annotations

import json
import random
import re
import unicodedata

import pytest

from pipecraft import cli
from pipecraft.clients import HeuristicScorer
from pipecraft.config import NgramConfig, OperatorConfig
from pipecraft.corpus import save_dataset
from pipecraft.evaluation import proxy_components
from pipecraft.operators import apply_cleaning, filter_violations, strip_noise
from pipecraft.screener import heuristic_verdict
from pipecraft.synthetic import messy_corpus
from pipecraft.textstats import (
    _CONTROL_RE,
    _MAX_CLEAN_PASSES,
    _TOKEN_RE,
    PROFILE_MEMO_SIZE,
    REASON_NGRAM,
    REASON_SPECIAL_CHARS,
    REASON_TOKEN_COUNT,
    _clean_once,
    _is_clean,
    _repetition,
    clean_text,
    is_allowed_char,
    length_adequacy,
    ngram_repetition_ratio,
    special_char_ratio,
    text_profile,
    token_count,
    tokenize,
    violations,
)


class TestCleanText:
    def test_tag_removal(self):
        assert clean_text("<b>hi</b>") == "hi"

    def test_plain_text_unchanged(self):
        assert clean_text("nothing to fix here") == "nothing to fix here"

    def test_control_entity_whitespace(self):
        # hand-applied rules: control char dropped, entity unescaped,
        # whitespace runs collapsed
        assert clean_text("a" + chr(0) + "  b&amp;c") == "a b&c"

    def test_comment_and_self_closing(self):
        assert clean_text("x <!-- note --> y <br/> z") == "x y z"

    def test_escaped_markup_is_markup(self):
        assert clean_text("&lt;b&gt;deep&lt;/b&gt;") == "deep"

    def test_idempotent_on_random_noise(self):
        rng = random.Random(7)
        fragments = ["<i>", "</p>", "&amp;", "&lt;", "  ", "\t", "word", "x<y", chr(3), "。"]
        for _ in range(200):
            text = "".join(rng.choice(fragments) for _ in range(rng.randint(0, 12)))
            once = clean_text(text)
            assert clean_text(once) == once


class TestSpecialCharRatio:
    def test_empty(self):
        assert special_char_ratio("") == 0.0

    def test_all_allowed(self):
        assert special_char_ratio("hello") == 0.0

    def test_hand_counted(self):
        # '#' and '$' are special, 'a' and 'b' are not: 2 of 4
        assert special_char_ratio("ab#$") == 0.5

    def test_cjk_and_punctuation_allowed(self):
        assert special_char_ratio("深度, wow! (ok)") == 0.0

    def test_markup_chars_are_special(self):
        assert special_char_ratio("<><>") == 1.0

    @pytest.mark.usefixtures("restore_char_classes")
    def test_matches_per_character_formula_over_all_code_points(self):
        every = "".join(map(chr, range(0x110000)))
        for start in range(0, len(every), 1 << 12):
            chunk = every[start : start + (1 << 12)]
            assert special_char_ratio(chunk) == ref_special_char_ratio(chunk)

    def test_matches_per_character_formula_on_repeats(self):
        texts = random_unicode_texts(31, 500) + messy_texts()
        rng = random.Random(31)
        texts += [text * rng.randint(2, 5) + text[: rng.randint(0, len(text))] for text in texts]
        for text in texts:
            assert special_char_ratio(text) == ref_special_char_ratio(text)


class TestTokenCount:
    def test_whitespace_split(self):
        assert token_count("hello world") == 2

    def test_empty(self):
        assert token_count("") == 0

    def test_cjk_chars_are_single_tokens(self):
        assert token_count("深度") == 2

    def test_mixed_chunk(self):
        # latin run + two CJK codepoints + latin run inside one chunk
        assert tokenize("ab深度cd") == ["ab", "深", "度", "cd"]


class TestNgramRepetition:
    def test_hand_enumerated_bigrams(self):
        # bigrams of "a b a b a b": (a,b),(b,a),(a,b),(b,a),(a,b) -> 2 of 5 distinct
        assert ngram_repetition_ratio("a b a b a b", 2) == pytest.approx(0.6)

    def test_too_short(self):
        assert ngram_repetition_ratio("a b c", 5) == 0.0

    def test_all_distinct(self):
        for n in (1, 2, 3):
            assert ngram_repetition_ratio("one two three four five six", n) == 0.0

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            ngram_repetition_ratio("a b", 0)


def test_length_adequacy_bounds():
    assert length_adequacy("", 40) == 0.0
    assert length_adequacy("word " * 40, 40) == 1.0
    assert length_adequacy("word " * 10, 40) == pytest.approx(0.25)
    assert 0.0 <= length_adequacy("word " * 999, 40) <= 1.0


# ---------------------------------------------------------------------------
# Reference implementations: the per-character tokenizer and the threshold
# checks as they were written before the profile memo, kept verbatim so the
# regex tokenizer and the single ``violations`` rule stay equivalent to them.
# ---------------------------------------------------------------------------

REF_CJK_RANGES = (
    (0x3040, 0x30FF),
    (0x3400, 0x4DBF),
    (0x4E00, 0x9FFF),
    (0xAC00, 0xD7AF),
    (0xF900, 0xFAFF),
    (0x20000, 0x2EBEF),
)


def ref_is_cjk(ch: str) -> bool:
    code = ord(ch)
    return any(lo <= code <= hi for lo, hi in REF_CJK_RANGES)


def ref_tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    for chunk in text.split():
        buf = ""
        for ch in chunk:
            if ref_is_cjk(ch):
                if buf:
                    tokens.append(buf)
                    buf = ""
                tokens.append(ch)
            else:
                buf += ch
        if buf:
            tokens.append(buf)
    return tokens


def ref_ngram_ratio(text: str, n: int) -> float:
    return ref_repetition(ref_tokenize(text), n)


def ref_repetition(tokens: list[str], n: int) -> float:
    total = len(tokens) - n + 1
    if total < 1:
        return 0.0
    grams = {tuple(tokens[i : i + n]) for i in range(total)}
    return 1.0 - len(grams) / total


def ref_special_char_ratio(text: str) -> float:
    """The per-character formula: one alphabet check for every character."""
    if not text:
        return 0.0
    return sum(1 for ch in text if not is_allowed_char(ch)) / len(text)


def ref_filter_violations(text: str, cfg: OperatorConfig) -> list[str]:
    """operators.filter_violations and the threshold part of
    screener.heuristic_verdict (the two were the same formula)."""
    reasons = []
    lo, hi = cfg.special_char_range
    if not lo <= special_char_ratio(text) <= hi:
        reasons.append("special-char-ratio")
    tlo, thi = cfg.token_range
    if not tlo <= len(ref_tokenize(text)) <= thi:
        reasons.append("token-count")
    if ref_ngram_ratio(text, cfg.ngram.n) > cfg.ngram.max_repetition_ratio:
        reasons.append("ngram-repetition")
    return reasons


def ref_heuristic_score(question: str, answer: str, cfg: OperatorConfig) -> float:
    """clients.HeuristicScorer's score."""
    text = question + "\n" + answer
    lo, hi = cfg.special_char_range
    tlo, thi = cfg.token_range
    tokens = len(ref_tokenize(text))
    passes = (
        lo <= special_char_ratio(text) <= hi
        and tlo <= tokens <= thi
        and ref_ngram_ratio(text, cfg.ngram.n) <= cfg.ngram.max_repetition_ratio
    )
    complete = bool(question) and bool(answer)
    adequacy = min(1.0, tokens / max(1, 4 * max(1, cfg.token_range[0])))
    return (float(passes) + float(complete) + adequacy) / 3.0


STR_SPLIT_WHITESPACE = (
    " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u200a\u2028\u2029\u202f\u205f\u3000"
)


def _edge_codepoints() -> list[str]:
    """Both ends of each CJK range and one codepoint past each end."""
    chars = []
    for lo, hi in REF_CJK_RANGES:
        chars += [chr(lo - 1), chr(lo), chr(hi), chr(hi + 1)]
    return chars


def random_unicode_texts(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    pools = [
        _edge_codepoints(),
        STR_SPLIT_WHITESPACE,
        "abcxyz019.,!?#$<>&-'\"()",
        "深度学习ひらがなカタカナ한국어",
    ]

    def pick() -> str:
        roll = rng.random()
        if roll < 0.15:
            return chr(rng.randint(0x20000, 0x2EBEF))  # astral CJK extensions
        if roll < 0.35:
            return chr(rng.randint(0, 0x10FFFF))
        return rng.choice(rng.choice(pools))

    return ["".join(pick() for _ in range(rng.randint(0, 40))) for _ in range(count)]


def messy_texts() -> list[str]:
    texts = []
    for sample in messy_corpus(seed=0):
        stripped = strip_noise(sample)
        texts += [sample.question, sample.answer, sample.combined_text, stripped.combined_text]
    return texts


# thresholds tight enough that short random strings fall on both sides
TIGHT_CFG = OperatorConfig(
    special_char_range=(0.1, 0.5),
    token_range=(2, 6),
    ngram=NgramConfig(n=1, max_repetition_ratio=0.2),
)


# token bounds wide open; 1 - 3/4 is exact in binary, so the n-gram bound is hit
NGRAM_BOUND_CFG = OperatorConfig(
    token_range=(0, 99), ngram=NgramConfig(n=1, max_repetition_ratio=0.25)
)


class TestControlCharacterRegex:
    def test_matches_cc_category_over_all_code_points(self):
        every = "".join(map(chr, range(0x110000)))
        by_category = [ch for ch in every if unicodedata.category(ch) == "Cc"]
        assert _CONTROL_RE.findall(every) == by_category


# ---------------------------------------------------------------------------
# Fast paths: clean_text and tokenize skip passes that cannot change a text,
# and _repetition builds its n-gram set with zip. The slow paths below (and
# ref_repetition above) are the functions as they were before, kept as the
# oracle.
# ---------------------------------------------------------------------------


def slow_clean_text(text: str) -> str:
    for _ in range(_MAX_CLEAN_PASSES):
        cleaned = _clean_once(text)
        if cleaned == text:
            return cleaned
        text = cleaned
    return text


slow_tokenize = _TOKEN_RE.findall


def in_context(chars: list[str]) -> list[str]:
    """Each character alone, inside ``a…b`` and at either edge."""
    return chars + [f"a{c}b" for c in chars] + [c + "b" for c in chars] + ["a" + c for c in chars]


def code_point_texts():
    """Every code point in context, one 4,096-point chunk at a time."""
    for start in range(0, 0x110000, 1 << 12):
        yield in_context(list(map(chr, range(start, min(start + (1 << 12), 0x110000)))))


FAST_PATH_PIECES = [
    "&", "<", ">", ";", " ", "\t", "\n", "\x00", "\x1f", "\x7f", "\x85", "\x9f",
    "\xa0", "\u2028", "\u2003", "\u3000", "\u200b", "&amp;", "<b>", "a", "b", "xy",
]
CJK_PIECES = ["深", "度", "ひ", "カ", "한", "\U00020000"]


def random_piece_texts(seed: int, pieces: list[str], count: int = 3000) -> list[str]:
    """Seeded strings, each over three pieces drawn at random, so that a text
    often holds one kind of noise and nothing else."""
    rng = random.Random(seed)
    return [
        "".join(rng.choices(rng.sample(pieces, 3), k=rng.randint(0, 12)))
        for _ in range(count)
    ]


class TestFastPaths:
    def test_clean_text_fast_path_on_every_code_point(self):
        # where _is_clean is false, clean_text runs the slow path itself;
        # every text it returns at once must be a slow-path fixed point
        for texts in code_point_texts():
            returned_at_once = list(filter(_is_clean, texts))
            assert list(map(slow_clean_text, returned_at_once)) == returned_at_once

    def test_clean_text_on_random_pieces(self):
        texts = random_piece_texts(16, FAST_PATH_PIECES) + messy_texts()
        assert any(map(_is_clean, texts))
        for text in texts:
            assert clean_text(text) == slow_clean_text(text), ascii(text)

    def test_tokenize_fast_path_on_all_ascii(self):
        # the fast path takes ASCII texts only, and any other text runs the
        # slow path itself: every ASCII code point in context, and every pair
        ascii_chars = list(map(chr, range(128)))
        texts = in_context(ascii_chars) + [a + b for a in ascii_chars for b in ascii_chars]
        assert list(map(tokenize, texts)) == list(map(slow_tokenize, texts))

    def test_tokenize_on_random_pieces(self):
        texts = random_piece_texts(17, FAST_PATH_PIECES + CJK_PIECES) + messy_texts()
        for text in texts:
            assert tokenize(text) == slow_tokenize(text), ascii(text)

    def test_repetition_matches_set_of_slices(self):
        rng = random.Random(18)
        for _ in range(3000):
            tokens = rng.choices("abcd", k=rng.randint(0, 9))
            n = rng.randint(1, 5)
            assert _repetition(tokens, n) == ref_repetition(tokens, n), (tokens, n)


class TestRegexTokenizerEquivalence:
    def test_python_whitespace_class_is_str_split_whitespace(self):
        space_re = re.compile(r"\s")
        for code in range(0x110000):
            ch = chr(code)
            assert bool(space_re.fullmatch(ch)) == (len(("a" + ch + "a").split()) == 2), hex(code)

    def test_matches_reference_on_random_unicode(self):
        for text in random_unicode_texts(seed=2, count=4000):
            assert tokenize(text) == ref_tokenize(text), ascii(text)

    def test_matches_reference_on_cjk_range_edges(self):
        edges = "".join(_edge_codepoints())
        for text in (edges, " ".join(edges), "x".join(edges), edges + "\u3000" + edges):
            assert tokenize(text) == ref_tokenize(text)

    def test_matches_reference_on_messy_corpus(self):
        for text in messy_texts():
            assert tokenize(text) == ref_tokenize(text)


class TestProfileAndViolations:
    @pytest.mark.parametrize("cfg", [OperatorConfig(), TIGHT_CFG], ids=["default", "tight"])
    def test_match_reference_formulas(self, cfg):
        for text in random_unicode_texts(seed=3, count=1500) + messy_texts():
            profile = text_profile(text, cfg.ngram.n)
            assert profile.tokens == len(ref_tokenize(text))
            assert profile.special_ratio == special_char_ratio(text)
            assert profile.ngram_ratio == ref_ngram_ratio(text, cfg.ngram.n)
            assert violations(profile, cfg) == ref_filter_violations(text, cfg)
            assert filter_violations(text, cfg) == ref_filter_violations(text, cfg)

    @pytest.mark.parametrize(
        "cfg, text, expected",
        [
            (NGRAM_BOUND_CFG, "a a b c", []),  # repetition exactly 0.25
            (NGRAM_BOUND_CFG, "a a b b", [REASON_NGRAM]),
        ]
        + [
            (OperatorConfig(special_char_range=(0.25, 0.5), token_range=(0, 99)), text, want)
            for text, want in (
                ("a#bc", []),
                ("a#b#", []),
                ("a#bcd", [REASON_SPECIAL_CHARS]),
                ("a##b#", [REASON_SPECIAL_CHARS]),
            )
        ]
        + [
            (OperatorConfig(token_range=(2, 6)), text, want)
            for text, want in (
                ("a b", []),
                ("a b c d e f", []),
                ("a", [REASON_TOKEN_COUNT]),
                ("a b c d e f g", [REASON_TOKEN_COUNT]),
            )
        ],
    )
    def test_bounds_are_inclusive(self, cfg, text, expected):
        assert violations(text_profile(text, cfg.ngram.n), cfg) == expected
        assert ref_filter_violations(text, cfg) == expected

    def test_messy_corpus_samples(self, cfg):
        thresholds = {REASON_SPECIAL_CHARS, REASON_TOKEN_COUNT, REASON_NGRAM}
        scorer = HeuristicScorer(cfg)
        for sample in messy_corpus(seed=0):
            stripped = strip_noise(sample).combined_text
            verdict = heuristic_verdict(sample, cfg)
            assert [r for r in verdict.reasons if r in thresholds] == filter_violations(
                stripped, cfg
            )
            request = {"question": sample.question, "answer": sample.answer}
            assert scorer.complete(request)["score"] == ref_heuristic_score(
                sample.question, sample.answer, cfg
            )


    def test_proxy_components_match_reference(self, cfg):
        for dataset in (messy_corpus(seed=0), apply_cleaning(messy_corpus(seed=0), cfg)):
            texts = [sample.combined_text for sample in dataset]
            floor = 4 * max(1, cfg.token_range[0])
            passing, _, _, adequacy = proxy_components(dataset, cfg)
            assert passing == sum(not ref_filter_violations(t, cfg) for t in texts) / len(texts)
            assert adequacy == sum(
                min(1.0, len(ref_tokenize(t)) / floor) for t in texts
            ) / len(texts)


class _RunMemoTests:
    """Checks shared by the per-run memos; a subclass names the memo and the
    arguments that follow the text."""

    memo = None
    args = ()

    def test_bounded(self):
        memo = self.memo
        memo.cache_clear()
        for i in range(PROFILE_MEMO_SIZE + 10):
            memo(f"t{i}", *self.args)
        info = memo.cache_info()
        assert info.maxsize == PROFILE_MEMO_SIZE
        assert info.currsize == PROFILE_MEMO_SIZE
        memo.cache_clear()

    def test_lasts_one_run(self, tmp_path, monkeypatch, capsys):
        memo = self.memo
        corpus_path = tmp_path / "corpus.jsonl"
        save_dataset(messy_corpus(seed=10), corpus_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"dataset": str(corpus_path)}), encoding="utf-8")
        sizes_at_start, sizes_at_end = [], []
        real_run_search = cli.run_search

        def spy(*args, **kwargs):
            sizes_at_start.append(memo.cache_info().currsize)
            result = real_run_search(*args, **kwargs)
            sizes_at_end.append(memo.cache_info().currsize)
            return result

        monkeypatch.setattr(cli, "run_search", spy)
        memo("left over from an earlier run", *self.args)
        assert cli.main(["run", "--config", str(config_path), "--out", str(tmp_path / "r")]) == 0
        assert sizes_at_start == [0]
        assert sizes_at_end[0] > 0 and memo.cache_info().currsize == 0


class TestProfileMemo(_RunMemoTests):
    # staticmethod, so the memo is not bound to the test instance
    memo = staticmethod(text_profile)
    args = (1,)


class TestCleanTextMemo(_RunMemoTests):
    memo = staticmethod(clean_text)
