from __future__ import annotations

import json
import random
from collections import Counter
from functools import cached_property

import pytest

from pipecraft.cache import StrategyCache
from pipecraft.cli import main
from pipecraft.config import OperatorConfig
from pipecraft.corpus import (
    Dataset,
    DatasetError,
    Sample,
    fingerprint_samples,
    load_dataset,
    save_dataset,
)
from pipecraft.operators import ExecutionContext
from pipecraft.strategy import enumerate_space
from pipecraft.synthetic import messy_corpus


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n\n   \n", encoding="utf-8")
    dataset = load_dataset(path)
    assert len(dataset) == 0
    assert dataset.fingerprint == fingerprint_samples(())


def test_load_preserves_order(tmp_path):
    path = tmp_path / "two.jsonl"
    path.write_text(
        json.dumps({"id": "A", "question": "qa", "answer": "aa", "meta": {}}) + "\n"
        + json.dumps({"id": "B", "question": "qb", "answer": "ab", "meta": {}}) + "\n",
        encoding="utf-8",
    )
    dataset = load_dataset(path)
    assert [s.id for s in dataset] == ["A", "B"]


def test_fingerprint_ignores_record_key_order(tmp_path):
    # same logical content serialized with different key orders
    record_sorted = {"answer": "a", "id": "x", "meta": {"k": 1, "z": 2}, "question": "q"}
    record_shuffled = {"question": "q", "meta": {"z": 2, "k": 1}, "id": "x", "answer": "a"}
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    p1.write_text(json.dumps(record_sorted) + "\n", encoding="utf-8")
    p2.write_text(json.dumps(record_shuffled) + "\n", encoding="utf-8")
    assert load_dataset(p1).fingerprint == load_dataset(p2).fingerprint


def _random_sample(rng: random.Random, i: int) -> Sample:
    pieces = ["plain text", "line\nbreak", "tab\there", 'quote"inside', "unicode 深度", ""]
    return Sample(
        id=f"s{i}",
        question=rng.choice(pieces) + str(rng.random()),
        answer=rng.choice(pieces),
        meta={"n": rng.randint(0, 9), "f": rng.random(), "flag": rng.random() < 0.5, "s": "x,y"},
    )


def test_round_trip_empty(tmp_path):
    empty = Dataset.from_samples(())
    save_dataset(empty, tmp_path / "e.jsonl")
    loaded = load_dataset(tmp_path / "e.jsonl")
    assert loaded == empty


def test_round_trip_random_samples(tmp_path):
    rng = random.Random(1234)
    dataset = Dataset.from_samples(_random_sample(rng, i) for i in range(100))
    save_dataset(dataset, tmp_path / "d.jsonl")
    loaded = load_dataset(tmp_path / "d.jsonl")
    assert loaded.samples == dataset.samples
    assert loaded.fingerprint == dataset.fingerprint


def test_newline_in_text_round_trips(tmp_path):
    dataset = Dataset.from_samples(
        [Sample(id="n", question="first line\nsecond line", answer="a\n\nb")]
    )
    save_dataset(dataset, tmp_path / "n.jsonl")
    text = (tmp_path / "n.jsonl").read_text(encoding="utf-8")
    assert len(text.strip().splitlines()) == 1  # newline escaped on disk
    loaded = load_dataset(tmp_path / "n.jsonl")
    assert loaded[0].question == "first line\nsecond line"
    assert loaded.fingerprint == dataset.fingerprint


def test_fingerprint_changes_on_single_character():
    a = Dataset.from_samples([Sample(id="x", question="q", answer="a")])
    b = Dataset.from_samples([Sample(id="x", question="q", answer="b")])
    assert a.fingerprint != b.fingerprint


def test_fingerprint_order_sensitive():
    s1, s2 = Sample(id="1", question="q"), Sample(id="2", question="q")
    assert (
        Dataset.from_samples([s1, s2]).fingerprint
        != Dataset.from_samples([s2, s1]).fingerprint
    )


def test_fingerprint_deterministic_across_construction_paths():
    direct = Dataset.from_samples([Sample(id="x", question="q", answer="a", meta={"k": 1})])
    rebuilt = Dataset.from_samples(
        [Sample(id="x", question="q" + "", answer="a", meta=dict([("k", 1)]))]
    )
    assert direct.fingerprint == rebuilt.fingerprint


def test_duplicate_id_rejected(tmp_path):
    path = tmp_path / "dup.jsonl"
    line = json.dumps({"id": "same", "question": "q", "answer": "a", "meta": {}})
    path.write_text(line + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="line 2.*duplicate"):
        load_dataset(path)


def test_malformed_line_reports_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"id": "ok", "question": "q", "answer": "a", "meta": {}})
    path.write_text(good + "\n{not json\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="line 2"):
        load_dataset(path)


def test_invalid_utf8_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"id": "ok", "question": "q", "answer": "a", "meta": {}}).encode()
    path.write_bytes(good + b"\n\n" + good.replace(b'"a"', b'"\xc3"') + b"\n" + good + b"\n")
    with pytest.raises(DatasetError, match=r"line 3: byte 0xc3 is not valid UTF-8"):
        load_dataset(path)


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_other_line_endings_load_like_lf(tmp_path, newline):
    records = [json.dumps({"id": f"s{i}", "question": "q", "answer": f"a{i}"}).encode()
               for i in range(3)]
    (tmp_path / "lf.jsonl").write_bytes(b"\n".join(records) + b"\n")
    (tmp_path / "other.jsonl").write_bytes(newline.join(records) + newline)
    assert load_dataset(tmp_path / "other.jsonl") == load_dataset(tmp_path / "lf.jsonl")


# str.splitlines breaks at these; a saved record holds them unescaped
UNICODE_LINE_BREAKS = Dataset.from_samples([
    Sample(id="ls", question="line\u2028separator", answer="a"),
    Sample(id="ps", question="q", answer="paragraph\u2029separator"),
    Sample(id="nel", question="next\u0085line", answer="a\u2028\u2029\u0085b",
           meta={"note": "\u2028"}),
])


def test_unicode_line_breaks_round_trip(tmp_path):
    save_dataset(UNICODE_LINE_BREAKS, tmp_path / "u.jsonl")
    assert "\u2028" in (tmp_path / "u.jsonl").read_text(encoding="utf-8")  # premise
    loaded = load_dataset(tmp_path / "u.jsonl")
    assert loaded.samples == UNICODE_LINE_BREAKS.samples
    assert loaded.fingerprint == UNICODE_LINE_BREAKS.fingerprint


def test_apply_none_twice_on_unicode_line_breaks(tmp_path):
    save_dataset(UNICODE_LINE_BREAKS, tmp_path / "in.jsonl")
    once, twice = tmp_path / "once.jsonl", tmp_path / "twice.jsonl"
    assert main(["apply", "--strategy", "NONE", "--input", str(tmp_path / "in.jsonl"),
                 "--output", str(once)]) == 0
    assert main(["apply", "--strategy", "NONE", "--input", str(once),
                 "--output", str(twice)]) == 0
    assert twice.read_bytes() == once.read_bytes() == (tmp_path / "in.jsonl").read_bytes()


def test_cache_entry_with_unicode_line_breaks_is_a_hit(tmp_path, caplog):
    strategy = enumerate_space()[1]
    StrategyCache(tmp_path, OperatorConfig().digest(), seed=0).put(
        strategy, UNICODE_LINE_BREAKS.fingerprint, UNICODE_LINE_BREAKS)
    cache = StrategyCache(tmp_path, OperatorConfig().digest(), seed=0)
    ctx = ExecutionContext.with_defaults(OperatorConfig())
    out = cache.apply_with_reuse(strategy, UNICODE_LINE_BREAKS, ctx)
    assert out.samples == UNICODE_LINE_BREAKS.samples
    assert cache.stats() == {"entries": 1, "hits": 1, "team_invocations_saved": 1}
    assert "evicting" not in caplog.text


def test_unreadable_path():
    with pytest.raises(DatasetError, match="cannot read"):
        load_dataset("/nonexistent/nowhere.jsonl")


def test_sample_validation():
    with pytest.raises(DatasetError):
        Sample(id="", question="q")
    with pytest.raises(DatasetError):
        Sample(id="x", question="q", meta={"k": [1, 2]})


@pytest.mark.parametrize("meta", ["0", "false", '""', "[]", "1", '"x"', "[1]"])
def test_meta_that_is_not_an_object_rejected(tmp_path, meta):
    """Only a missing ``meta`` or ``null`` means no meta; a falsy non-object
    is refused like a truthy one, not loaded as ``{}``."""
    path = tmp_path / "meta.jsonl"
    good = json.dumps({"id": "ok", "question": "q", "answer": "a"})
    path.write_text(good + "\n" + '{"id": "x", "question": "q", "meta": %s}\n' % meta,
                    encoding="utf-8")
    with pytest.raises(DatasetError, match="line 2: sample 'x': meta must be a mapping"):
        load_dataset(path)


def test_missing_or_null_meta_is_empty(tmp_path):
    path = tmp_path / "meta.jsonl"
    path.write_text('{"id": "a"}\n{"id": "b", "meta": null}\n{"id": "c", "meta": {}}\n',
                    encoding="utf-8")
    assert [s.meta for s in load_dataset(path)] == [{}, {}, {}]


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_non_finite_meta_number_rejected(tmp_path, literal):
    path = tmp_path / "meta.jsonl"
    path.write_text('{"id": "x", "meta": {"ok": 1.5, "weight": %s}}\n' % literal,
                    encoding="utf-8")
    with pytest.raises(DatasetError, match="line 1: .*'weight' must be a finite number"):
        load_dataset(path)


def test_non_finite_meta_value_rejected_by_sample():
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DatasetError, match="'w' must be a finite number"):
            Sample(id="x", meta={"w": value})
    with pytest.raises(DatasetError, match="'w' must be a finite number"):
        Sample(id="x").with_fields(meta_updates={"w": float("nan")})


def test_saved_meta_is_strict_json(tmp_path):
    """Every number a loaded sample's meta holds is written back as JSON that
    a reader refusing NaN and Infinity parses."""
    path = tmp_path / "meta.jsonl"
    path.write_text('{"id": "x", "meta": {"big": 1e308, "small": -5e-324, "n": 7}}\n',
                    encoding="utf-8")
    save_dataset(load_dataset(path), tmp_path / "out.jsonl")

    def refuse(name):
        raise ValueError(name)

    line = (tmp_path / "out.jsonl").read_text(encoding="utf-8")
    assert json.loads(line, parse_constant=refuse)["meta"] == {"big": 1e308, "n": 7,
                                                               "small": -5e-324}


def test_unknown_field_rejected(tmp_path):
    path = tmp_path / "extra.jsonl"
    path.write_text(json.dumps({"id": "x", "bogus": 1}) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="unknown fields"):
        load_dataset(path)


@pytest.mark.parametrize("record", [
    {"id": "x", "answer": "bad \ud800 text"},
    {"id": "x\udfff"},
    {"id": "x", "meta": {"src": "\udc80"}},
    {"id": "x", "meta": {"\ud83d": 1}},
], ids=["answer", "id", "meta-value", "meta-key"])
def test_lone_surrogate_rejected_with_line_number(tmp_path, record):
    path = tmp_path / "surrogate.jsonl"
    good = json.dumps({"id": "ok", "question": "q", "answer": "a"})
    path.write_text(good + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="line 2: .*not valid Unicode"):
        load_dataset(path)


def test_escaped_astral_pair_loads(tmp_path):
    path = tmp_path / "pair.jsonl"
    path.write_text('{"id": "x", "answer": "smile \\ud83d\\ude00"}\n', encoding="utf-8")
    assert load_dataset(path)[0].answer == "smile \U0001F600"


def fresh_line(sample: Sample) -> str:
    """The canonical line computed from the sample's fields as they are now."""
    record = {"id": sample.id, "question": sample.question, "answer": sample.answer,
              "meta": sample.meta}
    return json.dumps(record, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def test_building_a_dataset_serializes_nothing():
    rng = random.Random(7)
    samples = [_random_sample(rng, i) for i in range(20)]
    dataset = Dataset.from_samples(samples)
    assert all("canonical" not in vars(sample) for sample in samples)
    assert "fingerprint" not in vars(dataset)
    assert dataset.fingerprint == fingerprint_samples(samples)


def test_no_strategy_changes_a_sample_in_place(tmp_path):
    """Each sample caches its canonical line, so every team must copy a sample
    it changes. Every strategy runs through a cache, so each team's input lines
    were cached (by the previous ``put`` or by the cache load) before it ran."""
    corpus = messy_corpus(seed=0)
    before = [fresh_line(sample) for sample in corpus]
    assert [sample.canonical for sample in corpus] == before
    ctx = ExecutionContext.with_defaults(OperatorConfig())
    cache = StrategyCache(tmp_path, OperatorConfig().digest(), seed=0)
    for strategy in enumerate_space():
        out = cache.apply_with_reuse(strategy, corpus, ctx)
        assert all(sample.canonical == fresh_line(sample) for sample in out), strategy
        assert [fresh_line(sample) for sample in corpus] == before, strategy


def test_run_serializes_each_sample_at_most_once(tmp_path, capsys, monkeypatch, bench_corpora):
    """Counted per ``Sample`` object over a full ``pipecraft run`` of the
    ``distinct-3k`` bench corpus; the objects are kept alive so no id is
    reused."""
    corpus_path = tmp_path / "corpus.jsonl"
    save_dataset(bench_corpora["distinct-3k"], corpus_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"dataset": str(corpus_path), "sampling_rate": 0.2, "seed": 0}),
        encoding="utf-8",
    )
    compute = vars(Sample)["canonical"].func
    counts: Counter[int] = Counter()
    seen: list[Sample] = []

    def counted(sample: Sample) -> str:
        counts[id(sample)] += 1
        seen.append(sample)
        return compute(sample)

    line = cached_property(counted)
    line.__set_name__(Sample, "canonical")
    monkeypatch.setattr(Sample, "canonical", line)
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 0
    assert len(counts) >= 3000
    assert max(counts.values()) == 1
