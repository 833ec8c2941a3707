from __future__ import annotations

import json
import random

import pytest

from pipecraft.corpus import (
    Dataset,
    DatasetError,
    Sample,
    fingerprint_samples,
    load_dataset,
    save_dataset,
)


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


def test_unreadable_path():
    with pytest.raises(DatasetError, match="cannot read"):
        load_dataset("/nonexistent/nowhere.jsonl")


def test_sample_validation():
    with pytest.raises(DatasetError):
        Sample(id="", question="q")
    with pytest.raises(DatasetError):
        Sample(id="x", question="q", meta={"k": [1, 2]})


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
