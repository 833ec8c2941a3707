from collections import Counter

import pytest

import corpora


def texts(dataset):
    return [(s.question, s.answer) for s in dataset]


@pytest.mark.parametrize("build,size", [(corpora.replicated, 2000), (corpora.distinct, 3000)])
def test_same_seed_same_corpus_other_seed_other_corpus(build, size):
    assert build(3, size) == build(3, size)
    assert build(3, size).fingerprint != build(4, size).fingerprint


def test_replicated_copies_every_record_about_26_times():
    dataset = corpora.replicated(0, 2000)
    counts = Counter(texts(dataset))
    assert len(dataset) == 2000
    assert len({s.id for s in dataset}) == 2000
    # 76 records, 8 of them copies of others and 4 of them the same short record
    assert len(counts) == 76 - 8 - 3
    assert min(counts.values()) >= 26


@pytest.mark.parametrize("build,size", [(corpora.replicated, 2000), (corpora.distinct, 3000)])
def test_seed_renames_ids_only(build, size):
    assert texts(build(3, size)) == texts(build(4, size))


def test_distinct_repeats_no_text_across_derived_seeds():
    dataset = corpora.distinct(0, 3000)
    assert len(dataset) == 3000
    by_text = {}
    for sample in dataset:
        by_text.setdefault((sample.question, sample.answer), set()).add(sample.id.split("-")[1])
    assert all(len(prefixes) == 1 for prefixes in by_text.values())


def test_workload_shapes():
    replicated = corpora.shape(corpora.replicated(0, 2000))
    distinct = corpora.shape(corpora.distinct(0, 3000))
    assert replicated["duplicate_cluster_share"] == 1.0
    assert replicated["duplicate_pairs"] > 30000
    assert distinct["duplicate_cluster_share"] < 0.3
    assert distinct["duplicate_pairs"] < 1000
    for shape, size in ((replicated, 2000), (distinct, 3000)):
        assert shape["size"] == size
        assert shape["subset_size"] == size // 5
        assert 0.35 < shape["noisy_share"] < 0.39
