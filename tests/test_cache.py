from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import pipecraft
import pipecraft.cache
from pipecraft.cache import (
    DATA_FILE,
    LOCK_FILE,
    META_FILE,
    CacheEntry,
    CacheError,
    CacheIntegrityError,
    CacheLock,
    StrategyCache,
)
from pipecraft.cli import main
from pipecraft.config import OperatorConfig
from pipecraft.corpus import Dataset, Sample, load_dataset, save_dataset
from pipecraft.operators import ExecutionContext, apply_strategy
from pipecraft.synthetic import messy_corpus
from pipecraft.strategy import (
    EMPTY_STRATEGY,
    Strategy,
    Team,
    enumerate_space,
    parse_strategy,
    strategy_key,
)
from tests.conftest import clean_corpus, lines
from tests.test_operators import messy_test_corpus

C, O, G, S = Team.CLEANING, Team.OPTIMIZATION, Team.GENERATION, Team.SELECTION


@pytest.fixture
def cache(tmp_path) -> StrategyCache:
    return StrategyCache(tmp_path / "cache", OperatorConfig().digest(), seed=0)


def make_ctx() -> ExecutionContext:
    return ExecutionContext.with_defaults(OperatorConfig())


class TestPutGet:
    def test_round_trip_byte_identical(self, cache):
        corpus = clean_corpus(6, seed=0)
        entry = cache.put(Strategy((C,)), "base-fp", corpus)
        assert cache.load_entry(entry).fingerprint == corpus.fingerprint
        stored = load_dataset(cache.root / entry.storage_path)
        assert lines(stored) == lines(corpus)

    def test_same_strategy_different_base_coexists(self, cache):
        cache.put(Strategy((C,)), "base-1", clean_corpus(4, seed=1))
        cache.put(Strategy((C,)), "base-2", clean_corpus(5, seed=2))
        assert cache.stats()["entries"] == 2


class TestOperatorRevision:
    def test_entry_under_previous_key_form_is_a_miss(self, tmp_path, monkeypatch):
        """Keys written before the operator revision joined them name no
        revision; such an entry stays on disk but never serves a lookup."""
        root, digest, corpus = tmp_path / "cache", OperatorConfig().digest(), clean_corpus(4, 1)
        with monkeypatch.context() as patch:
            patch.setattr(pipecraft.cache, "strategy_key",
                          lambda strategy, cfg_digest, seed:
                          f"{strategy.canonical()}|cfg={cfg_digest}|seed={seed}")
            StrategyCache(root, digest, seed=0).put(Strategy((C,)), "fp", corpus)
        reopened = StrategyCache(root, digest, seed=0)
        assert reopened.stats()["entries"] == 1
        assert reopened.find_longest_prefix(Strategy((C,)), "fp") is None
        reopened.put(Strategy((C,)), "fp", corpus)
        assert reopened.find_longest_prefix(Strategy((C,)), "fp") is not None


def entries_of(cache: StrategyCache) -> list[CacheEntry]:
    """The entries a cache instance indexes, in the order it indexed them."""
    return list(cache._entries.values())


def is_prefix(a: Strategy, b: Strategy) -> bool:
    return b.teams[: len(a.teams)] == a.teams


def brute_force_longest_prefix(cache: StrategyCache, f: Strategy, base_fp: str):
    """Oracle: scan every entry, filter, take the longest prefix."""
    best = None
    for entry in entries_of(cache):
        if entry.base_fingerprint != base_fp:
            continue
        strategy = parse_strategy(entry.strategy)
        if entry.key != strategy_key(strategy, cache.config_digest, cache.seed):
            continue
        if not is_prefix(strategy, f):
            continue
        if best is None or len(strategy) > len(parse_strategy(best.strategy)):
            best = entry
    return best


class TestFindLongestPrefix:
    def _pool(self, cache):
        base = clean_corpus(4, seed=3)
        cache.put(Strategy((C,)), "fp", base)
        cache.put(Strategy((C, O)), "fp", clean_corpus(5, seed=4))
        cache.put(Strategy((G, C)), "fp", clean_corpus(6, seed=5))

    def test_longest_of_two_prefixes(self, cache):
        self._pool(cache)
        entry, suffix = cache.find_longest_prefix(Strategy((C, O, S)), "fp")
        assert entry.strategy == "Cleaning -> Optimization"
        assert suffix.teams == (S,)

    def test_no_match(self, cache):
        self._pool(cache)
        assert cache.find_longest_prefix(Strategy((S,)), "fp") is None

    def test_full_match_empty_suffix(self, cache):
        self._pool(cache)
        entry, suffix = cache.find_longest_prefix(Strategy((C, O)), "fp")
        assert entry.strategy == "Cleaning -> Optimization"
        assert suffix.teams == ()

    def test_base_fingerprint_filters(self, cache):
        self._pool(cache)
        assert cache.find_longest_prefix(Strategy((C, O)), "other-fp") is None

    def test_agrees_with_brute_force_on_random_pools(self, tmp_path):
        rng = random.Random(17)
        space = enumerate_space()
        cache = StrategyCache(tmp_path / "c2", OperatorConfig().digest(), seed=0)
        bases = ["fpA", "fpB"]
        for i in range(30):
            strategy = rng.choice(space)
            if strategy == EMPTY_STRATEGY:
                continue
            base = rng.choice(bases)
            if cache.find_longest_prefix(strategy, base) and cache.find_longest_prefix(
                strategy, base
            )[1] == EMPTY_STRATEGY:
                continue  # already fully cached
            cache.put(strategy, base, clean_corpus(3 + i % 5, seed=i))
        for _ in range(200):
            query = rng.choice(space)
            base = rng.choice(bases + ["fpC"])
            got = cache.find_longest_prefix(query, base)
            expected = brute_force_longest_prefix(cache, query, base)
            if expected is None:
                assert got is None
            else:
                entry, suffix = got
                assert len(parse_strategy(entry.strategy)) == len(
                    parse_strategy(expected.strategy)
                )
                assert parse_strategy(entry.strategy).teams + suffix.teams == query.teams


class TestApplyWithReuse:
    def test_cold_path_caches_every_prefix(self, cache):
        corpus = messy_test_corpus(0)
        f = Strategy((C, O))
        out = cache.apply_with_reuse(f, corpus, make_ctx())
        cached = {entry.strategy for entry in entries_of(cache)}
        assert cached == {"Cleaning", "Cleaning -> Optimization"}
        direct = apply_strategy(f, corpus, make_ctx())
        assert out.fingerprint == direct.fingerprint

    def test_suffix_only_application(self, cache):
        corpus = messy_test_corpus(1)
        cache.apply_with_reuse(Strategy((C, O)), corpus, make_ctx())
        ctx = make_ctx()
        cache.apply_with_reuse(Strategy((C, O, S)), corpus, ctx)
        # only the Selection suffix ran in the second call
        assert ctx.team_invocations == {S: 1}

    def test_full_hit_applies_nothing(self, cache):
        corpus = messy_test_corpus(2)
        cache.apply_with_reuse(Strategy((C, O)), corpus, make_ctx())
        ctx = make_ctx()
        out = cache.apply_with_reuse(Strategy((C, O)), corpus, ctx)
        assert ctx.team_invocations == {}
        assert out.fingerprint == apply_strategy(Strategy((C, O)), corpus, make_ctx()).fingerprint

    def test_empty_strategy_returns_base_uncached(self, cache):
        corpus = clean_corpus(4, seed=6)
        out = cache.apply_with_reuse(EMPTY_STRATEGY, corpus, make_ctx())
        assert out is corpus
        assert cache.stats()["entries"] == 0

    def test_intermediate_prefixes_all_cached(self, cache):
        corpus = messy_test_corpus(3)
        f = Strategy((G, C, S))
        cache.apply_with_reuse(f, corpus, make_ctx())
        for k in (1, 2, 3):
            prefix = Strategy(f.teams[:k])
            found = cache.find_longest_prefix(prefix, corpus.fingerprint)
            assert found is not None and found[1] == EMPTY_STRATEGY

    @pytest.mark.parametrize(
        "ctx",
        [lambda: ExecutionContext.with_defaults(OperatorConfig(), seed=1),
         lambda: ExecutionContext.with_defaults(OperatorConfig(selection_keep_fraction=0.4))],
        ids=["seed", "config"],
    )
    def test_context_the_cache_is_not_keyed_for_is_refused(self, cache, ctx):
        """Keys bind the cache's config digest and seed, so a context running
        under others would store results under keys that do not describe them."""
        with pytest.raises(CacheError, match="is not the cache's config"):
            cache.apply_with_reuse(Strategy((C,)), messy_test_corpus(0), ctx())
        assert cache.stats()["entries"] == 0

    def test_reuse_soundness_randomized(self, tmp_path):
        """Reused results are byte-identical to from-scratch application over
        randomized overlapping strategy sequences."""
        rng = random.Random(101)
        corpus = messy_test_corpus(4)
        cache = StrategyCache(tmp_path / "sound", OperatorConfig().digest(), seed=0)
        space = [f for f in enumerate_space() if f != EMPTY_STRATEGY]
        for _ in range(40):
            f = rng.choice(space)
            reused = cache.apply_with_reuse(f, corpus, make_ctx())
            direct = apply_strategy(f, corpus, make_ctx())
            assert reused.fingerprint == direct.fingerprint
            assert lines(reused) == lines(direct)


class TestStats:
    def test_fresh_cache_all_zero(self, cache):
        assert cache.stats() == {"entries": 0, "hits": 0, "team_invocations_saved": 0}

    def test_savings_after_prefix_extension(self, cache):
        corpus = messy_test_corpus(5)
        cache.apply_with_reuse(Strategy((C, O)), corpus, make_ctx())
        cache.apply_with_reuse(Strategy((C, O, S)), corpus, make_ctx())
        assert cache.stats()["team_invocations_saved"] == 2

    def test_full_hit_increments_hits(self, cache):
        corpus = messy_test_corpus(5)
        cache.apply_with_reuse(Strategy((C,)), corpus, make_ctx())
        before = cache.stats()["hits"]
        cache.apply_with_reuse(Strategy((C,)), corpus, make_ctx())
        assert cache.stats()["hits"] == before + 1


class TestPersistence:
    def test_reopen_reads_index(self, tmp_path):
        root = tmp_path / "persist"
        digest = OperatorConfig().digest()
        corpus = messy_test_corpus(6)
        cache1 = StrategyCache(root, digest, seed=0)
        cache1.apply_with_reuse(Strategy((C, O)), corpus, make_ctx())
        entries_before = {e.key for e in entries_of(cache1)}

        cache2 = StrategyCache(root, digest, seed=0)
        assert {e.key for e in entries_of(cache2)} == entries_before
        ctx = make_ctx()
        cache2.apply_with_reuse(Strategy((C, O, S)), corpus, ctx)
        assert ctx.team_invocations == {S: 1}

    def test_different_seed_does_not_reuse(self, tmp_path):
        root = tmp_path / "seeded"
        digest = OperatorConfig().digest()
        corpus = messy_test_corpus(6)
        StrategyCache(root, digest, seed=0).apply_with_reuse(
            Strategy((C,)), corpus, make_ctx()
        )
        other = StrategyCache(root, digest, seed=1)
        assert other.find_longest_prefix(Strategy((C, O)), corpus.fingerprint) is None


def _newest_meta(root):
    """Path of the metadata file of the entry written last."""
    cache = StrategyCache(root, OperatorConfig().digest(), seed=0)
    newest = max(entries_of(cache), key=lambda e: e.created_at)
    return (root / newest.storage_path).parent / META_FILE


def _dead_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


class TestTornEntry:
    def test_newest_meta_cut_at_every_offset(self, tmp_path, caplog):
        root = tmp_path / "torn"
        digest = OperatorConfig().digest()
        corpus = messy_test_corpus(3)
        f = Strategy((C, O, S))
        StrategyCache(root, digest, seed=0).apply_with_reuse(f, corpus, make_ctx())
        direct = apply_strategy(f, corpus, make_ctx())
        meta = _newest_meta(root)
        raw = meta.read_bytes()
        prefixes = {Strategy(teams).canonical() for teams in ((C,), (C, O), (C, O, S))}
        for cut in range(len(raw)):
            meta.write_bytes(raw[:cut])
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="pipecraft.cache"):
                cache = StrategyCache(root, digest, seed=0)
            # only the whole file without its final newline still decodes
            decodes = cut == len(raw) - 1
            loaded = prefixes if decodes else prefixes - {f.canonical()}
            assert {e.strategy for e in entries_of(cache)} == loaded
            assert bool(caplog.records) == (not decodes)
            out = cache.apply_with_reuse(f, corpus, make_ctx())
            assert lines(out) == lines(direct)
            reopened = StrategyCache(root, digest, seed=0)
            assert {e.strategy for e in entries_of(reopened)} == prefixes

    def test_run_on_torn_meta_matches_clean_run(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        save_dataset(messy_corpus(seed=10), corpus_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {"dataset": str(corpus_path), "seed": 3, "cache_root": str(tmp_path / "cache")}
            ),
            encoding="utf-8",
        )

        def run(out: str) -> bytes:
            assert main(["run", "--config", str(config_path), "--out", str(tmp_path / out)]) == 0
            return (tmp_path / out / "final_dataset.jsonl").read_bytes()

        expected = run("first")
        meta = _newest_meta(tmp_path / "cache")
        raw = meta.read_bytes()
        # every offset is covered at load level above; the runs take every
        # 16th offset and the last byte
        for cut in sorted({*range(0, len(raw), 16), len(raw) - 1}):
            meta.write_bytes(raw[:cut])
            assert run(f"cut{cut}") == expected

    def test_data_without_meta_is_not_an_entry(self, tmp_path):
        root = tmp_path / "nometa"
        digest = OperatorConfig().digest()
        corpus = messy_test_corpus(2)
        f = Strategy((C, O))
        StrategyCache(root, digest, seed=0).apply_with_reuse(f, corpus, make_ctx())
        meta = _newest_meta(root)
        meta.unlink()
        assert (meta.parent / DATA_FILE).exists()
        cache = StrategyCache(root, digest, seed=0)
        assert [e.strategy for e in entries_of(cache)] == ["Cleaning"]
        ctx = make_ctx()
        out = cache.apply_with_reuse(f, corpus, ctx)
        assert ctx.team_invocations == {O: 1}
        assert lines(out) == lines(apply_strategy(f, corpus, make_ctx()))
        assert len(entries_of(StrategyCache(root, digest, seed=0))) == 2

    @pytest.mark.parametrize("leftover", [DATA_FILE, f"{META_FILE}.tmp"])
    def test_put_never_writes_through_a_leftover_symlink(self, tmp_path, leftover):
        """A directory without ``meta.json`` is not an entry, so a later
        ``put`` of the same key fills it again. A file left there as a symlink
        is replaced, and the file it points to keeps its contents."""
        root, digest, corpus = tmp_path / "cache", OperatorConfig().digest(), clean_corpus(4, 1)
        entry = StrategyCache(root, digest, seed=0).put(Strategy((C,)), "fp", corpus)
        entry_dir = (root / entry.storage_path).parent
        (entry_dir / META_FILE).unlink()
        outside = tmp_path / "outside.txt"
        outside.write_text("not the cache's\n", encoding="utf-8")
        (entry_dir / leftover).unlink(missing_ok=True)
        (entry_dir / leftover).symlink_to(outside)
        cache = StrategyCache(root, digest, seed=0)
        assert entries_of(cache) == []
        entry = cache.put(Strategy((C,)), "fp", corpus)
        assert outside.read_text(encoding="utf-8") == "not the cache's\n"
        assert not any(path.is_symlink() for path in entry_dir.iterdir())
        reopened = StrategyCache(root, digest, seed=0)
        assert entries_of(reopened) == [entry]
        assert lines(reopened.load_entry(entry)) == lines(corpus)

    def test_lock_naming_dead_pid_does_not_block(self, tmp_path):
        root = tmp_path / "stale"
        root.mkdir()
        (root / LOCK_FILE).write_text(str(_dead_pid()), encoding="ascii")
        with CacheLock(root):
            with pytest.raises(CacheError):
                with CacheLock(root):
                    pass

    def test_lock_held_by_child_blocks_until_killed(self, tmp_path):
        root = tmp_path / "held"
        src = str(Path(pipecraft.__file__).resolve().parents[1])
        holder = (
            "import sys, time\n"
            "from pipecraft.cache import CacheLock\n"
            "CacheLock(sys.argv[1]).__enter__()\n"
            "print('locked', flush=True)\n"
            "time.sleep(120)\n"
        )
        child = subprocess.Popen(
            [sys.executable, "-c", holder, str(root)],
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
            text=True,
        )
        try:
            assert child.stdout.readline().strip() == "locked"
            with pytest.raises(CacheError, match="locked by another process"):
                with CacheLock(root):
                    pass
        finally:
            child.kill()
            child.wait(timeout=10)
            child.stdout.close()
        with CacheLock(root):
            pass
        assert (root / LOCK_FILE).exists()

    def test_root_left_by_index_format_opens(self, tmp_path):
        """A root carrying an ``index.jsonl`` and a pid-bearing ``.lock`` left
        by a killed run of the earlier index-based layout."""
        root = tmp_path / "legacy"
        digest = OperatorConfig().digest()
        corpus = messy_test_corpus(5)
        writer = StrategyCache(root, digest, seed=0)
        writer.apply_with_reuse(Strategy((C, O, S)), corpus, make_ctx())
        index = "".join(
            json.dumps(asdict(entry), sort_keys=True) + "\n" for entry in entries_of(writer)
        )
        (root / "index.jsonl").write_text(index, encoding="utf-8")
        (root / LOCK_FILE).write_text(str(_dead_pid()), encoding="ascii")
        with CacheLock(root):
            cache = StrategyCache(root, digest, seed=0)
            assert {e.key for e in entries_of(cache)} == {e.key for e in entries_of(writer)}
            ctx = make_ctx()
            out = cache.apply_with_reuse(Strategy((C, O, S, G)), corpus, ctx)
        assert ctx.team_invocations == {G: 1}
        direct = apply_strategy(Strategy((C, O, S, G)), corpus, make_ctx())
        assert lines(out) == lines(direct)
        assert (root / "index.jsonl").read_text(encoding="utf-8") == index


def count_loads(monkeypatch) -> list[Path]:
    """Record the file of every ``corpus.parse_dataset`` call made through the
    package: ``load_dataset`` and a cache hit that is not held both parse."""
    calls: list[Path] = []
    parse = pipecraft.corpus.parse_dataset

    def counting(data, path):
        calls.append(Path(path))
        return parse(data, path)

    for module in (pipecraft.corpus, pipecraft.cache):
        monkeypatch.setattr(module, "parse_dataset", counting)
    return calls


class TestInRunHits:
    def test_hit_returns_the_dataset_put_stored(self, cache, monkeypatch):
        corpus = messy_test_corpus(6)
        stored = cache.apply_with_reuse(Strategy((C, O)), corpus, make_ctx())
        loads = count_loads(monkeypatch)
        entry, _ = cache.find_longest_prefix(Strategy((C, O, S)), corpus.fingerprint)
        assert cache.load_entry(entry) is stored
        assert cache.apply_with_reuse(Strategy((C, O)), corpus, make_ctx()) is stored
        assert loads == []

    def test_fresh_instance_holds_nothing_and_parses(self, tmp_path, monkeypatch):
        root, digest = tmp_path / "fresh", OperatorConfig().digest()
        corpus = messy_test_corpus(6)
        stored = StrategyCache(root, digest, seed=0).apply_with_reuse(
            Strategy((C,)), corpus, make_ctx()
        )
        loads = count_loads(monkeypatch)
        fresh = StrategyCache(root, digest, seed=0)
        (entry,) = entries_of(fresh)
        loaded = fresh.load_entry(entry)
        assert loaded is not stored and lines(loaded) == lines(stored)
        assert loads == [root / entry.storage_path]

    def test_whole_run_loads_only_the_corpus(self, tmp_path, monkeypatch):
        corpus_path = tmp_path / "corpus.jsonl"
        save_dataset(messy_corpus(seed=10), corpus_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"dataset": str(corpus_path)}), encoding="utf-8")
        loads = count_loads(monkeypatch)
        out = tmp_path / "run"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["cache"]["hits"] > 0
        assert loads == [corpus_path]

    @pytest.mark.parametrize(
        "dataset",
        [
            messy_test_corpus(7),
            Dataset(()),
            Dataset((Sample("s1", "line\u2028separator", "para\u2029graph\u0085end"),)),
        ],
        ids=["messy", "empty", "line-separators"],
    )
    def test_data_file_hashes_to_the_fingerprint(self, cache, dataset):
        # the check an in-run hit makes on the file, instead of parsing it
        entry = cache.put(Strategy((C,)), "base-fp", dataset)
        data = (cache.root / entry.storage_path).read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry.result_fingerprint


class TestIntegrity:
    def test_verify_clean(self, cache):
        cache.apply_with_reuse(Strategy((C,)), messy_test_corpus(7), make_ctx())
        assert cache.verify() == []

    def test_corruption_detected_and_recovered(self, cache):
        corpus = messy_test_corpus(7)
        cache.apply_with_reuse(Strategy((C,)), corpus, make_ctx())
        entry = entries_of(cache)[0]
        path = cache.root / entry.storage_path
        raw = path.read_bytes()
        path.write_bytes(raw[:50] + b"X" + raw[51:])

        bad = cache.verify()
        assert bad == [entry.key]

        # reuse falls back to full reprocessing and repairs the pool
        out = cache.apply_with_reuse(Strategy((C, O)), corpus, make_ctx())
        direct = apply_strategy(Strategy((C, O)), corpus, make_ctx())
        assert out.fingerprint == direct.fingerprint
        assert cache.verify() == []

    def test_corrupt_longest_prefix_falls_back_to_shorter_prefix(self, cache, caplog):
        corpus = messy_test_corpus(9)
        cache.apply_with_reuse(Strategy((C, O)), corpus, make_ctx())
        (entry,) = [e for e in entries_of(cache) if e.strategy == "Cleaning -> Optimization"]
        path = cache.root / entry.storage_path
        raw = path.read_bytes()
        path.write_bytes(raw[:50] + b"X" + raw[51:])
        ctx = make_ctx()
        with caplog.at_level(logging.WARNING, logger="pipecraft.cache"):
            out = cache.apply_with_reuse(Strategy((C, O, S)), corpus, ctx)
        assert f"evicting corrupt cache entry {entry.key}" in caplog.text
        assert cache.stats() == {"entries": 3, "hits": 1, "team_invocations_saved": 1}
        assert ctx.team_invocations == {O: 1, S: 1}
        direct = apply_strategy(Strategy((C, O, S)), corpus, make_ctx())
        assert lines(out) == lines(direct)
        assert cache.verify() == []

    @pytest.mark.parametrize("held", [True, False], ids=["held", "fresh-instance"])
    def test_rewritten_data_file_is_evicted_and_recomputed(self, tmp_path, caplog, held):
        """The same records written as other JSON parse to the same samples,
        but are not the bytes the fingerprint covers: the hit is refused
        whether or not the instance holds the dataset."""
        root, digest = tmp_path / "rewritten", OperatorConfig().digest()
        corpus = messy_test_corpus(7)
        writer = StrategyCache(root, digest, seed=0)
        stored = writer.apply_with_reuse(Strategy((C,)), corpus, make_ctx())
        cache = writer if held else StrategyCache(root, digest, seed=0)
        (entry,) = entries_of(cache)
        path = root / entry.storage_path
        path.write_text("".join(json.dumps(json.loads(line)) + "\n" for line in lines(stored)),
                        encoding="utf-8")
        assert load_dataset(path).samples == stored.samples
        with pytest.raises(CacheIntegrityError, match="fingerprint mismatch"):
            cache.load_entry(entry)
        assert cache.verify() == [entry.key]
        ctx = make_ctx()
        with caplog.at_level(logging.WARNING, logger="pipecraft.cache"):
            out = cache.apply_with_reuse(Strategy((C,)), corpus, ctx)
        assert f"evicting corrupt cache entry {entry.key}" in caplog.text
        assert ctx.team_invocations == {C: 1}
        assert lines(out) == lines(stored)
        assert cache.verify() == []

    def test_prune_by_count(self, cache):
        corpus = messy_test_corpus(8)
        cache.apply_with_reuse(Strategy((C, O, S)), corpus, make_ctx())
        assert cache.stats()["entries"] == 3
        removed = cache.prune(max_entries=0)
        assert removed == 3
        assert cache.stats()["entries"] == 0
        assert cache.find_longest_prefix(Strategy((C,)), corpus.fingerprint) is None


def test_cache_lock_excludes_second_holder(tmp_path):
    root = tmp_path / "locked"
    with CacheLock(root):
        with pytest.raises(CacheError):
            with CacheLock(root):
                pass
    # released: can be taken again
    with CacheLock(root):
        pass


def test_runs_never_put_an_indexed_key(tmp_path, monkeypatch):
    """``put`` has no branch for a key the instance already indexes, because
    ``apply_with_reuse`` puts only prefixes longer than the longest indexed
    one. Checked over a cold run and a warm run on one shared root, with one
    entry damaged in between so the warm run also evicts and puts again."""
    put = StrategyCache.put
    puts: list[tuple[str, str]] = []
    indexed: list[tuple[str, str]] = []

    def checked(self, strategy, base_fingerprint, result, producer_round=0):
        at = (strategy_key(strategy, self.config_digest, self.seed), base_fingerprint)
        (indexed if at in self._entries else puts).append(at)
        return put(self, strategy, base_fingerprint, result, producer_round)

    monkeypatch.setattr(StrategyCache, "put", checked)
    corpus_path, root = tmp_path / "corpus.jsonl", tmp_path / "shared"
    save_dataset(messy_corpus(seed=10), corpus_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"dataset": str(corpus_path), "cache_root": str(root)}),
                           encoding="utf-8")
    run = ["run", "--config", str(config_path), "--out"]
    assert main([*run, str(tmp_path / "cold")]) == 0
    cold = len(puts)
    assert cold > 0
    victim = _newest_meta(root).parent / DATA_FILE
    victim.write_bytes(b"{}\n" + victim.read_bytes())
    assert main([*run, str(tmp_path / "warm")]) == 0
    assert len(puts) > cold
    assert indexed == []
