"""Prefix-reuse cache for processed datasets.

Every processed dataset is persisted under a key binding the producing
strategy prefix, the operator-config digest, the run seed, and the input
dataset's fingerprint. A later strategy sharing a cached prefix loads the
prefix's result and applies only its remaining suffix teams. A hit must
equal a recompute: operators must be deterministic, hence the digest and
seed in the key, and every hit, like ``cache verify``, admits an entry only
if its data file's SHA-256 equals the fingerprint recorded when stored.

Layout: one directory per entry, holding the dataset file and the entry's
metadata file. The metadata is written last, by rename, so an entry exists
exactly when its metadata file does; there is no separate index. A cache
directory survives restarts and can be inspected or verified offline.
"""
from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from .config import from_json
from .corpus import Dataset, DatasetError, parse_dataset, save_dataset
from .operators import ExecutionContext, apply_team
from .strategy import Strategy, strategy_key

logger = logging.getLogger(__name__)

ENTRIES_DIR = "entries"
DATA_FILE = "data.jsonl"
META_FILE = "meta.json"
LOCK_FILE = ".lock"


class CacheError(RuntimeError):
    pass


class CacheIntegrityError(CacheError):
    """Stored dataset does not match its recorded fingerprint."""


@dataclass(frozen=True)
class CacheEntry:
    key: str
    strategy: str
    base_fingerprint: str
    result_fingerprint: str
    storage_path: str
    created_at: float
    producer_round: int


class StrategyCache:
    """Filesystem-backed pool of processed datasets with longest-prefix lookup.

    Hit and savings counters are per-instance (reset each run); the entry
    pool itself persists across restarts.

    An instance also holds each dataset it ``put``. Every hit reads the
    entry's data file and admits it only if its SHA-256 equals the recorded
    fingerprint (``save_dataset`` writes exactly the bytes the fingerprint
    hashes); the hit then returns the held dataset, or, on an entry from an
    earlier run, the dataset parsed from those same bytes.
    """

    def __init__(self, root: str | Path, config_digest: str, seed: int) -> None:
        self.root = Path(root)
        self.config_digest = config_digest
        self.seed = seed
        try:
            (self.root / ENTRIES_DIR).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CacheError(f"cannot create cache root {self.root}: {exc}") from exc
        self._entries: dict[tuple[str, str], CacheEntry] = {}
        self._held: dict[tuple[str, str], Dataset] = {}
        self._hits = 0
        self._saved = 0
        for meta in sorted((self.root / ENTRIES_DIR).glob(f"*/{META_FILE}")):
            try:
                if meta.parent.is_symlink():  # its files may lie outside the root
                    raise ValueError(f"entry directory {meta.parent.name} is a symlink")
                entry = from_json(CacheEntry, json.loads(meta.read_text(encoding="utf-8")), "meta")
                entry_dir = self._entry_dir(entry.key, entry.base_fingerprint)
                if meta.parent != entry_dir or entry.storage_path != self._storage_path(entry_dir):
                    raise ValueError(f"entry does not belong in {meta.parent.name}")
            except (OSError, ValueError) as exc:  # ConfigError is a ValueError
                logger.warning("skipping unreadable cache entry %s: %s", meta, exc)
                continue
            self._entries[(entry.key, entry.base_fingerprint)] = entry

    # -- persistence -------------------------------------------------------

    def _entry_dir(self, key: str, base_fingerprint: str) -> Path:
        digest = hashlib.sha256(f"{key}|base={base_fingerprint}".encode("utf-8")).hexdigest()[:24]
        return self.root / ENTRIES_DIR / digest

    def _storage_path(self, entry_dir: Path) -> str:
        """An entry's data file, relative to the root: only ever its own
        directory's, so a tampered entry cannot reach outside the root."""
        return str((entry_dir / DATA_FILE).relative_to(self.root))

    # -- core operations ----------------------------------------------------

    def put(
        self,
        strategy: Strategy,
        base_fingerprint: str,
        result: Dataset,
        producer_round: int = 0,
    ) -> CacheEntry:
        """Persist a processed dataset under a key not yet indexed, as
        ``apply_with_reuse`` does under the root's exclusive ``CacheLock``."""
        key = strategy_key(strategy, self.config_digest, self.seed)
        entry_dir = self._entry_dir(key, base_fingerprint)
        if entry_dir.is_symlink():  # skipped when opened; never write through it
            entry_dir.unlink()
        entry_dir.mkdir(parents=True, exist_ok=True)
        meta_tmp = entry_dir / f"{META_FILE}.tmp"
        for stale in (entry_dir / DATA_FILE, meta_tmp):  # unlinks a symlink, not its target
            stale.unlink(missing_ok=True)
        save_dataset(result, entry_dir / DATA_FILE)
        entry = CacheEntry(
            key=key,
            strategy=strategy.canonical(),
            base_fingerprint=base_fingerprint,
            result_fingerprint=result.fingerprint,
            storage_path=self._storage_path(entry_dir),
            created_at=time.time(),
            producer_round=producer_round,
        )
        meta_tmp.write_text(
            json.dumps(asdict(entry), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        os.replace(meta_tmp, entry_dir / META_FILE)
        self._entries[(key, base_fingerprint)] = entry
        self._held[(key, base_fingerprint)] = result
        return entry

    def load_entry(self, entry: CacheEntry) -> Dataset:
        """Load a stored dataset once its file's bytes hash to the recorded
        fingerprint, so a file damaged or rewritten since it was stored is
        caught. The dataset this instance stored is returned as held; any
        other is parsed from the bytes the check hashed."""
        path = self.root / entry.storage_path
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise CacheIntegrityError(f"cannot read cached dataset {entry.key!r}: {exc}") from exc
        if hashlib.sha256(data).hexdigest() != entry.result_fingerprint:
            raise CacheIntegrityError(f"fingerprint mismatch for cached dataset {entry.key!r}")
        held = self._held.get((entry.key, entry.base_fingerprint))
        if held is not None:
            return held
        try:
            return parse_dataset(data, path)
        except DatasetError as exc:
            raise CacheIntegrityError(f"cannot load cached dataset {entry.key!r}: {exc}") from exc

    def find_longest_prefix(
        self, f: Strategy, base_fingerprint: str
    ) -> tuple[CacheEntry, Strategy] | None:
        """Longest cached strict-or-full prefix of ``f`` for this base dataset
        under the current config digest and seed, with the residual suffix."""
        for k in range(len(f.teams), 0, -1):
            key = strategy_key(Strategy(f.teams[:k]), self.config_digest, self.seed)
            entry = self._entries.get((key, base_fingerprint))
            if entry is not None:
                return entry, Strategy(f.teams[k:])
        return None

    def evict(self, entry: CacheEntry) -> None:
        self._entries.pop((entry.key, entry.base_fingerprint), None)
        self._held.pop((entry.key, entry.base_fingerprint), None)
        entry_dir = (self.root / entry.storage_path).parent
        # meta first: a crash part-way never leaves a meta without its data
        for name in (META_FILE, DATA_FILE):
            try:
                (entry_dir / name).unlink()
            except OSError:
                pass
        try:
            entry_dir.rmdir()
        except OSError:
            pass

    def apply_with_reuse(
        self,
        f: Strategy,
        base: Dataset,
        ctx: ExecutionContext,
        producer_round: int = 0,
    ) -> Dataset:
        """Process ``base`` with ``f``, starting from the longest cached prefix
        and caching every newly produced intermediate prefix result.

        A corrupt cached entry is evicted and processing falls back to the
        next-longest prefix (ultimately the raw base). The context must run
        under the config and seed the cache keys its entries by."""
        if (ctx.cfg.digest(), ctx.seed) != (self.config_digest, self.seed):
            raise CacheError(f"context config {ctx.cfg.digest()} seed {ctx.seed} is not the "
                             f"cache's config {self.config_digest} seed {self.seed}")
        base_fp = base.fingerprint
        current, done = base, 0
        while (match := self.find_longest_prefix(f, base_fp)) is not None:
            entry, suffix = match
            try:
                current = self.load_entry(entry)
            except CacheIntegrityError as exc:
                logger.warning("evicting corrupt cache entry %s: %s", entry.key, exc)
                self.evict(entry)
                continue
            done = len(f) - len(suffix)
            self._hits += 1
            self._saved += done
            break
        for k in range(done + 1, len(f) + 1):
            current = apply_team(f.teams[k - 1], current, ctx)
            self.put(Strategy(f.teams[:k]), base_fp, current, producer_round)
        return current

    # -- reporting / administration -----------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self._hits,
            "team_invocations_saved": self._saved,
        }

    def verify(self) -> list[str]:
        """Check every entry by the rule a hit uses; return the keys that fail."""
        bad: list[str] = []
        for entry in list(self._entries.values()):
            try:
                self.load_entry(entry)
            except CacheIntegrityError:
                bad.append(entry.key)
        return bad

    def prune(self, max_entries: int | None = None, max_age_s: float | None = None) -> int:
        """Remove entries older than ``max_age_s`` and/or beyond the newest
        ``max_entries``. Returns the number of entries removed."""
        entries = sorted(self._entries.values(), key=lambda e: e.created_at, reverse=True)
        now = time.time()
        removed = [
            entry
            for position, entry in enumerate(entries)
            if (max_entries is not None and position >= max_entries)
            or (max_age_s is not None and now - entry.created_at > max_age_s)
        ]
        for entry in removed:
            self.evict(entry)
        return len(removed)


class CacheLock:
    """Exclusive per-cache-root lock preventing concurrent writer processes.

    The lock is an ``flock`` on ``.lock``, so the kernel releases it when its
    holder exits or dies. The file itself is never removed: unlinking it would
    race with the next holder."""

    def __init__(self, root: str | Path) -> None:
        self.path = Path(root) / LOCK_FILE
        self._fd: int | None = None

    def __enter__(self) -> "CacheLock":
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR)
        except OSError as exc:
            raise CacheError(f"cannot open cache lock {self.path}: {exc}") from exc
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError as exc:
            os.close(fd)
            raise CacheError(
                f"cache root {self.path.parent} is locked by another process"
            ) from exc
        self._fd = fd
        return self

    def __exit__(self, *exc_info) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
