"""QA corpus data model: samples, datasets, line-delimited storage, fingerprints.

A dataset is an ordered, immutable collection of QA samples. Its content
fingerprint, over its samples' canonical lines, is what the prefix-reuse cache
keys on; it is computed on first read, and each sample computes its line once.
:func:`canonical_json`, the package's one canonical JSON form, also keys the
operator config digest and each model client's reply memo.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

SCALAR_TYPES = (str, int, float, bool)

FIELD_ID = "id"
FIELD_QUESTION = "question"
FIELD_ANSWER = "answer"
FIELD_META = "meta"

_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def canonical_json(value) -> str:
    """Compact JSON text, keys sorted, strings raw: equal exactly for values equal
    as JSON (``1``, ``1.0`` and ``True`` differ; a tuple is its list). A dict
    whose keys mix strings and numbers cannot be sorted: ``TypeError``."""
    return _CANONICAL_ENCODER.encode(value)


class DatasetError(ValueError):
    """Malformed record file, bad field types, or duplicate sample ids."""


@dataclass(frozen=True, eq=True)
class Sample:
    """One QA record. Empty question/answer means the field is missing.
    Its canonical line is cached: change ``meta`` through :meth:`with_fields`, never in place."""

    id: str
    question: str = ""
    answer: str = ""
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise DatasetError("sample id must be a non-empty string")
        if not isinstance(self.question, str) or not isinstance(self.answer, str):
            raise DatasetError(f"sample {self.id!r}: question/answer must be strings")
        if not isinstance(self.meta, dict):
            raise DatasetError(f"sample {self.id!r}: meta must be a mapping")
        for key, value in self.meta.items():
            if not isinstance(key, str):
                raise DatasetError(f"sample {self.id!r}: meta keys must be strings")
            if value is not None and not isinstance(value, SCALAR_TYPES):
                raise DatasetError(
                    f"sample {self.id!r}: meta value for {key!r} must be a scalar"
                )
            # json.loads yields NaN and Infinity, which strict JSON cannot write back
            if isinstance(value, float) and not math.isfinite(value):
                raise DatasetError(
                    f"sample {self.id!r}: meta value for {key!r} must be a finite number"
                )

    @property
    def combined_text(self) -> str:
        return self.question + "\n" + self.answer

    @cached_property
    def canonical(self) -> str:
        """The record's :func:`canonical_json` line."""
        return canonical_json({FIELD_ID: self.id, FIELD_QUESTION: self.question,
                               FIELD_ANSWER: self.answer, FIELD_META: self.meta})

    def with_fields(
        self,
        question: str | None = None,
        answer: str | None = None,
        meta_updates: Mapping[str, Any] | None = None,
    ) -> "Sample":
        """Return a copy with replaced text fields and/or merged meta entries."""
        meta = dict(self.meta)
        if meta_updates:
            meta.update(meta_updates)
        return replace(
            self,
            question=self.question if question is None else question,
            answer=self.answer if answer is None else answer,
            meta=meta,
        )


def fingerprint_samples(samples: Iterable[Sample]) -> str:
    """SHA-256 over the canonical serialization, order-sensitive."""
    digest = hashlib.sha256()
    for sample in samples:
        digest.update(sample.canonical.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass(frozen=True, eq=True)
class Dataset:
    """Ordered, immutable collection of samples."""

    samples: tuple[Sample, ...]

    @classmethod
    def from_samples(cls, samples: Iterable[Sample]) -> "Dataset":
        samples = tuple(samples)
        seen: set[str] = set()
        for sample in samples:
            if sample.id in seen:
                raise DatasetError(f"duplicate sample id {sample.id!r}")
            seen.add(sample.id)
        return cls(samples)

    @cached_property
    def fingerprint(self) -> str:
        return fingerprint_samples(self.samples)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.samples)

    def __getitem__(self, index: int) -> Sample:
        return self.samples[index]


def _parse_record(line: str, line_number: int) -> Sample:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"line {line_number}: invalid record ({exc.msg})") from exc
    if not isinstance(record, dict):
        raise DatasetError(f"line {line_number}: record must be an object")
    unknown = set(record) - {FIELD_ID, FIELD_QUESTION, FIELD_ANSWER, FIELD_META}
    if unknown:
        raise DatasetError(f"line {line_number}: unknown fields {sorted(unknown)}")
    meta = record.get(FIELD_META)  # missing or null: no meta
    try:
        sample = Sample(
            id=record.get(FIELD_ID, ""),
            question=record.get(FIELD_QUESTION, ""),
            answer=record.get(FIELD_ANSWER, ""),
            meta={} if meta is None else meta,
        )
    except DatasetError as exc:
        raise DatasetError(f"line {line_number}: {exc}") from exc
    # a \ud800-style escape decodes to a lone surrogate, which no UTF encoding
    # takes; the canonical line holds every string raw and the fingerprint needs it
    try:
        sample.canonical.encode("utf-8")
    except UnicodeEncodeError as exc:
        around = sample.canonical[max(exc.start - 20, 0) : exc.start + 20]
        raise DatasetError(
            f"line {line_number}: text {around!r} is not valid Unicode text ({exc.reason})"
        ) from exc
    return sample


def load_dataset(path: str | Path) -> Dataset:
    """Load a UTF-8 line-delimited record file, one sample per non-blank line."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from exc
    return parse_dataset(data, path)


def parse_dataset(data: bytes, path: str | Path) -> Dataset:
    """Parse the bytes of a record file; ``path`` names the file in errors."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_number = data.count(b"\n", 0, exc.start) + 1
        raise DatasetError(
            f"cannot read dataset {path}: line {line_number}: "
            f"byte 0x{data[exc.start]:02x} is not valid UTF-8 ({exc.reason})"
        ) from exc
    samples: list[Sample] = []
    seen: dict[str, int] = {}
    # only line feeds, carriage returns or both end a record: str.splitlines
    # would also break at U+2028, U+2029 and U+0085, which a record may hold raw
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        sample = _parse_record(line, line_number)
        if sample.id in seen:
            raise DatasetError(
                f"line {line_number}: duplicate id {sample.id!r} "
                f"(first seen on line {seen[sample.id]})"
            )
        seen[sample.id] = line_number
        samples.append(sample)
    return Dataset(tuple(samples))  # ids checked above, with line numbers


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the canonical line-delimited form; loading it back is bit-exact."""
    path = Path(path)
    body = "".join(sample.canonical + "\n" for sample in dataset)
    path.write_text(body, encoding="utf-8")
