"""QA corpus data model: samples, datasets, line-delimited storage, fingerprints.

A dataset is an ordered, immutable collection of QA samples. Every dataset
carries a content fingerprint computed over the canonical serialization of
its samples, which is what the prefix-reuse cache keys on.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

SCALAR_TYPES = (str, int, float, bool)

FIELD_ID = "id"
FIELD_QUESTION = "question"
FIELD_ANSWER = "answer"
FIELD_META = "meta"


class DatasetError(ValueError):
    """Malformed record file, bad field types, or duplicate sample ids."""


@dataclass(frozen=True, eq=True)
class Sample:
    """One QA record. Empty question/answer means the field is missing."""

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

    @property
    def combined_text(self) -> str:
        return self.question + "\n" + self.answer

    def canonical(self) -> str:
        """Canonical one-line JSON form: sorted keys, fixed separators."""
        record = {
            FIELD_ID: self.id,
            FIELD_QUESTION: self.question,
            FIELD_ANSWER: self.answer,
            FIELD_META: self.meta,
        }
        return json.dumps(record, sort_keys=True, ensure_ascii=False, separators=(",", ":"))

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
        digest.update(sample.canonical().encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass(frozen=True, eq=True)
class Dataset:
    """Ordered, immutable collection of samples plus a content fingerprint."""

    samples: tuple[Sample, ...]
    fingerprint: str

    @classmethod
    def from_samples(cls, samples: Iterable[Sample]) -> "Dataset":
        samples = tuple(samples)
        seen: set[str] = set()
        for sample in samples:
            if sample.id in seen:
                raise DatasetError(f"duplicate sample id {sample.id!r}")
            seen.add(sample.id)
        return cls(samples=samples, fingerprint=fingerprint_samples(samples))

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.samples)

    def __getitem__(self, index: int) -> Sample:
        return self.samples[index]

    def canonical_lines(self) -> list[str]:
        return [sample.canonical() for sample in self.samples]


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
    try:
        return Sample(
            id=record.get(FIELD_ID, ""),
            question=record.get(FIELD_QUESTION, ""),
            answer=record.get(FIELD_ANSWER, ""),
            meta=record.get(FIELD_META, {}) or {},
        )
    except DatasetError as exc:
        raise DatasetError(f"line {line_number}: {exc}") from exc


def load_dataset(path: str | Path) -> Dataset:
    """Load a UTF-8 line-delimited record file, one sample per non-blank line."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from exc
    samples: list[Sample] = []
    seen: dict[str, int] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
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
    return Dataset.from_samples(samples)


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the canonical line-delimited form; loading it back is bit-exact."""
    path = Path(path)
    body = "".join(line + "\n" for line in dataset.canonical_lines())
    path.write_text(body, encoding="utf-8")
