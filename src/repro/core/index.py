"""Data index: the metadata the head node turns into the job pool.

Section III-B: "A data index file is generated after analyzing the data set.
It holds metadata such as physical locations (data files), starting offset
addresses, size of chunks and number of data units inside the chunks. When
the head node starts, it reads the index file in order to generate the job
pool."

:class:`DataIndex` is the in-memory form; it serializes to/from JSON so it
can be written next to the dataset (the runtime does exactly that) and it
can also be synthesized directly from a :class:`~repro.config.DatasetSpec`
plus ``(site, files)`` placement pairs (what the simulator does, since it
never materializes bytes).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ..config import DatasetSpec, PlacementSpec
from ..errors import ConfigurationError, IndexError_
from .job import Job

__all__ = ["FileEntry", "DataIndex", "build_index"]

_INDEX_FORMAT_VERSION = 1


@dataclass(frozen=True)
class FileEntry:
    """One data file: where it lives and how it is chunked.

    ``checksum`` is the CRC-32 of the file's bytes when the dataset
    builder materialized it (``None`` for synthesized indices that never
    touch bytes, e.g. the simulator's); readers can verify integrity
    against it before trusting a retrieval path.
    """

    file_id: int
    site: str
    path: str  # storage key (object-store key or filesystem-relative path)
    nbytes: int
    chunk_bytes: int
    units_per_chunk: int
    checksum: int | None = None

    def __post_init__(self) -> None:
        if self.nbytes <= 0 or self.chunk_bytes <= 0 or self.units_per_chunk <= 0:
            raise IndexError_("file sizes and unit counts must be positive")
        if self.nbytes % self.chunk_bytes != 0:
            raise IndexError_(
                f"file {self.file_id} ({self.nbytes} B) is not a whole number "
                f"of {self.chunk_bytes}-byte chunks"
            )
        if self.checksum is not None and not 0 <= self.checksum < 2**32:
            raise IndexError_(f"file {self.file_id}: checksum out of CRC-32 range")

    @property
    def num_chunks(self) -> int:
        return self.nbytes // self.chunk_bytes


@dataclass
class DataIndex:
    """The full dataset index: an ordered list of file entries."""

    files: list[FileEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen = set()
        for entry in self.files:
            if entry.file_id in seen:
                raise IndexError_(f"duplicate file_id {entry.file_id} in index")
            seen.add(entry.file_id)

    # -- derived views -----------------------------------------------------

    @property
    def num_files(self) -> int:
        return len(self.files)

    @property
    def total_bytes(self) -> int:
        return sum(entry.nbytes for entry in self.files)

    @property
    def num_chunks(self) -> int:
        return sum(entry.num_chunks for entry in self.files)

    def files_at(self, site: str) -> list[FileEntry]:
        return [entry for entry in self.files if entry.site == site]

    def entry(self, file_id: int) -> FileEntry:
        for e in self.files:
            if e.file_id == file_id:
                return e
        raise IndexError_(f"no file with id {file_id} in index")

    def jobs(self) -> list[Job]:
        """Generate the job pool: one job per chunk, ids in file order.

        Consecutive job ids within a file correspond to consecutive byte
        ranges, which is what the head's sequential-assignment optimization
        relies on.
        """
        out: list[Job] = []
        job_id = 0
        for entry in self.files:
            for chunk_index in range(entry.num_chunks):
                out.append(
                    Job(
                        job_id=job_id,
                        file_id=entry.file_id,
                        chunk_index=chunk_index,
                        offset=chunk_index * entry.chunk_bytes,
                        nbytes=entry.chunk_bytes,
                        num_units=entry.units_per_chunk,
                        site=entry.site,
                    )
                )
                job_id += 1
        return out

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "format_version": _INDEX_FORMAT_VERSION,
            "files": [
                {
                    "file_id": e.file_id,
                    "site": e.site,
                    "path": e.path,
                    "nbytes": e.nbytes,
                    "chunk_bytes": e.chunk_bytes,
                    "units_per_chunk": e.units_per_chunk,
                    "checksum": e.checksum,
                }
                for e in self.files
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DataIndex":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise IndexError_(f"index is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or "files" not in doc:
            raise IndexError_("index JSON must be an object with a 'files' key")
        version = doc.get("format_version")
        if version != _INDEX_FORMAT_VERSION:
            raise IndexError_(
                f"unsupported index format version {version!r} "
                f"(expected {_INDEX_FORMAT_VERSION})"
            )
        try:
            files = [
                FileEntry(
                    file_id=int(f["file_id"]),
                    site=str(f["site"]),
                    path=str(f["path"]),
                    nbytes=int(f["nbytes"]),
                    chunk_bytes=int(f["chunk_bytes"]),
                    units_per_chunk=int(f["units_per_chunk"]),
                    checksum=(
                        int(f["checksum"])
                        if f.get("checksum") is not None
                        else None
                    ),
                )
                for f in doc["files"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexError_(f"malformed file entry in index: {exc}") from exc
        return cls(files=files)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "DataIndex":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def build_index(
    dataset: DatasetSpec,
    placement: PlacementSpec | Iterable[tuple[str, int]],
    *,
    path_prefix: str = "data/part",
) -> DataIndex:
    """Synthesize an index from a dataset shape and a placement.

    ``placement`` is ``(site, files)`` pairs (a
    :class:`~repro.config.PlacementSpec` reads as its two): each site, in
    order, hosts the next ``files`` files — the paper's setup, where a
    contiguous prefix of the data stays on the campus storage node. The
    counts must add up to ``dataset.num_files``.
    """
    if isinstance(placement, PlacementSpec):
        placement = placement.sites(dataset.num_files)
    files: list[FileEntry] = []
    for site, count in placement:
        for file_id in range(len(files), len(files) + count):
            files.append(
                FileEntry(
                    file_id=file_id,
                    site=site,
                    path=f"{path_prefix}-{file_id:05d}.bin",
                    nbytes=dataset.file_bytes,
                    chunk_bytes=dataset.chunk_bytes,
                    units_per_chunk=dataset.units_per_chunk,
                )
            )
    if len(files) != dataset.num_files:
        raise ConfigurationError(
            f"placement holds {len(files)} files, the dataset {dataset.num_files}"
        )
    return DataIndex(files=files)
