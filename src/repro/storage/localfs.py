"""Filesystem-backed storage — the campus cluster's storage node.

Keys are slash-separated relative paths under a root directory. Range reads
use ``seek``/``read`` on the underlying file, which is exactly how the
paper's slaves read chunks off the dedicated SATA-SCSI storage node.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable

from ..errors import ObjectNotFoundError, StorageError
from .base import StorageService, validate_range

__all__ = ["LocalStorage"]


class LocalStorage(StorageService):
    """Blob store rooted at a directory on the local filesystem."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        if not key or key.startswith("/") or ".." in Path(key).parts:
            raise StorageError(f"invalid storage key {key!r}")
        return self.root / key

    def put(self, key: str, data: bytes) -> None:
        self.append_stream(key, (data,))

    def read_range(self, key: str, offset: int, nbytes: int) -> bytes:
        path = self._path(key)
        if not path.is_file():
            raise ObjectNotFoundError(key)
        total = path.stat().st_size
        actual = validate_range(total, offset, nbytes)
        with path.open("rb") as fh:
            fh.seek(offset)
            return fh.read(actual)

    def size(self, key: str) -> int:
        path = self._path(key)
        if not path.is_file():
            raise ObjectNotFoundError(key)
        return path.stat().st_size

    def exists(self, key: str) -> bool:
        return self._path(key).is_file()

    def delete(self, key: str) -> None:
        path = self._path(key)
        try:
            path.unlink()
        except FileNotFoundError:
            pass

    def keys(self, prefix: str = "") -> Iterable[str]:
        out = []
        for path in self.root.rglob("*"):
            if path.is_file() and not path.name.endswith(".tmp"):
                key = path.relative_to(self.root).as_posix()
                if key.startswith(prefix):
                    out.append(key)
        return sorted(out)

    def append_stream(
        self, key: str, parts: Iterable[bytes | memoryview]
    ) -> int:
        """Stream parts straight to disk without buffering the whole blob.
        The blob appears under ``key`` only once every part is written; a
        part or a write that raises leaves no ``.tmp`` file behind."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        total = 0
        tmp = path.with_suffix(path.suffix + ".tmp")
        try:
            with tmp.open("wb") as fh:
                for part in parts:
                    fh.write(part)
                    total += len(part)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return total
