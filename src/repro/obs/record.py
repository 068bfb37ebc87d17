"""The fold and the serializers of a per-pass record.

:class:`~repro.sim.metrics.SimReport` and
:class:`~repro.runtime.telemetry.RunTelemetry` are each a dataclass of
scalars plus ``clusters``, a dict of per-cluster dataclasses; one
``dataclasses.fields`` walk sums, writes and reads back both, so a
counter added to either is covered without touching another line.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, Field, asdict, fields, replace
from typing import Sequence

__all__ = ["PassRecord"]

_CASTS = {"int": int, "float": float}


class PassRecord:
    """Mixin for such a dataclass; it names the class of its ``clusters``
    entries and the error a malformed document raises."""

    _cluster_cls: type
    _error: type[Exception]

    @classmethod
    def _scalar_fields(cls) -> list[Field]:
        return [f for f in fields(cls) if f.name != "clusters"]

    @classmethod
    def fold(cls, passes: Sequence):
        """Whole-run record of a multi-pass run: every counter (a numeric
        field with a default) summed over ``passes``; everything else —
        what describes one pass — is the last pass's."""
        sums = {
            f.name: sum(getattr(record, f.name) for record in passes)
            for f in cls._scalar_fields()
            if f.type in _CASTS and f.default is not MISSING
        }
        return replace(passes[-1], **sums)

    def to_dict(self) -> dict:
        """Plain-data form for persistence or downstream tooling."""
        doc = {f.name: getattr(self, f.name) for f in self._scalar_fields()}
        doc["clusters"] = {name: asdict(c) for name, c in self.clusters.items()}
        return doc

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict):
        try:
            clusters = {
                name: cls._cluster_cls(**entry)
                for name, entry in doc["clusters"].items()
            }
            # Absent fields keep their defaults; a field without one is
            # required and its absence is a KeyError.
            scalars = {
                f.name: _CASTS.get(f.type, lambda value: value)(doc[f.name])
                for f in cls._scalar_fields()
                if f.default is MISSING or f.name in doc
            }
            return cls(clusters=clusters, **scalars)
        except (KeyError, TypeError) as exc:
            raise cls._error(f"malformed {cls.__name__} document: {exc}") from exc

    @classmethod
    def from_json(cls, text: str):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise cls._error(f"{cls.__name__} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)
