"""Check that a golden file differs from an older one only by the
``ClusterReport`` field rename ``cores`` -> ``slaves``.

Usage::

    git show <older-commit>:tests/data/sim_golden.json > old.json
    python tests/data/rename_cores_key.py old.json tests/data/sim_golden.json

Exits non-zero unless renaming the key in every ``clusters`` entry of the
old document gives a document ``==`` to the new one.
"""

from __future__ import annotations

import json
import sys


def rename(doc):
    """``doc`` with ``cores`` renamed ``slaves`` in every cluster entry."""
    if isinstance(doc, list):
        return [rename(item) for item in doc]
    if not isinstance(doc, dict):
        return doc
    out = {key: rename(value) for key, value in doc.items()}
    if isinstance(out.get("clusters"), dict):
        out["clusters"] = {
            name: {("slaves" if key == "cores" else key): value
                   for key, value in entry.items()}
            for name, entry in out["clusters"].items()
        }
    return out


def main(old_path: str, new_path: str) -> int:
    with open(old_path) as old, open(new_path) as new:
        renamed, current = rename(json.load(old)), json.load(new)
    if renamed != current:
        print("golden files differ by more than the cores -> slaves rename")
        return 1
    print(f"{new_path} == {old_path} with cores -> slaves in every cluster")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
