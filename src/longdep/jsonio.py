"""Canonical JSON serialization shared by every artifact writer.

All persisted artifacts use sorted keys and minimal separators so that
reruns with equal inputs produce byte-identical files. Anything
time-dependent lives in a ``.meta.json`` sidecar, never in the artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def fingerprint(obj: Any) -> str:
    """Hex digest of an object's canonical JSON form."""
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()


def write_canonical(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_dumps(obj))
        handle.write("\n")


def write_meta_sidecar(path: str, *, complete: bool, extra: dict | None = None) -> None:
    """Run metadata next to an artifact: timestamps and completion status
    stay out of the artifact itself so reruns stay byte-identical."""
    meta = {"complete": complete, "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    if extra:
        meta.update(extra)
    with open(path + ".meta.json", "w", encoding="utf-8") as handle:
        json.dump(meta, handle, sort_keys=True, indent=2)
        handle.write("\n")


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
