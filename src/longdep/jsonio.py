"""Canonical JSON serialization shared by every artifact writer.

All persisted artifacts use sorted keys and minimal separators so that
reruns with equal inputs produce byte-identical files. Anything
time-dependent lives in a ``.meta.json`` sidecar, never in the artifact.
"""

from __future__ import annotations

import contextlib
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


@contextlib.contextmanager
def open_atomic(path: str | os.PathLike, mode: str = "w"):
    """All or nothing: the block writes ``<path>.partial``, renamed over
    ``path`` once the block completes, so a failed or killed write leaves
    the earlier file as it was; a failed one also removes its .partial."""
    partial = os.fspath(path) + ".partial"
    try:
        with open(partial, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(partial)
        raise


def write_canonical(path: str, obj: Any) -> None:
    """``obj`` as one canonical JSON line, written with ``open_atomic``."""
    text = canonical_dumps(obj)
    with open_atomic(path) as handle:
        handle.write(text)
        handle.write("\n")


def drop_meta_sidecar(path: str) -> None:
    """Remove ``path``'s sidecar before ``path`` is rewritten, so that an
    earlier run's ``complete: true`` cannot vouch for the new file."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(path + ".meta.json")


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
