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
from typing import Any, Iterator

import numpy as np


class Columns(tuple):
    """Equal-length 1-D arrays, int columns then one float64 column, that
    ``canonical_dumps`` writes as the list of their rows: the text json
    gives the same rows of Python numbers. Each distinct float, told
    apart by its bits, is rendered once; one that is not finite raises
    ValueError."""

    def dumps(self) -> str:
        return "[%s]" % ",".join(self.lines("[" + "%d," * (len(self) - 1) + "%s]"))

    def lines(self, template: str) -> Iterator[str]:
        """Each row as ``template % row``: the ints, then the float's
        repr as a ``%s``."""
        *ints, floats = self
        if not np.isfinite(floats).all():
            raise ValueError("a float column holds a value that is not finite")
        distinct, index = np.unique(floats.view(np.int64), return_inverse=True)
        texts = list(map(float.__repr__, distinct.view(np.float64).tolist()))
        rows = zip(*(column.tolist() for column in ints), map(texts.__getitem__, index.tolist()))
        return map(template.__mod__, rows)


def canonical_dumps(obj: Any) -> str:
    """``obj`` as JSON with sorted keys and no spaces. ``Columns``, alone
    or as a value of ``obj`` when it is a dict, are spliced in."""
    if type(obj) is Columns:
        return obj.dumps()
    if type(obj) is dict and any(type(value) is Columns for value in obj.values()):
        return "{%s}" % ",".join(
            f"{canonical_dumps(key)}:{canonical_dumps(value)}" for key, value in sorted(obj.items())
        )
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
    stay out of the artifact itself so reruns stay byte-identical. The
    sidecar is written with ``open_atomic``."""
    meta = {"complete": complete, "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    if extra:
        meta.update(extra)
    with open_atomic(path + ".meta.json") as handle:
        json.dump(meta, handle, sort_keys=True, indent=2)
        handle.write("\n")


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
