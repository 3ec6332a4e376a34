"""Canonical artifact writing."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longdep import jsonio
from longdep.jsonio import Columns, canonical_dumps, write_canonical


def test_unserializable_object_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "artifact.json"
    write_canonical(str(path), {"a": 1})
    with pytest.raises(TypeError):
        write_canonical(str(path), {"a": object()})
    assert path.read_text() == '{"a":1}\n'
    assert os.listdir(tmp_path) == ["artifact.json"]


def test_interrupted_write_keeps_the_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "artifact.json"
    write_canonical(str(path), {"a": 1})

    def killed(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(jsonio.os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        write_canonical(str(path), {"a": 2, "b": "x" * 100_000})
    assert path.read_text() == '{"a":1}\n'


# Floats whose text or bits are easy to get wrong, drawn often so that
# columns repeat them.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-05, 1e16, 0.1 + 0.2, -0.75, 1.7976931348623157e308]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
INT64 = st.integers(-(2**63), 2**63 - 1)


def columns_of(rows, width):
    """``rows`` of ``width`` - 1 ints and a float, as ``Columns``."""
    columns = list(zip(*rows)) or [()] * width
    dtypes = [np.int64] * (width - 1) + [np.float64]
    return Columns(np.array(column, dtype=dtype) for column, dtype in zip(columns, dtypes))


@settings(deadline=None)
@given(pairs=st.lists(st.tuples(INT64, INT64, FLOATS), max_size=60),
       dsp=st.lists(st.tuples(INT64, FLOATS), max_size=20))
def test_columns_write_the_text_of_their_rows(pairs, dsp):
    head = {"doc_id": "é", "lds": -0.0, "n_segments": 4, "lds_config": {"tau": 0.05}}
    want = canonical_dumps({**head, "pairs": tuple(pairs), "dsp": tuple(dsp)})
    got = canonical_dumps({**head, "pairs": columns_of(pairs, 3), "dsp": columns_of(dsp, 2)})
    assert got == want
    assert canonical_dumps(columns_of(pairs, 3)) == canonical_dumps(pairs)
    csv = "".join(f"{target},{source},{value!r}\n" for target, source, value in pairs)
    assert "".join(columns_of(pairs, 3).lines("%d,%d,%s\n")) == csv


def test_columns_keep_signed_zeros_and_repeats_apart():
    rows = [(1, 0, 0.0), (2, 0, -0.0), (2, 1, 0.1 + 0.2), (3, 0, 0.0), (3, 1, -0.0),
            (3, 2, 5e-324), (4, 0, 1e-05), (4, 1, 1e16), (4, 2, 0.1 + 0.2)]
    text = canonical_dumps({"pairs": columns_of(rows, 3), "dsp": columns_of([], 2)})
    assert text == canonical_dumps({"pairs": rows, "dsp": []})
    assert '[2,0,-0.0]' in text and '[3,0,0.0]' in text and '"dsp":[]' in text


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_a_float_that_is_not_finite_is_refused(tmp_path, bad):
    path = tmp_path / "artifact.json"
    for obj in (columns_of([(1, 0, 0.5), (2, 1, bad)], 3), {"dsp": columns_of([(1, bad)], 2)}):
        with pytest.raises(ValueError, match="not finite"):
            write_canonical(str(path), obj)
    assert os.listdir(tmp_path) == []
