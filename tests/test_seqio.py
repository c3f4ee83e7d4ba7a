import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from skelrefine import seqio
from skelrefine.cli import main
from skelrefine.errors import DataError, NumericalError
from skelrefine.seqio import read_sequence, write_sequence
from skelrefine.skeleton import POSE_DIM, VALUE_LIMIT, Encoding, SkeletonSequence

from conftest import random_absolute_sequence


def test_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(77)
    seq = random_absolute_sequence(rng, 15, frame_rate_hz=30.0)
    path = tmp_path / "seq.jsonl"
    write_sequence(path, seq)
    back = read_sequence(path)
    assert np.array_equal(back.data, seq.data)
    assert back.encoding is seq.encoding
    assert back.frame_rate_hz == seq.frame_rate_hz


def test_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(78)
    seq = random_absolute_sequence(rng, 8)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_sequence(a, seq)
    write_sequence(b, seq)
    assert a.read_bytes() == b.read_bytes()


def per_element_bytes(seq) -> bytes:
    """A sequence file as formatted one float() conversion per value."""
    lines = [json.dumps({"frame_rate_hz": seq.frame_rate_hz, "encoding": seq.encoding.value})]
    lines += [json.dumps({"t": t, "joints": [float(v) for v in seq.data[t]]})
              for t in range(len(seq))]
    return ("\n".join(lines) + "\n").encode("utf-8")


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 0.1, 1 / 3,
                VALUE_LIMIT, -VALUE_LIMIT]
_BEYOND_VALUES = [float(np.nextafter(VALUE_LIMIT, np.inf)), -1e7, 1e308, -1e308,
                  1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=60, deadline=None)
@given(data=hnp.arrays(
    np.float64, st.tuples(st.integers(1, 4), st.just(POSE_DIM)),
    elements=st.one_of(st.sampled_from(_EDGE_VALUES),
                       st.floats(-VALUE_LIMIT, VALUE_LIMIT)),
), beyond=st.one_of(st.none(), st.sampled_from(_BEYOND_VALUES)), at=st.integers(0, 4 * POSE_DIM))
def test_write_matches_per_element_formatting_and_reads_back_exactly(data, beyond, at):
    if beyond is not None:
        data[np.unravel_index(at % data.size, data.shape)] = beyond
    seq = SkeletonSequence(data, Encoding.ABSOLUTE, 30.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seq.jsonl"
        write_sequence(path, seq)
        assert path.read_bytes() == per_element_bytes(seq)
        if beyond is None:
            # bytes, so that -0.0 and 0.0 differ
            assert read_sequence(path).data.tobytes() == seq.data.tobytes()
        else:
            # the reader accepts values within VALUE_LIMIT only
            with pytest.raises(NumericalError):
                read_sequence(path)


@pytest.mark.parametrize("previous", [True, False])
def test_failed_write_leaves_previous_file_and_no_partial_file(tmp_path, monkeypatch, previous):
    rng = np.random.default_rng(80)
    path = tmp_path / "seq.jsonl"
    if previous:
        write_sequence(path, random_absolute_sequence(rng, 4))
        before = path.read_bytes()
    dumps = json.dumps
    calls = []

    def failing_dumps(obj, *args, **kwargs):
        calls.append(obj)
        if len(calls) == 5:
            raise RuntimeError("serialisation failed")
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(seqio.json, "dumps", failing_dumps)
    with pytest.raises(RuntimeError):
        write_sequence(path, random_absolute_sequence(rng, 10))
    monkeypatch.undo()
    assert len(calls) == 5
    if previous:
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["seq.jsonl"]
    else:
        assert list(tmp_path.iterdir()) == []


def test_header_carries_encoding(tmp_path):
    seq = SkeletonSequence(np.zeros((2, POSE_DIM)), Encoding.RELATIVE, 25.0)
    path = tmp_path / "rel.jsonl"
    write_sequence(path, seq)
    header = json.loads(path.read_text().splitlines()[0])
    assert header == {"frame_rate_hz": 25.0, "encoding": "relative"}
    assert read_sequence(path).encoding is Encoding.RELATIVE


@pytest.mark.parametrize(
    "lines",
    [
        [],
        ['{"encoding": "absolute"}'],
        ['{"frame_rate_hz": 30.0}'],
        ['{"frame_rate_hz": -1, "encoding": "absolute"}'],
        ['{"frame_rate_hz": 30.0, "encoding": "sideways"}'],
        ['not json'],
        ['{"frame_rate_hz": 30.0, "encoding": "absolute"}'],  # no frames
        ['{"frame_rate_hz": 30.0, "encoding": "absolute"}', '{"t": 0, "joints": [1.0]}'],
        [
            '{"frame_rate_hz": 30.0, "encoding": "absolute"}',
            json.dumps({"t": 5, "joints": [0.0] * POSE_DIM}),
        ],
        [
            '{"frame_rate_hz": 30.0, "encoding": "absolute"}',
            json.dumps({"t": 0, "joints": [float("nan")] * POSE_DIM}).replace("NaN", "1e999"),
        ],
        ['{"frame_rate_hz": true, "encoding": "absolute"}',
         json.dumps({"t": 0, "joints": [0.0] * POSE_DIM})],
        ['{"frame_rate_hz": Infinity, "encoding": "absolute"}',
         json.dumps({"t": 0, "joints": [0.0] * POSE_DIM})],
    ],
)
def test_malformed_files_rejected(tmp_path, lines):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError):
        read_sequence(path)


# a frame rate beyond VALUE_LIMIT is a malformed header, exit 2, as any bad
# setting is; only joint values beyond it are exit 3
@pytest.mark.parametrize("frame_rate", ["true", "Infinity", "2e6"])
def test_header_frame_rate_is_a_one_line_data_error_naming_the_file(tmp_path, capsys,
                                                                     frame_rate):
    path = tmp_path / "bad.jsonl"
    path.write_text(f'{{"frame_rate_hz": {frame_rate}, "encoding": "absolute"}}\n'
                    + json.dumps({"t": 0, "joints": [0.0] * POSE_DIM}) + "\n")
    assert main(["eval", "--pred", str(path), "--truth", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and err.count("\n") == 1
