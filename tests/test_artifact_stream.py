"""The streaming artifact writer: ``csv_blocks`` text and ``emit_results``'s hashing and memory."""

import hashlib
import json
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfilter.harness import _CSV_BLOCK_ROWS, csv_blocks, emit_results, parse_config


def columns_of(rows: int, seed: int) -> list:
    """A float column over all bit patterns (nan and inf included), an int column, a str
    column and a text column (a list of str, written as it is)."""
    rng = np.random.default_rng(seed)
    floats = rng.integers(0, 2**64, size=rows, dtype=np.uint64).view(np.float64)
    ints = rng.integers(-(2**62), 2**62, size=rows)
    words = np.array([f"w{v}" for v in rng.integers(0, 1000, size=rows)], dtype=str)
    texts = [f"-%{v}" for v in rng.integers(0, 1000, size=rows).tolist()]
    return [ints, floats, words, texts]


HEADER = ["i", "x", "w", "t"]  # the names of the columns_of columns


def emit(tmp_path, files):
    manifest = emit_results(files, tmp_path, name="s", command="c", cfg=parse_config(""))
    return json.loads(manifest.read_text())["files"]


class TestBlocks:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 * _CSV_BLOCK_ROWS + 7), st.integers(0, 2**32), st.data())
    def test_any_split_into_row_blocks_joins_to_the_whole(self, rows, seed, data):
        columns = columns_of(rows, seed)
        cuts = sorted(data.draw(st.lists(st.integers(0, rows), max_size=6)))
        bounds = [0, *cuts, rows]
        blocks = [[c[a:b] for c in columns] for a, b in zip(bounds, bounds[1:])]
        assert "".join(csv_blocks(HEADER, blocks)) == "".join(csv_blocks(HEADER, [columns]))

    def test_no_blocks_is_the_header(self):
        assert list(csv_blocks(["a", "b"], [])) == ["a,b\n"]

    def test_chunks_hold_at_most_the_block_rows(self):
        pieces = list(csv_blocks(HEADER, [columns_of(2 * _CSV_BLOCK_ROWS + 1, 3)]))
        assert [piece.count("\n") for piece in pieces] == [1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS, 1]


class TestEmit:
    def test_manifest_hashes_the_bytes_on_disk(self, tmp_path):
        columns = columns_of(_CSV_BLOCK_ROWS + 500, 5)
        text = "epsilon,0.5\n"
        entries = emit(
            tmp_path,
            {"big.csv": csv_blocks(HEADER, [columns]), "small.csv": [text]},
        )
        assert [e["name"] for e in entries] == ["big.csv", "small.csv"]
        for entry in entries:
            data = (tmp_path / entry["name"]).read_bytes()
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()
            assert entry["bytes"] == len(data)
        assert (tmp_path / "big.csv").read_text() == "".join(csv_blocks(HEADER, [columns]))
        assert (tmp_path / "small.csv").read_text() == text

    def test_memory_stays_a_fraction_of_the_artifact(self, tmp_path):
        rows = 150_000
        rng = np.random.default_rng(7)
        columns = [np.arange(rows), rng.standard_normal(rows), rng.standard_normal(rows)]
        tracemalloc.start()
        try:
            entries = emit(tmp_path, {"big.csv": csv_blocks(["i", "a", "b"], [columns])})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = entries[0]["bytes"]
        assert size > 6_000_000
        assert peak < size / 4, (peak, size)
