"""A tensor's nonzeros in narrow per-mode columns, and COO text read in
blocks: the block reader against one block, dtype edges, exact totals, and
the memory a read keeps and peaks at."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poissoncp.sparse_tensor as sparse_tensor
from poissoncp.errors import (
    DuplicateIndexError,
    IndexOutOfRangeError,
    NonpositiveCountError,
)
from poissoncp.sparse_tensor import SparseCountTensor, read_coo, write_coo
from poissoncp.synth import GenConfig, generate_model, sample_tensor

# Block sizes in characters: one character, a few, and one that cuts most
# lines of the texts below.
SMALL_BLOCKS = [1, 2, 5, 13]


def read_in_blocks(path, chars):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse_tensor, "_READ_BLOCK_CHARS", chars)
        return read_coo(path)


def assert_same_tensor(a, b):
    assert a.shape == b.shape
    for x, y in zip((*a.columns, a.counts), (*b.columns, b.counts)):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)


class TestTotalCount:
    def test_counts_past_int64_sum_exactly(self, tmp_path):
        path = tmp_path / "big.coo"
        path.write_text(f"2 2 2\n1 1 {2**62}\n2 2 {2**62}\n")
        assert read_coo(path).total_count() == 2**63

    @pytest.mark.parametrize("count", [255, 65_535, 2**32 - 1, 2**63 - 1])
    def test_narrow_counts_do_not_wrap(self, count):
        nnz = 1000
        subs = np.stack([np.arange(nnz), np.zeros(nnz, dtype=int)], axis=1)
        tensor = SparseCountTensor.from_arrays(
            (nnz, 1), subs, np.full(nnz, count), one_based=False)
        assert tensor.total_count() == nnz * count
        assert type(tensor.total_count()) is int


def coo_text(rng, dims=(7, 9, 300), nnz=40):
    """COO text of a random tensor, as write_coo writes it."""
    cells = rng.choice(np.prod(dims), size=nnz, replace=False)
    subs = np.stack(np.unravel_index(np.sort(cells), dims), axis=1) + 1
    counts = rng.integers(1, 1000, size=nnz)
    body = "".join(" ".join(map(str, (*s, c))) + "\n"
                   for s, c in zip(subs.tolist(), counts.tolist()))
    return f"{len(dims)} {' '.join(map(str, dims))}\n" + body


class TestBlockBoundaries:
    @pytest.mark.parametrize("variant", [
        "plain", "blank lines", "crlf", "no final newline", "padded"])
    @pytest.mark.parametrize("chars", SMALL_BLOCKS)
    def test_blocks_give_the_one_block_tensor(self, tmp_path, variant,
                                              chars):
        text = coo_text(np.random.default_rng(chars))
        if variant == "blank lines":
            text = text.replace("\n", "\n\n \n\t\n", 3) + "\n  \n"
        elif variant == "crlf":
            text = text.replace("\n", "\r\n")
        elif variant == "no final newline":
            text = text.rstrip("\n")
        elif variant == "padded":
            text = text.replace(" ", " \t  ").replace("\n", "  \n")
        path = tmp_path / "t.coo"
        path.write_bytes(text.encode())
        whole = read_coo(path)
        assert whole.nnz == 40
        assert_same_tensor(read_in_blocks(path, chars), whole)

    def test_generated_file_in_blocks(self, tmp_path):
        model = generate_model(GenConfig(dims=(20, 30, 40), rank=3,
                                         samples=1, seed=2))
        tensor, _ = sample_tensor(model, 5000, seed=3)
        path = tmp_path / "t.coo"
        write_coo(tensor, path)
        for chars in (7, 4096, 1 << 20):
            assert_same_tensor(read_in_blocks(path, chars), tensor)

    # Eight good lines (lines 2-9), then the bad one at line 10.
    GOOD = "".join(f"{i} {j} 1\n" for i in (1, 2) for j in (1, 2, 3, 4))

    @pytest.mark.parametrize("bad, error, message", [
        ("1 5 1 1", ValueError,
         "line 10: entries must have 2 indices plus a count, got 4 fields"),
        ("1 5", ValueError,
         "line 10: entries must have 2 indices plus a count, got 2 fields"),
        # Lines of 4 and 2 fields: the block's total still splits into
        # entries of 3.
        ("1 5 1 1\n1 1", ValueError,
         "line 10: entries must have 2 indices plus a count, got 4 fields"),
        ("1 x 1", ValueError, "line 10: 'x' is not an int64 integer"),
        ("1 5 +", ValueError, "line 10: '+' is not an int64 integer"),
        ("1 5 -", ValueError, "line 10: '-' is not an int64 integer"),
        ("1 5 99999999999999999999", ValueError,
         "line 10: '99999999999999999999' is not an int64 integer"),
        ("9 1 1", IndexOutOfRangeError, "index (9, 1) outside shape (3, 5)"),
        ("0 1 1", IndexOutOfRangeError, "index (0, 1) outside shape (3, 5)"),
        # The least int64 is named as the file gives it, as from_arrays
        # names it: the 1-based to 0-based shift must not wrap it.
        ("-9223372036854775808 2 3", IndexOutOfRangeError,
         "index (-9223372036854775808, 2) outside shape (3, 5)"),
        ("3 5 0", NonpositiveCountError,
         "count 0 at index (3, 5) is not positive"),
        ("3 5 -2", NonpositiveCountError,
         "count -2 at index (3, 5) is not positive"),
        ("2 3 7", DuplicateIndexError, "duplicate index (2, 3)"),
    ])
    @pytest.mark.parametrize("chars", [*SMALL_BLOCKS, 1 << 20])
    def test_error_in_a_later_block(self, tmp_path, bad, error, message,
                                    chars):
        path = tmp_path / "bad.coo"
        path.write_text("2 3 5\n" + self.GOOD + bad + "\n3 1 1\n")
        with pytest.raises(error) as info:
            read_in_blocks(path, chars)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("body, message", [
        # A malformed line after an invalid index or count.
        ("3 5 0\n9 1 1\n1 1 1 1\n",
         "line 4: entries must have 2 indices plus a count, got 4 fields"),
        ("9 1 1\n1 y 1\n", "line 3: 'y' is not an int64 integer"),
        # An index out of range after a count below 1.
        ("3 5 0\n1 1 1\n9 1 1\n", "index (9, 1) outside shape (3, 5)"),
        # The first of two invalid indices, and of two invalid counts.
        ("9 1 1\n1 1 1\n8 1 1\n", "index (9, 1) outside shape (3, 5)"),
        ("3 5 0\n1 1 1\n2 2 -1\n", "count 0 at index (3, 5) is not positive"),
    ])
    @pytest.mark.parametrize("chars", [1, 1 << 20])
    def test_errors_keep_their_precedence_across_blocks(self, tmp_path, body,
                                                        message, chars):
        path = tmp_path / "bad.coo"
        path.write_text("2 3 5\n" + body)
        with pytest.raises(ValueError) as info:
            read_in_blocks(path, chars)
        assert str(info.value) == f"{path}: {message}"

    def test_malformed_body_before_a_bad_shape(self, tmp_path):
        path = tmp_path / "bad.coo"
        path.write_text("2 0 5\n1 1 1\n1 1\n")
        with pytest.raises(ValueError) as info:
            read_in_blocks(path, 3)
        assert str(info.value) == (f"{path}: line 3: entries must have 2 "
                                   "indices plus a count, got 2 fields")
        path.write_text("2 0 5\n1 1 1\n")
        with pytest.raises(ValueError, match="all dimensions must be >= 1"):
            read_in_blocks(path, 3)


# Body lines of a (3, 5) tensor: valid ones, repeats, blanks, and every
# kind of error.
BODY_LINES = st.sampled_from([
    "1 1 1", "2 3 4", "3 5 9", " 1\t2  3 ", "", "  ", "1 2", "1 2 3 4",
    "1 x 2", "2 2 +", "-1 2 3", "0 1 1", "1 1 0", "4 1 1",
    f"1 3 {2**63 - 1}", "1 1 99999999999999999999"])


def outcome(path, chars):
    """The tensor read in blocks of ``chars`` characters, or its error."""
    try:
        t = read_in_blocks(path, chars)
    except ValueError as exc:
        return type(exc), str(exc)
    return (t.shape.dims, t.subs0.tolist(), t.vals.tolist(),
            [c.dtype for c in (*t.columns, t.counts)])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lines=st.lists(BODY_LINES, max_size=12),
       ending=st.sampled_from(["\n", "\r\n"]), final=st.booleans(),
       chars=st.integers(1, 40))
def test_any_body_reads_the_same_in_blocks(lines, ending, final, chars):
    text = "2 3 5" + ending + ending.join(lines) + (ending if final else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.coo"
        path.write_bytes(text.encode())
        assert outcome(path, chars) == outcome(path, 1 << 20)


class TestDtypeEdges:
    @pytest.mark.parametrize("dims, index_dtypes", [
        ((256, 257), (np.uint8, np.uint16)),
        ((65_536, 65_537), (np.uint16, np.uint32)),
    ])
    @pytest.mark.parametrize("top, count_dtype", [
        (255, np.uint8), (256, np.uint16), (65_535, np.uint16),
        (65_536, np.uint32), (2**32, np.uint64), (2**63 - 1, np.uint64),
    ])
    def test_round_trip_at_every_width(self, tmp_path, dims, index_dtypes,
                                       top, count_dtype):
        subs = np.array([[1, 1], [2, dims[1]], [dims[0], 2],
                         [dims[0], dims[1]]])
        vals = np.array([1, 3, top, top - 1])
        tensor = SparseCountTensor.from_arrays(dims, subs, vals)
        assert [c.dtype for c in tensor.columns] == list(index_dtypes)
        assert tensor.counts.dtype == count_dtype
        first, second = tmp_path / "a.coo", tmp_path / "b.coo"
        write_coo(tensor, first)
        # The largest 0-based index of a narrow column, plus 1, is written
        # in full.
        assert f"{dims[0]} {dims[1]} {top - 1}\n" in first.read_text()
        back = read_coo(first)
        assert_same_tensor(back, tensor)
        write_coo(back, second)
        assert second.read_bytes() == first.read_bytes()
        for got, want in ((back.subs0 + 1, subs), (back.vals, vals)):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        for array in (back.subs0, back.vals):
            assert array.dtype == np.int64 and not array.flags.writeable

    def test_views_are_new_on_each_call(self):
        tensor = SparseCountTensor.from_entries((3, 2), [((1, 2), 4)])
        assert tensor.subs0 is not tensor.subs0
        assert tensor.vals is not tensor.vals
        for column in (*tensor.columns, tensor.counts):
            assert not column.flags.writeable


def test_read_keeps_and_peaks_at_few_bytes_per_nonzero(tmp_path):
    # Indices below 65,536 take 2 bytes and counts below 256 one, so the
    # tensor keeps 7 bytes per nonzero; an int64 body and int64 columns
    # would keep 32 and peak at 64.  A block's temporaries are a few MB
    # whatever the file's size.
    rng = np.random.default_rng(0)
    dims = (65_536, 300, 65_536)
    nnz = 200_000
    cells = np.unique(np.stack([rng.integers(0, d, size=nnz + 500)
                                for d in dims], axis=1), axis=0)[:nnz]
    tensor = SparseCountTensor.from_arrays(
        dims, cells, rng.integers(1, 256, size=nnz), one_based=False)
    path = tmp_path / "t.coo"
    write_coo(tensor, path)
    del cells, tensor
    tracemalloc.start()
    try:
        back = read_coo(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.nnz == nnz
    assert kept <= 8 * nnz
    assert peak <= 32 * nnz
