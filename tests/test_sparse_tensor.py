import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poissoncp.sparse_tensor as sparse_tensor
from conftest import per_line_write_coo
from poissoncp.errors import (
    DuplicateIndexError,
    IndexOutOfRangeError,
    NonpositiveCountError,
)
from poissoncp.sparse_tensor import (
    Shape,
    SparseCountTensor,
    lexsort_runs,
    mode_column_index,
    mode_row_positions,
    read_coo,
    write_coo,
)


class TestShape:
    def test_basic(self):
        s = Shape((3, 4, 5))
        assert s.ndim == 3
        assert s.size == 60

    def test_rejects_single_mode(self):
        with pytest.raises(ValueError):
            Shape((5,))

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            Shape((3, 0))

    def test_rejects_fractional_dim(self):
        with pytest.raises(ValueError, match="dimensions must be integers"):
            Shape((5.7, 6, 7))

    def test_integral_dims_become_ints(self):
        dims = Shape([3.0, np.int64(4)]).dims
        assert dims == (3, 4)
        assert all(type(d) is int for d in dims)


class TestValidation:
    def test_minimal_tensor(self):
        t = SparseCountTensor.from_entries((2, 2), [((1, 1), 3)])
        assert t.nnz == 1
        assert t.total_count() == 3

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            SparseCountTensor.from_entries((2, 2), [((3, 1), 1)])

    def test_duplicate_index(self):
        with pytest.raises(DuplicateIndexError):
            SparseCountTensor.from_entries((2, 2), [((1, 1), 1), ((1, 1), 2)])

    def test_nonpositive_count(self):
        with pytest.raises(NonpositiveCountError):
            SparseCountTensor.from_entries((2, 2), [((1, 1), 0)])

    def test_wrong_width_entries(self):
        with pytest.raises(IndexOutOfRangeError, match="3 components"):
            SparseCountTensor.from_entries((2, 2, 2), [((1, 1), 1)])

    def test_ragged_entries(self):
        with pytest.raises(IndexOutOfRangeError, match="2 components"):
            SparseCountTensor.from_entries((2, 2), [((1, 1), 1), ((2,), 1)])

    @pytest.mark.parametrize("entry, name", [
        (((1, 1), 1.5), "counts"), (((1.7, 2), 1), "indices"),
        (((1, 1), True), "counts"), (((1, 1), float("nan")), "counts"),
        (((1, 1), float("inf")), "counts"), (((1, 1), 2**70), "counts"),
        (((1, 1), "3"), "counts"), (((1, 2**64), 1), "indices"),
        (((True, 1), 2), "indices"), (((1, np.True_), 2), "indices"),
    ])
    def test_non_integer_entry_is_not_truncated(self, entry, name):
        with pytest.raises(ValueError, match=f"{name} must be integers"):
            SparseCountTensor.from_entries((2, 2), [entry])

    def test_boolean_beside_integers_is_not_converted(self):
        # numpy turns [(True, 1)] into an int64 array, so the booleans must
        # be found before the conversion.
        with pytest.raises(ValueError, match="counts must be integers.* bool"):
            SparseCountTensor.from_entries((2, 2), [((1, 1), True),
                                                    ((1, 2), 2)])
        with pytest.raises(ValueError, match="counts must be integers.* bool"):
            SparseCountTensor.from_entries((2, 2), [((1, 1), 2.0),
                                                    ((1, 2), False)])
        with pytest.raises(ValueError, match="indices must be integers.* bool"):
            SparseCountTensor.from_arrays((2, 2), [[1, 1], [False, 2]], [1, 2])

    def test_arrays_convert_only_exact_integers(self):
        subs = np.array([[2, 3], [1, 2]])
        want = [((1, 2), 5), ((2, 3), 4)]
        for good_subs, good_vals in [(subs, [4, 5]), (subs + 0.0, [4.0, 5]),
                                     (subs.astype(np.uint8), [4, 5])]:
            t = SparseCountTensor.from_arrays((2, 3), good_subs, good_vals)
            assert list(t.entries()) == want
            assert t.subs0.dtype == t.vals.dtype == np.int64
        for bad_subs, bad_vals in [(subs + 0.25, [4, 5]), (subs, [4, 5.5]),
                                   (subs, np.array([True, True])),
                                   (subs, np.array([4, 2**63], np.uint64)),
                                   (subs, [4, 2.0**63])]:
            with pytest.raises(ValueError, match="must be integers"):
                SparseCountTensor.from_arrays((2, 3), bad_subs, bad_vals)

    @pytest.mark.parametrize("subs", [
        np.ones((6, 2), dtype=int),  # 12 numbers, four 3-index rows' worth
        np.ones((4,), dtype=int),
        np.ones((4, 3, 1), dtype=int),
    ])
    def test_subscripts_not_shaped_count_by_modes(self, subs):
        with pytest.raises(IndexOutOfRangeError, match="3 components"):
            SparseCountTensor.from_arrays((5, 5, 5), subs, [1, 2, 3, 4])

    def test_more_subscript_rows_than_counts(self):
        with pytest.raises(ValueError, match="disagree in length"):
            SparseCountTensor.from_arrays((5, 5, 5), np.ones((5, 3)),
                                          [1, 2, 3, 4])

    @pytest.mark.parametrize("subs", [[], np.empty((0, 3)), np.empty((0, 2))])
    def test_empty_arrays(self, subs):
        t = SparseCountTensor.from_arrays((5, 5, 5), subs, [])
        assert t.nnz == 0 and t.subs0.shape == (0, 3)

    @pytest.mark.parametrize("subs", [[[1, 1], [2, 2]], [[2, 2], [1, 1]]])
    def test_tensor_does_not_alias_the_inputs(self, subs):
        subs, vals = np.array(subs), np.array([3, 4])
        t = SparseCountTensor.from_arrays((2, 2), subs, vals)
        before = list(t.entries())
        subs[0, 0], vals[0] = 2, -7
        assert list(t.entries()) == before
        for array in (t.subs0, t.vals):
            assert array.flags.c_contiguous and array.flags.owndata

    def test_entries_sorted_lexicographically(self):
        t = SparseCountTensor.from_entries(
            (2, 2), [((2, 1), 1), ((1, 2), 2), ((1, 1), 3)]
        )
        assert [e for e, _ in t.entries()] == [(1, 1), (1, 2), (2, 1)]


class TestModeColumnIndex:
    def test_stated_values(self):
        assert mode_column_index((2, 2, 2), 1, (2, 1, 2)) == 3
        assert mode_column_index((2, 2, 2), 1, (2, 1, 1)) == 1

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_bijective_over_reduced_space(self, mode):
        # Exhaustive check on a (3, 4, 5) shape: the reduced indices of any
        # mode must map onto a permutation of 1..J_n.
        shape = Shape((3, 4, 5))
        other_dims = [d for k, d in enumerate(shape.dims, start=1) if k != mode]
        seen = []
        for reduced in np.ndindex(*reversed(other_dims)):
            idx = list(reversed([i + 1 for i in reduced]))
            idx.insert(mode - 1, 1)
            seen.append(mode_column_index(shape, mode, idx))
        assert sorted(seen) == list(range(1, math.prod(other_dims) + 1))

    def test_rejects_bad_index(self):
        with pytest.raises(IndexOutOfRangeError):
            mode_column_index((2, 2), 1, (1, 3))
        with pytest.raises(IndexOutOfRangeError):
            mode_column_index((2, 2), 3, (1, 1))
        for mode in (1.0, 2.0, True):
            with pytest.raises(IndexOutOfRangeError,
                               match=f"mode {mode} out of range"):
                mode_column_index((2, 2), mode, (1, 1))
        assert mode_column_index((2, 2), np.int64(2), (2, 2)) == 2
        with pytest.raises(IndexOutOfRangeError, match="2 components, got 3"):
            mode_column_index((2, 2), 1, (1, 1, 1))


def layout_entries(layout, mode: int):
    """``(row0, entries)`` per nonempty row of a mode layout: the row's
    1-based ``((i_1, ..., i_N), count)`` pairs rebuilt from the layout's
    index columns and counts, in the layout's order."""
    for k, row0 in enumerate(layout.rows.tolist()):
        lo, hi = layout.starts[k], layout.starts[k + 1]
        others = [c[lo:hi].tolist() for c in layout.columns]
        subs = [(*i[:mode - 1], row0, *i[mode - 1:]) for i in zip(*others)]
        yield row0, [(tuple(i + 1 for i in sub), count) for sub, count
                     in zip(subs, layout.vals[lo:hi].tolist())]


class TestGroupByMode:
    """Grouping of the nonzeros by mode row, as ``mode_row_positions``
    lays it out."""

    def test_empty_tensor(self):
        t = SparseCountTensor.from_entries((2, 2), [])
        layout = mode_row_positions(t, 1)
        assert len(layout) == 0
        assert layout.rows.size == 0 and layout.vals.size == 0
        assert [c.size for c in layout.columns] == [0]

    def test_direct_regrouping(self):
        t = SparseCountTensor.from_entries((2, 2), [((1, 2), 5), ((2, 2), 7)])
        layout = mode_row_positions(t, 1)
        assert layout.rows.tolist() == [0, 1]
        assert layout.starts.tolist() == [0, 1, 2]
        assert [c.tolist() for c in layout.columns] == [[1, 1]]
        assert layout.vals.tolist() == [5, 7]
        assert list(layout_entries(layout, 1)) == [
            (0, [((1, 2), 5)]), (1, [((2, 2), 7)])]

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_count_conservation_random(self, rng, mode):
        # Conservation oracle: regrouping must reproduce the entries, each
        # nonempty row holding its own entries in COO order.
        for _ in range(5):
            cells = rng.choice(1000, size=50, replace=False)
            subs = np.stack(np.unravel_index(cells, (10, 10, 10)), axis=1) + 1
            vals = rng.integers(1, 9, size=50)
            t = SparseCountTensor.from_arrays((10, 10, 10), subs, vals)
            layout = mode_row_positions(t, mode)
            assert int(layout.vals.sum()) == t.total_count()
            assert all(c.shape == (t.nnz,) for c in (*layout.columns,
                                                     layout.vals))
            coo = list(t.entries())
            rebuilt = []
            for row0, entries in layout_entries(layout, mode):
                assert entries == [e for e in coo
                                   if e[0][mode - 1] == row0 + 1]
                rebuilt += entries
            assert sorted(rebuilt) == coo


class TestTotals:
    def test_empty(self):
        t = SparseCountTensor.from_entries((2, 2), [])
        assert t.total_count() == 0
        assert t.density() == 0.0

    def test_hand_count(self):
        t = SparseCountTensor.from_entries((2, 2), [((1, 2), 5), ((2, 2), 7)])
        assert t.total_count() == 12
        assert t.density() == 0.5

    def test_density_times_size_is_nnz(self, rng):
        cells = rng.choice(6 * 7, size=11, replace=False)
        subs = np.stack(np.unravel_index(cells, (6, 7)), axis=1) + 1
        t = SparseCountTensor.from_arrays((6, 7), subs, np.ones(11, dtype=int))
        assert t.density() * t.shape.size == pytest.approx(t.nnz)


class TestCooRoundTrip:
    def test_round_trip(self, rng, tmp_path):
        cells = rng.choice(5 * 6 * 4, size=20, replace=False)
        subs = np.stack(np.unravel_index(cells, (5, 6, 4)), axis=1) + 1
        vals = rng.integers(1, 50, size=20)
        t = SparseCountTensor.from_arrays((5, 6, 4), subs, vals)
        path = tmp_path / "t.coo"
        write_coo(t, path)
        back = read_coo(path)
        assert back.shape.dims == t.shape.dims
        np.testing.assert_array_equal(back.subs0, t.subs0)
        np.testing.assert_array_equal(back.vals, t.vals)

    def test_header_format(self, tmp_path):
        t = SparseCountTensor.from_entries((2, 3), [((2, 1), 4)])
        path = tmp_path / "t.coo"
        write_coo(t, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "2 2 3"
        assert lines[1] == "2 1 4"

    def test_empty_round_trip(self, tmp_path):
        t = SparseCountTensor.from_entries((3, 3), [])
        path = tmp_path / "t.coo"
        write_coo(t, path)
        assert read_coo(path).nnz == 0


def random_coo_arrays(seed, ndim, nnz):
    """Up to ``nnz`` distinct 1-based subscripts in random order, counts and
    dims; some dims run to a million so indices take several digits."""
    rng = np.random.default_rng(seed)
    hi = 7 if rng.random() < 0.5 else 10**6
    dims = tuple(int(d) for d in rng.integers(1, hi, ndim))
    subs = np.stack([rng.integers(1, d + 1, nnz) for d in dims], axis=1)
    subs = np.unique(subs, axis=0).reshape(-1, ndim)
    subs = subs[rng.permutation(subs.shape[0])]
    vals = rng.integers(1, 2**40, subs.shape[0])
    return dims, subs, vals


COO_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                        database=None)


class TestCooProperties:
    """The blocked writer, the chunked reader and the sorted-input fast path
    against the per-line writer and the sort path."""

    @COO_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), ndim=st.integers(2, 4),
           nnz=st.integers(0, 25), block_rows=st.integers(1, 4))
    def test_round_trip_and_per_line_bytes(self, seed, ndim, nnz, block_rows):
        t = SparseCountTensor.from_arrays(*random_coo_arrays(seed, ndim, nnz))
        with tempfile.TemporaryDirectory() as tmp:
            path, oracle = Path(tmp) / "t.coo", Path(tmp) / "oracle.coo"
            with mock.patch.object(sparse_tensor, "_WRITE_BLOCK_ROWS", block_rows):
                write_coo(t, path)
            per_line_write_coo(t, oracle)
            assert path.read_bytes() == oracle.read_bytes()
            back = read_coo(path)
        assert back.shape == t.shape
        np.testing.assert_array_equal(back.subs0, t.subs0)
        np.testing.assert_array_equal(back.vals, t.vals)
        assert back.subs0.shape == (t.nnz, ndim)

    @COO_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), ndim=st.integers(2, 4),
           nnz=st.integers(0, 25))
    def test_from_arrays_ignores_row_order(self, seed, ndim, nnz):
        dims, subs, vals = random_coo_arrays(seed, ndim, nnz)
        order = np.lexsort(subs.T[::-1])
        shuffled = SparseCountTensor.from_arrays(dims, subs, vals)
        ordered = SparseCountTensor.from_arrays(dims, subs[order], vals[order])
        np.testing.assert_array_equal(shuffled.subs0, ordered.subs0)
        np.testing.assert_array_equal(shuffled.vals, ordered.vals)
        if subs.shape[0] == 0:
            return
        # One duplicated row, then one out-of-range row: each input order
        # must raise the same error with the same message.
        dup_subs = np.vstack([subs, subs[-1:]])
        dup_vals = np.append(vals, 1)
        bad_subs = subs.copy()
        bad_subs[-1, -1] = dims[-1] + 1
        for err, (s, v) in ((DuplicateIndexError, (dup_subs, dup_vals)),
                            (IndexOutOfRangeError, (bad_subs, vals))):
            sort = np.lexsort(s.T[::-1])
            messages = []
            for rows in (np.arange(s.shape[0]), sort):
                with pytest.raises(err) as info:
                    SparseCountTensor.from_arrays(dims, s[rows], v[rows])
                messages.append(str(info.value))
            assert messages[0] == messages[1]

    def test_huge_shape_sorts_without_overflow(self):
        # A raveled cell index would overflow int64 here.
        dims = (2**40, 2**40, 2**40)
        subs = np.array([[2**40, 1, 5], [1, 2**40, 2**40], [2**40, 1, 4]])
        t = SparseCountTensor.from_arrays(dims, subs, [1, 2, 3])
        np.testing.assert_array_equal(t.subs0 + 1, subs[[1, 2, 0]])
        with pytest.raises(DuplicateIndexError, match=r"\(1, 1099511627776,"):
            SparseCountTensor.from_arrays(dims, subs[[1, 0, 1]], [1, 2, 3])

    def test_lexsort_runs_matches_unique(self, rng):
        columns = [rng.integers(0, 3, size=200, dtype=np.uint8)
                   for _ in range(3)]
        order, starts = lexsort_runs(columns)
        subs0 = np.stack(columns, axis=1)
        cells, counts = np.unique(subs0, axis=0, return_counts=True)
        np.testing.assert_array_equal(subs0[order[starts]], cells)
        np.testing.assert_array_equal(np.diff(starts, append=200), counts)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(),
           tops=st.lists(st.sampled_from([1, 255, 256, 65_535, 65_536,
                                          2**32 - 1, 2**32, 2**40]),
                         min_size=2, max_size=4),
           rows=st.integers(0, 60), distinct=st.integers(1, 8))
    def test_lexsort_runs_matches_unique_at_every_key_width(self, data, tops,
                                                            rows, distinct):
        # One list of columns that mixes uint8, uint16, uint32 and uint64
        # keys, each the dtype a tensor keeps for indices up to its top;
        # drawing from a few values per column makes duplicate rows.
        pool = [data.draw(st.lists(st.integers(0, top), min_size=1,
                                   max_size=distinct)) + [top]
                for top in tops]
        subs0 = np.array(
            [[data.draw(st.sampled_from(values)) for values in pool]
             for _ in range(rows)], dtype=np.int64).reshape(rows, len(tops))
        if rows:
            subs0[data.draw(st.integers(0, rows - 1))] = tops
        columns = [column.astype(np.min_scalar_type(top))
                   for column, top in zip(subs0.T, tops)]
        order, starts = lexsort_runs(columns)
        cells, counts = np.unique(subs0, axis=0, return_counts=True)
        np.testing.assert_array_equal(order, np.lexsort(subs0.T[::-1]))
        np.testing.assert_array_equal(subs0[order[starts]], cells)
        np.testing.assert_array_equal(np.diff(starts, append=rows), counts)

    @pytest.mark.parametrize("rows", [[], [[2**40, 0, 70_000]]])
    def test_lexsort_runs_on_zero_rows_and_one_row(self, rows):
        subs0 = np.array(rows, dtype=np.int64).reshape(len(rows), 3)
        columns = [column.astype(dtype) for column, dtype in
                   zip(subs0.T, (np.uint64, np.uint8, np.uint32))]
        order, starts = lexsort_runs(columns)
        np.testing.assert_array_equal(order, np.arange(len(rows)))
        np.testing.assert_array_equal(starts, np.arange(len(rows)))

    @pytest.mark.parametrize("body", [
        "1 1\n1 4\n",
        "1 1 1\n4\n",
        "1 2 1 3\n1 1\n1 4\n",
    ])
    def test_entry_split_across_lines_is_rejected(self, tmp_path, body):
        path = tmp_path / "split.coo"
        path.write_text("3 2 2 2\n" + body)
        with pytest.raises(ValueError) as info:
            read_coo(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_undecodable_bytes_keep_the_path(self, tmp_path):
        path = tmp_path / "binary.coo"
        path.write_bytes(b"3 2 2 2\n1 1 1 \xff\n")
        with pytest.raises(ValueError) as info:
            read_coo(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("body, message", [
        ("1 1 1\n1 x 2\n", "line 3: 'x' is not an int64 integer"),
        ("1 1 1\n1 2\n", "line 3: entries must have 2 indices plus a count, "
                           "got 2 fields"),
        ("1 1 1\n\n  \n1 2 1 4\n", "line 5: entries must have 2 indices"),
        ("1 1 1 1\n2 2 2 2\n", "line 2: entries must have 2 indices"),
        ("1 1 1\n2 2 99999999999999999999\n",
         "line 3: '99999999999999999999' is not an int64 integer"),
    ])
    def test_malformed_line_is_named_by_file_line(self, tmp_path, body,
                                                  message):
        path = tmp_path / "bad.coo"
        path.write_text("2 3 3\n" + body)
        with pytest.raises(ValueError) as info:
            read_coo(path)
        assert str(info.value).startswith(f"{path}: {message}")
        assert "usecols" not in str(info.value)

    def test_header_dimension_beyond_int64_is_value_error(self, tmp_path):
        path = tmp_path / "huge.coo"
        path.write_text("2 99999999999999999999 3\n1 1 1\n")
        with pytest.raises(ValueError, match=r"dimensions must not exceed"):
            read_coo(path)
        with pytest.raises(ValueError):
            Shape((2**63, 3))
        assert Shape((2**63 - 1, 3)).dims == (2**63 - 1, 3)

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("\n \n\t\n", "empty file"),
        ("3 2 2\n1 1 1 1\n", "header declares 3 modes but lists 2 dimensions"),
    ])
    def test_bad_header_is_value_error(self, tmp_path, text, message):
        path = tmp_path / "bad.coo"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_coo(path)
        assert str(info.value) == f"{path}: {message}"

    def test_counts_are_owned_not_a_view_of_the_parsed_body(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("3 2 2 2\n1 1 1 3\n1 2 1 4\n2 2 2 5\n")
        t = read_coo(path)
        assert t.vals.flags.c_contiguous and t.vals.flags.owndata
        assert t.subs0.flags.c_contiguous and t.subs0.flags.owndata
        np.testing.assert_array_equal(t.vals, [3, 4, 5])

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "blank.coo"
        path.write_text("2 3 3\n\n  \n2 1 4\n\n1\t3   2\n")
        t = read_coo(path)
        assert list(t.entries()) == [((1, 3), 2), ((2, 1), 4)]
        path.write_text("2 3 3\n \n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as loadtxt warns on no data
            assert read_coo(path).nnz == 0

    @pytest.mark.parametrize("leading", ["\n", " \n\t\n\n"])
    def test_blank_lines_before_the_header_are_skipped(self, tmp_path,
                                                       leading):
        path = tmp_path / "lead.coo"
        path.write_text(leading + "3 2 2 2\n1 1 1 1\n")
        t = read_coo(path)
        assert t.shape.dims == (2, 2, 2)
        assert list(t.entries()) == [((1, 1, 1), 1)]

    def test_line_numbers_count_blank_lines_before_the_header(self, tmp_path):
        path = tmp_path / "lead.coo"
        path.write_text(" \n\n2 3 3\n1 1 1\n\n1 x 2\n")
        with pytest.raises(ValueError) as info:
            read_coo(path)
        assert str(info.value) == f"{path}: line 6: 'x' is not an int64 integer"
