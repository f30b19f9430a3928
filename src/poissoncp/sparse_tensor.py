"""Sparse N-way count tensors in coordinate (COO) form.

Indices are 1-based in all public interfaces and in the text file format,
matching common tensor toolkit conventions.  Internally subscripts are held
0-based for direct use as numpy indices.  Entries are kept sorted
lexicographically by multi-index so that grouping and file output are
deterministic.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
import pickle
import re
import signal
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    _INT64_MAX,
    DuplicateIndexError,
    IndexOutOfRangeError,
    NonpositiveCountError,
    is_integral,
    prefixed,
)

__all__ = [
    "Shape",
    "SparseCountTensor",
    "ModeLayout",
    "as_shape",
    "mode_column_index",
    "read_coo",
    "write_coo",
]


@dataclass(frozen=True)
class Shape:
    """Tensor dimensions (I_1, ..., I_N) with N >= 2 and every I_n >= 1."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not all(map(is_integral, self.dims)):
            raise ValueError(f"dimensions must be integers, got {self.dims}")
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 2:
            raise ValueError(f"need at least 2 modes, got {len(dims)}")
        if any(d < 1 for d in dims):
            raise ValueError(f"all dimensions must be >= 1, got {dims}")
        if any(d > _INT64_MAX for d in dims):
            raise ValueError(f"dimensions must not exceed {_INT64_MAX}, got {dims}")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return math.prod(self.dims)


def as_shape(shape) -> Shape:
    """Coerce a Shape or a sequence of dimensions into a Shape."""
    return shape if isinstance(shape, Shape) else Shape(tuple(shape))


def _check_mode(shape: Shape, mode: int) -> None:
    """Raise IndexOutOfRangeError unless ``mode`` is an integer, numpy's
    included but not a bool, from 1 to the number of modes."""
    if (isinstance(mode, bool) or not isinstance(mode, numbers.Integral)
            or not 1 <= mode <= shape.ndim):
        raise IndexOutOfRangeError(
            f"mode {mode} out of range for a {shape.ndim}-way tensor"
        )


def _one_based(columns, row: int, base: int = 0) -> tuple[int, ...]:
    """Row ``row`` of ``base``-based index columns as a tuple of plain
    1-based ints, for messages."""
    return tuple(int(column[row]) + 1 - base for column in columns)


def _integral(name: str, values) -> np.ndarray:
    """``values`` as an array of integers within int64, in its own dtype:
    signed integers pass, and unsigned integers and floats pass when all
    are integral and within int64; anything else, such as a boolean that
    numpy would turn into an integer beside other numbers, raises
    ValueError naming ``name``."""
    array = np.asarray(values)
    kind = array.dtype.kind
    if not isinstance(values, np.ndarray) and any(
            isinstance(v, (bool, np.bool_))
            for v in np.asarray(values, dtype=object).flat):
        kind = "b"
    if (kind == "i" or kind == "u" and array.max(initial=0) <= _INT64_MAX
            or kind == "f" and ((np.abs(array) < 2.0**63)
                                & (array == np.trunc(array))).all()):
        return array
    dtype = "bool" if kind == "b" else array.dtype
    raise ValueError(f"{name} must be integers within int64, got {dtype} "
                     "values that are not")


def _narrowed(shape: Shape, subs: np.ndarray, vals: np.ndarray,
              one_based: bool):
    """``(columns, counts)`` of ``(nnz, N)`` integer subscripts and
    ``(nnz,)`` integer counts: one 0-based index column per mode, and the
    counts, each a new array in the narrowest unsigned dtype that holds its
    values.  The checks go a column at a time: an index outside ``shape``
    raises IndexOutOfRangeError, and otherwise a count below 1 raises
    NonpositiveCountError, each naming the first such row."""
    base = 1 if one_based else 0
    outside = np.zeros(vals.shape[0], dtype=bool)
    for k, d in enumerate(shape.dims):
        outside |= subs[:, k] < base
        outside |= subs[:, k] > min(d - 1 + base, _INT64_MAX)
    if outside.any():
        raise IndexOutOfRangeError(
            f"index {_one_based(subs.T, np.argmax(outside), base)} outside "
            f"shape {shape.dims}")
    if (vals < 1).any():
        bad = np.argmax(vals < 1)
        raise NonpositiveCountError(
            f"count {int(vals[bad])} at index {_one_based(subs.T, bad, base)} "
            "is not positive")
    columns = [(subs[:, k] - 1 if one_based else subs[:, k]).astype(
        np.min_scalar_type(d - 1)) for k, d in enumerate(shape.dims)]
    return columns, vals.astype(np.min_scalar_type(int(vals.max(initial=0))))


def _strictly_increasing(columns) -> bool:
    """True when the rows of the index columns are strictly increasing in
    lexicographic order, which also rules out duplicates.  Each pair of
    neighbouring rows is decided by its first column that differs; only
    boolean temporaries are made."""
    tied = np.ones(max(columns[0].shape[0] - 1, 0), dtype=bool)
    for col in columns:
        if (tied & (col[1:] < col[:-1])).any():
            return False
        tied &= col[1:] == col[:-1]
    return not tied.any()


def lexsort_runs(columns):
    """Sort rows of index columns lexicographically and find the runs of
    equal rows.

    Returns (order, starts): the rows taken in ``order`` are sorted with the
    first column varying slowest, and ``starts`` holds the positions in
    that order where a row differs from the one before, so distinct row k
    spans ``starts[k]:starts[k + 1]``.  Callers pass the tensor's narrow
    columns, each in the unsigned dtype that holds its mode's indices, and
    numpy sorts keys of up to 16 bits by radix.  Only comparisons are used,
    so no shape is too large.
    """
    order = np.lexsort(columns[::-1])
    new = np.zeros(order.shape[0], dtype=bool)
    new[:1] = True
    for column in columns:
        ordered = np.take(column, order)
        new[1:] |= ordered[1:] != ordered[:-1]
    return order, np.flatnonzero(new)


@dataclass(frozen=True)
class SparseCountTensor:
    """COO tensor of strictly positive integer counts; zeros are implicit.

    The nonzeros are sorted lexicographically by multi-index and stored as
    narrow, read-only columns, in the narrowest unsigned dtype that holds
    their values: for a 3-mode tensor with dimensions up to 65,536 and
    counts below 256, 7 bytes per nonzero.

    Attributes
    ----------
    shape:
        Tensor dimensions.
    columns:
        One (nnz,) array of 0-based indices per mode, each in the dtype
        ``np.min_scalar_type(I_n - 1)``.
    counts:
        (nnz,) array of strictly positive counts, in the dtype
        ``np.min_scalar_type`` of the largest.
    """

    shape: Shape
    columns: tuple[np.ndarray, ...] = field(repr=False)
    counts: np.ndarray = field(repr=False)
    _layouts: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)  # mode -> mode_row_positions
    _pool: "RowRangePool | None" = field(default=None, init=False,
                                         repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "shape", as_shape(self.shape))
        object.__setattr__(self, "columns", tuple(self.columns))
        # Read-only: a kept layout was copied from them, or is them.
        for array in (*self.columns, self.counts):
            array.setflags(write=False)

    @classmethod
    def from_entries(cls, shape, entries) -> "SparseCountTensor":
        """Validate and build a tensor from ((i_1, ..., i_N), count) pairs.

        Indices are 1-based.  Raises IndexOutOfRangeError,
        DuplicateIndexError, or NonpositiveCountError on bad input, and
        ValueError on an index or count that is not an integer.
        """
        shape = as_shape(shape)
        entries = list(entries)
        subs = [e[0] for e in entries]
        if len({np.shape(sub) for sub in subs}) > 1:
            raise IndexOutOfRangeError(
                f"multi-indices must have {shape.ndim} components")
        return cls.from_arrays(shape, subs, [e[1] for e in entries])

    @classmethod
    def from_arrays(cls, shape, subs, vals, one_based: bool = True):
        """Validate and build a tensor from subscript and count arrays.

        ``subs`` must have shape ``(len(vals), N)``: IndexOutOfRangeError
        when its rows are not N-component multi-indices, ValueError when
        their number differs from the number of counts.  Indices and counts
        must be integers (integral floats convert exactly); a boolean,
        fractional or non-finite one raises ValueError.  Range and sign are
        checked a column at a time, and each column is narrowed on its own,
        so no int64 copy of ``subs`` is made.  Rows already strictly
        increasing in lexicographic order, as :func:`write_coo` writes them,
        skip the sort.  The tensor owns new arrays, which share no memory
        with ``subs`` or ``vals``.
        """
        shape = as_shape(shape)
        subs = _integral("indices", subs)
        vals = _integral("counts", vals).reshape(-1)
        if subs.ndim != 2 or subs.shape[1] != shape.ndim:
            if subs.size or vals.size:
                raise IndexOutOfRangeError(
                    f"multi-indices must have {shape.ndim} components")
            subs = subs.reshape(0, shape.ndim)
        if subs.shape[0] != vals.shape[0]:
            raise ValueError("subscript and count arrays disagree in length")
        return cls._from_columns(shape, *_narrowed(shape, subs, vals,
                                                   one_based))

    @classmethod
    def _from_columns(cls, shape: Shape, columns, counts):
        """The tensor of validated narrow columns and counts, sorted unless
        their rows are already strictly increasing; DuplicateIndexError
        names the smallest repeated multi-index."""
        if _strictly_increasing(columns):
            return cls(shape, columns, counts)
        order, starts = lexsort_runs(columns)
        columns = [np.take(column, order) for column in columns]
        repeated = np.flatnonzero(np.diff(starts, append=order.shape[0]) > 1)
        if repeated.size:
            raise DuplicateIndexError(
                f"duplicate index {_one_based(columns, starts[repeated[0]])}")
        return cls(shape, columns, np.take(counts, order))

    @property
    def subs0(self) -> np.ndarray:
        """(nnz, N) int64 array of the 0-based subscripts, sorted
        lexicographically: a new read-only array, filled from the columns
        on each call."""
        subs0 = np.stack(self.columns, axis=1, dtype=np.int64)
        subs0.setflags(write=False)
        return subs0

    @property
    def vals(self) -> np.ndarray:
        """(nnz,) int64 array of the counts: a new read-only array, widened
        from ``counts`` on each call."""
        vals = self.counts.astype(np.int64)
        vals.setflags(write=False)
        return vals

    @property
    def ndim(self) -> int:
        return self.shape.ndim

    @property
    def nnz(self) -> int:
        return int(self.counts.shape[0])

    def entries(self):
        """Iterate ((i_1, ..., i_N), count) pairs with 1-based indices."""
        for sub, val in zip(self.subs0, self.vals):
            yield tuple(int(s) + 1 for s in sub), int(val)

    def total_count(self) -> int:
        """Sum of all counts, exact: counts below 2**32 add up in uint64,
        which fewer than 2**32 of them cannot overflow, and wider ones as
        Python ints."""
        wide = self.counts.dtype.itemsize == 8
        return int(self.counts.sum(dtype=object if wide else np.uint64))

    def density(self) -> float:
        """Fraction of cells holding a nonzero count."""
        return self.nnz / self.shape.size


def mode_column_index(shape, mode: int, multi_index) -> int:
    """Column of the mode-n unfolding holding the given 1-based multi-index.

    Uses the standard unfolding order in which the lowest remaining mode
    varies fastest:  j = 1 + sum_{k != n} (i_k - 1) * prod_{m < k, m != n} I_m.
    """
    shape = as_shape(shape)
    _check_mode(shape, mode)
    idx = tuple(int(i) for i in multi_index)
    if len(idx) != shape.ndim:
        raise IndexOutOfRangeError(
            f"multi-index must have {shape.ndim} components, got {len(idx)}"
        )
    j = 0
    stride = 1
    for k, (i, d) in enumerate(zip(idx, shape.dims), start=1):
        if not 1 <= i <= d:
            raise IndexOutOfRangeError(f"index {i} out of range for mode {k}")
        if k != mode:
            j += (i - 1) * stride
            stride *= d
    return j + 1


# Gathered doubles per block of a mode layout: 128 KiB, which stays in
# cache and below glibc's mmap threshold, so a block neither spills to
# memory nor raises the peak RSS.
BLOCK_DOUBLES = 16384


@dataclass(frozen=True)
class ModeLayout:
    """A tensor's nonzeros grouped by mode-n row, built once per tensor.

    The row order lists the nonzeros sorted by row, stably, so each row
    keeps its entries in COO order; nonempty row ``k`` has the 0-based id
    ``rows[k]`` and spans ``starts[k]:starts[k + 1]`` of the row order.
    ``columns`` holds the subscripts of every other mode, in mode order,
    and ``vals`` the counts, each in row order and in the narrowest
    unsigned dtype that holds its values: for a 3-mode tensor with
    dimensions up to 65,536 and counts below 256, 5 bytes per nonzero.
    The leading mode's layout takes them from the tensor, whose nonzeros
    are already in that mode's row order, and costs nothing beyond it;
    every other mode's holds copies.
    :meth:`blocks` walks the rows in blocks whose gathered Khatri-Rao rows
    fit in cache, and :func:`block_rows` splits a block into its rows.
    """

    columns: tuple[np.ndarray, ...] = field(repr=False)
    vals: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    starts: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    @property
    def nnz(self) -> int:
        """Nonzeros in the layout's rows."""
        return int(self.starts[-1] - self.starts[0])

    def blocks(self, rank: int, gather):
        """Yield ``(rows, counts, x, pi)`` per block of consecutive nonempty
        rows, in row order: the rows' ids, their numbers of nonzeros, and
        the block's counts as floats and ``(J, R)`` Khatri-Rao rows, row
        after row.

        ``gather(columns)`` returns the Khatri-Rao rows of one block from
        its slices of the index columns.  A block holds at most
        ``BLOCK_DOUBLES // rank`` nonzeros unless it is a single longer row.
        """
        limit = max(BLOCK_DOUBLES // rank, 1)
        starts = self.starts
        k0 = 0
        while k0 < len(self):
            k1 = int(np.searchsorted(starts, starts[k0] + limit, side="right")) - 1
            k1 = max(k1, k0 + 1)
            a, b = int(starts[k0]), int(starts[k1])
            yield (self.rows[k0:k1], np.diff(starts[k0:k1 + 1]),
                   self.vals[a:b].astype(np.float64),
                   gather(tuple(col[a:b] for col in self.columns)))
            k0 = k1

    def parts(self, n: int) -> list["ModeLayout"]:
        """At most ``n`` layouts of consecutive rows, in row order, with
        about equal nonzeros; together they hold every row once.  They share
        ``columns`` and ``vals``, which ``starts`` index absolutely, so
        their blocks split into the same rows, ``x`` and ``pi`` as this
        layout's."""
        k = len(self)
        if n <= 1 or k <= 1:
            return [self]
        cuts = np.searchsorted(self.starts[:k],
                               self.starts[0] + self.nnz * np.arange(1, n) / n)
        # Non-decreasing, so dict.fromkeys drops repeats as np.unique would,
        # without np.unique's import of numpy.ma (1.2 MB of peak RSS).
        bounds = list(dict.fromkeys([0, *np.clip(cuts, 1, k - 1).tolist(), k]))
        return [ModeLayout(self.columns, self.vals, self.rows[a:b],
                           self.starts[a:b + 1])
                for a, b in zip(bounds[:-1], bounds[1:])]


def block_rows(rows, counts, x, pi, keep=None):
    """Yield ``(row0, x, pi)`` per row of one :meth:`ModeLayout.blocks`
    block, in row order: the row's counts as floats and its ``(R, J)``
    Khatri-Rao columns, views into the block's arrays; only the rows where
    the boolean array ``keep`` is set, when given."""
    bounds = [0, *np.cumsum(counts).tolist()]
    spans = zip(rows.tolist(), bounds[:-1], bounds[1:])
    if keep is not None:
        spans = itertools.compress(spans, keep.tolist())
    for row0, lo, hi in spans:
        yield row0, x[lo:hi], pi[lo:hi].T


# Nonempty rows a mode needs before its row solves go to more than one
# CPU.  Within a fit a split costs one pipe round trip to the pool's child,
# 0.1 ms with the README model and 0.3 ms with cli-large's (a fork took
# about 3 ms).  On a 2-CPU Xeon, medians of 9 alternating solves from the
# models after 0, 1, 5 and 20 sweeps, serial against split: the README
# tensor's 20-row mode took 14-36 against 8-25 ms with pqnr, faster every
# time, and 2.5-7.6 against 2.9-8.2 ms with pdnr, faster twice; its 30-
# and 40-row modes split faster in 13 of 16.  Modes of 4 to 16 rows cut
# from it never split faster, though those runs fell in spells when the
# host ran two busy processes at half speed each, when no split pays.
PARALLEL_MIN_ROWS = 20

# Work, in element-updates (nonzeros x R x passes), a multiplicative mode
# solve needs before it goes to more than one CPU.  One costs about 8 ns,
# and a row may hold 1 nonzero or 3,000, so a row count says little.  On a
# 2-CPU Xeon, from the init model, medians of 7 per mode, split against
# serial: short-rows' 3.3 M took 18-23 ms against 16-21 ms; 6.6 M took
# 37-41 ms against 34-64 ms; 9.9 M took 48-57 ms against 59-82 ms; and
# cli-large's 54 M took 228-241 ms against 294-337 ms.
PARALLEL_MIN_WORK = 8_000_000


def _allowed_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def map_row_ranges(tensor: SparseCountTensor, mode: int, out: np.ndarray,
                   fn, args=(), calls=(), work=None) -> list:
    """``fn(part, *args)`` for each of ``parts = layout.parts(n)`` of the
    mode's layout, in part order; returns their side results.

    ``fn`` is a module-level function, and ``args`` pickle: a child gets
    them by pipe.  ``fn(part, *args)`` returns ``(rows, result)``: the
    part's rows of ``out``, in ``part.rows`` order, which are copied in,
    and a side result.  ``n`` is the number of allowed CPUs when the layout
    is worth splitting, else 1: when the caller passes an estimate of the
    whole layout's ``work``, it must reach ``PARALLEL_MIN_WORK``; otherwise
    the layout must have ``PARALLEL_MIN_ROWS`` rows.  The calling process
    computes the first part, and children of a :class:`RowRangePool` the
    others: the pool open on ``tensor``, or else one made for this call and
    closed before it returns.  If a fork or a pipe fails, the caller
    computes the remaining parts itself.  When the caller raises, the
    pool's children are killed and reaped.  A child's exception is raised
    again here; a child that ends without a result raises
    ChildProcessError.

    ``calls`` lists the functions ``fn`` looks up by module name.  When one
    of them is not this package's own, as when a profiler or a test has
    wrapped it to record its calls, ``n`` is 1, even on an open pool: what
    a wrapper records in a child would die with the child.
    """
    layout = mode_row_positions(tensor, mode)
    unwrapped = all(getattr(f, "__module__", "").startswith(f"{__package__}.")
                    for f in calls)
    worth = (len(layout) >= PARALLEL_MIN_ROWS if work is None
             else work >= PARALLEL_MIN_WORK)
    n = _allowed_cpus() if unwrapped and worth else 1
    if tensor._pool is not None:
        return tensor._pool._map(mode, n, out, fn, args)
    with RowRangePool(tensor) as pool:
        return pool._map(mode, n, out, fn, args)


class RowRangePool:
    """Forked children that solve row ranges of one tensor's modes, made
    on the first split and kept until the pool closes.

    While the pool is open, as a context manager, every
    :func:`map_row_ranges` call on its tensor runs on it, so a split costs
    one pipe round trip instead of one fork; no other pool opens on the
    tensor meanwhile.  It forks at most ``_allowed_cpus() - 1`` children,
    each when a split first needs it.  A child blocks reading its own task
    pipe; for each task it resolves ``mode_row_positions(tensor,
    mode).parts(n)[k]``, runs ``fn(part, *args)`` and sends back the
    pickled outcome, and it exits at end of file.  A child holds no pipe
    end but its own.  Once a fork or a pipe is refused the pool forks no
    more, and the caller solves the ranges a child would have.  Leaving
    the block closes the task pipes and reaps every child, killing them
    first when the block raises.
    """

    def __init__(self, tensor: SparseCountTensor):
        self.tensor = tensor
        self._children = []  # (pid, task writer, result reader), by part
        self._can_fork = True

    def __enter__(self):
        object.__setattr__(self.tensor, "_pool", self)
        return self

    def __exit__(self, exc_type, exc, tb):
        object.__setattr__(self.tensor, "_pool", None)
        self._close(kill=exc_type is not None)

    def _map(self, mode: int, n: int, out: np.ndarray, fn, args) -> list:
        parts = mode_row_positions(self.tensor, mode).parts(n)
        while len(self._children) < len(parts) - 1 and self._can_fork:
            self._can_fork = self._fork()
        busy = self._children[:len(parts) - 1]
        try:
            for k, (_, tasks, _) in enumerate(busy, 1):
                data = pickle.dumps((fn, mode, n, k, args),
                                    pickle.HIGHEST_PROTOCOL)
                try:
                    tasks.write(data)
                    tasks.flush()
                except OSError:
                    raise ChildProcessError(
                        "a row-range worker ended before its task") from None
            own = [fn(part, *args)
                   for part in (parts[0], *parts[1 + len(busy):])]
            outcomes = [_receive(results) for _, _, results in busy]
        except BaseException:
            self._close(kill=True)
            raise
        for ok, value in outcomes:
            if not ok:
                raise value
        done = [own[0], *(value for _, value in outcomes), *own[1:]]
        for part, (rows, _) in zip(parts, done):
            out[part.rows] = rows
        return [result for _, result in done]

    def _fork(self) -> bool:
        """Fork one more child; False when no pipe or child can be made."""
        ends = []
        try:
            ends.extend(os.pipe())  # tasks: read end, write end
            ends.extend(os.pipe())  # results: read end, write end
            pid = os.fork()
        except OSError:
            for fd in ends:
                os.close(fd)
            return False
        task_read, task_write, result_read, result_write = ends
        if pid == 0:  # the child never returns into the caller
            status = 1
            try:
                for _, tasks, results in self._children:
                    tasks.close()
                    results.close()
                os.close(task_write)
                os.close(result_read)
                with open(task_read, "rb") as tasks, \
                        open(result_write, "wb") as results:
                    _serve(self.tensor, tasks, results)
                status = 0
            finally:
                os._exit(status)
        os.close(task_read)
        os.close(result_write)
        self._children.append((pid, open(task_write, "wb"),
                               open(result_read, "rb")))
        return True

    def _close(self, kill: bool) -> None:
        """Close every child's pipes and reap it, killing it first when
        ``kill`` is set; a later split forks anew."""
        children, self._children = self._children, []
        for pid, tasks, results in children:
            if kill:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:  # as under SIGCHLD = SIG_IGN
                    pass
            for pipe in (tasks, results):
                try:
                    pipe.close()
                except OSError:  # a task the child never read
                    pass
        for pid, _, _ in children:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped, as under SIGCHLD = SIG_IGN
                pass


def _serve(tensor: SparseCountTensor, tasks, results) -> None:
    """A pool child's loop: read a task, send back the pickled ``(True,
    (rows, result))`` of its range, or ``(False, exception)``; return at
    end of file."""
    while True:
        try:
            fn, mode, n, k, args = pickle.load(tasks)
        except EOFError:
            return
        part = mode_row_positions(tensor, mode).parts(n)[k]
        try:
            outcome = (True, fn(part, *args))
        except Exception as exc:
            outcome = (False, exc)
        pickle.dump(outcome, results, pickle.HIGHEST_PROTOCOL)
        results.flush()


def _receive(results):
    """The outcome a child sent; ChildProcessError when it ended without a
    complete one."""
    try:
        return pickle.load(results)
    except (EOFError, pickle.UnpicklingError):
        raise ChildProcessError(
            "a row-range worker ended without a result") from None


def mode_row_positions(tensor: SparseCountTensor, mode: int) -> ModeLayout:
    """Group the tensor's nonzeros by their mode-n row into a ModeLayout,
    rows in increasing order, once: the tensor keeps it for later calls.
    The row counts take one integer per row up to the last nonempty one,
    less than the mode's factor matrix.  When the mode's column is already
    non-decreasing, as the leading mode's always is in a tensor sorted
    lexicographically, the nonzeros are in row order: the layout's
    ``columns`` and ``vals`` are the tensor's own read-only arrays, with no
    copy.  Otherwise the tensor's columns and counts are sorted and
    permuted into copies in their own narrow dtypes, so the stable sort of
    a mode of at most 65,536 rows runs as a radix sort."""
    _check_mode(tensor.shape, mode)
    if mode in tensor._layouts:
        return tensor._layouts[mode]
    column = tensor.columns[mode - 1]
    # bincount takes no uint64; it would make this intp copy itself.
    counts = np.bincount(column.astype(np.intp, copy=False))
    rows = np.flatnonzero(counts)
    columns = tuple(c for k, c in enumerate(tensor.columns) if k != mode - 1)
    vals = tensor.counts
    if (column[1:] < column[:-1]).any():
        order = np.argsort(column, kind="stable")
        columns = tuple(np.take(c, order) for c in columns)
        vals = np.take(vals, order)
    layout = tensor._layouts[mode] = ModeLayout(
        columns, vals, rows, np.concatenate(([0], np.cumsum(counts[rows]))))
    return layout


# Characters of COO text parsed at a time, cut at a newline: a block's
# temporaries stay a few MB whatever the size of the file.
_READ_BLOCK_CHARS = 1 << 20


def read_coo(path) -> SparseCountTensor:
    """Read a tensor from the COO text format.

    The first non-blank line is ``N I_1 ... I_N``; each following line is
    one nonzero ``i_1 ... i_N count`` with 1-based indices, whitespace
    separated; blank lines are skipped everywhere.  The body is parsed in
    blocks of whole lines, and each block's 1-based indices and counts are
    checked as read, then narrowed into 0-based columns before it is kept,
    so no int64 copy of the whole body is made and an index is named in
    errors as the file gives it.
    Malformed or invalid data, including a line with the wrong number of
    fields, raises ValueError (or the validation error subclass) with a
    message that starts with the path; a malformed line is named by its
    1-based line number in the file.  A malformed line anywhere is reported
    before an invalid shape, an out-of-range index before a count below 1,
    and those before a duplicate multi-index.
    """
    with open(path) as fh:
        try:
            return _parse_coo(fh)
        except ValueError as exc:
            raise prefixed(path, exc) from exc


def _parse_coo(fh) -> SparseCountTensor:
    for header_number, line in enumerate(iter(fh.readline, ""), start=1):
        header = line.split()
        if header:
            break
    else:
        raise ValueError("empty file")
    n = int(header[0])
    if len(header) != n + 1:
        raise ValueError(f"header declares {n} modes but lists "
                         f"{len(header) - 1} dimensions")
    dims = tuple(int(d) for d in header[1:])
    errors = {}  # kind -> its first error, raised once every line parses
    try:
        shape = Shape(dims)
    except ValueError as exc:
        errors[ValueError] = exc
    parts = [[] for _ in range(n + 1)]  # per column, its blocks' arrays
    number = header_number + 1  # the file line number of a block's first
    while True:
        text = fh.read(_READ_BLOCK_CHARS)
        if text and text[-1] != "\n":
            text += fh.readline()
        block = _parse_block(text, n, number)
        number += text.count("\n")
        # Later blocks may still hold a malformed line, or an index out of
        # range that is reported before a count below 1.
        if ValueError not in errors and IndexOutOfRangeError not in errors:
            try:
                columns, counts = _narrowed(shape, block[:, :n], block[:, n],
                                            one_based=True)
            except (IndexOutOfRangeError, NonpositiveCountError) as exc:
                errors.setdefault(type(exc), exc)
            else:
                for part, column in zip(parts, (*columns, counts)):
                    part.append(column)
        if not text:
            break
        del text, block  # before the next block is read
    for kind in (ValueError, IndexOutOfRangeError, NonpositiveCountError):
        if kind in errors:
            raise errors[kind]
    for k, part in enumerate(parts):  # frees each column's blocks in turn
        parts[k] = np.concatenate(part)
    return SparseCountTensor._from_columns(shape, parts[:n], parts[n])


_INT_TOKEN = re.compile(r"[+-]?[0-9]+")


def _parse_block(text: str, n: int, first: int) -> np.ndarray:
    """The ``(rows, n + 1)`` int64 entries of whole body lines ``text``,
    the first of them line ``first`` of the file.  numpy parses the block
    when it is ASCII text without signs, every line holds 0 or ``n + 1``
    fields and no value reaches the int64 maximum, where its parser
    saturates; otherwise, or when its parser fails, each line is parsed on
    its own, and the first line that does not hold ``n`` indices plus a
    count of int64 tokens raises a ValueError naming it."""
    try:
        block = _fast_block(text, n)
    except (ValueError, DeprecationWarning):  # numpy 1.x warns on bad text
        block = None
    if block is not None:
        return block
    rows = []
    for number, line in enumerate(text.split("\n"), start=first):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != n + 1:
            raise ValueError(f"line {number}: entries must have {n} indices "
                             f"plus a count, got {len(fields)} fields")
        for token in fields:
            if not (_INT_TOKEN.fullmatch(token)
                    and -_INT64_MAX - 1 <= int(token) <= _INT64_MAX):
                raise ValueError(f"line {number}: {token!r} is not an int64 "
                                 "integer")
        rows.append([int(token) for token in fields])
    return np.array(rows, dtype=np.int64).reshape(len(rows), n + 1)


def _fast_block(text: str, n: int):
    """``_parse_block``'s entries by ``np.fromstring``, or None when it
    cannot vouch for them; raises ValueError on text that is not ASCII or
    that the parser rejects."""
    raw = text.encode("ascii")
    if not raw:
        return np.empty((0, n + 1), dtype=np.int64)
    if b"+" in raw or b"-" in raw:  # the parser reads a lone sign as 0
        return None
    chars = np.frombuffer(raw, dtype=np.uint8)
    lines = np.flatnonzero(chars[:-1] == 10)
    lines += 1
    printable = chars > 32
    starts = printable.copy()  # a field starts after a blank or a line end
    np.greater(printable[1:], printable[:-1], out=starts[1:])
    del printable
    # Fields per line, counted in uint8 to make no wider copy; a count that
    # wraps leaves the total short of the values parsed.
    fields = np.add.reduceat(starts.view(np.uint8),
                             np.concatenate(([0], lines)), dtype=np.uint8)
    del starts, lines
    if not ((fields == 0) | (fields == n + 1)).all():
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        values = np.fromstring(raw, dtype=np.int64, sep=" ")
    if values.shape[0] != fields.sum() or values.max(initial=0) == _INT64_MAX:
        return None
    return values.reshape(-1, n + 1)


# Rows formatted per write: one %-format call each, with bounded transient
# memory.
_WRITE_BLOCK_ROWS = 65536


def write_coo(tensor: SparseCountTensor, path) -> None:
    """Write a tensor in the COO text format read by :func:`read_coo`.

    The columns are widened to int64 one block of rows at a time."""
    line = " ".join(["%d"] * (tensor.ndim + 1)) + "\n"
    with open(path, "w") as fh:
        dims = " ".join(str(d) for d in tensor.shape.dims)
        fh.write(f"{tensor.ndim} {dims}\n")
        for start in range(0, tensor.nnz, _WRITE_BLOCK_ROWS):
            stop = min(start + _WRITE_BLOCK_ROWS, tensor.nnz)
            block = np.empty((stop - start, tensor.ndim + 1), dtype=np.int64)
            for k, column in enumerate(tensor.columns):  # no narrow sum wraps
                np.add(column[start:stop], 1, out=block[:, k], dtype=np.int64)
            block[:, -1] = tensor.counts[start:stop]
            fh.write(line * block.shape[0] % tuple(block.ravel().tolist()))
