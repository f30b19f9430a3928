"""Sparse N-way count tensors in coordinate (COO) form.

Indices are 1-based in all public interfaces and in the text file format,
matching common tensor toolkit conventions.  Internally subscripts are held
0-based for direct use as numpy indices.  Entries are kept sorted
lexicographically by multi-index so that grouping and file output are
deterministic.
"""

from __future__ import annotations

import math
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

    def reduced_size(self, mode: int) -> int:
        """Product of all dimensions except the given 1-based mode."""
        _check_mode(self, mode)
        return math.prod(d for k, d in enumerate(self.dims, start=1) if k != mode)

    def __len__(self) -> int:
        return len(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __getitem__(self, k):
        return self.dims[k]


def as_shape(shape) -> Shape:
    """Coerce a Shape or a sequence of dimensions into a Shape."""
    return shape if isinstance(shape, Shape) else Shape(tuple(shape))


def _check_mode(shape: Shape, mode: int) -> None:
    if not 1 <= mode <= shape.ndim:
        raise IndexOutOfRangeError(
            f"mode {mode} out of range for a {shape.ndim}-way tensor"
        )


def _one_based(sub0) -> tuple[int, ...]:
    """A 0-based subscript row as a tuple of plain 1-based ints, for messages."""
    return tuple(int(i) + 1 for i in sub0)


def _int64_array(name: str, values) -> np.ndarray:
    """``values`` as an int64 array, never truncated: signed integers pass
    through, and unsigned integers and floats convert when all are integral
    and within int64; anything else, such as a boolean that numpy would
    turn into an integer beside other numbers, raises ValueError naming
    ``name``."""
    array = np.asarray(values)
    kind = array.dtype.kind
    if not isinstance(values, np.ndarray) and any(
            isinstance(v, (bool, np.bool_))
            for v in np.asarray(values, dtype=object).flat):
        kind = "b"
    if kind == "i" or kind in "uf" and (
            (np.abs(array) < 2.0**63) & (array == np.trunc(array))).all():
        return array.astype(np.int64, copy=False)
    dtype = "bool" if kind == "b" else array.dtype
    raise ValueError(f"{name} must be integers within int64, got {dtype} "
                     "values that are not")


def _strictly_increasing(subs0: np.ndarray) -> bool:
    """True when the subscript rows are strictly increasing in lexicographic
    order, which also rules out duplicates.  Each pair of neighbouring rows
    is decided by its first column that differs; only boolean temporaries
    are made."""
    tied = np.ones(max(subs0.shape[0] - 1, 0), dtype=bool)
    for col in subs0.T:
        if (tied & (col[1:] < col[:-1])).any():
            return False
        tied &= col[1:] == col[:-1]
    return not tied.any()


def lexsort_runs(subs0: np.ndarray):
    """Sort subscript rows lexicographically and find the runs of equal rows.

    Returns (order, starts): ``subs0[order]`` is sorted with the first
    column varying slowest, and ``starts`` holds the positions in that
    order where a row differs from the one before, so distinct row k spans
    ``starts[k]:starts[k + 1]``.  The subscripts must be nonnegative, as
    the validated 0-based subscripts of every caller are: each column is
    sorted and compared narrowed to the smallest unsigned dtype that holds
    its largest value (a column already of that dtype is used as it is),
    which numpy sorts by radix up to 16 bits.  Only comparisons are used,
    so no shape is too large.
    """
    keys = [col.astype(np.min_scalar_type(int(col.max(initial=0))), copy=False)
            for col in subs0.T]
    order = np.lexsort(keys[::-1])
    new = np.zeros(order.shape[0], dtype=bool)
    new[:1] = True
    for key in keys:
        ordered = np.take(key, order)
        new[1:] |= ordered[1:] != ordered[:-1]
    return order, np.flatnonzero(new)


@dataclass(frozen=True)
class SparseCountTensor:
    """COO tensor of strictly positive integer counts; zeros are implicit.

    Attributes
    ----------
    shape:
        Tensor dimensions.
    subs0:
        (nnz, N) int64 array of 0-based subscripts, sorted lexicographically.
    vals:
        (nnz,) int64 array of strictly positive counts.  Both are read-only.
    """

    shape: Shape
    subs0: np.ndarray = field(repr=False)
    vals: np.ndarray = field(repr=False)
    _layouts: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)  # mode -> mode_row_positions

    def __post_init__(self):
        object.__setattr__(self, "shape", as_shape(self.shape))
        for array in (self.subs0, self.vals):  # the cached layouts copy them
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
        fractional or non-finite one raises ValueError.  Rows already
        strictly increasing in lexicographic order, as :func:`write_coo`
        writes them, skip the sort.  The tensor owns new C-contiguous
        arrays, which share no memory with ``subs`` or ``vals``.
        """
        shape = as_shape(shape)
        subs = _int64_array("indices", subs)
        vals = _int64_array("counts", vals).reshape(-1)
        if subs.ndim != 2 or subs.shape[1] != shape.ndim:
            if subs.size or vals.size:
                raise IndexOutOfRangeError(
                    f"multi-indices must have {shape.ndim} components")
            subs = subs.reshape(0, shape.ndim)
        if subs.shape[0] != vals.shape[0]:
            raise ValueError("subscript and count arrays disagree in length")
        subs0 = subs - 1 if one_based else subs.copy()
        dims = np.asarray(shape.dims, dtype=np.int64)
        if (subs0 < 0).any() or (subs0 >= dims).any():
            bad = np.flatnonzero(((subs0 < 0) | (subs0 >= dims)).any(axis=1))[0]
            raise IndexOutOfRangeError(
                f"index {_one_based(subs0[bad])} outside shape {shape.dims}"
            )
        if (vals <= 0).any():
            bad = np.flatnonzero(vals <= 0)[0]
            raise NonpositiveCountError(
                f"count {vals[bad]} at index {_one_based(subs0[bad])} is not positive"
            )
        if _strictly_increasing(subs0):
            return cls(shape, subs0, vals.copy())
        order, starts = lexsort_runs(subs0)
        subs0 = subs0[order]
        repeated = np.flatnonzero(np.diff(starts, append=subs0.shape[0]) > 1)
        if repeated.size:
            raise DuplicateIndexError(
                f"duplicate index {_one_based(subs0[starts[repeated[0]]])}"
            )
        return cls(shape, subs0, vals[order])

    @property
    def ndim(self) -> int:
        return self.shape.ndim

    @property
    def nnz(self) -> int:
        return int(self.vals.shape[0])

    def entries(self):
        """Iterate ((i_1, ..., i_N), count) pairs with 1-based indices."""
        for sub, val in zip(self.subs0, self.vals):
            yield tuple(int(s) + 1 for s in sub), int(val)

    def total_count(self) -> int:
        """Sum of all counts."""
        return int(self.vals.sum())

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
    :meth:`blocks` walks the rows in blocks whose gathered Khatri-Rao rows
    fit in cache, and :meth:`row_views` splits each block into its rows.
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

    def row_views(self, rank: int, gather):
        """Yield ``(row0, x, pi)`` per nonempty row, in row order: the
        row's counts as floats and its ``(R, J)`` Khatri-Rao columns, views
        into the arrays of its :meth:`blocks` block."""
        for rows, counts, x_blk, pi_blk in self.blocks(rank, gather):
            bounds = [0, *np.cumsum(counts).tolist()]
            for row0, lo, hi in zip(rows.tolist(), bounds[:-1], bounds[1:]):
                yield row0, x_blk[lo:hi], pi_blk[lo:hi].T

    def parts(self, n: int) -> list["ModeLayout"]:
        """At most ``n`` layouts of consecutive rows, in row order, with
        about equal nonzeros; together they hold every row once.  They share
        ``columns`` and ``vals``, which ``starts`` index absolutely, so
        their row views yield the same ``x`` and ``pi`` as this layout's."""
        k = len(self)
        if n <= 1 or k <= 1:
            return [self]
        cuts = np.searchsorted(self.starts[:k],
                               self.starts[0] + self.nnz * np.arange(1, n) / n)
        bounds = np.unique(np.concatenate(([0], np.clip(cuts, 1, k - 1), [k])))
        return [ModeLayout(self.columns, self.vals, self.rows[a:b],
                           self.starts[a:b + 1])
                for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


# Nonempty rows a mode needs before its row solves go to more than one
# CPU.  On a 2-CPU Xeon a forked range adds about 5 ms (fork, copy-on-write
# faults, pickled result, reap): a 20-row mode solve took 12 ms forked
# against 7 ms serially.  A row solve costs 0.05-1 ms, so from 256 rows
# halving the solve repays the fork.
PARALLEL_MIN_ROWS = 256

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


def map_row_ranges(layout: ModeLayout, out: np.ndarray, fn, calls=(),
                   work=None) -> list:
    """``fn(part)`` for each of ``layout.parts(n)``, in part order.

    ``fn(part)`` writes the part's rows of ``out`` and returns a result.
    ``n`` is the number of allowed CPUs when the layout is worth splitting,
    else 1: when the caller passes an estimate of the whole layout's
    ``work``, it must reach ``PARALLEL_MIN_WORK``; otherwise the layout
    must have ``PARALLEL_MIN_ROWS`` rows.  The calling process computes the
    first part; forked children compute the others and send back their
    pickled results and rows of ``out``, which are copied in; all else a
    child writes is lost.  If a fork fails, the caller computes the
    remaining parts itself.  No child outlives the call: the caller reads
    and reaps every child, killing them first when its own part raises.  A
    child's exception is raised again here; a child that ends without a
    result raises ChildProcessError.

    ``calls`` lists the functions ``fn`` looks up by module name.  When one
    of them is not this package's own, as when a profiler or a test has
    wrapped it to record its calls, ``n`` is 1: what a wrapper records in
    a child would die with the child.
    """
    unwrapped = all(getattr(f, "__module__", "").startswith(f"{__package__}.")
                    for f in calls)
    worth = (len(layout) >= PARALLEL_MIN_ROWS if work is None
             else work >= PARALLEL_MIN_WORK)
    n = _allowed_cpus() if unwrapped and worth else 1
    parts = layout.parts(n)
    children = []  # (pid, read end of its pipe) for parts[1:]
    try:
        for part in parts[1:]:
            child = _fork_call(lambda p: (fn(p), out[p.rows]), part)
            if child is None:
                break
            children.append(child)
        own = [fn(part) for part in (parts[0], *parts[1 + len(children):])]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        outcomes = [_reap(pid, fd) for pid, fd in children]
    for outcome in outcomes:
        if outcome is None:
            raise ChildProcessError("a row-range worker ended without a result")
        if not outcome[0]:
            raise outcome[1]
    for part, (_, (_, rows)) in zip(parts[1:], outcomes):
        out[part.rows] = rows
    return [own[0], *(result for _, (result, _) in outcomes), *own[1:]]


def _fork_call(fn, part):
    """Fork a child that sends the pickled ``(True, fn(part))``, or
    ``(False, exception)``, down a pipe and exits; returns ``(pid, read
    fd)``, or None when no pipe or child can be made."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:  # the child never returns into the caller
        status = 1
        try:
            os.close(read_fd)
            try:
                outcome = (True, fn(part))
            except Exception as exc:
                outcome = (False, exc)
            with open(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _reap(pid: int, read_fd: int):
    """Read what the child sent and wait for it to exit; the unpickled
    outcome, or None when it sent no complete one."""
    with open(read_fd, "rb") as pipe:
        data = pipe.read()
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:  # already reaped, as under SIGCHLD = SIG_IGN
        pass
    try:
        return pickle.loads(data)
    except (EOFError, pickle.UnpicklingError):
        return None


def mode_row_positions(tensor: SparseCountTensor, mode: int) -> ModeLayout:
    """Group the tensor's nonzeros by their mode-n row into a ModeLayout,
    rows in increasing order, once: the tensor keeps it for later calls.
    The row counts take one integer per row up to the last nonempty one,
    less than the mode's factor matrix.  Each subscript column, and the
    counts, are narrowed before they are sorted or permuted, which lets the
    stable sort of a mode of at most 65,536 rows run as a radix sort."""
    _check_mode(tensor.shape, mode)
    if mode in tensor._layouts:
        return tensor._layouts[mode]

    def narrow(k):
        return tensor.subs0[:, k].astype(np.min_scalar_type(tensor.shape[k] - 1))

    counts = np.bincount(tensor.subs0[:, mode - 1])
    rows = np.flatnonzero(counts)
    order = np.argsort(narrow(mode - 1), kind="stable")
    columns = tuple(np.take(narrow(k), order)
                    for k in range(tensor.ndim) if k != mode - 1)
    vals = tensor.vals.astype(np.min_scalar_type(tensor.vals.max(initial=0)))
    layout = tensor._layouts[mode] = ModeLayout(
        columns, np.take(vals, order), rows,
        np.concatenate(([0], np.cumsum(counts[rows]))))
    return layout


def read_coo(path) -> SparseCountTensor:
    """Read a tensor from the COO text format.

    The first non-blank line is ``N I_1 ... I_N``; each following line is
    one nonzero ``i_1 ... i_N count`` with 1-based indices, whitespace
    separated; blank lines are skipped everywhere.  The body is parsed into
    one ``(nnz, N + 1)`` array, which the tensor copies and does not keep.
    Malformed or invalid data, including a line with the wrong number of
    fields, raises ValueError (or the validation error subclass) with a
    message that starts with the path; a malformed line is named by its
    1-based line number in the file.
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
    body = fh.tell()
    try:
        with warnings.catch_warnings():
            # An empty or all-blank body is an empty tensor, not a warning.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fh, dtype=np.int64, ndmin=2, comments=None)
        if data.shape[0] == 0:
            data = np.empty((0, n + 1), dtype=np.int64)
        if data.shape[1] != n + 1:
            raise ValueError(f"entries must have {n} indices plus a count, "
                             f"got lines of {data.shape[1]} fields")
    except ValueError as exc:
        fh.seek(body)
        raise _first_bad_line(fh, n, header_number + 1) or exc
    return SparseCountTensor.from_arrays(dims, data[:, :n], data[:, n])


_INT_TOKEN = re.compile(r"[+-]?[0-9]+")


def _first_bad_line(fh, n: int, first: int):
    """A ValueError naming the first body line, by its 1-based number in
    the file (the body starts at line ``first``), that does not hold ``n``
    indices plus a count of int64 tokens; None when every line does."""
    for number, line in enumerate(iter(fh.readline, ""), start=first):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != n + 1:
            return ValueError(f"line {number}: entries must have {n} indices "
                              f"plus a count, got {len(fields)} fields")
        for token in fields:
            if not (_INT_TOKEN.fullmatch(token)
                    and -_INT64_MAX - 1 <= int(token) <= _INT64_MAX):
                return ValueError(f"line {number}: {token!r} is not an int64 "
                                  "integer")
    return None


# Rows formatted per write: one %-format call each, with bounded transient
# memory.
_WRITE_BLOCK_ROWS = 65536


def write_coo(tensor: SparseCountTensor, path) -> None:
    """Write a tensor in the COO text format read by :func:`read_coo`."""
    line = " ".join(["%d"] * (tensor.ndim + 1)) + "\n"
    with open(path, "w") as fh:
        dims = " ".join(str(d) for d in tensor.shape.dims)
        fh.write(f"{tensor.ndim} {dims}\n")
        for start in range(0, tensor.nnz, _WRITE_BLOCK_ROWS):
            stop = start + _WRITE_BLOCK_ROWS
            block = np.column_stack(
                (tensor.subs0[start:stop] + 1, tensor.vals[start:stop])
            )
            fh.write(line * block.shape[0] % tuple(block.ravel().tolist()))
