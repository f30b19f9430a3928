"""Synthetic sparse Poisson tensors with known ground-truth factors.

A sparse model is built by boosting a random subset of each factor column
well above a small background value, then ``samples`` independent draws
each pick a component by weight and one index per mode by that component's
column distribution, incrementing a single tensor cell.  Every random
choice flows through a PCG64 generator; the stream (and therefore the
output, bit for bit) is fixed by the seed, the draw order documented in
:func:`generate_model` and :func:`sample_tensor`, and nothing else.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import check_integer, check_number, check_size
from .kruskal import KruskalModel, _unit_columns, normalize
from .sparse_tensor import (BLOCK_DOUBLES, SparseCountTensor, as_shape,
                            lexsort_runs)

__all__ = [
    "GenConfig",
    "ModeCollinearity",
    "generate_model",
    "sample_tensor",
    "generate_dataset",
    "collinearity_stats",
    "seeded_rng",
]


@dataclass(frozen=True)
class GenConfig:
    """Ground-truth generator settings.

    Per column, ceil(boost_fraction * I_n) positions drawn without
    replacement get the value 1 + boost_scale * R * u with u uniform on
    (0, 1); the rest get ``small_value``.  When ``collinearity_alpha`` is
    set, columns 2..R are mixed with column 1 before normalization:
    a_r <- a_1 + alpha * a_r.  The ``samples * len(dims)`` sampled
    subscripts and the ``rank * sum(dims)`` factor entries must fit in
    int64 and in physical memory.
    """

    dims: tuple[int, ...]
    rank: int
    samples: int
    boost_fraction: float = 0.2
    boost_scale: float = 10.0
    small_value: float = 0.1
    collinearity_alpha: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.dims, str) or not isinstance(self.dims, Iterable):
            raise ValueError("config field 'dims' is not a valid non-empty "
                             f"list of integers, got {self.dims!r}")
        put = functools.partial(object.__setattr__, self)
        put("dims", as_shape(self.dims).dims)
        put("rank", check_integer("rank", self.rank, 1))
        put("samples", check_integer("samples", self.samples, 1))
        for name in ("boost_fraction", "boost_scale", "small_value"):
            put(name, check_number(name, getattr(self, name)))
        if self.collinearity_alpha is not None:
            put("collinearity_alpha", check_number("collinearity_alpha",
                                                   self.collinearity_alpha))
        put("seed", check_integer("seed", self.seed, 0))
        check_size("samples * len(dims)", self.samples * len(self.dims))
        check_size("rank * sum(dims)", self.rank * sum(self.dims))
        if not 0 < self.boost_fraction <= 1:
            raise ValueError("boost_fraction must lie in (0, 1]")
        if self.boost_scale < 0 or self.small_value <= 0:
            raise ValueError("boost_scale must be >= 0 and small_value > 0")
        alpha = self.collinearity_alpha or 0.0
        if alpha < 0:
            raise ValueError(f"collinearity_alpha must be nonnegative, got {alpha}")
        # Mode n's columns sum to at most I_n (1 + alpha) peak, so the
        # weights sum to less than rank times the product of those bounds.
        peak = max(self.small_value, 1.0 + self.boost_scale * self.rank)
        if not math.log(self.rank) + sum(
                math.log(d * (1.0 + alpha) * peak)
                for d in self.dims) < math.log(np.finfo(float).max):
            raise ValueError("boost_scale, small_value and collinearity_alpha "
                             "overflow the weights at these dims and rank")


class ModeCollinearity(NamedTuple):
    all_pairs: float  # mean cosine over distinct column pairs
    versus_first: float  # mean cosine of columns 2..R against column 1


def seeded_rng(entropy) -> np.random.Generator:
    """PCG64 generator seeded through a SeedSequence over ``entropy`` (an int
    or a sequence of ints); the one constructor behind every random draw."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def generate_model(config: GenConfig) -> KruskalModel:
    """Sparse ground-truth model, normalized with weights summing to one.

    Draw order (one PCG64 stream seeded by ``config.seed``): for each mode
    and then each column, one uniform block ranking the boosted positions
    and one block of boost values; finally one block for the weights.
    """
    rng = seeded_rng(config.seed)
    r = config.rank
    factors = []
    for dim in config.dims:
        n_boost = math.ceil(config.boost_fraction * dim)
        f = np.full((dim, r), config.small_value)
        for col in range(r):
            positions = np.argsort(rng.random(dim))[:n_boost]
            f[positions, col] = 1.0 + config.boost_scale * r * rng.random(n_boost)
        factors.append(f)
    if config.collinearity_alpha is not None:
        for f in factors:
            f[:, 1:] = f[:, :1] + config.collinearity_alpha * f[:, 1:]
    weights = rng.random(r)
    model = normalize(KruskalModel(weights, tuple(factors)))
    unit_weights = _force_sum(model.weights / model.weights.sum(), 1.0)
    return KruskalModel(unit_weights, model.factors, normalized=True)


def sample_tensor(model: KruskalModel, samples: int, seed=0):
    """Draw ``samples`` cells from a normalized model with unit weights.

    Each draw picks a component by weight, then one index per mode from
    that component's column, and increments the cell.  Draw order (one
    PCG64 stream): one uniform block for the components, then one block per
    mode; each block is drawn in steps of ``BLOCK_DOUBLES`` uniforms, which
    gives the same uniforms as one call.  Every pick equals
    ``np.searchsorted(cum, u, side="right")`` over the cumulative weights
    or the component's cumulative column, bit for bit; a bucket table
    (:class:`_BucketTable`) finds most of them without a binary search.
    Repeated cells are merged by one lexicographic sort; the cells and
    counts do not depend on the order of the draws.  Returns (tensor, model
    with weights rescaled so their sum equals ``samples`` exactly, matching
    the tensor's total count).
    """
    if not model.normalized:
        raise ValueError("sample_tensor needs a normalized model")
    if abs(float(model.weights.sum()) - 1.0) > 1e-8:
        raise ValueError("weights must sum to one before sampling")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = seeded_rng(seed)
    # Each cumulative sum ends at exactly 1.0 and every uniform is below 1,
    # so no search below returns an index past the end.
    cw = np.cumsum(model.weights)
    cw /= cw[-1]
    weights = _BucketTable(cw[:, None], samples)
    comp = np.empty(samples, dtype=np.min_scalar_type(model.rank - 1))
    for lo, hi in _chunks(samples):
        comp[lo:hi] = weights.search(0, rng.random(hi - lo))
    dims = tuple(f.shape[0] for f in model.factors)
    subs = np.empty((model.ndim, samples),
                    dtype=np.min_scalar_type(max(dims) - 1))
    for k, f in enumerate(model.factors):
        cum = np.cumsum(f, axis=0)
        cum /= cum[-1:, :]
        table = _BucketTable(cum, samples)
        for lo, hi in _chunks(samples):
            subs[k, lo:hi] = table.search(comp[lo:hi], rng.random(hi - lo))
    del comp  # freed before the sort and the tensor's copies
    order, starts = lexsort_runs(subs.T)
    picks = order[starts]
    del order
    cells = np.empty((picks.shape[0], model.ndim), dtype=np.int64)
    for k in range(model.ndim):
        cells[:, k] = np.take(subs[k], picks)
    del subs, picks
    counts = np.diff(starts, append=samples).astype(np.int64, copy=False)
    del starts
    # Fresh, in-range, strictly increasing cells with counts of at least 1:
    # the tensor takes them without from_arrays' copies and checks.
    tensor = SparseCountTensor(dims, cells, counts)
    scaled = _force_sum(model.weights * float(samples), float(samples))
    return tensor, KruskalModel(scaled, model.factors, normalized=True)


def _chunks(samples: int):
    """(lo, hi) bounds of consecutive steps of at most ``BLOCK_DOUBLES``
    draws, so each step's uniforms and temporaries stay in cache."""
    return ((lo, min(lo + BLOCK_DOUBLES, samples))
            for lo in range(0, samples, BLOCK_DOUBLES))


class _BucketTable:
    """Exact ``searchsorted(cum[:, c], u, side="right")`` by bucket lookup.

    [0, 1) is cut into ``buckets`` equal buckets, a power of two: the one
    above ``min(4 I, samples // (4 R))`` for an (I, R) ``cum``, so the table
    holds at most half an entry per draw.  For each bucket ``b`` and column
    ``c`` it keeps how many values of ``cum[:, c]`` lie at or below the
    lower edge ``b / buckets`` and the first value above it; that value is
    NaN when more than one value lies strictly inside the bucket.  A
    uniform lies on the 2**-53 grid, so ``u * buckets`` is exact and so is
    its bucket.  The values at or below the edge are below ``u``, those at
    or above the upper edge are above it, and the lone value inside, if
    any, takes one comparison; only draws that meet a NaN fall back to a
    binary search.
    """

    def __init__(self, cum: np.ndarray, samples: int):
        size, rank = cum.shape
        self.cum = cum
        self.buckets = 1 << min(4 * size, samples // (4 * rank)).bit_length()
        edges = np.arange(self.buckets + 1) / self.buckets
        below = np.empty((self.buckets, rank),
                         dtype=np.min_scalar_type(size - 1))
        first = np.empty((self.buckets, rank))
        for c, col in enumerate(cum.T):
            at = np.searchsorted(col, edges[:-1], side="right")
            inside = np.searchsorted(col, edges[1:], side="left") - at
            below[:, c] = at
            first[:, c] = np.where(inside > 1, np.nan, col[at])
        self.below = below.ravel()
        self.first = first.ravel()

    def search(self, cols, u: np.ndarray) -> np.ndarray:
        """Index of each uniform ``u[j]`` in column ``cols[j]``; ``cols`` is
        an array or one column for all."""
        cols = np.broadcast_to(cols, u.shape)
        key = (u * self.buckets).astype(np.intp)
        key *= self.cum.shape[1]
        key += cols
        index = np.take(self.below, key)
        first = np.take(self.first, key)
        index += first <= u
        spill = np.flatnonzero(np.isnan(first))
        if spill.size:
            spill = spill[np.argsort(cols[spill])]
            runs = np.flatnonzero(np.diff(cols[spill])) + 1
            for part in np.split(spill, runs):
                index[part] = np.searchsorted(self.cum[:, cols[part[0]]],
                                              u[part], side="right")
        return index


def generate_dataset(config: GenConfig):
    """Ground-truth model plus a sampled tensor.

    The model stream is seeded by ``config.seed`` and the sampling stream by
    ``(config.seed, 1)``, so the two are independent yet both reproducible.
    Returns (scaled truth model, tensor).
    """
    model = generate_model(config)
    tensor, scaled = sample_tensor(model, config.samples, seed=(config.seed, 1))
    return scaled, tensor


def _force_sum(v: np.ndarray, total: float) -> np.ndarray:
    """Adjust nonnegative entries so v.sum() equals ``total`` exactly.

    Entries are quantized to the float spacing of ``total`` (a power of
    two), which makes every partial sum exact regardless of summation
    order; the quantization residual, itself on the grid, lands on the
    largest entry.  Per-entry perturbation is at most half a spacing.
    """
    u = float(np.spacing(total))
    v = np.round(v / u) * u
    delta = total - float(v.sum())
    v[int(np.argmax(v))] += delta
    return v


def collinearity_stats(model: KruskalModel) -> list[ModeCollinearity]:
    """Cosine similarities between l2-normalized factor columns, per mode."""
    if model.rank < 2:
        return [ModeCollinearity(math.nan, math.nan)] * model.ndim
    iu = np.triu_indices(model.rank, k=1)
    grams = [unit.T @ unit for unit in _unit_columns(model.factors)]
    return [ModeCollinearity(all_pairs=float(c[iu].mean()),
                             versus_first=float(c[0, 1:].mean()))
            for c in grams]
