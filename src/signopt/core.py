"""Vector kernels, seeded random streams and a small thread pool used by
every other module.

Parameter vectors are plain 1-D float64 numpy arrays. The reductions also
take an (S, d) array of S vectors and return one value per row, each
bitwise the value of its row alone. All kernels are pure functions;
RngStream instances are single-owner.

`parallel_map` spreads independent calls over up to `WORKERS` threads, in
contiguous chunks, and returns their results in order. It pays off where
the calls spend their time in numpy code that releases the GIL, such as
filling large Philox draws: the run engine hands it the per-seed stream
refills of `harness._RowStreams` once a refill is large enough to repay
the hand-off. Each item is handled by exactly one worker, so a
single-owner RngStream passed as an item still draws its values in
order, and the bits do not depend on the thread count. numpy 2's
errstate is a context variable that a new thread does not inherit, so
every chunk enters `run_errstate()` itself. The pool is created on first
use, sized only from the CPUs this process may run on, and never from an
input; the threads are Python threads, so a BLAS thread limit set by the
caller (as the benchmark's one-thread pin) is left as it is.
"""

from __future__ import annotations

import os
import threading

import numpy as np

# Purpose tags for deriving independent substreams from one master seed.
STREAM_GRAD = 1
STREAM_DITHER = 2
STREAM_DATA = 3
STREAM_MC = 4

SEED_LIMIT = 2**64  # seeds and stream ids are 64-bit unsigned Philox keys
# numpy's largest array, in float64 entries: the bound of every size
MAX_VECTOR = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


def is_count(value, minimum: int = 1) -> bool:
    """Whether `value` is a count of at least `minimum`: a Python or numpy
    int, never a bool."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool) and value >= minimum)


def is_seed(value) -> bool:
    """Whether `value` is a seed or stream id: a count in [0, SEED_LIMIT)."""
    return is_count(value, 0) and value < SEED_LIMIT


def run_errstate():
    """A run's floating-point policy: `over` and `invalid` pass silently,
    because an overflow is the divergence signal and reaches f by the next
    step, which cuts the row; `divide` and `under` keep numpy's default."""
    return np.errstate(over="ignore", invalid="ignore")


def cpu_count() -> int:
    """The CPUs this process may run on: its affinity, where the OS
    reports one (Linux), else the machine's CPU count, and at least 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS and Windows have no affinity call
        return os.cpu_count() or 1


# the most threads `parallel_map` runs at once; a refill's draws gain
# little past a few threads, and each busy thread holds one stream's draws
WORKERS = min(4, cpu_count())

_pool = None                    # created on first use
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """Drop the pool, whose threads a forked child does not have."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_chunk(fn, items) -> list:
    with run_errstate():  # a worker thread starts from numpy's default
        return [fn(item) for item in items]


def parallel_map(fn, items) -> list:
    """`[fn(item) for item in items]`, in order, with the items split into
    up to `WORKERS` contiguous chunks that run on the pool's threads.
    Every call runs under `run_errstate()`, and an exception in any call
    reaches the caller. Two or more chunks all run on the pool while the
    calling thread only waits; a lone chunk (one item, or `WORKERS` = 1)
    runs inline on the calling thread. `fn` must not call `parallel_map`:
    a pool thread would wait on its own pool."""
    global _pool
    items = list(items)
    chunks = min(WORKERS, len(items))
    if chunks <= 1:
        return _run_chunk(fn, items)
    with _pool_lock:
        if _pool is None:
            # imported here: an eager import costs every run's set-up
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(WORKERS, "signopt")
    ends = [len(items) * c // chunks for c in range(chunks + 1)]
    parts = _pool.map(_run_chunk, [fn] * chunks,
                      [items[a:b] for a, b in zip(ends, ends[1:])])
    return [result for part in parts for result in part]


def _mix64(a: int, b: int) -> int:
    """SplitMix64-style finalizer combining two 64-bit values."""
    z = (a * 0x9E3779B97F4A7C15 + b) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


class RngStream:
    """Counter-based random stream keyed by (seed, stream_id).

    Identical (seed, stream_id) reproduces the exact same sample sequence;
    distinct stream ids give statistically independent streams (Philox keys).

    A seed below 2^63 keys Philox with the list `[seed, stream_id]`, which
    numpy rounds through float64 when the stream id is at least 2^63: such
    ids within about 2^11 of each other draw the same stream, and one near
    2^64 keys with a RuntimeWarning. `derive`'s ids are 64-bit hashes, so
    it is unlikely to meet such a pair; keying them exactly would re-key
    every derived stream. A seed at or above 2^63 keys exactly, as uint64.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if not (is_seed(seed) and is_seed(stream_id)):
            raise ValueError("seed and stream_id must be 64-bit unsigned ints")
        # a numpy int keys the stream its Python int does
        self.seed, self.stream_id = key = [int(seed), int(stream_id)]
        if self.seed >= 2**63:  # past int64, where the list loses bits
            key = np.array(key, dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def derive(self, tag: int) -> "RngStream":
        """A fresh independent stream determined by (seed, stream_id, tag).
        The tag is a seed: an integer in [0, 2^64), never a bool."""
        if not is_seed(tag):
            raise ValueError("tag must be a 64-bit unsigned int")
        return RngStream(self.seed, _mix64(self.stream_id, int(tag)))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def laplace(self, scale=1.0, size=None):
        return self._gen.laplace(0.0, scale, size)


def as_vector(values) -> np.ndarray:
    """Coerce to a 1-D float64 array (the ParamVector representation)."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected 1-D vector, got shape {v.shape}")
    return v


def sign_vec(v: np.ndarray) -> np.ndarray:
    """Coordinate-wise sign with sign(0) = 0 (odd by construction)."""
    return np.sign(v)


def per_row(v):
    """A reduction's result: a float for one vector, an array for rows."""
    return float(v) if v.ndim == 0 else v


def inner(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:  # vecdot would broadcast a mismatch
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    # each row's vecdot is bitwise its `a @ b`, a BLAS dot; einsum and
    # (a * b).sum() sum in another order
    return per_row(np.vecdot(a, b))


def l1_norm(v: np.ndarray):
    return per_row(np.abs(v).sum(axis=-1))


def l2_norm_sq(v: np.ndarray):
    return per_row(np.vecdot(v, v))


def sample_gaussian(dim, mean: float, std, rng) -> np.ndarray:
    """I.i.d. normal array of shape `dim` (an int or a shape); `std` is a
    float, or an array that broadcasts against the draw (one std per row
    as a column). A float std = 0 returns the constant mean without
    consuming any random state. `rng` is anything with RngStream's
    `normal`."""
    if isinstance(std, np.ndarray):
        if not (std >= 0).all():  # written so that NaN fails
            raise ValueError("negative std")
        return mean + std * rng.normal(dim)
    if not std >= 0:
        raise ValueError(f"negative std: {std}")
    if std == 0.0:
        return np.full(dim, float(mean))
    return mean + std * rng.normal(dim)
