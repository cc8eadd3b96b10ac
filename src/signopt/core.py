"""Vector kernels and seeded random streams used by every other module.

Parameter vectors are plain 1-D float64 numpy arrays. The reductions also
take an (S, d) array of S vectors and return one value per row, each
bitwise the value of its row alone. All kernels are pure functions;
RngStream instances are single-owner.
"""

from __future__ import annotations

import numpy as np

# Purpose tags for deriving independent substreams from one master seed.
STREAM_GRAD = 1
STREAM_DITHER = 2
STREAM_DATA = 3
STREAM_MC = 4

SEED_LIMIT = 2**64  # seeds and stream ids are 64-bit unsigned Philox keys
# numpy's largest array, in float64 entries: the bound of every size
MAX_VECTOR = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


def run_errstate():
    """A run's floating-point policy: `over` and `invalid` pass silently,
    because an overflow is the divergence signal and reaches f by the next
    step, which cuts the row; `divide` and `under` keep numpy's default."""
    return np.errstate(over="ignore", invalid="ignore")


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
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if not (0 <= seed < SEED_LIMIT and 0 <= stream_id < SEED_LIMIT):
            raise ValueError("seed and stream_id must be 64-bit unsigned")
        self.seed = seed
        self.stream_id = stream_id
        self._gen = np.random.Generator(np.random.Philox(key=[seed, stream_id]))

    def derive(self, tag: int) -> "RngStream":
        """A fresh independent stream determined by (seed, stream_id, tag)."""
        return RngStream(self.seed, _mix64(self.stream_id, tag))

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


def _dot(a: np.ndarray, b: np.ndarray):
    # a stacked matmul runs the BLAS dot of `a @ b` on each row; einsum and
    # (a * b).sum() sum in another order
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def inner(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return per_row(_dot(a, b))


def l1_norm(v: np.ndarray):
    return per_row(np.abs(v).sum(axis=-1))


def l2_norm_sq(v: np.ndarray):
    return per_row(_dot(v, v))


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
