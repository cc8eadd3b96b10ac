import math
import os
import signal
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signopt import core
from signopt.core import (RngStream, inner, l1_norm, l2_norm_sq,
                          sample_gaussian, sign_vec)

finite_vectors = st.lists(
    st.floats(min_value=-1e100, max_value=1e100, allow_nan=False),
    min_size=1, max_size=16).map(np.array)


def test_sign_vec_examples():
    assert np.array_equal(sign_vec(np.array([3.0, -2.0])), [1.0, -1.0])
    assert np.array_equal(sign_vec(np.array([0.0, 0.0])), [0.0, 0.0])
    assert np.array_equal(sign_vec(np.array([-1e-300, 1e-300])), [-1.0, 1.0])


@given(finite_vectors)
def test_sign_vec_is_odd_and_idempotent(v):
    s = sign_vec(v)
    assert np.array_equal(sign_vec(-v), -s)
    assert np.array_equal(sign_vec(s), s)


def test_reductions_on_rows_match_each_row():
    # the batched run engine relies on this: a row's value is bitwise the
    # 1-D value (a @ b is a BLAS dot, np.sum a pairwise sum)
    rng = RngStream(3, 0).generator
    for d in range(1, 40):
        a = rng.standard_normal((6, d)) * 10.0 ** rng.integers(-3, 4, (6, 1))
        b = rng.standard_normal((6, d))
        assert inner(a, b).tolist() == [float(x @ y) for x, y in zip(a, b)]
        assert l2_norm_sq(a).tolist() == [float(x @ x) for x in a]
        assert l1_norm(a).tolist() == [float(np.sum(np.abs(x))) for x in a]
        assert type(inner(a[0], b[0])) is float


def stacked_dot(a, b):
    """The rows' dot products as a stacked matmul: `a @ b` on each row."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


@settings(deadline=None)
@given(S=st.integers(1, 25), d=st.integers(1, 10001),
       seed=st.integers(0, 2**32 - 1),
       layout=st.sampled_from(["rows", "strided", "vector"]))
def test_reductions_are_bitwise_the_stacked_matmul(S, d, seed, layout):
    # the engine's bits were pinned with this form; np.vecdot is not
    # documented to keep them, so each layout is checked here
    rng = np.random.default_rng(seed)
    a, b = (rng.standard_normal((S, 2 * d))
            * 10.0 ** rng.uniform(-300, 300, (S, 1)) for _ in range(2))
    if layout == "strided":
        a, b = a[:, ::2], b[:, 1::2]
    elif layout == "vector":
        a, b = a[0, :d], b[0, :d]
    else:
        a, b = a[:, :d].copy(), b[:, :d].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for got, want in ((inner(a, b), stacked_dot(a, b)),
                          (l2_norm_sq(a), stacked_dot(a, a))):
            assert np.array_equal(got, want, equal_nan=True)


def test_inner_examples():
    assert inner(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0
    v = np.array([1.5, -2.5, 3.0])
    assert inner(v, np.zeros(3)) == 0.0
    assert inner(sign_vec(v), v) == l1_norm(v)


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner(np.zeros(2), np.zeros(3))


@given(finite_vectors)
def test_sign_inner_recovers_l1(v):
    if np.all(v != 0):
        assert inner(sign_vec(v), v) == pytest.approx(l1_norm(v), rel=1e-12)


def test_norms():
    v = np.array([3.0, -4.0])
    assert l1_norm(v) == 7.0
    assert l2_norm_sq(v) == 25.0
    assert l1_norm(np.zeros(3)) == 0.0
    e = np.array([0.0, 1.0, 0.0])
    assert l1_norm(e) == 1.0 and l2_norm_sq(e) == 1.0


def test_rng_reproducibility_bitwise():
    a = RngStream(12345, 7).normal(1000)
    b = RngStream(12345, 7).normal(1000)
    assert np.array_equal(a, b)
    c = RngStream(12345, 8).normal(1000)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed, stream_id", [
    (np.int64(12345), 7), (12345, np.uint64(7)), (np.uint32(12345), np.int8(7)),
])
def test_rng_takes_numpy_integers(seed, stream_id):
    a = RngStream(seed, stream_id).normal(10)
    assert np.array_equal(a, RngStream(12345, 7).normal(10))


@pytest.mark.parametrize("seed, stream_id", [
    (1.5, 0), (1.0, 0), (True, 0), (np.bool_(True), 0), ("1", 0),
    (1, 0.0), (1, False),
])
def test_rng_rejects_non_integer_keys(seed, stream_id):
    with pytest.raises(ValueError, match="64-bit unsigned ints"):
        RngStream(seed, stream_id)


def test_rng_seeds_past_int64_key_their_own_streams():
    # numpy rounds a key list holding a value >= 2^63 through float64
    a = RngStream(2**63, 1).normal(10)
    assert not np.array_equal(a, RngStream(2**63 + 5, 1).normal(10))


def test_rng_largest_seed_draws_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        RngStream(2**64 - 1, 1).derive(3).normal(10)


@pytest.mark.parametrize("seed, stream_id", [
    (0, 0), (12345, 7), (2**63 - 1, 2**63 - 1), (5, 2**63 + 12345),
])
def test_rng_seeds_below_2_63_keep_their_streams(seed, stream_id):
    # the list key, a stream id rounded through float64 included
    philox = np.random.Philox(key=[seed, stream_id])
    assert np.array_equal(RngStream(seed, stream_id).normal(10),
                          np.random.Generator(philox).standard_normal(10))


def test_rng_derive_independent_and_deterministic():
    s = RngStream(99, 1)
    d1 = s.derive(5)
    d2 = RngStream(99, 1).derive(5)
    assert d1.stream_id == d2.stream_id
    assert np.array_equal(d1.normal(10), d2.normal(10))
    assert d1.stream_id != s.derive(6).stream_id
    # the largest tag
    top = s.derive(2**64 - 1)
    assert top.stream_id != s.derive(0).stream_id
    assert np.array_equal(top.normal(3),
                          RngStream(99, 1).derive(2**64 - 1).normal(3))


@pytest.mark.parametrize("tag", [2**64, -1, True, 2.5])
def test_rng_derive_takes_a_seed_as_its_tag(tag):
    # 2^64 would alias 0, -1 alias 2^64 - 1 and True alias 1
    with pytest.raises(ValueError, match="tag"):
        RngStream(99, 1).derive(tag)


def test_sample_gaussian_degenerate_and_errors():
    rng = RngStream(0, 0)
    assert np.array_equal(sample_gaussian(4, 0.0, 0.0, rng), np.zeros(4))
    assert np.array_equal(sample_gaussian(3, 2.5, 0.0, rng), np.full(3, 2.5))
    with pytest.raises(ValueError):
        sample_gaussian(3, 0.0, -1.0, rng)


def test_sample_gaussian_moments():
    n = 10**6
    draws = sample_gaussian(n, 0.0, 1.0, RngStream(2024, 11))
    # mean within 3 standard errors of 0
    assert abs(draws.mean()) <= 3.0 / math.sqrt(n)
    draws2 = sample_gaussian(n, 0.0, 2.0, RngStream(2024, 12))
    var = draws2.var(ddof=1)
    # variance estimator SE for normal data: sigma^2 * sqrt(2/(n-1))
    se = 4.0 * math.sqrt(2.0 / (n - 1))
    assert abs(var - 4.0) <= 3.0 * se


def test_cpu_count_falls_back_where_there_is_no_affinity(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert core.is_count(core.cpu_count())
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert core.cpu_count() == 1


def test_workers_sized_from_the_cpus():
    assert 1 <= core.WORKERS == min(4, core.cpu_count())


@pytest.mark.parametrize("workers", [2, 3, 4])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 5, 7, 20])
def test_parallel_map_keeps_order(monkeypatch, workers, count):
    monkeypatch.setattr(core, "WORKERS", workers)
    assert core.parallel_map(lambda i: i * i, range(count)) == [
        i * i for i in range(count)]


def test_parallel_map_spreads_chunks_over_threads(monkeypatch):
    monkeypatch.setattr(core, "WORKERS", 2)
    barrier = threading.Barrier(2, timeout=10)
    # each of the two chunks waits for the other: they run at once, both
    # on the pool's threads while the caller waits
    threads = core.parallel_map(
        lambda i: (barrier.wait(), threading.current_thread())[1], range(2))
    assert len(set(threads)) == 2
    assert threading.current_thread() not in threads
    assert all(t.name.startswith("signopt_") for t in threads)


def test_parallel_map_nested_in_a_chunk_runs_inline(monkeypatch):
    """A call from a pool thread runs on that thread: waiting on its own
    pool, it would hang once every pool thread waits."""
    monkeypatch.setattr(core, "WORKERS", 2)
    results = []

    def outer():
        results.append(core.parallel_map(
            lambda i: (threading.current_thread(), core.parallel_map(
                lambda j: (threading.current_thread(), 10 * i + j),
                range(3))), range(2)))

    caller = threading.Thread(target=outer, daemon=True)
    caller.start()
    caller.join(timeout=20)
    assert not caller.is_alive(), "a nested parallel_map hung"
    [runs] = results
    assert [[v for _, v in inner] for _, inner in runs] == [[0, 1, 2],
                                                            [10, 11, 12]]
    for thread, inner in runs:
        assert thread.name.startswith("signopt_")
        assert {t for t, _ in inner} == {thread}


@pytest.mark.parametrize("workers, count", [(2, 1), (4, 1), (1, 7)])
def test_parallel_map_runs_one_chunk_inline(monkeypatch, workers, count):
    monkeypatch.setattr(core, "WORKERS", workers)
    idents = core.parallel_map(lambda i: threading.get_ident(), range(count))
    assert idents == [threading.get_ident()] * count


def test_parallel_map_raises_a_worker_exception(monkeypatch):
    monkeypatch.setattr(core, "WORKERS", 2)

    def fail_on_last(i):
        if i == 4:
            raise KeyError(i)
        return i

    with pytest.raises(KeyError):
        core.parallel_map(fail_on_last, range(5))


def test_parallel_map_calls_run_under_the_run_errstate(monkeypatch):
    monkeypatch.setattr(core, "WORKERS", 2)
    big = np.full(3, 1e308)
    # an overflow passes silently in every chunk; a divide keeps numpy's
    # default, which pyproject.toml turns into an error
    assert core.parallel_map(lambda i: np.isinf(big * 10.0).all(),
                             range(4)) == [True] * 4
    with pytest.raises(RuntimeWarning):
        core.parallel_map(lambda i: big / 0.0, range(4))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_parallel_map_works_in_a_forked_child(monkeypatch):
    monkeypatch.setattr(core, "WORKERS", 2)
    barrier = threading.Barrier(2, timeout=10)
    # the parent's pool has two idle threads, which the child lacks
    core.parallel_map(lambda i: barrier.wait(), range(2))
    pid = os.fork()
    if pid == 0:  # the child: a hang ends in SIGALRM
        signal.alarm(20)
        ok = core.parallel_map(abs, range(-2, 2)) == [2, 1, 0, 1]
        os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
