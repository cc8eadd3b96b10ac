"""Timings in reference seconds, which a shared host's contention leaves
alone.

A host shared with other machines slows this process by 1.4-2x in spells
of a few to a few hundred milliseconds, in a share that drifts from minute
to minute. So the raw time of a call of a second or more varies by tens of
percent between runs of the same code.

`Sampler` runs a small reference every `interval` seconds from a SIGALRM
handler, on the same thread as the measured call, and times it. The
reference is fixed code of the benchmark's own, not signopt's, written
like the code it stands in for: small numpy calls in a Python loop for the
run engine, vectorised draws for Monte Carlo, module bodies for the
set-up. So it slows down by the same share as the call around it, and a
change to signopt does not change it. The references cut a call into
stretches of work; each stretch is scaled by the references beside it:

    seconds = sum over stretches of  length * nominal / reference time

where a stretch between two references takes the mean of their two
scales, and the first and last stretch take the scale of the one
reference they touch. Time spent in the references is not counted.

`nominal` is a fixed time per reference: about its shortest time inside
the measured calls on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4), where
it runs with the caches the call leaves. `seconds` is then the call's time
on a host where the reference takes exactly `nominal`, that is, nearly
uncontended. A change that slows the call's own code lengthens the
stretches; contention lengthens the stretches and the references alike.
"""

from __future__ import annotations

import dataclasses
import marshal
import math
import signal
import statistics
import time

import numpy as np


class Sampler:
    """Runs the current reference `interval` seconds after the previous
    run of it ended, and records (key, start, duration) for each run.

    The timer is re-armed only when the handler ends, so references never
    pile up or nest. A reference must be warm before it is sampled, since
    it may interrupt an import."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples = []
        self._key = None
        self._reference = None
        self._active = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def __exit__(self, *exc):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        try:
            reference = self._reference
            if reference is not None:
                start = time.perf_counter()
                reference()
                self.samples.append(
                    (self._key, start, time.perf_counter() - start))
        finally:
            if self._active:
                signal.setitimer(signal.ITIMER_REAL, self.interval)

    def timed(self, key, fn):
        """Call `fn` while sampling reference `key`; return (result, Span)."""
        first = len(self.samples)
        self._key, self._reference = key, REFERENCES[key][0]
        try:
            start = time.perf_counter()
            result = fn()
            end = time.perf_counter()
        finally:
            self._reference = None
        inside = [(s, d) for _, s, d in self.samples[first:]
                  if start <= s <= end]
        return result, Span(key, start, end, inside)


@dataclasses.dataclass
class Span:
    """One timed call, and the (start, duration) of each reference that
    ran inside it."""
    key: str
    start: float
    end: float
    references: list

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def reference_time(self):
        return sum(d for _, d in self.references)


def reference_seconds(spans) -> list:
    """Each span's time in reference seconds. A span too short to hold a
    reference is scaled by the mean scale of all the spans' references."""
    scales = {}
    for key in {s.key for s in spans}:
        nominal = REFERENCES[key][1]
        values = [nominal / d for s in spans if s.key == key
                  for _, d in s.references]
        scales[key] = statistics.fmean(values) if values else math.nan
    out = []
    for span in spans:
        if not span.references:
            out.append(span.seconds * scales[span.key])
            continue
        nominal = REFERENCES[span.key][1]
        scale = [nominal / d for _, d in span.references]
        scale = [scale[0]] + scale + [scale[-1]]
        edges = [span.start]
        for start, duration in span.references:
            edges += [start, start + duration]
        edges.append(span.end)
        out.append(sum((edges[2 * i + 1] - edges[2 * i])
                       * (scale[i] + scale[i + 1]) / 2
                       for i in range(len(span.references) + 1)))
    return out


# The references' inputs; their values do not matter, only that they are
# the same in every run.
_RNG = np.random.default_rng(0)
_A = _RNG.normal(size=(100, 20))
_X0 = np.linspace(-1.0, 1.0, 20)


def _loop_reference():
    """Six steps of noisy sign descent on a logistic loss in dim 20, with
    the run loop's diagnostics: what one step of signopt's engine does."""
    x = _X0.copy()
    for _ in range(6):
        with np.errstate(over="ignore", invalid="ignore"):
            z = _A @ x
            grad = _A.T @ np.tanh(z) / len(z)
            f = float(np.mean(np.log1p(np.exp(-z))))
        l1 = float(np.sum(np.abs(grad)))
        phi = l1 / math.sqrt(float(np.sum(grad * grad)) + 1e-12)
        noise = 0.5 * _RNG.standard_normal(20)
        x = x - 0.01 * np.sign(grad + noise) * (f + phi > 0)


def _vector_reference():
    """One Monte Carlo cell of 20 000 draws."""
    draws = _RNG.standard_normal(20_000)
    float(np.mean(1.0 + draws <= 0.0))


_IMPORT_SOURCE = """
class Spec:
    def __init__(self, kind, dim):
        self.kind = kind
        self.dim = dim

    def scaled(self, factor):
        return Spec(self.kind, int(self.dim * factor))

def parse(text):
    fields = dict(line.split("=", 1) for line in text.splitlines() if line)
    return Spec(fields["kind"], int(fields["dim"]))

specs = [parse(f"kind=logistic\\ndim={d}\\n").scaled(2.0) for d in range(20)]
"""
_IMPORT_CODE = marshal.dumps(compile(_IMPORT_SOURCE, "<reference>", "exec"))


def _import_reference():
    """What an import does: unmarshal a module's code and run its body."""
    exec(marshal.loads(_IMPORT_CODE), {})


# name -> (reference, nominal seconds per run of it)
REFERENCES = {
    "loop": (_loop_reference, 190e-6),
    "vector": (_vector_reference, 500e-6),
    "import": (_import_reference, 105e-6),
}


def warm():
    """Run every reference a few times: first calls, lazy imports."""
    for reference, _ in REFERENCES.values():
        for _ in range(10):
            reference()
