"""In-memory span tracing of signopt's layers, installed from outside the
package.

`instrument` replaces the public functions each layer exposes in the
namespace of the module that calls them (for example
`signopt.harness.stochastic_grad`), so nothing under `src/` changes. A
span closes into a call tree kept in memory: each node holds its call
count, total time and self time (its duration minus the time covered by
its child spans). `Tracer.tree()` writes the tree out at the end.

The wrapper's own work outside a span's clock would land in the parent's
self time. As in the standard library's `profile` module, that cost is
calibrated (`span_bias_ns`) and, when the tree is read, taken out of the
parent's self time once per child call, so that the self time is the
parent's own code.

Counters record work that is too small to time on its own (random-stream
calls, dither draws, bytes written) at the same boundaries.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
from collections import Counter


class _Node:
    __slots__ = ("name", "group", "count", "total_ns", "self_ns", "children")

    def __init__(self, name, group):
        self.name = name
        self.group = group
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0
        self.children = {}


class Tracer:
    """Span stack plus the aggregated call tree.

    A span may carry a tag (an algorithm or a problem kind). The outermost
    tag on a span's path is its group; every metric is also split by group.
    """

    def __init__(self):
        self.bias_ns = 0.0               # wrapper cost per child call
        self.root = _Node("root", None)
        self._stack = [[self.root, 0]]   # frames: [node, child time in ns]
        self.counts = Counter()          # (counter name, group) -> value

    def count(self, name, value=1):
        self.counts[(name, self._stack[-1][0].group)] += value

    def span(self, name, fn, tag=None, after=None):
        """Wrap `fn` in a span. `tag(*args)` names the span's tag;
        `after(result, *args)` runs inside the span, for counters."""
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1][0]
            key = name
            group = parent.group
            if tag is not None:
                label = tag(*args, **kwargs)
                key = f"{name}[{label}]"
                group = group or label
            node = parent.children.get(key)
            if node is None:
                node = parent.children[key] = _Node(name, group)
            frame = [node, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                node.count += 1
                node.total_ns += elapsed
                node.self_ns += elapsed - frame[1]
                stack[-1][1] += elapsed

        return traced

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def nodes(self):
        todo = [self.root]
        while todo:
            node = todo.pop()
            todo.extend(node.children.values())
            if node is not self.root:
                yield node

    def self_ns(self, node):
        """`node`'s self time, less the wrapper cost of its child calls."""
        calls = sum(child.count for child in node.children.values())
        return node.self_ns - self.bias_ns * calls

    def layer_totals(self):
        """(span name, group) -> [calls, self ns]."""
        out = {}
        for node in self.nodes():
            acc = out.setdefault((node.name, node.group), [0, 0])
            acc[0] += node.count
            acc[1] += self.self_ns(node)
        return out

    def self_ns_below(self, name, skip=()):
        """Self time of every span nested inside a span called `name`,
        leaving out the self time of spans named in `skip`."""
        total = 0
        for node in self.nodes():
            if node.name == name:
                todo = list(node.children.values())
                while todo:
                    child = todo.pop()
                    if child.name not in skip:
                        total += self.self_ns(child)
                    todo.extend(child.children.values())
        return total

    def tree(self):
        def dump(key, node):
            return {"span": key, "group": node.group, "count": node.count,
                    "total_ns": node.total_ns,
                    "self_ns": self.self_ns(node),
                    "children": [dump(k, c) for k, c in node.children.items()]}
        return [dump(k, c) for k, c in self.root.children.items()]


def span_bias_ns(calls=20_000, repeats=5):
    """The tracer's cost per span as its parent's self time sees it: the
    median over `repeats` of the self-time difference between a parent
    that calls a traced no-op and one that calls the bare no-op."""
    def noop(arg):
        return arg

    samples = []
    for _ in range(repeats):
        tracer = Tracer()
        child = tracer.span("child", noop)

        def traced_calls():
            for i in range(calls):
                child(i)

        def bare_calls():
            for i in range(calls):
                noop(i)

        tracer.span("traced", traced_calls)()
        tracer.span("bare", bare_calls)()
        self_ns = {node.name: node.self_ns for node in tracer.nodes()}
        samples.append((self_ns["traced"] - self_ns["bare"]) / calls)
    return statistics.median(samples)


def instrument(tracer: Tracer):
    """Wrap signopt's public functions where their callers import them.

    Returns a function that restores every replaced attribute.
    """
    from signopt import cli, config, dither, harness, optimizers, theory

    saved = []

    def patch(module, attr, wrapper):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def span(module, attr, name, **kwargs):
        patch(module, attr, tracer.span(name, getattr(module, attr), **kwargs))

    def traced_problem(problem):
        return dataclasses.replace(
            problem,
            eval_f=tracer.span("problems.eval_f", problem.eval_f),
            eval_grad=tracer.span("problems.eval_grad", problem.eval_grad))

    build = tracer.span("config.build_problem", harness.build_problem)
    patch(harness, "build_problem", lambda cfg: traced_problem(build(cfg)))

    def after_run(rec, *args, **kwargs):
        tracer.count("steps", rec.oracle_calls)
        tracer.count("harness.diverged_runs", int(rec.diverged))

    def algorithm(cfg, *args, **kwargs):
        return cfg.optimizer.algorithm

    for module in (harness, cli):
        span(module, "run_single", "harness.run_single", tag=algorithm,
             after=after_run)

    def after_csv(_, record, path):
        tracer.count("harness.rows_recorded", len(record.rows))
        tracer.count("harness.emit_bytes", os.path.getsize(path))

    span(cli, "emit_csv", "harness.emit", after=after_csv)
    # the summary JSON holds the run's wall time, so its length varies from
    # run to run; emit_bytes counts the CSV alone and repeats exactly
    span(cli, "emit_json", "harness.emit")
    for module in (cli, config):
        span(module, "load_config", "config.parse")

    span(harness, "stochastic_grad", "problems.oracle")
    span(harness, "SnrProfile", "theory.phi")
    span(harness, "phi_measure", "theory.phi")
    span(harness, "l1_norm", "core.l1_norm")
    for attr in ("sgd_step", "signsgd_step", "signsgdm_step",
                 "dithered_step", "hybrid_step"):
        span(harness, attr, "optimizers.step")
    for module in (harness, optimizers):
        span(module, "lambda_project", "optimizers.lambda_project")
        patch(module, "dither_sigma_sq",
              tracer.counted("dither.sigma_sq", module.dither_sigma_sq))
    patch(optimizers, "sample_gaussian",
          tracer.counted("dither.draws", optimizers.sample_gaussian))

    class CountedRngStream(harness.RngStream):
        def normal(self, size=None):
            tracer.count("core.rng_calls")
            return super().normal(size)

        def uniform(self, low=0.0, high=1.0, size=None):
            tracer.count("core.rng_calls")
            return super().uniform(low, high, size)

        def laplace(self, scale=1.0, size=None):
            tracer.count("core.rng_calls")
            return super().laplace(scale, size)

    patch(harness, "RngStream", CountedRngStream)

    span(harness, "run_theorem_suite", "harness.suite")
    span(harness, "run_switch_suite", "harness.suite")
    span(cli, "main", "cli.main")
    span(theory, "mc_sign_failure", "theory.mc_sign_failure")
    span(dither, "mc_dithered_sign", "dither.mc_dithered_sign")

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore
