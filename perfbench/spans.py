"""In-memory span recorder around the public entry points of mtbandit.

The benchmark measures each package module from outside: `install`
replaces a fixed list of public functions and methods with wrappers that
record one span per call (name, start, end, parent span) and, for some,
a work amount taken from the return value.  Spans stay in memory; `summary`
turns them into per-name self time, call count and summed amount.

Self time is a span's duration minus the part of its interval that its
child spans cover.  One stack of open spans gives each call its parent, so
the recorder expects the program to run on one thread: the benchmark pins
the trial pool to one worker.
"""

import functools
import time
from collections import defaultdict

# Fields of one span record (a list, so the wrapper can fill in the end).
NAME, START, END, PARENT, AMOUNT = range(5)


class SpanRecorder:
    """Collects spans from wrapped callables, all called on one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, amount=None, rename_under=None):
        """Wrap fn so each call records a span called `name`.

        amount(result) gives the span's work amount; rename_under maps a
        parent span name to the name this span takes under that parent.
        """
        renames = rename_under or {}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            span_name = renames.get(parent[NAME], name) if parent else name
            span = [span_name, time.perf_counter(), 0.0, parent, None]
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if amount is not None:
                span[AMOUNT] = amount(result)
            return result

        return traced

    def summary(self):
        """{name: {"self_s", "calls", "amount"}} over all recorded spans."""
        children = defaultdict(list)
        for span in self.spans:
            if span[PARENT] is not None:
                children[id(span[PARENT])].append((span[START], span[END]))
        out = {}
        for span in self.spans:
            start, end = span[START], span[END]
            covered = _union_length(children.get(id(span), ()), start, end)
            row = out.setdefault(span[NAME], {"self_s": 0.0, "calls": 0, "amount": []})
            row["self_s"] += (end - start) - covered
            row["calls"] += 1
            if span[AMOUNT] is not None:
                row["amount"].append(span[AMOUNT])
        return out


def _union_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def _patch(owner, attr, wrapper):
    setattr(owner, attr, wrapper(getattr(owner, attr)))


def install(recorder):
    """Wrap the entry points of every mtbandit module; returns recorder.

    Call after the setup phase and before ``cli.main``, in a process that
    runs nothing else.  The patches stay for the life of the process.
    """
    from mtbandit import bandit, benchmarks, cli, kernels, nystrom, posterior
    from mtbandit import scalarize, theorybounds

    def layer(name, **kw):
        return lambda fn: recorder.wrap(name, fn, **kw)

    def dict_fraction(result):
        if result.config.algorithm != "MTBKB":
            return None
        return float(result.m_sizes[-1]) / result.horizon

    _patch(kernels.ScalarKernel, "pairwise", layer("kernels.pairwise", amount=lambda K: K.size))
    for method in ("update", "mean_batch", "cov_norm_batch", "cov"):
        _patch(posterior.PosteriorState, method, layer(f"posterior.{method}"))
        # Under `update`, cov_norm_batch scores the history for the resample.
        renames = {"nystrom.update": "nystrom.rescore"} if method == "cov_norm_batch" else None
        _patch(nystrom.NystromState, method, layer(f"nystrom.{method}", rename_under=renames))
    _patch(nystrom, "resample_dictionary", layer("nystrom.resample_dictionary"))
    for cls in (scalarize.ChebyshevScalarization, scalarize.LinearScalarization):
        _patch(cls, "value_batch", layer("scalarize.value_batch"))
    for cls in (scalarize.InverseWeightedWeights, scalarize.UniformSimplexWeights):
        _patch(cls, "sample", layer("scalarize.sample"))
    _patch(bandit, "run", layer("bandit.run", amount=dict_fraction))
    _patch(benchmarks, "instantaneous_regrets", layer("benchmarks.instantaneous_regrets"))
    _patch(benchmarks, "bayes_regret", layer("benchmarks.bayes_regret"))
    _patch(theorybounds, "regret_bound_value", layer("theorybounds.regret_bound_value"))
    for fn in ("cmd_run", "load_config", "write_trace", "write_manifest"):
        _patch(cli, fn, layer(f"cli.{fn}"))
    _patch(cli.ExperimentConfig, "build_environment", layer("cli.build_environment"))
    return recorder
