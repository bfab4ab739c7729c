"""Span tracing from outside the program, for the per-layer metrics.

`Tracer.installed()` replaces, for the duration of a `with` block, the
public functions at the module attributes through which the benchmark
calls a layer and one layer calls another (for example
`entrokit.closed_form.log_gamma` or `entrokit.oracle.logpdf`) by wrappers
that record a span: name, start, end, parent span and op id.  The
originals are put back on exit.  Spans stay in memory and are written
once, by the caller, after the run.

A layer's self time is the sum over its spans of duration minus the time
covered by child spans, so time spent in `special` under a `closed_form`
call is charged to `special` only.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np

import entrokit.closed_form
import entrokit.distributions
import entrokit.gaussian
import entrokit.limits
import entrokit.oracle
from entrokit.errors import NonConvergenceError, SeriesBudgetError

import workloads

_ORACLE_ERRORS = (NonConvergenceError, SeriesBudgetError)

# (module, attribute, layer).  Layers with sub-parts use "layer.part".
TARGETS = [
    (entrokit.closed_form, "log_gamma", "special"),
    (entrokit.closed_form, "digamma", "special"),
    (entrokit.distributions, "log_gamma", "special"),
    (entrokit.limits, "log_gamma", "special"),
    (workloads, "record", "distributions"),
    (entrokit.closed_form, "density_sup", "distributions"),
    (entrokit.oracle, "logpdf", "distributions"),
    (entrokit.oracle, "logpmf", "distributions"),
    (entrokit.closed_form, "evaluate", "closed_form"),
    (entrokit.closed_form, "shannon", "closed_form"),
    (entrokit.closed_form, "kl_divergence", "closed_form"),
    (entrokit.oracle, "entropy_estimate", "oracle.quad"),
    (entrokit.oracle, "kl_integral", "oracle.quad"),
    (entrokit.oracle, "integral_p_alpha", "oracle.quad"),
    (entrokit.oracle, "integral_p_alpha_log_p", "oracle.quad"),
    (entrokit.oracle, "integrate_halfline", "oracle.quad"),
    (entrokit.oracle, "integrate_realline", "oracle.quad"),
    (entrokit.oracle, "integrate_interval", "oracle.quad"),
    (entrokit.oracle, "discrete_entropy_sum", "oracle.series"),
    (entrokit.limits, "poisson_entropy", "limits"),
    (entrokit.limits, "binomial_to_poisson", "limits"),
    (entrokit.limits, "nb_to_logarithmic", "limits"),
    (entrokit.gaussian, "fgn_covariance", "gaussian.cov"),
    (entrokit.gaussian, "CovMatrix", "gaussian.cov"),
    (entrokit.gaussian, "det_psd", "gaussian.det"),
    (entrokit.gaussian, "gaussian_entropy", "gaussian.entropy"),
]

class Tracer:
    """Spans and per-layer counters of one traced loop (single-threaded)."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index, op id)
        self.op_id = -1
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)  # "<layer>.<counter>" -> count
        self._stack = []  # open spans: [index, child_ns]
        self._depth = defaultdict(int)  # open spans per layer

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append([idx, 0])
        return idx, time.perf_counter_ns()

    def _close(self, name, layer, idx, start):
        end = time.perf_counter_ns()
        _, child = self._stack.pop()
        self.self_ns[layer] += end - start - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += end - start
        self.spans[idx] = (name, start, end, parent[0] if parent else -1, self.op_id)

    def op(self, op_id, fn):
        """Run one op under a root span charged to the benchmark itself."""
        self.op_id = op_id
        idx, start = self._open()
        try:
            return fn()
        finally:
            self._close("op", "harness", idx, start)

    def _wrap(self, fn, name, layer):
        counts, depth = self.counts, self._depth
        on_enter = _ENTER.get(layer)
        on_exit = _EXIT.get(layer)

        def wrapper(*args, **kwargs):
            if depth[layer] == 0:  # calls into the layer, not its calls to itself
                counts[layer + ".calls"] += 1
            if on_enter is not None:
                args = on_enter(self, name, args)
            depth[layer] += 1
            idx, start = self._open()
            try:
                out = fn(*args, **kwargs)
            except _ORACLE_ERRORS:
                if depth["oracle.quad"] + depth["oracle.series"] == 1:
                    counts["oracle.errors"] += 1
                raise
            finally:
                self._close(name, layer, idx, start)
                depth[layer] -= 1
            if on_exit is not None:
                on_exit(self, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        try:
            for mod, attr, layer in TARGETS:
                setattr(mod, attr, self._wrap(getattr(mod, attr), f"{mod.__name__}.{attr}", layer))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


def _special_enter(tracer, name, args):
    tracer.counts["special.points"] += int(np.size(args[0]))
    return args


def _distributions_enter(tracer, name, args):
    if name.endswith(("logpdf", "logpmf")):
        n = int(np.size(args[1]))
        tracer.counts["distributions.points"] += n
        if tracer._depth["oracle.series"] and name.endswith("logpmf"):
            tracer.counts["oracle.series_terms"] += n
    return args


def _quad_enter(tracer, name, args):
    if not name.endswith("integrate_interval"):
        return args
    tracer.counts["oracle.quad_runs"] += 1  # one adaptive Gauss-Kronrod run
    f = args[0]

    def counted(x):
        tracer.counts["oracle.integrand_points"] += int(np.size(x))
        return f(x)

    return (counted,) + tuple(args[1:])


def _det_exit(tracer, out):
    if tracer._depth["gaussian.entropy"] == 0:  # the op's own det_psd, not the entropy's
        tracer.counts["gaussian.singular"] += int(bool(out.singular))


_ENTER = {
    "special": _special_enter,
    "distributions": _distributions_enter,
    "oracle.quad": _quad_enter,
}
_EXIT = {"gaussian.det": _det_exit}
