"""Span tracer that wraps riskshift's public functions from outside the package.

A traced run replaces the layer functions imported into the
``riskshift.harness.runners`` namespace with timing wrappers, so every call a
runner makes into a layer is one span.  The wrappers live only in the child
process of that run.  A span's self time is its duration minus the durations
of the wrapped spans it called.
"""

import functools
import statistics
import time
import types

# Package modules whose functions the runners call, by their layer name.
LAYERS = {
    "riskshift.harness.config": "harness.config",
    "riskshift.harness.runners": "harness.runners",
    "riskshift.estimators": "estimators",
    "riskshift.risk": "risk",
    "riskshift.shiftmodel": "shiftmodel",
    "riskshift.datagen": "datagen",
    "riskshift.subspace": "subspace",
    "riskshift.inverse": "inverse",
    "riskshift.theory": "theory",
}

# Functions whose per-call latency is reported as a median and a tail percentile.
LATENCY_SPANS = (
    "estimators.ridge_fit",
    "estimators.erm_fit",
    "risk.mc_metric_risk",
    "inverse.cs_operator",
)

SELF_SPANS = (
    "estimators.ridge_fit",
    "estimators.erm_fit",
    "risk.decision_cov",
    "risk.mc_metric_risk",
    "shiftmodel.subspace_shift_model",
    "shiftmodel.task_dependent_model",
    "shiftmodel.shift_parameters",
    "datagen.sample_covariates",
    "datagen.label",
    "inverse.cs_operator",
    "inverse.cs_relation_residual",
    "inverse.gaussian_measurement",
    "inverse.inner_product_preservation_stats",
    "inverse.denoise_risks",
    "inverse.denoise_relation_residual",
    "subspace.overlapping_pair",
    "subspace.principal_angles",
    "harness.runners.write_csv",
    "harness.config.config_from_mapping",
)

CALL_SPANS = ("estimators.ridge_fit", "estimators.erm_fit", "risk.decision_cov",
              "risk.mc_metric_risk", "inverse.cs_operator")

MC_METRICS = ("logistic", "hinge")


class _Span:
    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.durations = []
        self.counters = {}

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value


def _observe_erm(span, args, result, duration):
    span.add("newton_iters", result.iterations)
    span.counters["newton_iters_max"] = max(span.counters.get("newton_iters_max", 0), result.iterations)
    span.add("nonconverged", int(not result.converged))


def _observe_mc(span, args, result, duration):
    metric, n_draws = args[1].name.lower(), int(args[2])
    span.add("draws", n_draws)
    span.add(f"{metric}.draws", n_draws)
    span.add(f"{metric}.seconds", duration)


_OBSERVERS = {"estimators.erm_fit": _observe_erm, "risk.mc_metric_risk": _observe_mc}


class Tracer:
    """Collects spans in memory; one tracer per traced run."""

    def __init__(self):
        self.spans = {}
        self._open = []  # summed child durations of each open span

    def wrap(self, name, fn):
        span = self.spans.setdefault(name, _Span())
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = self._open.pop()
                if self._open:
                    self._open[-1] += duration
                span.calls += 1
                span.self_s += duration - children
                span.durations.append(duration)
            if observe is not None:
                observe(span, args, result, duration)
            return result

        return traced

    def instrument(self, runners, kind):
        """Wrap the runner for `kind`, write_csv and every layer function the runners import."""
        for attr, obj in list(vars(runners).items()):
            layer = LAYERS.get(getattr(obj, "__module__", None))
            if isinstance(obj, types.FunctionType) and layer is not None and layer != "harness.runners":
                setattr(runners, attr, self.wrap(f"{layer}.{attr}", obj))
        runners.write_csv = self.wrap("harness.runners.write_csv", runners.write_csv)
        runners.RUNNERS[kind] = self.wrap("harness.runners.body", runners.RUNNERS[kind])

    def metrics(self):
        """Flat per-layer metrics; functions that were never called report 0."""
        out = {}
        for layer in LAYERS.values():
            out[f"{layer}.self_s"] = sum(
                s.self_s for name, s in self.spans.items() if name.rsplit(".", 1)[0] == layer
            )
        # config is built before the runner call, so it is outside the traced wall time
        out["trace.self_sum_s"] = sum(v for k, v in out.items() if k != "harness.config.self_s")
        empty = _Span()
        for name in SELF_SPANS:
            out[f"{name}.self_s"] = self.spans.get(name, empty).self_s
        for name in CALL_SPANS:
            out[f"{name}.calls"] = self.spans.get(name, empty).calls
        for name in LATENCY_SPANS:
            durations = self.spans.get(name, empty).durations
            p50, tail = latency_summary(durations)
            out[f"{name}.p50_ms"] = 1e3 * p50
            out[f"{name}.ptail_ms"] = 1e3 * tail
        erm = self.spans.get("estimators.erm_fit", empty).counters
        for key in ("newton_iters", "newton_iters_max", "nonconverged"):
            out[f"estimators.erm_fit.{key}"] = erm.get(key, 0)
        mc = self.spans.get("risk.mc_metric_risk", empty)
        out["risk.mc_metric_risk.draws"] = mc.counters.get("draws", 0)
        out["risk.mc_metric_risk.draws_per_s"] = _rate(mc.counters.get("draws", 0), mc.self_s)
        for metric in MC_METRICS:
            out[f"risk.mc_metric_risk.{metric}.draws_per_s"] = _rate(
                mc.counters.get(f"{metric}.draws", 0), mc.counters.get(f"{metric}.seconds", 0.0)
            )
        return out


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def latency_summary(durations):
    """(median, tail) of per-call durations.

    The tail is the highest whole nearest-rank percentile with at least 10
    samples beyond it, floor(100 (n - 10) / n) for n calls: p92 at 125 calls,
    p93 at 150 or 160, p86 at 75, p87 at 80.  With 10 or fewer calls there is
    no such percentile and the tail is 0.
    """
    n = len(durations)
    if n == 0:
        return 0.0, 0.0
    if n <= 10:
        return statistics.median(durations), 0.0
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)
    return statistics.median(durations), sorted(durations)[rank - 1]
