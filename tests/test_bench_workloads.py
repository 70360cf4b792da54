"""The benchmark's own check of every gated workload, run at the seeds a benchmark run may draw.

perfbench/workloads.py and perfbench/spans.py are imported from their files as
they stand; each workload in BENCHMARK.json runs its runner at the default
config, writes its CSV and must pass the same check_csv verdict a benchmark
repetition reports, and a traced run must record the layer calls its runner makes.
Every workload, gated or not, must expect the header and row count its runner writes.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import riskshift.harness.runners as runners
from riskshift.harness.config import KIND_CLASSIFICATION, KIND_CS, KIND_DENOISE, KIND_REGRESSION, config_from_mapping
from riskshift.harness.runners import RUNNERS, write_csv

ROOT = Path(__file__).resolve().parent.parent


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _perfbench_module("workloads")
_SPANS = _perfbench_module("spans")
_GATED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", _GATED)
def test_gated_workload_passes_its_benchmark_check(tmp_path, name, seed):
    workload = _WORKLOADS.WORKLOADS[name]
    config = config_from_mapping(workload.kind, {}, seed_override=seed, out_override=str(tmp_path / "run.csv"))
    header, rows = RUNNERS[workload.kind](config)
    write_csv(config["output_path"], header, rows)
    verdict = _WORKLOADS.check_csv(workload, config["output_path"], config)
    assert verdict.passed, verdict.detail


# small dimensions at the default counts (trials, grid points, models): a CSV's header and row count do not depend on d
_SMALL = {
    KIND_REGRESSION: {"d": "20", "n": "25", "d_p": "18", "d_q": "16", "d_pq": "14"},
    KIND_CLASSIFICATION: {"d": "20", "n": "25", "d_p": "18"},
    KIND_DENOISE: {"d": "20", "d_p": "4", "d_q": "4"},
    KIND_CS: {"d": "20", "d_p": "4", "d_q": "4", "d_pq": "2"},
}
_STALE = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 5: its header and 3 * (3 * 25 + 40) rows predate the classification CSV's "
    "gamma, mu and kappa columns and the removal of its theory rows",
)


@pytest.mark.parametrize(
    "name", [pytest.param(name, marks=_STALE) if name == "sweep-classification" else name for name in _WORKLOADS.WORKLOADS]
)
def test_every_workload_expects_its_runners_header_and_row_count(name):
    # the ungated workloads too, which no benchmark run checks
    workload = _WORKLOADS.WORKLOADS[name]
    header, rows = RUNNERS[workload.kind](config_from_mapping(workload.kind, _SMALL.get(workload.kind, {})))
    assert (tuple(header), len(rows)) == (workload.header, workload.rows)


def _traced_calls(monkeypatch, kind, keys):
    """{span name: calls} of one run of kind's runner under perfbench's tracer, and the tracer's metrics."""
    tracer = _SPANS.Tracer()
    with monkeypatch.context() as patch:
        for attr, value in list(vars(runners).items()):
            patch.setattr(runners, attr, value)
        patch.setitem(RUNNERS, kind, RUNNERS[kind])
        tracer.instrument(runners, kind)
        RUNNERS[kind](config_from_mapping(kind, keys))
    return {name: span.calls for name, span in tracer.spans.items()}, tracer.metrics()


def test_tracer_records_the_layer_calls_of_the_trial_draws(monkeypatch):
    # the tracer wraps the layer functions in the runners module's namespace, so a draw
    # that moved out of it would silently zero its traced metrics
    namespace, runner_table = dict(vars(runners)), dict(RUNNERS)
    calls, metrics = _traced_calls(monkeypatch, KIND_DENOISE, {})
    assert calls["subspace.overlapping_pair"] == calls["inverse.denoise_grid"] == 3
    assert metrics["subspace.overlapping_pair.self_s"] > 0 and metrics["inverse.self_s"] > 0
    small = {"d": "60", "n": "120", "d_p": "40", "d_q": "30", "d_pq": "20", "trials": "2", "lambda_points": "3"}
    calls, _ = _traced_calls(monkeypatch, KIND_REGRESSION, small)
    for name in ("shiftmodel.subspace_shift_model", "datagen.sample_covariates", "datagen.label"):
        assert calls[name] == 2, name
    # and every attribute the tracer replaced is restored
    assert dict(vars(runners)) == namespace and dict(RUNNERS) == runner_table
