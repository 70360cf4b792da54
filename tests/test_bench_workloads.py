"""The benchmark's own check of every gated workload, run at the seeds a benchmark run may draw.

perfbench/workloads.py is imported from its file as it stands; each workload in
BENCHMARK.json runs its runner at the default config, writes its CSV and must
pass the same check_csv verdict a benchmark repetition reports.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from riskshift.harness.config import config_from_mapping
from riskshift.harness.runners import RUNNERS, write_csv

ROOT = Path(__file__).resolve().parent.parent


def _workloads_module():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _workloads_module()
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
