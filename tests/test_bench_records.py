"""The committed benchmark trajectory: BENCH_<workload>.json files at the repository root.

Each file is a list of records, one appended per change that measured the
workload with perfbench; a record compares a commit with its parent.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_FIELDS = {"nproc", "python", "numpy", "openblas"}
METRICS = {"wall_s", "setup_s", "peak_rss_mb"}
SUMMARY_FIELDS = {"median", "q1", "q3"}


def test_every_bench_record_parses_with_its_environment():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert {"BENCH_denoise.json", "BENCH_counterexample-mc.json"} <= {p.name for p in paths}
    for path in paths:
        records = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(records, list) and records, path.name
        for record in records:
            assert record["workload"] == path.stem[len("BENCH_"):]
            assert record["commit"] and record["parent"]
            assert ENV_FIELDS <= set(record["env"]), (path.name, record["commit"])
            assert record["pairs"] == len(record["seeds"]) >= 1
            assert set(record["metrics"]) == METRICS
            for metric in record["metrics"].values():
                for side in ("parent", "change"):
                    assert SUMMARY_FIELDS <= set(metric[side])
                    assert metric[side]["q1"] <= metric[side]["median"] <= metric[side]["q3"]
            for side in ("parent", "change"):
                assert len(record["correct"][side]) == record["pairs"]
                assert all(isinstance(flag, bool) for flag in record["correct"][side])
