"""Regenerate the reference CSVs in this directory from the code as it stands.

    PYTHONPATH=src python tests/reference/regenerate.py

Each reference is the CSV of one runner at one master seed.  The two sweeps and
cs-validate run at trials = 1, which gives the trial-0 rows of their default
CSVs because each trial draws from its own streams, and denoise at its default
config, each at master seeds 0 and 7; relation-curves and counterexample, which
read no seed, run their default configs at seed 0.
tests/test_reference_outputs.py reruns each and compares it cell by cell.  A
change that regenerates a reference says which cells moved, by how much and why.
"""

from pathlib import Path

from riskshift.harness.config import (
    KIND_CLASSIFICATION,
    KIND_COUNTEREXAMPLE,
    KIND_CS,
    KIND_DENOISE,
    KIND_REGRESSION,
    KIND_RELATION,
    config_from_mapping,
)
from riskshift.harness.runners import run_and_write

HERE = Path(__file__).resolve().parent

# (kind, master seed, the config keys that differ from the kind's defaults)
REFERENCES = [
    (kind, seed, keys)
    for kind, keys in (
        (KIND_REGRESSION, {"trials": "1"}),
        (KIND_CLASSIFICATION, {"trials": "1"}),
        (KIND_DENOISE, {}),
        (KIND_CS, {"trials": "1"}),
    )
    for seed in (0, 7)
] + [(kind, 0, {}) for kind in (KIND_RELATION, KIND_COUNTEREXAMPLE)]


def reference_path(kind, seed):
    return HERE / f"{kind}-s{seed}.csv"


def write_run(kind, seed, keys, path):
    """Run kind at master seed `seed` with the given config keys and write its CSV to path."""
    return run_and_write(config_from_mapping(kind, keys, seed_override=seed, out_override=str(path)))


if __name__ == "__main__":
    for kind, seed, keys in REFERENCES:
        path, n_rows = write_run(kind, seed, keys, reference_path(kind, seed))
        print(f"wrote {n_rows} rows to {path}")
