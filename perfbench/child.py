"""One benchmark repetition in a fresh process: set up, run one runner, write its CSV.

    python3 perfbench/child.py --kind KIND --seed N --csv PATH [--trace] [--setup-only]

Prints one JSON line: the CLOCK_MONOTONIC instant the runner was called (the
parent subtracts its launch instant to get the set-up time), the wall time
from the runner call until the CSV is closed, the process's peak resident
memory and, with --trace, the per-layer metrics.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--kind", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--csv", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import riskshift  # noqa: F401  (set-up includes the package import)
    from riskshift.harness import config as config_module
    from riskshift.harness import runners

    tracer = None
    build = config_module.config_from_mapping
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        build = tracer.wrap("harness.config.config_from_mapping", build)
        tracer.instrument(runners, args.kind)
    config = build(args.kind, {}, seed_override=args.seed, out_override=args.csv)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"ready": ready}
    if not args.setup_only:
        start = time.perf_counter()
        header, rows = runners.RUNNERS[args.kind](config)
        runners.write_csv(config["output_path"], header, rows)
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["config"] = dict(config.values)
        if tracer is not None:
            result["layers"] = tracer.metrics()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
