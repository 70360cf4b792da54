"""Benchmark of riskshift's experiment runners, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; nothing needs to be installed.  Each
repetition is a fresh child process (perfbench/child.py) that imports the
package, builds the runner's default config with master_seed = --seed, calls
the runner and writes its CSV.  Repetitions run one at a time until --seconds
have passed; every CSV is checked (perfbench/workloads.py).

--trace 0 reports the end-to-end metrics: wall_s (runner call until the CSV is
closed, median over repetitions), setup_s (process launch until the runner is
called, median of at least eleven launches) and peak_rss_mb (median peak
resident memory of a repetition's process).

--trace 1 alternates untraced and traced repetitions and reports the per-layer
metrics of perfbench/spans.py plus the tracing overhead and the run's accuracy
figures.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A full record, with the environment, goes to
.bench_out/BENCH_<workload>_seed<N>_trace<T>.json.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 11
# children still running this many seconds after the run started are killed
RUN_LIMIT_S = 170
# time kept free after the last repetition for set-up samples and the report
RESERVE_S = 10


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(kind, seed, csv_path, deadline, trace=False, setup_only=False):
    """Launch one child and return its result dict, or raise RuntimeError if it failed."""
    cmd = [sys.executable, str(HERE / "child.py"), "--kind", kind, "--seed", str(seed),
           "--csv", str(csv_path)]
    cmd += ["--trace"] if trace else []
    cmd += ["--setup-only"] if setup_only else []
    launched = _now()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(deadline - launched, 0))
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"child killed at the {RUN_LIMIT_S} s run limit") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - launched
    return result


def blas_threads():
    """Thread count of each OpenBLAS library loaded in this process, by file name."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    threads = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return threads


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _python_files(directory):
    return sorted((ROOT / directory).rglob("*.py"))


def environment():
    import numpy
    import scipy

    from riskshift._kernels import kernel_backend

    digest = hashlib.sha256()
    for path in _python_files("src"):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads()
    return {
        "nproc": nproc,
        "blas_threads": threads,
        "blas_threads_within_nproc": all(t <= nproc for t in threads.values()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {
            "numpy": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
            "scipy": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        },
        "kernel_backend": kernel_backend(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "loc": {d: sum(len(p.read_text(encoding="utf-8").splitlines()) for p in _python_files(d))
                for d in ("src", "tests")},
    }


def unit_of(name):
    """Unit of a reported metric, from its name."""
    if name.startswith("check."):
        return "risk"
    for suffix, unit in (("draws_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_frac", "ratio"),
                         ("_mb", "MiB")):
        if name.endswith(suffix):
            return unit
    return "count"


def repetitions(workload, args, csv_path, check_csv, deadline):
    """Run repetitions until --seconds have passed; returns (attempted, completed reps, failures)."""
    modes = (False, True) if args.trace else (False,)
    reps, failures, attempted = [], [], 0
    run_child(workload.kind, args.seed, csv_path, deadline, setup_only=True)  # warm caches, untimed
    measure_start = _now()
    while True:
        for traced in modes:
            attempted += 1
            started = _now()
            try:
                rep = run_child(workload.kind, args.seed, csv_path, deadline, trace=traced)
            except RuntimeError as exc:
                failures.append(str(exc))
                print(f"rep {attempted}: FAIL {exc}")
                continue
            finally:
                last = _now() - started
            check = check_csv(workload, csv_path, rep["config"])
            csv_path.unlink()
            rep.update(traced=traced, passed=check.passed, check=check.detail,
                       relation_gap_max=check.relation_gap_max, mc_se_max=check.mc_se_max)
            reps.append(rep)
            if not check.passed:
                failures.append(check.detail)
            print(f"rep {attempted}: {'traced' if traced else 'untraced'} "
                  f"wall_s {rep['wall_s']:.4f} setup_s {rep['setup_s']:.4f} "
                  f"peak_rss_mb {rep['peak_rss_mb']:.1f} "
                  f"check {'PASS' if check.passed else 'FAIL'}: {check.detail}")
        if _now() - measure_start >= args.seconds:
            break
        if _now() + last * len(modes) > deadline - RESERVE_S:
            break
    return attempted, reps, failures


def main():
    deadline = _now() + RUN_LIMIT_S
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "riskshift" / "__init__.py").is_file():
        print(f"error: no riskshift package under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS, check_csv

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    csv_path = OUT / f"{args.workload}-{os.getpid()}.csv"
    env = environment()
    print(f"riskshift benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))

    attempted, reps, failures = repetitions(workload, args, csv_path, check_csv, deadline)
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if not untraced or (args.trace and not traced):
        print("error: no repetition completed", file=sys.stderr)
        return 1
    median = statistics.median
    wall = median(r["wall_s"] for r in untraced)
    if args.trace:
        values = {name: median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        traced_wall = median(r["wall_s"] for r in traced)
        values.update({
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": wall,
            "trace.overhead_frac": traced_wall / wall - 1.0,
            "check.relation_gap_max": reps[0]["relation_gap_max"],
            "check.mc_se_max": reps[0]["mc_se_max"],
        })
    else:
        setups = [r["setup_s"] for r in untraced]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_child(workload.kind, args.seed, csv_path, deadline,
                                    setup_only=True)["setup_s"])
        values = {
            "wall_s": wall,
            "setup_s": median(setups),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
        }
    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}

    print(f"verdict: {'FAIL' if failures else 'PASS'} (fail_frac {len(failures)}/{attempted})")
    for failure in failures:
        print(f"  failed: {failure}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, env=env, config=reps[0]["config"],
                  repetitions=[{k: v for k, v in r.items() if k != "config"} for r in reps],
                  failures=failures)
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
