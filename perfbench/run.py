"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload {ensemble,nyc,power,sweep} --seed N \
        --seconds S --trace {0,1}

From the root of a source checkout, with numpy and scipy installed; sirlimits
is imported from ``src``. The run repeats whole passes of the workload until
``--seconds`` have elapsed, checks the outputs of the last pass (every pass
must hash the same), and prints one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-layer ones from spans
recorded around the calls into sirlimits. A fuller record, with the machine
and the failure reasons, goes to ``perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy  # noqa: E402  (sirlimits and the benchmark load from the checkout)
import scipy  # noqa: E402

from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, manifest_hashes  # noqa: E402

RESULTS = ROOT / "perfbench" / "results"
SETUP_PROBES = 3
# Thread-count variables of BLAS and OpenMP runtimes: recorded, never set.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the workload, print 'ready' and exit (times set-up)")
    return parser.parse_args(argv)


def build(args):
    """The workload's inputs. A traced ensemble fits in this process, where the spans are."""
    options = {"workers": 1} if args.trace and args.workload == "ensemble" else {}
    return WORKLOADS[args.workload](args.seed, **options)


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib():
    """Largest resident set of this process or any child it has waited for (Linux: KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def setup_seconds(args):
    """Wall time from starting a fresh interpreter to its workload being built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return elapsed


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment():
    return {
        "thread_variables": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "machine": platform.machine(),
    }


def timed_passes(workload, seconds, out_dir, tracer):
    """Whole passes until ``seconds`` have elapsed; per-pass wall and CPU time."""
    passes, first_hashes, mismatched = [], None, []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        if tracer is None:
            manifests = workload.run_pass(out_dir)
        else:
            with tracer:
                manifests = workload.run_pass(out_dir)
        wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
        passes.append({"wall_s": wall, "cpu_s": cpu})
        hashes = manifest_hashes(manifests)
        if first_hashes is None:
            first_hashes = hashes
        elif hashes != first_hashes:
            mismatched.append(len(passes) - 1)
    return passes, mismatched


def main(argv=None):
    args = parse_args(argv)
    workload = build(args)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    tracer = Tracer() if args.trace else None
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    out_dir = RESULTS / f"work-{tag}-{os.getpid()}"
    try:
        passes, mismatched = timed_passes(workload, args.seconds, out_dir, tracer)
        rss = peak_rss_mib()
        verdict = workload.check(workload.read(out_dir))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if mismatched:
        verdict.errors.append(f"passes {mismatched} hash differently from the first pass")

    ops = workload.ops_per_pass
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_seconds(args) for _ in range(SETUP_PROBES)), "s"),
            "ops_per_s": (statistics.median(ops / p["wall_s"] for p in passes), "1/s"),
            "cpu_s_per_op": (statistics.median(p["cpu_s"] / ops for p in passes), "s"),
            "peak_rss_mib": (rss, "MiB"),
        }
    else:
        metrics = {k: (v, unit) for k, (v, unit, _) in tracer.metrics(len(passes)).items()}
        tracer.write(RESULTS / f"spans-{tag}.jsonl")

    result = {
        "correct": not verdict.errors,
        "attempted": ops * len(passes),
        "failed": len(verdict.failed) * len(passes),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    record = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": passes, "failed_operations": verdict.failed,
              "errors": verdict.errors, "environment": environment()}
    (RESULTS / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"environment: {json.dumps(record['environment'])}")
    for op, reasons in verdict.failed.items():
        print(f"failed operation {op}: {'; '.join(reasons)}")
    for error in verdict.errors:
        print(f"error: {error}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
