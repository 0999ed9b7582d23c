"""qmc benchmark: time each workload end to end, or trace it per layer.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38

Each workload runs in a fresh interpreter (worker.py), started from this
process one at a time, so one process generates all the load.  Set-up
time is measured in several more fresh interpreters and reported as the
median.  Both gated times are scaled by a reference probe (probe.py) to
the speed of a quiet host; README.md says why.  The last stdout line is
one JSON object:

    {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, scaled_wall_s,
peak_rss_mb, ok_frac); with ``--trace 1`` they are the per-layer ones
listed in README.md.  Every run also writes its full record (environment,
all pass times, failures) to perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("spectral", "horizon", "sampler")
SETUP_RUNS = 4  # extra fresh interpreters; the worker's own set-up makes five
PROBE_REF_S = 0.04  # one probe.probe() call on a quiet 2-vCPU Xeon VM
RUN_LIMIT_S = 170.0


def _worker_env():
    """One BLAS thread and QMC_THREADS unset.

    On a 2-vCPU VM, two OpenBLAS threads made 256 x 256 complex matvecs
    twice as slow as one, left d = 32 eig no faster, and stretched a
    spectral pass from 13 s to 150 s while another process shared the
    CPUs: their spin-waits turn any contention into noise.
    """
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env.pop("QMC_THREADS", None)
    return env


def _worker(args, env, timeout):
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def median_pass(passes):
    """Sum over tasks of each task's median wall time across passes."""
    return sum(statistics.median(times) for times in zip(*passes))


def scaled_pass(passes, probes):
    """One pass at the reference speed: the gated time metric.

    Each task's time is divided by the median probe time of its pass, and
    the median of that ratio across passes, summed over tasks, is scaled
    by PROBE_REF_S.  On a shared host the CPU's speed swings by up to 2x,
    within seconds and over whole minutes, so raw times of the same code
    spread by 15-40% between runs; the probe slows with the host but not
    with a change to qmc, so the ratio keeps only the program's share.
    """
    ratios = [[t / statistics.median(pr) for t in p] for p, pr in zip(passes, probes)]
    return PROBE_REF_S * sum(statistics.median(r) for r in zip(*ratios))


def run_workload(workload, seed, seconds, trace, deadline):
    env = _worker_env()
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    for _ in range(SETUP_RUNS):
        setups.append(
            _worker(common + ["--setup-only"], env, max(1.0, deadline - time.monotonic()))
        )
    res = _worker(common + ["--trace", str(trace)], env, max(1.0, deadline - time.monotonic()))
    setups.append({k: res[k] for k in ("setup_s", "import_s", "setup_probe_s")})
    passes = res["passes"]
    totals = [sum(p) for p in passes]
    failed = len(res["failures"])
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": res["env"],
        "tasks": res["tasks"],
        "setups": setups,
        "passes": passes,
        "probes": res["probes"],
        "setup_s": PROBE_REF_S
        * statistics.median(s["setup_s"] / s["setup_probe_s"] for s in setups),
        "setup_raw_s": statistics.median(s["setup_s"] for s in setups),
        "scaled_wall_s": scaled_pass(passes, res["probes"]),
        "wall_s": median_pass(passes),
        "probe_s": statistics.median(x for pr in res["probes"] for x in pr),
        "pass_quartiles": quartiles(totals),
        "peak_rss_mb": res["peak_rss_mb"],
        "attempted": res["attempted"],
        "failures": res["failures"],
    }
    if trace:
        traced = sum(res["traced_pass"])
        metrics = dict(res["layers"])
        metrics["trace.wall_s"] = {"value": traced, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced - record["wall_s"], "unit": "s"}
        metrics["setup.import_s"] = {
            "value": statistics.median(s["import_s"] for s in setups),
            "unit": "s",
        }
        record["traced_pass"] = res["traced_pass"]
        record["layers"] = metrics
        record["span_file"] = res["span_file"]
    else:
        metrics = {
            "setup_s": {"value": record["setup_s"], "unit": "s"},
            "scaled_wall_s": {"value": record["scaled_wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": (res["attempted"] - failed) / res["attempted"], "unit": "ratio"},
        }
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return record, metrics


def _summary_line(rec):
    q1, q3 = rec["pass_quartiles"]
    fail_frac = len(rec["failures"]) / rec["attempted"]
    return (
        f"{rec['workload']:9s} setup_s={rec['setup_s']:.4f} (raw {rec['setup_raw_s']:.4f}) "
        f"scaled_wall_s={rec['scaled_wall_s']:.4f} (passes={len(rec['passes'])}) "
        f"wall_s={rec['wall_s']:.4f} (pass total q1={q1:.4f} q3={q3:.4f}, "
        f"median probe {rec['probe_s']:.4f} s) "
        f"peak_rss_mb={rec['peak_rss_mb']:.1f} fail_frac={fail_frac:.4f} "
        f"({len(rec['failures'])}/{rec['attempted']})"
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    init = ROOT / "src" / "qmc" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from the root of a qmc checkout")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    start = time.monotonic()
    attempted = failed = 0
    all_metrics = {}
    for wl in names:
        deadline = start + RUN_LIMIT_S * (names.index(wl) + 1)
        rec, metrics = run_workload(wl, args.seed, args.seconds, args.trace, deadline)
        print(_summary_line(rec))
        for f_task, reason in rec["failures"]:
            print(f"  FAILED {f_task}: {reason}")
        attempted += rec["attempted"]
        failed += len(rec["failures"])
        if args.workload == "all":
            metrics = {f"{wl}.{k}": v for k, v in metrics.items()}
        all_metrics.update(metrics)
    print(f"env: {json.dumps(rec['env'], sort_keys=True)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": all_metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
