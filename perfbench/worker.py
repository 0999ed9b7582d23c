"""One workload in a fresh interpreter: set up, run timed passes, check results.

run.py starts it.  qmc (and with it numpy) is imported inside main(),
after the set-up clock starts.  The last line of stdout is a JSON object
with the set-up time, each pass's per-task times, the reference probe
times of each pass (probe.py) and the task outcomes; with ``--trace 1``
it also carries the per-layer metrics, and the spans are written to
``perfbench/out/``.

    python3 perfbench/worker.py --workload spectral --seed 1 --seconds 38 \
        --trace 0 [--setup-only]
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROBE_EVERY_S = 0.25
SETUP_PROBES = 3  # mixed-probe runs right after set-up, to scale setup_s


def _import_package():
    """Import qmc from this checkout's src/, never from an installed copy."""
    init = ROOT / "src" / "qmc" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import qmc

    if Path(qmc.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported qmc from {qmc.__file__}, expected {init}")


def run_pass(tasks, pass_no, tracer=None, probe=None):
    """Run every task once.

    Returns ([seconds per task], [(task, failure reason)], [probe seconds]).
    With a ``probe`` callable, it runs before the first task, after the
    last, and between tasks whenever PROBE_EVERY_S has passed since the
    previous probe; otherwise the probe list is empty.
    """
    probe_s = []
    last_probe = -PROBE_EVERY_S
    state = {}
    failures = []
    task_s = []
    gc.collect()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.context = (pass_no, i)
        if probe is not None and time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probe_s.append(probe())
            last_probe = time.perf_counter()
        start = time.perf_counter()
        try:
            reason = task.run(state)
        except Exception:  # an unexpected error is a failed task, not a crashed run
            reason = traceback.format_exc(limit=3).strip().splitlines()[-1]
        task_s.append(time.perf_counter() - start)
        if reason is not None:
            failures.append((task.name, reason))
    if probe is not None:
        probe_s.append(probe())
    return task_s, failures, probe_s


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    OUT.mkdir(exist_ok=True)

    # set-up: import the package, then build the workload's inputs
    t0 = time.perf_counter()
    _import_package()
    sys.path.insert(0, str(HERE))
    import workloads

    t_import = time.perf_counter()
    tasks = workloads.BUILDERS[args.workload](args.seed, OUT)
    t_built = time.perf_counter()
    import probe

    ref_probe = probe.PROBES[args.workload]
    result = {
        "setup_s": t_built - t0,
        "import_s": t_import - t0,
        "setup_probe_s": statistics.median(probe.mixed() for _ in range(SETUP_PROBES)),
    }
    if args.setup_only:
        print(json.dumps(result))
        return

    import envinfo

    result["env"] = envinfo.collect()
    result["tasks"] = [t.name for t in tasks]
    deadline = time.perf_counter() + args.seconds
    passes, probes, failures = [], [], []

    def room_for(n_more):
        typical = statistics.median(sum(t) + sum(p) for t, p in zip(passes, probes))
        return time.perf_counter() + n_more * typical <= deadline

    # untraced passes fill the budget; a traced run keeps room for its traced pass
    reserve = 2 if args.trace else 1
    while not passes or room_for(reserve):
        task_s, fails, probe_s = run_pass(tasks, len(passes), probe=ref_probe)
        passes.append(task_s)
        probes.append(probe_s)
        failures += fails
    attempted = len(passes) * len(tasks)

    if args.trace:
        import tracer as tr

        tracer = tr.Tracer()
        tr.install(tracer)
        try:
            traced, fails, _ = run_pass(tasks, len(passes), tracer)
        finally:
            tracer.uninstall()
        failures += fails
        attempted += len(tasks)
        result["traced_pass"] = traced
        result["layers"] = tr.layer_metrics(tracer)
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(
            span_file,
            {"workload": args.workload, "seed": args.seed, "env": result["env"],
             "tasks": result["tasks"]},
        )
        result["span_file"] = str(span_file.relative_to(ROOT))

    result["passes"] = passes
    result["probes"] = probes
    result["attempted"] = attempted
    result["failures"] = failures
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
