"""Print the ROADMAP baseline rows from traced runs' span files and run records.

    python3 perfbench/run.py --workload all --seed 1 --seconds 38 --trace 1
    python3 perfbench/baseline.py --seed 1

Rows: ``analyze`` and ``split`` at d = 16 and 32 (k = 2), ``qfi_curve``
at n = 8000 (time, tracemalloc peak, process peak RSS), sampler steps per
second for the m1 estimator, and the cold start of ``import qmc``.
"""

import argparse
import json
import statistics
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def _load(kind, workload, seed):
    name = f"spans-{workload}-seed{seed}.json" if kind == "spans" else f"run-{workload}-seed{seed}-trace1.json"
    return json.loads((OUT / name).read_text())


def span_seconds(doc, span_name, task_name):
    """Seconds in the outermost ``span_name`` spans of one task."""
    task = doc["tasks"].index(task_name)
    idx = doc["names"].index(span_name)
    spans = doc["spans"]
    raw = 0.0
    for s in spans:
        if s[0] == idx and s[5] == task:
            p = s[3]
            while p >= 0 and spans[p][0] != idx:
                p = spans[p][3]
            if p < 0:
                raw += s[2] - s[1]
    return raw


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    spectral = _load("spans", "spectral", args.seed)
    horizon = _load("spans", "horizon", args.seed)
    sampler = _load("spans", "sampler", args.seed)
    h_run = _load("run", "horizon", args.seed)

    rows = []
    for fn, span in (("analyze", "ergodic.analyze"), ("split", "gauge.split")):
        for d in (16, 32):
            rows.append((f"L1 `{fn}`, random chain k=2, d={d}",
                         f"{span_seconds(spectral, span, f'{fn}:d{d}k2'):.3f} s"))
    peak = h_run["layers"]["statmodel.qfi_curve.peak_alloc_mb"]["value"]
    rows.append(
        ("L2 `qfi_curve` m1, n=8000 (timed under tracemalloc)",
         f"{span_seconds(horizon, 'statmodel.qfi_curve', 'qfi:m1'):.3f} s; tracemalloc peak "
         f"{peak:.0f} MB; process peak RSS {h_run['peak_rss_mb']:.0f} MB")
    )
    busy = span_seconds(sampler, "trajectories.sample_batch", "run_estimator:m1")
    steps = 2000 * 500
    rows.append(
        ("L3 `sample_batch` m1, 500 trials x 2000 steps",
         f"{busy:.3f} s, {steps / busy:.3g} steps/s")
    )
    imports = statistics.median(s["import_s"] for s in h_run["setups"])
    rows.append(("L4 cold `import qmc`, median of 5 fresh interpreters", f"{imports:.3f} s"))
    print("| row | traced run |")
    print("|---|---|")
    for name, value in rows:
        print(f"| {name} | {value} |")


if __name__ == "__main__":
    main()
