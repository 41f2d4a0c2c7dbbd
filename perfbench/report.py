"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/report.py

For each workload: one untraced and one traced run at seed 1 (end-to-end
metrics, per-layer metrics, tracing overhead), then two sets of ten
untraced runs, on seeds 1-10 and 11-20 (median and quartile spread of each
end-to-end metric per set, and the second set's median against the
first's).  Runs last BENCHMARK.json's ``run_seconds`` unless ``--seconds``
says otherwise and go one at a time.  The report is printed as Markdown;
the spread runs' values are also written to ``perfbench/out/spread.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("solve", "prices", "auction")
TRACE_SEED = 1
SEEDS = range(1, 11)  # the first set; the second runs on the ten after


def run(workload, seed, seconds, trace):
    """One run's record, with its wall time from start to exit."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall_s = time.perf_counter() - t0
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{done.stdout}\n{done.stderr}")
    record = json.loads((HERE / "out" / f"run-{workload}-seed{seed}-trace{trace}.json").read_text())
    record["wall_s"] = wall_s
    return record


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=int,
                    default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = ap.parse_args(argv)

    plain = {w: run(w, TRACE_SEED, args.seconds, 0) for w in WORKLOADS}
    traced = {w: run(w, TRACE_SEED, args.seconds, 1) for w in WORKLOADS}
    m = plain["solve"]["machine"]
    print(f"Machine: {m['nproc']} CPUs ({m['machine']}), {m['platform']}, Python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, BLAS {m['blas']['name']} "
          f"{m['blas']['version']} pinned to one thread.\n")

    print(f"End-to-end, seed {TRACE_SEED}, {args.seconds} s of operations:\n")
    print("| workload | rounds | ops | ops_per_s (1/s) | op_p50_ms | op_p90_ms | setup_s | "
          "peak_rss_mb | traced op time per round (s) | untraced (s) | tracing overhead |")
    print("| --- | " + "--- | " * 10)
    for w in WORKLOADS:
        r, t = plain[w], traced[w]
        e = {k: v["value"] for k, v in r["metrics"].items()}
        per_round = r["op_time_s"] / sum(r["rounds"])
        traced_round = t["op_time_s"] / sum(t["rounds"])
        p90 = f"{r['op_p90_ms']:.4g}" if "op_p90_ms" in r else "-"
        print(f"| {w} | {sum(r['rounds'])} | {r['attempted']} | {e['ops_per_s']:.4g} | "
              f"{e['op_p50_ms']:.4g} | {p90} | {e['setup_s']:.3g} | {e['peak_rss_mb']:.4g} | "
              f"{traced_round:.3f} | {per_round:.3f} | "
              f"{traced_round - per_round:+.3f} s ({(traced_round / per_round - 1) * 100:+.0f}%) |")

    print(f"\nPer-layer, traced run, seed {TRACE_SEED} (one set-up plus one round):\n")
    print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("| --- | --- | " + "--- | " * len(WORKLOADS))
    for name, unit in ((k, v["unit"]) for k, v in traced["solve"]["metrics"].items()):
        cells = []
        for w in WORKLOADS:
            value = traced[w]["metrics"][name]["value"]
            cells.append(str(value) if unit == "count" else f"{value:.4g}")
        print(f"| {name} | {unit} | " + " | ".join(cells) + " |")

    n = len(SEEDS)
    print(f"\nSpread: two sets of {n} untraced runs, on seeds {SEEDS[0]}-{SEEDS[-1]} and "
          f"{SEEDS[0] + n}-{SEEDS[-1] + n}; per set the median and (Q3 - Q1) / median of each "
          "metric:\n")
    print("| workload | metric | set 1 | set 2 | second median vs first |")
    print("| --- | --- | --- | --- | --- |")
    values = {}
    for w in WORKLOADS:
        sets = [[run(w, s + k * n, args.seconds, 0) for s in SEEDS] for k in (0, 1)]
        for name in sets[0][0]["metrics"]:
            values[f"{w}.{name}"] = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            (med1, iqr1), (med2, iqr2) = (spread(v) for v in values[f"{w}.{name}"])
            print(f"| {w} | {name} | {med1:.4g} ({iqr1 * 100:.1f}%) | "
                  f"{med2:.4g} ({iqr2 * 100:.1f}%) | {(med2 / med1 - 1) * 100:+.1f}% |")
        walls = [r["wall_s"] for runs in sets for r in runs]
        print(f"| {w} | wall time per run (s) | {min(walls):.1f} to {max(walls):.1f} | "
              f"median {statistics.median(walls):.1f} | |")
        (HERE / "out" / "spread.json").write_text(json.dumps(values, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
