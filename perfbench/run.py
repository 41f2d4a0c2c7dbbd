"""Benchmark command for cursedeq.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Runs one workload in WORKERS measuring processes, one after another, each
with one thread and BLAS pinned to one thread.  Each does whole rounds of
the same operations until it has spent its share of ``--seconds`` in them.
Every operation's output is checked; an operation that raises or fails its
check counts as failed.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A record of the run, with the machine it ran on, goes to
``perfbench/out/``; a traced run also writes its spans there.
"""

import time

START = time.perf_counter()  # set-up time counts from here

import os  # noqa: E402

BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# measuring processes per run, one after another: a process's memory layout
# changes the speed of some operations by up to 1.8x, which one process
# cannot average out
WORKERS = 3

# ops_per_s: operations over their summed time; op_p50_ms: median operation
# time; setup_s: median of the workers' set-ups (script start to first
# operation); peak_rss_mb: the largest peak resident memory of a worker
END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metrics of a traced run: (name, unit); see layer_metrics
PER_LAYER = (
    ("tree.node_reach.calls", "count"), ("tree.node_reach.nodes", "count"),
    ("tree.node_reach.self_ms", "ms"),
    ("partition.coarsest_valid_partition.calls", "count"),
    ("partition.coarsest_valid_partition.self_ms", "ms"),
    ("games.prices_game.self_ms", "ms"),
    ("gamefile.parse_game.calls", "count"), ("gamefile.parse_game.self_ms", "ms"),
    ("conjectures.cursed_conjecture.calls", "count"),
    ("conjectures.cursed_conjecture.self_ms", "ms"),
    ("conjectures.limit_conjecture_system.calls", "count"),
    ("conjectures.limit_conjecture_system.self_ms", "ms"),
    ("conjectures.belief.calls", "count"), ("conjectures.belief.self_ms", "ms"),
    ("conjectures.check_cursed_plausible.calls", "count"),
    ("conjectures.check_cursed_plausible.self_ms", "ms"),
    ("conjectures.tremble_path.calls", "count"),
    ("conjectures.tremble_path.profiles", "count"),
    ("bestresponse.optimize_plan.calls", "count"), ("bestresponse.optimize_plan.self_ms", "ms"),
    ("bestresponse.check_local_best_response.calls", "count"),
    ("bestresponse.check_local_best_response.self_ms", "ms"),
    ("solvers.iterations", "count"), ("solvers.solve.self_ms", "ms"),
    ("solvers.LimitOracle.artifacts.calls", "count"),
    ("solvers.LimitOracle.artifacts.self_ms", "ms"),
    ("solvers.enumerate_support_equilibrium.calls", "count"),
    ("solvers.enumerate_support_equilibrium.self_ms", "ms"),
    ("solvers.root.calls", "count"), ("solvers.root.self_ms", "ms"),
    ("solvers.support_enumeration.results", "count"),
    ("bayesian.solve_ce.calls", "count"), ("bayesian.solve_ce.self_ms", "ms"),
    ("bayesian.solve_ice.calls", "count"), ("bayesian.solve_ice.self_ms", "ms"),
    ("bayesian.type_action_values.calls", "count"),
    ("bayesian.type_action_values.self_ms", "ms"),
    ("bayesian.root.calls", "count"), ("bayesian.root.self_ms", "ms"),
    ("golden.prices_predictions.self_ms", "ms"), ("golden.voting_predictions.self_ms", "ms"),
    ("golden.cells", "count"),
    ("auctions.estimate_conditionals.calls", "count"),
    ("auctions.estimate_conditionals.self_ms", "ms"),
    ("auctions.samples", "count"), ("auctions.ode.self_ms", "ms"),
    ("auctions.bid_silent_english.self_ms", "ms"),
    ("auctions.bid_canonical_english.self_ms", "ms"),
    ("auctions.verify_orderings.self_ms", "ms"),
    ("auctions.winner_curse_experiment.self_ms", "ms"),
    ("auctions.clearing_prices.calls", "count"), ("auctions.clearing_prices.rows", "count"),
    ("auctions.clearing_prices.self_ms", "ms"),
)
# metrics that sum the self time of several spans
COMBINED = {"auctions.ode.self_ms": ("auctions.solve_first_price", "auctions.solve_dutch")}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("solve", "prices", "auction"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", type=int, help="run as measuring process number N")
    return ap.parse_args(argv)


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads
    return workloads


def fingerprint(output):
    return pickle.dumps(output, protocol=5)


def judge_first_round(workload, outputs, raised, tracer):
    """Check one round's outputs: op name -> (fingerprint, problems).
    Outputs are not checked when an operation of the round raised."""
    if tracer is not None:
        tracer.enabled = False
    try:
        if raised:
            found = {name: ["not checked: another operation of the round raised"]
                     for name in outputs}
        else:
            found = workload.check(outputs)
    except Exception as exc:  # a check that breaks is a failed check
        found = {name: [f"check raised {type(exc).__name__}: {exc}"] for name in outputs}
    finally:
        if tracer is not None:
            tracer.enabled = True
    return {name: (fingerprint(out), found.get(name, [])) for name, out in outputs.items()}


def run_rounds(workload, seconds, tracer=None):
    """Whole rounds until the operations have taken ``seconds`` in all (time
    spent checking does not count).  The first round's outputs are checked
    in full; later rounds must reproduce them byte for byte, which the
    solvers guarantee for fixed inputs and seeds, and share their verdict.
    ``wrong`` is set when an operation that did not raise gave a wrong
    output.  ``rss_mb`` is the peak resident memory right after the first
    round's operations, before any checking."""
    times, problems = [], {}
    rss_mb = None
    attempted = failed = rounds = 0
    wrong = False
    verdict = None
    while True:
        outputs, raised = {}, {}
        for op in workload.ops:
            t0 = time.perf_counter()
            try:
                outputs[op.name] = op.call(outputs)
            except Exception as exc:  # a raising operation counts as failed
                outputs[op.name] = None
                raised[op.name] = [f"{type(exc).__name__}: {exc}"]
            times.append(time.perf_counter() - t0)
        if verdict is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            verdict = judge_first_round(workload, outputs, raised, tracer)
        for name, out in outputs.items():
            issues = raised.get(name)
            if issues is None:
                expected, issues = verdict[name]
                if fingerprint(out) != expected:
                    issues = ["output differs from the first round"]
                wrong = wrong or any(not i.startswith("not checked") for i in issues)
            if issues:
                failed += 1
                problems.setdefault(name, issues)
        attempted += len(outputs)
        rounds += 1
        if sum(times) >= seconds:
            return times, attempted, failed, rounds, problems, wrong, rss_mb


def layer_metrics(tracer, mark, rounds):
    """Per-layer figures for one set-up plus one round: spans recorded while
    building the inputs, plus the rounds' spans divided by the round count
    (every round repeats the same calls)."""
    from perfbench.trace import layer_totals

    n_setup, counts_setup = mark
    calls_s, self_s = layer_totals(tracer, 0, n_setup)
    calls_r, self_r = layer_totals(tracer, n_setup)
    counts_r = {k: v - counts_setup.get(k, 0) for k, v in tracer.counts.items()}

    def per(setup, run, key):
        return setup.get(key, 0) + run.get(key, 0) / rounds

    out = {}
    for name, unit in PER_LAYER:
        if name in COMBINED:
            value = sum(per(self_s, self_r, span) for span in COMBINED[name])
        elif name.endswith(".calls"):
            value = per(calls_s, calls_r, name[:-len(".calls")])
        elif name.endswith(".self_ms"):
            value = per(self_s, self_r, name[:-len(".self_ms")])
        else:
            value = per(counts_setup, counts_r, name)
        if unit == "count":
            if value != int(value):
                raise RuntimeError(f"{name}: rounds differ in call counts ({value})")
            value = int(value)
        out[name] = {"value": value, "unit": unit}
    return out


def machine_info():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "machine": platform.machine(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "pinned": {v: os.environ.get(v) for v in BLAS_PINS}}}


def worker(args):
    """One measuring process: set up, run rounds, check, report as JSON."""
    workloads = import_program()
    tracer = None
    if args.trace:
        from perfbench.trace import Tracer, install
        tracer = Tracer()
        install(tracer)
    workload = workloads.BUILDERS[args.workload](args.seed)
    setup_s = time.perf_counter() - START
    mark = tracer.snapshot() if tracer else None
    times, attempted, failed, rounds, problems, wrong, rss_mb = run_rounds(
        workload, args.seconds, tracer)
    result = {"setup_s": setup_s, "times": times, "ops": [op.name for op in workload.ops],
              "attempted": attempted, "failed": failed, "rounds": rounds,
              "problems": problems, "wrong": wrong,
              "rss_mb": rss_mb,
              "inputs": workload.inputs, "machine": machine_info()}
    if tracer:
        result["layers"] = layer_metrics(tracer, mark, rounds)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}-w{args.worker}.jsonl.gz")
    print(json.dumps(result, default=str))
    return 0


def run_workers(args):
    """WORKERS measuring processes, one after another, sharing the run's
    operation time; returns their results, or exits without a result if one
    of them breaks.  A process may take its share of the time six times over
    plus two minutes for set-up, its last round and checking before it is
    stopped, so a slower program still gives figures."""
    share = args.seconds / WORKERS
    results = []
    for index in range(WORKERS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(share),
               "--trace", str(args.trace), "--worker", str(index)]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=120 + 6 * share)
        except subprocess.TimeoutExpired:
            sys.exit(f"perfbench: worker {index} ran out of time")
        if done.returncode != 0:
            sys.exit(f"perfbench: worker {index} failed\n{done.stderr[-4000:]}")
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return results


def combine_layers(results):
    """Per-layer figures averaged over the workers; counts must agree."""
    out = {}
    for name, unit in PER_LAYER:
        values = [r["layers"][name]["value"] for r in results]
        if unit == "count" and len(set(values)) > 1:
            raise RuntimeError(f"{name}: workers differ in counts {values}")
        out[name] = {"value": values[0] if unit == "count" else statistics.mean(values),
                     "unit": unit}
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "cursedeq" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cursedeq sources under {ROOT / 'src'}")
    if args.worker is not None:
        return worker(args)
    # on SIGTERM, leave through SystemExit so that the running measuring
    # process is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    results = run_workers(args)

    times = [t for r in results for t in r["times"]]
    ms = sorted(t * 1e3 for t in times)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    wrong = any(r["wrong"] for r in results)
    problems = {}
    for r in results:
        for name, issues in r["problems"].items():
            problems.setdefault(name, issues)
    ops = results[0]["ops"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "workers": WORKERS,
              "rounds": [r["rounds"] for r in results], "ops_per_round": len(ops),
              "attempted": attempted, "failed": failed,
              "problems": {k: v[:5] for k, v in list(problems.items())[:20]},
              "op_time_s": sum(times),
              "round_s": [sum(r["times"][i:i + len(ops)]) for r in results
                          for i in range(0, len(r["times"]), len(ops))],
              "op_ms": {name: statistics.median(t * 1e3 for r in results
                                                for t in r["times"][i::len(ops)])
                        for i, name in enumerate(ops)},
              "setup_samples_s": [r["setup_s"] for r in results],
              "inputs": results[0]["inputs"], "machine": results[0]["machine"]}
    if len(ms) >= 40:
        record["op_p90_ms"] = statistics.quantiles(ms, n=10)[-1]
        record["op_samples"] = len(ms)

    if args.trace:
        metrics = combine_layers(results)
    else:
        values = {"ops_per_s": len(times) / sum(times), "op_p50_ms": statistics.median(ms),
                  "setup_s": statistics.median(record["setup_samples_s"]),
                  "peak_rss_mb": max(r["rss_mb"] for r in results)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    for name, issues in list(problems.items())[:10]:
        print(f"FAILED {name}: {'; '.join(issues)}")
    print(f"{args.workload}: {attempted} ops attempted, {failed} failed, "
          f"{sum(record['rounds'])} rounds in {WORKERS} processes")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    if "op_p90_ms" in record:
        print(f"  op_p90_ms {record['op_p90_ms']:.6g} ms (n={record['op_samples']}, no bound)")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 and not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
