"""Tests of the benchmark itself: each workload's checks reject a wrong
answer, and a small version of each workload runs with tracing on and off.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import run, workloads
from perfbench.trace import Tracer, install

ROOT = Path(__file__).resolve().parents[2]


def one_round(workload):
    outputs = {}
    for op in workload.ops:
        outputs[op.name] = op.call(outputs)
    return outputs


@pytest.fixture(scope="module")
def solve_small():
    wl = workloads.build_solve(3, bundled=("sequential-trading", "mixing", "club-membership"),
                               voting_cells=((0.3, 0.25),), bayesian_games=1)
    return wl, one_round(wl)


@pytest.fixture(scope="module")
def auction_small():
    wl = workloads.build_auction(3, samples=20_000)
    return wl, one_round(wl)


def problems_of(wl, outputs, key, **replace):
    """Problems the check finds once ``key``'s output is replaced."""
    outs = dict(outputs)
    outs.update(replace)
    return wl.check(outs)[key]


def test_solve_checks_pass_on_program_output(solve_small):
    wl, outputs = solve_small
    found = wl.check(outputs)
    assert set(found) == set(outputs)
    assert all(not p for p in found.values()), found


@pytest.mark.parametrize("key,iid", [("sce:sequential-trading", "2:hi"),
                                     ("wpce:mixing", "I3"),
                                     ("sce:club-membership", "G:2")])
def test_solve_rejects_perturbed_profile(solve_small, key, iid):
    wl, outputs = solve_small
    res = copy.deepcopy(outputs[key])
    acts = list(res.profile.dists[iid])
    res.profile.dists[iid] = {a: (0.7 if a == acts[0] else 0.3 / (len(acts) - 1)) for a in acts}
    if res.profile.dists[iid] == outputs[key].profile.dists[iid]:
        res.profile.dists[iid] = {a: (0.3 if a == acts[0] else 0.7 / (len(acts) - 1)) for a in acts}
    assert problems_of(wl, outputs, key, **{key: res})


def test_solve_rejects_unnormalised_conjecture(solve_small):
    wl, outputs = solve_small
    key = "causal-sce:mixing"
    res = copy.deepcopy(outputs[key])
    conj = next(iter(res.conjectures.values()))
    iid = next(iter(conj.dists))
    conj.dists[iid] = {a: p * 0.9 for a, p in conj.dists[iid].items()}
    assert any("sums to" in p for p in problems_of(wl, outputs, key, **{key: res}))


def test_static_check_rejects_dominated_action():
    game = workloads.bayesian.trading_bayesian()
    sigma = workloads.bayesian.solve_ce(game, workloads.solvers.SolverConfig(seed=1))
    assert workloads.check_static(game, sigma, independent=False) == []
    bad = copy.deepcopy(sigma)
    # type 1 holding w3 accepts a trade that loses 3 against an accepting buyer
    bad[("1", 1)] = {"a": 1.0, "d": 0.0}
    bad[("2", 1)] = {"a": 1.0, "d": 0.0}
    assert workloads.check_static(game, bad, independent=False)


def test_solve_rejects_mislabelled_voting_cell(solve_small):
    wl, outputs = solve_small
    key = "voting:sce:p=0.3:q=0.25"
    report = copy.deepcopy(outputs[key])
    cell = report.cells[1]
    cell.predicted = "r" if cell.predicted == "b" else "b"
    assert problems_of(wl, outputs, key, **{key: report})


@pytest.fixture(scope="module")
def prices_small():
    return {t: workloads.golden.prices_predictions("wpce", 5, (t,))
            for t in ("sequential", "simultaneous")}


@pytest.mark.parametrize("treatment", ["sequential", "simultaneous"])
def test_prices_checks(prices_small, treatment):
    report = prices_small[treatment]
    assert workloads.check_prices(treatment, 5, report) == []

    flipped = copy.deepcopy(report)
    cell = next(c for c in flipped.cells if c.predicted in ("buy", "sell"))
    cell.predicted = "sell" if cell.predicted == "buy" else "buy"
    assert workloads.check_prices(treatment, 5, flipped)

    relabelled = copy.deepcopy(report)
    cell = next(c for c in relabelled.cells if c.expected in ("buy", "sell"))
    cell.expected = "sell" if cell.expected == "buy" else "buy"
    cell.predicted = cell.expected
    assert workloads.check_prices(treatment, 5, relabelled)

    short = copy.deepcopy(report)
    short.cells.pop()
    assert any("cells" in p for p in workloads.check_prices(treatment, 5, short))


def test_auction_checks_pass_on_program_output(auction_small):
    wl, outputs = auction_small
    found = wl.check(outputs)
    assert all(not p for p in found.values()), found


def test_auction_rejects_swapped_bid_ordering(auction_small):
    wl, outputs = auction_small
    key = "wallet:solve_dutch:closed"
    fp, dutch = outputs["wallet:solve_first_price:closed"], outputs[key]
    found = wl.check({**outputs, "wallet:solve_first_price:closed": dutch, key: fp})
    assert found[key]
    assert found["wallet:solve_first_price:closed"]


def test_auction_rejects_shifted_monte_carlo_column(auction_small):
    wl, outputs = auction_small
    key = "mean3:estimate_conditionals:mc"
    tables = copy.deepcopy(outputs[key])
    tables.v_lower = tables.v_lower + 5 * np.nan_to_num(tables.v_lower_se, posinf=0.0)
    assert problems_of(wl, outputs, key, **{key: tables})


def test_auction_rejects_wrong_stage_quit_prices(auction_small):
    wl, outputs = auction_small
    key = "mean5:bid_canonical_english"
    bf = copy.deepcopy(outputs[key])
    bf.bids = bf.bids + 1e-3
    assert problems_of(wl, outputs, key, **{key: bf})


def test_auction_rejects_growing_winner_payoff(auction_small):
    wl, outputs = auction_small
    rows = copy.deepcopy(outputs["winner_curse:k=8"])
    rows[0].mean_payoff = 0.05
    assert problems_of(wl, outputs, "winner_curse:k=8", **{"winner_curse:k=8": rows})


def small_workloads():
    return [workloads.build_solve(5, bundled=("leader-follower",),
                                  voting_cells=((0.7, 0.75),), bayesian_games=1),
            workloads.build_prices(5, grid_ops=(("sequential", 5), ("simultaneous", 5))),
            workloads.build_auction(5, samples=20_000)]


@pytest.mark.parametrize("index", [0, 1, 2], ids=["solve", "prices", "auction"])
def test_smoke_untraced(index):
    wl = small_workloads()[index]
    times, attempted, failed, rounds, problems, wrong, rss_mb = run.run_rounds(wl, 0.0)
    assert (attempted, failed, rounds, wrong) == (len(wl.ops), 0, 1, False), problems
    assert len(times) == attempted and all(t > 0 for t in times)
    assert rss_mb > 0


@pytest.mark.parametrize("index", [0, 1, 2], ids=["solve", "prices", "auction"])
def test_smoke_traced(index):
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        wl = small_workloads()[index]
        mark = tracer.snapshot()
        _, attempted, failed, rounds, problems, _, _ = run.run_rounds(wl, 0.0, tracer)
        one = run.layer_metrics(tracer, mark, rounds)
        # a second round repeats every call exactly
        _, _, failed2, rounds2, _, _, _ = run.run_rounds(wl, 0.0, tracer)
        two = run.layer_metrics(tracer, mark, rounds + rounds2)
    finally:
        uninstall()
    assert failed == failed2 == 0, problems
    assert [name for name, _ in run.PER_LAYER] == list(one)
    for name, unit in run.PER_LAYER:
        if unit == "count":
            assert isinstance(one[name]["value"], int)
            assert one[name]["value"] == two[name]["value"], name
    layers = {0: ("solvers.iterations", "solvers.enumerate_support_equilibrium.calls",
                  "solvers.support_enumeration.results"),
              1: ("golden.cells",), 2: ("auctions.samples",)}[index]
    for layer in layers:
        assert one[layer]["value"] > 0, layer


def test_a_failure_repeats_in_every_round():
    """Failed operations are the same share of every run, however long."""
    def slow(out):
        time.sleep(0.01)
        return 1

    def broken(out):
        raise ValueError("always")

    wrong = workloads.Workload("t", [workloads.Op("a", slow), workloads.Op("b", slow)],
                               lambda outs: {"a": ["wrong"], "b": []})
    _, attempted, failed, rounds, problems, is_wrong, _ = run.run_rounds(wrong, 0.05)
    assert rounds > 1 and failed == rounds and attempted == 2 * rounds
    assert is_wrong and problems == {"a": ["wrong"]}

    raising = workloads.Workload("t", [workloads.Op("a", slow), workloads.Op("b", broken)],
                                 lambda outs: {})
    _, attempted, failed, rounds, problems, is_wrong, _ = run.run_rounds(raising, 0.05)
    assert rounds > 1 and failed == attempted and not is_wrong


def test_tracing_is_removed_again():
    before = workloads.solvers.solve_sce
    uninstall = install(Tracer())
    assert workloads.solvers.solve_sce is not before
    uninstall()
    assert workloads.solvers.solve_sce is before


def test_command_needs_the_program(tmp_path):
    """Without the cursedeq sources the command fails and prints no result."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "auction",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["solve", "prices", "auction"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
