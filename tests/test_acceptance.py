"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
stated inline; the randomized suites are seeded and deterministic.
"""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cursedeq.bayesian import crosscheck_equivalence, random_bayesian_game, solve_ice
from cursedeq.bestresponse import local_best_response_value
from cursedeq.conjectures import check_cursed_plausible, limit_conjecture_system
from cursedeq.partition import coarsest_valid_partition
from cursedeq.solvers import (NonConvergenceError, SolverConfig, check_wpce,
                              sce_witness_check, solve_sce)
from cursedeq.tree import BehaviorProfile, outcome_measure
from helpers import pennies_profile_b, running_profile_y
from randgames import random_game, random_profile


@contextmanager
def criterion(number, description):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {number}: {description} "
              f"({time.time() - start:.1f}s)")
        raise
    print(f"\n[PASS] criterion {number}: {description} "
          f"({time.time() - start:.1f}s)")


def cells_of(part):
    return {frozenset(nodes) for nodes in part.cells.values()}


def test_criterion_1_coarse_partitions(paper):
    with criterion(1, "coarse partitions match the stated coarse sets"):
        start = time.time()
        tree, part = paper["sequential-trading"]
        assert cells_of(part) == {frozenset({"r"}), frozenset({"w1", "w2", "w3"}),
                                  frozenset({"w1a", "w2a", "w3a"})}
        tree, part = paper["running-example"]
        assert len(part) == 3
        assert cells_of(part) == {frozenset({"r"}), frozenset({"w2", "w3"}),
                                  frozenset({"w1", "w2y", "w3y"})}
        tree, part = paper["club-membership"]
        assert len(part) == 4
        assert cells_of(part) == {frozenset({"r"}), frozenset({"w1", "w2"}),
                                  frozenset({"w1a", "w2a"}),
                                  frozenset({"w1aa", "w2aa"})}
        tree, part = paper["mixing"]
        assert cells_of(part) == {frozenset({"root"}), frozenset({"L", "R"}),
                                  frozenset({"Ll", "Lr", "Rl", "Rr"})}
        tree, part = paper["pennies-onlooker"]
        assert cells_of(part) == {frozenset(s.nodes) for s in tree.info_sets.values()}
        assert time.time() - start < 1.0


def test_criterion_2_conjecture_goldens(paper):
    with criterion(2, "conjecture goldens at 1e-6"):
        tree, part = paper["running-example"]
        prof = running_profile_y()
        system, diag = limit_conjecture_system(tree, part, prof)
        assert diag.ok
        conj = system["1:I"]
        nat = conj.dists["is:r"]
        assert abs(nat["w1"] - 0.0) <= 1e-6
        assert abs(nat["w2"] - 1 / 3) <= 1e-6
        assert abs(nat["w3"] - 2 / 3) <= 1e-6
        for iid in ("2:w2y", "2:w3y"):
            assert abs(conj.dists[iid]["l"] - 1 / 3) <= 1e-6
            assert abs(conj.dists[iid]["r"] - 2 / 3) <= 1e-6

        seq, seq_part = paper["sequential-trading"]
        deviate = BehaviorProfile.pure(seq, {"1:lo": "d", "1:hi": "d",
                                             "2:w1": "d", "2:hi": "a"})
        system, diag = limit_conjecture_system(seq, seq_part, deviate)
        assert diag.ok
        conj = system["1:lo"]
        assert abs(conj.dists["2:w1"]["a"] - 0.5) <= 1e-6
        assert abs(conj.dists["2:hi"]["a"] - 0.5) <= 1e-6


def trade_probability(tree, profile):
    mu = outcome_measure(tree, profile)
    return sum(p for z, p in mu.probs.items() if abs(tree.payoffs[z]["1"]) > 1e-9)


def test_criterion_3_sce_outcomes(paper):
    with criterion(3, "worked-example equilibria"):
        budgets = []

        def timed_solve(fn, *args, **kwargs):
            t0 = time.time()
            res = fn(*args, **kwargs)
            budgets.append(time.time() - t0)
            return res

        # (a) no trade in sequence
        tree, part = paper["sequential-trading"]
        res = timed_solve(solve_sce, tree, part, SolverConfig(seed=7))
        assert res.profile.dists["2:hi"]["d"] == pytest.approx(1.0, abs=1e-9)
        assert trade_probability(tree, res.profile) <= 1e-9

        # (b) trade in the middle state, simultaneous and fictitious
        for name in ("trading-simultaneous", "trading-fictitious"):
            tree, part = paper[name]
            res = timed_solve(solve_sce, tree, part, SolverConfig(seed=7))
            assert res.profile.dists["1:lo"]["a"] == pytest.approx(1.0, abs=1e-9)
            assert res.profile.dists["2:t2p"]["a"] == pytest.approx(1.0, abs=1e-9)
            assert trade_probability(tree, res.profile) == pytest.approx(1 / 3, abs=1e-6)

        # (c) accept then resign, with the conjectured first-node value
        tree, part = paper["club-membership"]
        res = timed_solve(solve_sce, tree, part, SolverConfig(seed=3))
        assert res.profile.dists["G:1"]["a"] == pytest.approx(1.0, abs=1e-9)
        assert res.profile.dists["G:2"]["resign"] == pytest.approx(1.0, abs=1e-9)
        value, _, _ = local_best_response_value(tree, part, res.conjectures["G:1"])
        assert abs(value - 2 / 9) <= 1e-9

        # (d) the mixing construction
        tree, part = paper["mixing"]
        res = timed_solve(solve_sce, tree, part, SolverConfig(seed=7))
        p = res.profile.dists["I1"]["L"]
        assert abs(6 * p * (1 - p) - 1) <= 1e-6
        assert abs(res.profile.dists["I3"]["a"] - 0.5) <= 1e-6

        # (e) onlooker profile is an SCE, flagged under the Bayesian weight
        tree, part = paper["pennies-onlooker"]
        prof = pennies_profile_b()
        t0 = time.time()
        ok, gaps, _ = sce_witness_check(tree, part, prof)
        assert ok, gaps
        okb, gapsb, _ = sce_witness_check(tree, part, prof,
                                          concept="chi-sce", chi=0.0)
        budgets.append(time.time() - t0)
        assert not okb and gapsb["I3"] > 1e-6

        from cursedeq.cli import cli_main
        import tempfile, os
        from cursedeq.games import bundled_game_text
        with tempfile.TemporaryDirectory() as td:
            game_path = os.path.join(td, "onlooker.game")
            with open(game_path, "w") as fh:
                fh.write(bundled_game_text("pennies-onlooker"))
            assess = os.path.join(td, "onlooker.assess")
            with open(assess, "w") as fh:
                fh.write("play I1 H:1/2 T:1/2\nplay I2 h:1/2 t:1/2\nplay I3 a:0 b:1\n")
            assert cli_main(["check", game_path, "--assessment", assess,
                             "--concept", "sce-witness"]) == 0
            assert cli_main(["check", game_path, "--assessment", assess,
                             "--concept", "chi-sce", "--chi", "0"]) == 1

        assert max(budgets) < 10.0, budgets


def test_criterion_4_theorem_property_suites():
    with criterion(4, "randomized theorem suites"):
        start = time.time()

        # Theorem 2: cursed-consistent limits are cursed-plausible
        for seed in range(200):
            rng = random.Random(10_000 + seed)
            tree = random_game(rng, 30)
            part = coarsest_valid_partition(tree)
            target = random_profile(rng, tree)
            system, diag = limit_conjecture_system(tree, part, target)
            report = check_cursed_plausible(tree, part, target, system, tol=1e-6)
            assert report.ok, f"theorem-2 seed {seed}: {report}"

        # every successful solve is a weak perfect cursed equilibrium
        solved = 0
        for seed in range(40):
            rng = random.Random(20_000 + seed)
            tree = random_game(rng, 30)
            part = coarsest_valid_partition(tree)
            try:
                res = solve_sce(tree, part, SolverConfig(seed=seed))
            except NonConvergenceError:
                continue
            solved += 1
            rep = check_wpce(tree, part, res.profile, res.conjectures, tol=1e-6)
            assert rep.ok, f"sce=>wpce seed {seed}: {rep}"
        assert solved >= 36

        # static and sequential concepts coincide on simultaneous games
        for seed in range(25):
            rng = random.Random(30_000 + seed)
            game = random_bayesian_game(rng)
            rep = crosscheck_equivalence(game, SolverConfig(seed=seed))
            assert rep.ok, f"theorem-5 seed {seed}: gap {rep.max_profile_gap}"
            assert rep.max_profile_gap <= 1e-6

        assert time.time() - start < 300.0


def test_criterion_5_experiments():
    from cursedeq.golden import (prices_predictions, two_stage_predictions,
                                 voting_predictions)
    with criterion(5, "experiment classifications"):
        sce = voting_predictions("sce")
        assert len(sce.cells) == 9 * 5 * 2
        assert sce.ok, str(sce)
        ce = voting_predictions("ce")
        assert ce.ok, str(ce)

        prices = prices_predictions("wpce", g=21)
        assert prices.ok, str(prices)

        auction = two_stage_predictions()
        assert auction.ok, str(auction)
        stage1 = [c for c in auction.cells if c.cell["stage"] == 1]
        assert all(c.predicted == f"bid {c.cell['t'] + 30}" for c in stage1)


def test_criterion_6_auction_numerics():
    from cursedeq.auctions import (OracleConfig, bid_second_price, bid_silent_english,
                                   estimate_conditionals, mean_value_model,
                                   ode_residuals, solve_dutch, solve_first_price,
                                   uniform_grid, wallet_model, winner_curse_experiment)
    with criterion(6, "auction bid functions, orderings and winner payoff"):
        start = time.time()
        oracle = OracleConfig(samples=100_000, seed=42)
        for model in (wallet_model(), mean_value_model(3)):
            grid = uniform_grid(model, 200)
            closed = estimate_conditionals(model, grid, oracle)
            mc = estimate_conditionals(model, grid, oracle, use_closed_forms=False)

            # second-price bids equal the value column by construction,
            # and the Monte Carlo value column sits within 3 SE of truth
            b2 = bid_second_price(model, mc)
            assert np.array_equal(b2.bids, mc.v)
            z = np.abs(mc.v - closed.v) / np.maximum(mc.v_se, 1e-12)
            assert np.nanmax(z) <= 3.0, f"{model.name}: max z {np.nanmax(z):.2f}"

            # silent English at least the second-price bid within noise
            # everywhere (cells whose conditioning event drew no samples
            # are skipped), with strictness certified on the exact tables
            # over the central 90 percent of the range
            bs = bid_silent_english(model, mc)
            diff = bs.bids - b2.bids
            allow = 3 * (np.nan_to_num(bs.se, nan=np.inf)
                         + np.nan_to_num(b2.se, nan=np.inf))
            finite = np.isfinite(diff)
            assert finite.mean() > 0.97, model.name
            assert (diff[finite] >= -allow[finite]).all()
            lo = model.lo + 0.05 * (model.hi - model.lo)
            hi = model.hi - 0.05 * (model.hi - model.lo)
            interior = (grid >= lo) & (grid <= hi)
            exact_diff = closed.v_lower - closed.v
            assert (exact_diff[interior] > 0).all(), model.name

            # first-price dominates Dutch within noise plus ODE allowance
            b1m, bdm = solve_first_price(model, mc), solve_dutch(model, mc)
            gap = b1m.bids - bdm.bids
            assert np.isfinite(gap).all()
            assert (gap >= -(3 * mc.v_se + 1e-3)).all()

            # ODE residuals on the exact tables
            b1, bd = solve_first_price(model, closed), solve_dutch(model, closed)
            assert np.abs(ode_residuals(closed, b1)).max() < 1e-3, model.name
            assert np.abs(ode_residuals(closed, bd)).max() < 1e-3, model.name
            assert (b1.bids - bd.bids >= -1e-3).all()

        rows = winner_curse_experiment(mean_value_model, [2, 3, 5, 8],
                                       OracleConfig(samples=100_000, seed=5))
        for a, b in zip(rows, rows[1:]):
            assert abs(b.mean_payoff) <= abs(a.mean_payoff) + 3 * (a.se + b.se)
        assert abs(rows[-1].mean_payoff) <= 3 * rows[-1].se + 1e-4
        assert time.time() - start < 600.0


def test_criterion_7_determinism(paper):
    with criterion(7, "byte-identical reruns under fixed seeds"):
        tree, part = paper["mixing"]
        first = solve_sce(tree, part, SolverConfig(seed=11)).to_text()
        second = solve_sce(tree, part, SolverConfig(seed=11)).to_text()
        assert first == second

        game = random_bayesian_game(random.Random(123))
        a = solve_ice(game, SolverConfig(seed=4))
        b = solve_ice(game, SolverConfig(seed=4))
        assert repr(a) == repr(b)

        from cursedeq.auctions import OracleConfig, winner_curse_experiment, mean_value_model
        r1 = winner_curse_experiment(mean_value_model, [2, 3],
                                     OracleConfig(samples=20_000, seed=9))
        r2 = winner_curse_experiment(mean_value_model, [2, 3],
                                     OracleConfig(samples=20_000, seed=9))
        assert repr(r1) == repr(r2)

        from cursedeq.cli import cli_main
        import io, os, tempfile
        from contextlib import redirect_stdout
        from cursedeq.games import bundled_game_text
        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, "seqtrading.game")
            with open(path, "w") as fh:
                fh.write(bundled_game_text("sequential-trading"))
            outs = []
            for _ in range(2):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    assert cli_main(["solve", path, "--concept", "sce",
                                     "--seed", "7", "--json"]) == 0
                outs.append(buf.getvalue())
            assert outs[0] == outs[1]
