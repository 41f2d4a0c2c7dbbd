import random

import pytest

from cursedeq.bayesian import (BayesianGame, crosscheck_equivalence, embed_bayesian,
                               random_bayesian_game, solve_ce, solve_ice,
                               trading_bayesian, type_action_values,
                               voting_bayesian, voting_computer_freeze)
from cursedeq.partition import coarsest_valid_partition
from cursedeq.solvers import SolverConfig
from cursedeq.tree import validate_game


def test_trading_table_unique_ce():
    g = trading_bayesian()
    ce = solve_ce(g, SolverConfig(seed=3))
    assert ce[("1", 0)]["a"] == pytest.approx(1.0)
    assert ce[("1", 1)]["d"] == pytest.approx(1.0)
    assert ce[("2", 0)]["d"] == pytest.approx(1.0)
    assert ce[("2", 1)]["a"] == pytest.approx(1.0)


def test_accepting_type_value():
    g = trading_bayesian()
    ce = solve_ce(g, SolverConfig(seed=3))
    q = type_action_values(g, ce, "2", 1, False)
    assert q["a"] == pytest.approx(0.5)  # -1 and 3, each with conditional weight 1/4
    assert q["d"] == pytest.approx(0.0)


def test_two_player_ce_equals_ice():
    for seed in range(6):
        rng = random.Random(7000 + seed)
        g = random_bayesian_game(rng)
        ce = solve_ce(g, SolverConfig(seed=seed))
        ice = solve_ice(g, SolverConfig(seed=seed))
        for cell, dist in ce.items():
            for a, p in dist.items():
                assert p == pytest.approx(ice[cell][a], abs=1e-9)


def test_embedding_is_valid_simultaneous_game():
    g = trading_bayesian()
    tree = embed_bayesian(g)
    assert validate_game(tree).ok
    part = coarsest_valid_partition(tree)
    # one coarse cell per player: every type shares its player's cell
    for pl in g.players:
        cells = {part.cell_of[tree.info_sets[f"{pl}:T{k}"].nodes[0]]
                 for k in range(len(g.types[pl]))}
        assert len(cells) == 1


def test_crosscheck_trading_table():
    rep = crosscheck_equivalence(trading_bayesian(), SolverConfig(seed=3))
    assert rep.ok
    assert rep.max_profile_gap <= 1e-6


def test_crosscheck_degenerate_single_player_single_state():
    g = BayesianGame("solo", ("w",), {"w": 1.0}, ("1",),
                     {"1": (("w",),)}, {"1": ("a", "b")},
                     {("w", ("a",)): (2.0,), ("w", ("b",)): (1.0,)})
    rep = crosscheck_equivalence(g, SolverConfig(seed=0))
    assert rep.ok
    ice = solve_ice(g, SolverConfig(seed=0))
    assert ice[("1", 0)]["a"] == pytest.approx(1.0)


def test_crosscheck_random_games():
    for seed in range(10):
        rng = random.Random(3000 + seed)
        g = random_bayesian_game(rng)
        rep = crosscheck_equivalence(g, SolverConfig(seed=seed))
        assert rep.ok, f"seed {seed}: gap {rep.max_profile_gap}"


def test_crosscheck_three_players():
    """With three players the independently cursed beliefs genuinely factor
    across opponents, and the sequential solve must still agree."""
    for seed in range(6):
        rng = random.Random(90_000 + seed)
        g = random_bayesian_game(rng, n_states=2, n_players=3)
        rep = crosscheck_equivalence(g, SolverConfig(seed=seed))
        assert rep.ok, f"seed {seed}: gap {rep.max_profile_gap}"


def test_ce_and_ice_disagree_when_opponents_correlate():
    """Two informed players always match each other through the state; the
    joint-profile belief sees the matching, the factored belief does not.
    The sequential concept sides with the factored one."""
    states = ("A", "B")
    actions = ("a", "b")
    payoffs = {}
    for w in states:
        for combo in [(x, y, z) for x in actions for y in actions
                      for z in ("same", "diff")]:
            u1 = 1.0 if combo[0] == w.lower() else 0.0
            u2 = 1.0 if combo[1] == w.lower() else 0.0
            matched = combo[0] == combo[1]
            u3 = 1.0 if (combo[2] == "same") == matched else 0.0
            u3 *= 1.1 if combo[2] == "diff" else 1.0
            payoffs[(w, combo)] = (u1, u2, u3)
    g = BayesianGame(
        "correlation probe", states, {"A": 0.5, "B": 0.5}, ("1", "2", "3"),
        {"1": (("A",), ("B",)), "2": (("A",), ("B",)), "3": (states,)},
        {"1": actions, "2": actions, "3": ("same", "diff")}, payoffs)

    ce = solve_ce(g, SolverConfig(seed=1))
    ice = solve_ice(g, SolverConfig(seed=1))
    assert ce[("3", 0)]["same"] == pytest.approx(1.0)
    assert ice[("3", 0)]["diff"] == pytest.approx(1.0)

    from cursedeq.solvers import solve_sce
    tree = embed_bayesian(g)
    part = coarsest_valid_partition(tree)
    res = solve_sce(tree, part, SolverConfig(seed=1))
    assert res.profile.dists["3:T0"]["diff"] == pytest.approx(1.0, abs=1e-9)


def test_voting_normal_form_naive_everywhere():
    for p in (0.3, 0.6, 0.9):
        for treatment in ("simultaneous", "sequential"):
            g = voting_bayesian(p, 0.5, treatment)
            frozen = voting_computer_freeze(g, 0.5)
            ce = solve_ce(g, SolverConfig(seed=0), frozen=frozen)
            dist = ce[("subj", 0)]
            want = "r" if p > 0.5 else "b"
            if treatment == "simultaneous":
                assert dist[want] == pytest.approx(1.0, abs=1e-6), (p, treatment)
            else:
                pairs = [("r", "r"), ("r", "b"), ("b", "r"), ("b", "b")]
                for plan, weight in dist.items():
                    if weight > 1e-6:
                        assert plan[pairs.index(("r", "b"))] == want
                        assert plan[pairs.index(("b", "r"))] == want


def test_frozen_players_stay_frozen():
    g = voting_bayesian(0.6, 0.25, "simultaneous")
    frozen = voting_computer_freeze(g, 0.25)
    ce = solve_ce(g, SolverConfig(seed=0), frozen=frozen)
    assert ce[("c1", 1)]["b"] == pytest.approx(0.25)
    assert ce[("c2", 0)]["r"] == pytest.approx(1.0)
