import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cursedeq import solvers
from cursedeq.bayesian import (BayesianGame, affine_values, crosscheck_equivalence,
                               embed_bayesian, random_bayesian_game, solve_ce, solve_ice,
                               trading_bayesian, type_action_values, value_tables,
                               voting_bayesian, voting_computer_freeze)
from cursedeq.bestresponse import support_gaps
from cursedeq.partition import coarsest_valid_partition
from cursedeq.solvers import SolverConfig
from cursedeq.tree import validate_game
from helpers import mixing_keys

PINNED = Path(__file__).parent / "data" / "pinned_outputs.json"


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
    q = type_action_values(value_tables(g, False), ce, ("2", 1))
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


def reference_type_action_values(game, sigma, player, tix, independent):
    """The values as computed before the per-solve tables: every type cell,
    opponent key and payoff looked up again on each call, the payoff weighted
    per state."""
    cell = game.types[player][tix]
    prior = game.prior
    total = sum(prior[w] for w in cell)
    i = game.players.index(player)
    others = game.players[:i] + game.players[i + 1:]
    plays = [[sigma[(m, game.type_of(m, w))] for m in others] for w in cell]
    if independent:
        marg = [{a: sum(prior[w] * play[n][a] for w, play in zip(cell, plays)) / total
                 for a in game.actions[m]} for n, m in enumerate(others)]
    beliefs = []
    for combo in itertools.product(*(game.actions[m] for m in others)):
        if independent:
            bp = math.prod(mg[a] for mg, a in zip(marg, combo))
        else:
            bp = sum(math.prod((d[a] for d, a in zip(play, combo)), start=prior[w])
                     for w, play in zip(cell, plays)) / total
        if bp != 0.0:
            beliefs.append((combo, bp))
    return {a: sum(prior[w] / total * bp * game.payoffs[(w, combo[:i] + (a,) + combo[i:])][i]
                   for w in cell for combo, bp in beliefs)
            for a in game.actions[player]}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 3), st.integers(2, 4),
       st.data())
def test_value_tables_match_the_reference_within_1e_12(seed, n_players, n_actions, n_states,
                                                        data):
    """Values on the type-averaged rows equal the per-state reference within
    1e-12 (the sums run in another order), for strategies whose exact zeros
    leave profiles of zero belief."""
    game = random_bayesian_game(random.Random(seed), n_states, n_actions, n_players)
    weights = st.lists(st.integers(0, 3), min_size=n_actions, max_size=n_actions).filter(any)
    sigma = {}
    for pl in game.players:
        for k in range(len(game.types[pl])):
            w = data.draw(weights)
            sigma[(pl, k)] = {a: x / sum(w) for a, x in zip(game.actions[pl], w)}
    for independent in (False, True):
        tables = value_tables(game, independent)
        for pl, k in sigma:
            got = type_action_values(tables, sigma, (pl, k))
            want = reference_type_action_values(game, sigma, pl, k, independent)
            assert list(got) == list(want)
            assert all(abs(got[a] - want[a]) <= 1e-12 for a in want), (got, want)


def test_linear_root_agrees_with_newton(monkeypatch):
    """On two-player games (2-3 actions, 1-3 states per cell) each support
    that the polish and support enumeration try is rooted both ways: wherever
    hybr roots, the linear solve must root too and agree within 1e-12."""
    real = solvers._polish
    compared = []

    def both(dists, free, q_limit, tol, affine=None):
        assert affine is not None
        linear = real(dists, free, q_limit, tol, affine)
        if not mixing_keys(dists, free):
            return linear
        hybr = real(dists, free, q_limit, tol, None)
        if hybr is not None:
            assert linear is not None, dists
            assert max(abs(linear[k][a] - p) for k, d in hybr.items()
                       for a, p in d.items()) <= 1e-12, dists
            compared.append(dists)
        return linear

    monkeypatch.setattr(solvers, "_polish", both)
    # compare on the supports tried under a budget of 1,000 combinations (the
    # linear budget would add thousands of hybr roots, 11 s); it has its own tests
    monkeypatch.setattr(solvers, "LINEAR_ENUMERATION_BUDGET", 1000)
    for seed in range(90):
        game = random_bayesian_game(random.Random(5000 + seed), 1 + seed % 3,
                                    2 + seed // 3 % 2)
        for solve in (solve_ce, solve_ice):
            try:
                solve(game, SolverConfig())
            except solvers.NonConvergenceError:  # 3 of these 90 games, as with hybr
                pass
    assert len(compared) >= 50


def test_two_player_static_solves_call_no_hybr(monkeypatch):
    """Game 121's CE and ICE root every support by the linear solve (no call
    of the hybrid root), while the 3-player game 90021 still roots with it;
    all four keep their pinned bytes."""
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    calls = []
    root = solvers._hybrid_root
    monkeypatch.setattr(solvers, "_hybrid_root", lambda *a: calls.append(a) or root(*a))
    game = random_bayesian_game(random.Random(121))
    assert repr(solve_ce(game, SolverConfig())) == pinned["ce:121:2"]
    assert repr(solve_ice(game, SolverConfig())) == pinned["ice:121:2"]
    assert calls == []
    game = random_bayesian_game(random.Random(90021), n_states=2, n_players=3)
    assert repr(solve_ce(game, SolverConfig())) == pinned["ce:3p:90021:0"]
    assert repr(solve_ice(game, SolverConfig())) == pinned["ice:3p:90021:0"]
    assert calls


# the CE (= ICE) of game 104 as solved by hybr before the linear root
GAME_104 = {("1", 0): {"a": 1.0, "b": 0.0},
            ("1", 1): {"a": 0.36505737474151856, "b": 0.6349426252584814},
            ("1", 2): {"a": 0.0, "b": 1.0},
            ("2", 0): {"a": 0.2163783974585245, "b": 0.7836216025414755},
            ("2", 1): {"a": 0.0, "b": 1.0}}


@pytest.mark.parametrize("solve", [solve_ce, solve_ice], ids=["ce", "ice"])
def test_game_104_mixes_through_a_one_action_support(monkeypatch, solve):
    """Game 104's mixed equilibrium comes only from support enumeration,
    whose supports give ("1", 2) and ("2", 1) one action each: the linear
    root must read them as played surely."""
    found = []
    enumerate_ = solvers.enumerate_support_equilibrium
    monkeypatch.setattr(solvers, "enumerate_support_equilibrium",
                        lambda *a: found.append(enumerate_(*a)) or found[-1])
    sigma = solve(random_bayesian_game(random.Random(104)), SolverConfig())
    assert found and found[-1] is not None
    assert list(sigma) == list(GAME_104)
    for cell, dist in GAME_104.items():
        assert list(sigma[cell]) == list(dist)
        assert all(abs(sigma[cell][a] - p) <= 1e-12 for a, p in dist.items()), cell


@pytest.mark.parametrize("solve, key", [(solve_ce, "ce:121:2"), (solve_ice, "ice:121:2")],
                         ids=["ce", "ice"])
def test_game_121_stages_stop_at_exact_cycles(monkeypatch, solve, key):
    """Every floor stage of game 121 cycles exactly; a stage stops at its
    first repeated iterate, so the 25 stages run exactly 1,523 stage
    evaluations (2,000 without the skip), and the result keeps its pinned
    bytes."""
    calls = []
    step = solvers._stage_step
    monkeypatch.setattr(solvers, "_stage_step", lambda *a: calls.append(a) or step(*a))
    sigma = solve(random_bayesian_game(random.Random(121)), SolverConfig())
    assert repr(sigma) == json.loads(PINNED.read_text(encoding="utf-8"))[key]
    assert len(calls) == 1523


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 4), st.data())
def test_affine_values_match_type_action_values(seed, n_actions, n_states, data):
    """The linear map of a two-player stage gives ``type_action_values``
    within 1e-12, on the solver's flat layout: free keys in their actions'
    order, frozen keys in their own (drawn) order, strategies with exact
    zeros, both flags."""
    game = random_bayesian_game(random.Random(seed), n_states, n_actions)
    cells = sorted((pl, k) for pl in game.players for k in range(len(game.types[pl])))
    weights = st.lists(st.integers(0, 3), min_size=n_actions, max_size=n_actions).filter(any)
    sigma, frozen = {}, set()
    for c in cells:
        acts, w = game.actions[c[0]], data.draw(weights)
        if data.draw(st.booleans()):
            acts = tuple(data.draw(st.permutations(acts)))
            frozen.add(c)
        sigma[c] = {a: x / sum(w) for a, x in zip(acts, w)}
    slots = solvers._slots([(c, tuple(sigma[c])) for c in cells])
    x = [p for c in cells for p in sigma[c].values()]
    owners = [c for c in cells if c not in frozen]
    for independent in (False, True):
        tables = value_tables(game, independent)
        got = affine_values(tables, slots, owners)(x)
        assert len(got) == len(owners)
        for c, values in zip(owners, got):
            want = type_action_values(tables, sigma, c)
            assert len(values) == len(want)
            assert all(abs(v - want[a]) <= 1e-12 for v, a in zip(values, want)), (values, want)


@pytest.mark.parametrize("seed, n_states", [(5023, 3), (5047, 3), (5052, 2), (5008, 3),
                                            (5044, 3)])
@pytest.mark.parametrize("solve, independent", [(solve_ce, False), (solve_ice, True)],
                         ids=["ce", "ice"])
def test_three_action_games_solve_by_linear_enumeration(seed, n_states, solve, independent):
    """These two-player 3-action games fail every floor stage and need more
    support combinations (2,401 or 16,807) than hybr's enumeration budget
    (2,187); with one linear solve per combination, enumeration hands each
    assignment to the driver's verdict and finds an equilibrium."""
    assert_certified(random_bayesian_game(random.Random(seed), n_states, 3), solve, independent)


@pytest.mark.parametrize("seed", [90006, 90062, 90093])
@pytest.mark.parametrize("solve, independent", [(solve_ce, False), (solve_ice, True)],
                         ids=["ce", "ice"])
def test_three_player_games_solve_by_enumeration(seed, solve, independent):
    """These 3-player games with seven 2-action type cells fail every floor
    stage; their 3^7 = 2,187 support combinations fit hybr's enumeration
    budget, and enumeration finds an equilibrium."""
    assert_certified(random_bayesian_game(random.Random(seed), n_states=3, n_players=3),
                     solve, independent)


def assert_certified(game, solve, independent):
    """``solve`` gives strategies whose played actions are optimal within
    ``gap_tol`` under the type-averaged values."""
    config = SolverConfig()
    sigma = solve(game, config)
    tables = value_tables(game, independent)
    q = {c: type_action_values(tables, sigma, c) for c in sigma}
    assert max(support_gaps(q, sigma).values()) <= config.gap_tol
    assert all(abs(sum(d.values()) - 1.0) <= 1e-12 and min(d.values()) >= 0.0
               for d in sigma.values())
