"""Powell's hybrid root (``solvers._hybrid_root``) against scipy's ``hybr``,
the MINPACK routine it reproduces, and the results it must keep.

scipy is only the reference here; the package does not import it.  Every
system that the polish and support enumeration root in the solves below is
rooted both ways: both must accept the root or both reject it, and accepted
roots agree within 1e-12.  The pins are the results these games had when
the polish called scipy.  The five trees and four static games without a
solve keep their best gap; a change that solves one replaces its case by a
certified solve (ROADMAP item 9: the solved count may only rise).
"""

import hashlib
import math
import platform
import random
from functools import partial

import pytest

from cursedeq import games, golden, solvers
from cursedeq.bayesian import random_bayesian_game, solve_ce, solve_ice
from cursedeq.partition import coarsest_valid_partition
from cursedeq.solvers import (NonConvergenceError, SolverConfig, solve_causal_sce,
                              solve_chi_sce, solve_sce)
from helpers import mixing_keys
from randgames import random_game

THREE = ("1", "2", "3")
# the voting cells of perfbench's solve workload
VOTING_CELLS = ((0.3, 0.25), (0.7, 0.75), (0.2, 0.9), (0.8, 0.5))
# sha256 of to_text() and the iteration count of the SCE of game 60064
GAME_60064 = ("ef50a941ab59c9b89af3e0e73523064a14a09c5180104b2a04a7d512000b599a", 187)
# the CE and ICE of the 3-player game 90033, both found by support enumeration
GAME_90033 = (
    "{('1', 0): {'a': 0.19190164720045388, 'b': 0.8080983527995461}, "
    "('2', 0): {'a': 0.0, 'b': 1.0}, "
    "('2', 1): {'a': 0.7453620906099568, 'b': 0.25463790939004316}, "
    "('3', 0): {'a': 0.8761711530287459, 'b': 0.12382884697125407}}",
    "{('1', 0): {'a': 0.19190164720045388, 'b': 0.8080983527995461}, "
    "('2', 0): {'a': 0.0, 'b': 1.0}, "
    "('2', 1): {'a': 0.7453620906099567, 'b': 0.25463790939004327}, "
    "('3', 0): {'a': 0.8761711530287459, 'b': 0.12382884697125407}}")
# (seed, nodes, players, repr of the best gap) of the SCE solves that fail
UNSOLVED = [(20035, 30, ("1", "2"), "0.07867065509325799"),
            (60013, 45, THREE, "1.0989336611067757"),
            (60026, 45, THREE, "0.3899999999999999"),
            (60081, 45, THREE, "2.604"),
            (60097, 45, THREE, "0.48511958967209456")]
# (seed, repr of the best gap) of the two-player 3-action static games
# random_bayesian_game(Random(seed), 4, 3) whose CE and ICE solves both fail
UNSOLVED_STATIC = [(9019, "1.9391595441595442"), (9030, "0.014783965471608845"),
                   (9046, "0.10699999999999998"), (9094, "0.7208740157480314")]


def helical_valley(x):
    theta = (math.atan(x[1] / x[0]) / (2.0 * math.pi) + (0.5 if x[0] < 0.0 else 0.0)
             if x[0] else math.copysign(0.25, x[1]))
    return [10.0 * (x[2] - 10.0 * theta), 10.0 * (math.hypot(x[0], x[1]) - 1.0), x[2]]


def trigonometric(x):
    total = sum(map(math.cos, x))
    return [len(x) - total + i * (1.0 - math.cos(v)) - math.sin(v)
            for i, v in enumerate(x, 1)]


def broyden_tridiagonal(x):
    padded = [0.0] + x + [0.0]
    return [(3.0 - 2.0 * v) * v - padded[i - 1] - 2.0 * padded[i + 1] + 1.0
            for i, v in enumerate(x, 1)]


# test problems of Moré, Garbow & Hillstrom (1981) at their standard starts,
# and Rosenbrock's scaled by 1e-20, whose norms take MINPACK's tiny branch
PROBLEMS = {
    "rosenbrock": (lambda x: [10.0 * (x[1] - x[0] * x[0]), 1.0 - x[0]], [-1.2, 1.0]),
    "tiny-rosenbrock": (lambda x: [1e-19 * (x[1] - x[0] * x[0]), 1e-20 * (1.0 - x[0])],
                        [-1.2, 1.0]),
    "powell-singular": (lambda x: [x[0] + 10.0 * x[1], math.sqrt(5.0) * (x[2] - x[3]),
                                   (x[1] - 2.0 * x[2]) ** 2,
                                   math.sqrt(10.0) * (x[0] - x[3]) ** 2],
                        [3.0, -1.0, 0.0, 1.0]),
    "powell-badly-scaled": (lambda x: [1e4 * x[0] * x[1] - 1.0,
                                       math.exp(-x[0]) + math.exp(-x[1]) - 1.0001], [0.0, 1.0]),
    "helical-valley": (helical_valley, [-1.0, 0.0, 0.0]),
    "trigonometric": (trigonometric, [0.2] * 5),
    "broyden-tridiagonal": (broyden_tridiagonal, [-1.0] * 5),
}


def scipy_hybr(fun, x0):
    from scipy import optimize
    sol = optimize.root(fun, x0, method="hybr", tol=1e-12)
    return sol.x, sol.fun


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="scipy's MINPACK build may fuse multiply-adds on other machines")
@pytest.mark.parametrize("name", PROBLEMS)
def test_hybrid_root_steps_as_scipy_hybr(name):
    """The hybrid root evaluates the same points as scipy's ``hybr``, bit
    for bit, after scipy's two extra evaluations of the start."""
    fun, x0 = PROBLEMS[name]
    theirs, ours = [], []
    from scipy import optimize
    sol = optimize.root(lambda x: theirs.append(list(map(float, x))) or fun(list(x)), x0,
                        method="hybr", tol=1e-12)
    x, _ = solvers._hybrid_root(lambda x: ours.append(x) or fun(x), x0)
    assert theirs[2:] == ours and x == list(sol.x)


def test_hybrid_root_agrees_with_scipy_hybr(monkeypatch):
    polish = solvers._polish
    accepted = []

    def both(dists, free, q_limit, tol, affine=None):
        got = polish(dists, free, q_limit, tol, affine)
        if affine is None and mixing_keys(dists, free):
            with monkeypatch.context() as m:
                m.setattr(solvers, "_hybrid_root", scipy_hybr)
                want = polish(dists, free, q_limit, tol)
            assert (got is None) == (want is None), dists
            if got is not None:
                assert max(abs(got[k][a] - p) for k, d in want.items()
                           for a, p in d.items()) <= 1e-12, dists
            accepted.append(got is not None)
        return got

    monkeypatch.setattr(solvers, "_polish", both)
    config = SolverConfig(seed=7)
    for name in games.BUNDLED_DOCUMENTS:
        tree = games.bundled_game(name)
        part = coarsest_valid_partition(tree)
        solve_sce(tree, part, config)
        solve_causal_sce(tree, part, config)
        solve_chi_sce(tree, part, 0.5, config)
    for p, q in VOTING_CELLS:
        golden.voting_predictions("sce", ps=[p], qs=[q])
    tree = random_game(random.Random(60064), 45, players=THREE)
    res = solve_sce(tree, coarsest_valid_partition(tree), SolverConfig())
    assert (hashlib.sha256(res.to_text().encode()).hexdigest(), res.iterations) == GAME_60064
    static = {}
    for seed in (90021, 90033):
        game = random_bayesian_game(random.Random(seed), n_states=2, n_players=3)
        static[seed] = (repr(solve_ce(game, SolverConfig())), repr(solve_ice(game, SolverConfig())))
    assert static[90033] == GAME_90033
    # 195 systems, 28 of them rooted, when this test was written
    assert len(accepted) >= 190 and sum(accepted) >= 28


def test_enumeration_roots_value_only_the_mixing_keys(monkeypatch):
    """The CE and ICE of the 3-player game 90033 come from support
    enumeration, whose combinations root through the stage polish: every
    root evaluation asks the limit oracle for exactly the keys that mix, not
    for every free key."""
    polish, enumerate_ = solvers._polish, solvers.enumerate_support_equilibrium
    asked, enumerating = [], []

    def spy(dists, free, q_limit, *rest):
        mixing = mixing_keys(dists, free)

        def limit(trial, owners):
            asked.append((list(owners), mixing, free, bool(enumerating)))
            return q_limit(trial, owners)
        return polish(dists, free, limit, *rest)

    def enumerate_spy(*args):
        enumerating.append(True)
        try:
            return enumerate_(*args)
        finally:
            enumerating.pop()

    monkeypatch.setattr(solvers, "_polish", spy)
    monkeypatch.setattr(solvers, "enumerate_support_equilibrium", enumerate_spy)
    game = random_bayesian_game(random.Random(90033), n_states=2, n_players=3)
    got = (repr(solve_ce(game, SolverConfig())), repr(solve_ice(game, SolverConfig())))
    assert got == GAME_90033
    assert all(owners == mixing for owners, mixing, _, _ in asked)
    rooted = [(owners, free) for owners, _, free, enumeration in asked if enumeration]
    assert rooted and any(len(owners) < len(free) for owners, free in rooted)


def solve_tree(seed, nodes, players):
    tree = random_game(random.Random(seed), nodes, players=players)
    solve_sce(tree, coarsest_valid_partition(tree), SolverConfig())


def solve_static(solve, seed):
    solve(random_bayesian_game(random.Random(seed), 4, 3), SolverConfig())


@pytest.mark.parametrize("run, best_gap", [
    *(pytest.param(partial(solve_tree, seed, nodes, players), gap, id=str(seed))
      for seed, nodes, players, gap in UNSOLVED),
    *(pytest.param(partial(solve_static, solve, seed), gap, id=f"{name}-{seed}")
      for seed, gap in UNSOLVED_STATIC for name, solve in (("ce", solve_ce), ("ice", solve_ice)))])
def test_unsolved_games_keep_their_best_gap(run, best_gap):
    with pytest.raises(NonConvergenceError) as err:
        run()
    assert repr(err.value.best_gap) == best_gap
