import math
import random

import pytest

from cursedeq import games, solvers
from cursedeq.bestresponse import local_best_response_value
from cursedeq.partition import coarsest_valid_partition
from cursedeq.solvers import (NonConvergenceError, SolverConfig, check_wpce, sce_witness_check,
                              solve_causal_sce, solve_chi_sce, solve_sce, solve_wpce)
from cursedeq.tree import BehaviorProfile, GameError, outcome_measure
from helpers import distance, pennies_profile_b
from randgames import random_game


def trade_probability(tree, profile):
    mu = outcome_measure(tree, profile)
    return sum(p for z, p in mu.probs.items() if abs(tree.payoffs[z]["1"]) > 1e-9)


def pure(dist, tol=1e-9):
    return max(dist, key=dist.get) if max(dist.values()) > 1 - tol else None


def test_sce_sequential_trading_no_trade(paper):
    tree, part = paper["sequential-trading"]
    res = solve_sce(tree, part, SolverConfig(seed=7))
    assert res.max_gap <= SolverConfig().gap_tol
    assert pure(res.profile.dists["2:hi"]) == "d"
    assert trade_probability(tree, res.profile) == pytest.approx(0.0, abs=1e-9)


def test_sce_simultaneous_and_fictitious_trade(paper):
    for name in ("trading-simultaneous", "trading-fictitious"):
        tree, part = paper[name]
        res = solve_sce(tree, part, SolverConfig(seed=7))
        assert pure(res.profile.dists["2:t2p"]) == "a", name
        assert pure(res.profile.dists["1:lo"]) == "a", name
        assert trade_probability(tree, res.profile) == pytest.approx(1 / 3, abs=1e-6)


def test_sce_club_accept_then_resign(paper):
    tree, part = paper["club-membership"]
    res = solve_sce(tree, part, SolverConfig(seed=3))
    assert pure(res.profile.dists["G:1"]) == "a"
    assert pure(res.profile.dists["G:2"]) == "resign"
    value, _, _ = local_best_response_value(tree, part, res.conjectures["G:1"])
    assert value == pytest.approx(2 / 9, abs=1e-9)


def test_sce_mixing_example(paper):
    tree, part = paper["mixing"]
    res = solve_sce(tree, part, SolverConfig(seed=7))
    p = res.profile.dists["I1"]["L"]
    assert abs(6 * p * (1 - p) - 1) <= 1e-6
    assert res.profile.dists["I3"]["a"] == pytest.approx(0.5, abs=1e-6)
    assert pure(res.profile.dists["I2L"]) == "l"
    assert pure(res.profile.dists["I2R"]) == "r"


def test_pennies_witness_and_chi_zero(paper):
    tree, part = paper["pennies-onlooker"]
    prof = pennies_profile_b()
    ok, gaps, conjs = sce_witness_check(tree, part, prof)
    assert ok, gaps
    conj = conjs["I3"]
    assert conj.dists["I1"]["T"] == pytest.approx(2 / 3, abs=1e-9)
    assert conj.dists["I2"]["t"] == pytest.approx(2 / 3, abs=1e-9)
    okb, gapsb, _ = sce_witness_check(tree, part, prof, concept="chi-sce", chi=0.0)
    assert not okb
    assert gapsb["I3"] == pytest.approx(2 / 3, abs=1e-6)  # 14/3 - 4


def test_chi_zero_solve_recovers_sequential_behavior(paper):
    tree, part = paper["pennies-onlooker"]
    res = solve_chi_sce(tree, part, 0.0, SolverConfig(seed=7))
    assert pure(res.profile.dists["I3"]) == "a"
    assert res.profile.dists["I1"]["H"] == pytest.approx(0.5, abs=1e-6)
    assert res.profile.dists["I2"]["h"] == pytest.approx(0.5, abs=1e-6)


def test_chi_one_matches_sce(paper):
    tree, part = paper["sequential-trading"]
    a = solve_sce(tree, part, SolverConfig(seed=5))
    b = solve_chi_sce(tree, part, 1.0, SolverConfig(seed=5))
    assert distance(a.profile, b.profile) < 1e-9


def test_chi_interval_on_trading_table(paper):
    tree, part = paper["trading-simultaneous"]
    trades = []
    for k in range(11):
        res = solve_chi_sce(tree, part, k / 10, SolverConfig(seed=1))
        trades.append(trade_probability(tree, res.profile) > 1e-6)
    assert trades[10] and not trades[0]
    first = trades.index(True)
    assert all(trades[first:]), trades
    assert not any(trades[:4])  # mixture value is negative strictly below 1/2
    assert all(trades[6:])


def test_chi_half_mixture_value(paper):
    """At even weight the acceptance value mixes the cursed value (1/2)
    with the trembling Bayes value (-1/2), so the type is indifferent."""
    tree, part = paper["trading-simultaneous"]
    from cursedeq.solvers import LimitOracle
    prof = BehaviorProfile.pure(tree, {"1:lo": "a", "1:hi": "d",
                                       "2:t2": "d", "2:t2p": "a"})
    oracle = LimitOracle(tree, part, "chi-sce", 0.5)
    q, _, _ = oracle.artifacts(prof, ["2:t2p"])
    assert q["2:t2p"]["a"] == pytest.approx(0.0, abs=1e-9)
    oracle1 = LimitOracle(tree, part, "chi-sce", 1.0)
    q1, _, _ = oracle1.artifacts(prof, ["2:t2p"])
    assert q1["2:t2p"]["a"] == pytest.approx(0.5, abs=1e-9)
    oracle0 = LimitOracle(tree, part, "chi-sce", 0.0)
    q0, _, _ = oracle0.artifacts(prof, ["2:t2p"])
    assert q0["2:t2p"]["a"] == pytest.approx(-0.5, abs=1e-9)


def test_chi_limit_walks_the_tree_once(paper, monkeypatch):
    """One chi-SCE limit evaluation reads the cursed conjectures and the
    Bayes beliefs of every owner from a single leading-term reach walk."""
    import cursedeq
    from cursedeq.solvers import LimitOracle
    real = cursedeq.tree.node_reach
    walks = []

    def counted(tree, *args, **kwargs):
        walks.append(tree.title)
        return real(tree, *args, **kwargs)

    for mod in (cursedeq.tree, cursedeq.conjectures, cursedeq.solvers):
        monkeypatch.setattr(mod, "node_reach", counted)
    tree, part = paper["trading-simultaneous"]
    prof = BehaviorProfile.pure(tree, {"1:lo": "a", "1:hi": "d",
                                       "2:t2": "d", "2:t2p": "a"})
    owners = sorted(tree.player_info_sets())
    LimitOracle(tree, part, "chi-sce", 0.5).artifacts(prof, owners)
    assert len(walks) == 1


def test_causal_demo(paper):
    tree, part = paper["leader-follower"]
    res = solve_causal_sce(tree, part, SolverConfig(seed=7))
    assert pure(res.profile.dists["I1"]) == "R"
    assert pure(res.profile.dists["I2L"]) == "l"
    assert pure(res.profile.dists["I2R"]) == "r"
    # per-action conjectures present
    assert ("I1", "L") in res.conjectures and ("I1", "R") in res.conjectures

    # plain concept still admits the leader playing left
    profL = BehaviorProfile.pure(tree, {"I1": "L", "I2L": "l", "I2R": "r"})
    ok, _, _ = sce_witness_check(tree, part, profL)
    assert ok


def test_causal_stage_and_limit_walk_the_tree_once(paper, monkeypatch):
    """A causal floor stage and a causal limit evaluation each walk the
    whole tree once; every (owner, action) reach re-walks only the subtrees
    below the owner's nodes."""
    import cursedeq.conjectures
    import cursedeq.solvers
    import cursedeq.tree
    real, real_values = cursedeq.tree.node_reach, cursedeq.solvers._values
    walks, floors = [], []

    def counted(tree, *args, **kwargs):
        walks.append(tree.title)
        return real(tree, *args, **kwargs)

    def values(*args):
        floors.append(args[6])
        return real_values(*args)

    for mod in (cursedeq.tree, cursedeq.conjectures, cursedeq.solvers):
        monkeypatch.setattr(mod, "node_reach", counted)
    tree, part = paper["running-example"]
    owners = sorted(tree.player_info_sets())
    cursedeq.solvers.LimitOracle(tree, part, "causal-sce", 1.0).artifacts(
        BehaviorProfile.uniform(tree), owners)
    assert len(walks) == 1
    walks.clear()
    monkeypatch.setattr(cursedeq.solvers, "_values", values)
    solve_causal_sce(tree, part, SolverConfig(seed=7))
    assert 0.0 in floors and any(f > 0.0 for f in floors)
    assert len(walks) == len(floors)


def test_floor_stage_floors_each_owner_once(paper, monkeypatch):
    """In a floor stage step the homotopy floors each free owner's values
    once (its optimal set taken once; ``_floor_dist`` only on a tie, for the
    same values); optimize_plan floors only the own sets strictly below its
    owner (G:2 below G:1 in the club game) and leaves the owner's plan until
    read."""
    import cursedeq.bestresponse as br
    import cursedeq.solvers as sv

    class StageDone(Exception):
        pass

    real_floor, real_plan, real_values = br._floor_dist, br.optimize_plan, sv._values
    real_optimal = sv.optimal
    events, owner_values = [], []

    def floored(where):
        def run(actions, values, *args, **kwargs):
            events.append((where, values))
            return real_floor(actions, values, *args, **kwargs)
        return run

    def optimal(values, tol):
        events.append(("homotopy", values))
        return real_optimal(values, tol)

    def plan(*args, **kwargs):
        res = real_plan(*args, **kwargs)
        owner_values.append(res.action_values)
        return res

    def stage(*args):
        if args[6] > 0.0:
            if any(e == ("stage", None) for e in events):
                raise StageDone
            events.append(("stage", None))
        return real_values(*args)

    monkeypatch.setattr(br, "_floor_dist", floored("plan"))
    monkeypatch.setattr(sv, "_floor_dist", floored("tie"))
    monkeypatch.setattr(sv, "optimal", optimal)
    monkeypatch.setattr(br, "optimize_plan", plan)
    monkeypatch.setattr(sv, "_values", stage)
    tree, part = paper["club-membership"]
    with pytest.raises(StageDone):
        solve_sce(tree, part, SolverConfig(seed=7))
    step = events[events.index(("stage", None)) + 1:]
    where = [w for w, _ in step]
    assert where.count("homotopy") == len(tree.player_info_sets()) == 4
    assert where.count("plan") == 1
    homotopy = [v for w, v in step if w == "homotopy"]
    assert all(list(v.values()) in homotopy for w, v in step if w == "tie")
    assert not any(v is q for w, v in events if w == "plan" for q in owner_values)
    monkeypatch.undo()
    conj = sv.cursed_conjecture(tree, part, BehaviorProfile.uniform(tree), "G:1")
    res = br.respond(tree, "G:1", conj, floor=0.05)
    assert list(res.plan) == ["G:2", "G:1"]
    assert res.plan["G:1"] == br._floor_dist(("d", "a"), res.action_values, 0.05)
    assert res.value == sum(res.plan["G:1"][a] * q for a, q in res.action_values.items())


def test_causal_single_player_backward_induction():
    from cursedeq.tree import GameBuilder
    b = GameBuilder("solo", ["1"])
    b.player("r", None, None, "1")
    b.player("rA", "r", "A", "1")
    b.terminal("rB", "r", "B", {"1": 2.0})
    b.terminal("rAx", "rA", "x", {"1": 5.0})
    b.terminal("rAy", "rA", "y", {"1": 1.0})
    tree = b.build()
    part = coarsest_valid_partition(tree)
    res = solve_causal_sce(tree, part, SolverConfig(seed=0))
    assert pure(res.profile.dists["is:r"]) == "A"
    assert pure(res.profile.dists["is:rA"]) == "x"


def test_wpce_check_and_solve(paper):
    tree, part = paper["sequential-trading"]
    res = solve_wpce(tree, part, SolverConfig(seed=7))
    assert res.concept == "wpce"
    report = check_wpce(tree, part, res.profile, res.conjectures)
    assert report.ok


def test_failed_limit_diagnostics_are_not_an_equilibrium(paper, failing_certification):
    """A limit system that reaches its owner set with probability zero fails
    the certification, so no candidate, whether from a start or from support
    enumeration, may be returned."""
    tree, part = paper["leader-follower"]
    with pytest.raises(NonConvergenceError, match="limit certification"):
        solve_sce(tree, part, SolverConfig())


def test_mixing_polish_reaches_the_exact_root(paper):
    """The limit values are exact, so the polished mixture solves
    6 p (1 - p) = 1 to rounding: p = (3 - sqrt 3) / 6."""
    tree, part = paper["mixing"]
    res = solve_sce(tree, part, SolverConfig(seed=7))
    assert abs(res.profile.dists["I1"]["L"] - (3 - 3 ** 0.5) / 6) <= 1e-15


def test_random_game_20048_solves_to_a_mixed_sce():
    """A 30-node random game with no pure SCE under the uniform witness,
    whose damped stages cycle: judging each stage's own last iterate finds a
    mixed SCE, which both certifiers accept."""
    tree = random_game(random.Random(20048), 30)
    part = coarsest_valid_partition(tree)
    res = solve_sce(tree, part, SolverConfig(seed=48))
    assert any(0.0 < p < 1.0 for d in res.profile.dists.values() for p in d.values())
    assert check_wpce(tree, part, res.profile, res.conjectures, tol=1e-6).ok
    assert sce_witness_check(tree, part, res.profile)[0]


def test_random_game_20048_stages_stop_at_exact_cycles(monkeypatch):
    """A stage step reads only the iterate and the floor, so a stage whose
    iterate repeats exactly skips its remaining steps: the reported count
    stays 133, over fewer calls of the stage step."""
    calls = []
    step = solvers._stage_step
    monkeypatch.setattr(solvers, "_stage_step", lambda *a: calls.append(a) or step(*a))
    tree = random_game(random.Random(20048), 30)
    res = solve_sce(tree, coarsest_valid_partition(tree), SolverConfig(seed=48))
    assert res.iterations == 133
    assert len(calls) < 133


# sha256 of to_text() plus the iteration count of the voting SCE cells at
# p = 0.7, q = 0.75 (seed 0), as the solver gave them before a root
# evaluated each point once
VOTING_CELL_DIGESTS = {
    "simultaneous": "f17bf672bed8f6eaeb6f48b69c6ae48abb445e3d228e95c1f0b90a27a34fd361",
    "sequential": "fe34f3d77ef417a8f2edbbb2f2f3d126b815164f1485b5125cbe8f3e4ca81441",
}


def test_root_evaluates_each_point_once(monkeypatch):
    """Within one Newton root the limit oracle sees each strategy once: the
    hybrid method's revisits and the points outside [0, 1] that clip to one
    strategy all read the per-root memo.  The voting SCE cells (p = 0.7,
    q = 0.75) and the mixing game keep their pinned bytes."""
    import hashlib
    import json
    from pathlib import Path

    roots, active = [], []
    root, artifacts = solvers._hybrid_root, solvers.LimitOracle.artifacts

    def spy_root(*args, **kwargs):
        roots.append([])
        active.append(True)
        try:
            return root(*args, **kwargs)
        finally:
            active.pop()

    def spy_artifacts(self, profile, owners):
        if active:
            roots[-1].append(repr((sorted(profile.dists.items()), list(owners))))
        return artifacts(self, profile, owners)

    monkeypatch.setattr(solvers, "_hybrid_root", spy_root)
    monkeypatch.setattr(solvers.LimitOracle, "artifacts", spy_artifacts)
    for treatment, digest in VOTING_CELL_DIGESTS.items():
        tree, frozen = games.voting_game(0.7, 0.75, treatment)
        res = solve_sce(tree, coarsest_valid_partition(tree), SolverConfig(), frozen=frozen)
        text = f"{res.to_text()}iterations {res.iterations}\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest, treatment
    pinned = json.loads((Path(__file__).parent / "data" / "pinned_outputs.json").read_text())
    tree = games.bundled_game("mixing")
    res = solve_sce(tree, coarsest_valid_partition(tree), SolverConfig(seed=7))
    assert f"{res.to_text()}iterations {res.iterations}\n" == pinned["sce:mixing"]
    assert roots and all(calls for calls in roots)
    assert all(len(set(calls)) == len(calls) for calls in roots)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_flat_decision_solves_to_uniform_at_first_stage(n):
    """n equal actions start at the floor 0.5/n, where the uniform strategy
    puts 2 eps (to rounding) on every action: where the cut would strip it
    all, the strategy stays whole, and the first stage's verdict passes."""
    from cursedeq.tree import GameBuilder
    b = GameBuilder("flat", ["1"])
    b.player("r", None, None, "1")
    for i in range(n):
        b.terminal(f"r{i}", "r", f"a{i}", {"1": 1.0})
    tree = b.build()
    res = solve_sce(tree, coarsest_valid_partition(tree), SolverConfig())
    assert res.iterations == 1
    assert res.profile.dists["is:r"] == pytest.approx({f"a{i}": 1.0 / n for i in range(n)},
                                                      abs=1e-15)


def test_untrembled_limit_zero_is_exact(paper):
    """An action that only a tremble reaches has limit frequency exactly 0."""
    tree, part = paper["leader-follower"]
    res = solve_sce(tree, part, SolverConfig(seed=7))
    assert res.conjectures["I1"].dists["I2L"]["l"] == 0.0


# The ids are fixed so that each case keeps its name when a case is removed;
# bad1, bad4 and bad6 were the cases of the former `tie_tol` field.  A solve
# runs one start, so the compatibility keyword `restarts` accepts only 0.
@pytest.mark.parametrize("bad", [pytest.param({"gap_tol": 0.0}, id="bad0"),
                                 pytest.param({"restarts": -1}, id="bad2"),
                                 pytest.param({"gap_tol": -1e-8}, id="bad3"),
                                 pytest.param({"gap_tol": math.nan}, id="bad5"),
                                 pytest.param({"gap_tol": math.inf}, id="bad7"),
                                 pytest.param({"restarts": 1}, id="bad8")])
def test_solver_config_rejects_bad_values(bad):
    with pytest.raises(GameError):
        SolverConfig(**bad)


def test_every_solve_passes_wpce_on_random_games():
    solved = 0
    for seed in range(12):
        rng = random.Random(4000 + seed)
        tree = random_game(rng, 26)
        part = coarsest_valid_partition(tree)
        try:
            res = solve_sce(tree, part, SolverConfig(seed=seed))
        except NonConvergenceError:
            continue
        solved += 1
        report = check_wpce(tree, part, res.profile, res.conjectures, tol=1e-6)
        assert report.ok, f"seed {seed}: {report}"
    assert solved >= 10


def test_seeded_determinism(paper):
    """The seed only labels a solve: two seeds give the same bytes apart from
    the ``seed`` line."""
    tree, part = paper["mixing"]
    a = solve_sce(tree, part, SolverConfig(seed=11))
    b = solve_sce(tree, part, SolverConfig(seed=11))
    assert a.to_text() == b.to_text()
    c = solve_sce(tree, part, SolverConfig(seed=12))
    assert c.max_gap <= SolverConfig().gap_tol

    def unlabelled(res):
        return [line for line in res.to_text().splitlines() if not line.startswith("seed ")]

    assert "seed 11" in a.to_text().splitlines() and "seed 12" in c.to_text().splitlines()
    assert unlabelled(a) == unlabelled(c)


@pytest.fixture(scope="module")
def bundled_solves():
    """Every bundled game solved at seed 7 under SCE, chi-SCE (0.5) and
    causal SCE, keyed by game name and concept."""
    config = SolverConfig(seed=7)
    out = {}
    for name in games.BUNDLED_DOCUMENTS:
        tree = games.bundled_game(name)
        part = coarsest_valid_partition(tree)
        out[name] = (tree, part, {"sce": solve_sce(tree, part, config),
                                  "chi-sce": solve_chi_sce(tree, part, 0.5, config),
                                  "causal-sce": solve_causal_sce(tree, part, config)})
    return out


@pytest.mark.parametrize("concept, chi", [("sce", 1.0), ("chi-sce", 0.5), ("causal-sce", 1.0)])
def test_witness_check_accepts_solver_output(bundled_solves, concept, chi):
    """The public certifier accepts what the solver's final test accepted."""
    for name, (tree, part, results) in bundled_solves.items():
        ok, gaps, _ = sce_witness_check(tree, part, results[concept].profile,
                                        SolverConfig(seed=7), concept, chi)
        assert ok, (name, gaps)


def test_check_wpce_accepts_sce_output(bundled_solves):
    for name, (tree, part, results) in bundled_solves.items():
        res = results["sce"]
        report = check_wpce(tree, part, res.profile, res.conjectures)
        assert report.ok, (name, str(report))
