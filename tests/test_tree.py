import pytest

from cursedeq import games
from cursedeq.tree import (BehaviorProfile, GameBuilder, GameError, ZeroProbabilityError,
                           continuation_utility, expected_utility, n_predecessor,
                           outcome_measure, reach_probability, validate_game)
from helpers import running_profile_y


def seq_profile(a_lo="a", a_hi="d", two_w1="d", two_hi="d"):
    return BehaviorProfile.pure(games.bundled_game("sequential-trading"), {
        "1:lo": a_lo, "1:hi": a_hi, "2:w1": two_w1, "2:hi": two_hi})


def test_paper_games_validate(paper):
    for name, (tree, _) in paper.items():
        assert validate_game(tree).ok, name


def test_action_label_violation():
    b = GameBuilder("bad", ["1"])
    b.chance("r", None, None, {"x": 0.5, "y": 0.5})
    b.player("rx", "r", "x", "1")
    b.player("ry", "r", "y", "1")
    b.terminal("rxa", "rx", "a", {"1": 0})
    b.terminal("rxd", "rx", "d", {"1": 0})
    b.terminal("rya", "ry", "a", {"1": 0})
    b.info_set("I", "1", ["rx", "ry"])  # action sets {a,d} vs {a}
    tree = b.build()
    assert "action-labels" in validate_game(tree).rules()


def test_perfect_recall_violation():
    # one player moves twice; pooling nodes reached by different own actions
    b = GameBuilder("bad", ["1"])
    b.player("r", None, None, "1")
    b.player("rl", "r", "l", "1")
    b.player("rr", "r", "r", "1")
    for n in ("rl", "rr"):
        b.terminal(n + "x", n, "x", {"1": 0})
        b.terminal(n + "y", n, "y", {"1": 0})
    b.info_set("I", "1", ["rl", "rr"])
    tree = b.build()
    assert "perfect-recall" in validate_game(tree).rules()


def test_nature_singleton_and_probability_rules():
    b = GameBuilder("bad", ["1"])
    b.chance("r", None, None, {"x": 0.7, "y": 0.7})
    b.player("rx", "r", "x", "1")
    b.player("ry", "r", "y", "1")
    for n in ("rx", "ry"):
        b.terminal(n + "a", n, "a", {"1": 0})
    tree = b.build()
    assert "probability-sum" in validate_game(tree).rules()


def test_payoff_missing():
    b = GameBuilder("bad", ["1", "2"])
    b.player("r", None, None, "1")
    b.terminal("ra", "r", "a", {"1": 1.0})  # player 2 missing
    b.terminal("rb", "r", "b", {"1": 0.0, "2": 0.0})
    tree = b.build()
    assert "payoff-missing" in validate_game(tree).rules()


def test_n_predecessor_club(paper):
    tree, _ = paper["club-membership"]
    assert n_predecessor(tree, "w1aa", "G") == "w1"
    assert n_predecessor(tree, "w1", "G") is None
    assert n_predecessor(tree, "r", "G") is None
    with pytest.raises(GameError):
        n_predecessor(tree, "zzz", "G")


def test_reach_probability_running(paper):
    tree, _ = paper["running-example"]
    prof = running_profile_y()
    assert reach_probability(tree, prof, ["w2", "w3"]) == pytest.approx(0.6)
    assert reach_probability(tree, prof, ["r"]) == pytest.approx(1.0)
    assert reach_probability(tree, prof, ["w2yl"]) == pytest.approx(0.2)


def test_conditional_reach_and_zero_event(paper):
    tree, _ = paper["running-example"]
    prof = running_profile_y()
    # conditional on player 1's set, the w2 branch carries 1/3 of the mass
    p = reach_probability(tree, prof, ["w2"], given=["w2", "w3"])
    assert p == pytest.approx(1 / 3)
    with pytest.raises(ZeroProbabilityError):
        reach_probability(tree, prof, ["w2"], given=["w2x"])  # x never played


def test_expected_utility_trading():
    tree = games.bundled_game("sequential-trading")
    prof = seq_profile()
    assert expected_utility(tree, prof, "1") == pytest.approx(0.0)
    assert expected_utility(tree, prof, "2") == pytest.approx(0.0)

    sim = games.bundled_game("trading-simultaneous")
    ce = BehaviorProfile.pure(sim, {"1:lo": "a", "1:hi": "d",
                                    "2:t2": "d", "2:t2p": "a"})
    assert expected_utility(sim, ce, "1") == pytest.approx(1 / 3)


def test_expected_utility_degenerate():
    b = GameBuilder("solo", ["1"])
    b.player("r", None, None, "1")
    b.terminal("ra", "r", "only", {"1": 5.0})
    tree = b.build()
    prof = BehaviorProfile.pure(tree, {"is:r": "only"})
    assert expected_utility(tree, prof, "1") == pytest.approx(5.0)


def test_outcome_measure_sums_to_one(paper):
    for name, (tree, _) in paper.items():
        mu = outcome_measure(tree, BehaviorProfile.uniform(tree))
        assert mu.total() == pytest.approx(1.0, abs=1e-9), name


def test_continuation_utility(paper):
    tree, _ = paper["club-membership"]
    # plan confirm from the omega1 accept-accept node
    dists = {"G:2": {"resign": 0.0, "confirm": 1.0}}
    assert continuation_utility(tree, dists, "w1aa", "G") == pytest.approx(-2.0)
    # terminal node: its own payoff
    assert continuation_utility(tree, {}, "w1aar", "G") == pytest.approx(-1.0)


def test_continuation_requires_coverage(paper):
    tree, _ = paper["sequential-trading"]
    with pytest.raises(GameError):
        continuation_utility(tree, {}, "w2", "1")


def test_continuation_from_handed_off_node(paper):
    """Under the coarse conjecture the subtree below the middle state is
    worth two thirds of the high payoff."""
    tree, _ = paper["running-example"]
    dists = {"1:I": {"x": 0.0, "y": 1.0},
             "2:w2y": {"l": 1 / 3, "r": 2 / 3}}
    assert continuation_utility(tree, dists, "w2", "1") == pytest.approx(4.0)
