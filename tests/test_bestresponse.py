import pytest

from cursedeq import games
from cursedeq.bestresponse import (_floor_dist, check_local_best_response,
                                   local_best_response_value, optimal, support_gaps)
from cursedeq.conjectures import limit_conjecture_system
from cursedeq.tree import BehaviorProfile, GameBuilder
from helpers import running_profile_x, running_profile_y


def limit_system(tree, part, prof):
    system, _ = limit_conjecture_system(tree, part, prof)
    return system


def test_running_value_four_thirds(paper):
    tree, part = paper["running-example"]
    prof = running_profile_y()
    conj = limit_system(tree, part, prof)["1:I"]
    value, optimal, plan = local_best_response_value(tree, part, conj)
    assert value == pytest.approx(4 / 3, abs=1e-9)
    assert optimal == ("y",)


def test_club_first_set_value(paper):
    tree, part = paper["club-membership"]
    prof = BehaviorProfile.pure(tree, {"G:1": "a", "C:w1": "a",
                                       "C:w2": "d", "G:2": "resign"})
    conj = limit_system(tree, part, prof)["G:1"]
    value, optimal, plan = local_best_response_value(tree, part, conj)
    assert value == pytest.approx(2 / 9, abs=1e-9)
    assert optimal == ("a",)
    # the optimal plan replans toward confirm at the later set
    assert plan["G:2"]["confirm"] == pytest.approx(1.0)


def test_single_action_owner():
    b = GameBuilder("one", ["1"])
    b.player("r", None, None, "1")
    b.terminal("ronly", "r", "go", {"1": 3.5})
    tree = b.build()
    from cursedeq.partition import coarsest_valid_partition
    part = coarsest_valid_partition(tree)
    prof = BehaviorProfile.pure(tree, {"is:r": "go"})
    conj = limit_system(tree, part, prof)["is:r"]
    value, optimal, _ = local_best_response_value(tree, part, conj)
    assert optimal == ("go",)
    assert value == pytest.approx(3.5)


def test_check_local_best_response_wpce(paper):
    tree, part = paper["running-example"]
    prof = running_profile_x()
    system = limit_system(tree, part, prof)
    # far-fetched but plausible conjecture: 2 plays l surely
    system["1:I"].dists["2:w2y"] = {"l": 1.0, "r": 0.0}
    system["1:I"].dists["2:w3y"] = {"l": 1.0, "r": 0.0}
    report = check_local_best_response(tree, part, prof, system)
    assert report.ok, str(report)


def test_check_flags_dominated_action():
    tree = games.bundled_game("sequential-trading")
    from cursedeq.partition import coarsest_valid_partition
    part = coarsest_valid_partition(tree)
    prof = BehaviorProfile.pure(tree, {"1:lo": "a", "1:hi": "d",
                                       "2:w1": "d", "2:hi": "a"})
    system = limit_system(tree, part, prof)
    report = check_local_best_response(tree, part, prof, system)
    assert not report.ok
    assert report.gaps["2:hi"] == pytest.approx(1.0, abs=1e-6)  # 0 versus -1


def test_indifferent_actions_always_pass():
    b = GameBuilder("flat", ["1"])
    b.player("r", None, None, "1")
    b.terminal("ra", "r", "a", {"1": 2.0})
    b.terminal("rb", "r", "b", {"1": 2.0})
    tree = b.build()
    from cursedeq.partition import coarsest_valid_partition
    part = coarsest_valid_partition(tree)
    prof = BehaviorProfile({"is:r": {"a": 0.37, "b": 0.63}})
    system = limit_system(tree, part, prof)
    report = check_local_best_response(tree, part, prof, system)
    assert report.ok


def _price_responses(tree, owners):
    """Every owner's best response on a price cell, as the price harness
    asks for them: trader 1 against its Bayes belief under uniform play,
    trader 2 against its cursed conjecture of uniform play."""
    from cursedeq.bestresponse import respond
    from cursedeq.conjectures import cursed_conjecture
    from cursedeq.partition import coarsest_valid_partition
    from cursedeq.tree import node_reach
    uniform = BehaviorProfile.uniform(tree)
    full = uniform.full(tree)
    reach = node_reach(tree, full)
    part = coarsest_valid_partition(tree)
    out = {}
    for iid in owners:
        if iid.startswith("T1"):
            nodes = tree.info_sets[iid].nodes
            total = sum(reach[h] for h in nodes)
            res = respond(tree, iid, None, 0.0, {h: reach[h] / total for h in nodes}, full)
        else:
            res = respond(tree, iid, cursed_conjecture(tree, part, uniform, iid, reach=reach))
        out[iid] = (res.value, res.action_values, res.optimal_actions, res.plan)
    return out


@pytest.mark.parametrize("treatment", ["simultaneous", "sequential"])
def test_compiled_plan_holds_no_payoffs(treatment):
    """Two price cells of one skeleton share its compiled best-response
    program; asked in alternating order, every trader-1 and trader-2
    response equals the one on a fresh tree of its cell."""
    from cursedeq.games import price_grid, prices_cell, prices_game, prices_skeleton
    g = 5
    skeleton = prices_skeleton(g, treatment)
    prices = price_grid(g)[1], price_grid(g)[3]
    cells = {p1: prices_cell(skeleton, g, p1) for p1 in prices}
    owners = [o for j in range(g) for o in (f"T1:{j}", *sorted(
        i for i in skeleton.player_info_sets("T2") if i.split(":")[1] == str(j)))]
    shared = {p1: {} for p1 in prices}
    for k, owner in enumerate(owners):
        for p1 in (prices if k % 2 == 0 else prices[::-1]):
            shared[p1].update(_price_responses(cells[p1], [owner]))
    fresh = {p1: _price_responses(prices_game(g, treatment, p1), owners) for p1 in prices}
    assert shared == fresh
    assert shared[prices[0]] != shared[prices[1]]


def test_own_set_below_zero_probability_action():
    """Player 1's later set J lies only below nature's zero-probability
    action x, and the conjecture lacks player 2's set K.  The compiled pass
    evaluates the whole subtree anyway; the values read stay those of the
    reachable play: L is worth 1 (through y), R is worth 0 (K unconjectured)."""
    from cursedeq.bestresponse import Scenario, optimize_plan
    b = GameBuilder("unread", ["1", "2"])
    b.player("r", None, None, "1")
    b.chance("m", "r", "L", {"x": 0.5, "y": 0.5})
    b.player("d", "m", "x", "1")
    b.terminal("du", "d", "u", {"1": 5.0, "2": 0.0})
    b.terminal("dv", "d", "v", {"1": -5.0, "2": 0.0})
    b.terminal("my", "m", "y", {"1": 1.0, "2": 0.0})
    b.player("k", "r", "R", "2")
    b.terminal("kp", "k", "p", {"1": 9.0, "2": 0.0})
    b.terminal("kq", "k", "q", {"1": 9.0, "2": 0.0})
    b.info_set("I", "1", ["r"])
    b.info_set("J", "1", ["d"])
    b.info_set("K", "2", ["k"])
    tree = b.build()
    dists = {"is:m": {"x": 0.0, "y": 1.0}}
    res = optimize_plan(tree, "I", [Scenario(1.0, {"r": 1.0}, dists)], "1")
    assert res.action_values == {"L": 1.0, "R": 0.0}
    assert res.optimal_actions == ("L",)
    # J carries no weight, so its q values tie at 0 and its plan is uniform
    assert res.plan == {"J": {"u": 0.5, "v": 0.5}, "I": {"L": 1.0, "R": 0.0}}


def test_optimal_keeps_ties_within_tol_in_value_order():
    values = {"c": 1.0, "a": 2.0 - 1e-10, "b": 2.0, "d": 2.0 - 1e-6}
    keys = list(values)
    for tol, expected in ((1e-9, ("a", "b")), (1e-5, ("a", "b", "d")), (0.0, ("b",))):
        # positions in the value sequence, a dict's and a list's alike
        assert optimal(values.values(), tol) == optimal(list(values.values()), tol)
        assert tuple(keys[i] for i in optimal(values.values(), tol)) == expected


def test_floor_dist_ties_keep_the_incumbent_and_an_infeasible_floor_raises():
    """Every action keeps the floor and the excess goes to the optimal set:
    an exact tie keeps the incumbent mixture renormalized over the tied
    actions (split uniformly when the incumbent puts no mass there), and a
    floor above 1/|A| raises."""
    acts, values = ("a", "b", "c"), {"a": 2.0, "b": 2.0, "c": 1.0}
    d = _floor_dist(acts, values, 0.01, incumbent={"a": 0.3, "b": 0.6, "c": 0.1})
    assert d == pytest.approx({"a": 0.01 + 0.97 / 3, "b": 0.01 + 0.97 * 2 / 3, "c": 0.01})
    assert list(d) == list(acts)
    d = _floor_dist(acts, values, 0.01, incumbent={"a": 0.0, "b": 0.0, "c": 1.0})
    assert d == pytest.approx({"a": 0.01 + 0.97 / 2, "b": 0.01 + 0.97 / 2, "c": 0.01})
    assert _floor_dist(("a", "b"), {"a": 2.0, "b": 2.0}, 0.01,
                       incumbent={"a": 0.3, "b": 0.7})["a"] == pytest.approx(0.01 + 0.98 * 0.3)
    # a unique optimum takes all the excess, whatever the incumbent
    d = _floor_dist(acts, {"a": 1.0, "b": 3.0, "c": 2.0}, 0.1,
                    incumbent={"a": 0.5, "b": 0.25, "c": 0.25})
    assert d == pytest.approx({"a": 0.1, "b": 0.8, "c": 0.1})
    with pytest.raises(ValueError, match="too large"):
        _floor_dist(acts, values, 0.34)


def test_support_gaps_positive_probability_empty_support_and_key_order():
    values = {"y": {"l": 1.0, "r": 0.25}, "x": {"l": 0.0, "r": 1.0}, "z": {"l": 3.0, "r": 3.0},
              "w": {"l": 2.0, "r": 0.0}}
    dists = {"x": {"l": 0.5, "r": 0.5}, "y": {"l": 1.0 - 1e-12, "r": 1e-12},
             "z": {"l": 0.0, "r": 0.0}, "w": {"l": 1.0, "r": 0.0}}
    gaps = support_gaps(values, dists)
    # any positive probability is play, however small; probability 0 is not,
    # and an empty support has gap 0
    assert gaps == {"y": 0.75, "x": 1.0, "z": 0.0, "w": 0.0}
    assert list(gaps) == ["y", "x", "z", "w"]


def test_check_local_best_response_counts_a_tiny_probability_as_played():
    """Trader 2 plays a, worth 1.0 less than d at 2:hi, with probability
    1e-7, below the check's tolerance 1e-6: the action is still played, and
    the gap of 1.0 fails the check."""
    tree = games.bundled_game("sequential-trading")
    from cursedeq.partition import coarsest_valid_partition
    part = coarsest_valid_partition(tree)
    prof = BehaviorProfile({"1:hi": {"a": 0.0, "d": 1.0}, "1:lo": {"a": 1.0, "d": 0.0},
                            "2:hi": {"a": 1e-7, "d": 1.0 - 1e-7}, "2:w1": {"a": 0.0, "d": 1.0}})
    system = limit_system(tree, part, prof)
    report = check_local_best_response(tree, part, prof, system, tol=1e-6)
    assert not report.ok
    assert [i.info_set for i in report.issues] == ["2:hi"]
    assert report.gaps["2:hi"] == pytest.approx(1.0, abs=1e-9)
    assert "played 'a'" in str(report)
