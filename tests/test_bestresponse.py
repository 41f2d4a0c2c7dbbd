import pytest

from cursedeq import games
from cursedeq.bestresponse import check_local_best_response, local_best_response_value
from cursedeq.conjectures import limit_conjecture_system
from cursedeq.tree import BehaviorProfile, GameBuilder


def limit_system(tree, part, prof):
    system, _ = limit_conjecture_system(tree, part, prof)
    return system


def test_running_value_four_thirds(paper):
    tree, part = paper["running-example"]
    prof = games.running_profile_y()
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
    prof = games.running_profile_x()
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
