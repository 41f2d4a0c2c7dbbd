import random

import pytest

from cursedeq import games
from cursedeq.conjectures import (belief, check_cursed_plausible, compatible,
                                  cursed_conjecture, limit_conjecture_system)
from cursedeq.tree import BehaviorProfile
from helpers import copy_conjecture, mix, pennies_profile_b, running_profile_x, running_profile_y
from randgames import random_game, random_profile


def test_compatible(paper):
    tree, _ = paper["running-example"]
    assert not compatible(tree, "1:I", "2:w1")
    assert compatible(tree, "1:I", "1:I")
    assert compatible(tree, "1:I", "2:w2y")
    nat = tree.nature_info_sets()[0]
    assert compatible(tree, nat, "2:w1")


def test_cursed_conjecture_running(paper):
    tree, part = paper["running-example"]
    prof = running_profile_y()
    uni = BehaviorProfile.uniform(tree)
    trembled = mix(prof, uni, 1e-6)
    conj = cursed_conjecture(tree, part, trembled, "1:I")
    nat = conj.dists["is:r"]
    assert nat["w1"] == pytest.approx(0.0, abs=1e-5)
    assert nat["w2"] == pytest.approx(1 / 3, abs=1e-5)
    assert nat["w3"] == pytest.approx(2 / 3, abs=1e-5)
    for iid in ("2:w2y", "2:w3y"):
        assert conj.dists[iid]["l"] == pytest.approx(1 / 3, abs=1e-5)
        assert conj.dists[iid]["r"] == pytest.approx(2 / 3, abs=1e-5)
    # incompatible set stays out of the conjecture's domain
    assert "2:w1" not in conj.dists


def test_cursed_conjecture_simultaneous_trading():
    tree = games.bundled_game("trading-simultaneous")
    from cursedeq.partition import coarsest_valid_partition
    part = coarsest_valid_partition(tree)
    prof = BehaviorProfile.pure(tree, {"1:lo": "a", "1:hi": "d",
                                       "2:t2": "d", "2:t2p": "d"})
    trembled = mix(prof, BehaviorProfile.uniform(tree), 1e-7)
    conj = cursed_conjecture(tree, part, trembled, "2:t2p")
    nat = conj.dists["is:r"]
    assert nat["w2"] == pytest.approx(0.5, abs=1e-5)
    assert nat["w3"] == pytest.approx(0.5, abs=1e-5)
    one = conj.dists["1:lo"]
    assert one["a"] == pytest.approx(0.5, abs=1e-5)
    assert conj.dists["1:hi"] == one


def test_cursed_conjecture_pennies(paper):
    tree, part = paper["pennies-onlooker"]
    prof = pennies_profile_b()
    trembled = mix(prof, BehaviorProfile.uniform(tree), 1e-7)
    conj = cursed_conjecture(tree, part, trembled, "I3")
    assert conj.dists["I1"]["T"] == pytest.approx(2 / 3, abs=1e-5)
    assert conj.dists["I2"]["t"] == pytest.approx(2 / 3, abs=1e-5)


def test_check_cursed_plausible_pass_and_fail(paper):
    tree, part = paper["running-example"]
    prof = running_profile_y()
    system, diag = limit_conjecture_system(tree, part, prof)
    assert diag.ok
    report = check_cursed_plausible(tree, part, prof, system)
    assert report.ok, str(report)

    # non-coarse opponent conjecture trips clause 3
    broken = {k: copy_conjecture(c) for k, c in system.items()}
    broken["1:I"].dists["2:w2y"] = {"l": 1.0, "r": 0.0}
    report = check_cursed_plausible(tree, part, prof, broken)
    assert not report.ok
    assert {i.clause for i in report.issues} >= {2, 3}


def test_plausibility_zero_probability_clause_vacuous(paper):
    tree, part = paper["running-example"]
    prof = running_profile_x()
    system, _ = limit_conjecture_system(tree, part, prof)
    # overriding with the far-fetched conjecture (2 plays l surely) is still
    # cursed-plausible because the joint event has probability zero
    system["1:I"].dists["2:w2y"] = {"l": 1.0, "r": 0.0}
    system["1:I"].dists["2:w3y"] = {"l": 1.0, "r": 0.0}
    report = check_cursed_plausible(tree, part, prof, system)
    assert report.ok, str(report)


def test_accords_violation_trips_clause_one(paper):
    tree, part = paper["club-membership"]
    prof = BehaviorProfile.pure(tree, {"G:1": "a", "C:w1": "a",
                                       "C:w2": "d", "G:2": "resign"})
    system, _ = limit_conjecture_system(tree, part, prof)
    # the later set's own part at the earlier own set must force the move
    # toward the owner; pointing it elsewhere breaks the first clause
    system["G:2"].dists["G:1"] = {"a": 0.0, "d": 1.0}
    report = check_cursed_plausible(tree, part, prof, system)
    assert not report.ok
    assert {(i.owner, i.clause, i.where) for i in report.issues} == {("G:2", 1, "G:1")}


def test_clause_one_names_the_whole_set_id(paper):
    """G:1's conjecture must copy the profile at the later own set G:2; an
    issue there names the set ``G:2``, not its player prefix."""
    tree, part = paper["club-membership"]
    prof = BehaviorProfile.pure(tree, {"G:1": "a", "C:w1": "a",
                                       "C:w2": "d", "G:2": "resign"})
    system, _ = limit_conjecture_system(tree, part, prof)
    system["G:1"].dists["G:2"] = {"resign": 0.0, "confirm": 1.0}
    report = check_cursed_plausible(tree, part, prof, system)
    assert {(i.owner, i.clause, i.where) for i in report.issues} == {("G:1", 1, "G:2")}


def test_clause_two_checks_a_set_outside_the_owner_region(paper):
    """2:w1 is incompatible with 1:I, but it shares a coarse cell with the
    sets 1:I does reach, so an override there must match that cell's
    frequency."""
    tree, part = paper["running-example"]
    prof = running_profile_y()
    system, _ = limit_conjecture_system(tree, part, prof)
    assert "2:w1" not in system["1:I"].dists
    system["1:I"].dists["2:w1"] = {"l": 1.0, "r": 0.0}
    report = check_cursed_plausible(tree, part, prof, system)
    assert ("1:I", 2, "2:w1") in {(i.owner, i.clause, i.where) for i in report.issues}


def test_belief_running(paper):
    tree, part = paper["running-example"]
    prof = running_profile_y()
    system, _ = limit_conjecture_system(tree, part, prof)
    b = belief(tree, system["1:I"])
    assert b.probs["w2"] == pytest.approx(1 / 3, abs=1e-9)
    assert b.probs["w3"] == pytest.approx(2 / 3, abs=1e-9)
    assert sum(b.probs.values()) == pytest.approx(1.0)


def test_belief_point_mass_club(paper):
    tree, part = paper["club-membership"]
    prof = BehaviorProfile.pure(tree, {"G:1": "a", "C:w1": "a",
                                       "C:w2": "d", "G:2": "resign"})
    system, _ = limit_conjecture_system(tree, part, prof)
    b = belief(tree, system["G:2"])
    assert b.probs["w1aa"] == pytest.approx(1.0, abs=1e-9)


def test_limit_sequential_trading_footnote():
    """After a deviation to declining, the consistent conjecture still pins
    the partner's coarse acceptance probability at one half."""
    tree = games.bundled_game("sequential-trading")
    from cursedeq.partition import coarsest_valid_partition
    part = coarsest_valid_partition(tree)
    prof = BehaviorProfile.pure(tree, {"1:lo": "d", "1:hi": "d",
                                       "2:w1": "d", "2:hi": "a"})
    system, diag = limit_conjecture_system(tree, part, prof)
    conj = system["1:lo"]
    assert conj.dists["2:w1"]["a"] == pytest.approx(0.5, abs=1e-9)
    assert conj.dists["2:hi"]["a"] == pytest.approx(0.5, abs=1e-9)
    assert diag.ok


def test_limit_of_fully_mixed_profile_is_its_conjecture(paper):
    tree, part = paper["running-example"]
    prof = BehaviorProfile.uniform(tree)
    system, diag = limit_conjecture_system(tree, part, prof)
    direct = cursed_conjecture(tree, part, prof, "1:I")
    assert system["1:I"].dists == direct.dists
    assert diag.ok


def test_theorem2_random_games():
    rng = random.Random(7)
    for seed in range(30):
        game_rng = random.Random(rng.randrange(10**9))
        tree = random_game(game_rng, 28)
        from cursedeq.partition import coarsest_valid_partition
        part = coarsest_valid_partition(tree)
        target = random_profile(game_rng, tree)
        system, diag = limit_conjecture_system(tree, part, target)
        report = check_cursed_plausible(tree, part, target, system, tol=1e-6)
        assert report.ok, f"seed {seed}: {report}"
        for conj in system.values():
            for iid, dist in conj.dists.items():
                assert all(0.0 <= p <= 1.0 for p in dist.values()), (seed, iid, dist)
                assert abs(sum(dist.values()) - 1.0) <= 1e-15, (seed, iid, dist)


def test_uniqueness_for_fully_mixed(paper):
    tree, part = paper["running-example"]
    prof = BehaviorProfile.uniform(tree)
    conj = cursed_conjecture(tree, part, prof, "1:I")
    report = check_cursed_plausible(tree, part, prof, {"1:I": conj})
    assert report.ok
    from cursedeq.partition import is_coarse
    opponent = {iid: d for iid, d in conj.dists.items()
                if tree.info_sets[iid].player != "1"}
    assert is_coarse(opponent, part, tree)
