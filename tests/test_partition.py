import random

from cursedeq import games
from cursedeq.partition import (check_valid_partition, coarsest_valid_partition, f_of,
                                is_coarse)
from randgames import random_game


def cells_of(part):
    return {frozenset(nodes) for nodes in part.cells.values()}


def test_sequential_trading_cells(paper):
    tree, part = paper["sequential-trading"]
    assert cells_of(part) == {frozenset({"r"}),
                              frozenset({"w1", "w2", "w3"}),
                              frozenset({"w1a", "w2a", "w3a"})}


def test_running_three_cells(paper):
    tree, part = paper["running-example"]
    assert cells_of(part) == {frozenset({"r"}),
                              frozenset({"w2", "w3"}),
                              frozenset({"w1", "w2y", "w3y"})}


def test_club_four_cells(paper):
    tree, part = paper["club-membership"]
    assert cells_of(part) == {frozenset({"r"}), frozenset({"w1", "w2"}),
                              frozenset({"w1a", "w2a"}),
                              frozenset({"w1aa", "w2aa"})}


def test_mixing_cells(paper):
    tree, part = paper["mixing"]
    assert cells_of(part) == {frozenset({"root"}), frozenset({"L", "R"}),
                              frozenset({"Ll", "Lr", "Rl", "Rr"})}


def test_pennies_partition_equals_info_sets(paper):
    tree, part = paper["pennies-onlooker"]
    info_cells = {frozenset(s.nodes) for s in tree.info_sets.values()}
    assert cells_of(part) == info_cells
    for iid in tree.info_sets:
        assert set(part.cells[f_of(part, tree, iid)]) == set(tree.info_sets[iid].nodes)


def test_f_of_contains_info_set(paper):
    tree, part = paper["sequential-trading"]
    cid = f_of(part, tree, "2:hi")
    assert set(part.cells[cid]) == {"w1a", "w2a", "w3a"}
    # singleton nature set maps to its own cell
    nat = tree.nature_info_sets()[0]
    assert part.cells[f_of(part, tree, nat)] == ("r",)


def test_is_coarse(paper):
    tree, part = paper["running-example"]
    both = {"2:w2y": {"l": 1 / 3, "r": 2 / 3}, "2:w3y": {"l": 1 / 3, "r": 2 / 3}}
    assert is_coarse(both, part, tree)
    differs = {"2:w2y": {"l": 1.0, "r": 0.0}, "2:w3y": {"l": 0.0, "r": 1.0}}
    assert not is_coarse(differs, part, tree)


def test_any_strategy_coarse_when_partition_matches_info_sets(paper):
    tree, part = paper["pennies-onlooker"]
    weird = {iid: {a: (1.0 if i == 0 else 0.0)
                   for i, a in enumerate(tree.info_sets[iid].actions)}
             for iid in tree.player_info_sets()}
    assert is_coarse(weird, part, tree)


def test_check_valid_partition(paper):
    for name, (tree, part) in paper.items():
        own = [list(s.nodes) for s in tree.info_sets.values()]
        assert check_valid_partition(tree, own), name
        assert check_valid_partition(tree, part.cells.values()), name
    tree, _ = paper["sequential-trading"]
    mixed = [["r"], ["w1", "w2", "w3", "w1a"], ["w2a", "w3a"]]
    assert not check_valid_partition(tree, mixed)
    tree, _ = paper["club-membership"]
    valid = [["r"], ["w1a"], ["w2a"], ["w1", "w2"], ["w1aa", "w2aa"]]
    assert check_valid_partition(tree, valid)
    for bad in ([["r"], ["w1a"], ["w2a"], ["w1"], ["w2"], ["w1aa", "w2aa"]],  # recall split
                [["r"], ["w1a"], ["w2a"], ["w1", "w1aa"], ["w2", "w2aa"]],  # unequal labels
                valid + [["w1d"]],  # a terminal node
                valid[:4],  # misses w1aa and w2aa
                valid + [[]]):  # an empty cell
        assert not check_valid_partition(tree, bad), bad


def test_idempotence_when_info_sets_already_coarsest(paper):
    tree, part = paper["pennies-onlooker"]
    again = coarsest_valid_partition(tree)
    assert cells_of(again) == cells_of(part)


def test_coarsest_dominates_random_valid_partitions():
    rng = random.Random(99)
    for _ in range(25):
        tree = random_game(rng, 24)
        part = coarsest_valid_partition(tree)
        candidate = [list(s.nodes) for s in tree.info_sets.values()]
        assert check_valid_partition(tree, candidate)
        for cell in candidate:
            cid = part.cell_of[cell[0]]
            assert all(part.cell_of[n] == cid for n in cell)


def test_determinism_against_relabeling(paper):
    tree, part = paper["club-membership"]
    twice = coarsest_valid_partition(tree)
    assert part.cells == twice.cells
