import pytest

from cursedeq import games
from cursedeq.gamefile import parse_experiment
from cursedeq.games import (ExperimentSpec, TwoStageAuctionSpec, generate_experiment,
                            prices_game, snap_price, two_stage_auction_tree, type_grid,
                            type_weights, voting_game)
from cursedeq.tree import GameError, validate_game


def test_voting_sequential_four_info_sets():
    tree, frozen = voting_game(0.6, 0.5, "sequential")
    assert validate_game(tree).ok
    subj_sets = tree.player_info_sets("subj")
    assert len(subj_sets) == 4
    assert {"c1", "c2"} == frozen.players()


def test_voting_simultaneous_single_info_set():
    tree, _ = voting_game(0.6, 0.5, "simultaneous")
    subj_sets = tree.player_info_sets("subj")
    assert len(subj_sets) == 1
    assert len(tree.info_sets[subj_sets[0]].nodes) == 8


def test_voting_rejects_degenerate_parameters():
    with pytest.raises(GameError):
        voting_game(0.0, 0.5, "sequential")
    with pytest.raises(GameError):
        voting_game(0.5, 0.5, "midway")


def test_fictitious_player_structure(paper):
    tree, _ = paper["trading-fictitious"]
    root_set = tree.info_sets["0:root"]
    assert root_set.actions == ("w1", "w2", "w3")
    # each action of player 0 leads to the full trading subgame
    for w in ("w1", "w2", "w3"):
        sub = tree.children[tree.children["r"][w]]
        assert set(sub.keys()) == {"a", "d"}


def test_type_grid_strictly_positive_weights():
    for g in (5, 21):
        for high in (True, False):
            w = type_weights(g, high)
            assert min(w.values()) > 0
            assert sum(w.values()) == pytest.approx(1.0)
    grid = type_grid(21)
    assert len(grid) == 21
    assert grid[0] > 0 and grid[-1] < 1
    # exact posterior at grid points
    for t in grid:
        hi = type_weights(21, True)[t]
        lo = type_weights(21, False)[t]
        assert hi / (hi + lo) == pytest.approx(t)


def test_snap_price():
    assert snap_price(0.525, 21) == pytest.approx(0.55)
    assert snap_price(0.5, 21) == pytest.approx(0.5)
    assert snap_price(0.024, 21) == pytest.approx(0.0)
    assert snap_price(0.026, 21) == pytest.approx(0.05)


def test_prices_game_structure():
    tree = prices_game(5, "simultaneous", 0.5)
    assert validate_game(tree).ok
    assert len(tree.player_info_sets("T1")) == 5
    assert len(tree.player_info_sets("T2")) == 5
    seq = prices_game(5, "sequential", 0.5)
    assert validate_game(seq).ok
    assert len(seq.player_info_sets("T2")) == 10


def test_two_stage_tree_reduced():
    spec = TwoStageAuctionSpec(types=(0, 1, 50), bid_lo=0, bid_hi=5)
    tree = two_stage_auction_tree(spec)
    assert validate_game(tree).ok
    assert tree.info_sets["1:t0"].actions == tuple(str(b) for b in range(6))
    # full-size trees are refused with guidance
    with pytest.raises(GameError):
        two_stage_auction_tree(TwoStageAuctionSpec())


def test_generate_experiment_dispatch():
    tree, frozen = generate_experiment(ExperimentSpec("voting", "sce",
                                                      {"p": 0.6, "q": 0.5,
                                                       "treatment": "sequential"}))
    assert frozen is not None
    tree, _ = generate_experiment(ExperimentSpec("learning-from-prices", "wpce",
                                                 {"G": 5, "p1": 0.5}))
    assert validate_game(tree).ok
    tree, _ = generate_experiment(ExperimentSpec("trading", "sce",
                                                 {"treatment": "sequential"}))
    assert tree.title == "sequential trading"
    with pytest.raises(GameError):
        ExperimentSpec("unknown-experiment")


def test_experiment_types_are_an_integer_list():
    """The tree generator reads ``types`` as the prediction harness does:
    comma-separated integers."""
    spec = parse_experiment("experiment two-stage-auction\ntypes 0,1\nbid_hi 10\n")
    assert spec.params == {"types": (0, 1), "bid_hi": 10}
    tree, _ = generate_experiment(spec)
    assert {"1:t0", "1:t1"} <= set(tree.info_sets)
    tree, _ = generate_experiment(
        parse_experiment("experiment two-stage-auction\ntypes 12\nbid_hi 10\n"))
    assert "1:t12" in tree.info_sets and "1:t1" not in tree.info_sets
