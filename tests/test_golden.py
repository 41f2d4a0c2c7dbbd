from collections import Counter

import pytest

import cursedeq.conjectures
import cursedeq.golden
import cursedeq.solvers
import cursedeq.tree
from cursedeq.conjectures import cursed_conjecture
from cursedeq.games import ExperimentSpec, price_grid, prices_game
from cursedeq.golden import (prices_predictions, run_golden_predictions,
                             trading_predictions, two_stage_predictions,
                             voting_predictions)
from cursedeq.partition import coarsest_valid_partition
from cursedeq.solvers import SolverConfig
from cursedeq.tree import BehaviorProfile, GameError


def test_two_stage_full_grid():
    rep = two_stage_predictions()
    assert rep.ok, str(rep)
    by_key = {(c.cell["t"], c.cell.get("learned"), c.cell["stage"]): c
              for c in rep.cells}
    assert by_key[(5, "le", 2)].predicted.startswith("revise to (43, 44)")
    assert by_key[(0, "le", 2)].predicted.startswith("revise to (30,)")
    assert by_key[(7, None, 1)].predicted == "bid 37"
    # no downward cell exists for the lowest type
    assert (0, "gt", 2) not in by_key


def test_voting_subset_sce_and_ce():
    cfg = SolverConfig(seed=0)
    sce = voting_predictions("sce", ps=(0.2, 0.6), qs=(0.5,), config=cfg)
    assert sce.ok, str(sce)
    ce = voting_predictions("ce", ps=(0.2, 0.6), qs=(0.5,), config=cfg)
    assert ce.ok, str(ce)
    # the concepts disagree at p above one half in the sequential treatment
    sce_seq = [c for c in sce.cells
               if c.cell["treatment"] == "sequential" and c.cell["p"] == 0.6]
    ce_seq = [c for c in ce.cells
              if c.cell["treatment"] == "sequential" and c.cell["p"] == 0.6]
    assert sce_seq[0].predicted == "b" and ce_seq[0].predicted == "r"


def test_voting_under_ice_solves_ice(monkeypatch):
    """Concept ice runs the ICE solver (three players: not the same as CE)."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs.get("frozen"))
        return real(*args, **kwargs)

    real = cursedeq.golden.solve_ice
    monkeypatch.setattr(cursedeq.golden, "solve_ice", spy)
    monkeypatch.setattr(cursedeq.golden, "solve_ce", None)
    rep = voting_predictions("ice", ps=(0.2,), qs=(0.5,), config=SolverConfig(seed=0))
    assert rep.ok, str(rep)
    assert len(calls) == 2 and all(calls)


def test_harnesses_reject_concepts_they_do_not_compute():
    with pytest.raises(GameError, match="unsupported concept 'ce' for the trading games"):
        trading_predictions("ce")
    with pytest.raises(GameError, match="for the two-stage auction"):
        run_golden_predictions(ExperimentSpec("two-stage-auction", "causal-sce", {}))
    # the price harness certifies no tremble limit, so it computes WPCE only
    with pytest.raises(GameError, match="unsupported concept 'sce' for the price game"):
        run_golden_predictions(ExperimentSpec("learning-from-prices", "sce", {"G": 3}))


def test_prices_small_grid_both_treatments():
    rep = prices_predictions("wpce", g=5)
    assert rep.ok, str(rep)
    constrained = [c for c in rep.cells if c.predicted not in ("tie", "unconstrained")]
    assert len(constrained) >= 80


def test_prices_walk_the_tree_once_per_profile(monkeypatch):
    """One reach walk per treatment, of uniform play on the skeleton, gives
    trader 1's beliefs for every price cell; one walk per price-cell tree,
    of the floored profile, serves all of trader 2's conjectures."""
    real = cursedeq.tree.node_reach
    walks = Counter()

    def counted(tree, *args, **kwargs):
        walks[tree.title] += 1
        return real(tree, *args, **kwargs)

    for mod in (cursedeq.tree, cursedeq.conjectures, cursedeq.golden, cursedeq.solvers):
        monkeypatch.setattr(mod, "node_reach", counted)
    prices_predictions("wpce", g=5)
    treatments = ("simultaneous", "sequential")
    assert walks == Counter({f"learning-from-prices {t}{cell}": 1 for t in treatments
                             for cell in ("", *(f" p1={p1:.4f}" for p1 in price_grid(5)))})

    walks.clear()
    tree = prices_game(5, "sequential", price_grid(5)[1])
    profile = BehaviorProfile.uniform(tree)
    reach = real(tree, profile.full(tree))
    cursed_conjecture(tree, coarsest_valid_partition(tree), profile, "T2:0:buy",
                      reach=reach)
    assert not walks


@pytest.mark.parametrize("g", [5, 7])
def test_price_cells_equal_fresh_games(monkeypatch, g):
    """Every per-p1 tree of the harness, built on one skeleton per
    treatment, equals a fresh prices_game of that cell; each treatment's
    coarsest partition is computed once, and the trader-1 beliefs it
    shares equal those of the fresh game."""
    real_solve = cursedeq.golden._solve_prices
    real_partition = cursedeq.golden.coarsest_valid_partition
    used, partitioned = [], Counter()
    cells = iter((t, p1) for p1 in price_grid(g) for t in ("simultaneous", "sequential"))

    def solve(tree, partition, g_, beliefs):
        used.append((*next(cells), tree, partition, beliefs))
        return real_solve(tree, partition, g_, beliefs)

    def partition(tree):
        partitioned[tree.title] += 1
        return real_partition(tree)

    monkeypatch.setattr(cursedeq.golden, "_solve_prices", solve)
    monkeypatch.setattr(cursedeq.golden, "coarsest_valid_partition", partition)
    prices_predictions("wpce", g=g)
    assert partitioned == Counter({"learning-from-prices simultaneous": 1,
                                   "learning-from-prices sequential": 1})
    assert len(used) == 2 * len(price_grid(g))
    for treatment, p1, tree, part, beliefs in used:
        fresh = prices_game(g, treatment, p1)
        assert beliefs == cursedeq.golden._trader1_beliefs(fresh, g)
        assert tree.title == fresh.title
        assert tree.terminals == fresh.terminals
        assert [tree.payoffs[z] for z in tree.terminals] == \
            [fresh.payoffs[z] for z in fresh.terminals]
        assert tree.nature_probs == fresh.nature_probs
        assert tree.info_sets == fresh.info_sets
        assert part.cells == real_partition(fresh).cells


def test_trading_table_row():
    rep = trading_predictions("sce", SolverConfig(seed=7))
    assert rep.ok, str(rep)
    outcomes = {c.cell["variant"]: c.predicted for c in rep.cells}
    assert outcomes == {"simultaneous": "trade", "sequential": "no-trade",
                        "fictitious-player": "trade"}


def test_run_golden_dispatch():
    rep = run_golden_predictions(ExperimentSpec("voting", "sce",
                                                {"p": 0.4, "q": 0.5}))
    assert rep.ok
    rep = run_golden_predictions(ExperimentSpec("two-stage-auction", "sce", {}))
    assert rep.ok
