"""Randomized invariants: measures, oracles, conjectures, determinism."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cursedeq.conjectures import _forced_action, belief, cursed_conjecture, limit_reach
from cursedeq.partition import coarsest_valid_partition, is_coarse
from cursedeq.tree import node_reach, outcome_measure, reach_probability
from randgames import random_game, random_profile


def brute_force_terminal_probs(tree, profile):
    """Independent oracle: enumerate every root-to-leaf path and multiply
    the step probabilities read straight off the profile."""
    full = profile.full(tree)
    out = {}

    def walk(node, prob):
        if tree.is_terminal(node):
            out[node] = prob
            return
        dist = full[tree.info_set_of[node]]
        for action, child in tree.children[node].items():
            walk(child, prob * dist.get(action, 0.0))

    walk(tree.root, 1.0)
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_outcome_measure_sums_to_one(seed):
    rng = random.Random(seed)
    tree = random_game(rng, 40)
    profile = random_profile(rng, tree)
    mu = outcome_measure(tree, profile)
    assert abs(mu.total() - 1.0) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_reach_matches_brute_force(seed):
    rng = random.Random(seed)
    tree = random_game(rng, 60)
    assert len(tree.nodes) <= 200
    profile = random_profile(rng, tree)
    mu = outcome_measure(tree, profile)
    oracle = brute_force_terminal_probs(tree, profile)
    for z in tree.terminals:
        assert abs(mu.probs[z] - oracle[z]) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_measure_monotone_in_set_inclusion(seed):
    rng = random.Random(seed)
    tree = random_game(rng, 40)
    profile = random_profile(rng, tree)
    nodes = [n for n in tree.nodes if not tree.is_terminal(n)]
    small = rng.sample(nodes, k=max(1, len(nodes) // 3))
    big = small + rng.sample(nodes, k=max(1, len(nodes) // 3))
    assert reach_probability(tree, profile, small) <= \
        reach_probability(tree, profile, big) + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_cursed_conjecture_invariants(seed):
    rng = random.Random(seed)
    tree = random_game(rng, 30)
    owners = tree.player_info_sets()
    if not owners:
        return
    part = coarsest_valid_partition(tree)
    profile = random_profile(rng, tree, mixed=True)
    owner = rng.choice(sorted(owners))
    conj = cursed_conjecture(tree, part, profile, owner)
    player = tree.info_sets[owner].player
    opponent = {iid: d for iid, d in conj.dists.items()
                if tree.info_sets[iid].player != player}
    assert is_coarse(opponent, part, tree)
    for dist in conj.dists.values():
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    b = belief(tree, conj)
    assert sum(b.probs.values()) == pytest.approx(1.0, abs=1e-9)
    assert set(b.probs) == set(tree.info_sets[owner].nodes)


def whole_tree_conjecture(tree, partition, profile, owner, reach):
    """Reference: the conjecture from a pass over every node, with the mass
    of every node and the frequencies of every opponent and nature cell."""
    oset = tree.info_sets[owner]
    below = {}
    for n in tree.nodes:
        p = tree.parent[n]
        below[n] = n in oset.nodes or (p is not None and below[p])
    ancestors = {a for h in oset.nodes for a in tree.ancestors(h)}
    mass = {}
    for n in reversed(tree.nodes):
        if below[n]:
            mass[n] = reach[n]
        elif tree.is_terminal(n):
            mass[n] = 0.0
        else:
            mass[n] = sum(mass[c] for c in tree.children[n].values())
    cell_freq = {}
    for cid, nodes in partition.cells.items():
        if partition.owner[cid] == oset.player:
            continue
        denom = sum(mass[g] for g in nodes)
        if denom > 0.0:
            cell_freq[cid] = {a: sum(mass[tree.children[g][a]] for g in nodes) / denom
                              for a in partition.actions[cid]}
    dists = {}
    for iid, iset in tree.info_sets.items():
        if not any(below[n] or n in ancestors for n in iset.nodes):
            continue
        if iset.player == oset.player:
            forced = None if iid == owner else _forced_action(tree, iset, oset)
            dists[iid] = (dict(profile.dists[iid]) if forced is None else
                          {a: (1.0 if a == forced else 0.0) for a in iset.actions})
        elif partition.cell_of[iset.nodes[0]] in cell_freq:
            dists[iid] = dict(cell_freq[partition.cell_of[iset.nodes[0]]])
    return dists


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_owner_region_conjecture_matches_whole_tree_pass(seed):
    """The conjecture computed on the owner subtrees and ancestor chains
    equals, exactly and in info-set order, the one from a whole-tree pass,
    for float reaches and for leading-term limit reaches of profiles with
    zeros."""
    rng = random.Random(seed)
    tree = random_game(rng, 40)
    part = coarsest_valid_partition(tree)
    profile = random_profile(rng, tree)
    for reach in (node_reach(tree, profile.full(tree)), limit_reach(tree, profile)):
        for owner in tree.player_info_sets():
            conj = cursed_conjecture(tree, part, profile, owner, require_mixed=False,
                                     reach=reach)
            reference = whole_tree_conjecture(tree, part, profile, owner, reach)
            assert conj.dists == reference
            assert list(conj.dists) == list(reference)


def _club_variant(split_first_set=False, pool_nature=False, bad_nature_sum=False):
    """The club game with one rule violation injected at a time."""
    from cursedeq.tree import GameBuilder
    b = GameBuilder("mutated club", ["G", "C"])
    half = 0.4 if bad_nature_sum else 1 / 3
    b.chance("r", None, None, {"w1": half, "w2": 1 - 1 / 3})
    pay = {"w1": {"resign": (-1, 1), "confirm": (-2, 2)},
           "w2": {"resign": (-1, -1), "confirm": (2, -2)}}
    for w in ("w1", "w2"):
        b.player(w, "r", w, "G")
        b.terminal(w + "d", w, "d", {"G": 0, "C": 0})
        b.player(w + "a", w, "a", "C")
        b.terminal(w + "ad", w + "a", "d", {"G": 0, "C": 0})
        b.player(w + "aa", w + "a", "a", "G")
        for act in ("resign", "confirm"):
            g, c = pay[w][act]
            b.terminal(w + "aa" + act[0], w + "aa", act, {"G": g, "C": c})
    if split_first_set:
        b.info_set("G:1a", "G", ["w1"])
        b.info_set("G:1b", "G", ["w2"])
    else:
        b.info_set("G:1", "G", ["w1", "w2"])
    if pool_nature:
        b.info_set("C:pool", "C", ["w1a", "w2a"])
    else:
        b.info_set("C:w1", "C", ["w1a"])
        b.info_set("C:w2", "C", ["w2a"])
    b.info_set("G:2", "G", ["w1aa", "w2aa"])
    return b.build()


def test_mutated_games_rejected_with_exact_rule():
    from cursedeq.tree import validate_game
    clean = _club_variant()
    assert validate_game(clean).rules() == set()

    # splitting the first own set breaks recall at the pooled later set
    split = _club_variant(split_first_set=True)
    assert validate_game(split).rules() == {"perfect-recall"}

    # a nature policy that does not sum to one trips exactly that rule
    bad = _club_variant(bad_nature_sum=True)
    assert validate_game(bad).rules() == {"probability-sum"}
