"""Randomized invariants: measures, oracles, conjectures, determinism."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cursedeq import games
from cursedeq.bestresponse import TIE_TOL, Scenario, _floor_dist, optimize_plan
from cursedeq.conjectures import (LeadingTerm, _cell_freq, _forced_action, _owner_region,
                                  _region_mass, _upward_reach, belief, check_cursed_plausible,
                                  cursed_conjecture, limit_conjecture_system, limit_dists,
                                  limit_reach)
from cursedeq.partition import _freeze, coarsest_valid_partition, is_coarse
from cursedeq.tree import (BehaviorProfile, UncoveredInfoSetError, ZeroProbabilityError,
                           n_predecessor, node_reach, outcome_measure, reach_below,
                           reach_probability)
from helpers import copy_conjecture, running_profile_y
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


def walker_conjecture(tree, partition, profile, owner, reach):
    """Reference: the conjecture from per-call walks of the owner subtrees
    and ancestor chains, with no compiled structure."""
    oset = tree.info_sets[owner]
    mass = {}
    stack = list(oset.nodes)
    while stack:
        n = stack.pop()
        mass[n] = reach[n]
        stack.extend(tree.children[n].values())
    chain = {}
    for h in oset.nodes:
        for a in tree.ancestors(h):
            if a in mass or a in chain:
                break
            chain[a] = tree.depth(a)
    for a in sorted(chain, key=chain.get, reverse=True):
        mass[a] = sum(mass.get(c, 0.0) for c in tree.children[a].values())
    cell_freq = {}
    dists = {}
    touched = {tree.info_set_of[n] for n in mass if tree.children[n]}
    for iid in sorted(touched, key=tree.info_set_rank.__getitem__):
        iset = tree.info_sets[iid]
        if iset.player == oset.player:
            forced = None if iid == owner else _forced_action(tree, iset, oset)
            dists[iid] = (dict(profile.dists[iid]) if forced is None else
                          {a: (1.0 if a == forced else 0.0) for a in iset.actions})
            continue
        cid = partition.cell_of[iset.nodes[0]]
        if cid not in cell_freq:
            nodes = [g for g in partition.cells[cid] if g in mass]
            denom = sum(mass[g] for g in nodes)
            cell_freq[cid] = None if denom <= 0.0 else {
                a: sum(mass.get(tree.children[g][a], 0.0) for g in nodes) / denom
                for a in partition.actions[cid]}
        if cell_freq[cid] is not None:
            dists[iid] = dict(cell_freq[cid])
    return dists


def walker_plan(tree, owner, scenarios, player, floor=0.0, forced=None):
    """Reference: backward induction after a per-call stack walk of every
    node below the belief nodes, with own-set depths from n-predecessor
    chains."""
    weight = {}
    stack = []
    for si, sc in enumerate(scenarios):
        for h, p in sc.belief.items():
            key = (si, h)
            weight[key] = weight.get(key, 0.0) + sc.weight * p
            stack.append(key)
    seen = set(weight)
    order = []
    while stack:
        key = stack.pop()
        order.append(key)
        si, n = key
        kids = tree.children[n]
        if not kids:
            continue
        if tree.player_of[n] == player:
            step = {a: 1.0 for a in kids}
        else:
            step = scenarios[si].dists.get(tree.info_set_of[n], {})
        for a, child in kids.items():
            ck = (si, child)
            w = weight[key] * step.get(a, 0.0)
            if ck in seen:
                weight[ck] += w
            else:
                weight[ck] = w
                seen.add(ck)
                stack.append(ck)
    own_sets = {}
    for si, n in order:
        if tree.children[n] and tree.player_of[n] == player:
            own_sets.setdefault(tree.info_set_of[n], []).append((si, n))

    def own_depth(iid):
        d, p = 0, n_predecessor(tree, tree.info_sets[iid].nodes[0], player)
        while p is not None:
            d, p = d + 1, n_predecessor(tree, p, player)
        return d

    plan, values = {}, {}

    def node_value(si, n):
        if (si, n) not in values:
            if not tree.children[n]:
                v = tree.payoffs[n][player]
            else:
                iid = tree.info_set_of[n]
                dist = plan[iid] if tree.player_of[n] == player else \
                    scenarios[si].dists.get(iid, {})
                v = sum(p * node_value(si, tree.children[n][a])
                        for a, p in dist.items() if p != 0.0)
            values[(si, n)] = v
        return values[(si, n)]

    q_owner = None
    for iid in sorted(own_sets, key=lambda i: (-own_depth(i), i)):
        actions = tree.info_sets[iid].actions
        q = {a: sum(weight[(si, g)] * node_value(si, tree.children[g][a])
                    for (si, g) in own_sets[iid])
             for a in actions}
        if iid == owner:
            q_owner = q
            plan[iid] = ({a: (1.0 if a == forced else 0.0) for a in actions}
                         if forced is not None else _floor_dist(actions, q, floor))
        else:
            plan[iid] = _floor_dist(actions, q, floor)
    if q_owner is None:
        raise ValueError(f"owner set {owner!r} unreachable from its own belief")
    oset = tree.info_sets[owner]
    best = max(q_owner.values())
    opt = tuple(a for a in oset.actions if q_owner[a] >= best - TIE_TOL)
    return (sum(plan[owner][a] * q_owner[a] for a in oset.actions), q_owner, opt, plan)


def info_set_partition(tree):
    """The game's own information partition, as a partition object."""
    return _freeze([iset.nodes for iset in tree.info_sets.values()], tree)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_compiled_conjecture_matches_per_call_walker(seed):
    """Conjectures from the structure compiled on the tree equal, exactly
    and in order, those of the per-call walker: for float and leading-term
    reaches of a profile with zeros, on repeated calls, and under two
    partitions of one tree, each with its own cells."""
    rng = random.Random(seed)
    tree = random_game(rng, 40)
    coarse, fine = coarsest_valid_partition(tree), info_set_partition(tree)
    profile = random_profile(rng, tree)
    reaches = (node_reach(tree, profile.full(tree)), limit_reach(tree, profile))
    for part in (coarse, fine, coarse):
        for reach in reaches:
            for owner in tree.player_info_sets():
                conj = cursed_conjecture(tree, part, profile, owner, require_mixed=False,
                                         reach=reach)
                reference = walker_conjecture(tree, part, profile, owner, reach)
                assert conj.dists == reference
                assert list(conj.dists) == list(reference)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_compiled_plan_matches_per_call_walker(seed):
    """optimize_plan on the walk compiled on the tree equals the per-call
    walker exactly, for one scenario, for the two of the chi-SCE mixture,
    for a belief over nested nodes and for a conjecture that lacks one set,
    with and without a floor, with a forced action, and on repeated calls.
    The compiled pass also evaluates nodes below zero-probability actions
    (the pure profile has many) and at the missing set, which the walker
    skips: those values are never read, and nothing raises."""
    rng = random.Random(seed)
    tree = random_game(rng, 40)
    part = coarsest_valid_partition(tree)
    mixed = random_profile(rng, tree, mixed=True)
    pure = random_profile(rng, tree)
    for profile, reach in ((mixed, node_reach(tree, mixed.full(tree))),
                           (pure, limit_reach(tree, pure))):
        for owner in sorted(tree.player_info_sets()) * 2:
            oset = tree.info_sets[owner]
            conj = cursed_conjecture(tree, part, profile, owner, require_mixed=False,
                                     reach=reach)
            try:
                cursed = belief(tree, conj).probs
            except ZeroProbabilityError:
                continue
            total = sum(reach[h] for h in oset.nodes)
            bayes = {h: reach[h] / total for h in oset.nodes}
            # ``nested`` also holds an ancestor of an owner node, whose walk
            # reaches that node a second time
            nested = {tree.root: 0.5, oset.nodes[0]: 0.5}
            others = sorted(i for i in conj.dists if i != owner)
            dropped = rng.choice(others) if others else None
            lacking = {i: d for i, d in conj.dists.items() if i != dropped}
            for scenarios in ([Scenario(1.0, cursed, conj.dists)],
                              [Scenario(0.5, cursed, conj.dists),
                               Scenario(0.5, bayes, profile.full(tree))],
                              [Scenario(1.0, nested, conj.dists)],
                              [Scenario(1.0, cursed, lacking)]):
                for kwargs in ({}, {"floor": 0.05}, {"forced": oset.actions[-1]}):
                    res = optimize_plan(tree, owner, scenarios, oset.player, **kwargs)
                    reference = walker_plan(tree, owner, scenarios, oset.player, **kwargs)
                    assert (res.value, res.action_values, res.optimal_actions,
                            res.plan) == reference


def clause_by_clause_plausibility(tree, partition, profile, system, tol):
    """Reference: the (owner, clause, set) triples of the three clauses
    checked one by one.  Clause 1 tests the forced action at an earlier own
    set and the profile at any other; clause 2 tests each conjectured
    opponent set against its cell's frequency over the owner region, where
    that has mass."""
    reach = node_reach(tree, profile.full(tree))
    issues = []
    for owner, conj in system.items():
        oset = tree.info_sets[owner]
        sub, chain, _, cells = _owner_region(tree, partition, owner)
        mass = _region_mass(sub, chain, reach)
        for iid, dist in conj.dists.items():
            iset = tree.info_sets[iid]
            if iset.player != oset.player:
                continue
            forced = None if iid == owner else _forced_action(tree, iset, oset)
            if forced is not None:
                bad = abs(dist.get(forced, 0.0) - 1.0) > tol
            else:
                base = profile.dists[iid]
                bad = any(abs(dist.get(a, 0.0) - base[a]) > tol for a in base)
            if bad:
                issues.append((owner, 1, iid))
        for iid, dist in conj.dists.items():
            iset = tree.info_sets[iid]
            cid = partition.cell_of[iset.nodes[0]]
            if iset.player == oset.player or cid not in cells:
                continue
            freq = _cell_freq(cells, mass, cid)
            if freq is not None and any(abs(dist.get(a, 0.0) - freq[a]) > tol
                                        for a in iset.actions):
                issues.append((owner, 2, iid))
        opponent = {iid: d for iid, d in conj.dists.items()
                    if tree.info_sets[iid].player != oset.player}
        if not is_coarse(opponent, partition, tree, tol):
            issues.append((owner, 3, "-"))
    return issues


def perturbed(rng, tree, system, tol):
    """A copy of ``system`` with a few entries replaced, at any info set of
    the tree (inside the owner's region or not): a random distribution, a
    point mass, or the entry with mass ``tol / 2`` or ``3 tol`` moved
    between two actions."""
    out = {o: copy_conjecture(c) for o, c in system.items()}
    for _ in range(rng.randrange(4) if out else 0):
        conj = out[rng.choice(sorted(out))]
        iid = rng.choice(sorted(tree.info_sets))
        acts = tree.info_sets[iid].actions
        kind = rng.randrange(3)
        if kind == 0:
            raw = [rng.random() for _ in acts]
            conj.dists[iid] = {a: w / sum(raw) for a, w in zip(acts, raw)}
        elif kind == 1:
            surely = rng.choice(acts)
            conj.dists[iid] = {a: float(a == surely) for a in acts}
        elif iid in conj.dists:
            d = conj.dists[iid]
            src = max(acts, key=d.get)
            dst = rng.choice([a for a in acts if a != src])
            delta = min(d[src], rng.choice((tol / 2, 3 * tol)))
            d[src], d[dst] = d[src] - delta, d[dst] + delta
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_plausibility_matches_clause_by_clause_reference(seed):
    """check_cursed_plausible, which reads each clause off cursed_conjecture,
    gives the same verdict and the same (owner, clause, set) triples as the
    clause-by-clause reference: for the limit system of a profile with zeros
    (cells of zero joint mass exempt), for the float conjectures of a fully
    mixed profile, and for perturbed copies of both."""
    rng = random.Random(seed)
    tree = random_game(rng, 40)
    part = coarsest_valid_partition(tree)
    tol = 1e-6
    pure, mixed = random_profile(rng, tree), random_profile(rng, tree, mixed=True)
    reach = node_reach(tree, mixed.full(tree))
    cases = [(pure, limit_conjecture_system(tree, part, pure)[0]),
             (mixed, {o: cursed_conjecture(tree, part, mixed, o, reach=reach)
                      for o in tree.player_info_sets()})]
    cases += [(prof, perturbed(rng, tree, system, tol))
              for prof, system in cases for _ in range(3)]
    for prof, system in cases:
        report = check_cursed_plausible(tree, part, prof, system, tol)
        reference = clause_by_clause_plausibility(tree, part, prof, system, tol)
        assert report.ok == (not reference)
        assert {(i.owner, i.clause, i.where) for i in report.issues} == set(reference)


def test_plausibility_matches_reference_on_an_override_outside_the_region():
    tree = games.bundled_game("running-example")
    part = coarsest_valid_partition(tree)
    prof = running_profile_y()
    system, _ = limit_conjecture_system(tree, part, prof)
    system["1:I"].dists["2:w1"] = {"l": 1.0, "r": 0.0}
    report = check_cursed_plausible(tree, part, prof, system)
    reference = clause_by_clause_plausibility(tree, part, prof, system, 1e-6)
    assert ("1:I", 2, "2:w1") in reference
    assert {(i.owner, i.clause, i.where) for i in report.issues} == set(reference)


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


def stack_walk_reach(tree, dists, start=None):
    """Reference: a per-call stack walk of the nodes weakly below ``start``,
    raising on a positive-reach node whose info set has no distribution."""
    start = tree.root if start is None else start
    reach = {start: 1.0}
    stack = [start]
    while stack:
        n = stack.pop()
        kids = tree.children[n]
        if not kids:
            continue
        r = reach[n]
        dist = dists.get(tree.info_set_of[n])
        if dist is None:
            if r > 0.0:
                raise UncoveredInfoSetError(f"no distribution for info set {tree.info_set_of[n]!r}")
            dist = {}
        for a, child in kids.items():
            reach[child] = r * dist.get(a, 0.0)
            stack.append(child)
    return reach


def exact_items(reach):
    """Keys in order with their exact values; a leading term as (c, k)."""
    return [(n, (r.c, r.k) if isinstance(r, LeadingTerm) else r) for n, r in reach.items()]


def walk_outcome(walk, *args):
    try:
        return exact_items(walk(*args))
    except UncoveredInfoSetError as err:
        return str(err)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_compiled_reach_matches_per_call_walker(seed):
    """node_reach on the walk compiled on the tree equals the per-call stack
    walk exactly, key order included: from the root and from interior
    starts, for float and leading-term steps of a profile with zeros, with
    each info set left uncovered in turn (an error where the set is reached
    with positive probability), and on repeated calls."""
    rng = random.Random(seed)
    tree = random_game(rng, 40)
    profile = random_profile(rng, tree)
    exact = tuple(tree.player_info_sets()[:1])
    starts = [None] + rng.sample(tree.nodes, min(4, len(tree.nodes)))
    for dists in (profile.full(tree), limit_dists(tree, profile),
                  limit_dists(tree, profile, exact)):
        for start in starts * 2:
            assert walk_outcome(node_reach, tree, dists, start) == \
                walk_outcome(stack_walk_reach, tree, dists, start)
        for iid in tree.info_sets:
            partial = {j: d for j, d in dists.items() if j != iid}
            assert walk_outcome(node_reach, tree, partial) == \
                walk_outcome(stack_walk_reach, tree, partial)


def ancestor_product(tree, dists, node):
    """Reference: the step probabilities along ``tree.ancestors``, nearest
    first, 0 at the first uncovered set or zero step."""
    prob, child = 1.0, node
    for anc in tree.ancestors(node):
        dist = dists.get(tree.info_set_of[anc])
        if dist is None:
            return 0.0
        prob *= dist.get(tree.action_in[child], 0.0)
        if prob == 0.0:
            return 0.0
        child = anc
    return prob


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_compiled_upward_reach_matches_ancestor_product(seed):
    """The compiled (info set, action) paths give every owner node's path
    probability exactly as the ancestor product, in node order: under the
    full view of a profile with zeros, under half of that view, under its
    conjectures, which leave sets out, and on repeated calls."""
    rng = random.Random(seed)
    tree = random_game(rng, 40)
    part = coarsest_valid_partition(tree)
    profile = random_profile(rng, tree)
    reach = limit_reach(tree, profile)
    for owner in tree.player_info_sets() * 2:
        conj = cursed_conjecture(tree, part, profile, owner, require_mixed=False, reach=reach)
        for dists in (profile.full(tree), dict(list(profile.full(tree).items())[::2]),
                      conj.dists):
            got = _upward_reach(tree, dists, owner)
            want = {h: ancestor_product(tree, dists, h) for h in tree.info_sets[owner].nodes}
            assert list(got.items()) == list(want.items())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_causal_reach_matches_whole_walk_of_forced_profile(seed):
    """Each causal (owner, action) reach, re-walked below the owner's nodes
    from the profile's own reach, equals the whole walk of the profile that
    plays the action surely, exactly and in key order: with float steps of
    a fully mixed profile (a floor stage) and with the leading terms of a
    profile with zeros, the forced owner untrembled (the limit)."""
    rng = random.Random(seed)
    tree = random_game(rng, 40)
    mixed, pure = random_profile(rng, tree, mixed=True), random_profile(rng, tree)
    for profile, dists_of in ((mixed, lambda p, exact: p.full(tree)),
                              (pure, lambda p, exact: limit_dists(tree, p, exact))):
        base = node_reach(tree, dists_of(profile, ()))
        for o in tree.player_info_sets():
            for a in tree.info_sets[o].actions:
                forced = BehaviorProfile({**profile.dists,
                                          o: {b: float(b == a) for b in profile.dists[o]}})
                dists = dists_of(forced, (o,))
                assert exact_items(reach_below(tree, dists, base, o)) == \
                    exact_items(stack_walk_reach(tree, dists))
