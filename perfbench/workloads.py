"""The three workloads: their operations, inputs and output checks.

A workload is a list of operations, one round.  Each operation is one
public cursedeq call; ``call(outputs)`` receives the outputs of the
operations before it in the round, so a pipeline can feed later calls.
``check(outputs)`` maps an operation name to the problems found in its
output (empty when correct).  The checks use properties the method must
have or values computed here, apart from the program, never stored copies
of earlier output.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from cursedeq import auctions, bayesian, bestresponse, gamefile, games, golden, partition, solvers

DIST_TOL = 1e-9


@dataclass
class Op:
    name: str
    call: Callable[[dict], object]


@dataclass
class Workload:
    name: str
    ops: list
    check: Callable[[dict], dict]
    inputs: dict = field(default_factory=dict)


def dist_problems(label, dist):
    """A distribution must be non-negative and sum to 1 within 1e-9."""
    if not dist:
        return [f"{label}: empty distribution"]
    out = []
    if min(dist.values()) < 0.0:
        out.append(f"{label}: negative entry {dist}")
    if abs(sum(dist.values()) - 1.0) > DIST_TOL:
        out.append(f"{label}: sums to {sum(dist.values())!r}")
    return out


def terminal_probabilities(tree, dists):
    """Probability of each terminal history as the product of the step
    probabilities along its path (nature's and the players')."""
    out = {}
    for z in tree.terminals:
        p, child, node = 1.0, z, tree.parent[z]
        while node is not None:
            step = tree.nature_probs.get(node) or dists[tree.info_set_of[node]]
            p *= step[tree.action_in[child]]
            child, node = node, tree.parent[node]
        out[z] = p
    return out


# ---------------------------------------------------------------------------
# solve: many short solver calls on small games
# ---------------------------------------------------------------------------

BUNDLED = ("sequential-trading", "running-example", "club-membership", "mixing",
           "pennies-onlooker", "leader-follower", "trading-simultaneous",
           "trading-fictitious")
CONCEPTS = ("sce", "wpce", "chi-sce", "causal-sce")
CHI = 0.5
VOTING_CELLS = ((0.3, 0.25), (0.7, 0.75), (0.2, 0.9), (0.8, 0.5))
VOTING_CONCEPTS = ("sce", "ce")
BAYESIAN_GAMES = 3
# no restarts: a game whose first start fails goes straight to support
# enumeration, so one slow game cannot dominate a round
STATIC_RESTARTS = 0
# a fixed random game whose first (uniform, seed-free) start fails under
# both CE and ICE, so every round reaches support enumeration
ENUMERATION_GAME = 121


def _solve_call(concept, tree, part, config):
    if concept == "sce":
        return lambda out: solvers.solve_sce(tree, part, config)
    if concept == "wpce":
        return lambda out: solvers.solve_wpce(tree, part, config)
    if concept == "chi-sce":
        return lambda out: solvers.solve_chi_sce(tree, part, CHI, config)
    return lambda out: solvers.solve_causal_sce(tree, part, config)


def build_solve(seed: int, bundled=BUNDLED, voting_cells=VOTING_CELLS,
                bayesian_games=BAYESIAN_GAMES) -> Workload:
    rng = random.Random(seed)
    config = solvers.SolverConfig(seed=seed)
    static_config = solvers.SolverConfig(seed=seed, restarts=STATIC_RESTARTS)
    trees = {name: gamefile.parse_game(games.bundled_game_text(name)) for name in bundled}
    parts = {name: partition.coarsest_valid_partition(t) for name, t in trees.items()}
    bgames = [(str(i), bayesian.random_bayesian_game(random.Random(rng.getrandbits(32))))
              for i in range(bayesian_games)]
    bgames.append(("enum", bayesian.random_bayesian_game(random.Random(ENUMERATION_GAME))))

    ops, meta = [], {}
    for name in bundled:
        for concept in CONCEPTS:
            key = f"{concept}:{name}"
            ops.append(Op(key, _solve_call(concept, trees[name], parts[name], config)))
            meta[key] = ("tree", concept, name)
    for concept in VOTING_CONCEPTS:
        for p, q in voting_cells:
            key = f"voting:{concept}:p={p}:q={q}"
            ops.append(Op(key, lambda out, c=concept, p=p, q=q:
                          golden.voting_predictions(c, ps=[p], qs=[q])))
            meta[key] = ("voting", concept, (p, q))
    for i, game in bgames:
        ops.append(Op(f"ce:bayesian-{i}", lambda out, g=game:
                      bayesian.solve_ce(g, static_config)))
        ops.append(Op(f"ice:bayesian-{i}", lambda out, g=game:
                      bayesian.solve_ice(g, static_config)))
        meta[f"ce:bayesian-{i}"] = ("static", False, game)
        meta[f"ice:bayesian-{i}"] = ("static", True, game)
    rng.shuffle(ops)

    def check(outputs):
        problems = {}
        crosschecked = {}
        for key, out in outputs.items():
            kind, a, b = meta[key]
            if kind == "tree":
                problems[key] = check_tree_result(trees[b], parts[b], a, b, out, config)
            elif kind == "voting":
                problems[key] = check_voting(a, *b, out)
            else:
                found = check_static(b, out, independent=a)
                if id(b) not in crosschecked:
                    report = bayesian.crosscheck_equivalence(b, static_config)
                    crosschecked[id(b)] = [] if report.ok else [
                        f"crosscheck fails: profile gap {report.max_profile_gap:.3g}"]
                problems[key] = found + crosschecked[id(b)]
        return problems

    return Workload("solve", ops, check,
                    {"bundled": list(bundled), "concepts": list(CONCEPTS), "chi": CHI,
                     "voting_cells": [list(c) for c in voting_cells],
                     "bayesian_games": bayesian_games, "enumeration_game": ENUMERATION_GAME,
                     "static_restarts": STATIC_RESTARTS,
                     "solver_seed": seed})


def paper_answer_problems(tree, part, name, res):
    """The worked answers of the paper for the bundled games (SCE)."""
    d = res.profile.dists
    out = []

    def near(label, value, target, tol):
        if not abs(value - target) <= tol:
            out.append(f"{name}: {label} = {value!r}, paper says {target!r}")

    def trade(profile):
        probs = terminal_probabilities(tree, profile.full(tree))
        return sum(p for z, p in probs.items() if abs(tree.payoffs[z]["1"]) > 1e-9)

    if name == "sequential-trading":
        near("P(2:hi plays d)", d["2:hi"]["d"], 1.0, 1e-9)
        near("trade probability", trade(res.profile), 0.0, 1e-9)
    elif name in ("trading-simultaneous", "trading-fictitious"):
        near("P(1:lo plays a)", d["1:lo"]["a"], 1.0, 1e-9)
        near("P(2:t2p plays a)", d["2:t2p"]["a"], 1.0, 1e-9)
        near("trade probability", trade(res.profile), 1 / 3, 1e-6)
    elif name == "club-membership":
        near("P(G:1 plays a)", d["G:1"]["a"], 1.0, 1e-9)
        near("P(G:2 plays resign)", d["G:2"]["resign"], 1.0, 1e-9)
        value, _, _ = bestresponse.local_best_response_value(tree, part, res.conjectures["G:1"])
        near("conjectured value at G:1", value, 2 / 9, 1e-9)
    elif name == "mixing":
        p = d["I1"]["L"]
        near("6p(1-p) at I1", 6 * p * (1 - p), 1.0, 1e-6)
        near("P(I3 plays a)", d["I3"]["a"], 0.5, 1e-6)
    return out


def check_tree_result(tree, part, concept, name, res, config):
    out = []
    for iid, dist in res.profile.dists.items():
        out += dist_problems(f"play {iid}", dist)
    for key, conj in res.conjectures.items():
        for iid, dist in conj.dists.items():
            out += dist_problems(f"conjecture {key} {iid}", dist)
    if concept in ("sce", "wpce"):
        report = solvers.check_wpce(tree, part, res.profile, res.conjectures, tol=1e-6)
        if not report.ok:
            out.append(f"{name}: {concept} result fails the WPCE check: {report}")
        out += paper_answer_problems(tree, part, name, res)
    else:
        ok, gaps, _ = solvers.sce_witness_check(tree, part, res.profile, config,
                                                concept=concept, chi=CHI)
        if not ok:
            out.append(f"{name}: {concept} witness check fails, gaps {gaps}")
    return out


def voting_expected(concept, p, treatment):
    """Sequential cursedness votes strategically (blue) when votes are
    observed; otherwise the subject votes naively for the likelier color."""
    if concept == "sce" and treatment == "sequential":
        return "b"
    return "r" if p > 0.5 else "b"


def check_voting(concept, p, q, report):
    out = []
    seen = set()
    for cell in report.cells:
        t = cell.cell["treatment"]
        seen.add((cell.cell["p"], cell.cell["q"], t))
        want = voting_expected(concept, p, t)
        if cell.predicted != want:
            out.append(f"voting {concept} p={p} q={q} {t}: predicted {cell.predicted}, "
                       f"paper says {want}")
    if seen != {(p, q, "simultaneous"), (p, q, "sequential")}:
        out.append(f"voting {concept} p={p} q={q}: cells {sorted(seen)}")
    return out


def static_values(game, sigma, player, cell, independent):
    """Each action's expected payoff under the (independently) cursed belief:
    opponents' play averaged over the states of the player's own type cell,
    treated as independent of the state."""
    prior = {w: game.prior[w] / sum(game.prior[v] for v in cell) for w in cell}
    others = [m for m in game.players if m != player]

    def type_index(m, w):
        return next(k for k, c in enumerate(game.types[m]) if w in c)

    belief = {}
    for combo in itertools.product(*(game.actions[m] for m in others)):
        if independent:
            p = math.prod(sum(prior[w] * sigma[(m, type_index(m, w))][a] for w in cell)
                          for m, a in zip(others, combo))
        else:
            p = sum(prior[w] * math.prod(sigma[(m, type_index(m, w))][a]
                                         for m, a in zip(others, combo)) for w in cell)
        belief[combo] = p
    values = {}
    i = game.players.index(player)
    for a in game.actions[player]:
        v = 0.0
        for w in cell:
            for combo, p in belief.items():
                full = dict(zip(others, combo), **{player: a})
                v += prior[w] * p * game.payoffs[(w, tuple(full[m] for m in game.players))][i]
        values[a] = v
    return values


def check_static(game, sigma, independent, tol=1e-6):
    out = []
    for (player, k), dist in sigma.items():
        out += dist_problems(f"type {player}:{k}", dist)
    if out:
        return out
    for player in game.players:
        for k, cell in enumerate(game.types[player]):
            values = static_values(game, sigma, player, cell, independent)
            best = max(values.values())
            for a, p in sigma[(player, k)].items():
                if p > DIST_TOL and values[a] < best - tol:
                    out.append(f"type {player}:{k} plays {a} with gap {best - values[a]:.3g}")
    return out


# ---------------------------------------------------------------------------
# prices: few calls over large trees
# ---------------------------------------------------------------------------

# one call on the 14,883-node simultaneous tree, the rest on 1.2k-3.4k node
# trees: two calls of about equal length hold the median of a round
PRICES_OPS = (("sequential", 9), ("sequential", 11), ("simultaneous", 7),
              ("simultaneous", 9), ("simultaneous", 15))


def build_prices(seed: int, grid_ops=PRICES_OPS) -> Workload:
    rng = random.Random(seed)
    ops = [Op(f"prices:{t}:G={g}", lambda out, t=t, g=g:
              golden.prices_predictions("wpce", g, (t,)))
           for t, g in grid_ops]
    rng.shuffle(ops)
    spec = {f"prices:{t}:G={g}": (t, g) for t, g in grid_ops}

    def check(outputs):
        return {key: check_prices(*spec[key], report) for key, report in outputs.items()}

    return Workload("prices", ops, check,
                    {"ops": [{"treatment": t, "G": g} for t, g in grid_ops]})


def prices_expected(treatment, g, p1, t2, a1):
    """The weak perfect prediction for trader 2, computed from the model.

    The asset is worth 1 or 0 with equal chance; given the value, each
    trader's type is drawn from the grid midpoints with weight 2t (high) or
    2(1 - t) (low), so P(high | t) = t and trader 1 buys iff t1 > p1.  The
    cursed trader ignores what a1 says about the value and buys iff
    t2 > p2 (simultaneous); the sequential trader updates on a1.  A branch
    trader 2 believes has probability 0 is unconstrained."""
    grid = [(k + 0.5) / g for k in range(g)]
    step = 1.0 / (g - 1)
    p2 = min(max(int(((1 + p1) / 2 if a1 == "buy" else p1 / 2) / step + 0.5), 0), g - 1) * step
    weight = {v: [2 * t if v else 2 * (1 - t) for t in grid] for v in (1, 0)}
    weight = {v: [w / sum(ws) for w in ws] for v, ws in weight.items()}

    def buy_prob(t1):
        return 1.0 if t1 > p1 + 1e-12 else (0.5 if abs(t1 - p1) <= 1e-12 else 0.0)

    def p_a1(v):
        return sum(w * (buy_prob(t1) if a1 == "buy" else 1 - buy_prob(t1))
                   for w, t1 in zip(weight[v], grid))

    j = grid.index(t2)
    if treatment == "simultaneous":
        if t2 * p_a1(1) + (1 - t2) * p_a1(0) <= 1e-9:
            return "unconstrained"
        ev = t2
    else:
        like = {v: 0.5 * weight[v][j] * p_a1(v) for v in (1, 0)}
        total = like[1] + like[0]
        ev = like[1] / total if total > 0 else t2
    if abs(ev - p2) <= 1e-9:
        return "tie"
    return "buy" if ev > p2 else "sell"


def check_prices(treatment, g, report):
    out = []
    if len(report.cells) != 2 * g * g:
        out.append(f"G={g}: {len(report.cells)} cells, expected {2 * g * g} "
                   f"({g} prices x {g} types x 2 trader-1 actions)")
    grid = [(k + 0.5) / g for k in range(g)]
    branch = "branch" if treatment == "simultaneous" else "observed"
    seen = set()
    for cell in report.cells:
        p1, a1 = cell.cell["p1"], cell.cell[branch]
        t2 = min(grid, key=lambda t: abs(t - cell.cell["t2"]))
        seen.add((p1, t2, a1))
        want = prices_expected(treatment, g, p1, t2, a1)
        if cell.expected != want:
            out.append(f"G={g} {treatment} {cell.cell}: labelled {cell.expected}, model says {want}")
        elif want not in ("tie", "unconstrained") and cell.predicted != want:
            out.append(f"G={g} {treatment} {cell.cell}: predicted {cell.predicted}, "
                       f"model says {want}")
    if len(seen) != 2 * g * g:
        out.append(f"G={g}: {len(seen)} distinct cells, expected {2 * g * g}")
    return out


# ---------------------------------------------------------------------------
# auction: the auction numerics of the bidding module
# ---------------------------------------------------------------------------

GRID = 200
SAMPLES = 100_000
# eight winner's-payoff calls put the round's median in the middle of the
# ten ~10 ms bidding calls rather than at their low edge
WINNER_KS = (2, 3, 4, 5, 6, 7, 8, 9)
CANONICAL_KS = (5, 8)
# a Monte Carlo cell is compared with the closed form where its
# conditioning event has probability at least this (100 of ~500 draws)
MIN_EVENT = 0.2


def build_auction(seed: int, samples=SAMPLES) -> Workload:
    rng = np.random.Generator(np.random.PCG64(seed))
    oracle = auctions.OracleConfig(samples=samples, seed=seed)
    models = {"wallet": auctions.wallet_model(), "mean3": auctions.mean_value_model(3)}
    for k in CANONICAL_KS:
        models[f"mean{k}"] = auctions.mean_value_model(k)
    grids = {m: auctions.uniform_grid(model, GRID) for m, model in models.items()}
    quits = {m: sorted(float(y) for y in rng.uniform(0.0, 1.0, models[m].bidders - 2))
             for m in models}
    ops = []
    for m in ("wallet", "mean3"):
        model, grid = models[m], grids[m]
        ops += [
            Op(f"{m}:estimate_conditionals:mc", lambda out, model=model, grid=grid:
               auctions.estimate_conditionals(model, grid, oracle, use_closed_forms=False)),
            Op(f"{m}:estimate_conditionals:closed", lambda out, model=model, grid=grid:
               auctions.estimate_conditionals(model, grid, oracle)),
        ]
        for src in ("mc", "closed"):
            tables = f"{m}:estimate_conditionals:{src}"
            ops += [
                Op(f"{m}:solve_first_price:{src}", lambda out, model=model, t=tables:
                   auctions.solve_first_price(model, out[t])),
                Op(f"{m}:solve_dutch:{src}", lambda out, model=model, t=tables:
                   auctions.solve_dutch(model, out[t])),
                Op(f"{m}:bid_silent_english:{src}", lambda out, model=model, t=tables:
                   auctions.bid_silent_english(model, out[t])),
            ]
        ops.append(Op(f"{m}:verify_orderings", lambda out, model=model, m=m:
                      auctions.verify_orderings(
                          model, out[f"{m}:estimate_conditionals:mc"],
                          out[f"{m}:solve_first_price:mc"], out[f"{m}:solve_dutch:mc"],
                          auctions.bid_second_price(model, out[f"{m}:estimate_conditionals:mc"]),
                          out[f"{m}:bid_silent_english:mc"])))
        ops.append(Op(f"{m}:bid_canonical_english", lambda out, model=model, m=m:
                      auctions.bid_canonical_english(
                          model, quits[m], out[f"{m}:estimate_conditionals:closed"])))
    for k in CANONICAL_KS:
        m = f"mean{k}"
        closed = auctions.estimate_conditionals(models[m], grids[m], oracle)
        ops.append(Op(f"{m}:bid_canonical_english", lambda out, model=models[m], m=m, t=closed:
                      auctions.bid_canonical_english(model, quits[m], t)))
    for k in WINNER_KS:
        ops.append(Op(f"winner_curse:k={k}", lambda out, k=k:
                      auctions.winner_curse_experiment(auctions.mean_value_model, [k], oracle)))

    def check(outputs):
        problems = {key: [] for key in outputs}
        for m in ("wallet", "mean3"):
            model = models[m]
            mc = outputs[f"{m}:estimate_conditionals:mc"]
            closed = outputs[f"{m}:estimate_conditionals:closed"]
            problems[f"{m}:estimate_conditionals:mc"] += mc_problems(model, mc, closed)
            problems[f"{m}:estimate_conditionals:closed"] += closed_problems(model, closed)
            for fmt, target in (("solve_first_price", "v"), ("solve_dutch", "v_upper")):
                bf = outputs[f"{m}:{fmt}:closed"]
                worst = ode_residual(closed, bf, target)
                if not worst < 1e-3:
                    problems[f"{m}:{fmt}:closed"].append(f"{m} {fmt}: ODE residual {worst:.3g}")
            gap = outputs[f"{m}:solve_first_price:closed"].bids - outputs[f"{m}:solve_dutch:closed"].bids
            if not (gap >= -1e-3).all():
                problems[f"{m}:solve_dutch:closed"].append(
                    f"{m}: Dutch bid above first price by {-gap.min():.3g}")
            silent = outputs[f"{m}:bid_silent_english:closed"].bids
            if not np.allclose(silent, closed.v_lower, rtol=0, atol=1e-12):
                problems[f"{m}:bid_silent_english:closed"].append(
                    f"{m}: silent English quit prices differ from v_lower(x, x)")
            report = outputs[f"{m}:verify_orderings"]
            if not report.ok:
                problems[f"{m}:verify_orderings"].append(f"{m}: {report}")
        for m, model in models.items():
            bf = outputs[f"{m}:bid_canonical_english"]
            want = canonical_quit_prices(model, quits[m], grids[m])
            if not np.allclose(bf.bids, want, rtol=0, atol=1e-12):
                problems[f"{m}:bid_canonical_english"].append(
                    f"{m}: stage quit prices off by {np.nanmax(np.abs(bf.bids - want)):.3g}")
        rows = [outputs[f"winner_curse:k={k}"][0] for k in WINNER_KS]
        for key, msg in winner_problems(rows):
            problems[key].append(msg)
        return problems

    return Workload("auction", ops, check,
                    {"grid": GRID, "samples": samples, "oracle_seed": seed,
                     "models": {m: model.name for m, model in models.items()},
                     "quits": quits, "winner_ks": list(WINNER_KS)})


def order_stat_cdf(model, x):
    """P(highest other signal <= x) for iid uniform signals on [0, 1]."""
    return np.asarray(x, dtype=float) ** (model.bidders - 1)


def mc_problems(model, mc, closed, z_max=6.0, share=0.05):
    """Monte Carlo columns scatter around the closed forms with their
    standard errors: over the cells whose conditioning event is likely
    enough for a usable standard error, at most 5% lie beyond 3 SE and none
    beyond 6 SE.  f_y1 is a kernel estimate, biased where the density bends
    or ends, so it is not compared."""
    F = order_stat_cdf(model, mc.grid)
    usable = {"v": np.ones_like(F, dtype=bool), "v_upper": F >= MIN_EVENT,
              "v_lower": 1 - F >= MIN_EVENT, "F_y1": (F >= MIN_EVENT) & (1 - F >= MIN_EVENT)}
    out = []
    for col, cells in usable.items():
        est, se = getattr(mc, col)[cells], getattr(mc, col + "_se")[cells]
        truth = getattr(closed, col)[cells]
        if not (np.isfinite(est).all() and (se > 0).all()):
            out.append(f"{model.name} {col}: missing estimates or standard errors")
            continue
        z = np.abs(est - truth) / se
        if (z > 3).mean() > share or z.max() > z_max:
            out.append(f"{model.name} {col}: {(z > 3).sum()} of {len(z)} cells beyond "
                       f"3 SE, max {z.max():.2f} SE")
    return out


def closed_problems(model, closed):
    out = []
    if closed.source != "closed-form":
        out.append(f"{model.name}: tables not from closed forms ({closed.source})")
    F = order_stat_cdf(model, closed.grid)
    if not np.allclose(closed.F_y1, F, rtol=0, atol=1e-12):
        out.append(f"{model.name}: F_y1 is not x^(n-1)")
    if not (np.all(closed.v_upper <= closed.v + 1e-12) and np.all(closed.v <= closed.v_lower + 1e-12)):
        out.append(f"{model.name}: v_upper <= v <= v_lower fails")
    return out


def ode_residual(tables, bf, target_col, skip=0.02):
    """Largest centered-difference residual of db/dx = (target - b) f/F at
    interior grid points, past the start layer and where the grid resolves
    the rate."""
    g, b = tables.grid, bf.bids
    h = g[1] - g[0]
    target = getattr(tables, target_col)
    lo_cut = max(g[0] + skip * (g[-1] - g[0]), (bf.start_x or g[0]) + h)
    worst = 0.0
    for i in range(1, len(g) - 1):
        rate = tables.f_y1[i] / max(tables.F_y1[i], 1e-30)
        if g[i] < lo_cut or rate * h > 1.0:
            continue
        slope = (b[i + 1] - b[i - 1]) / (g[i + 1] - g[i - 1])
        worst = max(worst, abs(slope - (target[i] - b[i]) * rate))
    return worst


def canonical_quit_prices(model, quits, grid):
    """Stage quit price after the observed quits: the expected value when
    every bidder still in the auction holds the current price's signal or
    more.  Wallet (two bidders, no quits): x + (1 + x) / 2.  Mean value of n
    signals: (x + sum(quits) + r (1 + x) / 2) / n with r bidders left."""
    x = np.asarray(grid, dtype=float)
    if model.name.startswith("wallet"):
        return x + (1 + x) / 2
    n = model.bidders
    rest = n - 1 - len(quits)
    return (x + sum(quits) + rest * (1 + x) / 2) / n


def winner_problems(rows):
    """The winner's mean payoff does not grow in size with the bidder count
    beyond 3 SE, and is within 3 SE + 1e-4 of 0 at the largest count."""
    out = []
    for a, b in zip(rows, rows[1:]):
        if abs(b.mean_payoff) > abs(a.mean_payoff) + 3 * (a.se + b.se):
            out.append((f"winner_curse:k={b.bidders}",
                        f"|payoff| grows from k={a.bidders} to k={b.bidders}"))
    last = rows[-1]
    if abs(last.mean_payoff) > 3 * last.se + 1e-4:
        out.append((f"winner_curse:k={last.bidders}",
                    f"payoff {last.mean_payoff:.3g} not within 3 SE of 0"))
    return out


BUILDERS = {"solve": build_solve, "prices": build_prices, "auction": build_auction}
