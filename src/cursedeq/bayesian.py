"""Simultaneous Bayesian games: cursed and independently cursed equilibria.

Nature draws a state once, each player observes a cell of their type
partition, and everyone moves once.  Cursed players best-respond to the
joint distribution of opponent action profiles conditional on their type,
treated as independent of the state; independently cursed players also
treat opponents' actions as independent of each other.  The two coincide
for two players, and both coincide with the sequential concepts on this
class, which the crosscheck verifies numerically on the tree embedding.
Each solve builds per type, once, the payoff rows averaged over the type's
states, and every sweep reads them.  With two players a type's values are
linear in the opponent's strategy: a floor stage reads them off the solver's
flat iterate by one linear map built once per solve, and a support roots by
one linear solve.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass

import numpy as np

from .bestresponse import support_gaps
from .partition import coarsest_valid_partition
from .solvers import SolverConfig, _dists, _homotopy, sce_witness_check, solve_sce
from .tree import GameBuilder, GameError, GameTree


@dataclass
class BayesianGame:
    """Normal-form description: states, priors, type partitions, payoffs.

    ``payoffs`` maps (state, action profile in player order) to one utility
    per player, also in player order.
    """

    title: str
    states: tuple[str, ...]
    prior: dict[str, float]
    players: tuple[str, ...]
    types: dict[str, tuple[tuple[str, ...], ...]]
    actions: dict[str, tuple[str, ...]]
    payoffs: dict[tuple, tuple[float, ...]]

    def __post_init__(self):
        total = sum(self.prior.values())
        if abs(total - 1.0) > 1e-9 or any(p <= 0 for p in self.prior.values()):
            raise GameError("prior must be fully mixed and sum to 1")
        for pl, cells in self.types.items():
            seen = [s for cell in cells for s in cell]
            if sorted(seen) != sorted(self.states):
                raise GameError(f"type cells of {pl!r} do not partition the states")

    def type_of(self, player: str, state: str) -> int:
        for k, cell in enumerate(self.types[player]):
            if state in cell:
                return k
        raise GameError(f"state {state!r} not in any type of {player!r}")


TypeStrategy = dict  # (player, type index) -> action distribution


def value_tables(game: BayesianGame, independent: bool) -> dict[tuple, tuple]:
    """The table of every type cell, built once per solve: the flag
    ``independent``; the cell's states grouped by the opponents' strategy
    keys, each group with its posterior mass; per opponent its actions; and
    per own action the type-averaged row ``R[a][j] = sum_w post(w) u(w, a, j)``
    over the opponents' profiles j (in product order)."""
    tables = {}
    for i, pl in enumerate(game.players):
        others = game.players[:i] + game.players[i + 1:]
        actions = [game.actions[m] for m in others]
        combos = list(itertools.product(*actions))
        for k, cell in enumerate(game.types[pl]):
            total, groups = sum(game.prior[w] for w in cell), {}
            for w in cell:
                keys = tuple((m, game.type_of(m, w)) for m in others)
                groups[keys] = groups.get(keys, 0.0) + game.prior[w] / total
            tables[(pl, k)] = (
                independent, [(p, keys) for keys, p in groups.items()], actions,
                {a: [sum(game.prior[w] / total * game.payoffs[(w, c[:i] + (a,) + c[i:])][i]
                         for w in cell) for c in combos]
                 for a in game.actions[pl]})
    return tables


def _joint(start, dists, actions):
    """``start * d1[a1] * d2[a2] * ...``, left to right, in product order."""
    out = [start]
    for d, acts in zip(dists, actions):
        out = [x * d[a] for x in out for a in acts]
    return out


def type_action_values(tables: dict[tuple, tuple], sigma: TypeStrategy,
                       cell: tuple) -> dict[str, float]:
    """Expected utility of each own action of the type ``cell`` under the
    cursed belief ``bp``: the opponents' action profile averaged over the
    cell's states and treated as independent of the state, or, for
    independent tables, the product of each opponent's averaged marginal.
    Each value is ``q(a) = sum_j bp[j] R[a][j]`` on the averaged rows."""
    independent, groups, actions, rows = tables[cell]
    if independent:
        bps = _joint(1.0, [{a: sum(p * sigma[keys[n]][a] for p, keys in groups) for a in acts}
                           for n, acts in enumerate(actions)], actions)
    else:
        bps = [sum(col) for col in zip(*[_joint(p, [sigma[key] for key in keys], actions)
                                         for p, keys in groups])]
    return {a: sum(map(operator.mul, bps, row)) for a, row in rows.items()}


def affine_values(tables: dict[tuple, tuple], slots, owners):
    """Two players: the values of the keys ``owners`` as one linear map on a
    flat strategy vector ``x`` laid out by ``slots`` (``(key, actions, lo,
    hi)``, each key's probabilities at ``x[lo:hi]``).  An owner's entries are
    its opponent keys' probabilities, one per state group and opponent
    action j, with coefficients ``W[a][i] = post(w) R[a][j]`` (``post(w)``
    the group's posterior mass), so ``q(a) = sum_i W[a][i] x[i]``.  Returns
    ``values(x)``: one value list per owner, in its actions' order."""
    where = {k: (acts, lo) for k, acts, lo, _ in slots}
    maps = []
    for k in owners:
        _, groups, (opp,), rows = tables[k]
        idx = [where[key][1] + where[key][0].index(b) for _, (key,) in groups for b in opp]
        get = operator.itemgetter(*idx) if len(idx) > 1 else lambda x, i=idx[0]: (x[i],)
        maps.append((get, [[p * r for p, _ in groups for r in row] for row in rows.values()]))

    def values(x):
        out = []
        for get, w in maps:
            xs = get(x)
            out.append([sum(map(operator.mul, wa, xs)) for wa in w])
        return out

    return values


def _indifference_system(game: BayesianGame, tables: dict[tuple, tuple]):
    """Two players: ``affine(base, supports)`` gives ``(M, c)``, the support's
    indifference conditions ``M x + c = 0`` over ``solvers._fill``'s variables:
    a key of ``supports`` plays its first action with the mass its other
    actions leave, any other key its strategy in ``base``."""
    def affine(base, supports):
        n = sum(len(sup) - 1 for _, sup in supports)
        # each support key's strategy as a matrix on (x, 1)
        unit, strat, j = np.eye(n + 1)[n], {}, 0
        for k, sup in supports:
            acts = game.actions[k[0]]
            strat[k] = t = np.zeros((len(acts), n + 1))
            t[acts.index(sup[0])] = unit
            for b in sup[1:]:
                t[acts.index(sup[0]), j], t[acts.index(b), j], j = -1.0, 1.0, j + 1
        mc = []
        for k, sup in supports:
            _, groups, (acts,), rows = tables[k]
            bp = sum(p * (strat[key] if key in strat else
                          np.outer([base[key][a] for a in acts], unit)) for p, (key,) in groups)
            mc += [np.subtract(rows[b], rows[sup[0]]) @ bp for b in sup[1:]]
        mc = np.array(mc)
        return mc[:, :n], mc[:, n]

    return affine


def _solve_static(game: BayesianGame, config: SolverConfig, independent: bool,
                  frozen: dict | None, concept: str) -> TypeStrategy:
    """CE/ICE on the shared homotopy driver: the type-wise action values
    serve as stage and limit values alike, and every limit is sound.  With
    two players a stage reads them off the flat iterate by
    :func:`affine_values`, built once per solve."""
    frozen = frozen or {}
    cells = sorted((pl, k) for pl in game.players
                   for k in range(len(game.types[pl])))
    free = [c for c in cells if c not in frozen]  # in slot order, as the stage returns values
    tables = value_tables(game, independent)
    two = len(game.players) == 2

    def q_limit(sigma, owners):
        return {c: type_action_values(tables, sigma, c) for c in owners}, True, None

    def q_stage(slots):
        if two:
            linear = affine_values(tables, slots, free)
            return lambda x, eps: linear(x)

        def values(x, eps):
            sigma = _dists(x, slots)
            return [list(type_action_values(tables, sigma, c).values()) for c in free]
        return values

    sigma, _, _, _ = _homotopy(
        concept, config, cells, lambda c: game.actions[c[0]], frozen, free, q_stage, q_limit,
        _indifference_system(game, tables) if two else None)
    return sigma


def solve_ice(game: BayesianGame, config: SolverConfig | None = None,
              frozen: dict | None = None) -> TypeStrategy:
    """Fixed point of type-wise best response against per-opponent marginal
    beliefs treated as mutually independent and independent of the state."""
    return _solve_static(game, config or SolverConfig(), True, frozen, "ice")


def solve_ce(game: BayesianGame, config: SolverConfig | None = None,
             frozen: dict | None = None) -> TypeStrategy:
    """Fixed point against the joint opponent action-profile distribution
    conditional on own type, treated as independent of the state."""
    return _solve_static(game, config or SolverConfig(), False, frozen, "ce")


# ---------------------------------------------------------------------------
# Extensive embedding and the equivalence crosscheck
# ---------------------------------------------------------------------------

def embed_bayesian(game: BayesianGame) -> GameTree:
    """Extensive form: nature draws the state, players move in order, each
    seeing only their own type (histories pooled over earlier moves)."""
    b = GameBuilder(game.title, list(game.players))
    b.chance("r", None, None, dict(game.prior))
    sets = {}
    prev_nodes = {w: f"s:{w}" for w in game.states}
    for w in game.states:
        first = game.players[0]
        node = prev_nodes[w]
        b.player(node, "r", w, first)
        sets.setdefault((first, game.type_of(first, w)), []).append(node)

    def extend(idx, node, w, history):
        player = game.players[idx]
        for a in game.actions[player]:
            child = f"{node}.{a}"
            if idx + 1 < len(game.players):
                nxt = game.players[idx + 1]
                b.player(child, node, a, nxt)
                sets.setdefault((nxt, game.type_of(nxt, w)), []).append(child)
                extend(idx + 1, child, w, history + (a,))
            else:
                profile = history + (a,)
                us = game.payoffs[(w, profile)]
                b.terminal(child, node, a,
                           {pl: u for pl, u in zip(game.players, us)})

    for w in game.states:
        extend(0, prev_nodes[w], w, ())
    for (pl, k), nodes in sorted(sets.items()):
        b.info_set(f"{pl}:T{k}", pl, nodes)
    return b.build()


def strategy_to_profile(game: BayesianGame, sigma: TypeStrategy):
    from .tree import BehaviorProfile
    return BehaviorProfile({f"{pl}:T{k}": dict(sigma[(pl, k)])
                            for pl in game.players
                            for k in range(len(game.types[pl]))})


def profile_to_strategy(game: BayesianGame, profile) -> TypeStrategy:
    return {(pl, k): dict(profile.dists[f"{pl}:T{k}"])
            for pl in game.players for k in range(len(game.types[pl]))}


@dataclass(frozen=True)
class CrosscheckReport:
    max_profile_gap: float
    ice_passes_sce: bool
    sce_passes_ice: bool
    detail: dict

    @property
    def ok(self) -> bool:
        return self.max_profile_gap <= 1e-6 and self.ice_passes_sce and self.sce_passes_ice


def crosscheck_equivalence(game: BayesianGame,
                           config: SolverConfig | None = None) -> CrosscheckReport:
    """Solve the embedding sequentially and the normal form independently,
    then verify the profiles coincide and each passes the other's check."""
    config = config or SolverConfig()
    tree = embed_bayesian(game)
    partition = coarsest_valid_partition(tree)
    sce = solve_sce(tree, partition, config)
    ice = solve_ice(game, config)

    gap = 0.0
    for pl in game.players:
        for k in range(len(game.types[pl])):
            tdist = sce.profile.dists[f"{pl}:T{k}"]
            for a, p in ice[(pl, k)].items():
                gap = max(gap, abs(p - tdist[a]))

    # each side certified by the other's optimality conditions
    tables = value_tables(game, True)

    def passes_ice(sigma):
        q = {c: type_action_values(tables, sigma, c) for c in sigma}
        return all(g <= 1e-6 for g in support_gaps(q, sigma).values())

    sce_of_ice_ok, _, _ = sce_witness_check(tree, partition,
                                            strategy_to_profile(game, ice), config)
    sce_as_ice_ok = passes_ice(profile_to_strategy(game, sce.profile))
    return CrosscheckReport(gap, sce_of_ice_ok and passes_ice(ice), sce_as_ice_ok,
                            {"sce_gaps": sce.gaps})


# ---------------------------------------------------------------------------
# Stock normal forms
# ---------------------------------------------------------------------------

def trading_bayesian() -> BayesianGame:
    """The two-player trading table: trade iff both accept."""
    states = ("w1", "w2", "w3")
    pay = {"w1": (3.0, -3.0), "w2": (1.0, -1.0), "w3": (-3.0, 3.0)}
    payoffs = {}
    for w in states:
        for a1 in ("a", "d"):
            for a2 in ("a", "d"):
                trade = a1 == "a" and a2 == "a"
                payoffs[(w, (a1, a2))] = pay[w] if trade else (0.0, 0.0)
    return BayesianGame(
        "trading table", states, {w: 1 / 3 for w in states}, ("1", "2"),
        {"1": (("w1", "w2"), ("w3",)), "2": (("w1",), ("w2", "w3"))},
        {"1": ("a", "d"), "2": ("a", "d")}, payoffs)


def voting_bayesian(p: float, q: float, treatment: str) -> BayesianGame:
    """Voting experiment reduced to its Bayesian normal form.

    In the sequential treatment the subject's actions are complete plans
    mapping the observed computer-vote pair to a vote, which is how the
    static cursed concepts apply to that treatment.
    """
    states = ("red", "blue")
    players = ("subj", "c1", "c2")
    if treatment == "simultaneous":
        subj_actions = ("r", "b")

        def subj_vote(action, v1, v2):
            return action
    elif treatment == "sequential":
        pairs = [("r", "r"), ("r", "b"), ("b", "r"), ("b", "b")]
        subj_actions = tuple("".join(plan) for plan in
                             itertools.product("rb", repeat=4))

        def subj_vote(action, v1, v2):
            return action[pairs.index((v1, v2))]
    else:
        raise GameError(f"unknown treatment {treatment!r}")

    payoffs = {}
    for w in states:
        for a_s in subj_actions:
            for v1 in ("r", "b"):
                for v2 in ("r", "b"):
                    vote = subj_vote(a_s, v1, v2)
                    votes = [vote, v1, v2]
                    majority = "r" if votes.count("r") >= 2 else "b"
                    win = (majority == "r") == (w == "red")
                    payoffs[(w, (a_s, v1, v2))] = (2.0 if win else 0.0, 0.0, 0.0)
    return BayesianGame(
        f"voting normal form {treatment}", states, {"red": p, "blue": 1 - p},
        players,
        {"subj": (("red", "blue"),), "c1": (("red",), ("blue",)),
         "c2": (("red",), ("blue",))},
        {"subj": subj_actions, "c1": ("r", "b"), "c2": ("r", "b")}, payoffs)


def voting_computer_freeze(game: BayesianGame, q: float) -> dict:
    """Frozen computer strategies for the voting normal form."""
    frozen = {}
    for c in ("c1", "c2"):
        for k, cell in enumerate(game.types[c]):
            if cell == ("red",):
                frozen[(c, k)] = {"r": 1.0, "b": 0.0}
            else:
                frozen[(c, k)] = {"r": 1.0 - q, "b": q}
    return frozen


def random_bayesian_game(rng: random.Random, n_states: int = 3,
                         n_actions: int = 2, n_players: int = 2) -> BayesianGame:
    """Seeded game with random type partitions and payoffs."""
    states = tuple(f"w{i}" for i in range(n_states))
    raw = [rng.random() + 0.2 for _ in states]
    total = sum(raw)
    prior = {w: x / total for w, x in zip(states, raw)}

    def rand_partition():
        k = rng.randint(1, n_states)
        cells = [[] for _ in range(k)]
        for i, w in enumerate(states):
            cells[i % k].append(w)
        rng.shuffle(cells)
        return tuple(tuple(c) for c in cells if c)

    players = tuple(str(i + 1) for i in range(n_players))
    actions = tuple(chr(ord("a") + i) for i in range(n_actions))
    payoffs = {}
    for w in states:
        for combo in itertools.product(actions, repeat=n_players):
            payoffs[(w, combo)] = tuple(round(rng.uniform(-3, 3), 3)
                                        for _ in players)
    return BayesianGame("random bayesian", states, prior, players,
                        {pl: rand_partition() for pl in players},
                        {pl: actions for pl in players}, payoffs)
