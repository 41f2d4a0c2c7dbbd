"""Bundled games and experiment generators.

The paper's worked examples (the trading variants, the running example, the
club game, the mixing example, the matching-pennies onlooker and the
leader-follower game) are defined only by their documents in
``cursedeq/data``; load one with :func:`bundled_game`.  The three
lab-experiment families depend on parameters and are built here: pivotal
voting with computer opponents, learning from prices, and the two-stage
common-value auction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tree import GameBuilder, GameError, GameTree


@dataclass(frozen=True)
class ComputerPlayerSet:
    """Players with fixed, commonly known strategies (lab computers)."""

    strategies: dict[str, dict[str, dict[str, float]]]  # player -> info set -> dist

    def players(self) -> set[str]:
        return set(self.strategies)

    def info_set_dists(self) -> dict[str, dict[str, float]]:
        out = {}
        for dists in self.strategies.values():
            out.update(dists)
        return out


BUNDLED_DOCUMENTS = {
    "sequential-trading": "sequential-trading.game",
    "running-example": "running-example.game",
    "club-membership": "club-membership.game",
    "mixing": "mixing.game",
    "pennies-onlooker": "pennies-onlooker.game",
    "leader-follower": "leader-follower.game",
    "trading-simultaneous": "trading-simultaneous.game",
    "trading-fictitious": "trading-fictitious.game",
}


def bundled_game_text(name: str) -> str:
    """Canonical document text of a bundled game, by short name."""
    from importlib import resources
    fname = BUNDLED_DOCUMENTS.get(name)
    if fname is None:
        raise GameError(f"no bundled game named {name!r}")
    return resources.files("cursedeq.data").joinpath(fname).read_text("utf-8")


def bundled_game(name: str) -> GameTree:
    """A bundled game, parsed from its document, by short name."""
    from .gamefile import parse_game
    return parse_game(bundled_game_text(name))


# ---------------------------------------------------------------------------
# Pivotal voting
# ---------------------------------------------------------------------------

def voting_game(p: float, q: float, treatment: str):
    """Three-voter jar game: a subject and two computers voting on the color.

    Computers see the ball: red means vote red, blue means vote blue with
    probability q.  The subject sees nothing (simultaneous) or both computer
    votes (sequential).  Majority-correct pays the subject 2.
    """
    if not 0.0 < p < 1.0 or not 0.0 < q < 1.0:
        raise GameError("voting parameters must lie strictly inside (0, 1)")
    if treatment not in ("simultaneous", "sequential"):
        raise GameError(f"unknown treatment {treatment!r}")
    b = GameBuilder(f"pivotal voting {treatment} p={p} q={q}",
                    ["subj", "c1", "c2"])
    b.chance("ball", None, None, {"red": p, "blue": 1.0 - p})
    comp_dist = {"red": {"r": 1.0, "b": 0.0},
                 "blue": {"r": 1.0 - q, "b": q}}
    subj_sets = {}
    for color in ("red", "blue"):
        b.player(color, "ball", color, "c1")
        for v1 in ("r", "b"):
            n1 = color + v1
            b.player(n1, color, v1, "c2")
            for v2 in ("r", "b"):
                n2 = n1 + v2
                b.player(n2, n1, v2, "subj")
                for vs in ("r", "b"):
                    votes = [v1, v2, vs]
                    majority = "r" if votes.count("r") >= 2 else "b"
                    win = (majority == "r") == (color == "red")
                    b.terminal(n2 + vs, n2, vs,
                               {"subj": 2.0 if win else 0.0, "c1": 0.0, "c2": 0.0})
                key = (v1, v2) if treatment == "sequential" else "all"
                subj_sets.setdefault(key, []).append(n2)
    b.info_set("c1:red", "c1", ["red"])
    b.info_set("c1:blue", "c1", ["blue"])
    b.info_set("c2:red", "c2", ["redr", "redb"])
    b.info_set("c2:blue", "c2", ["bluer", "blueb"])
    frozen_dists = {"c1": {"c1:red": comp_dist["red"], "c1:blue": comp_dist["blue"]},
                    "c2": {"c2:red": comp_dist["red"], "c2:blue": comp_dist["blue"]}}
    if treatment == "simultaneous":
        b.info_set("subj:all", "subj", subj_sets["all"])
    else:
        for (v1, v2), nodes in sorted(subj_sets.items()):
            b.info_set(f"subj:{v1}{v2}", "subj", nodes)
    return b.build(), ComputerPlayerSet(frozen_dists)


# ---------------------------------------------------------------------------
# Learning from prices
# ---------------------------------------------------------------------------

def type_grid(g: int) -> list[float]:
    """Uniform grid of g type values on cell midpoints of (0, 1).

    Midpoints keep the discretized signal densities strictly positive at
    both ends, as nature requires.
    """
    return [(k + 0.5) / g for k in range(g)]


def price_grid(g: int) -> list[float]:
    return [k / (g - 1) for k in range(g)]


def snap_price(p: float, g: int) -> float:
    """Nearest price-grid point, halves rounding up."""
    step = 1.0 / (g - 1)
    idx = int(p / step + 0.5)
    return min(max(idx, 0), g - 1) * step


def type_weights(g: int, high: bool) -> dict[float, float]:
    """Discretized signal distribution given the asset value."""
    grid = type_grid(g)
    dens = [2 * t if high else 2 * (1 - t) for t in grid]
    total = sum(dens)
    return {t: d / total for t, d in zip(grid, dens)}


def prices_game(g: int, treatment: str, p1: float):
    """One price cell of the trading experiment: the public price p1 is a
    parameter, everything else (value, both types) is drawn by nature.

    The full experiment is the family of these games over the price grid;
    p1 is independent of the rest, so the cells separate exactly.
    """
    return prices_cell(prices_skeleton(g, treatment), g, p1)


def prices_skeleton(g: int, treatment: str):
    """The price game's tree for every p1, with empty payoffs that
    :func:`prices_cell` fills in."""
    if treatment not in ("simultaneous", "sequential"):
        raise GameError(f"unknown treatment {treatment!r}")
    if g < 2:
        raise GameError(f"the price game needs G of at least 2, got G {g}")
    grid = type_grid(g)
    b = GameBuilder(f"learning-from-prices {treatment}", ["T1", "T2"])
    b.chance("V", None, None, {"hi": 0.5, "lo": 0.5})
    t1_sets = {k: [] for k in range(g)}
    t2_sets = {}
    for v in ("hi", "lo"):
        wts = type_weights(g, v == "hi")
        b.chance("t1." + v, "V", v, {f"{i}": wts[t] for i, t in enumerate(grid)})
        for i, t1 in enumerate(grid):
            n1 = f"{v}.{i}"
            b.chance(n1, "t1." + v, f"{i}", {f"{j}": wts2 for j, wts2
                                             in enumerate(type_weights(g, v == "hi").values())})
    # second type layer shares the same conditional distribution
    for v in ("hi", "lo"):
        for i in range(g):
            n1 = f"{v}.{i}"
            for j, t2 in enumerate(grid):
                node = f"{n1}.{j}"
                b.player(node, n1, f"{j}", "T1")
                t1_sets[i].append(node)
                for a1 in ("buy", "sell"):
                    n2 = f"{node}.{a1}"
                    b.player(n2, node, a1, "T2")
                    if treatment == "sequential":
                        key = (j, a1)
                        for a2 in ("buy", "sell"):
                            b.terminal(f"{n2}.{a2}", n2, a2, {})
                    else:
                        key = j
                        for bi in range(len(price_grid(g))):
                            b.terminal(f"{n2}.o{bi}", n2, f"o{bi}", {})
                    t2_sets.setdefault(key, []).append(n2)
    for i in range(g):
        b.info_set(f"T1:{i}", "T1", t1_sets[i])
    for key in sorted(t2_sets):
        name = f"T2:{key}" if treatment == "simultaneous" else f"T2:{key[0]}:{key[1]}"
        b.info_set(name, "T2", t2_sets[key])
    return b.build()


def prices_cell(skeleton, g: int, p1: float):
    """Price cell p1 on a :func:`prices_skeleton` tree.  A terminal
    ``value.i.j.a1.a2`` (a2 a trade, or a limit order ``o<k>``) has payoffs
    set by (value, a1, a2), and the terminals of one such key share one
    payoff row; the keys stay in ``skeleton.compiled``."""
    if "prices" not in skeleton.compiled:
        keys = [(v, a1, a2) for z in skeleton.terminals for v, _, _, a1, a2 in [z.split(".")]]
        skeleton.compiled["prices"] = keys, tuple(dict.fromkeys(keys))
    keys, distinct = skeleton.compiled["prices"]
    p2 = {"buy": snap_price((1 + p1) / 2, g), "sell": snap_price(p1 / 2, g)}
    rows = {}
    for v, a1, a2 in distinct:
        value, price = (1.0 if v == "hi" else 0.0), p2[a1]
        buys = a2 == "buy" if a2[0] != "o" else price <= price_grid(g)[int(a2[1:])] + 1e-12
        rows[v, a1, a2] = {"T1": float((value - p1) if a1 == "buy" else (p1 - value)),
                           "T2": float((value - price) if buys else (price - value))}
    payoffs = dict(zip(skeleton.terminals, map(rows.__getitem__, keys)))
    return skeleton.with_payoffs(f"{skeleton.title} p1={p1:.4f}", payoffs)


# ---------------------------------------------------------------------------
# Two-stage common-value auction
# ---------------------------------------------------------------------------

DEFAULT_TYPES = tuple(range(0, 11)) + tuple(range(50, 61))


@dataclass(frozen=True)
class TwoStageAuctionSpec:
    types: tuple[int, ...] = DEFAULT_TYPES
    bid_lo: int = 0
    bid_hi: int = 120

    @property
    def bids(self) -> range:
        return range(self.bid_lo, self.bid_hi + 1)


# the most terminals an explicit two-stage auction tree may have
TERMINAL_LIMIT = 2_000_000


def two_stage_auction_tree(spec: TwoStageAuctionSpec) -> GameTree:
    """Explicit extensive form of the two-stage auction.

    Only feasible for reduced parameter sets; the full design exceeds any
    explicit tree, so the golden harness evaluates it analytically.
    """
    types = spec.types
    bids = list(spec.bids)
    n_term = (len(types) ** 2) * len(bids) ** 3
    if n_term > TERMINAL_LIMIT:
        raise GameError(
            f"two-stage auction tree would have {n_term} terminals; "
            "reduce the type set or bid range, or use the prediction harness")

    def stage_payoff(t1, t2, b1, b2):
        if t1 == t2:
            return 0.0, 0.0
        v = float(t1 + t2)
        if b1 > b2 or (b1 == b2 and t1 > t2):
            return v - min(b1, b2), 0.0
        return 0.0, v - min(b1, b2)

    b = GameBuilder("two-stage auction", ["1", "2"])
    prior = 1.0 / (len(types) ** 2)
    b.chance("r", None, None,
             {f"{t1},{t2}": prior for t1 in types for t2 in types})
    sets1, sets2, sets_rev = {}, {}, {}
    for t1 in types:
        for t2 in types:
            n0 = f"{t1},{t2}"
            b.player(n0, "r", n0, "1")
            sets1.setdefault(t1, []).append(n0)
            for b1 in bids:
                n1 = f"{n0}|{b1}"
                b.player(n1, n0, f"{b1}", "2")
                sets2.setdefault(t2, []).append(n1)
                for b2 in bids:
                    n2 = f"{n1},{b2}"
                    b.player(n2, n1, f"{b2}", "1")
                    side = "le" if b1 <= b2 else "gt"
                    sets_rev.setdefault((t1, b1, side), []).append(n2)
                    u1s, u2s = stage_payoff(t1, t2, b1, b2)
                    for br in bids:
                        u1r, _ = stage_payoff(t1, t2, br, b2)
                        b.terminal(f"{n2}|{br}", n2, f"{br}",
                                   {"1": u1s + u1r, "2": u2s})
    for t1, nodes in sorted(sets1.items()):
        b.info_set(f"1:t{t1}", "1", nodes)
    for t2, nodes in sorted(sets2.items()):
        b.info_set(f"2:t{t2}", "2", nodes)
    for (t1, b1, side), nodes in sorted(sets_rev.items()):
        b.info_set(f"1:t{t1}:b{b1}:{side}", "1", nodes)
    return b.build()


# ---------------------------------------------------------------------------
# Experiment specifications
# ---------------------------------------------------------------------------

VOTING_P = tuple(round(0.1 * k, 1) for k in range(1, 10))
VOTING_Q = (0.1, 0.25, 0.5, 0.75, 0.9)


@dataclass
class ExperimentSpec:
    """Parsed description of one experiment run; ``params`` holds typed
    values (``gamefile.parse_experiment`` converts them)."""

    kind: str  # voting | learning-from-prices | two-stage-auction | trading | fictitious-player-trading
    concept: str = "sce"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        known = {"voting", "learning-from-prices", "two-stage-auction",
                 "trading", "fictitious-player-trading"}
        if self.kind not in known:
            raise GameError(f"unknown experiment {self.kind!r}")


def generate_experiment(spec: ExperimentSpec):
    """Build the extensive game (plus frozen computer players, if any).

    Experiment families with many cells (voting without fixed p and q,
    prices) are generated per cell; pass the cell parameters in ``params``.
    """
    p = spec.params
    if spec.kind == "voting":
        return voting_game(p.get("p", 0.6), p.get("q", 0.5), p.get("treatment", "sequential"))
    if spec.kind == "learning-from-prices":
        return prices_game(p.get("G", 21), p.get("treatment", "simultaneous"),
                           p.get("p1", 0.5)), None
    if spec.kind == "two-stage-auction":
        aspec = TwoStageAuctionSpec(p.get("types", DEFAULT_TYPES), p.get("bid_lo", 0),
                                    p.get("bid_hi", 120))
        return two_stage_auction_tree(aspec), None
    if spec.kind == "trading":
        if p.get("treatment", "simultaneous") == "sequential":
            return bundled_game("sequential-trading"), None
        return bundled_game("trading-simultaneous"), None
    if spec.kind == "fictitious-player-trading":
        return bundled_game("trading-fictitious"), None
    raise GameError(f"unknown experiment {spec.kind!r}")
