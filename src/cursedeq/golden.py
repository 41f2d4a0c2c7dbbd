"""Golden-prediction harnesses for the lab-experiment games.

Each harness solves its game family with the requested concept and compares
the outcome against the qualitative prediction: naive versus strategic
voting per treatment, naive versus Bayesian trading in the price game, and
the stage-one bid plus directional stage-two revisions in the bid-revision
auction.  Reports carry one row per parameter cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .bayesian import solve_ce, solve_ice, voting_bayesian, voting_computer_freeze
from .bestresponse import respond
from .conjectures import cursed_conjecture
from .games import (DEFAULT_TYPES, VOTING_P, VOTING_Q, ExperimentSpec, bundled_game, price_grid,
                    prices_cell, prices_skeleton, snap_price, type_grid, type_weights,
                    voting_game)
from .partition import coarsest_valid_partition
from .solvers import SolverConfig, _bayes_belief, solve_sce
from .tree import BehaviorProfile, GameError, node_reach, outcome_measure


@dataclass
class CellResult:
    cell: dict
    predicted: str
    expected: str
    match: bool
    detail: str = ""


@dataclass
class GoldenReport:
    experiment: str
    concept: str
    cells: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.match for c in self.cells)

    def mismatches(self):
        return [c for c in self.cells if not c.match]

    def __str__(self) -> str:
        n_bad = len(self.mismatches())
        head = (f"{self.experiment} under {self.concept}: "
                f"{len(self.cells) - n_bad}/{len(self.cells)} cells match")
        if n_bad == 0:
            return head
        lines = [head]
        for c in self.mismatches()[:20]:
            lines.append(f"  {c.cell}: predicted {c.predicted}, expected {c.expected} {c.detail}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Pivotal voting
# ---------------------------------------------------------------------------

def _pure_vote(dist, tol=1e-6):
    for a, p in dist.items():
        if p > 1.0 - tol:
            return a
    return "mixed"


def voting_predictions(concept: str, ps=VOTING_P, qs=VOTING_Q,
                       config: SolverConfig | None = None) -> GoldenReport:
    """Per (p, q) cell and treatment: is the subject naive or strategic?

    Sequential cursedness predicts strategic voting when votes are observed
    and naive voting when they are hypothetical; static cursedness predicts
    naive voting in both treatments.
    """
    config = config or SolverConfig()
    report = GoldenReport("voting", concept)
    for p in ps:
        for q in qs:
            for treatment in ("simultaneous", "sequential"):
                pivotal = _voting_cell(concept, p, q, treatment, config)
                naive_vote = "r" if p > 0.5 else ("b" if p < 0.5 else "either")
                if concept in ("sce", "wpce"):
                    expected = "b" if treatment == "sequential" else naive_vote
                else:
                    expected = naive_vote
                match = pivotal == expected or expected == "either"
                report.cells.append(CellResult(
                    {"p": p, "q": q, "treatment": treatment},
                    pivotal, expected, match))
    return report


def _voting_cell(concept, p, q, treatment, config):
    """The subject's vote where it matters: the pivotal decision."""
    if concept in ("sce", "wpce"):
        tree, frozen = voting_game(p, q, treatment)
        partition = coarsest_valid_partition(tree)
        res = solve_sce(tree, partition, config, frozen=frozen)
        if treatment == "simultaneous":
            return _pure_vote(res.profile.dists["subj:all"])
        votes = {_pure_vote(res.profile.dists[f"subj:{v1}{v2}"])
                 for v1, v2 in (("r", "b"), ("b", "r"))}
        return votes.pop() if len(votes) == 1 else "mixed"
    if concept in ("ce", "ice"):
        game = voting_bayesian(p, q, treatment)
        frozen = voting_computer_freeze(game, q)
        sigma = (solve_ice if concept == "ice" else solve_ce)(game, config, frozen=frozen)
        dist = sigma[("subj", 0)]
        if treatment == "simultaneous":
            return _pure_vote(dist)
        pairs = [("r", "r"), ("r", "b"), ("b", "r"), ("b", "b")]
        votes = set()
        for plan, weight in dist.items():
            if weight < 1e-6:
                continue
            votes.add(plan[pairs.index(("r", "b"))])
            votes.add(plan[pairs.index(("b", "r"))])
        return votes.pop() if len(votes) == 1 else "mixed"
    raise GameError(f"unsupported concept {concept!r} for voting")


# ---------------------------------------------------------------------------
# Learning from prices
# ---------------------------------------------------------------------------

def prices_predictions(concept: str = "wpce", g: int = 21,
                       treatments=("simultaneous", "sequential")) -> GoldenReport:
    """Cell-by-cell trade decisions for trader 2 across the price grid.

    The game is dominance-solvable: trader 1's cutoff play is optimal
    against anything, and trader 2 then best-responds to the unique cursed
    conjecture, which is the weak perfect prediction; no tremble limit is
    certified, so ``wpce`` is the only concept accepted.  Cells where the
    trader is exactly indifferent are reported as ties and exempted.
    Only payoffs depend on p1, so each treatment's tree, partition and
    trader 1's beliefs are built once and shared by its price cells.
    """
    if concept != "wpce":
        raise GameError(f"unsupported concept {concept!r} for the price game")
    report = GoldenReport("learning-from-prices", concept)
    grid = type_grid(g)
    skeletons = {t: prices_skeleton(g, t) for t in treatments}
    partitions = {t: coarsest_valid_partition(s) for t, s in skeletons.items()}
    beliefs = {t: _trader1_beliefs(s, g) for t, s in skeletons.items()}
    for p1 in price_grid(g):
        for treatment in treatments:
            tree = prices_cell(skeletons[treatment], g, p1)
            profile, sigma1 = _solve_prices(tree, partitions[treatment], g, beliefs[treatment])
            if treatment == "simultaneous":
                _classify_simultaneous(report, tree, profile, sigma1, g, p1, grid)
            else:
                _classify_sequential(report, tree, profile, sigma1, g, p1, grid)
    return report


def _trader1_beliefs(tree, g):
    """The full view of uniform play and trader 1's Bayes beliefs under it:
    no payoff enters them, so one walk serves every price cell."""
    full = BehaviorProfile.uniform(tree).full(tree)
    reach = node_reach(tree, full)
    return full, {f"T1:{i}": _bayes_belief(tree, reach, f"T1:{i}") for i in range(g)}


def _solve_prices(tree, partition, g, beliefs):
    """Two best-response sweeps: trader 1 first, against the Bayes belief
    under uniform play (chi = 0, ``beliefs`` from :func:`_trader1_beliefs`),
    then trader 2 against the cursed conjectures of trader 1's play (chi = 1).
    Each owner plays its response's plan at floor 0: uniform over the optimal
    actions."""
    eps = 1e-9
    profile = BehaviorProfile.uniform(tree)
    grid = type_grid(g)
    sigma1 = {}
    full, bayes = beliefs
    for i, t1 in enumerate(grid):
        iid = f"T1:{i}"
        profile.dists[iid] = respond(tree, iid, None, 0.0, bayes[iid], full).plan[iid]
        sigma1[t1] = profile.dists[iid]["buy"]

    floored = BehaviorProfile({i: {a: (1 - eps * len(d)) * pr + eps for a, pr in d.items()}
                               for i, d in profile.dists.items()})
    reach = node_reach(tree, floored.full(tree))
    for iid in tree.player_info_sets("T2"):
        conj = cursed_conjecture(tree, partition, floored, iid, reach=reach)
        profile.dists[iid] = respond(tree, iid, conj).plan[iid]
    return profile, sigma1


def _branch_probability(g, t2, a1, sigma1):
    """Probability of trader 1's action under trader 2's coarse conjecture."""
    p = 0.0
    for v in (1.0, 0.0):
        pv = t2 if v == 1.0 else 1.0 - t2
        for t1, w in type_weights(g, v == 1.0).items():
            buy = sigma1[t1]
            p += pv * w * (buy if a1 == "buy" else 1.0 - buy)
    return p


def _classify_simultaneous(report, tree, profile, sigma1, g, p1, grid):
    orders = price_grid(g)
    for j, t2 in enumerate(grid):
        dist = profile.dists[f"T2:{j}"]
        support = [k for k, name in enumerate(orders) if dist[f"o{k}"] > 1e-9]
        for a1 in ("buy", "sell"):
            p2 = snap_price((1 + p1) / 2 if a1 == "buy" else p1 / 2, g)
            if _branch_probability(g, t2, a1, sigma1) <= 1e-9:
                report.cells.append(CellResult(
                    {"p1": p1, "t2": round(t2, 4), "branch": a1},
                    "unconstrained", "unconstrained", True,
                    "branch unreached under the conjecture"))
                continue
            if abs(t2 - p2) <= 1e-9:
                report.cells.append(CellResult(
                    {"p1": p1, "t2": round(t2, 4), "branch": a1},
                    "tie", "tie", True, "indifferent"))
                continue
            decisions = {("buy" if p2 <= orders[k] + 1e-12 else "sell") for k in support}
            predicted = decisions.pop() if len(decisions) == 1 else "mixed"
            expected = "buy" if t2 > p2 else "sell"
            report.cells.append(CellResult(
                {"p1": p1, "t2": round(t2, 4), "branch": a1},
                predicted, expected, predicted == expected))


def _classify_sequential(report, tree, profile, sigma1, g, p1, grid):
    for j, t2 in enumerate(grid):
        for a1 in ("buy", "sell"):
            dist = profile.dists[f"T2:{j}:{a1}"]
            p2 = snap_price((1 + p1) / 2 if a1 == "buy" else p1 / 2, g)
            expected = _bayes_decision(g, t2, a1, p2, sigma1)
            if expected == "tie" or abs(dist["buy"] - 0.5) < 1e-9:
                match = expected == "tie"
                predicted = "tie" if abs(dist["buy"] - 0.5) < 1e-9 else _pure_vote(dist)
                report.cells.append(CellResult(
                    {"p1": p1, "t2": round(t2, 4), "observed": a1},
                    predicted, expected, match or expected == "tie", "indifferent"))
                continue
            predicted = "buy" if dist["buy"] > 0.5 else "sell"
            report.cells.append(CellResult(
                {"p1": p1, "t2": round(t2, 4), "observed": a1},
                predicted, expected, predicted == expected))


def _bayes_decision(g, t2, a1, p2, sigma1):
    """Posterior value of the asset given the type and trader 1's observed
    action, by direct enumeration over the discretized signal."""
    like = {}
    for v in (1.0, 0.0):
        w2 = type_weights(g, v == 1.0)
        pa = 0.0
        for t1, w in type_weights(g, v == 1.0).items():
            buy_prob = sigma1[t1]
            pa += w * (buy_prob if a1 == "buy" else 1.0 - buy_prob)
        like[v] = 0.5 * w2[t2] * pa
    total = like[1.0] + like[0.0]
    if total <= 0.0:
        # off-path observation: the vanishing uniform tremble carries no
        # information about the value, so the posterior is the type's own
        ev = t2
    else:
        ev = like[1.0] / total
    if abs(ev - p2) <= 1e-9:
        return "tie"
    return "buy" if ev > p2 else "sell"


# ---------------------------------------------------------------------------
# Two-stage auction
# ---------------------------------------------------------------------------

def _mean(values) -> Fraction:
    vals = list(values)
    return Fraction(sum(vals), len(vals))


def _round_pair(m: Fraction):
    """The admissible integer bids: the value itself if integral, else the
    two nearest integers."""
    if m.denominator == 1:
        return (int(m),)
    lo = m.numerator // m.denominator
    return (lo, lo + 1)


def _stage_payoff_believed(beta: int, b2: int, value: float) -> float:
    """Believed payoff of bidding beta against opponent bid b2 when the
    conjectured object value is independent of b2.  Ties count as losses:
    the believed tie event has no analogue in the symmetric equilibrium."""
    if beta > b2:
        return value - b2
    return 0.0


def _best_bids(support_b2, value, bids) -> set[int]:
    probs = 1.0 / len(support_b2)
    best, arg = None, set()
    for beta in bids:
        v = sum(_stage_payoff_believed(beta, b2, value) for b2 in support_b2) * probs
        if best is None or v > best + 1e-12:
            best, arg = v, {beta}
        elif v >= best - 1e-12:
            arg.add(beta)
    return arg


def two_stage_predictions(types=DEFAULT_TYPES, bid_lo: int = 0,
                          bid_hi: int = 120) -> GoldenReport:
    """Stage-one bids and stage-two revisions under the cursed conjectures.

    Stage one: bidding own type plus the unconditional mean opponent type is
    optimal against a bid distribution believed independent of types.
    Stage two: the revision equals own type plus the mean opponent type
    conditional on the revealed comparison, rounded to an admissible
    integer; upward after learning the own bid was not higher, downward
    (for positive types) after learning it was.
    """
    report = GoldenReport("two-stage-auction", "sce")
    types = tuple(sorted(types))
    bids = range(bid_lo, bid_hi + 1)
    mean_all = _mean(types)
    for t in types:
        stage1 = t + mean_all
        pair1 = _round_pair(stage1)
        arg = _best_bids([tp + int(mean_all) for tp in types], t + float(mean_all), bids)
        ok1 = all(b in arg for b in pair1)
        report.cells.append(CellResult(
            {"t": t, "stage": 1}, f"bid {pair1[0]}",
            f"t+{int(mean_all)} optimal", ok1 and stage1 == t + 30,
            f"argmax size {len(arg)}"))

        for side, cond in (("le", [tp for tp in types if tp >= t]),
                           ("gt", [tp for tp in types if tp < t])):
            if not cond:
                continue
            m = t + _mean(cond)
            pair = _round_pair(m)
            support_b2 = [tp + int(mean_all) for tp in cond]
            arg = _best_bids(support_b2, float(m), bids)
            chosen = tuple(sorted(set(pair) & arg))
            if side == "le":
                directional = bool(chosen) and min(chosen) >= t + int(mean_all) and (
                    t == 0 or min(chosen) > t + int(mean_all))
                want = "revise upward (strict for t>0)"
            else:
                directional = bool(chosen) and max(chosen) < t + int(mean_all)
                want = "revise downward"
            report.cells.append(CellResult(
                {"t": t, "stage": 2, "learned": side},
                f"revise to {chosen} (mean {float(m):.4f})", want,
                directional))
    return report


# ---------------------------------------------------------------------------
# Trading games (the comparison-table row)
# ---------------------------------------------------------------------------

def trading_predictions(concept: str = "sce",
                        config: SolverConfig | None = None) -> GoldenReport:
    """Trade or no trade per trading-game variant for the solved concept:
    SCE, which also answers WPCE because every SCE is a WPCE."""
    if concept not in ("sce", "wpce"):
        raise GameError(f"unsupported concept {concept!r} for the trading games")
    config = config or SolverConfig()
    report = GoldenReport("trading", concept)
    variants = {
        "simultaneous": ("trading-simultaneous", True),
        "sequential": ("sequential-trading", False),
        "fictitious-player": ("trading-fictitious", True),
    }
    for name, (game, expect_trade) in variants.items():
        tree = bundled_game(game)
        partition = coarsest_valid_partition(tree)
        res = solve_sce(tree, partition, config)
        mu = outcome_measure(tree, res.profile)
        trade_prob = sum(p for z, p in mu.probs.items()
                         if abs(tree.payoffs[z]["1"]) > 1e-9)
        traded = trade_prob > 1e-6
        report.cells.append(CellResult(
            {"variant": name}, "trade" if traded else "no-trade",
            "trade" if expect_trade else "no-trade",
            traded == expect_trade, f"P(trade)={trade_prob:.4f}"))
    return report


def run_golden_predictions(spec: ExperimentSpec) -> GoldenReport:
    """Dispatch an experiment specification to its harness."""
    p = spec.params
    if spec.kind == "voting":
        ps = [p["p"]] if "p" in p else VOTING_P
        qs = [p["q"]] if "q" in p else VOTING_Q
        return voting_predictions(spec.concept, ps, qs)
    if spec.kind == "learning-from-prices":
        treatments = ([p["treatment"]] if "treatment" in p
                      else ("simultaneous", "sequential"))
        return prices_predictions(spec.concept, p.get("G", 21), treatments)
    if spec.kind == "two-stage-auction":
        if spec.concept != "sce":
            raise GameError(f"unsupported concept {spec.concept!r} for the two-stage auction")
        return two_stage_predictions(p.get("types", DEFAULT_TYPES), p.get("bid_lo", 0),
                                     p.get("bid_hi", 120))
    if spec.kind in ("trading", "fictitious-player-trading"):
        return trading_predictions(spec.concept)
    raise GameError(f"no golden harness for {spec.kind!r}")
