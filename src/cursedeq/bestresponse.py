"""Local best responses against conjectures.

The single-agent problem: starting from a belief over one information set,
with everyone else (including nature) fixed by the conjecture, optimize the
owner's continuation plan by backward induction over the owner's own
information sets.  Replanning is allowed, so the continuation need not agree
with the owner's equilibrium strategy, and the plan is optimized per
information set (the owner cannot distinguish histories pooled together).
"""

from __future__ import annotations

from dataclasses import dataclass

from .conjectures import Conjecture, belief
from .partition import CoarsePartition
from .tree import GameTree, n_predecessor

TIE_TOL = 1e-9


@dataclass(frozen=True)
class Scenario:
    """One weighted world: initial node weights plus fixed distributions."""

    weight: float
    belief: dict[str, float]
    dists: dict[str, dict[str, float]]


@dataclass
class PlanResult:
    value: float
    action_values: dict[str, float]
    optimal_actions: tuple[str, ...]
    plan: dict[str, dict[str, float]]


def _floor_dist(actions, values, floor: float, tie_tol: float,
                incumbent: dict[str, float] | None = None) -> dict[str, float]:
    """Floor-constrained optimum: every action keeps the floor, the excess
    goes to the optimal set.  Ties keep the incumbent mixture renormalized
    over the optimal set; with no incumbent mass there, split uniformly."""
    best = max(values[a] for a in actions)
    opt = [a for a in actions if values[a] >= best - tie_tol]
    excess = 1.0 - floor * len(actions)
    if excess < 0:
        raise ValueError(f"floor {floor} too large for {len(actions)} actions")
    weights = {a: 0.0 for a in actions}
    inc_mass = sum(incumbent.get(a, 0.0) for a in opt) if incumbent else 0.0
    if incumbent and inc_mass > tie_tol:
        for a in opt:
            weights[a] = incumbent.get(a, 0.0) / inc_mass
    else:
        for a in opt:
            weights[a] = 1.0 / len(opt)
    return {a: floor + excess * weights[a] for a in actions}


def _plan_walk(tree: GameTree, player: str, roots):
    """The shape of :func:`optimize_plan`'s forward pass from the belief
    nodes ``roots`` (one tuple per scenario), compiled once per tree: the
    weight edges ``(child, parent, info set or None at own nodes, action,
    child is a root)`` of a stack walk from the roots that leads to own
    nodes, in pop order, and the own sets deepest first with their members."""
    entry = tree.compiled.get(("plan", player, roots))
    if entry is not None:
        return entry
    stack = [(si, h) for si, nodes in enumerate(roots) for h in nodes]
    seen, edges, parent, own_sets = set(stack), [], {}, {}
    while stack:
        si, n = key = stack.pop()
        own = tree.player_of.get(n) == player
        if own and tree.children[n]:
            own_sets.setdefault(tree.info_set_of[n], []).append(key)
        for a, child in tree.children[n].items():
            ck = (si, child)
            parent[ck] = key
            edges.append((ck, key, None if own else tree.info_set_of[n], a, ck in seen))
            if ck not in seen:
                seen.add(ck)
                stack.append(ck)
    needed = set()
    for key in (k for members in own_sets.values() for k in members):
        while key is not None and key not in needed:
            needed.add(key)
            key = parent.get(key)

    def own_depth(iid):
        d, p = 0, n_predecessor(tree, tree.info_sets[iid].nodes[0], player)
        while p is not None:
            d, p = d + 1, n_predecessor(tree, p, player)
        return d

    entry = ([e for e in edges if e[0] in needed],
             [(i, own_sets[i]) for i in sorted(own_sets, key=lambda i: (-own_depth(i), i))])
    tree.compiled[("plan", player, roots)] = entry
    return entry


def optimize_plan(tree: GameTree, owner: str, scenarios, player: str,
                  floor: float = 0.0, tie_tol: float = TIE_TOL,
                  forced: str | None = None) -> PlanResult:
    """Backward induction over the owner's compatible information sets.

    ``scenarios`` supplies one or more weighted worlds (for mixtures of
    conjectures); the plan is common across worlds.  With ``floor`` the plan
    respects the probability floor of the perturbed game.  ``forced`` pins
    the action taken at the owner set itself when evaluating per-action
    conjectures.
    """
    oset = tree.info_sets[owner]
    edges, own_sets = _plan_walk(tree, player, tuple(tuple(sc.belief) for sc in scenarios))
    weight = {}
    for si, sc in enumerate(scenarios):
        for h, p in sc.belief.items():
            weight[(si, h)] = sc.weight * p
    for ck, key, iid, a, add in edges:
        w = weight[key]
        if iid is not None:
            w *= scenarios[key[0]].dists.get(iid, {}).get(a, 0.0)
        weight[ck] = weight[ck] + w if add else w

    children, payoffs = tree.children, tree.payoffs
    plan: dict[str, dict[str, float]] = {}
    values: dict[tuple[int, str], float] = {}

    def node_value(si, n):
        kids = children[n]
        if not kids:
            return payoffs[n][player]
        key = (si, n)
        if key in values:
            return values[key]
        iid = tree.info_set_of[n]
        if tree.player_of[n] == player:
            dist = plan[iid]
        else:
            dist = scenarios[si].dists.get(iid, {})
        v = sum(p * node_value(si, kids[a]) for a, p in dist.items() if p != 0.0)
        values[key] = v
        return v

    q_owner = None
    for iid, members in own_sets:
        actions = tree.info_sets[iid].actions
        q = {a: sum(weight[(si, g)] * node_value(si, children[g][a])
                    for (si, g) in members)
             for a in actions}
        if iid == owner:
            q_owner = q
        if iid == owner and forced is not None:
            plan[iid] = {a: (1.0 if a == forced else 0.0) for a in actions}
        else:
            plan[iid] = _floor_dist(actions, q, floor, tie_tol)

    if q_owner is None:
        raise ValueError(f"owner set {owner!r} unreachable from its own belief")
    best = max(q_owner.values())
    opt = tuple(a for a in oset.actions if q_owner[a] >= best - tie_tol)
    value = sum(plan[owner][a] * q_owner[a] for a in oset.actions)
    return PlanResult(value, q_owner, opt, plan)


def respond(tree: GameTree, owner: str, conjecture: Conjecture | None, chi: float = 1.0,
            bayes: dict[str, float] | None = None, full=None, floor: float = 0.0,
            tie_tol: float = TIE_TOL, forced: str | None = None) -> PlanResult:
    """The owner's best response to a conjecture, weighted ``chi``, mixed
    with weight ``1 - chi`` with the Bayes belief ``bayes`` over the owner's
    nodes under the full profile ``full`` (chi = 1 is SCE, chi = 0 plain
    Bayes).  ``floor`` and ``forced`` are as in :func:`optimize_plan`."""
    scenarios = []
    if chi > 0.0:
        scenarios.append(Scenario(chi, belief(tree, conjecture).probs, conjecture.dists))
    if chi < 1.0:
        scenarios.append(Scenario(1.0 - chi, bayes, full))
    return optimize_plan(tree, owner, scenarios, tree.info_sets[owner].player,
                         floor=floor, tie_tol=tie_tol, forced=forced)


def local_best_response_value(tree: GameTree, partition: CoarsePartition,
                              conjecture: Conjecture, tie_tol: float = TIE_TOL):
    """Max value, optimal actions at the owner, and an optimal plan, for the
    single-agent problem defined by a conjecture."""
    res = respond(tree, conjecture.owner, conjecture, tie_tol=tie_tol)
    return max(res.action_values.values()), res.optimal_actions, res.plan


@dataclass(frozen=True)
class BestResponseIssue:
    info_set: str
    gap: float
    detail: str


@dataclass(frozen=True)
class BestResponseReport:
    gaps: dict[str, float]
    issues: tuple[BestResponseIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        if self.ok:
            return "local best response"
        return "\n".join(f"[{i.info_set}] gap {i.gap:.3g}: {i.detail}" for i in self.issues)


def check_local_best_response(tree: GameTree, partition: CoarsePartition,
                              profile, system, tol: float = 1e-6) -> BestResponseReport:
    """Pass iff at every information set the support of the played mixture
    lies inside the optimal action set of that set's conjecture."""
    gaps = {}
    issues = []
    for owner, conj in system.items():
        res = respond(tree, owner, conj, tie_tol=tol)
        best = max(res.action_values.values())
        support = [a for a, p in profile.dists[owner].items() if p > tol]
        gap = max((best - res.action_values[a]) for a in support) if support else 0.0
        gaps[owner] = gap
        if gap > tol:
            worst = max(support, key=lambda a: best - res.action_values[a])
            better = max(res.action_values, key=res.action_values.get)
            issues.append(BestResponseIssue(
                owner, gap,
                f"played {worst!r} (value {res.action_values[worst]:.6g}) but "
                f"{better!r} is worth {best:.6g}"))
    return BestResponseReport(gaps, tuple(issues))
