"""Local best responses against conjectures.

The single-agent problem: from a belief over one information set, with
everyone else (nature included) fixed by the conjecture, optimize the
owner's continuation plan by backward induction over its own information
sets.  Replanning is allowed, so the continuation need not agree with the
owner's equilibrium strategy; the plan is optimized per information set (the
owner cannot tell pooled histories apart).  The induction is a flat program
compiled once per tree; the owner's own plan is floored only when read.

Every verdict on a strategy is taken by two functions here, and nowhere else:
:func:`optimal` gives the positions of the values within a tolerance of the
best (the floored plans and the solver's stage steps), and
:func:`support_gaps` how far each strategy's played actions fall short of the
best (the solver's one verdict on every candidate, support enumeration's
included, and every certifier).  Only :func:`optimal`
takes a caller's tolerance: an action is played when its probability is
positive, and the plans break ties within the one ``TIE_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conjectures import Conjecture, belief
from .partition import CoarsePartition
from .tree import GameTree, n_predecessor

TIE_TOL = 1e-9


def optimal(values, tol: float) -> tuple:
    """The positions of the values within ``tol`` of the best, in order."""
    best = max(values) - tol
    return tuple([i for i, v in enumerate(values) if v >= best])


def support_gaps(values: dict, dists: dict) -> dict:
    """Per key of ``values``: how far the worst action that ``dists`` plays
    with positive probability falls short of the best value (0 when it plays
    none)."""
    gaps = {}
    for k, q in values.items():
        best = max(q.values())
        gaps[k] = max((best - q[a] for a, p in dists[k].items() if p > 0.0), default=0.0)
    return gaps


@dataclass(frozen=True)
class Scenario:
    """One weighted world: initial node weights plus fixed distributions."""

    weight: float
    belief: dict[str, float]
    dists: dict[str, dict[str, float]]


@dataclass
class PlanResult:
    """Action values at the owner and the plan of every own set; the optimal
    actions are taken when read, the owner's own plan (and ``value``) is
    floored when first read."""

    action_values: dict[str, float]
    _plan: dict[str, dict[str, float]]
    _owner: str
    _floor: float

    @property
    def optimal_actions(self) -> tuple[str, ...]:
        acts = list(self.action_values)
        return tuple([acts[i] for i in optimal(self.action_values.values(), TIE_TOL)])

    @property
    def plan(self) -> dict[str, dict[str, float]]:
        if self._owner not in self._plan:
            q = self.action_values
            self._plan[self._owner] = _floor_dist(tuple(q), q, self._floor)
        return self._plan

    @property
    def value(self) -> float:
        dist = self.plan[self._owner]
        return sum(dist[a] * q for a, q in self.action_values.items())


def _floor_dist(actions, values, floor: float,
                incumbent: dict[str, float] | None = None) -> dict[str, float]:
    """Floor-constrained optimum: every action keeps the floor, the excess
    goes to the optimal set.  Ties keep the incumbent mixture renormalized
    over the optimal set; with no incumbent mass there, split uniformly.
    ``values`` maps ``actions`` to their values, in that order."""
    opt = optimal(values.values(), TIE_TOL)
    excess = 1.0 - floor * len(actions)
    if excess < 0:
        raise ValueError(f"floor {floor} too large for {len(actions)} actions")
    weights = [0.0] * len(actions)
    mass = [incumbent.get(actions[i], 0.0) for i in opt] if incumbent else []
    inc_mass = sum(mass)
    if incumbent and inc_mass > TIE_TOL:
        for i, m in zip(opt, mass):
            weights[i] = m / inc_mass
    else:
        for i in opt:
            weights[i] = 1.0 / len(opt)
    return {a: floor + excess * w for a, w in zip(actions, weights)}


def _plan_walk(tree: GameTree, player: str, roots):
    """:func:`optimize_plan`'s passes from the belief nodes ``roots`` (one
    tuple per scenario), compiled once per tree and free of payoffs: the weight
    edges ``(child, parent, info set or None at own nodes, action, child is a
    root)`` of a stack walk from the roots to own nodes, in pop order; the own
    sets deepest first, each with the steps that evaluate, children first, the
    internal nodes below its members that no deeper set evaluates; and per
    scenario, the terminals read."""
    entry = tree.compiled.get(("plan", player, roots))
    if entry is not None:
        return entry
    children = tree.children
    stack = [(si, h) for si, nodes in enumerate(roots) for h in nodes]
    seen, edges, parent, own_sets = set(stack), [], {}, {}
    while stack:
        si, n = key = stack.pop()
        own = tree.player_of.get(n) == player
        if own and children[n]:
            own_sets.setdefault(tree.info_set_of[n], []).append(key)
        for a, child in children[n].items():
            if not children[child]:
                continue  # no own node below a terminal
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

    program, terminals = [], [[] for _ in roots]
    for iid in sorted(own_sets, key=lambda i: (-own_depth(i), i)):
        steps = []
        for si, g in own_sets[iid]:
            # a pre-order, reversed to put children first; below an own node
            # a deeper set has evaluated everything
            stack, order = list(children[g].values()), []
            while stack:
                n = stack.pop()
                order.append(n)
                if tree.player_of.get(n) != player:
                    stack.extend(children[n].values())
            steps += [(si, n, tree.info_set_of[n], tree.player_of[n] == player, children[n])
                      for n in reversed(order) if children[n]]
            terminals[si] += [n for n in order if not children[n]]
        program.append((iid, tree.info_sets[iid].actions, own_sets[iid], steps))
    entry = [e for e in edges if e[0] in needed], program, terminals
    tree.compiled[("plan", player, roots)] = entry
    return entry


def optimize_plan(tree: GameTree, owner: str, scenarios, player: str,
                  floor: float = 0.0, forced: str | None = None) -> PlanResult:
    """Backward induction over the owner's compatible information sets.

    ``scenarios`` supplies one or more weighted worlds (for mixtures of
    conjectures); the plan is common across worlds.  With ``floor`` the plan
    respects the probability floor of the perturbed game.  ``forced`` pins
    the action taken at the owner set itself when evaluating per-action
    conjectures.
    """
    edges, program, terminals = _plan_walk(tree, player,
                                           tuple(tuple(sc.belief) for sc in scenarios))
    weight = {(si, h): sc.weight * p
              for si, sc in enumerate(scenarios) for h, p in sc.belief.items()}
    for ck, key, iid, a, add in edges:
        w = weight[key]
        if iid is not None:
            w *= scenarios[key[0]].dists.get(iid, {}).get(a, 0.0)
        weight[ck] = weight[ck] + w if add else w

    children, payoffs = tree.children, tree.payoffs
    values = [{t: payoffs[t][player] for t in terms} for terms in terminals]
    plan, q_owner = {}, None
    for iid, actions, members, steps in program:
        for si, n, sid, own, kids in steps:
            v = values[si]
            dist = plan[sid] if own else scenarios[si].dists.get(sid, {})
            v[n] = sum(p * v[kids[a]] for a, p in dist.items() if p != 0.0)
        rows = [(weight[key], values[key[0]], children[key[1]]) for key in members]
        q = {a: sum(w * v[kids[a]] for w, v, kids in rows) for a in actions}
        q_owner = q if iid == owner else q_owner
        if iid == owner and forced is not None:
            plan[iid] = {a: (1.0 if a == forced else 0.0) for a in actions}
        elif iid != owner or owner != program[-1][0]:
            # no step reads the last set's plan: the owner's waits until read
            plan[iid] = _floor_dist(actions, q, floor)

    if q_owner is None:
        raise ValueError(f"owner set {owner!r} unreachable from its own belief")
    return PlanResult(q_owner, plan, owner, floor)


def respond(tree: GameTree, owner: str, conjecture: Conjecture | None, chi: float = 1.0,
            bayes: dict[str, float] | None = None, full=None, floor: float = 0.0,
            forced: str | None = None) -> PlanResult:
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
                         floor=floor, forced=forced)


def local_best_response_value(tree: GameTree, partition: CoarsePartition,
                              conjecture: Conjecture):
    """Max value, optimal actions at the owner, and an optimal plan, for the
    single-agent problem defined by a conjecture."""
    res = respond(tree, conjecture.owner, conjecture)
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
    """Pass iff at every information set each action played with positive
    probability falls short of the best under that set's conjecture by at
    most ``tol``."""
    values = {owner: respond(tree, owner, conj).action_values
              for owner, conj in system.items()}
    gaps = support_gaps(values, profile.dists)
    issues = []
    for owner, gap in gaps.items():
        if gap > tol:
            q = values[owner]
            better = max(q, key=q.get)
            # the first played action that falls short by the gap
            worst = next(a for a, p in profile.dists[owner].items()
                         if p > 0.0 and q[better] - q[a] == gap)
            issues.append(BestResponseIssue(
                owner, gap,
                f"played {worst!r} (value {q[worst]:.6g}) but "
                f"{better!r} is worth {q[better]:.6g}"))
    return BestResponseReport(gaps, tuple(issues))
