"""Conjectures: coarse beliefs about opponents attached to information sets.

A conjecture for an information set I is a profile of partial strategies
covering every information set compatible with I.  It is cursed-plausible
with a strategy profile when the owner's own part accords with their
strategy, opponent parts are coarse, and each opponent action probability
matches its empirical frequency conditional on jointly reaching I and the
opponent's coarse cell, whenever that event has positive probability.
Cursed-consistent conjectures arise as limits of the unique cursed-plausible
conjectures along a vanishing tremble path of fully mixed profiles.  The
path here is sigma_t = (1 - t) sigma + t uniform, and its limit is exact:
along it every node's reach is a polynomial in t with a positive lowest-order
coefficient, so reaches carried as leading terms (:class:`LeadingTerm`)
through the same conjecture code give each limiting frequency as a ratio of
leading coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partition import CoarsePartition, is_coarse
from .tree import (BehaviorProfile, GameError, GameTree, ZeroProbabilityError,
                   node_reach, own_action_toward)

CHECK_TOL = 1e-6


@dataclass
class Conjecture:
    """Partial-strategy profile attached to one information set."""

    owner: str
    dists: dict[str, dict[str, float]]


ConjectureSystem = dict  # owner info-set id -> Conjecture


@dataclass(frozen=True)
class Belief:
    """Distribution over the nodes of one information set."""

    info_set: str
    probs: dict[str, float]


def compatible(tree: GameTree, iid: str, jid: str) -> bool:
    """True iff some node of one set weakly precedes some node of the other."""
    a = tree.info_sets.get(iid)
    b = tree.info_sets.get(jid)
    if a is None or b is None:
        raise GameError(f"unknown info set {iid!r} or {jid!r}")
    if iid == jid:
        return True
    for h in a.nodes:
        for g in b.nodes:
            if tree.precedes(h, g) or tree.precedes(g, h):
                return True
    return False


def _owner_region(tree: GameTree, partition: CoarsePartition, owner: str):
    """What a conjecture at ``owner`` reads, compiled once per tree and
    partition: the subtree nodes read (mass = reach), the ancestor chain
    deepest first with each node's region children (mass = their sum), the
    touched info sets in rank order as ``(iid, cell, forced dist)``, and per
    cell its region nodes in partition order with their region children per
    action (outside nodes have mass 0, and a sum is the same without them)."""
    entry = tree.compiled.get(("conjecture", owner))
    if entry is not None and entry[0] is partition:
        return entry[1]
    oset = tree.info_sets[owner]
    below, stack = set(), list(oset.nodes)
    while stack:
        n = stack.pop()
        below.add(n)
        stack.extend(tree.children[n].values())
    depth = {}
    for h in oset.nodes:
        for a in tree.ancestors(h):
            if a in below or a in depth:
                break
            depth[a] = tree.depth(a)
    region = below.union(depth)
    chain = [(a, [c for c in tree.children[a].values() if c in region])
             for a in sorted(depth, key=depth.get, reverse=True)]
    sets, cells = [], {}
    for iid in sorted({tree.info_set_of[n] for n in region if tree.children[n]},
                      key=tree.info_set_rank.__getitem__):
        iset = tree.info_sets[iid]
        cid = None if iset.player == oset.player else partition.cell_of[iset.nodes[0]]
        forced = None if cid is not None or iid == owner else _forced_action(tree, iset, oset)
        fixed = None if forced is None else {a: float(a == forced) for a in iset.actions}
        sets.append((iid, cid, fixed))
        if cid is not None and cid not in cells:
            nodes = [g for g in partition.cells[cid] if g in region]
            cells[cid] = (nodes, {a: [c for g in nodes if (c := tree.children[g][a]) in region]
                                  for a in partition.actions[cid]})
    read = {c for _, kids in chain for c in kids}
    for nodes, kids in cells.values():
        read.update(nodes, *kids.values())
    geometry = (read & below, chain, sets, cells)
    tree.compiled[("conjecture", owner)] = (partition, geometry)
    return geometry


def _region_mass(sub, chain, reach) -> dict:
    """Mass of the region nodes a conjecture reads; a chain node sums its
    region children in ``tree.children`` order, as a whole-tree pass would."""
    mass = {n: reach[n] for n in sub}
    for a, kids in chain:
        mass[a] = sum(map(mass.__getitem__, kids))
    return mass


def _cell_freq(cells, mass, cid: str):
    """Action frequencies of coarse cell ``cid`` conditional on passing
    through the owner set, or None when that event has mass zero."""
    nodes, kids = cells[cid]
    denom = sum(map(mass.__getitem__, nodes))
    if denom <= 0.0:
        return None
    return {a: sum(map(mass.__getitem__, cs)) / denom for a, cs in kids.items()}


def cursed_conjecture(tree: GameTree, partition: CoarsePartition,
                      profile: BehaviorProfile, owner: str,
                      require_mixed: bool = True, reach=None) -> Conjecture:
    """The unique cursed-plausible conjecture at ``owner`` for a fully mixed
    profile: own play accords with the profile, every other participant's
    play at a compatible set equals the empirical action frequency of its
    coarse cell conditional on jointly reaching the owner set and the cell.

    ``require_mixed=False`` admits profiles with pure entries, as needed for
    per-action conjectures and limits; cells whose joint event then has
    probability zero simply drop out of the domain.  ``reach`` supplies the
    node reaches so that one tree walk serves every owner: floats from
    ``node_reach``, or the leading terms of :func:`limit_reach`, which give
    the limit conjecture along the tremble path of ``profile``.
    """
    if require_mixed and not profile.is_fully_mixed():
        raise GameError("cursed conjecture requires a fully mixed profile")
    if reach is None:
        reach = node_reach(tree, profile.full(tree))
    sub, chain, sets, cells = _owner_region(tree, partition, owner)
    mass = _region_mass(sub, chain, reach)
    cell_freq = {}
    dists = {}
    for iid, cid, fixed in sets:
        if cid is None:
            dists[iid] = dict(profile.dists[iid] if fixed is None else fixed)
            continue
        if cid not in cell_freq:
            cell_freq[cid] = _cell_freq(cells, mass, cid)
        if cell_freq[cid] is not None:
            dists[iid] = dict(cell_freq[cid])
    return Conjecture(owner, dists)


def _forced_action(tree: GameTree, iset, owner_set):
    """If ``iset`` precedes the owner's set, the unique action at ``iset``
    that keeps the owner's set reachable (perfect recall makes it unique)."""
    for h in owner_set.nodes:
        pred = h
        while True:
            pred = tree.parent[pred]
            if pred is None:
                break
            if tree.info_set_of.get(pred) == iset.id:
                return own_action_toward(tree, pred, h)
    return None


@dataclass(frozen=True)
class PlausibilityIssue:
    owner: str
    clause: int
    where: str
    detail: str


@dataclass(frozen=True)
class PlausibilityReport:
    issues: tuple[PlausibilityIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        if self.ok:
            return "cursed-plausible"
        return "\n".join(f"[{i.owner}] clause {i.clause} at {i.where}: {i.detail}"
                         for i in self.issues)


def check_cursed_plausible(tree: GameTree, partition: CoarsePartition,
                           profile: BehaviorProfile, system: ConjectureSystem,
                           tol: float = CHECK_TOL) -> PlausibilityReport:
    """Three-clause test of cursed plausibility for a whole system, read off
    :func:`cursed_conjecture` of the profile (one float reach per call).

    Clause 1: an own set must play as that conjecture does, the action
    toward the owner at an earlier own set and the profile elsewhere.
    Clause 2: an opponent set must play its coarse cell's frequency, looked
    up by cell, so a set outside the owner's region is checked too; it is
    only enforced where the joint event (owner set, coarse cell) has
    positive probability under the profile itself.  Clause 3: the opponent
    part must be coarse.  Each entry is matched within ``tol``.
    """
    issues = []
    reach = node_reach(tree, profile.full(tree))
    for owner, conj in system.items():
        player = tree.info_sets[owner].player
        ref = cursed_conjecture(tree, partition, profile, owner, False, reach).dists
        freq = {partition.cell_of[tree.info_sets[iid].nodes[0]]: d
                for iid, d in ref.items() if tree.info_sets[iid].player != player}
        for iid, dist in conj.dists.items():
            iset = tree.info_sets[iid]
            if iset.player == player:
                clause, label, want = 1, "own play", ref.get(iid, profile.dists[iid])
            else:
                clause, label, want = 2, "empirical", freq.get(partition.cell_of[iset.nodes[0]])
                if want is None:
                    continue
            for a in iset.actions:
                prob = dist.get(a, 0.0)
                if abs(prob - want[a]) > tol:
                    issues.append(PlausibilityIssue(
                        owner, clause, iid,
                        f"action {a!r} conjectured {prob:.6g}, {label} {want[a]:.6g}"))

        opponent = {iid: d for iid, d in conj.dists.items()
                    if tree.info_sets[iid].player != player}
        if not is_coarse(opponent, partition, tree, tol):
            issues.append(PlausibilityIssue(owner, 3, "-",
                                            "opponent partial strategy is not coarse"))
    return PlausibilityReport(tuple(issues))


def _upward_reach(tree: GameTree, dists, owner: str) -> dict[str, float]:
    """Probability of the path to each node of info set ``owner``: the
    product of the step probabilities along its ancestor chain, nearest
    first, read from ``(info set, action)`` paths compiled once per tree."""
    paths = tree.compiled.get(("paths", owner))
    if paths is None:
        paths = tree.compiled[("paths", owner)] = [
            (h, [(tree.info_set_of[p], tree.action_in[c])
                 for c, p in zip((h, *tree.ancestors(h)), tree.ancestors(h))])
            for h in tree.info_sets[owner].nodes]
    weights = {}
    for h, path in paths:
        prob = 1.0
        for iid, a in path:
            dist = dists.get(iid)
            prob = 0.0 if dist is None else prob * dist.get(a, 0.0)
            if prob == 0.0:
                break
        weights[h] = prob
    return weights


def belief(tree: GameTree, conjecture: Conjecture) -> Belief:
    """Bayes distribution over the owner's nodes implied by the conjecture."""
    weights = _upward_reach(tree, conjecture.dists, conjecture.owner)
    total = sum(weights.values())
    if total <= 0.0:
        raise ZeroProbabilityError(
            f"conjecture reaches {conjecture.owner!r} with probability 0")
    return Belief(conjecture.owner, {h: w / total for h, w in weights.items()})


class LeadingTerm:
    """The leading term c * t**k of a polynomial in t whose lowest-order
    coefficient is positive; c == 0 is the exact zero.

    Sums of such terms never cancel, so the leading term of a sum is the
    sum of the lowest-order terms, and a ratio of two of them has the
    limit c / c' at equal orders and 0 when the numerator's order is
    higher.  Plain numbers count as terms of order 0.
    """

    __slots__ = ("c", "k")

    def __init__(self, c: float, k: int = 0):
        self.c = c
        self.k = k

    def __mul__(self, other):
        if isinstance(other, LeadingTerm):
            return LeadingTerm(self.c * other.c, self.k + other.k)
        return LeadingTerm(self.c * other, self.k)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, LeadingTerm):
            other = LeadingTerm(other)
        if not other.c or (self.c and self.k < other.k):
            return self
        if not self.c or other.k < self.k:
            return other
        return LeadingTerm(self.c + other.c, self.k)

    __radd__ = __add__

    def __gt__(self, zero):
        return self.c > zero

    def __le__(self, zero):
        return self.c <= zero

    def __truediv__(self, other):
        """The limit of the ratio as t vanishes."""
        if not self.c or self.k > other.k:
            return 0.0
        if self.k < other.k:
            raise ZeroDivisionError("ratio diverges as the tremble vanishes")
        return self.c / other.c

    def __rtruediv__(self, zero):
        return LeadingTerm(zero) / self


def limit_dists(tree: GameTree, profile: BehaviorProfile, exact=()) -> dict:
    """Leading terms of each step probability (keyed as ``profile.full``)
    along the tremble path sigma_t = (1 - t) sigma + t uniform as t vanishes.

    An action keeps sigma(a) at order 0, or trembles to t / |A| at order 1
    when sigma(a) = 0.  Nature and the info sets in ``exact`` do not
    tremble, so their zeros stay exact.
    """
    dists = {iid: {a: LeadingTerm(p) for a, p in d.items()}
             for iid, d in tree.nature_dists().items()}
    for iid, d in profile.dists.items():
        tremble = LeadingTerm(0.0 if iid in exact else 1.0 / len(d), 1)
        dists[iid] = {a: LeadingTerm(p) if p > 0.0 else tremble for a, p in d.items()}
    return dists


def limit_reach(tree: GameTree, profile: BehaviorProfile, exact=()) -> dict:
    """Leading terms of every node's reach, walking :func:`limit_dists`."""
    return node_reach(tree, limit_dists(tree, profile, exact))


@dataclass
class LimitDiagnostics:
    owner_reach: dict[str, float]

    @property
    def ok(self) -> bool:
        return all(r > 0 for r in self.owner_reach.values())


def limit_diagnostics(tree: GameTree, system: ConjectureSystem) -> LimitDiagnostics:
    """Each owner set's reach under its own limit conjecture, which must be
    positive."""
    return LimitDiagnostics({o: sum(_upward_reach(tree, conj.dists, o).values())
                             for o, conj in system.items()})


def limit_conjecture_system(tree: GameTree, partition: CoarsePartition,
                            profile: BehaviorProfile, owners=None):
    """Exact limits of the cursed conjectures along the tremble path of
    ``profile``, from one walk of leading-term reaches, with their
    :func:`limit_diagnostics`.  The same path justifies every conjecture."""
    if owners is None:
        owners = tree.player_info_sets()
    reach = limit_reach(tree, profile)
    system = {o: cursed_conjecture(tree, partition, profile, o, require_mixed=False,
                                   reach=reach)
              for o in owners}
    return system, limit_diagnostics(tree, system)
