"""Finite extensive-form games of perfect recall.

A game is a rooted tree of histories.  Non-terminal histories are assigned
either to a player or to nature; player histories are grouped into
information sets, nature histories carry a fully mixed distribution over
their outgoing actions, and terminal histories carry one utility per player.

All probability queries follow the terminal-successor convention: a set of
histories Q is identified with the set of terminal histories weakly
succeeding some member of Q.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

NATURE = "nature"

PROB_TOL = 1e-9


class GameError(ValueError):
    """Structural problem that prevents building or using a game."""


class ZeroProbabilityError(GameError):
    """Conditioning on an event of probability zero."""


class UncoveredInfoSetError(GameError):
    """A partial strategy is silent at an information set it must cover."""


@dataclass(frozen=True)
class InfoSet:
    id: str
    player: str
    nodes: tuple[str, ...]
    actions: tuple[str, ...]


@dataclass(frozen=True)
class Violation:
    rule: str
    nodes: tuple[str, ...]
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(f"{v.rule}: {v.detail} [{', '.join(v.nodes)}]" for v in self.violations)


class GameTree:
    """Immutable extensive game.  Build instances through :class:`GameBuilder`.

    ``compiled`` caches what other modules derive from the tree's shape, never
    from payoffs, so trees made by :meth:`with_payoffs` share it: reach walks,
    ancestor paths, conjecture regions, best-response walks and price keys,
    each built in tree order, never in set order."""

    def __init__(self, title, players, root, parent, action_in, children,
                 player_of, terminals, payoffs, nature_probs, info_sets, info_set_of):
        self.title = title
        self.players = tuple(players)
        self.root = root
        self.parent = parent
        self.action_in = action_in
        self.children = children
        self.player_of = player_of
        self.terminals = tuple(terminals)
        self.payoffs = payoffs
        self.nature_probs = nature_probs
        self.info_sets = info_sets
        self.info_set_of = info_set_of
        self.info_set_rank = {iid: k for k, iid in enumerate(info_sets)}
        self.nodes = self._topological_order()
        self._depth = {}
        d = self._depth
        d[self.root] = 0
        for n in self.nodes:
            if n != self.root:
                d[n] = d[self.parent[n]] + 1
        self.compiled = {}

    def with_payoffs(self, title: str, payoffs) -> "GameTree":
        """The same tree, sharing its structure and ``compiled``, with other
        terminal payoffs and another title."""
        tree = copy.copy(self)
        tree.title, tree.payoffs = title, payoffs
        return tree

    def _topological_order(self):
        order = []
        stack = [self.root]
        while stack:
            n = stack.pop()
            order.append(n)
            kids = self.children.get(n)
            if kids:
                stack.extend(reversed(list(kids.values())))
        return tuple(order)

    def is_terminal(self, node: str) -> bool:
        return node not in self.children or not self.children[node]

    def depth(self, node: str) -> int:
        return self._depth[node]

    def ancestors(self, node: str):
        """Strict ancestors of ``node``, nearest first."""
        p = self.parent[node]
        while p is not None:
            yield p
            p = self.parent[p]

    def precedes(self, a: str, b: str) -> bool:
        """True iff ``a`` strictly precedes ``b``."""
        if self._depth[a] >= self._depth[b]:
            return False
        p = b
        while self._depth[p] > self._depth[a]:
            p = self.parent[p]
        return p == a

    def terminal_closure(self, nodes) -> frozenset[str]:
        """Terminal histories weakly succeeding some member of ``nodes``."""
        seeds = set(nodes)
        out = set()
        stack = list(seeds)
        while stack:
            n = stack.pop()
            if self.is_terminal(n):
                out.add(n)
            else:
                stack.extend(self.children[n].values())
        return frozenset(out)

    def player_info_sets(self, player: str = None) -> list[str]:
        """Ids of info sets owned by ``player`` (all non-nature players if None)."""
        if player is None:
            return [i for i, s in self.info_sets.items() if s.player != NATURE]
        return [i for i, s in self.info_sets.items() if s.player == player]

    def nature_info_sets(self) -> list[str]:
        return [i for i, s in self.info_sets.items() if s.player == NATURE]

    def nature_dists(self) -> dict[str, dict[str, float]]:
        """Nature's fixed behavior keyed by nature info-set id."""
        out = {}
        for iid in self.nature_info_sets():
            node = self.info_sets[iid].nodes[0]
            out[iid] = dict(self.nature_probs[node])
        return out


class GameBuilder:
    """Incremental construction of a GameTree.

    Nodes must be added parents-first.  Player-node actions are implied by
    the insertion order of their children.  Player nodes not claimed by an
    explicit info_set call get singleton information sets; nature nodes
    always do.
    """

    def __init__(self, title: str, players):
        self.title = title
        self.players = tuple(players)
        self._root = None
        self._parent = {}
        self._action_in = {}
        self._children = {}
        self._player_of = {}
        self._terminals = []
        self._payoffs = {}
        self._nature = {}
        self._info_sets = []

    def _attach(self, node, parent, action):
        if node == "-" or action == "-":
            raise GameError("'-' is reserved in the document format")
        if node in self._parent:
            raise GameError(f"duplicate node id {node!r}")
        if parent is None:
            if self._root is not None:
                raise GameError("two roots")
            self._root = node
        else:
            if parent not in self._parent:
                raise GameError(f"unknown parent {parent!r} for node {node!r}")
            if parent in self._payoffs:
                raise GameError(f"terminal node {parent!r} cannot have children")
            if action in self._children[parent]:
                raise GameError(f"duplicate action {action!r} at {parent!r}")
            if parent in self._nature and action not in self._nature[parent]:
                raise GameError(f"action {action!r} missing from nature policy at {parent!r}")
            self._children[parent][action] = node
        self._parent[node] = parent
        self._action_in[node] = action
        self._children[node] = {}

    def chance(self, node, parent, action, dist):
        self._attach(node, parent, action)
        self._player_of[node] = NATURE
        self._nature[node] = {str(a): float(p) for a, p in dist.items()}
        return node

    def player(self, node, parent, action, owner):
        if owner not in self.players:
            raise GameError(f"unknown player {owner!r}")
        self._attach(node, parent, action)
        self._player_of[node] = owner
        return node

    def terminal(self, node, parent, action, payoffs):
        self._attach(node, parent, action)
        self._terminals.append(node)
        self._payoffs[node] = {str(k): float(v) for k, v in payoffs.items()}
        return node

    def info_set(self, iid, owner, nodes):
        self._info_sets.append((iid, owner, tuple(nodes)))

    def build(self) -> GameTree:
        if self._root is None:
            raise GameError("empty game")
        for n, kids in self._children.items():
            if not kids and n not in self._payoffs:
                raise GameError(f"non-terminal node {n!r} has no children")
        for n, dist in self._nature.items():
            missing = set(dist) - set(self._children[n])
            if missing:
                raise GameError(f"nature policy at {n!r} names absent actions {sorted(missing)}")

        info_sets = {}
        info_set_of = {}
        claimed = set()
        for iid, owner, nodes in self._info_sets:
            if iid in info_sets:
                raise GameError(f"duplicate info set id {iid!r}")
            for n in nodes:
                if n not in self._parent:
                    raise GameError(f"info set {iid!r} names unknown node {n!r}")
                if n in self._payoffs:
                    raise GameError(f"info set {iid!r} names terminal node {n!r}")
                if n in claimed:
                    raise GameError(f"node {n!r} appears in two info sets")
                claimed.add(n)
            actions = tuple(self._children[nodes[0]].keys())
            info_sets[iid] = InfoSet(iid, owner, tuple(nodes), actions)
            for n in nodes:
                info_set_of[n] = iid
        for n, p in self._player_of.items():
            if n in claimed:
                continue
            iid = f"is:{n}"
            info_sets[iid] = InfoSet(iid, p, (n,), tuple(self._children[n].keys()))
            info_set_of[n] = iid

        return GameTree(self.title, self.players, self._root, self._parent,
                        self._action_in, self._children, self._player_of,
                        self._terminals, self._payoffs, self._nature,
                        info_sets, info_set_of)


def n_predecessor(tree: GameTree, node: str, player: str) -> str | None:
    """Latest strict ancestor of ``node`` assigned to ``player``, if any."""
    if node not in tree.parent:
        raise GameError(f"unknown node {node!r}")
    for a in tree.ancestors(node):
        if tree.player_of.get(a) == player:
            return a
    return None


def own_action_toward(tree: GameTree, pred: str, node: str) -> str:
    """Action taken at ancestor ``pred`` on the path to ``node``."""
    child = node
    for a in [node] + list(tree.ancestors(node)):
        if tree.parent[a] == pred:
            child = a
            break
    else:
        raise GameError(f"{pred!r} is not an ancestor of {node!r}")
    return tree.action_in[child]


def info_set_faults(tree: GameTree, iid: str, player: str, nodes,
                    set_of) -> list[Violation]:
    """The per-set rules, for one information set (or candidate cell)
    ``nodes`` of ``player``: one player and one action-label set, nature
    sets are singletons, and perfect recall via n-predecessor chains (the
    owner's previous own nodes share a set, by ``set_of``, and an action)."""
    out = []
    players = {tree.player_of[n] for n in nodes}
    if len(players) > 1 or player not in players:
        out.append(Violation("action-labels", nodes,
                             f"info set {iid} mixes players {sorted(players)}"))
    else:
        if len({frozenset(tree.children[n]) for n in nodes}) > 1:
            out.append(Violation("action-labels", nodes,
                                 f"info set {iid} has unequal action sets"))
        if player == NATURE and len(nodes) > 1:
            out.append(Violation("nature-singleton", nodes,
                                 f"nature info set {iid} is not singleton"))
    if player != NATURE and len(nodes) > 1:
        keys = set()
        for n in nodes:
            pred = n_predecessor(tree, n, player)
            keys.add(None if pred is None else (set_of[pred], own_action_toward(tree, pred, n)))
        if len(keys) > 1:
            out.append(Violation("perfect-recall", nodes,
                                 f"info set {iid} pools distinct own histories"))
    return out


def validate_game(tree: GameTree) -> ValidationReport:
    """Check the full rule set; violations are data, not exceptions."""
    out = []

    for n in tree.nodes:
        if n == tree.root:
            continue
        p = tree.parent[n]
        if p is None or tree.children.get(p, {}).get(tree.action_in[n]) != n:
            out.append(Violation("tree-shape", (n,), "broken parent link"))

    for n in tree.terminals:
        missing = [pl for pl in tree.players if pl not in tree.payoffs.get(n, {})]
        if missing:
            out.append(Violation("payoff-missing", (n,),
                                 f"no payoff for players {missing}"))

    for n, dist in tree.nature_probs.items():
        total = sum(dist.values())
        if abs(total - 1.0) > PROB_TOL:
            out.append(Violation("probability-sum", (n,), f"nature policy sums to {total}"))
        if any(p <= 0 for p in dist.values()):
            out.append(Violation("probability-sum", (n,), "nature policy not fully mixed"))

    # every set's label findings come before the perfect-recall ones
    faults = [v for iid, iset in tree.info_sets.items()
              for v in info_set_faults(tree, iid, iset.player, iset.nodes, tree.info_set_of)]
    out.extend(sorted(faults, key=lambda v: v.rule == "perfect-recall"))
    return ValidationReport(tuple(out))


@dataclass
class BehaviorProfile:
    """Per-information-set action distributions for the regular players."""

    dists: dict[str, dict[str, float]]

    @classmethod
    def uniform(cls, tree: GameTree) -> "BehaviorProfile":
        d = {}
        for iid in tree.player_info_sets():
            acts = tree.info_sets[iid].actions
            d[iid] = {a: 1.0 / len(acts) for a in acts}
        return cls(d)

    @classmethod
    def pure(cls, tree: GameTree, choices: dict[str, str]) -> "BehaviorProfile":
        d = {}
        for iid in tree.player_info_sets():
            acts = tree.info_sets[iid].actions
            pick = choices[iid]
            d[iid] = {a: (1.0 if a == pick else 0.0) for a in acts}
        return cls(d)

    def copy(self) -> "BehaviorProfile":
        return BehaviorProfile({i: dict(d) for i, d in self.dists.items()})

    def full(self, tree: GameTree) -> dict[str, dict[str, float]]:
        """Joint view including nature, keyed by info-set id."""
        out = dict(tree.nature_dists())
        out.update(self.dists)
        return out

    def is_fully_mixed(self) -> bool:
        return all(p > 0 for d in self.dists.values() for p in d.values())


@dataclass(frozen=True)
class OutcomeMeasure:
    """Probability over terminal histories induced by a full profile."""

    tree: GameTree
    probs: dict[str, float]

    def of(self, nodes) -> float:
        closure = self.tree.terminal_closure(nodes)
        return sum(self.probs[z] for z in closure)

    def conditional(self, nodes, given) -> float:
        denom = self.of(given)
        if denom <= 0.0:
            raise ZeroProbabilityError("conditioning on a zero-probability event")
        num = sum(self.probs[z]
                  for z in self.tree.terminal_closure(nodes) & self.tree.terminal_closure(given))
        return num / denom

    def total(self) -> float:
        return sum(self.probs.values())


def _walk_below(tree: GameTree, dists, reach: dict, start: str) -> None:
    """Set ``reach`` of every node strictly below ``start`` from
    ``reach[start]``, along ``(node, info set, (action, child) pairs)`` in
    the pop order of a stack walk, compiled once per tree and start."""
    walk = tree.compiled.get(("reach", start))
    if walk is None:
        walk, stack = [], [start]
        while stack:
            kids = tree.children[n := stack.pop()]
            if kids:
                walk.append((n, tree.info_set_of[n], tuple(kids.items())))
                stack.extend(kids.values())
        tree.compiled[("reach", start)] = walk
    for n, iid, kids in walk:
        r = reach[n]
        dist = dists.get(iid)
        if dist is None:
            if r > 0.0:
                raise UncoveredInfoSetError(f"no distribution for info set {iid!r}")
            dist = {}
        for a, child in kids:
            reach[child] = r * dist.get(a, 0.0)


def node_reach(tree: GameTree, dists: dict[str, dict[str, float]],
               start: str = None) -> dict[str, float]:
    """Reach probability of every node weakly below ``start`` (root if None),
    keyed in stack-walk order, by a walk compiled on the tree.

    ``dists`` maps info-set ids to action distributions (players and nature
    alike).  The walk raises on a positive-probability node whose info set
    has no distribution; a zero-probability node without one passes mass 0
    to its children.
    """
    start = tree.root if start is None else start
    reach = {start: 1.0}
    _walk_below(tree, dists, reach, start)
    return reach


def reach_below(tree: GameTree, dists, base: dict, owner: str) -> dict:
    """``base``, the reaches of a walk from the root, with the nodes below
    info set ``owner`` walked again under ``dists`` from their stored
    reaches.  A reach is its path's product in path order, so when ``dists``
    differs from ``base``'s steps only at ``owner`` this is their whole walk."""
    reach = dict(base)
    for h in tree.info_sets[owner].nodes:
        _walk_below(tree, dists, reach, h)
    return reach


def outcome_measure(tree: GameTree, profile: BehaviorProfile) -> OutcomeMeasure:
    reach = node_reach(tree, profile.full(tree))
    return OutcomeMeasure(tree, {z: reach[z] for z in tree.terminals})


def reach_probability(tree: GameTree, profile: BehaviorProfile, nodes,
                      given=None) -> float:
    """mu[sigma](Q), or mu[sigma](Q | Q') when ``given`` is supplied."""
    mu = outcome_measure(tree, profile)
    if given is None:
        return mu.of(nodes)
    return mu.conditional(nodes, given)


def expected_utility(tree: GameTree, profile: BehaviorProfile, player: str) -> float:
    mu = outcome_measure(tree, profile)
    return sum(p * tree.payoffs[z][player] for z, p in mu.probs.items())


def continuation_utility(tree: GameTree, dists: dict[str, dict[str, float]],
                         start: str, player: str) -> float:
    """Expected payoff of the subtree rooted at ``start`` under ``dists``.

    ``dists`` must cover every information set hit with positive probability
    below ``start`` (players and nature); an uncovered reachable set raises.
    """
    if start not in tree.parent:
        raise GameError(f"unknown node {start!r}")
    reach = node_reach(tree, dists, start=start)
    total = 0.0
    for n, r in reach.items():
        if r > 0.0 and tree.is_terminal(n):
            total += r * tree.payoffs[n][player]
    return total
