"""Coarsest valid partition of non-terminal histories.

A partition of the non-terminal histories is valid if it could serve as the
information-set collection of some perfect-recall game on the same tree.
There is a unique coarsest such partition; player strategies that are
measurable with respect to it are called coarse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tree import NATURE, GameError, GameTree, info_set_faults, n_predecessor, own_action_toward

COARSE_TOL = 1e-9


@dataclass(frozen=True)
class CoarsePartition:
    cells: dict[str, tuple[str, ...]]
    cell_of: dict[str, str]
    owner: dict[str, str]
    actions: dict[str, tuple[str, ...]]

    def __len__(self) -> int:
        return len(self.cells)


def _freeze(groups, tree):
    """Canonical cell ids: lexicographically smallest member node."""
    cells, cell_of, owner, actions = {}, {}, {}, {}
    for nodes in groups:
        nodes = tuple(sorted(nodes))
        cid = nodes[0]
        cells[cid] = nodes
        for n in nodes:
            cell_of[n] = cid
        owner[cid] = tree.player_of[nodes[0]]
        actions[cid] = tuple(sorted(tree.children[nodes[0]].keys()))
    ordered = dict(sorted(cells.items()))
    return CoarsePartition(ordered, cell_of, owner, actions)


def coarsest_valid_partition(tree: GameTree) -> CoarsePartition:
    """Layered induction per player; nature histories stay singleton.

    Layer 0 holds a player's first-move histories grouped by equal action
    label sets.  Layer l groups histories whose own predecessors share a
    layer l-1 cell and whose predecessor action agrees, refined by equal
    action label sets.
    """
    groups = []
    for n in tree.nodes:
        if not tree.is_terminal(n) and tree.player_of[n] == NATURE:
            groups.append((n,))

    for player in tree.players:
        own = [n for n in tree.nodes
               if not tree.is_terminal(n) and tree.player_of[n] == player]
        if not own:
            continue
        pred = {n: n_predecessor(tree, n, player) for n in own}
        layer = {}
        for n in sorted(own, key=tree.depth):
            layer[n] = 0 if pred[n] is None else layer[pred[n]] + 1
        cell_of = {}
        max_layer = max(layer.values())
        for l in range(max_layer + 1):
            here = [n for n in own if layer[n] == l]
            keyed = {}
            for n in here:
                labels = frozenset(tree.children[n].keys())
                if l == 0:
                    key = (labels,)
                else:
                    p = pred[n]
                    key = (labels, cell_of[p], own_action_toward(tree, p, n))
                keyed.setdefault(key, []).append(n)
            for members in keyed.values():
                members = tuple(sorted(members))
                groups.append(members)
                for n in members:
                    cell_of[n] = members

    return _freeze(groups, tree)


def f_of(partition: CoarsePartition, tree: GameTree, info_set_id: str) -> str:
    """The unique coarse cell containing the given information set."""
    iset = tree.info_sets.get(info_set_id)
    if iset is None:
        raise GameError(f"unknown info set {info_set_id!r}")
    cid = partition.cell_of[iset.nodes[0]]
    if any(partition.cell_of[n] != cid for n in iset.nodes):
        raise GameError(f"info set {info_set_id!r} straddles coarse cells")
    return cid


def is_coarse(dists: dict[str, dict[str, float]], partition: CoarsePartition,
              tree: GameTree, tol: float = COARSE_TOL) -> bool:
    """True iff sets within one coarse cell get equal distributions.

    ``dists`` maps info-set ids to action distributions; only the sets it
    mentions are constrained, so partial strategies can be tested directly.
    """
    by_cell = {}
    for iid, dist in dists.items():
        cid = f_of(partition, tree, iid)
        by_cell.setdefault(cid, []).append(dist)
    for entries in by_cell.values():
        first = entries[0]
        for other in entries[1:]:
            if set(other) != set(first):
                return False
            if any(abs(first[a] - other[a]) > tol for a in first):
                return False
    return True


def check_valid_partition(tree: GameTree, candidate) -> bool:
    """True iff the candidate cells define perfect-recall information sets.

    ``candidate`` is an iterable of node collections covering the
    non-terminal histories.
    """
    cells = [tuple(sorted(c)) for c in candidate]
    seen = set()
    for cell in cells:
        if not cell:
            return False
        for n in cell:
            if n in seen or n not in tree.parent or tree.is_terminal(n):
                return False
            seen.add(n)
    nonterminal = {n for n in tree.nodes if not tree.is_terminal(n)}
    if seen != nonterminal:
        return False

    cell_of = {n: cell for cell in cells for n in cell}
    return not any(info_set_faults(tree, cell[0], tree.player_of[cell[0]], cell, cell_of)
                   for cell in cells)
