"""Text formats: game documents, signal models, profiles and assessments.

The game document is line-oriented UTF-8.  Header, then node records in
tree order, then information-set records:

    cursedgame 1 "title"
    players 1 2
    node <id> - - nature w1:1/3 w2:2/3
    node <id> <parent> <action> player <player>
    node <id> <parent> <action> terminal 3 -3
    infoset <id> <player> <node> [<node> ...]
    end

Probabilities and payoffs accept decimals or fractions p/q.  The canonical
form orders nodes breadth-first, prefers exact fractions, and lists every
player-owned information set; parse then serialize is the identity on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .games import ExperimentSpec
from .tree import NATURE, PROB_TOL, BehaviorProfile, GameBuilder, GameTree


class ParseError(ValueError):
    def __init__(self, line: int, column: int, rule: str, message: str):
        super().__init__(f"line {line}, column {column}: {rule}: {message}")
        self.line = line
        self.column = column
        self.rule = rule


def _tokens(line: str):
    """Split on whitespace, keeping double-quoted strings whole."""
    out, cur, quote = [], "", False
    col = 1
    starts = []
    for i, ch in enumerate(line):
        if ch == '"':
            quote = not quote
            cur += ch
        elif ch.isspace() and not quote:
            if cur:
                out.append(cur)
                starts.append(col)
                cur = ""
            col = i + 2
        else:
            cur += ch
    if cur:
        out.append(cur)
        starts.append(col)
    return out, starts


def parse_number(tok: str, lineno: int, col: int) -> float:
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            return float(Fraction(int(num), int(den)))
        return float(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, col, "number", f"cannot parse {tok!r}") from None


def format_number(x: float) -> str:
    """Exact small fraction when one exists, else the shortest repr."""
    frac = Fraction(x).limit_denominator(10_000)
    if float(frac) == x:
        if frac.denominator == 1:
            return str(frac.numerator)
        return f"{frac.numerator}/{frac.denominator}"
    return repr(x)


def parse_game(text: str) -> GameTree:
    lines = text.split("\n")
    builder = None
    infosets = []
    players = None
    saw_end = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if saw_end:
            raise ParseError(lineno, 1, "structure", "content after end")
        toks, cols = _tokens(line)
        kind = toks[0]
        if builder is None:
            if kind != "cursedgame":
                raise ParseError(lineno, 1, "header", "expected 'cursedgame <version> \"title\"'")
            if len(toks) < 3 or toks[1] != "1":
                raise ParseError(lineno, cols[min(1, len(cols) - 1)], "header",
                                 "unsupported version")
            title = toks[2].strip('"')
            builder = ("pending", title)
            continue
        if kind == "players":
            if players is not None:
                raise ParseError(lineno, 1, "structure", "duplicate players line")
            players = toks[1:]
            if not players:
                raise ParseError(lineno, 1, "structure", "no players listed")
            builder = GameBuilder(builder[1], players)
            continue
        if players is None:
            raise ParseError(lineno, 1, "structure", "players line must precede records")
        if kind == "node":
            if len(toks) < 5:
                raise ParseError(lineno, 1, "node", "too few fields")
            nid, parent, action, role = toks[1], toks[2], toks[3], toks[4]
            parent = None if parent == "-" else parent
            action = None if action == "-" else action
            if (parent is None) != (action is None):
                raise ParseError(lineno, cols[2], "node",
                                 "the root takes '- -', other nodes need parent and action")
            try:
                if role == "nature":
                    dist = {}
                    for tok, col in zip(toks[5:], cols[5:]):
                        if ":" not in tok:
                            raise ParseError(lineno, col, "node",
                                             f"nature entry {tok!r} is not action:prob")
                        a, p = tok.split(":", 1)
                        dist[a] = parse_number(p, lineno, col)
                    if not dist:
                        raise ParseError(lineno, cols[4], "node", "nature node without policy")
                    builder.chance(nid, parent, action, dist)
                elif role == "player":
                    if len(toks) != 6:
                        raise ParseError(lineno, cols[4], "node",
                                         "player node needs exactly one owner")
                    builder.player(nid, parent, action, toks[5])
                elif role == "terminal":
                    payoffs = toks[5:]
                    if len(payoffs) != len(players):
                        raise ParseError(lineno, cols[4], "node",
                                         f"expected {len(players)} payoffs, got {len(payoffs)}")
                    builder.terminal(nid, parent, action,
                                     {pl: parse_number(v, lineno, c)
                                      for pl, v, c in zip(players, payoffs, cols[5:])})
                else:
                    raise ParseError(lineno, cols[4], "node", f"unknown role {role!r}")
            except ParseError:
                raise
            except ValueError as exc:
                raise ParseError(lineno, 1, "node", str(exc)) from exc
        elif kind == "infoset":
            if len(toks) < 4:
                raise ParseError(lineno, 1, "infoset", "too few fields")
            infosets.append((toks[1], toks[2], toks[3:]))
        elif kind == "end":
            saw_end = True
        else:
            raise ParseError(lineno, 1, "structure", f"unknown record {kind!r}")
    if builder is None:
        raise ParseError(1, 1, "header", "empty document")
    if isinstance(builder, tuple):
        raise ParseError(len(lines), 1, "structure", "missing players line")
    for iid, owner, nodes in infosets:
        builder.info_set(iid, owner, nodes)
    try:
        return builder.build()
    except Exception as exc:
        raise ParseError(len(lines), 1, "structure", str(exc)) from exc


def serialize_game(tree: GameTree) -> str:
    """Canonical text: breadth-first nodes, exact fractions, every
    player-owned information set listed, LF line endings."""
    lines = [f'cursedgame 1 "{tree.title}"',
             "players " + " ".join(tree.players)]
    order = []
    queue = [tree.root]
    while queue:
        n = queue.pop(0)
        order.append(n)
        if not tree.is_terminal(n):
            queue.extend(tree.children[n].values())
    for n in order:
        parent = tree.parent[n]
        ptok = "-" if parent is None else parent
        atok = "-" if parent is None else tree.action_in[n]
        if tree.is_terminal(n):
            pay = " ".join(format_number(tree.payoffs[n][pl]) for pl in tree.players)
            lines.append(f"node {n} {ptok} {atok} terminal {pay}")
        elif tree.player_of[n] == NATURE:
            dist = " ".join(f"{a}:{format_number(p)}"
                            for a, p in tree.nature_probs[n].items())
            lines.append(f"node {n} {ptok} {atok} nature {dist}")
        else:
            lines.append(f"node {n} {ptok} {atok} player {tree.player_of[n]}")
    for iid in sorted(i for i in tree.player_info_sets()):
        iset = tree.info_sets[iid]
        lines.append(f"infoset {iid} {iset.player} " + " ".join(sorted(iset.nodes)))
    lines.append("end")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Profiles and assessments
# ---------------------------------------------------------------------------

def _distribution(toks, cols, lineno: int, rule: str, actions) -> dict[str, float]:
    """The ``a:p`` entries of one line as a distribution over ``actions``;
    omitted actions get 0 and the entries must sum to 1."""
    dist = dict.fromkeys(actions, 0.0)
    for tok, col in zip(toks, cols):
        a, sep, p = tok.partition(":")
        if not sep:
            raise ParseError(lineno, col, rule, f"entry {tok!r} is not action:prob")
        if a not in dist:
            raise ParseError(lineno, col, rule, f"unknown action {a!r}")
        dist[a] = parse_number(p, lineno, col)
        if dist[a] < 0.0:
            raise ParseError(lineno, col, rule, f"negative probability in {tok!r}")
    total = sum(dist.values())
    if abs(total - 1.0) > PROB_TOL:
        raise ParseError(lineno, 1, rule, f"probabilities sum to {total:.6g}, not 1")
    return dist


def _info_set(tok: str, col: int, lineno: int, rule: str, known) -> str:
    if tok not in known:
        raise ParseError(lineno, col, rule, f"unknown info set {tok!r}")
    return tok


def parse_profile_lines(lines, tree: GameTree, start_line: int = 1) -> BehaviorProfile:
    profile = BehaviorProfile.uniform(tree)
    for lineno, raw in enumerate(lines, start=start_line):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks, cols = _tokens(line)
        if toks[0] != "play":
            raise ParseError(lineno, 1, "profile", f"expected 'play', got {toks[0]!r}")
        if len(toks) < 2:
            raise ParseError(lineno, 1, "profile", "expected 'play <infoset> a:p ...'")
        iid = _info_set(toks[1], cols[1], lineno, "profile", profile.dists)
        profile.dists[iid] = _distribution(toks[2:], cols[2:], lineno, "profile",
                                           tree.info_sets[iid].actions)
    return profile


@dataclass
class AssessmentDocument:
    """Parsed check input: a profile plus optional explicit conjectures.

    Conjecture lines have the form
    ``conjecture <owner-infoset> <infoset> a:p b:q`` and override the
    tremble-path defaults at that owner for that set.  The entries of a
    ``play`` or ``conjecture`` line must sum to 1; omitted actions get 0.
    """

    profile: BehaviorProfile
    overrides: dict  # owner -> {info set -> dist}


def parse_assessment(text: str, tree: GameTree) -> AssessmentDocument:
    lines = text.split("\n")
    play_lines = [""] * len(lines)  # keeps each play line at its line number
    overrides = {}
    owners = tree.player_info_sets()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks, cols = _tokens(line)
        if toks[0] == "play":
            play_lines[lineno - 1] = line
            continue
        if toks[0] != "conjecture":
            raise ParseError(lineno, 1, "assessment", f"unknown record {toks[0]!r}")
        if len(toks) < 4:
            raise ParseError(lineno, 1, "conjecture", "too few fields")
        owner = _info_set(toks[1], cols[1], lineno, "conjecture", owners)
        iid = _info_set(toks[2], cols[2], lineno, "conjecture", tree.info_sets)
        overrides.setdefault(owner, {})[iid] = _distribution(
            toks[3:], cols[3:], lineno, "conjecture", tree.info_sets[iid].actions)
    return AssessmentDocument(parse_profile_lines(play_lines, tree), overrides)


def serialize_profile(profile: BehaviorProfile) -> str:
    lines = []
    for iid in sorted(profile.dists):
        entries = " ".join(f"{a}:{format_number(p)}"
                           for a, p in profile.dists[iid].items())
        lines.append(f"play {iid} {entries}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Signal-model and experiment files
# ---------------------------------------------------------------------------

def parse_model(text: str):
    """Key-value model file: family wallet|mean-value, bidders <n>."""
    from .auctions import mean_value_model, wallet_model
    fields, where = _key_values(text, "signalmodel", ("family", "bidders"))
    family = fields.get("family", "wallet")
    bidders = fields.get("bidders", "2")
    if not bidders.isdecimal() or int(bidders) < 2:
        raise ParseError(*where["bidders"], "model",
                         f"bidders must be an integer of at least 2, got {bidders!r}")
    bidders = int(bidders)
    if family == "wallet":
        return wallet_model(bidders)
    if family == "mean-value":
        return mean_value_model(bidders)
    raise ParseError(*where["family"], "model", f"unknown family {family!r}")


def _integers(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


# typed experiment parameters, as (conversion, what the value must be); the
# one other parameter, treatment, stays a string
_INTEGER, _NUMBER = (int, "an integer"), (float, "a number")
EXPERIMENT_PARAMS = {"G": _INTEGER, "bid_lo": _INTEGER, "bid_hi": _INTEGER, "p": _NUMBER,
                     "q": _NUMBER, "p1": _NUMBER, "types": (_integers, "comma-separated integers")}


def parse_experiment(text: str) -> ExperimentSpec:
    fields, where = _key_values(text, "experiment",
                                ("kind", "concept", "treatment", *EXPERIMENT_PARAMS))
    kind = fields.pop("kind", None)
    if kind is None:
        raise ParseError(*where["kind"], "experiment", "missing 'kind'")
    concept = fields.pop("concept", "sce")
    params = {}
    for key, value in fields.items():
        convert, what = EXPERIMENT_PARAMS.get(key, (str, ""))
        try:
            params[key] = convert(value)
        except ValueError:
            raise ParseError(*where[key], "experiment",
                             f"{key} must be {what}, got {value!r}") from None
    return ExperimentSpec(kind, concept, params)


def _key_values(text: str, expected_header: str, keys):
    """The ``key value`` fields of a file and the (line, column) of each
    value; a key not in ``keys`` is an error at its line.  The header's
    second token, if any, is the ``kind`` field, which is placed at the
    header line either way."""
    fields, where = {}, {}
    saw_header = False
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks, cols = _tokens(line)
        if not saw_header:
            if toks[0] != expected_header:
                raise ParseError(lineno, 1, "header", f"expected {expected_header!r}")
            saw_header = True
            where["kind"] = (lineno, cols[1] if len(toks) > 1 else 1)
            if len(toks) > 1:
                fields["kind"] = toks[1]
            continue
        if len(toks) < 2:
            raise ParseError(lineno, 1, "field", "expected 'key value'")
        if toks[0] not in keys:
            raise ParseError(lineno, 1, "field", f"unknown key {toks[0]!r}")
        fields[toks[0]] = " ".join(toks[1:])
        where[toks[0]] = (lineno, cols[1])
    if not saw_header:
        raise ParseError(1, 1, "header", "empty document")
    return fields, where
