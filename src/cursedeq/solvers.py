"""Equilibrium computation for the cursedness family of concepts.

The driver follows the existence construction: a probability-floor homotopy
whose stages are approximate fixed points of the floor-constrained cursed
best-response map, found by damped simultaneous iteration from the uniform
start on one flat list of floats.  The schedule is fixed: floors from
``EPS_START`` halved (``EPS_DECAY``) down to ``EPS_FLOOR``, each stage at
most ``MAX_ITERS`` steps of weight ``DAMPING`` that stop within ``FP_TOL``
or skip to the end of an exact cycle, and ties are within
``bestresponse.TIE_TOL``; a step writes a unique optimum's floor row, built
once per stage.  ``SolverConfig`` sets only the verdict's tolerance
``gap_tol`` and the seed that labels the result.  After every stage the
solver strips the floor-level mass from the stage's last iterate (nothing is
averaged), polishes it and certifies local best responses under the limit
conjectures; it returns at the first stage whose candidate passes, and
otherwise tries support enumeration once: smallest supports first, at most
``ENUMERATION_BUDGET`` (2,187) combinations with the Newton root or
``LINEAR_ENUMERATION_BUDGET`` (20,000) with the linear one.  Stage
candidates and enumeration combinations (uniform on their supports) share
one polish, which roots the exact indifference conditions of the limit
values on the support (by a Newton-type root finder, or one linear solve
for two-player static games) within one tolerance, ``ROOT_TOL``, and one
verdict.  A result depends on the game alone.

The driver reads two oracles: a stage oracle gives the action values at a
floor straight from the flat iterate (one value list per free key), and a
limit oracle gives the limit values of strategy dicts with a soundness flag
and a payload (the conjecture system) for the polish, support enumeration
and the verdict.  Which actions are optimal in a stage step is decided by
``bestresponse.optimal``, and how far a candidate's support falls short by
``bestresponse.support_gaps`` alone.

One function, :func:`_values`, gives the action values at a floor stage and
in the limit alike: each owner's best response comes from
``bestresponse.respond`` against its cursed conjecture (mixed with the Bayes
belief for chi-SCE; per forced action for causal SCE), and only the node
reaches differ.  A stage (a positive floor) walks float steps; the limit
(floor 0) walks the leading terms of ``conjectures.limit_dists``, which take
conjectures and beliefs along the tremble path (1 - t) sigma + t uniform
exactly to t -> 0.
The tree stage oracle builds its profile from the iterate's slots.  The
same driver solves static CE/ICE (``bayesian``) with its own oracles; for
two players its stage oracle is one linear map of the iterate.  The Newton
polish of the tree concepts and of static games with three or more players
is Powell's hybrid method as MINPACK computes it (:func:`_hybrid_root`), so
the package needs numpy alone.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import InitVar, dataclass

import numpy as np

from .bestresponse import (TIE_TOL, _floor_dist, check_local_best_response, optimal,
                           respond, support_gaps)
from .conjectures import (check_cursed_plausible, cursed_conjecture, limit_diagnostics,
                          limit_dists)
from .games import ComputerPlayerSet
from .partition import CoarsePartition
from .tree import BehaviorProfile, GameError, GameTree, node_reach, reach_below


class NonConvergenceError(GameError):
    """No stage verdict and no support enumeration passed; carries the best gap."""

    def __init__(self, message, best_gap=None, gaps=None):
        super().__init__(message)
        self.best_gap = best_gap
        self.gaps = gaps or {}


# the floor schedule, as the module docstring describes it
EPS_START = 0.1
EPS_DECAY = 0.5
EPS_FLOOR = 1e-8
DAMPING = 0.5
FP_TOL = 1e-9
MAX_ITERS = 80
# the largest indifference residual of a support root that the polish keeps
ROOT_TOL = 1e-7


@dataclass
class SolverConfig:
    """The verdict's tolerance and a seed that only labels the result; a solve
    runs one start, so the compatibility keyword ``restarts`` accepts only 0."""
    gap_tol: float = 1e-8
    seed: int = 0
    restarts: InitVar[int] = 0

    def __post_init__(self, restarts):
        if not 0 < self.gap_tol < math.inf:
            raise GameError("tolerances must be positive and finite")
        if restarts != 0:
            raise GameError(f"a solve runs one start: restarts must be 0, got {restarts}")


def _schedule(max_actions: int):
    """Geometric floor schedule; the start shrinks if some information set
    has too many actions for the floor to be feasible."""
    eps = min(EPS_START, 0.5 / max_actions)
    out = []
    while eps > EPS_FLOOR:
        out.append(eps)
        eps *= EPS_DECAY
    out.append(EPS_FLOOR)
    return out


@dataclass
class EquilibriumResult:
    concept: str
    profile: BehaviorProfile
    conjectures: dict
    gaps: dict[str, float]
    iterations: int
    seed: int

    @property
    def max_gap(self) -> float:
        return max(self.gaps.values(), default=0.0)

    def to_text(self) -> str:
        """Canonical rendering; the same game gives the same bytes, apart from
        the ``seed`` line, which only labels the solve."""
        lines = [f"concept {self.concept}", f"seed {self.seed}", f"max_gap {self.max_gap!r}"]
        for iid in sorted(self.profile.dists):
            entries = " ".join(f"{a}:{p!r}" for a, p in self.profile.dists[iid].items())
            lines.append(f"play {iid} {entries}")
        for key in sorted(self.conjectures, key=str):
            conj = self.conjectures[key]
            for iid in sorted(conj.dists):
                entries = " ".join(f"{a}:{p!r}" for a, p in conj.dists[iid].items())
                lines.append(f"conjecture {key} {iid} {entries}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Action values: one responder per owner, at a floor stage or in the limit
# ---------------------------------------------------------------------------

def _bayes_belief(tree, reach, owner):
    """Bayes distribution over the owner's nodes from the node reaches
    (floats, or leading terms for the limit)."""
    nodes = tree.info_sets[owner].nodes
    total = sum(reach[h] for h in nodes)
    if total <= 0.0:
        raise GameError(f"info set {owner!r} unreachable under the profile")
    return {h: reach[h] / total for h in nodes}


def _values(tree, partition, profile, owners, concept, chi, floor):
    """Action values and conjectures of ``owners`` under ``profile``.

    A floor stage (``floor > 0``) walks the profile's float steps, the limit
    (``floor == 0``) the leading terms of ``limit_dists``.  The profile's one
    reach serves SCE and chi-SCE, which value each owner against its cursed
    conjecture, mixed with the Bayes belief for chi < 1.  Causal SCE values
    each action under the conjecture of the profile modified to play it
    surely (untrembled in the limit), whose reach re-walks only below the
    owner; those are keyed by (owner, action).
    """
    q, conjs = {}, {}
    reach = node_reach(tree, profile.full(tree) if floor else limit_dists(tree, profile))
    if concept == "causal-sce":
        for o in owners:
            q[o] = {}
            for a in tree.info_sets[o].actions:
                forced = BehaviorProfile({**profile.dists,
                                          o: {b: float(b == a) for b in profile.dists[o]}})
                steps = forced.full(tree) if floor else limit_dists(tree, forced, (o,))
                below = reach_below(tree, steps, reach, o)
                conj = cursed_conjecture(tree, partition, forced, o, False, below)
                conjs[(o, a)] = conj
                q[o][a] = respond(tree, o, conj, floor=floor, forced=a).action_values[a]
        return q, conjs
    full = profile.full(tree) if chi < 1.0 else None
    for o in owners:
        # at chi = 0 only the limit reads the conjecture, to report it
        conjs[o] = conj = cursed_conjecture(tree, partition, profile, o, require_mixed=False,
                                            reach=reach) if chi > 0.0 or not floor else None
        bayes = _bayes_belief(tree, reach, o) if chi < 1.0 else None
        q[o] = respond(tree, o, conj, chi, bayes, full, floor).action_values
    return q, conjs


class LimitOracle:
    """Q values, conjectures and diagnostics in the vanishing-tremble limit.

    Every limit is exact and taken along one tremble path of the candidate
    profile, so the same path justifies every conjecture in the reported
    system.  Causal SCE evaluates each owner action under the limit
    conjecture of the profile that plays it surely, untrembled, and has no
    diagnostics (None).  A ``chi`` outside [0, 1] raises, for every concept.
    """

    def __init__(self, tree, partition, concept, chi):
        if not 0.0 <= chi <= 1.0:
            raise GameError("chi must lie in [0, 1]")
        self.tree = tree
        self.partition = partition
        self.concept = concept
        self.chi = chi if concept == "chi-sce" else 1.0

    def artifacts(self, profile, owners):
        q, conjs = _values(self.tree, self.partition, profile, owners, self.concept, self.chi, 0.0)
        diag = None if self.concept == "causal-sce" else limit_diagnostics(self.tree, conjs)
        return q, conjs, diag


# ---------------------------------------------------------------------------
# The homotopy driver, shared by the tree concepts and static CE/ICE
# ---------------------------------------------------------------------------

def _homotopy(concept, config, keys, actions_of, frozen, free, q_stage, q_limit, affine=None):
    """Floor homotopy over strategies ``{key: {action: probability}}``.

    ``keys`` lists every strategy key; ``frozen`` fixes the strategy at some
    keys and ``free`` lists the others, which start uniform.
    Two oracles give action values.  A stage iterate is one flat list ``x``,
    laid out by ``slots`` (see :func:`_slots`: each key's clamped strategy in
    the order of ``keys``), and the stage oracle reads it directly:
    ``q_stage(slots)`` is called once and returns ``values(x, eps)``, one
    value list per free key in slot order, each in its actions' order.  The
    limit oracle ``q_limit(dists, owners)`` gives ``(values, sound,
    payload)`` for the keys ``owners``.  Every candidate gets one polish,
    :func:`_polish` within ``ROOT_TOL`` (by ``affine``'s linear system when
    given), and one verdict, from ``judge``: it passes when ``sound`` holds
    and every free support is optimal within ``gap_tol``.

    Every floor stage ends with a verdict on its last iterate (nothing is
    averaged): stripped of its mass at or below ``max(5 EPS_FLOOR, 2 eps)``,
    polished and judged; the first candidate that passes is returned.  When
    none does, support enumeration runs once, within ``ENUMERATION_BUDGET``
    combinations (``LINEAR_ENUMERATION_BUDGET`` with ``affine``), and its
    candidates take the same polish and verdict.  A step reads only the
    iterate and ``eps``, so a stage whose iterate repeats exactly ends where
    its cycle is at step ``MAX_ITERS``.

    Returns ``(dists, gaps, payload, iterations)``.
    """
    max_actions = max((len(actions_of(k)) for k in keys), default=2)
    best_gap, best_gaps, unsound = float("inf"), {}, 0
    iterations = 0

    def judge(dists):
        # the one verdict on every candidate: (dists, gaps, payload) or None
        nonlocal best_gap, best_gaps, unsound
        q, sound, payload = q_limit(dists, free)
        gaps = support_gaps(q, dists)
        if sound and all(g <= config.gap_tol for g in gaps.values()):
            return dists, gaps, payload
        unsound += not sound
        worst = max(gaps.values(), default=0.0)
        if worst < best_gap:
            best_gap, best_gaps = worst, gaps
        return None

    def polish(dists):
        return _polish(dists, free, q_limit, ROOT_TOL, affine)

    # each key's slice of the flat iterate, in the action order of its clamped strategy
    slots = _slots([(k, tuple(frozen.get(k, actions_of(k)))) for k in keys])
    stage = q_stage(slots)
    # the uniform start; the first clamp below sets the frozen strategies
    x = [1.0 / len(acts) for _, acts, _, _ in slots for _ in acts]
    for eps in _schedule(max_actions):
        # clamp into the eps-constrained simplex, frozen strategies included
        fixed = {k: [eps + (1.0 - eps * len(d)) * p for p in d.values()]
                 for k, d in frozen.items()}
        x = [v for k, acts, lo, hi in slots for v in fixed.get(k) or
             [eps + (1.0 - eps * len(acts)) * p for p in x[lo:hi]]]
        # per action count, the floor row of each unique optimum by its
        # position: the excess on it, as _floor_dist gives it
        rows = {m: [[eps + (1.0 - eps * m) if j == i else eps for j in range(m)]
                    for i in range(m)] for m in {len(acts) for _, acts, _, _ in slots}}
        trail, seen = [], {}
        for n in range(MAX_ITERS):
            i = seen.setdefault(tuple(x), n)
            if i < n:  # steps i..n-1 cycle, and each failed the residual test
                iterations += MAX_ITERS - n
                x = trail[i + (MAX_ITERS - i) % (n - i)]
                break
            trail.append(x)
            iterations += 1
            target = _stage_step(x, stage(x, eps), slots, fixed, rows, eps)
            resid = max(map(abs, map(operator.sub, x, target)), default=0.0)
            x = [(1 - DAMPING) * p + DAMPING * t for p, t in zip(x, target)]
            if resid <= max(FP_TOL, eps * 1e-3):
                break
        # strip floor-level mass and renormalize; a strategy the cut would
        # empty (uniform at a start floor 0.5/|A|) stays whole, frozen ones exact
        cut, candidate = max(5.0 * EPS_FLOOR, 2.0 * eps), {}
        for k, d in _dists(x, slots).items():
            kept = {a: p for a, p in d.items() if p > cut} or d
            total = sum(kept.values())
            candidate[k] = (dict(frozen[k]) if k in frozen
                            else {a: kept.get(a, 0.0) / total for a in d})
        found = judge(polish(candidate) or candidate)
        if found is not None:
            return (*found, iterations)

    # last resort for stubborn cycles: enumerate supports outright
    found = enumerate_support_equilibrium(
        free, actions_of, lambda d: polish({**d, **{k: dict(v) for k, v in frozen.items()}}),
        judge, ENUMERATION_BUDGET if affine is None else LINEAR_ENUMERATION_BUDGET)
    if found is not None:
        return (*found, iterations)

    detail = f"best gap {best_gap:.3g}"
    if unsound:
        detail += f"; {unsound} candidate(s) failed the limit certification"
    raise NonConvergenceError(f"{concept} solve failed ({detail})", best_gap, best_gaps)


def _slots(key_actions):
    """The layout of a flat strategy vector over ``(key, actions)`` pairs, in
    order: ``(key, actions, lo, hi)``, the key's probabilities at ``x[lo:hi]``."""
    his = itertools.accumulate(len(acts) for _, acts in key_actions)
    return [(k, acts, hi - len(acts), hi) for (k, acts), hi in zip(key_actions, his)]


def _dists(x, slots):
    """The strategies ``{key: {action: p}}`` that the flat iterate ``x`` lays
    out along ``slots``."""
    return {k: dict(zip(acts, x[lo:hi])) for k, acts, lo, hi in slots}


def _stage_step(x, q, slots, fixed, rows, eps):
    """One floor-constrained best response on the flat iterate ``x``: frozen
    keys at their clamped rows ``fixed``; each free key, in slot order, takes
    its next value list in ``q``, and its unique optimum (a position) its
    floor row in ``rows``, while ties keep the incumbent mixture."""
    target, q = [], iter(q)
    for k, acts, lo, hi in slots:
        if k in fixed:
            target += fixed[k]
            continue
        values = next(q)
        opt = optimal(values, TIE_TOL)
        if len(opt) == 1:
            target += rows[hi - lo][opt[0]]
        else:
            d = _floor_dist(acts, dict(zip(acts, values)), eps,
                            incumbent=dict(zip(acts, x[lo:hi])))
            target += [d[a] for a in acts]
    return target


def _polish(dists, free, q_limit, tol, affine=None):
    """Support polish of a stage candidate or an enumeration combination:
    root the indifference conditions of the limit values that ``q_limit``
    gives for the mixing keys, on the support of ``dists`` and from it, by
    Powell's hybrid method (:func:`_hybrid_root`, each strategy evaluated
    once) or, when ``affine(dists, mixing)`` gives them as ``M x + c = 0``,
    at ``x0 + lstsq(M, -(M x0 + c))``.  Returns ``dists`` when no free key
    mixes, the rooted strategy, or None when the root leaves [0, 1] or its
    residual exceeds ``tol``."""
    supports = [(k, [a for a, p in dists[k].items() if p > 0.0]) for k in free]
    mixing = [(k, sup) for k, sup in supports if len(sup) > 1]
    if not mixing:
        return dists
    owners = [k for k, _ in mixing]
    x0 = [dists[k][a] for k, sup in mixing for a in sup[1:]]
    memo = {}

    def equations(x):
        trial = _fill(dists, mixing, x)
        key = tuple(p for k in owners for p in trial[k].values())
        if key not in memo:
            q = q_limit(trial, owners)[0]
            memo[key] = [q[k][a] - q[k][sup[0]] for k, sup in mixing for a in sup[1:]]
        return memo[key]

    if affine is None:
        x, fun = _hybrid_root(equations, x0)
    else:
        m, c = affine(dists, mixing)
        x, fun = np.add(x0, np.linalg.lstsq(m, -(m @ x0 + c), rcond=None)[0]), None
    if (not all(-1e-9 <= v <= 1.0 + 1e-9 for v in x)
            or max(map(abs, equations(x) if fun is None else fun), default=0.0) > tol):
        return None
    return _fill(dists, mixing, x)


def _fill(base, supports, x):
    """``base`` with the strategy at each key of ``supports`` (pairs of key
    and support) rebuilt from the support variables ``x``: each support
    action after the first takes the next variable, clipped to [0, 1], and
    the first takes the remaining mass."""
    out, idx = dict(base), 0
    for k, sup in supports:
        vals = [float(min(1.0, max(0.0, v))) for v in x[idx:idx + len(sup) - 1]]
        idx += len(sup) - 1
        dist = dict.fromkeys(base[k], 0.0)
        dist.update(zip(sup, [max(0.0, 1.0 - sum(vals))] + vals))
        total = sum(dist.values())
        out[k] = {a: v / total for a, v in dist.items()}
    return out


def _hybrid_root(fun, x0):
    """Powell's hybrid method for ``fun(x) = 0``, computed as MINPACK's
    ``hybrd`` computes it (Moré, Garbow & Hillstrom, 1980), rounding for
    rounding, so that its roots keep their bits.  A forward-difference
    Jacobian (steps ``sqrt(eps) |x_j|``, or ``sqrt(eps)`` at 0) is factored
    by Householder QR and scaled by its column norms ``diag``, which grow
    only when it is recomputed.  Dogleg steps keep ``||diag p|| <= delta``,
    at first ``100 ||diag x0||`` clipped to the first step; the ratio of
    actual to predicted reduction halves delta below 0.1, widens it from 0.5
    and accepts the step from 1e-4.  Every step updates the factors by
    Broyden's rank-one formula and Givens rotations; two failed steps in a
    row recompute the Jacobian.  It stops when ``delta <= 1e-12 ||diag x||``,
    the residual is 0, ``200 (n + 1)`` evaluations are spent or progress
    stalls.  A non-finite residual fails its step and updates nothing.
    Returns the last accepted point and its residual, as lists."""
    eps, n, rng = sys.float_info.epsilon, len(x0), range(len(x0))

    def dot(a, b):  # summed in index order, as MINPACK sums
        s = 0.0
        for u, v in zip(a, b):
            s += u * v
        return s

    def enorm(v):  # MINPACK's norm: squares in order, tiny and huge ones apart
        s, top, agiant = [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], 1.304e19 / len(v)
        for t in map(abs, v):
            k = 0 if t <= 3.834e-20 else 1 if t < agiant else 2
            if k == 1:
                s[1] += t * t
            elif t > top[k]:
                s[k], top[k] = 1.0 + s[k] * ((top[k] / t) * (top[k] / t)), t
            elif t:
                s[k] += (t / top[k]) * (t / top[k])
        (s3, s2, s1), (x3, _, x1) = s, top
        if s1:
            return x1 * math.sqrt(s1 + (s2 / x1) / x1)
        if not s2:
            return x3 * math.sqrt(s3)
        return math.sqrt(s2 * (1.0 + (x3 / s2) * (x3 * s3)) if s2 >= x3 else
                         x3 * ((s2 / x3) + (x3 * s3)))

    def scaled(v):
        return enorm([d * u for d, u in zip(diag, v)])

    def rot(u, v, c, s):
        return [c * a - s * b for a, b in zip(u, v)], [s * a + c * b for a, b in zip(u, v)]

    def givens(a, b):
        # the rotation (cos, sin) that zeroes b against a, and the one that
        # MINPACK rebuilds for q from the single number tau it stores
        if abs(a) >= abs(b):
            t = b / a
            c = 0.5 / math.sqrt(0.25 + 0.25 * (t * t))
            s = tau = c * t
        else:
            t = a / b
            s = 0.5 / math.sqrt(0.25 + 0.25 * (t * t))
            c = s * t
            tau = 1.0 / c if abs(c) * sys.float_info.max > 1.0 else 1.0
        qc = 1.0 / tau if abs(tau) > 1.0 else math.sqrt(1.0 - tau * tau)
        return c, s, qc, math.sqrt(1.0 - qc * qc) if abs(tau) > 1.0 else tau

    def dogleg(delta):
        # the Gauss-Newton step, a zero pivot raised to eps times its column
        gn = [0.0] * n
        for j in reversed(rng):
            pivot = r[j][j] or eps * max(abs(r[i][j]) for i in range(j + 1)) or eps
            gn[j] = (qtf[j] - dot(r[j][j + 1:], gn[j + 1:])) / pivot
        qnorm = scaled(gn)
        if qnorm <= delta:
            return gn
        # else the point of the dogleg between it and the scaled gradient step
        grad = [dot([r[i][j] for i in range(j + 1)], qtf) / diag[j] for j in rng]
        gnorm, sgnorm, alpha = enorm(grad), 0.0, delta / qnorm
        if gnorm:
            grad = [g / gnorm / d for g, d in zip(grad, diag)]
            t = enorm([dot(r[j][j:], grad[j:]) for j in rng])
            sgnorm, alpha = gnorm / t / t, 0.0
            if sgnorm < delta:
                dq, sd, bnorm = delta / qnorm, sgnorm / delta, enorm(qtf)
                t = bnorm / gnorm * (bnorm / qnorm) * sd
                t = t - dq * (sd * sd) + math.sqrt((t - dq) * (t - dq)
                                                   + (1.0 - dq * dq) * (1.0 - sd * sd))
                alpha = dq * (1.0 - sd * sd) / t
        return [(1.0 - alpha) * min(sgnorm, delta) * g + alpha * v for g, v in zip(grad, gn)]

    x = [float(v) for v in x0]
    f = list(map(float, fun(x)))
    fnorm, nfev, first, ncsuc, ncfail, nslow1, nslow2 = enorm(f), 1, True, 0, 0, 0, 0
    while True:
        a = []  # the Jacobian's columns, then f
        for j in rng:
            h = math.sqrt(eps) * abs(x[j]) or math.sqrt(eps)
            fh = map(float, fun(x[:j] + [x[j] + h] + x[j + 1:]))
            a.append([(u - v) / h for u, v in zip(fh, f)])
        a.append(f[:])
        nfev, jeval, cols = nfev + n, True, [enorm(c) for c in a[:n]]
        if first:
            diag = [c or 1.0 for c in cols]
            xnorm = scaled(x)
            delta = 100.0 * xnorm or 100.0
        diag = [max(d, c) for d, c in zip(diag, cols)]
        # Householder QR of [jacobian | f]: r above the diagonal and in
        # rdiag, reflectors below, q^T f last; then q (by columns)
        rdiag = [0.0] * n
        for j in rng:
            aj, ajnorm = a[j], enorm(a[j][j:])
            if ajnorm:
                ajnorm = -ajnorm if aj[j] < 0.0 else ajnorm
                aj[j:] = [u / ajnorm for u in aj[j:]]
                aj[j] += 1.0
                for ak in a[j + 1:]:
                    t = dot(aj[j:], ak[j:]) / aj[j]
                    ak[j:] = [u - t * v for u, v in zip(ak[j:], aj[j:])]
            rdiag[j] = -ajnorm
        r = [[a[k][i] if k > i else rdiag[i] if k == i else 0.0 for k in rng] for i in rng]
        qtf, q = a[n], [[0.0] * k + a[k][k:] for k in rng]
        for k in reversed(rng):
            h, q[k] = q[k][k:], [float(i == k) for i in rng]
            for qj in q[k:] if h[0] else ():
                t = dot(qj[k:], h) / h[0]
                qj[k:] = [u - t * v for u, v in zip(qj[k:], h)]
        while True:
            p = [-v for v in dogleg(delta)]
            pnorm = scaled(p)
            delta = min(delta, pnorm) if first else delta
            xp = [u + v for u, v in zip(x, p)]
            f1 = list(map(float, fun(xp)))
            nfev, fnorm1 = nfev + 1, enorm(f1)
            actred = 1.0 - (fnorm1 / fnorm) * (fnorm1 / fnorm) if fnorm1 < fnorm else -1.0
            pred = [qtf[i] + dot(r[i][i:], p[i:]) for i in rng]
            t = enorm(pred)
            prered = 1.0 - (t / fnorm) * (t / fnorm) if t < fnorm else 0.0
            ratio = actred / prered if prered > 0.0 else 0.0
            if ratio < 0.1:
                ncsuc, ncfail, delta = 0, ncfail + 1, 0.5 * delta
            else:
                ncsuc, ncfail = ncsuc + 1, 0
                if ratio >= 0.5 or ncsuc > 1:
                    delta = max(delta, pnorm / 0.5)
                if abs(ratio - 1.0) <= 0.1:
                    delta = pnorm / 0.5
            qtf1 = [dot(qj, f1) for qj in q]
            if ratio >= 1e-4:
                x, f, fnorm, qtf, first = xp, f1, fnorm1, qtf1, False
                xnorm = scaled(x)
            nslow1 = 0 if actred >= 1e-3 else nslow1 + 1
            nslow2 = 0 if actred >= 0.1 else nslow2 + jeval
            if (delta <= 1e-12 * xnorm or fnorm == 0.0 or nfev >= 200 * (n + 1)
                    or 0.1 * max(0.1 * delta, pnorm) <= eps * xnorm
                    or nslow2 == 5 or nslow1 == 10):
                return x, f
            if ncfail == 2:
                break
            jeval, v = False, [(u - w) / pnorm for u, w in zip(qtf1, pred)]
            if not all(map(math.isfinite, v)):
                continue
            # the Broyden update r + v u^T (u the scaled step), refactored:
            # rotate v into its last entry, which spikes w (the last column
            # of r^T), add the spike and rotate it away; each rotation also
            # turns the columns of q, and qtf with them
            w, qe = [0.0] * (n - 1) + [r[-1][-1]], [qj + [qt] for qj, qt in zip(q, qtf)]
            for j in reversed(range(n - 1)):
                if v[j]:
                    c, s, qc, qs = givens(v[-1], v[j])
                    v[-1] = s * v[j] + c * v[-1]
                    r[j][j:], w[j:] = rot(r[j][j:], w[j:], c, s)
                    qe[j], qe[-1] = rot(qe[j], qe[-1], qc, qs)
            w = [wi + v[-1] * (d * (d * pj / pnorm)) for wi, d, pj in zip(w, diag, p)]
            for j in range(n - 1):
                if w[j]:
                    c, s, qc, qs = givens(r[j][j], w[j])
                    r[j][j:], w[j:] = rot(r[j][j:], w[j:], c, -s)
                    qe[j], qe[-1] = rot(qe[j], qe[-1], qc, -qs)
            r[-1][-1], q, qtf = w[-1], [col[:n] for col in qe], [col[n] for col in qe]


# the most support combinations enumeration tries, each polished as a stage
# candidate is: with the hybrid root (3^7, seven 2-action keys), or with one
# linear solve each (``affine``)
ENUMERATION_BUDGET = 2187
LINEAR_ENUMERATION_BUDGET = 20000


def enumerate_support_equilibrium(keys, actions_of, polish, judge, budget):
    """Deterministic support enumeration for small games: support
    combinations smallest-first, each as the strategy uniform on its
    supports, through the stage candidates' ``polish`` (a None skips it) and
    the driver's verdict ``judge``.  Returns what ``judge`` gives for the
    first that passes, or None when none does or there are more than
    ``budget`` combinations."""
    per_key = [[s for r in range(1, len(acts) + 1) for s in itertools.combinations(acts, r)]
               for acts in map(actions_of, keys)]
    if math.prod(map(len, per_key)) > budget:
        return None
    for combo in sorted(itertools.product(*per_key), key=lambda c: (sum(map(len, c)), c)):
        polished = polish({k: {a: 1.0 / len(sup) if a in sup else 0.0 for a in actions_of(k)}
                           for k, sup in zip(keys, combo)})
        found = None if polished is None else judge(polished)
        if found is not None:
            return found
    return None


def _solve(tree: GameTree, partition: CoarsePartition, config: SolverConfig,
           frozen: ComputerPlayerSet | None, concept: str, chi: float = 1.0):
    """The tree concepts on the homotopy driver: stage values from the
    floored cursed best response, limit values from the tremble-path
    oracle, whose diagnostics must pass for a candidate to count."""
    frozen_dists = frozen.info_set_dists() if frozen else {}
    free = [o for o in sorted(tree.player_info_sets()) if o not in frozen_dists]
    oracle = LimitOracle(tree, partition, concept, chi)

    def q_stage(slots):
        owners = [k for k, _, _, _ in slots if k not in frozen_dists]

        def values(x, eps):
            q = _values(tree, partition, BehaviorProfile(_dists(x, slots)), owners, concept,
                        chi, eps)[0]
            return [list(q[o].values()) for o in owners]
        return values

    def q_limit(dists, owners):
        q, conjs, diag = oracle.artifacts(BehaviorProfile(dists), owners)
        return q, diag is None or diag.ok, conjs

    dists, gaps, conjs, iterations = _homotopy(
        concept, config, tree.player_info_sets(), lambda o: tree.info_sets[o].actions,
        frozen_dists, free, q_stage, q_limit)
    return EquilibriumResult(concept, BehaviorProfile(dists), conjs, gaps, iterations,
                             config.seed)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def solve_sce(tree: GameTree, partition: CoarsePartition,
              config: SolverConfig | None = None,
              frozen: ComputerPlayerSet | None = None) -> EquilibriumResult:
    return _solve(tree, partition, config or SolverConfig(), frozen, "sce")


def solve_chi_sce(tree: GameTree, partition: CoarsePartition, chi: float,
                  config: SolverConfig | None = None,
                  frozen: ComputerPlayerSet | None = None) -> EquilibriumResult:
    return _solve(tree, partition, config or SolverConfig(), frozen, "chi-sce", chi)


def solve_causal_sce(tree: GameTree, partition: CoarsePartition,
                     config: SolverConfig | None = None,
                     frozen: ComputerPlayerSet | None = None) -> EquilibriumResult:
    return _solve(tree, partition, config or SolverConfig(), frozen, "causal-sce")


@dataclass(frozen=True)
class WpceReport:
    plausibility: object
    best_response: object

    @property
    def ok(self) -> bool:
        return self.plausibility.ok and self.best_response.ok

    def __str__(self) -> str:
        return f"plausibility: {self.plausibility}\nbest response: {self.best_response}"


def check_wpce(tree: GameTree, partition: CoarsePartition,
               profile: BehaviorProfile, system: dict,
               tol: float = 1e-6) -> WpceReport:
    """Conjunction of cursed-plausibility and local best response."""
    pl = check_cursed_plausible(tree, partition, profile, system, tol)
    br = check_local_best_response(tree, partition, profile, system, tol)
    return WpceReport(pl, br)


def solve_wpce(tree: GameTree, partition: CoarsePartition,
               config: SolverConfig | None = None,
               frozen: ComputerPlayerSet | None = None) -> EquilibriumResult:
    """Solve via the stronger concept and re-certify (every SCE is a WPCE)."""
    res = _solve(tree, partition, config or SolverConfig(), frozen, "sce")
    report = check_wpce(tree, partition, res.profile, res.conjectures, tol=1e-6)
    if not report.ok:
        raise NonConvergenceError(f"solver output failed WPCE recertification:\n{report}")
    res.concept = "wpce"
    return res


def sce_witness_check(tree: GameTree, partition: CoarsePartition,
                      profile: BehaviorProfile, config: SolverConfig | None = None,
                      concept: str = "sce", chi: float = 1.0):
    """Certify a supplied profile: derive the exact limit conjecture system
    along the tremble path (1 - t) profile + t uniform and test local best
    responses against it.

    Every action of positive probability counts as played, as in the
    solver's verdict, and a gap passes within ``max(gap_tol, 1e-6)``.
    Returns (ok, gaps, conjectures).  This is witness-based certification,
    not a search over all paths.
    """
    config = config or SolverConfig()
    owners = sorted(tree.player_info_sets())
    q, conjs, _ = LimitOracle(tree, partition, concept, chi).artifacts(profile, owners)
    gaps = support_gaps(q, profile.dists)
    ok = all(g <= max(config.gap_tol, 1e-6) for g in gaps.values())
    return ok, gaps, conjs
