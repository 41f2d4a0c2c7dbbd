"""Clock-cursed bidding in common-value auctions.

Numerical machinery for the symmetric affiliated-signals model: Monte Carlo
estimation of the conditional-value tables, the first-price and Dutch
bidding ODEs, the second-price and silent/canonical English quit rules, bid
orderings, and the many-bidder winner's-payoff experiment.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SignalModel:
    """Common-value environment with symmetric signals on [lo, hi].

    ``sampler(rng, n)`` returns (values, signals) with signals shaped
    (n, bidders).  Closed forms, when supplied, are used directly by the
    table builder; Monte Carlo remains available for cross-checks.
    Affiliation is an assumption documented by the model, not verified.
    """

    name: str
    bidders: int
    lo: float
    hi: float
    sampler: object
    closed_forms: dict = field(default_factory=dict)

    def sample(self, rng: np.random.Generator, n: int):
        values, signals = self.sampler(rng, n)
        return np.asarray(values, dtype=float), np.asarray(signals, dtype=float)


def wallet_model(bidders: int = 2) -> SignalModel:
    """Value equals the sum of independent uniform signals."""

    def sampler(rng, n):
        x = rng.uniform(0.0, 1.0, size=(n, bidders))
        return x.sum(axis=1), x

    forms = {}
    if bidders == 2:
        forms = {
            "v": lambda x: x + 0.5,
            "v_upper": lambda x, y: x + y / 2.0,
            "v_lower": lambda x, y: x + (1.0 + y) / 2.0,
            "f_y1": lambda y, x: np.ones_like(np.asarray(y, dtype=float)),
            "F_y1": lambda y, x: np.asarray(y, dtype=float),
        }
    return SignalModel(f"wallet-{bidders}", bidders, 0.0, 1.0, sampler, forms)


def mean_value_model(bidders: int) -> SignalModel:
    """Value equals the average of independent uniform signals."""

    k = bidders

    def sampler(rng, n):
        x = rng.uniform(0.0, 1.0, size=(n, k))
        return x.mean(axis=1), x

    def v(x):
        return (x + (k - 1) * 0.5) / k

    def v_upper(x, y):
        return (x + (k - 1) * np.asarray(y) / 2.0) / k

    def v_lower(x, y):
        y = np.asarray(y, dtype=float)
        cond = np.where(y >= 1.0, 1.0,
                        0.5 * (1.0 - y ** k) / np.maximum(1.0 - y ** (k - 1), 1e-300))
        return (x + (k - 1) * cond) / k

    def f_y1(y, x):
        y = np.asarray(y, dtype=float)
        return (k - 1) * y ** (k - 2) if k > 2 else np.ones_like(y)

    def F_y1(y, x):
        return np.asarray(y, dtype=float) ** (k - 1)

    def v_stage(x, quits, floor):
        # quits: (m,) shared by every x, or (n, m) one row per sample
        quits = np.asarray(quits, dtype=float)
        remaining = k - 1 - quits.shape[-1]
        return (x + quits.sum(axis=-1) + remaining * (1.0 + floor) / 2.0) / k

    forms = {"v": v, "v_upper": v_upper, "v_lower": v_lower,
             "f_y1": f_y1, "F_y1": F_y1, "v_stage": v_stage}
    return SignalModel(f"mean-value-{k}", k, 0.0, 1.0, sampler, forms)


@dataclass(frozen=True)
class OracleConfig:
    samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.samples < 10_000:
            raise ValueError("need at least 1e4 Monte Carlo samples")


@dataclass
class ConditionalTables:
    """Per-grid-point conditional expectations and distributions.

    Columns: v(x), v_upper(x, x), v_lower(x, x), f_{Y1}(x | x),
    F_{Y1}(x | x), each with a standard error (zero for closed forms).
    """

    grid: np.ndarray
    v: np.ndarray
    v_se: np.ndarray
    v_upper: np.ndarray
    v_upper_se: np.ndarray
    v_lower: np.ndarray
    v_lower_se: np.ndarray
    f_y1: np.ndarray
    f_y1_se: np.ndarray
    F_y1: np.ndarray
    F_y1_se: np.ndarray
    empty_cells: list = field(default_factory=list)
    source: str = "monte-carlo"


def uniform_grid(model: SignalModel, g: int) -> np.ndarray:
    """Cell midpoints of a uniform partition of the signal support."""
    h = (model.hi - model.lo) / g
    return model.lo + h * (np.arange(g) + 0.5)


def _signal_cells(x, lo, hi, g):
    """Each signal's cell of the uniform g-cell partition of [lo, hi], out of
    range clipped to the end cells: ``np.digitize`` against the edges, without
    its binary search."""
    h = (hi - lo) / g
    edges = lo + h * np.arange(g + 1)
    cell = np.clip(np.floor((x - lo) / h), 0, g - 1).astype(np.intp)
    # the division may round across an edge; the edges decide
    cell -= (cell > 0) & (x < edges[cell])
    cell += (cell < g - 1) & (x >= edges[cell + 1])
    return cell


def _highest_rival(signals: np.ndarray) -> np.ndarray:
    """Each draw's highest signal among the rivals (columns 1 on), or 0 with
    no rival; a maximum over columns, since one along short rows is slow."""
    rivals = signals[:, 1:].T
    return functools.reduce(np.maximum, rivals) if len(rivals) else np.zeros(len(signals))


def estimate_conditionals(model: SignalModel, grid: np.ndarray,
                          oracle: OracleConfig, use_closed_forms: bool = True
                          ) -> ConditionalTables:
    """Tables of v, v_upper, v_lower, f_{Y1}, F_{Y1} on the grid.

    Closed forms are exact when the model carries them and requested;
    otherwise Monte Carlo with a hard conditioning window on the bidder's
    own-signal grid cell and a Gaussian kernel for the density.
    """
    grid = np.asarray(grid, dtype=float)
    g = len(grid)
    forms = model.closed_forms
    if use_closed_forms and {"v", "v_upper", "v_lower", "f_y1", "F_y1"} <= set(forms):
        zero = np.zeros(g)
        return ConditionalTables(
            grid, np.asarray(forms["v"](grid), dtype=float), zero,
            np.asarray(forms["v_upper"](grid, grid), dtype=float), zero,
            np.asarray(forms["v_lower"](grid, grid), dtype=float), zero,
            np.asarray(forms["f_y1"](grid, grid), dtype=float), zero,
            np.asarray(forms["F_y1"](grid, grid), dtype=float), zero,
            source="closed-form")

    rng = np.random.Generator(np.random.PCG64(oracle.seed))
    values, signals = model.sample(rng, oracle.samples)
    x1 = signals[:, 0]
    y1 = _highest_rival(signals)
    cell = _signal_cells(x1, model.lo, model.hi, g)

    count = np.bincount(cell, minlength=g)
    x = grid[cell]  # each draw's grid point
    lower = y1 <= x
    upper = y1 >= x

    def mean_se(weights, sel=slice(None)):
        """Per-cell mean and two-pass standard error of the selected draws:
        nan for no draw, an infinite SE for one."""
        c, w = cell[sel], weights[sel]
        n = np.bincount(c, minlength=g)
        with np.errstate(divide="ignore", invalid="ignore"):
            m = np.bincount(c, w, g) / n
            se = np.sqrt(np.bincount(c, (w - m[c]) ** 2, g) / (n - 1)) / np.sqrt(n)
        se[n == 0] = np.nan
        se[n == 1] = np.inf
        return m, se

    cols, ses = {}, {}
    cols["v"], ses["v"] = mean_se(values)
    cols["v_upper"], ses["v_upper"] = mean_se(values, lower)
    cols["v_lower"], ses["v_lower"] = mean_se(values, upper)
    cols["F_y1"], ses["F_y1"] = mean_se(lower.astype(float))
    # Silverman's rule per cell
    with np.errstate(divide="ignore", invalid="ignore"):
        y_mean = np.bincount(cell, y1, g) / count
        y_std = np.sqrt(np.bincount(cell, (y1 - y_mean[cell]) ** 2, g) / count)
        bw = (1.06 * np.maximum(y_std, 1e-3) * count ** (-0.2))[cell]
    kern = np.exp(-0.5 * ((y1 - x) / bw) ** 2) / (bw * np.sqrt(2 * np.pi))
    cols["f_y1"], ses["f_y1"] = mean_se(kern)
    # per cell, in cell order: no draw at all, or none with y1 <= x (v_upper)
    # or y1 >= x (v_lower)
    flags = np.stack([count == 0, (count > 0) & np.isnan(cols["v_upper"]),
                      (count > 0) & np.isnan(cols["v_lower"])], axis=1)
    names = ("all", "v_upper", "v_lower")
    empty = [(names[j], int(i)) for i, j in zip(*np.nonzero(flags))]
    return ConditionalTables(
        grid, cols["v"], ses["v"], cols["v_upper"], ses["v_upper"],
        cols["v_lower"], ses["v_lower"], cols["f_y1"], ses["f_y1"],
        cols["F_y1"], ses["F_y1"], empty_cells=empty)


@dataclass
class BidFunction:
    """A bid (or quit price) per grid point, tagged with the format."""

    format: str  # 1P | dutch | 2P | silent | canon-<k>
    grid: np.ndarray
    bids: np.ndarray
    se: np.ndarray | None = None
    monotone: bool = True
    notes: list = field(default_factory=list)
    boundary_value: float | None = None
    start_x: float | None = None

    def __post_init__(self):
        finite = self.bids[np.isfinite(self.bids)]
        diffs = np.diff(finite)
        self.monotone = bool((diffs >= -1e-9).all())
        if not self.monotone:
            self.notes.append("bid function is not monotone nondecreasing")

    def at(self, x) -> float:
        return float(np.interp(x, self.grid, self.bids))


# the density-to-CDF ratio of the bidding ODEs reads a CDF of at least this
RATIO_FLOOR = 1e-30
# integration error allowed to the ODE formats in the bid orderings
ODE_ALLOWANCE = 1e-3
# leading share of the signal range that ``ode_residuals`` skips
ODE_SKIP_FRACTION = 0.02


def _integrate_ode(grid, start_x, start_b, coeffs):
    """RK4 for db/dx = (t(x) - b) r(x) over the grid from a one-sided start
    past the singular boundary.  ``coeffs(x)`` gives t and r on an array of
    signals: one call tabulates them at every step's start, midpoint and
    end, and only the recurrence, one step per grid point, runs on floats."""
    held = int((grid <= start_x).sum())
    xs = np.concatenate(([start_x], grid[grid > start_x]))
    cur, step = xs[:-1], np.diff(xs)
    t, r = coeffs(np.stack([cur, cur + step / 2, cur + step]))
    b = start_b
    out = [start_b] * held
    for hstep, t1, t2, t4, r1, r2, r4 in zip(step.tolist(), *t.tolist(), *r.tolist()):
        k1 = (t1 - b) * r1
        k2 = (t2 - (b + hstep * k1 / 2)) * r2
        k3 = (t2 - (b + hstep * k2 / 2)) * r2
        k4 = (t4 - (b + hstep * k3)) * r4
        b = b + hstep * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        out.append(b)
    return np.array(out, dtype=float)


def _ode_bid(model, tables, target_col, fmt):
    grid = tables.grid
    lo = model.lo
    delta = (model.hi - model.lo) / (10.0 * len(grid))
    target_all = getattr(tables, target_col)
    # Monte Carlo cells can be empty near the boundary; work on the finite
    # sub-table throughout
    tmask = np.isfinite(target_all)
    if not tmask.any():
        raise ValueError(f"{target_col} has no finite entries")
    tgrid, target = grid[tmask], target_all[tmask]
    fmask = np.isfinite(tables.f_y1) & np.isfinite(tables.F_y1)
    fgrid = grid[fmask]
    # interpolate the density and CDF log-log relative to the boundary:
    # both follow power laws in (x - lo) there, which linear interpolation
    # badly overshoots and log-linear undershoots
    log_x = np.log(fgrid - lo)
    log_f = np.log(np.maximum(tables.f_y1[fmask], 1e-300))
    log_F = np.log(np.maximum(tables.F_y1[fmask], 1e-300))
    # cap the attraction rate at the RK4 stability limit so a noisy or
    # vanishing CDF estimate near the boundary cannot blow the integration up
    h = (grid[1] - grid[0]) if len(grid) > 1 else (model.hi - model.lo)
    rate_cap = 1.0 / h

    def rate_at(x):
        u = np.log(np.maximum(x - lo, 1e-12))
        return np.exp(np.interp(u, log_x, log_f)
                      - np.maximum(np.interp(u, log_x, log_F), np.log(RATIO_FLOOR)))

    def coeffs(x):
        return np.interp(x, tgrid, target), np.minimum(rate_at(x), rate_cap)

    # boundary value at the infimum signal, extrapolated from the first
    # finite table entries
    if len(tgrid) > 1:
        slope0 = (target[1] - target[0]) / (tgrid[1] - tgrid[0])
        b0 = float(target[0] + slope0 * (lo - tgrid[0]))
    else:
        slope0, b0 = 0.0, float(target[0])
    # start on the regular branch just past the stiff zone: the singular
    # ratio behaves like m/(x - lo), and the bounded solution leaves the
    # boundary value with slope m/(m+1) times the target's slope
    s = lo + delta
    while rate_at(s) * h > 1.5 and s < grid[-1]:
        s += delta
    m_hat = min(max(rate_at(s) * (s - lo), 0.5), 10.0)
    start_b = b0 + slope0 * (s - lo) * m_hat / (m_hat + 1.0)
    bids = _integrate_ode(grid, s, start_b, coeffs)
    bf = BidFunction(fmt, grid, bids)
    bf.boundary_value = b0
    bf.start_x = s
    bf.notes.append(f"boundary b({lo}) = {b0:.6g}, start offset {s - lo:.3g}")
    return bf


def solve_first_price(model: SignalModel, tables: ConditionalTables) -> BidFunction:
    """db/dx = (v(x) - b) f(x|x)/F(x|x) with b at the lowest signal = v there."""
    return _ode_bid(model, tables, "v", "1P")


def solve_dutch(model: SignalModel, tables: ConditionalTables) -> BidFunction:
    """Same ODE with the value conditioned on the clock: v_upper(x, x)."""
    bf = _ode_bid(model, tables, "v_upper", "dutch")
    bf.notes.append("waiting condition checked by verify_orderings ODE comparison")
    return bf


def bid_second_price(model: SignalModel, tables: ConditionalTables) -> BidFunction:
    return BidFunction("2P", tables.grid, tables.v.copy(), se=tables.v_se.copy())


def bid_silent_english(model: SignalModel, tables: ConditionalTables) -> BidFunction:
    """Quit at v_lower(x, x); requires it to be increasing on the grid.

    With b = v_lower nondecreasing, quitting above b(x) adds only wins
    against signals y >= x, each worth v_lower(x) - b(y) <= 0, and quitting
    below drops only wins worth v_lower(x) - b(y) >= 0.  So under a
    nonnegative density, which every table built here has, b(x) is optimal
    and nothing is searched; a column that is not increasing is noted as a
    failed premise.
    """
    bf = BidFunction("silent", tables.grid, tables.v_lower.copy(), se=tables.v_lower_se.copy())
    if not bf.monotone:
        bf.notes.append("v_lower(x, x) is not increasing: theorem premise fails")
    return bf


def bid_canonical_english(model: SignalModel, observed_signals,
                          tables: ConditionalTables,
                          oracle: OracleConfig | None = None) -> BidFunction:
    """Stage-k quit rule after k observed quits (signals sorted ascending).

    Uses the model's stage form when available, otherwise Monte Carlo
    conditional expectations with window conditioning on the quit signals.
    At most ``bidders - 1`` others can quit, each at a signal in [lo, hi];
    anything else raises ValueError.
    """
    quits = sorted(float(y) for y in observed_signals)
    k = len(quits)
    if k > model.bidders - 1:
        raise ValueError(f"{k} quits, but only {model.bidders - 1} other bidders")
    if not all(model.lo <= y <= model.hi for y in quits):
        raise ValueError(f"quit signals must lie in [{model.lo}, {model.hi}]")
    grid = tables.grid
    if k == 0 and model.bidders == 2:
        return BidFunction("canon-0", grid, tables.v_lower.copy(),
                           se=tables.v_lower_se.copy())
    forms = model.closed_forms
    if "v_stage" in forms:
        return BidFunction(f"canon-{k}", grid, forms["v_stage"](grid, quits, grid))
    oracle = oracle or OracleConfig()
    rng = np.random.Generator(np.random.PCG64(oracle.seed + 17 * (k + 1)))
    values, signals = model.sample(rng, oracle.samples)
    x1 = signals[:, 0]
    others = np.sort(signals[:, 1:], axis=1)
    h = (model.hi - model.lo) / len(grid)
    win = np.ones(len(values), dtype=bool)
    for j, y in enumerate(quits):
        win &= np.abs(others[:, j] - y) <= h
    bids = np.full(len(grid), np.nan)
    ses = np.full(len(grid), np.nan)
    for i, x in enumerate(grid):
        mask = win & (np.abs(x1 - x) <= h / 2)
        if k < model.bidders - 1:
            mask &= others[:, k] >= x
        n = int(mask.sum())
        if n == 0:
            continue
        sel = values[mask]
        bids[i] = float(sel.mean())
        ses[i] = float(sel.std(ddof=1) / np.sqrt(n)) if n > 1 else np.inf
    bf = BidFunction(f"canon-{k}", grid, bids, se=ses)
    if np.isnan(bids).any():
        bf.notes.append("empty conditioning cells at some grid points")
    return bf


@dataclass
class WinnerCurseRow:
    bidders: int
    mean_payoff: float
    se: float
    draws: int


def winner_curse_experiment(model_family, ks, oracle: OracleConfig | None = None
                            ) -> list[WinnerCurseRow]:
    """Simulate the constructed equilibrium per bidder count and average the
    realized winner payoff, value minus clearing price."""
    oracle = oracle or OracleConfig()
    rows = []
    for k in ks:
        model = model_family(k)
        rng = np.random.Generator(np.random.PCG64(oracle.seed + k))
        values, signals = model.sample(rng, oracle.samples)
        payoffs = values - clearing_prices(model, signals)
        se = float(payoffs.std(ddof=1) / np.sqrt(len(payoffs)))
        rows.append(WinnerCurseRow(k, float(payoffs.mean()), se, len(payoffs)))
    return rows


def clearing_prices(model: SignalModel, signals: np.ndarray) -> np.ndarray:
    """Price paid by the winner when everyone follows the stage quit rules:
    the second-highest bidder's final-stage quit point given all lower quits."""
    forms = model.closed_forms
    k = model.bidders
    srt = np.sort(signals, axis=1)
    second = srt[:, -2]
    if "v_stage" in forms:
        return forms["v_stage"](second, srt[:, :-2], second)
    if k == 2 and "v_lower" in forms:
        return np.asarray(forms["v_lower"](second, second), dtype=float)
    raise ValueError(f"model {model.name} lacks a stage-value form for simulation")


@dataclass
class OrderingFinding:
    check: str
    index: int
    x: float
    gap: float
    allowance: float


@dataclass
class OrderingReport:
    findings: list
    checks_run: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.findings

    def __str__(self) -> str:
        if self.ok:
            return "all orderings hold"
        return "\n".join(f"{f.check} fails at x={f.x:.4f}: gap {f.gap:.4g} "
                         f"(allowance {f.allowance:.4g})" for f in self.findings)


def verify_orderings(model: SignalModel, tables: ConditionalTables,
                     bid_1p: BidFunction, bid_dutch: BidFunction,
                     bid_2p: BidFunction, bid_silent: BidFunction) -> OrderingReport:
    """Pointwise bid orderings plus the conditioning-direction inequality
    v_upper(x,x) <= v(x) <= v_lower(x,x), within 3 Monte Carlo standard
    errors plus an integration allowance for the ODE formats."""
    findings = []
    g = tables.grid

    def se(arr):
        # a missing SE becomes inf; an inf SE (a one-draw cell) must stay
        # inf, not become the largest float, which 3 * (...) overflows
        return np.zeros_like(g) if arr is None else np.where(np.isnan(arr), np.inf, arr)

    checks = [
        ("dutch<=1p", bid_1p.bids - bid_dutch.bids,
         3 * (se(bid_1p.se) + se(bid_dutch.se)) + ODE_ALLOWANCE),
        ("silent>=2p", bid_silent.bids - bid_2p.bids,
         3 * (se(bid_silent.se) + se(bid_2p.se))),
        ("v_upper<=v", tables.v - tables.v_upper,
         3 * (tables.v_se + tables.v_upper_se)),
        ("v<=v_lower", tables.v_lower - tables.v,
         3 * (tables.v_se + tables.v_lower_se)),
    ]
    for name, diff, allow in checks:
        allow = np.broadcast_to(np.asarray(allow, dtype=float), diff.shape)
        for i, d in enumerate(diff):
            if np.isnan(d):
                continue
            if d < -allow[i]:
                findings.append(OrderingFinding(name, i, float(g[i]),
                                                float(d), float(allow[i])))
    return OrderingReport(findings, tuple(n for n, _, _ in checks))


def ode_residuals(tables: ConditionalTables, bf: BidFunction) -> np.ndarray:
    """Centered-difference residual of db/dx against the ODE right-hand side
    at interior grid points.

    The first ``ODE_SKIP_FRACTION`` of the signal range is excluded: the
    one-sided regularized start leaves a transient there that the grid
    refinement test bounds instead.
    """
    g = tables.grid
    lo_cut = g[0] + ODE_SKIP_FRACTION * (g[-1] - g[0])
    if bf.start_x is not None:
        # the stencil must not straddle the held pre-integration region
        lo_cut = max(lo_cut, bf.start_x + (g[1] - g[0]))
    target = tables.v if bf.format == "1P" else tables.v_upper
    res = []
    for i in range(1, len(g) - 1):
        if g[i] < lo_cut:
            continue
        vals = (target[i], bf.bids[i - 1], bf.bids[i + 1],
                tables.f_y1[i], tables.F_y1[i])
        if not all(np.isfinite(v) for v in vals):
            continue
        rate = tables.f_y1[i] / max(tables.F_y1[i], RATIO_FLOOR)
        if rate * (g[1] - g[0]) > 1.0:
            continue  # stiffer than the grid can resolve; the start layer
        fd = (bf.bids[i + 1] - bf.bids[i - 1]) / (g[i + 1] - g[i - 1])
        res.append(fd - (target[i] - bf.bids[i]) * rate)
    return np.asarray(res)
