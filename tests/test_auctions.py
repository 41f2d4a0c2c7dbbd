import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cursedeq.auctions import (BLOCK_ROWS, BidFunction, OracleConfig, _highest_rival,
                               _row_sum, _signal_cells, _sorted_columns, bid_canonical_english,
                               bid_second_price, bid_silent_english, clearing_prices,
                               estimate_conditionals, mean_value_model, ode_residuals,
                               solve_dutch, solve_first_price, uniform_grid, verify_orderings,
                               wallet_model, winner_curse_experiment)

ORACLE = OracleConfig(samples=100_000, seed=42)


@pytest.fixture(scope="module")
def wallet():
    model = wallet_model()
    grid = uniform_grid(model, 200)
    closed = estimate_conditionals(model, grid, ORACLE)
    mc = estimate_conditionals(model, grid, ORACLE, use_closed_forms=False)
    return model, grid, closed, mc


def test_wallet_closed_forms(wallet):
    model, grid, closed, _ = wallet
    assert np.allclose(closed.v, grid + 0.5)
    assert np.allclose(closed.v_lower, grid + (1 + grid) / 2)
    assert np.allclose(closed.v_upper, grid + grid / 2)


def test_monte_carlo_matches_closed_forms(wallet):
    model, grid, closed, mc = wallet
    z = np.abs(mc.v - closed.v) / np.maximum(mc.v_se, 1e-12)
    assert np.nanmax(z) < 5.0  # 3 SE per cell, normal tail across 200 cells
    assert np.nanmean(z < 3.0) > 0.98
    # the conditioned columns lose samples near the boundary, so only their
    # bulk is held to the 3 SE yardstick
    for col in ("v_upper", "v_lower"):
        zc = np.abs(getattr(mc, col) - getattr(closed, col)) \
            / np.maximum(getattr(mc, col + "_se"), 1e-12)
        assert np.nanmean(zc < 3.0) > 0.95, col


def test_vacuous_conditioning(wallet):
    model, grid, closed, _ = wallet
    # conditioning the maximum below the top of the support changes nothing
    assert np.allclose(model.closed_forms["v_upper"](grid, 1.0), closed.v)


def test_first_price_exact_solution(wallet):
    model, grid, closed, _ = wallet
    bf = solve_first_price(model, closed)
    assert np.abs(bf.bids - (grid / 2 + 0.5)).max() < 1e-3
    assert bf.boundary_value == pytest.approx(0.5, abs=1e-12)
    assert bf.monotone
    assert (bf.bids <= closed.v + 1e-9).all()


def test_dutch_exact_solution_and_ordering(wallet):
    model, grid, closed, _ = wallet
    bd = solve_dutch(model, closed)
    assert np.abs(bd.bids - 0.75 * grid).max() < 1e-3
    b1 = solve_first_price(model, closed)
    assert (bd.bids <= b1.bids + 1e-9).all()


def test_constant_value_model_degenerate():
    def sampler(rng, n):
        x = rng.uniform(0.0, 1.0, size=(n, 2))
        return np.full(n, 3.0), x

    from cursedeq.auctions import SignalModel
    model = SignalModel("const", 2, 0.0, 1.0, sampler, {
        "v": lambda x: np.full_like(np.asarray(x, dtype=float), 3.0),
        "v_upper": lambda x, y: np.full_like(np.asarray(x, dtype=float), 3.0),
        "v_lower": lambda x, y: np.full_like(np.asarray(x, dtype=float), 3.0),
        "f_y1": lambda y, x: np.ones_like(np.asarray(y, dtype=float)),
        "F_y1": lambda y, x: np.asarray(y, dtype=float),
    })
    grid = uniform_grid(model, 50)
    tables = estimate_conditionals(model, grid, ORACLE)
    b1 = solve_first_price(model, tables)
    bd = solve_dutch(model, tables)
    b2 = bid_second_price(model, tables)
    bs = bid_silent_english(model, tables)
    for bf in (b1, bd, b2, bs):
        assert np.abs(bf.bids - 3.0).max() < 1e-9
    assert verify_orderings(model, tables, b1, bd, b2, bs).ok


def test_second_price_is_v_column(wallet):
    model, grid, closed, mc = wallet
    assert np.array_equal(bid_second_price(model, closed).bids, closed.v)
    assert np.array_equal(bid_second_price(model, mc).bids, mc.v)


def test_silent_english(wallet):
    model, grid, closed, _ = wallet
    bs = bid_silent_english(model, closed)
    assert np.allclose(bs.bids, grid + (1 + grid) / 2)
    b2 = bid_second_price(model, closed)
    assert (bs.bids >= b2.bids - 1e-12).all()
    assert bs.monotone


def test_ode_residuals_under_tolerance(wallet):
    model, grid, closed, _ = wallet
    assert np.abs(ode_residuals(closed, solve_first_price(model, closed))).max() < 1e-3
    assert np.abs(ode_residuals(closed, solve_dutch(model, closed))).max() < 1e-3
    m3 = mean_value_model(3)
    g3 = uniform_grid(m3, 200)
    t3 = estimate_conditionals(m3, g3, ORACLE)
    assert np.abs(ode_residuals(t3, solve_first_price(m3, t3))).max() < 1e-3
    assert np.abs(ode_residuals(t3, solve_dutch(m3, t3))).max() < 1e-3


def test_grid_refinement_wallet(wallet):
    model, grid, closed, _ = wallet
    fine = estimate_conditionals(model, uniform_grid(model, 400), ORACLE)
    for solver in (solve_first_price, solve_dutch):
        coarse_bids = solver(model, closed).bids
        fine_bids = solver(model, fine).bids
        interp = np.interp(grid, uniform_grid(model, 400), fine_bids)
        assert np.abs(interp - coarse_bids).max() < 1e-3


def test_orderings_wallet_and_mean_value(wallet):
    model, grid, closed, mc = wallet
    for tables in (closed, mc):
        rep = verify_orderings(model, tables,
                               solve_first_price(model, tables),
                               solve_dutch(model, tables),
                               bid_second_price(model, tables),
                               bid_silent_english(model, tables))
        assert rep.ok, str(rep)
    m3 = mean_value_model(3)
    t3 = estimate_conditionals(m3, uniform_grid(m3, 200), ORACLE)
    rep = verify_orderings(m3, t3, solve_first_price(m3, t3), solve_dutch(m3, t3),
                           bid_second_price(m3, t3), bid_silent_english(m3, t3))
    assert rep.ok, str(rep)


def test_se_scaling_with_samples():
    model = wallet_model()
    grid = uniform_grid(model, 50)
    small = estimate_conditionals(model, grid,
                                  OracleConfig(samples=50_000, seed=9),
                                  use_closed_forms=False)
    big = estimate_conditionals(model, grid,
                                OracleConfig(samples=100_000, seed=9),
                                use_closed_forms=False)
    ratio = np.nanmean(big.v_se) / np.nanmean(small.v_se)
    assert 0.6 <= ratio <= 0.82


def test_canonical_english_two_bidders_reduces_to_silent(wallet):
    model, grid, closed, _ = wallet
    canon = bid_canonical_english(model, [], closed)
    silent = bid_silent_english(model, closed)
    assert np.allclose(canon.bids, silent.bids)


def test_canonical_english_stage_one_oracle():
    model = mean_value_model(3)
    grid = uniform_grid(model, 50)
    tables = estimate_conditionals(model, grid, ORACLE)
    y = 0.3
    bf = bid_canonical_english(model, [y], tables)
    # closed-form check at interior points
    want = (grid + y + (1 + grid) / 2) / 3
    assert np.abs(bf.bids - want).max() < 1e-9
    # Monte Carlo oracle at one point
    rng = np.random.Generator(np.random.PCG64(123))
    values, signals = model.sample(rng, 400_000)
    x = 0.7
    others = np.sort(signals[:, 1:], axis=1)
    mask = (np.abs(signals[:, 0] - x) < 0.02) & (np.abs(others[:, 0] - y) < 0.02) \
        & (others[:, 1] >= x)
    est = values[mask].mean()
    assert est == pytest.approx(bf.at(x), abs=0.01)


def test_canonical_english_monte_carlo_branch():
    """The three-bidder wallet has no stage form, so its stage-one bids come
    from the Monte Carlo branch.  After one quit at y the bidder at x expects
    x + y plus the last signal, uniform above max(x, y)."""
    model = wallet_model(3)
    grid = uniform_grid(model, 20)
    oracle = OracleConfig(samples=100_000, seed=1)
    tables = estimate_conditionals(model, grid, oracle)
    y = 0.3
    bf = bid_canonical_english(model, [y], tables, oracle)
    assert bf.format == "canon-1"
    assert not np.isnan(bf.bids).any() and not bf.notes
    want = grid + y + (1.0 + np.maximum(grid, y)) / 2.0
    assert np.all(np.abs(bf.bids - want) <= 4.0 * bf.se), np.abs(bf.bids - want) / bf.se


def test_canonical_english_checks_the_quits():
    """Three bidders leave two others to quit, each at a signal in [lo, hi];
    two quits are the last stage, under the stage form and Monte Carlo."""
    mean3, wallet3 = mean_value_model(3), wallet_model(3)
    oracle = OracleConfig(samples=100_000, seed=1)
    for model in (mean3, wallet3):
        tables = estimate_conditionals(model, uniform_grid(model, 20), oracle)
        for quits, message in (([0.1, 0.2, 0.3], "3 quits, but only 2 other bidders"),
                               ([float("nan")], "quit signals must lie in"),
                               ([0.2, -0.1], "quit signals must lie in")):
            with pytest.raises(ValueError, match=re.escape(message)):
                bid_canonical_english(model, quits, tables, oracle)
    grid = uniform_grid(mean3, 20)
    last = bid_canonical_english(mean3, [0.4, 0.2], estimate_conditionals(mean3, grid, ORACLE))
    assert last.format == "canon-2"
    assert np.abs(last.bids - (grid + 0.6) / 3).max() < 1e-12
    tables = estimate_conditionals(wallet3, grid, oracle)
    last = bid_canonical_english(wallet3, [0.4, 0.2], tables, oracle)
    assert last.format == "canon-2" and not np.isnan(last.bids).any()
    assert np.all(np.abs(last.bids - (grid + 0.6)) <= 4.0 * last.se)


def test_quit_price_inversion(wallet):
    model, grid, closed, _ = wallet
    b0 = bid_canonical_english(model, [], closed)
    for y in (0.2, 0.55, 0.8):
        price = b0.at(y)
        assert float(np.interp(price, b0.bids, b0.grid)) == pytest.approx(y, abs=1.0 / len(grid))


def test_winner_curse_decreasing():
    rows = winner_curse_experiment(mean_value_model, [2, 3, 5, 8],
                                   OracleConfig(samples=100_000, seed=5))
    assert [r.bidders for r in rows] == [2, 3, 5, 8]
    for a, b in zip(rows, rows[1:]):
        assert abs(b.mean_payoff) <= abs(a.mean_payoff) + 3 * (a.se + b.se)
    last = rows[-1]
    assert abs(last.mean_payoff) <= 3 * last.se + 1e-4


def test_winner_curse_k2_matches_silent_english_accounting():
    model = mean_value_model(2)
    rng = np.random.Generator(np.random.PCG64(77))
    values, signals = model.sample(rng, 10_000)
    prices = clearing_prices(model, signals)
    lo = signals.min(axis=1)
    silent_quits = model.closed_forms["v_stage"](lo, [], lo)
    assert np.allclose(prices, silent_quits)


def test_clearing_prices_two_bidder_wallet():
    """Two wallet bidders have no stage form: the winner pays the loser's
    quit price v_lower(lo, lo) = lo + (1 + lo) / 2, lo the lower signal."""
    model = wallet_model(2)
    _, signals = model.sample(np.random.Generator(np.random.PCG64(9)), 10_000)
    lo = signals.min(axis=1)
    assert np.array_equal(clearing_prices(model, signals), lo + (1.0 + lo) / 2.0)


def _stage_rule(k, x, quits, floor):
    """The mean-value stage rule one sample at a time (the former scalar form)."""
    return (x + sum(quits) + (k - 1 - len(quits)) * (1.0 + floor) / 2.0) / k


def test_clearing_prices_match_per_sample_loop():
    for k in range(2, 13):
        model = mean_value_model(k)
        rng = np.random.Generator(np.random.PCG64(100 + k))
        _, signals = model.sample(rng, 20_000)
        srt = np.sort(signals, axis=1)
        loop = np.array([_stage_rule(k, row[-2], list(row[:-2]), row[-2]) for row in srt])
        assert np.array_equal(clearing_prices(model, signals), loop), k


def test_canonical_english_matches_per_point_loop():
    rng = np.random.Generator(np.random.PCG64(8))
    for k in (5, 8):
        model = mean_value_model(k)
        grid = uniform_grid(model, 200)
        tables = estimate_conditionals(model, grid, ORACLE)
        for m in range(k - 1):
            quits = sorted(float(y) for y in rng.uniform(0.0, 1.0, m))
            loop = np.array([_stage_rule(k, x, quits, x) for x in grid])
            bf = bid_canonical_english(model, quits, tables)
            assert bf.format == f"canon-{m}"
            assert np.array_equal(bf.bids, loop), (k, m)


def test_v_stage_shared_and_per_sample_quits_agree():
    v_stage = mean_value_model(6).closed_forms["v_stage"]
    x = np.linspace(0.0, 1.0, 33)
    for quits in ([], [0.2], [0.1, 0.4, 0.45]):
        rows = np.broadcast_to(np.asarray(quits, dtype=float), (len(x), len(quits)))
        assert np.array_equal(v_stage(x, quits, x), v_stage(x, rows, x))


def _loop_tables(model, grid, oracle):
    """The Monte Carlo tables one grid cell at a time (the former loop)."""
    g = len(grid)
    rng = np.random.Generator(np.random.PCG64(oracle.seed))
    values, signals = model.sample(rng, oracle.samples)
    x1 = signals[:, 0]
    y1 = signals[:, 1:].max(axis=1)
    h = (model.hi - model.lo) / g
    cell = np.clip(np.digitize(x1, model.lo + h * np.arange(g + 1)) - 1, 0, g - 1)
    cols = {c: np.full(g, np.nan) for c in
            ("v", "v_upper", "v_lower", "f_y1", "F_y1",
             "v_se", "v_upper_se", "v_lower_se", "f_y1_se", "F_y1_se")}
    empty = []

    def put(col, i, arr):
        cols[col][i] = np.mean(arr)
        cols[col + "_se"][i] = np.std(arr, ddof=1) / np.sqrt(len(arr)) \
            if len(arr) > 1 else np.inf

    for i, x in enumerate(grid):
        mask = cell == i
        n = int(mask.sum())
        if n == 0:
            empty.append(("all", i))
            continue
        vv, yy = values[mask], y1[mask]
        put("v", i, vv)
        lower, upper = yy <= x, yy >= x
        if lower.any():
            put("v_upper", i, vv[lower])
        else:
            empty.append(("v_upper", i))
        if upper.any():
            put("v_lower", i, vv[upper])
        else:
            empty.append(("v_lower", i))
        put("F_y1", i, lower.astype(float))
        bw = 1.06 * max(float(np.std(yy)), 1e-3) * n ** (-0.2)
        put("f_y1", i, np.exp(-0.5 * ((yy - x) / bw) ** 2) / (bw * np.sqrt(2 * np.pi)))
    return cols, empty


@pytest.mark.parametrize("model, g, oracle", [
    (wallet_model(), 200, OracleConfig(seed=1)),
    (mean_value_model(3), 200, OracleConfig(seed=1)),
    (mean_value_model(5), 5_000, OracleConfig(samples=10_000, seed=2)),
], ids=["wallet", "mean3", "sparse"])
def test_monte_carlo_tables_match_per_cell_loop(model, g, oracle):
    grid = uniform_grid(model, g)
    tables = estimate_conditionals(model, grid, oracle, use_closed_forms=False)
    cols, empty = _loop_tables(model, grid, oracle)
    assert tables.empty_cells == empty
    for col, ref in cols.items():
        got = getattr(tables, col)
        assert np.array_equal(np.isnan(got), np.isnan(ref)), col
        assert np.array_equal(np.isinf(got), np.isinf(ref)), col
        fin = np.isfinite(ref)
        assert np.all(np.abs(got[fin] - ref[fin]) <= 1e-12), col
    if g == 5_000:
        # the sparse grid must exercise empty cells, and one-draw cells
        # where standard errors are reported
        assert any(kind == "all" for kind, _ in empty)
        assert np.isinf(cols["v_se"]).any()


def test_orderings_one_draw_cells_do_not_overflow():
    model = mean_value_model(3)
    tables = estimate_conditionals(model, uniform_grid(model, 200), OracleConfig(seed=1),
                                   use_closed_forms=False)
    assert np.isinf(tables.v_lower_se).any()  # a one-draw Monte Carlo cell
    bids = (solve_first_price(model, tables), solve_dutch(model, tables),
            bid_second_price(model, tables), bid_silent_english(model, tables))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = verify_orderings(model, tables, *bids)
    assert len(report.checks_run) == 4


def _scalar_ode_bid(model, tables, target_col, fmt):
    """The bidding ODE with the right-hand side evaluated per RK4 stage on
    scalars (the former ``_ode_bid`` and ``_integrate_ode``)."""
    grid = tables.grid
    lo = model.lo
    delta = (model.hi - model.lo) / (10.0 * len(grid))
    target_all = getattr(tables, target_col)
    tmask = np.isfinite(target_all)
    tgrid, target = grid[tmask], target_all[tmask]
    fmask = np.isfinite(tables.f_y1) & np.isfinite(tables.F_y1)
    log_x = np.log(grid[fmask] - lo)
    log_f = np.log(np.maximum(tables.f_y1[fmask], 1e-300))
    log_F = np.log(np.maximum(tables.F_y1[fmask], 1e-300))
    h = (grid[1] - grid[0]) if len(grid) > 1 else (model.hi - model.lo)
    rate_cap = 1.0 / h

    def rate_at(x):
        u = np.log(max(x - lo, 1e-12))
        lf = float(np.interp(u, log_x, log_f))
        lF = float(np.interp(u, log_x, log_F))
        return float(np.exp(lf - max(lF, np.log(1e-30))))

    def rhs(x, b):
        tv = float(np.interp(x, tgrid, target))
        rate = min(rate_at(x), rate_cap)
        return (tv - b) * rate

    if len(tgrid) > 1:
        slope0 = (target[1] - target[0]) / (tgrid[1] - tgrid[0])
        b0 = float(target[0] + slope0 * (lo - tgrid[0]))
    else:
        slope0, b0 = 0.0, float(target[0])
    s = lo + delta
    while rate_at(s) * h > 1.5 and s < grid[-1]:
        s += delta
    m_hat = min(max(rate_at(s) * (s - lo), 0.5), 10.0)
    b = start_b = b0 + slope0 * (s - lo) * m_hat / (m_hat + 1.0)
    out = np.empty(len(grid))
    pos = 0
    for x in grid:
        if x <= s:
            out[pos] = start_b
            pos += 1
    cur_x = s
    for x in [float(x) for x in grid if x > s]:
        hstep = x - cur_x
        k1 = rhs(cur_x, b)
        k2 = rhs(cur_x + hstep / 2, b + hstep * k1 / 2)
        k3 = rhs(cur_x + hstep / 2, b + hstep * k2 / 2)
        k4 = rhs(cur_x + hstep, b + hstep * k3)
        b = b + hstep * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        cur_x = x
        out[pos] = b
        pos += 1
    bf = BidFunction(fmt, grid, out)
    bf.boundary_value = b0
    bf.start_x = s
    bf.notes.append(f"boundary b({lo}) = {b0:.6g}, start offset {s - lo:.3g}")
    return bf


def _loop_silent_english(tables):
    """The silent English quit rule: quit at v_lower(x, x), noting a column
    that is not increasing."""
    vals = tables.v_lower.copy()
    bf = BidFunction("silent", tables.grid, vals, se=tables.v_lower_se.copy())
    if not bf.monotone:
        bf.notes.append("v_lower(x, x) is not increasing: theorem premise fails")
    return bf


def _same_bids(got, ref):
    assert got.bids.tobytes() == ref.bids.tobytes()
    assert (got.format, got.start_x, got.boundary_value, got.notes, got.monotone) \
        == (ref.format, ref.start_x, ref.boundary_value, ref.notes, ref.monotone)


def _bid_cases():
    for model in (wallet_model(), mean_value_model(3), mean_value_model(5)):
        for g in (50, 200, 1000):
            grid = uniform_grid(model, g)
            yield f"{model.name}-{g}-closed", model, estimate_conditionals(model, grid, ORACLE)
            for seed in (1, 2):
                yield (f"{model.name}-{g}-mc{seed}", model,
                       estimate_conditionals(model, grid, OracleConfig(seed=seed),
                                             use_closed_forms=False))
    sparse = mean_value_model(5)
    tables = estimate_conditionals(sparse, uniform_grid(sparse, 5_000),
                                   OracleConfig(samples=10_000, seed=2), use_closed_forms=False)
    assert tables.empty_cells
    yield "mean-value-5-5000-sparse", sparse, tables


@pytest.fixture(scope="module")
def bid_cases():
    return list(_bid_cases())


def test_ode_bids_match_scalar_rk4(bid_cases):
    for name, model, tables in bid_cases:
        for solve, col, fmt in ((solve_first_price, "v", "1P"),
                                (solve_dutch, "v_upper", "dutch")):
            ref = _scalar_ode_bid(model, tables, col, fmt)
            if fmt == "dutch":
                ref.notes.append("waiting condition checked by verify_orderings ODE comparison")
            _same_bids(solve(model, tables), ref)


def test_silent_english_matches_per_quit_price_loop(bid_cases):
    monotone = 0
    for name, model, tables in bid_cases:
        got = bid_silent_english(model, tables)
        _same_bids(got, _loop_silent_english(tables))
        monotone += got.monotone
    assert monotone >= 9  # the closed-form tables meet the premise


@pytest.mark.parametrize("g", [2, 7, 200, 5_000])
@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.5, 2.25)])
def test_signal_cells_match_digitize(g, lo, hi):
    edges = lo + (hi - lo) / g * np.arange(g + 1)
    rng = np.random.Generator(np.random.PCG64(g))
    x = np.concatenate([rng.uniform(lo, hi, 20_000), edges,
                        np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                        [lo, hi, lo - 1.0, hi + 1.0]])
    want = np.clip(np.digitize(x, edges) - 1, 0, g - 1)
    assert np.array_equal(_signal_cells(x, lo, hi, g), want)


@pytest.mark.parametrize("k", [2, 3, 5, 9])
def test_highest_rival_matches_the_row_max(k):
    """The column-wise maximum of the rivals' signals is the row maximum,
    bit for bit (a maximum rounds nothing), ties and repeats included."""
    _, signals = mean_value_model(k).sample(np.random.Generator(np.random.PCG64(k)), 20_000)
    signals[::7, -1] = signals[::7, 1]
    assert np.array_equal(_highest_rival(signals), signals[:, 1:].max(axis=1))


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


# few values, so rows tie often, with sums that round differently by order
TIE_VALUES = (0.1, 0.2, 0.3, 0.7, 3.0, -2.5, 1e16, -1e16)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.integers(1, 20), st.data())
def test_row_helpers_match_the_row_reductions(width, n, data):
    """The column-wise row sort is ``np.sort`` along the rows bit for bit;
    the column-wise row sum is Python's left-to-right ``sum(row)`` at every
    width, and numpy's row sum below 8 columns."""
    cells = data.draw(st.lists(st.sampled_from(TIE_VALUES), min_size=width * n,
                               max_size=width * n))
    x = np.array(cells).reshape(n, width)
    srt = _sorted_columns(x)
    assert srt.shape == (width, n) and srt.flags.c_contiguous
    assert np.array_equal(_bits(srt), _bits(np.sort(x, axis=1).T))
    total = _row_sum(x)
    assert np.array_equal(_bits(total), _bits([sum(row) for row in x.tolist()]))
    if width < 8:
        assert np.array_equal(_bits(total), _bits(x.sum(axis=1)))


@pytest.mark.parametrize("family, k", [(wallet_model, 1), (mean_value_model, 1),
                                       (mean_value_model, 0)])
def test_signal_model_needs_two_bidders(family, k):
    with pytest.raises(ValueError, match=f"model .*-{k} needs at least 2 bidders"):
        family(k)
    with pytest.raises(ValueError, match="needs at least 2 bidders"):
        winner_curse_experiment(family, [k])


def _one_shot_winner_payoff(k, oracle):
    """The winner's payoff of k mean-value bidders from one draw of all
    samples, with row sorts and row sums (the former experiment body)."""
    rng = np.random.Generator(np.random.PCG64(oracle.seed + k))
    x = rng.uniform(0.0, 1.0, size=(oracle.samples, k))
    srt = np.sort(x, axis=1)
    second = srt[:, -2]
    prices = (second + srt[:, :-2].sum(axis=-1) + (1.0 + second) / 2.0) / k
    payoffs = x.mean(axis=1) - prices
    return float(payoffs.mean()), float(payoffs.std(ddof=1) / np.sqrt(len(payoffs)))


@pytest.mark.parametrize("samples", [10_000, 10_001, 2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 1])
def test_blocked_winner_payoff_matches_one_shot(samples):
    """Blocks of draws from one stream give the one-shot payoff, bit for bit
    up to 7 bidders, whose rows numpy sums left to right as the blocks do;
    from 8 up numpy sums pairwise, within 1e-15.  The last size leaves a
    one-row tail block."""
    oracle = OracleConfig(samples=samples, seed=11)
    for k in range(2, 10):
        row, = winner_curse_experiment(mean_value_model, [k], oracle)
        mean, se = _one_shot_winner_payoff(k, oracle)
        assert row.draws == samples
        if k < 8:
            assert (row.mean_payoff, row.se) == (mean, se), k
        else:
            assert abs(row.mean_payoff - mean) <= 1e-15 and abs(row.se - se) <= 1e-15, k
