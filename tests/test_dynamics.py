import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifnet import (
    PreconditionFailed,
    RejectConfig,
    antiphase_state,
    _kernels,
    dynamics,
    flow,
    load_config,
    network,
    return_map,
    sample_trajectory,
    state_at_threshold,
)
from ifnet.dynamics import MAX_TRAJECTORY_ROWS, as_state, grid_rows


def bisect_firing_time(p, vi, t_hi=50.0):
    """Independent oracle: solve (vi - beta) e^{-gamma t} + beta = theta by bisection."""
    if vi >= p.theta:
        return 0.0
    lo, hi = 0.0, t_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = (vi - p.beta) * math.exp(-p.gamma * mid) + p.beta
        if val < p.theta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brute_force_firing_set(p, v, tie_tol=None):
    """Least fixed point over all subsets, built on the exp-route flow."""
    n = p.n
    tie = tie_tol if tie_tol is not None else p.tie_tol()
    vmax = max(v)
    j0 = frozenset(i for i in range(n) if v[i] >= vmax - tie)
    t_bar = bisect_firing_time(p, vmax)
    phi = (np.asarray(v) - p.beta) * math.exp(-p.gamma * t_bar) + p.beta

    def closure(S):
        add = set()
        for k in range(n):
            if k in S:
                continue
            s = phi[k] + sum(p.H[j, k] for j in S if p.H[j, k] > 0)
            if s >= p.theta:
                add.add(k)
        return frozenset(S | add)

    fixed = []
    for mask in range(1 << n):
        S = frozenset(i for i in range(n) if mask >> i & 1)
        if j0 <= S and closure(S) == S:
            fixed.append(S)
    least = min(fixed, key=len)
    assert all(least <= S for S in fixed)  # least fixed point is unique
    return least


# ---------------------------------------------------------------- flow


def test_flow_identity_at_zero(net_a):
    v = np.array([0.3, -0.2])
    assert np.array_equal(flow(net_a, v, 0.0), v)


def test_flow_fixed_point_at_beta(net_a):
    v = np.full(2, net_a.beta)
    for t in (0.1, 1.0, 7.5):
        assert flow(net_a, v, t) == pytest.approx([1.2, 1.2], abs=1e-15)


def test_flow_reaches_theta_at_log6(net_a):
    # from 0, the threshold is hit at t = ln 6 for beta=1.2, theta=1
    out = flow(net_a, np.zeros(2), math.log(6.0))
    assert out == pytest.approx([1.0, 1.0], rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(0.0, 5.0, allow_nan=False),
    t=st.floats(0.0, 5.0, allow_nan=False),
    v=st.floats(-1.0, 1.0, allow_nan=False),
)
def test_flow_semigroup(net_a, s, t, v):
    arr = np.array([v, 0.0])
    a = flow(net_a, flow(net_a, arr, s), t)
    b = flow(net_a, arr, s + t)
    assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


# ---------------------------------------------------------------- waiting time


def test_spontaneous_time_closed_form(net_a):
    step = return_map(net_a, [0.9, 0.0])
    assert step.t_bar == pytest.approx(math.log(1.5), rel=1e-14)
    assert list(step.spontaneous) == [0]
    assert step.t_bar == pytest.approx(bisect_firing_time(net_a, 0.9), abs=1e-11)


def test_spontaneous_time_at_threshold(net_a):
    step = return_map(net_a, [1.0, 0.2])
    assert step.t_bar == 0.0
    assert 0 in step.spontaneous


def test_spontaneous_tie(net_c):
    assert list(return_map(net_c, [0.5, 0.5, 0.2]).spontaneous) == [0, 1]


def test_rejects_above_threshold(net_a):
    with pytest.raises(PreconditionFailed):
        return_map(net_a, [1.1, 0.0])
    with pytest.raises(PreconditionFailed):
        return_map(net_a, [0.5, -1.2])


# ---------------------------------------------------------------- threshold state


def test_state_at_threshold_fixture(net_a):
    out = state_at_threshold(net_a, [0.9, 0.0], 0)
    assert out[0] == 1.0
    assert out[1] == pytest.approx(1.2 - 1.2 * 0.2 / 0.3, rel=1e-15)  # 0.4


def test_state_at_threshold_t0(net_a):
    out = state_at_threshold(net_a, [1.0, 0.37], 0)
    assert out[0] == 1.0 and out[1] == pytest.approx(0.37, abs=1e-15)


def test_state_at_threshold_three(net_c):
    out = state_at_threshold(net_c, [0.4, 0.0, 0.2], 0)
    assert out == pytest.approx([1.0, 0.9, 0.95], abs=1e-15)


def test_state_at_threshold_matches_flow_oracle(net_c):
    rng = np.random.default_rng(7)
    for _ in range(200):
        v = rng.uniform(net_c.alpha, net_c.theta, 3)
        v[rng.integers(3)] = 0.0
        i = int(np.argmax(v))
        t_star = bisect_firing_time(net_c, float(v[i]))
        ref = flow(net_c, v, t_star)
        out = state_at_threshold(net_c, v, i)
        assert np.max(np.abs(out - ref)) <= 1e-10


# ---------------------------------------------------------------- avalanche


def test_avalanche_net_c_full_cascade(net_c):
    step = return_map(net_c, [0.4, 0.0, 0.2])
    assert list(step.fired) == [0, 1, 2]
    assert step.rounds == 1


def test_avalanche_inhibitory_only(net_d):
    step = return_map(net_d, [0.4, 0.0])
    assert list(step.fired) == [0]
    assert step.rounds == 0


def test_avalanche_net_a_no_recruitment(net_a):
    step = return_map(net_a, [0.9, 0.0])
    assert list(step.fired) == [0]  # 0.4 + 0.5 = 0.9 < theta
    assert step.rounds == 0


def test_avalanche_matches_brute_force_small():
    rng = np.random.default_rng(42)
    for n in (2, 3, 4, 5):
        for _ in range(60):
            H = rng.uniform(-1.0, 1.2, (n, n))
            p = network(n, 1.0, 1.2, 1.0, -1.0, H)
            v = rng.uniform(-1.0, 1.0, n)
            v[rng.integers(n)] = 0.0
            step = return_map(p, v)
            assert frozenset(int(i) for i in step.fired) == brute_force_firing_set(p, v)
            assert step.rounds <= n


# ---------------------------------------------------------------- return map


def test_return_map_period_two(net_a):
    st1 = return_map(net_a, [0.9, 0.0])
    assert st1.state == pytest.approx([0.0, 0.9], abs=1e-14)
    assert list(st1.fired) == [0]
    assert st1.t_bar == pytest.approx(math.log(1.5), rel=1e-14)
    st2 = return_map(net_a, st1.state)
    assert st2.state == pytest.approx([0.9, 0.0], abs=1e-13)
    assert list(st2.fired) == [1]


def test_return_map_net_c_inhibitory(net_c):
    st = return_map(net_c, [0.0, 0.4, 0.2])
    assert st.state == pytest.approx([0.3, 0.0, 0.35], abs=1e-14)
    assert list(st.fired) == [1]
    # waiting time from potential 0.4: ln((1.2-0.4)/0.2) = ln 4
    assert st.t_bar == pytest.approx(math.log(4.0), rel=1e-14)


def test_return_map_floor_clamp():
    p = network(2, 1.0, 1.2, 1.0, -1.0, [[0.0, -1.8], [0.0, 0.0]])
    st = return_map(p, [0.9, -0.5])
    assert st.state[1] == p.alpha  # phi + H < alpha clamps at the floor


def test_return_map_range_invariants(net_c):
    rng = np.random.default_rng(3)
    for _ in range(300):
        v = rng.uniform(net_c.alpha, net_c.theta, 3)
        v[rng.integers(3)] = 0.0
        st = return_map(net_c, v)
        assert np.any(st.state == 0.0)
        assert np.all(st.state >= net_c.alpha)
        assert np.all(st.state < net_c.theta)
        assert set(st.spontaneous) <= set(st.fired)
        # non-fired neurons were genuinely below threshold at the instant
        phi = state_at_threshold(net_c, v, int(st.spontaneous[0]))
        for k in range(3):
            if k not in st.fired:
                pos = sum(net_c.H[j, k] for j in st.fired if net_c.H[j, k] > 0)
                assert phi[k] + pos < net_c.theta


# ---------------------------------------------------------------- orbit


def test_run_orbit_alternates(net_a):
    states, _, t_bars = _kernels.run_orbit(net_a, as_state(net_a, [0.9, 0.0]), 4)
    assert states[0] == pytest.approx([0.0, 0.9], abs=1e-13)
    assert states[1] == pytest.approx([0.9, 0.0], abs=1e-13)
    assert states[3] == pytest.approx([0.9, 0.0], abs=1e-12)
    for t_bar in t_bars:
        assert t_bar == pytest.approx(math.log(1.5), rel=1e-12)


def test_run_orbit_zero_vector_fixed_point(net_a):
    states, fired, _ = _kernels.run_orbit(net_a, np.zeros(2), 1)
    assert np.array_equal(states[0], np.zeros(2))
    assert list(np.flatnonzero(fired[0])) == [0, 1]


# ---------------------------------------------------------------- README


def test_readme_quick_start_runs():
    # the README's library example, with the results its comments state
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    assert scope["step"].state == pytest.approx([0.0, 0.9], abs=1e-13)
    assert list(scope["step"].fired) == [0]
    assert scope["fate"].outcome == "cycle" and scope["fate"].cycle.period == 2
    # the all-excitatory net_a has no certificate: its period-2 orbit stays uncertified
    assert not scope["fate"].cycle.certified and scope["fate"].cycle.itinerary == ("J:1", "J:2")


# ---------------------------------------------------------------- trajectory


def test_trajectory_fixed_network_follows_flow(net_a):
    times, values, post = sample_trajectory(net_a, np.zeros(2), 0.05, 1.0)
    for t, row, flag in zip(times, values, post):
        if flag == 0 and t < math.log(6.0):
            ref = (0.0 - 1.2) * math.exp(-t) + 1.2
            assert row == pytest.approx([ref, ref], rel=1e-12)


def test_trajectory_emits_pre_post_pair(net_a):
    times, values, post = sample_trajectory(net_a, [0.9, 0.0], 0.1, 1.0)
    t_fire = math.log(1.5)
    hits = [k for k, t in enumerate(times) if abs(t - t_fire) < 1e-12]
    assert len(hits) == 2
    k = hits[0]
    assert post[k] == 0 and post[k + 1] == 1
    assert values[k][0] == net_a.theta           # left limit at threshold
    assert values[k + 1][0] == 0.0               # right limit reset


def test_trajectory_first_discontinuity_time(net_a):
    times, _, post = sample_trajectory(net_a, [0.9, 0.0], 0.01, 2.0)
    first = times[np.argmax(post == 1)]
    assert first == pytest.approx(math.log(1.5), rel=1e-12)


def _grid_times(times, post):
    """Times of the grid rows: post_spike 0 rows that are not a left limit."""
    events = set(times[post == 1].tolist())
    return [t for t in times[post == 0].tolist() if t not in events]


@pytest.mark.parametrize("dt, t_total, last_k", [(0.01, 20.0, 2000), (0.1, 0.3, 3)])
def test_trajectory_grid_is_k_dt(net_c, dt, t_total, last_k):
    times, _, post = sample_trajectory(net_c, [0.0, 0.85, 0.03], dt, t_total)
    grid = _grid_times(times, post)
    ks = [round(t / dt) for t in grid]
    assert grid == [k * dt for k in ks]
    assert ks == sorted(set(ks)) and ks[0] == 0 and ks[-1] == last_k
    assert times[-1] == last_k * dt


def test_trajectory_row_limit_counts_two_rows_per_firing(monkeypatch):
    # gamma = 1e3 on net_c: 11 grid rows, and every firing adds two more
    p = network(3, 1e3, 1.2, 1.0, -1.0, [[0.0, 0.6, 0.6], [-0.6, 0.0, -0.6], [-0.6, -0.6, 0.0]])
    times, values, post = sample_trajectory(p, np.zeros(3), 0.1, 1.0)
    assert len(times) > 100 * 11
    monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_ROWS", len(times))
    again = sample_trajectory(p, np.zeros(3), 0.1, 1.0)
    assert np.array_equal(again[0], times) and np.array_equal(again[1], values)
    monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_ROWS", len(times) - 1)
    with pytest.raises(RejectConfig, match="two per firing"):
        sample_trajectory(p, np.zeros(3), 0.1, 1.0)


# ---------------------------------------------------------------- trajectory oracle

# mixed8: the n=8 Dale network of the golden cases
MIXED8 = load_config(str(Path(__file__).resolve().parent / "golden" / "mixed8.json")).params


# The former `sample_trajectory`, one `return_map` call per firing, kept as the
# oracle of the one that reads the firings off a `run_orbit` orbit.
def reference_trajectory(params, v0, dt: float, t_total: float):
    if dt <= 0:
        raise PreconditionFailed("dt must be positive")
    cur = as_state(params, v0)
    n_rows = grid_rows(dt, t_total)
    grid = np.arange(n_rows) * dt
    times, rows, post = [grid[:1]], [cur[None]], [[0]]
    t_event = 0.0
    k = 1  # next grid row
    while t_event < t_total:
        step = return_map(params, cur)
        t_fire = t_event + step.t_bar
        end = max(k, int(np.searchsorted(grid, t_fire - 1e-15)))
        # the same operations as `flow`, one interval at a time
        e = np.array([math.exp(-params.gamma * (t - t_event)) for t in grid[k:end].tolist()])
        times.append(grid[k:end])
        rows.append((cur - params.beta) * e[:, None] + params.beta)
        post.append([0] * (end - k))
        if t_fire > t_total:
            break
        # left limit: spontaneous firers sit exactly at theta, recruited
        # neurons are still at their flowed value just before the jumps
        left = state_at_threshold(params, cur, int(step.spontaneous[0]))
        left[step.spontaneous] = params.theta
        times.append([t_fire, t_fire])
        rows.append([left, step.state])
        post.append([0, 1])
        n_rows += 2
        # a firing resets a neuron to 0, so each later wait is at most T_max: the rows
        # are bound to exceed when n_rows + 2*floor((t_total - t_fire)/T_max) does
        if t_total - t_fire >= ((MAX_TRAJECTORY_ROWS - n_rows) // 2 + 1) * params.constants.T_max:
            raise RejectConfig(f"the trajectory has more than {MAX_TRAJECTORY_ROWS} rows with two per firing")
        k = max(end, int(np.searchsorted(grid, t_fire + 1e-15, side="right")))
        cur = step.state
        t_event = t_fire
    return np.concatenate(times), np.concatenate(rows), np.concatenate(post).astype(np.int8)


def outcome(fn, *args):
    """The dtype, shape and bytes of each array fn returns, or the type and message
    of the error it raises."""
    try:
        return [(a.dtype, a.shape, a.tobytes()) for a in fn(*args)]
    except (PreconditionFailed, RejectConfig) as exc:
        return type(exc), str(exc)


@st.composite
def trajectory_cases(draw):
    p = draw(st.sampled_from(["net_a", "net_c", "mixed8"]))
    n = {"net_a": 2, "net_c": 3, "mixed8": 8}[p]
    coordinate = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.9]))
    v0 = draw(st.lists(coordinate, min_size=n, max_size=n))
    dt = draw(st.one_of(st.floats(0.003, 3.0), st.sampled_from([0.01, 0.05, 0.1, 1.0])))
    max_iter = draw(st.one_of(st.none(), st.integers(1, 3), st.integers(4, 200)))
    return p, v0, dt, max_iter


@settings(max_examples=150, deadline=None)
@given(case=trajectory_cases(), data=st.data())
def test_trajectory_equals_the_return_map_loop(net_a, net_c, case, data):
    """Byte for byte, with or without an orbit, shorter or longer than the firings
    t_total needs, with t_total at a firing instant and grid rows within 1e-15 of one."""
    name, v0, dt, max_iter = case
    p = {"net_a": net_a, "net_c": net_c, "mixed8": MIXED8}[name]
    firings = np.cumsum(_kernels.run_orbit(p, as_state(p, v0), 40)[2])[:6].tolist()
    t_total = data.draw(st.one_of(st.floats(0.0, 25.0), st.sampled_from([0.0, *firings])))
    if data.draw(st.booleans()):  # k*dt at a firing instant, or an ulp or two off it
        dt = data.draw(st.sampled_from([t for t in firings if t > 0] or [dt])) / data.draw(st.integers(1, 50))
    orbit = None if max_iter is None else _kernels.run_orbit(p, as_state(p, v0), max_iter)
    assert outcome(sample_trajectory, p, v0, dt, t_total, orbit) == outcome(reference_trajectory, p, v0, dt, t_total)


def test_trajectory_equals_the_return_map_loop_on_the_edges_case():
    """The `simulate_net_c_edges` golden arguments: V0 at theta and -0.0, seven returns."""
    cfg = load_config(str(Path(__file__).resolve().parent / "golden" / "net_c_edges.json"))
    want = outcome(reference_trajectory, cfg.params, cfg.v0, 0.05, 3.0)
    for max_iter in (1, 7, 40):
        orbit = _kernels.run_orbit(cfg.params, cfg.v0, max_iter)
        assert outcome(sample_trajectory, cfg.params, cfg.v0, 0.05, 3.0, orbit) == want


def test_trajectory_rejects_a_negative_t_total(net_c):
    with pytest.raises(PreconditionFailed, match="t_total"):
        sample_trajectory(net_c, np.zeros(3), 0.1, -5.0)


def test_trajectory_rejects_an_infinite_dt(net_c):
    with pytest.raises(PreconditionFailed, match="dt"):
        sample_trajectory(net_c, np.zeros(3), math.inf, 1.0)


@pytest.mark.parametrize("dt, t_total", [(math.nan, 1.0), (0.1, math.nan)], ids=["dt", "t_total"])
def test_trajectory_rejects_nan(net_c, dt, t_total):
    with pytest.raises(PreconditionFailed, match="dt" if math.isnan(dt) else "t_total"):
        sample_trajectory(net_c, np.zeros(3), dt, t_total)


# ---------------------------------------------------------------- anti-phase family


@pytest.mark.parametrize("k", [1, 2, 3])
def test_antiphase_extended_family(k):
    H_total = 0.5
    n = 2 * k
    w = H_total / k
    H = np.full((n, n), w)
    np.fill_diagonal(H, 0.0)
    p = network(n, 1.0, 1.2, 1.0, -1.0, H)
    v0, x = antiphase_state(p)
    assert x == pytest.approx(0.3, abs=1e-14)  # H=0.5 has the exact closed form
    two = return_map(p, return_map(p, v0).state).state
    assert np.max(np.abs(two - v0)) <= 1e-12


def test_antiphase_rejects_odd_or_nonuniform(net_c):
    with pytest.raises(PreconditionFailed):
        antiphase_state(net_c)
