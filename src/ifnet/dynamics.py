"""Exact event-driven dynamics: flow, waiting times, avalanches, return map.

Between firings every potential relaxes toward beta along

    flow_i(v, t) = (v_i - beta) * exp(-gamma t) + beta,

so the first neuron to reach theta is the one with the largest potential and
its firing time has the closed form t_i = ln((beta - v_i)/(beta - theta))/gamma.
The state of the network at that instant is evaluated in ratio form (see
state_at_threshold), which bypasses the exp/log round trip entirely; the
logarithm is only ever used to report the waiting time itself.

A firing instant triggers an instantaneous avalanche: spikes add their
positive jumps to not-yet-fired neurons, possibly driving them over theta in
synchronous rounds (fired neurons can neither refire nor receive at the same
instant).  The return map resets the fired set to 0 and applies the jumps of
both signs to everyone else, floored at alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import PreconditionFailed, RejectConfig
from .params import NetworkParams

__all__ = [
    "flow", "state_at_threshold", "return_map", "orbit", "grid_rows",
    "sample_trajectory", "antiphase_state", "ReturnStep", "OrbitStep", "as_state", "MAX_TRAJECTORY_ROWS",
]

MAX_TRAJECTORY_ROWS = 10**6  # rows one trajectory may have: grid rows plus two per firing


def as_state(params: NetworkParams, v) -> np.ndarray:
    """Coerce and range-check a section-box state (alpha <= v_i <= theta)."""
    arr = np.array(v, dtype=np.float64, copy=True).reshape(-1)
    if arr.shape != (params.n,):
        raise PreconditionFailed(f"state must have length {params.n}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise PreconditionFailed("state contains non-finite entries")
    if np.any(arr > params.theta):
        raise PreconditionFailed("state has a coordinate above threshold")
    if np.any(arr < params.alpha):
        raise PreconditionFailed("state has a coordinate below the floor alpha")
    return arr


def flow(params: NetworkParams, v, t: float) -> np.ndarray:
    """Sub-threshold time-t map, componentwise (v_i - beta) e^{-gamma t} + beta."""
    arr = np.asarray(v, dtype=np.float64)
    if t == 0.0:
        return arr.copy()  # exact identity, not the one-ulp add/subtract round trip
    return (arr - params.beta) * math.exp(-params.gamma * t) + params.beta


def state_at_threshold(params: NetworkParams, v, i: int) -> np.ndarray:
    """Network state at the instant neuron i reaches theta, in ratio form.

    Component i is assigned theta exactly; every other component k is
    beta - (beta - v_k)(beta - theta)/(beta - v_i).
    """
    arr = as_state(params, v)
    vmax = float(arr.max())
    if arr[i] < vmax - params.tie_tol():
        raise PreconditionFailed(f"neuron {i} does not attain the minimal firing time")
    out = params.beta - (params.beta - arr) * ((params.beta - params.theta) / (params.beta - arr[i]))
    out[i] = params.theta
    return out


@dataclass
class ReturnStep:
    """One application of the return map."""

    state: np.ndarray       # post-firing state, back on the section
    fired: np.ndarray       # sorted indices of the full firing set J
    t_bar: float            # waiting time before the firing instant
    spontaneous: np.ndarray  # sorted indices of J0, the spontaneous firers
    rounds: int             # avalanche depth


def return_map(params: NetworkParams, v) -> ReturnStep:
    """Apply the return map to the section state v.

    t_bar is the waiting time before the first spontaneous firing.  J0 holds
    the indices whose potential ties the maximum within the tie tolerance
    (t_i is monotone in v_i, so time-ties and potential-ties coincide).  The
    full firing set J adds the neurons the avalanche recruits; only positive
    interactions count toward the firing decision, and rounds is 0 when
    nobody beyond J0 fires.
    """
    arr = as_state(params, v)
    out, fired, vmax, rounds = _kernels.step_batch(params, arr)
    return ReturnStep(
        state=out, fired=np.flatnonzero(fired), t_bar=float(_kernels.wait_times(params, vmax)),
        spontaneous=np.flatnonzero(arr >= vmax - params.tie_tol()), rounds=rounds,
    )


@dataclass
class OrbitStep:
    state: np.ndarray
    fired: np.ndarray
    t_bar: float
    cum_time: float


def orbit(params: NetworkParams, v0, n_steps: int) -> list[OrbitStep]:
    """n_steps successive return-map applications with running spike times."""
    states, fired, t_bars = _kernels.run_orbit(params, as_state(params, v0), int(n_steps))
    cum = np.cumsum(t_bars)
    return [
        OrbitStep(state=states[k], fired=np.flatnonzero(fired[k]), t_bar=float(t_bars[k]), cum_time=float(cum[k]))
        for k in range(int(n_steps))
    ]


def grid_rows(dt: float, t_total: float) -> int:
    """Rows of the dt grid on [0, t_total]: floor(t_total/dt + 1e-9) + 1.

    The slack keeps a last grid point that k*dt overshoots by rounding, such
    as 3*0.1 for t_total 0.3.  Raises RejectConfig above MAX_TRAJECTORY_ROWS.
    """
    ratio = t_total / dt + 1e-9
    if not ratio < MAX_TRAJECTORY_ROWS:  # inf and nan included
        raise RejectConfig(f"t_total/dt asks for more than {MAX_TRAJECTORY_ROWS} trajectory rows")
    return math.floor(ratio) + 1


def sample_trajectory(params: NetworkParams, v0, dt: float, t_total: float):
    """Piecewise reconstruction of the continuous trajectory on a dt grid.

    Returns (times, values, post_spike).  Grid row k sits at exactly k*dt,
    for k below grid_rows(dt, t_total).  Within each inter-spike interval the
    rows follow the flow from the last post-firing state; each firing instant
    contributes two rows, the left limit (post_spike=0, firing coordinates at
    theta) followed by the right limit (post_spike=1, the reset state), so
    the discontinuity is explicit in the output, and replaces any grid row
    within 1e-15 of it.  Raises RejectConfig once the rows are bound to exceed
    MAX_TRAJECTORY_ROWS.
    """
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


def antiphase_state(params: NetworkParams) -> tuple[np.ndarray, float]:
    """Closed-form anti-phase period-2 state of uniform excitatory networks.

    For n = 2k neurons all coupled with the same weight w > 0, the state with
    half the potentials at beta - x and half at 0, where

        x = (sqrt(Hagg^2 + 4 beta (beta - theta)) - Hagg)/2,   Hagg = k*w,

    is periodic of period two provided Hagg < theta.  Returns (state, x).
    """
    n = params.n
    if n % 2 != 0:
        raise PreconditionFailed("anti-phase state needs an even number of neurons")
    off = params.H[~np.eye(n, dtype=bool)]
    w = float(off[0]) if off.size else 0.0
    if w <= 0 or not np.all(off == w):
        raise PreconditionFailed("anti-phase state needs uniform positive coupling")
    h_agg = w * (n // 2)
    if h_agg >= params.theta:
        raise PreconditionFailed("aggregate coupling must stay below theta")
    beta, theta = params.beta, params.theta
    x = 0.5 * (math.sqrt(h_agg * h_agg + 4.0 * beta * (beta - theta)) - h_agg)
    v = np.zeros(n)
    v[: n // 2] = beta - x
    return v, x
