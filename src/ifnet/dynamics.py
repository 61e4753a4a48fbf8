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
    "flow", "state_at_threshold", "return_map", "grid_rows",
    "sample_trajectory", "antiphase_state", "ReturnStep", "as_state", "MAX_TRAJECTORY_ROWS",
]

MAX_TRAJECTORY_ROWS = 10**6  # rows one trajectory may have: grid rows plus two per firing


def as_state(params: NetworkParams, v) -> np.ndarray:
    """Coerce and range-check a section-box state (alpha <= v_i <= theta)."""
    arr = np.array(v, dtype=np.float64, copy=True).reshape(-1)
    if arr.shape != (params.n,):
        raise PreconditionFailed(f"state must have length {params.n}, got {arr.shape}")
    for bad, message in _state_faults(params, arr):
        if bad:
            raise PreconditionFailed(message)
    return arr


def _state_faults(params: NetworkParams, X: np.ndarray) -> list:
    """(mask, message) of each range check `as_state` makes, in its order, with
    one mask entry per state of a (..., n) batch."""
    return [(~np.isfinite(X).all(axis=-1), "state contains non-finite entries"),
            ((X > params.theta).any(axis=-1), "state has a coordinate above threshold"),
            ((X < params.alpha).any(axis=-1), "state has a coordinate below the floor alpha")]


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

    This is the library's one-state convenience entry point; the package's
    commands step whole batches through `_kernels` and do not call it.
    """
    arr = as_state(params, v)
    out, fired, vmax, rounds = _kernels.step_batch(params, arr)
    return ReturnStep(
        state=out, fired=np.flatnonzero(fired), t_bar=float(_kernels.wait_times(params, vmax)),
        spontaneous=np.flatnonzero(arr >= vmax - params.tie_tol()), rounds=rounds,
    )


def grid_rows(dt: float, t_total: float) -> int:
    """Rows of the dt grid on [0, t_total]: floor(t_total/dt + 1e-9) + 1.

    The slack keeps a last grid point that k*dt overshoots by rounding, such
    as 3*0.1 for t_total 0.3.  Raises RejectConfig above MAX_TRAJECTORY_ROWS.
    """
    ratio = t_total / dt + 1e-9
    if not ratio < MAX_TRAJECTORY_ROWS:  # inf and nan included
        raise RejectConfig(f"t_total/dt asks for more than {MAX_TRAJECTORY_ROWS} trajectory rows")
    return math.floor(ratio) + 1


def sample_trajectory(params: NetworkParams, v0, dt: float, t_total: float, orbit=None):
    """Piecewise reconstruction of the continuous trajectory on a dt grid.

    Returns (times, values, post_spike).  Grid row k sits at exactly k*dt,
    for k below grid_rows(dt, t_total).  Within each inter-spike interval the
    rows follow the flow from the last post-firing state; each firing instant
    contributes two rows, the left limit (post_spike=0, firing coordinates at
    theta) followed by the right limit (post_spike=1, the reset state), so
    the discontinuity is explicit in the output, and replaces any grid row
    within 1e-15 of it.  Raises RejectConfig once the rows are bound to exceed
    MAX_TRAJECTORY_ROWS.

    The firings are the returns of `_kernels.run_orbit` from v0.  A caller
    that holds them passes `orbit`, the (states, fired, t_bars) of
    `run_orbit(params, as_state(params, v0), m)`; `run_orbit` extends an orbit
    that ends before t_total from its last state.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise PreconditionFailed("dt must be a finite positive number")
    if not (math.isfinite(t_total) and t_total >= 0):
        raise PreconditionFailed("t_total must be a finite number, at least 0")
    cur = as_state(params, v0)
    n_grid = grid_rows(dt, t_total)
    grid = np.arange(n_grid) * dt
    states, t_fire = _firings(params, cur, t_total, n_grid, orbit)
    # the firings before t_total happen, and so does a first one at exactly t_total,
    # which ends the trajectory; else it ends with the interval that the first
    # firing after t_total cuts (t_total 0: row 0 alone)
    below = int(np.searchsorted(t_fire, t_total))
    fires = min(int(np.searchsorted(t_fire, t_total, side="right")), below + 1) if t_total > 0 else 0
    intervals = fires + (t_total > 0 and fires == below)
    _check_rows(params, t_fire[:fires], t_total, n_grid)
    t_fire = t_fire[:intervals]
    pre = np.concatenate((cur[None], states[:intervals]))[:intervals]  # the state each interval flows from
    t_start = np.concatenate(([0.0], t_fire))[:intervals]
    # interval j holds grid rows start[j]..end[j]-1: past 1e-15 after firing j-1,
    # and short of 1e-15 before firing j
    start = np.maximum(1, np.searchsorted(grid, np.concatenate(([0.0], t_fire + 1e-15))[:intervals], side="right"))
    end = np.maximum(start, np.searchsorted(grid, t_fire - 1e-15))
    counts = end - start
    interval = np.repeat(np.arange(intervals), counts)
    k = np.arange(len(interval)) + np.repeat(start - (np.cumsum(counts) - counts), counts)
    # the same operations as `flow`, one row at a time
    e = np.fromiter(map(math.exp, (-params.gamma * (grid[k] - t_start[interval])).tolist()), np.float64, len(k))
    # row 0 holds v0; interval j's rows come next, then the two rows of firing j
    rows = 1 + np.arange(len(k)) + 2 * interval
    at = 1 + np.cumsum(counts)[:fires] + 2 * np.arange(fires)
    times = np.empty(1 + len(k) + 2 * fires)
    values = np.empty((len(times), params.n))
    post = np.zeros(len(times), np.int8)
    times[0], values[0] = grid[0], cur
    times[rows] = grid[k]
    values[rows] = (pre[interval] - params.beta) * e[:, None] + params.beta
    times[at] = times[at + 1] = t_fire[:fires]
    values[at] = _left_limits(params, pre[:fires])
    values[at + 1] = states[:fires]
    post[at + 1] = 1
    return times, values, post


def _left_limits(params: NetworkParams, pre: np.ndarray) -> np.ndarray:
    """Each state of a (m, n) batch at its firing instant, before the jumps: the
    spontaneous firers (the potentials within the tie tolerance of the maximum)
    at theta, every other coordinate as `state_at_threshold` gives it."""
    spontaneous = pre >= pre.max(axis=1, keepdims=True) - params.tie_tol()
    first = pre[np.arange(len(pre)), spontaneous.argmax(axis=1)]
    left = params.beta - (params.beta - pre) * ((params.beta - params.theta) / (params.beta - first))[:, None]
    left[spontaneous] = params.theta
    return left


def _firings(params: NetworkParams, v, t_total: float, n_grid: int, orbit):
    """(states, t_fire): the post-firing states and running firing times of the
    returns from v, read from `orbit` and extended by `run_orbit` until one fires
    at or after t_total (not at all for t_total 0)."""
    states, t_bars = (orbit[0], orbit[2]) if orbit is not None else (np.empty((0, params.n)), np.empty(0))
    t_fire = np.cumsum(t_bars)
    # past this many firings before t_total, _check_rows rejects
    most = (MAX_TRAJECTORY_ROWS - n_grid) // 2 + 1
    while t_total > 0 and not (len(t_fire) and t_fire[-1] >= t_total):
        _check_rows(params, t_fire, t_total, n_grid)  # each of these firings happens
        more, _, bars = _kernels.run_orbit(params, states[-1] if len(states) else v,
                                           min(max(len(t_fire), 16), most - len(t_fire)))
        last = t_fire[-1:]  # the running sum goes on from the last firing, in order
        states = np.concatenate((states, more))
        t_fire = np.concatenate((t_fire, np.cumsum(np.concatenate((last, bars)))[len(last):]))
    return states, t_fire


def _check_rows(params: NetworkParams, t_fire: np.ndarray, t_total: float, n_grid: int) -> None:
    """Raise RejectConfig if, after some of these firings, the trajectory's rows are
    bound to exceed MAX_TRAJECTORY_ROWS.  A firing resets a neuron to 0, so each
    later wait is at most T_max: after firing c, with n_grid + 2*c rows, the rows
    are bound to exceed when n_grid + 2*c + 2*floor((t_total - t_fire)/T_max) does."""
    rows = n_grid + 2 * np.arange(1, len(t_fire) + 1)
    if np.any(t_total - t_fire >= ((MAX_TRAJECTORY_ROWS - rows) // 2 + 1) * params.constants.T_max):
        raise RejectConfig(f"the trajectory has more than {MAX_TRAJECTORY_ROWS} rows with two per firing")


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
