"""Hot numeric kernels for the return map and its Monte-Carlo drivers.

One return-map application, given a section state v (every coordinate in
[alpha, theta], at least one coordinate 0):

  1. the maximal coordinate fixes the waiting time
         t_bar = ln((beta - vmax)/(beta - theta))/gamma;
  2. the pre-firing state is evaluated in ratio form
         phi_k = beta - (beta - v_k)*(beta - theta)/(beta - vmax)
     (never through exp(log(.)), which keeps exactly representable fixtures
     exact); coordinates tied with the maximum are assigned theta;
  3. the firing set grows in synchronous rounds: a round recruits every
     not-yet-fired neuron whose phi plus the positive jumps from previously
     fired neurons reaches theta;
  4. fired coordinates reset to 0, the rest receive the sum of all jumps
     (both signs) from the fired set, floored once at alpha.

Every function here takes the validated `NetworkParams` as its first
argument and reads the map's constants (H, beta, theta, alpha, gamma and the
tie tolerance) from it; no caller passes them one by one.

`step_batch` is the one implementation of this step.  It applies it to a
(..., n) batch of independent states with NumPy operations, adding the jumps
in presynaptic order j = 0..n-1, and it takes a single (n,) state as well.
Both sums read per-network tables cached on the params (`jump_tables`).  A
round adds row j of `up`, which is H with every entry <= 0 replaced by -0.0,
to each row where j has fired: adding -0.0 leaves every float as it is, so
this is the sum of the positive jumps alone, bit for bit.  When no fired
neuron of the batch has a negative outgoing entry, every jump the image adds
beyond that sum is +0.0 or -0.0, and those change an accumulator only if it
is -0.0.  It never is: it starts at theta or at beta - x, which is +0.0 when
x = beta, and adding a positive jump or a zero to a float that is not -0.0
cannot give -0.0.  So the last round's sum is the image, bit for bit, and
the image's own loop runs only when a neuron with a negative jump fired.  The
multi-start drivers (`absorb_run`, `sync_run`, `track_pair`; one return of
`track_pair` gives the zone contraction ratios) and the cycle census, whose
detection steps every live sample in lockstep, step whole batches; sequential
orbits (`run_orbit`, which serves both outputs of `simulate`, and
`dynamics.return_map`) step one state at a time, as each state depends on the previous one.  One
state costs about 23 us on net_c and 36 us on mixed8, two to four times the
6.5 and 17 us of a scalar loop over one state (timeit, best of five means
over 50 random section states, 2-vCPU VM), so an orbit that never repeats
steps that much slower per return; on thousands of states the batched step
is far cheaper per state.  No workload here holds such an orbit: on 30 random starts over six
weakly coupled networks (n = 2..7, |H| <= 0.05) `run_orbit(..., 50000)`
stepped at most 2049 returns before its recurrence tail took over.
`step_batch` returns each row's maximum rather than its waiting time, because
most callers never read the time; `wait_times` turns the maxima into times
where they are needed, taking the logarithm with `math.log` per row.
tests/test_kernels.py holds `step_batch`, `run_orbit` and every batch driver
bit for bit to a plain scalar loop over one state.

Recurrence tail.  Where the map contracts, orbits land on limit cycles byte
for byte: every bench `simulate` start on net_c (seeds 1-29) reaches 0;0;0 by
the fourth return, the mixed8 golden start enters its period-6 cycle at step
28, and 300 random net_b starts settle by step 8.  `run_orbit` compares each
state's bytes with one mark, `lag` steps back and moved on whenever `lag`
reaches a doubling power (Brent's cycle detection, BIT 20, 1980); on a match
after step s it copies rows s+1.. from rows s+1-lag..s.  That is exact, as
the step is a pure function of the network and its input state's bytes.  The
check costs 0.13 us a step against about 23 us for a net_c step (timeit, 2-vCPU VM).
The batch drivers drop a row once its future is known, for the same reason:
`sync_run` at the zero vector, `track_pair` once the pair's two states are
equal (one orbit from there: distances 0, firing sets shared), `absorb_run`
once a start has failed its post-entry bound or its image equals its state.
On net_c the adapted-metric check calls `step_batch` 10 times, not 2 x 92 (n0 + 1).
"""

from __future__ import annotations

import math

import numpy as np

from .params import NetworkParams


def run_orbit(params: NetworkParams, v0, n_steps):
    """Iterate the return map n_steps times; returns (states, fired, t_bars).

    Rows after a byte-exact repeat are copied (module docstring, "Recurrence tail")."""
    try:
        states = np.empty((n_steps, params.n), np.float64)
    except ValueError as exc:  # numpy refuses a size past its index range without trying
        raise MemoryError(str(exc)) from None
    fired = np.empty((n_steps, params.n), np.bool_)
    t_bars = np.empty(n_steps, np.float64)  # each input's maximum until it is turned into a time
    v, stepped = v0, n_steps
    mark, power, lag = None, 1, 1  # Brent: mark is the state `lag` steps back
    for s in range(n_steps):
        states[s], fired[s], t_bars[s], _ = step_batch(params, v)
        v = states[s]
        if (key := v.tobytes()) == mark:
            stepped = s + 1
            break
        if lag == power:
            mark, power, lag = key, 2 * power, 0
        lag += 1
    t_bars[:stepped] = wait_times(params, t_bars[:stepped])
    idx = stepped - lag + np.arange(n_steps - stepped) % lag
    states[stepped:], fired[stepped:], t_bars[stepped:] = states[idx], fired[idx], t_bars[idx]
    return states, fired, t_bars


def step_batch(params: NetworkParams, V):
    """One return-map application to every state of a (..., n) batch.

    Returns (out, fired, vmax, rounds): the post-firing states and firing
    sets, shapes (..., n), each input's maximum, shape (...), from which
    `wait_times` gives the waiting times, and the avalanche depth, the number
    of recruiting rounds (for a batch, that of its deepest row).
    """
    beta, theta = params.beta, params.theta
    up, inhibits = params.jump_tables
    vmax = V.max(axis=-1, keepdims=True)
    fired = V >= vmax - params.tie_tol()
    pre = beta - (beta - V) * ((beta - theta) / (beta - vmax))
    pre[fired] = theta
    rounds = 0
    while True:
        out = pre.copy()
        for j in range(params.n):
            np.add(out, up[j], out=out, where=fired[..., j, None])
        recruited = ~fired & (out >= theta)
        if not recruited.any():
            break
        fired |= recruited
        rounds += 1
    if (fired & inhibits).any():  # else the last round's sum is the image (module docstring)
        out = pre
        for j in range(params.n):
            np.add(out, params.H[j], out=out, where=fired[..., j, None])
    np.maximum(out, params.alpha, out=out)
    out[fired] = 0.0
    return out, fired, vmax[..., 0], rounds


def piece_matrix(params: NetworkParams, V):
    """Homogeneous matrix M of the map on the piece (winner m, firing set J, floored
    set F, as `step_batch` finds them) that holds each state of a (..., n) batch:
    M @ (v, 1) is proportional to (rho(v), 1), rho the return map.  The last
    row is the denominator (-e_m, beta); row k is zero on J, alpha times it on F
    (a coordinate left at alpha counts as floored), else
    beta + S_k - (beta - v_k)(beta - theta)/(beta - v_m)."""
    n, beta = params.n, params.beta
    out, fired, _, _ = step_batch(params, V)
    den = np.where(np.arange(n + 1) == V.argmax(axis=-1)[..., None, None], -1.0, 0.0)
    den[..., n] = beta
    # S_k = (fired @ H)[k] = sum_J H[j, k], taken only on the rows neither zeroed nor
    # floored: it is bounded there, while a jump near the float maximum lands elsewhere
    free = ~fired & (out != params.alpha)
    rows = (beta + np.where(free, fired @ params.H, 0.0))[..., None] * den
    rows += (beta - params.theta) * np.hstack((np.eye(n), np.full((n, 1), -beta)))
    rows = np.where(free[..., None], rows, params.alpha * den)
    rows[fired] = 0.0
    return np.concatenate((rows, den), axis=-2)


def wait_times(params: NetworkParams, vmax):
    """Waiting time before the firing of each state with maximum vmax."""
    ratio = (params.beta - np.asarray(vmax, np.float64)) / (params.beta - params.theta)
    # math.log per row: np.log need not match libm, so results would depend on the NumPy build
    logs = np.fromiter(map(math.log, ratio.ravel().tolist()), np.float64, ratio.size)
    return np.maximum(logs.reshape(ratio.shape) / params.gamma, 0.0)


def absorb_run(params: NetworkParams, v0, c_enter, post_bound, max_steps, horizon):
    """Returns (enter_step, stayed) for the absorption check of each start.

    v0 is a (..., n) batch.  enter_step is the first return count k with
    rho^k(v0) inside the zone {all coordinates <= c_enter} (-1 if never within
    max_steps); stayed is False if any of the `horizon` images after entry has
    a coordinate above post_bound, and False for a start that never entered.
    A start leaves the horizon loop once it has failed or sits on a fixed point.
    """
    shape, n = v0.shape[:-1], v0.shape[-1]
    v = v0.reshape(-1, n)
    enter = np.full(v.shape[0], -1, np.int64)
    entry = np.empty_like(v)
    live = np.arange(v.shape[0])
    for k in range(max_steps + 1):
        inside = ((v <= c_enter) & (v >= params.alpha)).all(axis=-1)
        enter[live[inside]] = k
        entry[live[inside]] = v[inside]
        live, v = live[~inside], v[~inside]
        if k == max_steps or not live.size:
            break
        v = step_batch(params, v)[0]
    stayed = enter >= 0
    live = np.flatnonzero(stayed)
    v = entry[live]
    for _ in range(horizon):
        if not live.size:
            break
        image = step_batch(params, v)[0]
        stayed[live] &= ~(image > post_bound).any(axis=-1)
        # a failed row's answer is fixed, and a fixed point's images repeat it
        go = stayed[live] & (image != v).any(axis=-1)
        live, v = live[go], image[go]
    return enter.reshape(shape), stayed.reshape(shape)


def sync_run(params: NetworkParams, v0, max_steps):
    """Iterate each start of a (..., n) batch until the exact zero vector.

    Returns (returns_taken, time): returns_taken is -1 for a start that did
    not reach it within max_steps, and its time sums all max_steps waits.
    """
    shape, n = v0.shape[:-1], v0.shape[-1]
    v = v0.reshape(-1, n)
    steps = np.full(v.shape[0], -1, np.int64)
    total = np.zeros(v.shape[0], np.float64)
    live = np.arange(v.shape[0])
    for k in range(1, max_steps + 1):
        v, _, vmax, _ = step_batch(params, v)
        total[live] += wait_times(params, vmax)
        zero = ~v.any(axis=-1)
        steps[live[zero]] = k
        live, v = live[~zero], v[~zero]
        if not live.size:
            break
    return steps.reshape(shape), total.reshape(shape)


def track_pair(params: NetworkParams, v0, w0, k_max):
    """Sup-norm distances ||rho^k v - rho^k w|| while the two orbits share firing sets.

    v0 and w0 are (..., n) batches of paired starts.  Returns (dists,
    n_common) with shapes (..., k_max + 1) and (...): dists[..., k] is valid
    for k = 0..n_common and 0 beyond, where n_common is the number of steps
    over which the itineraries agreed (so positions 0..n_common share atoms
    J_0..J_{n_common-1}).  A pair whose two states are equal, at any return
    including 0, is stepped no further: its later distances stay 0 and its
    n_common is k_max.
    """
    shape, n = v0.shape[:-1], v0.shape[-1]
    x = np.stack((v0, w0)).reshape(2, -1, n)
    dists = np.zeros((x.shape[1], k_max + 1), np.float64)
    n_common = np.zeros(x.shape[1], np.int64)
    live = np.arange(x.shape[1])
    for k in range(k_max + 1):
        if k:
            x, fired, _, _ = step_batch(params, x)
            same = (fired[0] == fired[1]).all(axis=-1)
            live, x = live[same], x[:, same]
            n_common[live] = k
        dists[live, k] = d = np.abs(x[0] - x[1]).max(axis=-1)
        n_common[live[d == 0.0]] = k_max  # merged: one orbit from here on
        live, x = live[d != 0.0], x[:, d != 0.0]
        if not live.size:
            break
    return dists.reshape(shape + (k_max + 1,)), n_common.reshape(shape)
