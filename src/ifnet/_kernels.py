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

Layout.  `_step_columns` is the one implementation of this step.  It steps a
C-contiguous (n, M) batch, one state per column, so each per-state reduction
(maximum, any, all, sup distance) and each broadcast runs along the long
axis; `step_batch` wraps it for a (..., n) batch or one (n,) state.  The
batch drivers and the cycle census (`cycles._fates`) keep their states in
columns across returns and select the live ones with
`np.compress(mask, X, axis=1)`: `X[:, mask]` is F-ordered, and the next step
on it would run along the short axis again.  A zero maximum may differ in
sign from a row-wise one, which gives the same wait time.

Jump sums.  `params.step_table` holds per presynaptic j the row of `up` that
a recruiting round adds (H with every entry <= 0 replaced by -0.0, which
leaves a sum as it is) and, when H has a negative entry, the row of H that
the image adds; with none, the up sum is the image.  `_jump_sums` adds the
rows of the fired j in order j = 0..n-1, as a scalar loop does.  Up to
`_DENSE_MAX` terms it adds the products table[j] * fired[j] for every j: a
term is +-0.0 where j did not fire, which leaves a sum as it is unless the
sum is -0.0, and none is, as each starts at a difference from beta > 0 and a
finite jump added to a float that is not -0.0 cannot give -0.0.  Past that
size the product, L*n times the batch, would outgrow memory (268 MB on 4096
states of n = 64), and it adds table[j] to the columns where j fired, for each
fired j: the scalar loop's own terms, at a cost that follows the fired entries.

Rounds.  Round 0 sums every column in order, both rows of the table at once:
its up sum decides who round 0 recruits, and its last row is the image of
every column that recruits nobody.  Each later round runs only on the
columns that recruited in the round before and still hold an unfired
neuron; a column whose whole network fired is 0 and needs no sum.  Such a
round decides from one BLAS product, s = pre + up.T @ F (F the fired mask as
floats, `params.up_t` the cached up.T), and trusts s >= theta only where
|s - theta| exceeds the bound b = (n + 2) eps (|pre| + up.T @ F); a column
with an unfired entry inside the bound re-decides from its ordered up sum
(`_ordered_recruits`).  After the last round the image is summed once, in
j order, over the columns that stopped recruiting with an unfired neuron.
On 1000 census starts of the dale64 recipe at n = 256 no entry falls inside
the bound, and a step costs 17 ms against 92 ms when every round re-sums in
order (38 against 473 ms at n = 512; BENCH_step_filter.json).

Reproducibility.  Every output value is an ordered sum in j order, the one
the scalar loop makes.  BLAS only decides, and only outside its bound, so no
result depends on BLAS's summation order, blocking or thread count.  The
bound: with u = eps/2 and gamma_k = k u/(1 - k u), a sum of at most n + 1
terms (pre and the fired jumps; each F[j] * up[j, k] is exact), added in any
order, with or without FMA, lies within gamma_n A of the exact sum, where
A = |pre| + sum over fired j of up[j, k] (N. J. Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., 2002, ch. 4).  That holds for s
and for the ordered sum r alike, so |s - r| <= 2 gamma_n A = n eps A/(1 - n u).
As up has no negative entry, the product t = up.T @ F that gives s also
gives A, to within gamma_{n-1}, so the computed b = fl((n + 2) eps fl(|pre| + t))
is at least (n + 2) eps A (1 - gamma_{n+1}), which exceeds n eps A/(1 - n u)
by at least eps A while n^2 u <= 1/8 (n <= 2^25, past any H that fits in
memory).  That eps A pays for the rounding of the product should it
underflow (at most 2^-1075) once A >= 2^-1023; below 2^-1022 every partial
sum is exact, so s = r.  As rounding is monotone and b a float,
fl(|s - theta|) > b implies |s - theta| > b, so s and r then lie on the same
side of theta.  A bound that is NaN or infinite trusts nothing.

The batch drivers, the cycle census and the expansion witnesses step whole
batches; `run_orbit` and the census's cycle solve (`cycles._solve`, which
settles one orbit until it repeats) step one state at a time, as each return
depends on the last, about 23 us on net_c and 26 us on mixed8 against 6.9 and
19 us for a scalar loop, while 2048 net_c states cost 0.09 us each (timeit,
2-vCPU VM).
`dynamics.return_map`, the library's one-state entry point, wraps one
`step_batch` call; no package module calls it.  `step_batch` returns each
row's maximum; `wait_times` turns it into a time, with `math.log` per row.
tests/test_kernels.py holds `step_batch`, `run_orbit` and every batch driver
bit for bit to a plain scalar loop over one state.

Recurrence tail.  Where the map contracts, orbits land on limit cycles byte
for byte: every bench `simulate` start on net_c (seeds 1-29) reaches 0;0;0 by
the fourth return, the mixed8 golden start enters its period-6 cycle at step
28, and 300 random net_b starts settle by step 8.  `run_orbit` compares each
state's bytes with one mark, `lag` steps back and moved on whenever `lag`
reaches a doubling power (Brent's cycle detection, BIT 20, 1980); on a match
after step s it copies rows s+1.. from rows s+1-lag..s, as slice copies of
1, 2, 4, ... whole periods, so the copy makes no temporary.  That is exact,
as the step is a pure function of the network and its input state's bytes;
the check costs 0.13 us a step.  The batch drivers drop a state once its
future is known: `sync_run` at the zero vector, `track_pair` once the pair's
two states are equal (one orbit from there), `absorb_run` once a start has
failed its post-entry bound or its image equals its state.  On net_c the adapted-metric
check steps 10 times, not 2 x 92 (n0 + 1).
"""

from __future__ import annotations

import math

import numpy as np

from .params import NetworkParams

_DENSE_MAX = 1 << 17  # `_jump_sums` forms one product up to this many terms (module docstring)
_SLACK = 2  # c in the bound (n + c) eps that a BLAS recruitment decision must clear (module docstring)
_EPS = np.finfo(np.float64).eps


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
    for a in (states, fired, t_bars):  # doubling copies of whole periods, none overlapping its source
        cyc, f = a[stepped - lag:], lag
        while f < len(cyc):
            cyc[f:f + f] = cyc[:min(f, len(cyc) - f)]
            f *= 2
    return states, fired, t_bars


def step_batch(params: NetworkParams, V):
    """One return-map application to every state of a (..., n) batch.

    Returns (out, fired, vmax, rounds): the post-firing states and firing
    sets, shapes (..., n), each input's maximum, shape (...), from which
    `wait_times` gives the waiting times, and the avalanche depth, the number
    of recruiting rounds (for a batch, that of its deepest row).
    """
    shape = V.shape
    out, fired, vmax, rounds = _step_columns(params, _columns(V))
    return (np.ascontiguousarray(out.T).reshape(shape), np.ascontiguousarray(fired.T).reshape(shape),
            vmax.reshape(shape[:-1]), rounds)


def _columns(V):
    """A (..., n) batch as a C-contiguous (n, M) one, one state per column."""
    return np.ascontiguousarray(V.reshape(-1, V.shape[-1]).T)


def _step_columns(params: NetworkParams, X):
    """`step_batch` on a C-contiguous (n, M) batch, one state per column."""
    beta, theta, table = params.beta, params.theta, params.step_table
    vmax = X.max(axis=0)
    fired = X >= vmax - params.tie_tol()
    pre = beta - (beta - X) * ((beta - theta) / (beta - vmax))  # read only where not fired
    sums = _jump_sums(pre, table, fired)
    out = sums[-1]  # the image of every column that recruits nobody in round 0
    recruited = ~fired & (sums[0] >= theta)
    fired |= recruited
    live, rounds, settled = np.flatnonzero(recruited.any(axis=0)), 0, []
    while live.size:
        rounds += 1
        f = np.take(fired, live, axis=1)
        keep = ~f.all(axis=0)  # a column whose whole network fired is 0 and needs no sum
        if not keep.any():
            break
        live, f = live[keep], np.compress(keep, f, axis=1)
        recruited = _recruits(params, np.take(pre, live, axis=1), f)
        f |= recruited
        fired[:, live] = f
        go = recruited.any(axis=0)
        settled.append(live[~go])
        live = live[go]
    if settled and (cols := np.concatenate(settled)).size:
        out[:, cols] = _jump_sums(np.take(pre, cols, axis=1), table[:, -1:], np.take(fired, cols, axis=1))[0]
    np.maximum(out, params.alpha, out=out)
    out[fired] = 0.0
    return out, fired, vmax, rounds


def _recruits(params: NetworkParams, pre, fired):
    """What `_ordered_recruits` gives on the same columns: one BLAS product decides
    each entry that its error bound keeps clear of theta, and `_ordered_recruits`
    each column with an entry inside the bound (module docstring, "Rounds")."""
    F = fired.astype(np.float64)
    d = params.up_t @ F
    bound = np.abs(pre, out=F)
    bound += d
    bound *= (params.n + _SLACK) * _EPS
    d += pre
    d -= params.theta
    recruited = d >= 0.0
    recruited &= ~fired
    sure = np.abs(d, out=d) > bound  # False where the bound is NaN
    sure |= fired
    if not sure.all():
        cols = np.flatnonzero(~sure.all(axis=0))
        recruited[:, cols] = _ordered_recruits(params, np.take(pre, cols, axis=1), np.take(fired, cols, axis=1))
    return recruited


def _ordered_recruits(params: NetworkParams, pre, fired):
    """~fired where pre plus the up rows of the fired j, added in order j = 0..n-1, reaches theta."""
    return ~fired & (_jump_sums(pre, params.step_table[:, :1], fired)[0] >= params.theta)


def _jump_sums(acc, table, fired):
    """acc plus, in each column, the rows j of table whose neuron fired there, added in order j = 0..n-1."""
    if table.size * fired.shape[1] <= _DENSE_MAX:
        terms = table * fired[:, None, None, :]
        out = acc + terms[0]
        for term in terms[1:]:
            out += term
        return out
    out = np.repeat(acc[None], table.shape[1], axis=0)
    for j in np.flatnonzero(fired.any(axis=1)):
        out[..., fired[j]] += table[j]
    return out


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
    shape, X = v0.shape[:-1], _columns(v0)
    enter = np.full(X.shape[1], -1, np.int64)
    entry = np.empty_like(X)
    live = np.arange(X.shape[1])
    for k in range(max_steps + 1):
        inside = ((X <= c_enter) & (X >= params.alpha)).all(axis=0)
        enter[live[inside]] = k
        entry[:, live[inside]] = X[:, inside]
        live, X = live[~inside], np.compress(~inside, X, axis=1)
        if k == max_steps or not live.size:
            break
        X = _step_columns(params, X)[0]
    stayed = enter >= 0
    live, X = np.flatnonzero(stayed), np.compress(stayed, entry, axis=1)
    for _ in range(horizon):
        if not live.size:
            break
        image = _step_columns(params, X)[0]
        stayed[live] &= ~(image > post_bound).any(axis=0)
        # a failed row's answer is fixed, and a fixed point's images repeat it
        go = stayed[live] & (image != X).any(axis=0)
        live, X = live[go], np.compress(go, image, axis=1)
    return enter.reshape(shape), stayed.reshape(shape)


def sync_run(params: NetworkParams, v0, max_steps):
    """Iterate each start of a (..., n) batch until the exact zero vector.

    Returns (returns_taken, time): returns_taken is -1 for a start that did
    not reach it within max_steps, and its time sums all max_steps waits.
    """
    shape, X = v0.shape[:-1], _columns(v0)
    steps = np.full(X.shape[1], -1, np.int64)
    total = np.zeros(X.shape[1], np.float64)
    live = np.arange(X.shape[1])
    for k in range(1, max_steps + 1):
        X, _, vmax, _ = _step_columns(params, X)
        total[live] += wait_times(params, vmax)
        zero = ~X.any(axis=0)
        steps[live[zero]] = k
        live, X = live[~zero], np.compress(~zero, X, axis=1)
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
    X = np.ascontiguousarray(np.stack((v0, w0)).reshape(2, -1, n).transpose(2, 0, 1))  # (n, 2, pairs)
    dists = np.zeros((X.shape[2], k_max + 1), np.float64)
    n_common = np.zeros(X.shape[2], np.int64)
    live, keep = np.arange(X.shape[2]), np.ones(X.shape[2], np.bool_)
    for k in range(k_max + 1):
        if k:
            X, fired = (a.reshape(n, 2, -1) for a in _step_columns(params, X.reshape(n, -1))[:2])
            keep = (fired[:, 0] == fired[:, 1]).all(axis=0)
        live, d = live[keep], np.abs(X[:, 0] - X[:, 1]).max(axis=0)[keep]
        n_common[live], dists[live, k] = k, d
        n_common[live[d == 0.0]] = k_max  # merged: one orbit from here on
        keep[keep] = d != 0.0
        live, X = live[d != 0.0], np.compress(keep, X, axis=2)
        if not live.size:
            break
    return dists.reshape(shape + (k_max + 1,)), n_common.reshape(shape)
