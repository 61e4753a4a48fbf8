"""Hot numeric kernels for the return map and its Monte-Carlo drivers.

Every kernel is a plain nested loop over NumPy arrays, run by the Python
interpreter.

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
"""

from __future__ import annotations

import math

import numpy as np


def step(v, H, beta, theta, alpha, gamma, tie_tol, out_v, fired, j0, scratch):
    """One return-map application; fills out_v/fired/j0, returns (t_bar, rounds)."""
    n = v.shape[0]
    vmax = v[0]
    for i in range(1, n):
        if v[i] > vmax:
            vmax = v[i]
    for i in range(n):
        hit = v[i] >= vmax - tie_tol
        j0[i] = hit
        fired[i] = hit
    scale = (beta - theta) / (beta - vmax)
    for i in range(n):
        if fired[i]:
            out_v[i] = theta
        else:
            out_v[i] = beta - (beta - v[i]) * scale
    rounds = 0
    while True:
        grew = False
        for k in range(n):
            scratch[k] = False
            if not fired[k]:
                s = out_v[k]
                for j in range(n):
                    if fired[j] and H[j, k] > 0.0:
                        s += H[j, k]
                if s >= theta:
                    scratch[k] = True
                    grew = True
        if not grew:
            break
        rounds += 1
        for k in range(n):
            if scratch[k]:
                fired[k] = True
    for i in range(n):
        if fired[i]:
            out_v[i] = 0.0
        else:
            s = out_v[i]
            for j in range(n):
                if fired[j]:
                    s += H[j, i]
            if s < alpha:
                s = alpha
            out_v[i] = s
    t_bar = math.log((beta - vmax) / (beta - theta)) / gamma
    if t_bar < 0.0:
        t_bar = 0.0
    return t_bar, rounds


def run_orbit(v0, H, beta, theta, alpha, gamma, tie_tol, n_steps):
    """Iterate the return map n_steps times; returns (states, fired, t_bars, rounds)."""
    n = v0.shape[0]
    states = np.empty((n_steps, n), np.float64)
    fired = np.zeros((n_steps, n), np.bool_)
    t_bars = np.empty(n_steps, np.float64)
    rounds = np.empty(n_steps, np.int64)
    j0 = np.zeros(n, np.bool_)
    scratch = np.zeros(n, np.bool_)
    v = v0.copy()
    for s in range(n_steps):
        t, r = step(v, H, beta, theta, alpha, gamma, tie_tol, states[s], fired[s], j0, scratch)
        t_bars[s] = t
        rounds[s] = r
        v = states[s]
    return states, fired, t_bars, rounds


def pair_ratios(V, W, H, beta, theta, alpha, gamma, tie_tol):
    """Per-pair sup-norm contraction ratio, flagged valid only on same firing sets.

    V and W are (m, n) batches.  ratio[p] = ||rho(V_p)-rho(W_p)|| / ||V_p-W_p||;
    pairs with differing firing sets or zero separation are marked invalid.
    """
    m, n = V.shape
    ratio = np.zeros(m, np.float64)
    valid = np.zeros(m, np.bool_)
    rv = np.empty(n, np.float64)
    rw = np.empty(n, np.float64)
    fv = np.zeros(n, np.bool_)
    fw = np.zeros(n, np.bool_)
    j0 = np.zeros(n, np.bool_)
    scratch = np.zeros(n, np.bool_)
    for p in range(m):
        step(V[p], H, beta, theta, alpha, gamma, tie_tol, rv, fv, j0, scratch)
        step(W[p], H, beta, theta, alpha, gamma, tie_tol, rw, fw, j0, scratch)
        same = True
        for i in range(n):
            if fv[i] != fw[i]:
                same = False
                break
        if not same:
            continue
        din = 0.0
        dout = 0.0
        for i in range(n):
            a = abs(V[p, i] - W[p, i])
            if a > din:
                din = a
            b = abs(rv[i] - rw[i])
            if b > dout:
                dout = b
        if din == 0.0:
            continue
        ratio[p] = dout / din
        valid[p] = True
    return valid, ratio


def absorb_run(v0, H, beta, theta, alpha, gamma, tie_tol, c_enter, post_bound, max_steps, horizon):
    """Returns (enter_step, stayed) for the absorption check of one start.

    enter_step is the first return count k with rho^k(v0) inside the zone
    {all coordinates <= c_enter} (-1 if never within max_steps); stayed is
    False if any of the `horizon` images after entry has a coordinate above
    post_bound.
    """
    n = v0.shape[0]
    v = v0.copy()
    out = np.empty(n, np.float64)
    fired = np.zeros(n, np.bool_)
    j0 = np.zeros(n, np.bool_)
    scratch = np.zeros(n, np.bool_)
    enter = -1
    for k in range(max_steps + 1):
        inside = True
        for i in range(n):
            if v[i] > c_enter or v[i] < alpha:
                inside = False
                break
        if inside:
            enter = k
            break
        step(v, H, beta, theta, alpha, gamma, tie_tol, out, fired, j0, scratch)
        for i in range(n):
            v[i] = out[i]
    if enter < 0:
        return -1, False
    stayed = True
    for _ in range(horizon):
        step(v, H, beta, theta, alpha, gamma, tie_tol, out, fired, j0, scratch)
        for i in range(n):
            v[i] = out[i]
            if out[i] > post_bound:
                stayed = False
    return enter, stayed


def sync_run(v0, H, beta, theta, alpha, gamma, tie_tol, max_steps):
    """Iterate until the exact zero vector; returns (returns_taken, time). -1 if not reached."""
    n = v0.shape[0]
    v = v0.copy()
    out = np.empty(n, np.float64)
    fired = np.zeros(n, np.bool_)
    j0 = np.zeros(n, np.bool_)
    scratch = np.zeros(n, np.bool_)
    total = 0.0
    for k in range(1, max_steps + 1):
        t, _ = step(v, H, beta, theta, alpha, gamma, tie_tol, out, fired, j0, scratch)
        total += t
        allzero = True
        for i in range(n):
            v[i] = out[i]
            if out[i] != 0.0:
                allzero = False
        if allzero:
            return k, total
    return -1, total


def track_pair(v0, w0, H, beta, theta, alpha, gamma, tie_tol, k_max):
    """Sup-norm distances ||rho^k v - rho^k w|| while the two orbits share firing sets.

    Returns (dists, n_common): dists[k] is valid for k = 0..n_common, where
    n_common is the number of steps over which the itineraries agreed (so
    positions 0..n_common share atoms J_0..J_{n_common-1}).
    """
    n = v0.shape[0]
    dists = np.zeros(k_max + 1, np.float64)
    v = v0.copy()
    w = w0.copy()
    ov = np.empty(n, np.float64)
    ow = np.empty(n, np.float64)
    fv = np.zeros(n, np.bool_)
    fw = np.zeros(n, np.bool_)
    j0 = np.zeros(n, np.bool_)
    scratch = np.zeros(n, np.bool_)
    d0 = 0.0
    for i in range(n):
        a = abs(v[i] - w[i])
        if a > d0:
            d0 = a
    dists[0] = d0
    n_common = 0
    for k in range(1, k_max + 1):
        step(v, H, beta, theta, alpha, gamma, tie_tol, ov, fv, j0, scratch)
        step(w, H, beta, theta, alpha, gamma, tie_tol, ow, fw, j0, scratch)
        same = True
        for i in range(n):
            if fv[i] != fw[i]:
                same = False
                break
        if not same:
            break
        d = 0.0
        for i in range(n):
            v[i] = ov[i]
            w[i] = ow[i]
            a = abs(ov[i] - ow[i])
            if a > d:
                d = a
        dists[k] = d
        n_common = k
    return dists, n_common
