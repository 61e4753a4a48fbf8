"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary including measured quantities.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ifnet import (
    adapted_distance,
    absorption_check,
    certify_cycle,
    cycle_census,
    estimate_lipschitz_c,
    expansion_witness,
    network,
    repeller,
    return_map,
    sync_test,
    verify_contraction,
)
from ifnet._kernels import track_pair
from ifnet._sampling import rng_stream, sample_on_section

from test_dynamics import brute_force_firing_set


def report(num, ok, text):
    tag = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {tag} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_period_two_family(net_a):
    worst = 0.0
    for h in np.arange(0.1, 0.95, 0.1):
        p = network(2, 1.0, 1.2, 1.0, -1.0, [[0.0, h], [h, 0.0]])
        x = 0.5 * (math.sqrt(h * h + 4.0 * 1.2 * 0.2) - h)
        v0 = np.array([1.2 - x, 0.0])
        two = return_map(p, return_map(p, v0).state).state
        worst = max(worst, float(np.max(np.abs(two - v0))))
    x_half = 0.5 * (math.sqrt(0.25 + 0.96) - 0.5)
    exact = abs(x_half - 0.3) <= 4 * math.ulp(0.3)  # sqrt(1.21) = 1.1 exactly
    report(1, worst <= 1e-12 and exact,
           f"period-2 family, max componentwise error {worst:.2e}, x(0.5)=0.3 exact={exact}")


def test_criterion_02_global_synchronization(net_sync9):
    rep = sync_test(net_sync9, 10_000, seed=2024)
    ok = rep.ok and rep.max_returns <= rep.bound_p and rep.max_time <= rep.bound_t_trans
    report(2, ok,
           f"10^4 starts synchronized within {rep.max_returns} <= {rep.bound_p} returns, "
           f"max time {rep.max_time:.4f} <= {rep.bound_t_trans:.4f}")


def test_criterion_03_contraction_inequality(net_c):
    dc = net_c.constants
    lines = []
    ok = True
    for c in (0.0, dc.c_bar / 2, 3 * dc.c_bar / 4):
        rep = verify_contraction(net_c, c, 100_000, seed=7)
        ok = ok and not rep.violations and rep.max_ratio <= rep.lambda_c + 1e-9
        lines.append(f"c={c:.4f}: max {rep.max_ratio:.6f} <= lambda {rep.lambda_c:.6f}")
    report(3, ok, "zero violations over 10^5 same-atom pairs per zone; " + "; ".join(lines))


def test_criterion_04_gamma_expansion(net_b):
    dc = net_b.constants
    rng = rng_stream(11, 0)
    lo, hi = dc.c_star + 1e-9, net_b.theta - 1e-9
    n_pairs = 0
    all_expand = True
    while n_pairs < 1000:
        a, b = rng.uniform(lo, hi, 2)
        if a == b:
            continue
        v = np.array([a, 0.0])
        w = np.array([b, 0.0])
        wit = expansion_witness(net_b, 0, v, w)
        all_expand = all_expand and wit.expanded and wit.ratio > 1.0
        n_pairs += 1
    rep = repeller(net_b, 0, 1)
    ok = (all_expand and abs(rep.fixed_point - 0.8) <= 1e-10
          and abs(rep.multiplier - 2.25) <= 1e-9)
    report(4, ok,
           f"10^3 Gamma_1 pairs all expand; repeller x*={rep.fixed_point:.12f}, "
           f"two-step multiplier={rep.multiplier:.12f}")


def test_criterion_05_avalanche_oracle_equivalence():
    rng = np.random.default_rng(2025)
    checked = 0
    ok = True
    for n in range(2, 7):
        for _ in range(1000):
            H = rng.uniform(-1.0, 1.3, (n, n))
            p = network(n, 1.0, 1.2, 1.0, -1.0, H)
            v = rng.uniform(-1.0, 1.0, n)
            v[rng.integers(n)] = 0.0
            fired = return_map(p, v).fired
            if frozenset(int(i) for i in fired) != brute_force_firing_set(p, v):
                ok = False
            checked += 1
    report(5, ok, f"avalanche equals brute-force least fixed point on {checked} instances (n=2..6)")


def test_criterion_06_absorption_and_invariance(net_c):
    rep = absorption_check(net_c, 10_000, seed=31, horizon=25)
    ok = rep.ok and rep.max_steps_outside <= rep.bound_p0_plus_1 == 5
    report(6, ok,
           f"10^4 orbits inside C_c-bar by return {rep.max_steps_outside} <= 5, "
           f"post-entry coordinates <= {rep.post_entry_bound}")


def test_criterion_07_certified_cycle_census(net_d):
    first = cycle_census(net_d, 2000, seed=5, eta=1e-4)
    second = cycle_census(net_d, 2000, seed=97, eta=1e-4)
    finite = 0 < len(first.entries) < 50
    certified = all(
        e.cycle.certified
        and e.cycle.certificate.residual <= 1e-10
        and certify_cycle(net_d, e.cycle)
        for e in first.entries
    )
    thr = 1e-8  # the solves of two seeds' censuses agree far below this
    def matched(entry, report_):
        return any(
            entry.cycle.period == e.cycle.period
            and min(
                max(float(np.max(np.abs(entry.cycle.points[i] - e.cycle.points[(i + s) % e.cycle.period])))
                    for i in range(e.cycle.period))
                for s in range(e.cycle.period)
            ) <= thr
            for e in report_.entries
        )
    stable = all(matched(e, first) for e in second.entries)
    ok = finite and certified and stable
    report(7, ok,
           f"census found {len(first.entries)} cycle(s), all re-certified; "
           f"second seed adds none (stable={stable})")


def test_criterion_08_adapted_metric(net_c):
    est = estimate_lipschitz_c(net_c, 2000, seed=13)
    rng = rng_stream(14, 0)
    used = 0
    worst = 0.0
    ok = True
    weights = est.mu_tilde ** -np.arange(est.n0)
    while used < 10_000:
        V = sample_on_section(rng, 3, net_c.alpha, net_c.theta, 4096)
        scale = np.exp(rng.uniform(np.log(1e-6), np.log(0.5), size=4096))
        W = V + rng.uniform(-1.0, 1.0, V.shape) * scale[:, None]
        W = np.clip(W, net_c.alpha, net_c.theta)
        W[np.arange(4096), np.argmax(V == 0.0, axis=1)] = 0.0
        D, N = track_pair(net_c, V, W, est.n0 + 1)
        for dists, n_common in zip(D, N):
            if used >= 10_000:
                break
            if n_common < est.n0 + 1 or dists[0] == 0.0:
                continue
            d0 = float(np.dot(dists[: est.n0], weights))
            d1 = float(np.dot(dists[1: est.n0 + 1], weights))
            if d1 > est.mu_tilde * d0 + 1e-9:
                ok = False
            worst = max(worst, d1 / d0 if d0 > 0 else 0.0)
            used += 1
    # spot-check that the kernel route agrees with the public adapted_distance
    v = np.array([0.0, 0.4, 0.2])
    w = np.array([0.0, 0.39, 0.21])
    dists, _ = track_pair(net_c, v, w, est.n0)
    api = adapted_distance(net_c, v, w, est.n0, est.mu_tilde)
    agree = abs(api - float(np.dot(dists[: est.n0], weights))) <= 1e-12 * max(1.0, api)
    report(8, ok and agree,
           f"10^4 same-itinerary pairs contract in the adapted metric "
           f"(n0={est.n0}, mu~={est.mu_tilde:.6f}, worst ratio {worst:.6f})")


def test_criterion_09_discontinuity_jump(net_c):
    base = return_map(net_c, np.array([0.0, 0.3, 0.3])).state
    ok = True
    jump = None
    for delta in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
        u = np.array([0.0, 0.3 + delta, 0.3])
        jump = float(np.max(np.abs(return_map(net_c, u).state - base)))
        if delta <= 1e-6 and jump < 0.4 - 1e-6:
            ok = False
    report(9, ok, f"one-sided tie perturbations jump by {jump:.9f} >= mu - 1e-6 = {0.4 - 1e-6}")


def test_criterion_10_sweep_determinism(tmp_path):
    doc = {"n": 2, "gamma": 1.0, "beta": 1.2, "theta": 1.0, "alpha": -1.0,
           "H": [[0.0, -0.6], [-0.6, 0.0]]}
    cfg = tmp_path / "net.json"
    cfg.write_text(json.dumps(doc))
    args = [sys.executable, "-m", "ifnet", "sweep", "--config", str(cfg),
            "--grid", "H:-0.8:-0.6:4", "--cell", "cycles",
            "--samples", "100", "--seed", "99"]
    outs = []
    for _ in range(2):
        res = subprocess.run(args, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    ok = outs[0] == outs[1] and len(outs[0]) > 100
    report(10, ok, f"sweep output byte-identical across two runs ({len(outs[0])} bytes)")
