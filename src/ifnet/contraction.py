"""Contraction and expansion diagnostics for the return map.

The zone C_c = {v on the section : alpha <= v_i <= c} carries a sup-norm
Lipschitz bound for pairs sharing a firing set:

    lambda_c = (beta-theta)/(beta-c) * (1 + (beta-alpha)/(beta-c))   for c > 0,
    lambda_0 = (beta-theta)/beta                                     at  c = 0,

with lambda_c < 1 exactly for c < c_bar and lambda_{c_bar} = 1.  Outside small
zones the map expands: on the rays Gamma_i (all coordinates 0 except the i-th,
which lies in (c_star, theta)) the per-coordinate stretch between two states is
exactly beta(beta-theta)/((beta-v_i)(beta-w_i)) > 1.  When two neurons i, j
satisfy the openness conditions (O1)-(O3), the one-coordinate transfer map

    g_j(x) = beta - beta(beta-theta)/(beta-x) + sum_{l != j} H[l, j]

carries Gamma_i into Gamma_j and the composition g_i(g_j(.)) has a repelling
fixed point whose two-step multiplier exceeds 1.

Under (H3)/(H4) with at least one inhibitory neuron, every orbit is absorbed
into the image zone of C_{c_bar} within p0 + 1 returns and never leaves, which
supports the adapted metric

    d(v, w) = sum_{i<n0} ||rho^i v - rho^i w|| / mu_tilde^i

in which the map contracts at rate mu_tilde on pairs sharing a long enough
itinerary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._sampling import rng_stream, sample_on_section
from .dynamics import _state_faults, as_state
from .errors import (
    HypothesisViolated,
    InsufficientSamples,
    NoFixedPoint,
    PreconditionFailed,
)
from .params import NetworkParams

__all__ = [
    "lambda_for_zone", "verify_contraction", "expansion_witness",
    "check_O_conditions", "o_pairs", "repeller", "absorption_check", "jvac_check",
    "adapted_distance", "estimate_lipschitz_c", "adapted_metric_check",
    "ContractionReport", "ExpansionWitness", "RepellerReport",
    "AbsorptionReport", "MetricEstimate", "MetricCheck",
]


def lambda_for_zone(params: NetworkParams, c: float) -> float:
    """Lipschitz factor of the zone C_c (the c = 0 zone has its own sharper rate)."""
    if c < 0 or c > params.theta:
        raise PreconditionFailed(f"zone level must lie in [0, theta], got {c}")
    beta, theta, alpha = params.beta, params.theta, params.alpha
    if c == 0.0:
        return (beta - theta) / beta
    return (beta - theta) / (beta - c) * (1.0 + (beta - alpha) / (beta - c))


def _in_zone_rows(V: np.ndarray, c: float) -> np.ndarray:
    """Per row of a (m, n) batch of section-box states: inside C_c, that is
    every coordinate at most c and one at 0 (on the section)."""
    return (V <= c).all(axis=1) & (V == 0.0).any(axis=1)


def _zone_after_return(params: NetworkParams) -> float:
    """Level of the sharpest zone containing the image of C_{c_bar}."""
    dc = params.constants
    if dc.min_abs_H is None:
        return dc.c_bar
    return max(0.0, params.theta - dc.min_abs_H)


@dataclass(frozen=True)
class ContractionReport:
    c: float
    lambda_c: float
    max_ratio: float
    pairs: int
    violations: list


def _same_itinerary_pairs(params: NetworkParams, draw, k_max: int, common: int, need: int, budget: int):
    """The first `need` distinct pairs, in draw order, whose two orbits share
    firing sets for `common` returns.

    `draw()` gives a batch (V, W) of paired starts.  Batches are drawn until
    `need` pairs qualify or `budget` draws are consumed, a batch counting up
    to the last pair taken from it.  Returns (V, W, dists, attempts): the
    kept pairs (fewer than `need` when the budget ran out), their
    track_pair distances over k_max returns and the draws consumed.
    """
    kept = [(np.empty((0, params.n)), np.empty((0, params.n)), np.empty((0, k_max + 1)))]
    used = attempts = 0
    while used < need and attempts < budget:
        V, W = draw()
        dists, n_common = _kernels.track_pair(params, V, W, k_max)
        idx = np.flatnonzero((dists[:, 0] != 0.0) & (n_common >= common))[:need - used]
        used += idx.size
        attempts += int(idx[-1]) + 1 if used == need else V.shape[0]
        kept.append((V[idx], W[idx], dists[idx]))
    V, W, dists = (np.concatenate(x) for x in zip(*kept))
    return V, W, dists, attempts


def verify_contraction(params: NetworkParams, c: float, sample_count: int, seed: int) -> ContractionReport:
    """Monte-Carlo check of the zone inequality ||rho V - rho W|| <= lambda_c ||V - W||.

    Pairs are drawn uniformly on the section within C_c and kept only when both
    members produce the same firing set (membership in a common atom); rejected
    pairs are resampled up to a fixed budget.
    """
    if sample_count < 1:
        raise PreconditionFailed("sample_count must be at least 1")
    dc = params.constants
    if not (0.0 <= c < dc.c_bar):
        raise PreconditionFailed(f"need 0 <= c < c_bar = {dc.c_bar}, got {c}")
    lam = lambda_for_zone(params, c)
    rng = rng_stream(seed, 0)
    batch = max(1024, min(sample_count, 1 << 16))

    def draw():
        return (sample_on_section(rng, params.n, params.alpha, c, batch),
                sample_on_section(rng, params.n, params.alpha, c, batch))

    V, W, dists, attempts = _same_itinerary_pairs(
        params, draw, 1, 1, sample_count, max(10 * sample_count, 1000))
    if len(dists) < sample_count:
        raise InsufficientSamples(
            f"only {len(dists)}/{sample_count} pairs landed in a common atom after {attempts} draws"
        )
    r = dists[:, 1] / dists[:, 0]
    bad = r > lam + 1e-9
    return ContractionReport(c=c, lambda_c=lam, max_ratio=float(r.max(initial=0.0)), pairs=len(dists),
                             violations=list(zip(V[bad], W[bad], r[bad].tolist())))


def _gamma_faults(params: NetworkParams, X: np.ndarray, i: int) -> list:
    """(mask, message) of each check a Gamma_i state must pass, in order, with one
    mask entry per state of a (..., n) batch: `as_state`'s range checks, then the
    ray (every coordinate but the i-th 0) and the open interval (c_star, theta)."""
    off = X != 0.0
    off[..., i] = False
    lo, hi = params.constants.c_star, params.theta
    return _state_faults(params, X) + [
        (off.any(axis=-1),
         np.char.mod(f"state is not on Gamma_{i}: coordinate %d nonzero", np.arange(params.n))[off.argmax(axis=-1)]),
        (~((lo < X[..., i]) & (X[..., i] < hi)), f"coordinate {i} must lie in (c_star, theta) = ({lo}, {hi})"),
    ]


@dataclass(frozen=True)
class ExpansionWitness:
    """The witness of one pair, or of each pair of a batch; a batch's rejected
    pairs carry their message in `error` ("" for a compared pair), ratio and
    lower_bound nan and expanded False."""

    ratio: float | np.ndarray        # smallest stretch over the non-fired, unfloored coordinates
    expanded: bool | np.ndarray      # every such stretch > 1
    lower_bound: float | np.ndarray  # beta(beta-theta)/((beta-v_i)(beta-w_i))
    error: str | np.ndarray = ""


def expansion_witness(params: NetworkParams, i: int, v, w) -> ExpansionWitness:
    """Measured stretch of the return map between paired Gamma_i states.

    v and w are one state each or (..., n) batches of pairs, broadcast against
    each other, and all 2m states are stepped in one batch.  A pair is compared only when both states lie on
    Gamma_i, their i-th coordinates differ and they share their firing set;
    coordinates that fired or that either image holds at the floor alpha are
    excluded (the expansion statement assumes images above the floor), and a
    pair with none left is rejected.  A batch reports each pair's first failed
    check in `error`; one pair raises PreconditionFailed with it.
    """
    V, W = (np.asarray(x, np.float64) for x in (v, w))
    for A in (V, W):
        if A.shape[-1:] != (params.n,):
            raise PreconditionFailed(f"state must have length {params.n}, got {A.shape}")
    X = np.stack(np.broadcast_arrays(V, W))
    checks = [check for side in X for check in _gamma_faults(params, side, i)]
    # a pair that failed so far keeps that message; stepping zeros in its place keeps the step in range
    X = np.where(np.any([bad for bad, _ in checks], axis=0)[..., None], 0.0, X)
    out, fired, _, _ = _kernels.step_batch(params, X)
    vi, wi = X[..., i]
    keep = ~fired[0] & (out != params.alpha).all(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(keep, np.abs(out[0] - out[1]) / np.abs(vi - wi)[..., None], np.inf).min(axis=-1)
    checks += [(vi == wi, "degenerate pair: identical Gamma_i coordinates"),
               ((fired[0] != fired[1]).any(axis=-1), "states fall in different atoms (firing sets differ)"),
               (~keep.any(axis=-1), "no unclamped non-firing coordinate to compare")]
    error = np.full(np.shape(vi), "", object)
    for bad, message in reversed(checks):  # the first failed check names the pair's fault
        error = np.where(bad, message, error)
    ok = error == ""
    beta, theta = params.beta, params.theta
    bound = np.where(ok, beta * (beta - theta) / ((beta - vi) * (beta - wi)), np.nan)
    if error.ndim:
        return ExpansionWitness(np.where(ok, ratio, np.nan), ok & (ratio > 1.0), bound, error)
    if not ok:
        raise PreconditionFailed(error[()])
    return ExpansionWitness(float(ratio), bool(ratio > 1.0), float(bound))


def check_O_conditions(params: NetworkParams, i: int, j: int) -> tuple[bool, bool, bool]:
    """The three openness conditions making (i, j) a repeller pair.

    O1: neither i nor j can be strongly excited by the rest of the network
        (incoming positive jumps sum below theta - c_star);
    O2: a spike from i or j strongly excites every third neuron (jump > theta;
        vacuously true when n = 2);
    O3: the net incoming interaction of i and of j is positive.

    A lookup in `params.o_conditions`, which holds them for every pair.
    """
    if i == j:
        raise PreconditionFailed("repeller pair needs two distinct neurons")
    return tuple(params.o_conditions[:, i, j].tolist())


def o_pairs(params: NetworkParams) -> list[tuple[int, int]]:
    """The unordered pairs (i, j), i < j, that satisfy all of (O1)-(O3)."""
    return list(zip(*(k.tolist() for k in np.nonzero(np.triu(params.o_conditions.all(axis=0))))))


def _transfer(params: NetworkParams, j: int):
    """g_j and its derivative: the Gamma-to-Gamma coordinate transfer map."""
    beta, theta = params.beta, params.theta
    s = float(np.delete(params.H[:, j], j).sum())

    def g(x: float) -> float:
        return beta - beta * (beta - theta) / (beta - x) + s

    def gprime(x: float) -> float:
        return -beta * (beta - theta) / (beta - x) ** 2

    def ginv(y: float) -> float:
        return beta - beta * (beta - theta) / (beta + s - y)

    return g, gprime, ginv


@dataclass(frozen=True)
class RepellerReport:
    pair: tuple[int, int]
    interval: tuple[float, float]
    fixed_point: float
    multiplier: float
    conditions: tuple[bool, bool, bool]


def repeller(params: NetworkParams, i: int, j: int) -> RepellerReport:
    """Repelling period-2 seed on Gamma_i for an (O1)-(O3) pair.

    The admissible bracket (a, b) is the closed-form preimage of
    (c_star, theta) under the strictly decreasing g_j, intersected with
    (c_star, theta); the fixed point of g_i(g_j(.)) is then bisected to 1e-13
    and its two-step multiplier |g_i'(g_j(x*)) g_j'(x*)| reported.
    """
    conds = check_O_conditions(params, i, j)
    if not all(conds):
        raise PreconditionFailed(f"conditions (O1)-(O3) not satisfied for pair {(i, j)}: {conds}")
    dc = params.constants
    g_j, gp_j, ginv_j = _transfer(params, j)
    g_i, gp_i, _ = _transfer(params, i)
    a = max(dc.c_star, ginv_j(params.theta))
    b = min(params.theta, ginv_j(dc.c_star))
    if not a < b:
        raise NoFixedPoint(f"empty admissible bracket for pair {(i, j)}")

    def G(x: float) -> float:
        return g_i(g_j(x)) - x

    fa, fb = G(a), G(b)
    if fa == 0.0:
        x_star = a
    elif fb == 0.0:
        x_star = b
    elif fa * fb > 0:
        raise NoFixedPoint(f"no sign change of the two-step map on ({a}, {b})")
    else:
        lo, hi = a, b
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            fm = G(mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm > 0) == (fa > 0):
                lo = mid
            else:
                hi = mid
        x_star = 0.5 * (lo + hi)
    multiplier = abs(gp_i(g_j(x_star)) * gp_j(x_star))
    return RepellerReport(
        pair=(i, j), interval=(a, b), fixed_point=x_star,
        multiplier=multiplier, conditions=conds,
    )


def _require_h3_h4_inhibitory(params: NetworkParams) -> None:
    rep = params.hypotheses
    if not (rep.h3 and rep.h4):
        raise HypothesisViolated(f"operation requires H3 and H4 (h3={rep.h3}, h4={rep.h4})")
    if not params.inhibitory:
        raise HypothesisViolated("network has no inhibitory neuron")


@dataclass(frozen=True)
class AbsorptionReport:
    max_steps_outside: int
    bound_p0_plus_1: int
    post_entry_bound: float
    ok: bool


def absorption_check(params: NetworkParams, sample_count: int, seed: int, horizon: int = 20) -> AbsorptionReport:
    """Check that every sampled orbit enters C_{c_bar} within p0 + 1 returns
    and that each later image keeps all coordinates below
    max(0, theta - min|H|) < c_bar."""
    if sample_count < 1:
        raise PreconditionFailed("sample_count must be at least 1")
    _require_h3_h4_inhibitory(params)
    dc = params.constants
    post_bound = _zone_after_return(params)
    p0 = dc.p0
    assert p0 is not None  # H3 guarantees a nonzero interaction
    rng = rng_stream(seed, 0)
    starts = sample_on_section(rng, params.n, params.alpha, params.theta, sample_count)
    enter, stayed = _kernels.absorb_run(params, starts, dc.c_bar, post_bound + 1e-12, p0 + 1, horizon)
    ok = bool(np.all(stayed))  # a start that never entered has stayed False
    # entry takes at most p0 + 1 returns, so a failing start dominates at p0 + 2
    worst = int(enter.max(initial=0)) if ok else p0 + 2
    return AbsorptionReport(
        max_steps_outside=worst, bound_p0_plus_1=p0 + 1, post_entry_bound=post_bound, ok=ok,
    )


def jvac_check(params: NetworkParams, v) -> bool:
    """Inside C_{c_bar}: a spontaneous excitatory firer forces the whole
    network to fire together (the implication is vacuous otherwise)."""
    _require_h3_h4_inhibitory(params)
    arr = as_state(params, v)
    if not _in_zone_rows(arr[None], params.constants.c_bar)[0]:
        raise PreconditionFailed("state is outside C_{c_bar}")
    _, fired, vmax, _ = _kernels.step_batch(params, arr)
    spontaneous = arr >= vmax - params.tie_tol()
    return not spontaneous[list(params.excitatory)].any() or bool(fired.all())


def _check_metric(n0: int, mu_tilde: float) -> None:
    if n0 < 1:
        raise PreconditionFailed("n0 must be at least 1")
    if not (0.0 < mu_tilde < 1.0):
        raise PreconditionFailed("mu_tilde must lie in (0, 1)")


def _weighted_sum(dists, mu_tilde: float):
    """sum_i dists[i] / mu_tilde^i, accumulated in index order with a running
    weight; every adapted distance goes through here so they agree bit for bit.
    A (k, m) array gives the m column sums, each in the same order."""
    total = 0.0
    weight = 1.0
    for d in dists:
        total += d * weight
        weight /= mu_tilde
    return total


def adapted_distance(params: NetworkParams, v, w, n0: int, mu_tilde: float) -> float:
    """d(v, w) = sum_{i<n0} ||rho^i v - rho^i w|| / mu_tilde^i (sup norms)."""
    _check_metric(n0, mu_tilde)
    a, b = (as_state(params, x) for x in (v, w))
    A = np.vstack((a, _kernels.run_orbit(params, a, n0 - 1)[0]))
    B = np.vstack((b, _kernels.run_orbit(params, b, n0 - 1)[0]))
    return float(_weighted_sum(np.abs(A - B).max(axis=1), mu_tilde))


def _perturbed_pairs(rng, params: NetworkParams, count: int):
    """Section states paired with same-face perturbations of random magnitude."""
    n = params.n
    V = sample_on_section(rng, n, params.alpha, params.theta, count)
    scale = np.exp(rng.uniform(np.log(1e-6), np.log(0.25 * (params.theta - params.alpha)), size=count))
    W = V + rng.uniform(-1.0, 1.0, size=V.shape) * scale[:, None]
    W = np.clip(W, params.alpha, params.theta)
    zero = np.argmax(V == 0.0, axis=1)
    W[np.arange(count), zero] = 0.0
    return V, W


@dataclass(frozen=True)
class MetricEstimate:
    c_hat: float
    n0: int
    mu_tilde: float
    lam: float
    pairs: int


def estimate_lipschitz_c(params: NetworkParams, sample_count: int, seed: int) -> MetricEstimate:
    """Empirical transient-stretch constant and an adapted-metric recipe.

    Samples same-itinerary pairs, measures max_k ||rho^k V - rho^k W|| /
    (lambda^k ||V - W||) for k up to p0, doubles the observed maximum as a
    safety margin, picks mu_tilde as the midpoint of (lambda, 1) and the
    smallest n0 with c_hat (lambda/mu_tilde)^{n0} < 1.
    """
    dc = params.constants
    _require_h3_h4_inhibitory(params)
    lam = lambda_for_zone(params, _zone_after_return(params))
    if lam >= 1.0:
        raise PreconditionFailed("contraction factor of the absorbed zone is not below 1")
    p0 = dc.p0 or 1
    rng = rng_stream(seed, 0)
    _, _, dists, attempts = _same_itinerary_pairs(
        params, lambda: _perturbed_pairs(rng, params, min(sample_count, 4096)),
        p0, 1, sample_count, 20 * sample_count)
    used = len(dists)
    if used < max(1, sample_count // 10):
        raise InsufficientSamples(f"only {used} same-itinerary pairs out of {attempts} draws")
    lam_pow = np.array([lam ** k for k in range(1, p0 + 1)])
    # dists past n_common are 0, so they never lift the stretch above its floor of 1
    stretch = dists[:, 1:] / (lam_pow * dists[:, :1])
    c_hat = 2.0 * max(1.0, float(stretch.max(initial=0.0)))
    mu_tilde = 0.5 * (lam + 1.0)
    if c_hat <= 1.0:
        n0 = 1
    else:
        n0 = max(1, math.floor(math.log(c_hat) / math.log(mu_tilde / lam)) + 1)
    return MetricEstimate(c_hat=c_hat, n0=n0, mu_tilde=mu_tilde, lam=lam, pairs=used)


@dataclass(frozen=True)
class MetricCheck:
    pairs_checked: int
    max_d_ratio: float   # largest d(rho V, rho W) / d(V, W) seen
    ok: bool             # max_d_ratio <= mu_tilde (up to 1e-9)


def adapted_metric_check(params: NetworkParams, est: MetricEstimate, sample_count: int,
                         seed: int) -> MetricCheck:
    """Spot-check d(rho V, rho W) <= mu_tilde d(V, W) on same-itinerary pairs.

    One track_pair pass over n0 + 1 returns serves both distances: a pair is
    kept when its two orbits share firing sets for all n0 + 1 returns, and
    then d(V, W) weighs the sup distances at returns 0..n0-1 while
    d(rho V, rho W) weighs those at returns 1..n0.
    """
    n0, mu_tilde = est.n0, est.mu_tilde
    _check_metric(n0, mu_tilde)
    if sample_count < 1:
        raise PreconditionFailed("the adapted-metric check needs at least one pair")
    rng = rng_stream(seed, 0)
    _, _, dists, _ = _same_itinerary_pairs(
        params, lambda: _perturbed_pairs(rng, params, min(sample_count, 2048)),
        n0 + 1, n0 + 1, sample_count, 50 * sample_count)
    kept = dists.T
    d0 = _weighted_sum(kept[:n0], mu_tilde)
    d1 = _weighted_sum(kept[1:n0 + 1], mu_tilde)
    pos = d0 > 0
    worst = float((d1[pos] / d0[pos]).max(initial=0.0))
    return MetricCheck(pairs_checked=len(dists), max_d_ratio=worst, ok=worst <= mu_tilde + 1e-9)
