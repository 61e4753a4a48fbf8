"""Continuity pieces, margins, certified limit-cycle detection and orbit fates.

Inside the absorbed zone of a Dale network with inhibitory neurons, the
section decomposes into one open piece per inhibitory neuron i (that neuron's
potential strictly dominates every other), the synchronization piece (an
excitatory potential is maximal, so the whole network fires together and the
image is the origin), and the boundary set where competing maxima tie.  The
return map is continuous on each piece and jumps by at least

    mu = min(|alpha|, min_{i!=j} |H[i,j] + theta|)

across the boundary, so a point's margin (half the gap between the winning and
runner-up potentials) bounds how far the state can be perturbed without
changing its piece.

Cycle certification is a Banach ball argument: if every point of a candidate
period-p orbit has margin above r, the p-step image of the r-ball around a
point stays inside it (lambda * r + residual <= r for the contraction factor
lambda of a zone containing the balls), then a unique attracting periodic
orbit lives in the ball.  Detection watches the orbit's piece itinerary for a
recurrence whose contraction budget admits such an r, then refines by
iterating the p-step map.

Networks that do not satisfy the certification hypotheses (e.g. purely
excitatory ones) are still handled in a whole-section mode that codes the
itinerary by firing sets and reports exact recurrences as uncertified
periodic orbits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from ._sampling import rng_stream, sample_on_section
from .contraction import _zone_after_return, lambda_for_zone
from .dynamics import _run_orbit, _step_raw, as_state, orbit, return_map
from .errors import HypothesisViolated, NumericalStall, PreconditionFailed
from .params import NetworkParams, NeuronKind

__all__ = [
    "PieceId", "CycleCertificate", "LimitCycle", "FateReport",
    "classify_piece", "margin", "detect_cycle", "certify_cycle",
    "cycle_census", "classify_fate", "sync_test",
    "CensusEntry", "CensusReport", "SyncReport",
]


@dataclass(frozen=True)
class PieceId:
    kind: str                          # "sync" | "inhib" | "boundary" | "fires"
    index: Optional[int] = None        # inhibitory neuron for "inhib"
    fired: Optional[tuple] = None      # firing set for whole-section coding

    def __str__(self) -> str:
        if self.kind == "inhib":
            return f"inhib:{self.index + 1}"
        if self.kind == "fires":
            return "J:" + ";".join(str(i + 1) for i in self.fired)
        return self.kind


def _require_pieces(params: NetworkParams) -> None:
    if NeuronKind.MIXED in params.kinds:
        raise PreconditionFailed("piece classification requires Dale networks (no mixed neuron)")
    if not params.inhibitory:
        raise PreconditionFailed("piece classification requires at least one inhibitory neuron")


def _classify_raw(excit, inhib, arr: np.ndarray, tol: float):
    """Returns (PieceId, gap) with gap the exact winner/runner-up difference."""
    m_minus = max(arr[i] for i in inhib)
    m_plus = max((arr[i] for i in excit), default=-math.inf)
    if m_plus >= m_minus:
        gap = m_plus - m_minus
        if gap > tol:
            return PieceId("sync"), gap
        return PieceId("boundary"), 0.0
    winner = max(inhib, key=lambda i: arr[i])
    runner = max(arr[i] for i in range(arr.shape[0]) if i != winner)
    gap = arr[winner] - runner
    if gap > tol:
        return PieceId("inhib", index=winner), gap
    return PieceId("boundary"), 0.0


def _piece(params: NetworkParams, arr: np.ndarray, tol: float):
    """(PieceId, gap) of a section state of a network with pieces, which must
    lie in C_{c_bar}."""
    if not (np.all(arr <= params.constants.c_bar) and np.any(arr == 0.0)):
        raise PreconditionFailed("state is outside C_{c_bar}")
    return _classify_raw(params.excitatory, params.inhibitory, arr, tol)


def classify_piece(params: NetworkParams, v, tol: Optional[float] = None) -> PieceId:
    """Continuity piece of a state in the absorbed zone.

    Sync when the excitatory maximum dominates the inhibitory one by more than
    tol; Inhib(i) when inhibitory neuron i strictly dominates everyone by more
    than tol; Boundary otherwise.  tol defaults to the dynamics tie tolerance.
    """
    _require_pieces(params)
    arr = as_state(params, v)
    piece, _ = _piece(params, arr, params.tie_tol() if tol is None else tol)
    return piece


def margin(params: NetworkParams, v) -> float:
    """Lower bound on the sup-norm distance to the piece boundary: half the
    exact winner/runner-up gap (0 on the boundary itself).  Perturbing every
    coordinate by less than the margin cannot change the strict ordering that
    determines the piece."""
    _require_pieces(params)
    arr = as_state(params, v)
    _, gap = _piece(params, arr, params.tie_tol())
    return 0.5 * gap  # the gap of a boundary state is 0


@dataclass(frozen=True)
class CycleCertificate:
    lam: float
    ball_radius: float
    residual: float


@dataclass
class LimitCycle:
    period: int
    points: np.ndarray                  # (period, n)
    itinerary: tuple
    min_margin: Optional[float]
    certificate: Optional[CycleCertificate]
    certified: bool
    time_period: float


@dataclass
class FateReport:
    outcome: str                        # synchronized | cycle | grazing | unresolved
    transient_steps: int
    step: Optional[int] = None
    margin: Optional[float] = None
    cycle: Optional[LimitCycle] = None
    excitatory_death: Optional[bool] = None
    last_excitatory_spike: Optional[int] = None


def _sup(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def _refine_cycle(params, v_start, p, tol, eta):
    """Banach refinement of a period-p candidate; returns LimitCycle or a
    grazing FateReport when the refined cycle hugs the boundary below eta."""
    eff = min(tol, 1e-11)
    w = v_start
    for _ in range(500):
        w2 = _run_orbit(params, w, p)[0][-1]
        d = _sup(w2, w)
        w = w2
        if d < eff:
            break
    else:
        raise NumericalStall(f"period-{p} refinement failed to contract below {eff}")
    # one pass of 2p steps gives the points, the itinerary and the residual
    # measured at every cycle point
    states, _, t_bars, _ = _run_orbit(params, w, 2 * p)
    seq = [w, *states]
    residual = max(_sup(seq[p + j], seq[j]) for j in range(p + 1))
    pts = seq[:p]
    pieces = [_piece(params, q, params.tie_tol()) for q in pts]
    itinerary = tuple(piece for piece, _ in pieces)
    min_marg = min(0.5 * gap for _, gap in pieces)
    if min_marg < eta:
        return FateReport("grazing", transient_steps=0, step=0, margin=min_marg)
    c_enc = max(0.0, max(float(q.max()) for q in pts))
    head = params.constants.c_bar * (1.0 - 1e-9) - c_enc
    if head <= 0:
        raise NumericalStall("cycle points leave the certifiable zone")
    ball = 0.5 * min(min_marg, head)
    lam = lambda_for_zone(params, c_enc + ball)
    if lam >= 1.0 or lam * ball + residual > ball or residual > 1e-10:
        raise NumericalStall("Banach ball inequality failed after refinement")
    return LimitCycle(
        period=p, points=np.array(pts), itinerary=itinerary, min_margin=min_marg,
        certificate=CycleCertificate(lam=lam, ball_radius=ball, residual=residual),
        certified=True, time_period=float(sum(t_bars[:p].tolist())),
    )


def _detect(params: NetworkParams, v0, max_iter: int, eta: float, tol: float,
            max_period: int = 256):
    rep = params.hypotheses
    certified_mode = rep.h3 and rep.h4 and bool(params.inhibitory)
    lam_det = lambda_for_zone(params, _zone_after_return(params)) if certified_mode else None
    if certified_mode and lam_det >= 1.0:
        certified_mode = False
    c_bar = params.constants.c_bar
    excit, inhib = params.excitatory, params.inhibitory

    v = as_state(params, v0)
    states = [v]
    tbars: list[float] = []
    codes: list[PieceId] = []
    margins: list[Optional[float]] = []
    fired_hist: list[np.ndarray] = []  # firing-set masks
    seen: dict[PieceId, list[int]] = {}
    tie = params.tie_tol()

    for k in range(max_iter + 1):
        v = states[k]
        if not np.any(v):
            return FateReport("synchronized", transient_steps=k, step=k), fired_hist
        # v came from as_state or from the map itself: step it unchecked
        image, fired, _, t_bar, _ = _step_raw(params, v)
        fired_hist.append(fired)
        tbars.append(t_bar)
        if certified_mode and np.all(v <= c_bar) and np.any(v == 0.0):
            piece, gap = _classify_raw(excit, inhib, v, tie)
            m = 0.5 * gap  # 0 on the boundary
            if m < eta:
                return FateReport("grazing", transient_steps=k, step=k, margin=m), fired_hist
            codes.append(piece)
            margins.append(m)
        else:
            codes.append(PieceId("fires", fired=tuple(int(i) for i in np.flatnonzero(fired))))
            margins.append(None)

        history = seen.setdefault(codes[k], [])
        for prev in reversed(history[-8:]):
            p = k - prev
            if p > max_period:
                break
            dist = _sup(states[k], states[prev])
            if certified_mode:
                window = margins[prev: k + 1]
                if any(m is None for m in window):
                    continue
                denom = 1.0 - lam_det ** p
                if denom <= 0.0 or dist / denom > min(window):
                    continue
                result = _refine_cycle(params, states[k], p, tol, eta)
                if isinstance(result, FateReport):
                    result.transient_steps = k
                    result.step = k
                    return result, fired_hist
                return FateReport("cycle", transient_steps=k, cycle=result), fired_hist
            else:
                if dist <= tol:
                    pts = np.array(states[prev: k])
                    cyc = LimitCycle(
                        period=p, points=pts, itinerary=tuple(codes[prev: k]),
                        min_margin=None, certificate=None, certified=False,
                        time_period=float(sum(tbars[prev: k])),
                    )
                    return FateReport("cycle", transient_steps=k, cycle=cyc), fired_hist
        history.append(k)
        states.append(image)
    return FateReport("unresolved", transient_steps=max_iter), fired_hist


def detect_cycle(params: NetworkParams, v0, max_iter: int = 2000,
                 eta: float = 1e-6, tol: float = 1e-12) -> FateReport:
    """Iterate the return map from v0 and classify the orbit's fate.

    Outcomes: synchronized (the exact zero vector is reached), grazing (some
    visited state has margin below eta, a candidate sensitive orbit), cycle
    (an itinerary recurrence admitted a Banach certificate, or, outside the
    certification hypotheses, an exact state recurrence was found and is
    reported uncertified), or unresolved after max_iter returns.
    """
    fate, _ = _detect(params, v0, max_iter, eta, tol)
    return fate


def certify_cycle(params: NetworkParams, candidate: LimitCycle) -> bool:
    """Independent re-verification of a cycle certificate.

    Checks that every point's margin exceeds the ball radius, that the
    Banach inequality lambda*r + residual <= r holds, and that the p-step
    return of every cycle point lands within residual of it (re-evaluated
    through the orbit composition).
    """
    if not candidate.certified or candidate.certificate is None:
        return False
    cert = candidate.certificate
    if cert.lam >= 1.0 or cert.lam * cert.ball_radius + cert.residual > cert.ball_radius:
        return False
    for pt in candidate.points:
        try:
            if not margin(params, pt) > cert.ball_radius:
                return False
        except PreconditionFailed:
            return False
        steps = orbit(params, pt, candidate.period)
        if _sup(steps[-1].state, np.asarray(pt)) > cert.residual:
            return False
    return True


def _cycles_match(a: LimitCycle, b: LimitCycle, thr: float) -> bool:
    if a.period == b.period:
        p = a.period
        for shift in range(p):
            d = max(_sup(a.points[i], b.points[(i + shift) % p]) for i in range(p))
            if d <= thr:
                return True
        return False
    if max(a.period, b.period) % min(a.period, b.period) != 0:
        return False
    # one period divides the other: compare as point sets (Hausdorff)
    d_ab = max(min(_sup(x, y) for y in b.points) for x in a.points)
    d_ba = max(min(_sup(x, y) for y in a.points) for x in b.points)
    return max(d_ab, d_ba) <= thr


@dataclass
class CensusEntry:
    cycle: LimitCycle
    count: int
    basin_fraction: float = 0.0


@dataclass
class CensusReport:
    entries: list[CensusEntry]
    synchronized_fraction: float
    grazing_fraction: float
    unresolved_fraction: float
    samples: int


def cycle_census(params: NetworkParams, sample_count: int, seed: int,
                 max_iter: int = 2000, eta: float = 1e-6, tol: float = 1e-12,
                 threads: int = 1) -> CensusReport:
    """Detect fates from uniform starts on the section inside C_{c_bar},
    deduplicate the found cycles (minimal sup-norm distance over cyclic
    alignments, threshold 10*tol) and report basin fractions.

    Each sample owns the Philox stream (seed, 1 + index), so the census is
    deterministic regardless of execution order or thread count.
    """
    hi = min(params.constants.c_bar, params.theta)
    if hi <= 0:
        raise HypothesisViolated("C_{c_bar} is empty (beta >= beta_plus)")
    # fill the invariant caches here rather than concurrently in the workers
    _ = params.hypotheses, params.excitatory, params.inhibitory

    def one(idx: int) -> FateReport:
        rng = rng_stream(seed, 1 + idx)
        v0 = sample_on_section(rng, params.n, params.alpha, hi, 1)[0]
        return detect_cycle(params, v0, max_iter=max_iter, eta=eta, tol=tol)

    if threads and threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            fates = list(pool.map(one, range(sample_count)))
    else:
        fates = [one(i) for i in range(sample_count)]

    entries: list[CensusEntry] = []
    n_sync = n_graze = n_unres = 0
    thr = 10.0 * tol
    for fate in fates:
        if fate.outcome == "synchronized":
            n_sync += 1
        elif fate.outcome == "grazing":
            n_graze += 1
        elif fate.outcome == "unresolved":
            n_unres += 1
        else:
            for entry in entries:
                if _cycles_match(entry.cycle, fate.cycle, thr):
                    entry.count += 1
                    break
            else:
                entries.append(CensusEntry(cycle=fate.cycle, count=1))
    for entry in entries:
        entry.basin_fraction = entry.count / sample_count
    return CensusReport(
        entries=entries,
        synchronized_fraction=n_sync / sample_count,
        grazing_fraction=n_graze / sample_count,
        unresolved_fraction=n_unres / sample_count,
        samples=sample_count,
    )


def classify_fate(params: NetworkParams, v0, max_iter: int = 2000,
                  eta: float = 1e-6, tol: float = 1e-12) -> FateReport:
    """detect_cycle plus the synchronization-or-excitatory-death dichotomy.

    Flags eventual death of the excitatory population when a certified cycle
    is reached whose itinerary contains no synchronization piece and whose
    firing sets contain no excitatory neuron.
    """
    fate, fired_hist = _detect(params, v0, max_iter, eta, tol)
    excit = set(params.excitatory)
    last_exc = None
    for step_idx, fired in enumerate(fired_hist):
        if any(fired[i] for i in excit):
            last_exc = step_idx
    fate.last_excitatory_spike = last_exc
    if fate.outcome == "synchronized":
        fate.excitatory_death = False
    elif fate.outcome == "cycle":
        cyc = fate.cycle
        no_sync_piece = all(p.kind != "sync" for p in cyc.itinerary)
        cycle_fired: set[int] = set()
        for pt in cyc.points:
            cycle_fired.update(int(i) for i in return_map(params, pt).fired)
        fate.excitatory_death = no_sync_piece and not (cycle_fired & excit)
    return fate


@dataclass(frozen=True)
class SyncReport:
    ok: bool
    max_returns: int
    bound_p: int
    max_time: float
    bound_t_trans: float
    samples: int


def sync_test(params: NetworkParams, sample_count: int, seed: int) -> SyncReport:
    """Global synchronization check for fully excitatory networks.

    Requires every off-diagonal interaction strictly positive and
    n >= ceil(theta/m)^2 with m the smallest interaction; samples start states
    on the non-negative part of the section and verifies that each reaches the
    exact zero vector within p = ceil(theta/m) returns and within the
    transient-time bound (ln((beta-alpha)/(beta-theta)) + p ln(beta/(beta-theta)))/gamma.
    """
    n = params.n
    off = params.H[~np.eye(n, dtype=bool)]
    if off.size == 0 or not np.all(off > 0):
        raise HypothesisViolated("network is not fully excitatory (some interaction <= 0)")
    m = float(off.min())
    p = math.ceil(params.theta / m)
    if n < p * p:
        raise HypothesisViolated(f"need n >= ceil(theta/m)^2 = {p * p}, got n = {n}")
    beta, theta, alpha, gamma = params.beta, params.theta, params.alpha, params.gamma
    bound_t = (math.log((beta - alpha) / (beta - theta)) + p * math.log(beta / (beta - theta))) / gamma
    rng = rng_stream(seed, 0)
    starts = sample_on_section(rng, n, 0.0, theta, sample_count)
    steps, total = _kernels.sync_run(
        starts, params.H, beta, theta, alpha, gamma, params.tie_tol(), p,
    )
    passed = (steps >= 0) & ~(total > bound_t)
    ok = bool(passed.all())
    # the maxima run over the passing starts only
    max_returns = int(steps[passed].max(initial=0))
    max_time = float(total[passed].max(initial=0.0))
    return SyncReport(ok=ok, max_returns=max_returns, bound_p=p,
                      max_time=max_time, bound_t_trans=bound_t, samples=sample_count)
