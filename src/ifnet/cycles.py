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
recurrence whose contraction budget admits such an r, then solves the cycle of
that piece word once, for every orbit that recurs on it.

Networks that do not satisfy the certification hypotheses (e.g. purely
excitatory ones) are still handled in a whole-section mode that codes the
itinerary by firing sets and reports exact recurrences as uncertified
periodic orbits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import _kernels
from ._sampling import restart, rng_stream, sample_on_section
from .contraction import _in_zone_rows, _zone_after_return, lambda_for_zone
from .dynamics import as_state, orbit
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


# piece codes beside the inhibitory indices 0..n-1
_SYNC, _BOUNDARY = -1, -2


def _classify(params: NetworkParams, V: np.ndarray):
    """Piece codes and gaps of the rows of an (m, n) batch of section states.

    A code is the winning inhibitory index, _SYNC or _BOUNDARY, and a gap the
    exact winner/runner-up difference (0 on the boundary, where the gap is
    within the tie tolerance).  The first maximal inhibitory index wins a tie.
    """
    inhib = np.array(params.inhibitory)
    inh = V[:, inhib]
    m_minus = inh.max(axis=1)
    m_plus = V[:, list(params.excitatory)].max(axis=1, initial=-math.inf)
    winner = inhib[inh.argmax(axis=1)]
    others = V.copy()
    others[np.arange(V.shape[0]), winner] = -math.inf
    sync = m_plus >= m_minus
    gap = np.where(sync, m_plus - m_minus, m_minus - others.max(axis=1))
    code = np.where(sync, _SYNC, winner)
    edge = ~(gap > params.tie_tol())
    code[edge] = _BOUNDARY
    gap[edge] = 0.0
    return code, gap


def _piece_id(code: int) -> PieceId:
    if code == _SYNC:
        return PieceId("sync")
    if code == _BOUNDARY:
        return PieceId("boundary")
    return PieceId("inhib", index=code)


def _piece(params: NetworkParams, arr: np.ndarray):
    """(PieceId, gap) of a section state of a network with pieces, which must
    lie in C_{c_bar}."""
    if not _in_zone_rows(arr[None], params.constants.c_bar)[0]:
        raise PreconditionFailed("state is outside C_{c_bar}")
    code, gap = _classify(params, arr[None])
    return _piece_id(int(code[0])), float(gap[0])


def classify_piece(params: NetworkParams, v) -> PieceId:
    """Continuity piece of a state in the absorbed zone.

    Sync when the excitatory maximum dominates the inhibitory one by more than
    the tie tolerance; Inhib(i) when inhibitory neuron i strictly dominates
    everyone by more than it; Boundary otherwise.
    """
    _require_pieces(params)
    piece, _ = _piece(params, as_state(params, v))
    return piece


def margin(params: NetworkParams, v) -> float:
    """Lower bound on the sup-norm distance to the piece boundary: half the
    exact winner/runner-up gap (0 on the boundary itself).  Perturbing every
    coordinate by less than the margin cannot change the strict ordering that
    determines the piece."""
    _require_pieces(params)
    _, gap = _piece(params, as_state(params, v))
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
    contraction: Optional[float] = None  # |l2/l1| of the piece-matrix product, per period


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


def _period_time(params: NetworkParams, points: np.ndarray) -> float:
    """Sum of the waiting times of the points of one period, in orbit order."""
    t = _kernels.wait_times(params, points.max(axis=1))
    return float(sum(t.tolist()))


def _certified_cycle(params: NetworkParams, seq: np.ndarray, p: int, eta: float):
    """LimitCycle with its Banach certificate from 2p + 1 settled iterates,
    or a grazing FateReport when the cycle hugs the boundary below eta."""
    # the residual is measured at every cycle point
    residual = float(np.abs(seq[p:] - seq[:p + 1]).max())
    pts = seq[:p]
    if not _in_zone_rows(pts, params.constants.c_bar).all():
        raise PreconditionFailed("state is outside C_{c_bar}")
    code, gap = _classify(params, pts)
    min_marg = min((0.5 * gap).tolist())
    if min_marg < eta:
        return FateReport("grazing", transient_steps=0, step=0, margin=min_marg)
    c_enc = max(0.0, float(pts.max()))
    head = params.constants.c_bar * (1.0 - 1e-9) - c_enc
    if head <= 0:
        raise NumericalStall("cycle points leave the certifiable zone")
    ball = 0.5 * min(min_marg, head)
    lam = lambda_for_zone(params, c_enc + ball)
    if lam >= 1.0 or lam * ball + residual > ball or residual > 1e-10:
        raise NumericalStall("Banach ball inequality failed at the solved cycle")
    return LimitCycle(
        period=p, points=pts, itinerary=tuple(map(_piece_id, code.tolist())),
        min_margin=min_marg,
        certificate=CycleCertificate(lam=lam, ball_radius=ball, residual=residual),
        certified=True, time_period=_period_time(params, pts),
    )


def _solve(params: NetworkParams, window: np.ndarray, eta: float):
    """Cycle on the pieces of a window of p states: the dominant eigenvector of
    the product of their piece matrices (the p-step map there is projective),
    stepped 2p times to settle its last bits.  The next 2p + 1 states go to
    `_certified_cycle`, whose residual gate rejects a solve off the pieces.
    The eigenvalue ratio |l2/l1| is the cycle's measured contraction per period."""
    p = window.shape[0]
    prod = np.eye(params.n + 1)
    for M in _kernels.piece_matrix(params, window):
        prod = M @ prod
    w, vecs = np.linalg.eig(prod)
    lead, second = np.argsort(-np.abs(w))[:2]
    x = vecs[:, lead]
    if w[lead].imag != 0.0 or not abs(w[lead]) > abs(w[second]) or x[-1] == 0.0:
        raise NumericalStall(f"period-{p} piece product has no strictly dominant real eigenvector")
    x = (x[:-1] / x[-1]).real
    seq = np.vstack((x, _kernels.run_orbit(params, x, 4 * p)[0]))
    cycle = _certified_cycle(params, seq[2 * p:], p, eta)
    if isinstance(cycle, LimitCycle):
        cycle.contraction = float(abs(w[second] / w[lead]))
    return cycle


# longest period detection looks for
_MAX_PERIOD = 256


class _Track:
    """Detection's record of one sample's orbit: per return its state, piece
    (a firing set outside the zone) and margin (None outside the zone), and
    the returns at which each piece occurred."""

    __slots__ = ("states", "pieces", "margins", "seen")

    def __init__(self):
        self.states, self.pieces, self.margins = [], [], []
        self.seen = {}


def _fates(params: NetworkParams, V0: np.ndarray, max_iter: int, eta: float):
    """Fates of the rows of an (m, n) batch of starts, stepped in lockstep.

    Each return steps every live row with one `step_batch` call; only the
    recurrence bookkeeping runs per row, and a row leaves the batch once its
    fate is known.  Candidates whose piece words share a least rotation share
    one `_solve`.  Outside certified mode a state recurs when every potential
    ties its earlier value.  Returns (fates, last_exc): fates[r] is row r's
    FateReport or the error its solve raised, last_exc[r] the last return at
    which an excitatory neuron fired (-1 for none).
    """
    rep = params.hypotheses
    certified_mode = rep.h3 and rep.h4 and bool(params.inhibitory)
    lam_det = lambda_for_zone(params, _zone_after_return(params)) if certified_mode else None
    if certified_mode and lam_det >= 1.0:
        certified_mode = False
    tie = params.tie_tol()
    excit = list(params.excitatory)

    m = V0.shape[0]
    fates = [None] * m
    last_exc = np.full(m, -1, np.int64)
    tracks = [_Track() for _ in range(m)]
    candidates = []  # (row, first return of the recurring window, return)
    live, V = np.arange(m), V0
    for k in range(max_iter + 1):
        zero = ~V.any(axis=1)
        for r in live[zero].tolist():
            fates[r] = FateReport("synchronized", transient_steps=k, step=k)
        live, V = live[~zero], V[~zero]
        if not live.size:
            break
        image, fired, _, _ = _kernels.step_batch(params, V)
        last_exc[live[fired[:, excit].any(axis=1)]] = k
        if certified_mode:
            zone = _in_zone_rows(V, params.constants.c_bar).tolist()
            code, gap = _classify(params, V)
            code, marg = code.tolist(), (0.5 * gap).tolist()  # margin 0 on the boundary
        leave = np.zeros(live.size, np.bool_)
        for i, r in enumerate(live.tolist()):
            if certified_mode and zone[i]:
                if marg[i] < eta:
                    fates[r] = FateReport("grazing", transient_steps=k, step=k, margin=marg[i])
                    leave[i] = True
                    continue
                piece, m_k = _piece_id(code[i]), marg[i]
            else:
                piece, m_k = PieceId("fires", fired=tuple(np.flatnonzero(fired[i]).tolist())), None
            track, state = tracks[r], V[i]
            track.states.append(state)
            track.pieces.append(piece)
            track.margins.append(m_k)
            history = track.seen.setdefault(piece, [])
            for prev in reversed(history[-8:]):
                p = k - prev
                if p > _MAX_PERIOD:
                    break
                dist = _sup(state, track.states[prev])
                if certified_mode:
                    window = track.margins[prev:]
                    if any(w is None for w in window):
                        continue
                    denom = 1.0 - lam_det ** p
                    if denom <= 0.0 or dist / denom > min(window):
                        continue
                    candidates.append((r, prev, k))
                elif dist <= tie:
                    pts = np.array(track.states[prev:k])
                    fates[r] = FateReport("cycle", transient_steps=k, cycle=LimitCycle(
                        period=p, points=pts, itinerary=tuple(track.pieces[prev:k]),
                        min_margin=None, certificate=None, certified=False,
                        time_period=_period_time(params, pts),
                    ))
                else:
                    continue
                leave[i] = True
                break
            if not leave[i]:
                history.append(k)
        live, V = live[~leave], image[~leave]
    for r in live.tolist():
        fates[r] = FateReport("unresolved", transient_steps=max_iter)

    solved = {}  # least rotation of a piece word -> its solve
    for r, prev, k in candidates:
        word = [piece.index for piece in tracks[r].pieces[prev:k]]
        s = min(range(k - prev), key=lambda i: word[i:] + word[:i])
        key = tuple(word[s:] + word[:s])
        if key not in solved:
            try:
                solved[key] = _solve(params, np.roll(tracks[r].states[prev:k], -s, axis=0), eta)
            except (NumericalStall, PreconditionFailed) as exc:
                solved[key] = exc
        result = solved[key]
        if isinstance(result, LimitCycle):
            result = FateReport("cycle", transient_steps=k, cycle=result)
        elif isinstance(result, FateReport):
            result = replace(result, transient_steps=k, step=k)
        fates[r] = result
    return fates, last_exc


def _checked(fate):
    """A fate from _fates, raising it when it is an error."""
    if isinstance(fate, Exception):
        raise fate
    return fate


def detect_cycle(params: NetworkParams, v0, max_iter: int = 2000, eta: float = 1e-6) -> FateReport:
    """Iterate the return map from v0 and classify the orbit's fate.

    Outcomes: synchronized (the exact zero vector is reached), grazing (some
    visited state has margin below eta, a candidate sensitive orbit), cycle
    (an itinerary recurrence admitted a Banach certificate, or, outside the
    certification hypotheses, an exact state recurrence was found and is
    reported uncertified), or unresolved after max_iter returns.
    """
    fates, _ = _fates(params, as_state(params, v0)[None], max_iter, eta)
    return _checked(fates[0])


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
        twice = np.concatenate((b.points, b.points))  # twice[s:s + p] is b shifted by s
        return any(np.abs(a.points - twice[s:s + p]).max() <= thr for s in range(p))
    if max(a.period, b.period) % min(a.period, b.period) != 0:
        return False
    # one period divides the other: compare as point sets (Hausdorff)
    d = np.abs(a.points[:, None, :] - b.points[None, :, :]).max(axis=2)
    return bool(max(d.min(axis=1).max(), d.min(axis=0).max()) <= thr)


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


def _census_starts(params: NetworkParams, sample_count: int, seed: int) -> np.ndarray:
    """(sample_count, n) uniform section starts inside C_{c_bar}; sample idx
    draws from the Philox stream (seed, 1 + idx), through one generator re-keyed
    per sample."""
    hi = min(params.constants.c_bar, params.theta)
    if hi <= 0:
        raise HypothesisViolated("C_{c_bar} is empty (beta >= beta_plus)")
    rng = rng_stream(seed, 1)
    starts = [sample_on_section(restart(rng, seed, 1 + idx), params.n, params.alpha, hi, 1)[0]
              for idx in range(sample_count)]
    return np.array(starts).reshape(sample_count, params.n)


def cycle_census(params: NetworkParams, sample_count: int, seed: int,
                 max_iter: int = 2000, eta: float = 1e-6) -> CensusReport:
    """Detect fates from uniform starts on the section inside C_{c_bar},
    deduplicate the found cycles (minimal sup-norm distance over cyclic
    alignments, threshold ten times the tie tolerance) and report basin fractions.

    Each sample owns the Philox stream (seed, 1 + index).  All samples step
    together as one lockstep batch, and each one's fate is what detect_cycle
    gives for its start alone, so the census is deterministic.  Samples that
    recur on the same piece word share one solve.  When a solve fails, the
    error of the lowest-index sample that reached it is raised.
    """
    V0 = _census_starts(params, sample_count, seed)
    fates = [_checked(f) for f in _fates(params, V0, max_iter, eta)[0]]

    entries: list[CensusEntry] = []
    n_sync = n_graze = n_unres = 0
    thr = 10.0 * params.tie_tol()
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


def classify_fate(params: NetworkParams, v0, max_iter: int = 2000, eta: float = 1e-6) -> FateReport:
    """detect_cycle plus the synchronization-or-excitatory-death dichotomy.

    Flags eventual death of the excitatory population when a certified cycle
    is reached whose itinerary contains no synchronization piece and whose
    firing sets contain no excitatory neuron.
    """
    fates, last_exc = _fates(params, as_state(params, v0)[None], max_iter, eta)
    fate = _checked(fates[0])
    fate.last_excitatory_spike = int(last_exc[0]) if last_exc[0] >= 0 else None
    if fate.outcome == "synchronized":
        fate.excitatory_death = False
    elif fate.outcome == "cycle":
        cyc = fate.cycle
        no_sync_piece = all(p.kind != "sync" for p in cyc.itinerary)
        fired = _kernels.step_batch(params, cyc.points)[1]
        fate.excitatory_death = no_sync_piece and not fired[:, list(params.excitatory)].any()
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
    steps, total = _kernels.sync_run(params, starts, p)
    passed = (steps >= 0) & ~(total > bound_t)
    ok = bool(passed.all())
    # the maxima run over the passing starts only
    max_returns = int(steps[passed].max(initial=0))
    max_time = float(total[passed].max(initial=0.0))
    return SyncReport(ok=ok, max_returns=max_returns, bound_p=p,
                      max_time=max_time, bound_t_trans=bound_t, samples=sample_count)
