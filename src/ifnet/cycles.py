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
that piece word once, for every orbit that recurs on it.  The census steps
all its samples as one batch and keeps their itineraries in arrays: each
return tests every live sample's look-back candidates (the last 8 earlier
returns on its piece) with array operations, so its cost follows the returns
stepped, not the number of Python objects per sample.

Networks that do not satisfy the certification hypotheses (e.g. purely
excitatory ones) are still handled in a whole-section mode that codes the
itinerary by firing sets.  Its recurrence test is the same inequality, with
margins as wide as the tie tolerance and no contraction: a recurrence within
the tie tolerance, reported as an uncertified periodic orbit.

Pieces and margins are computed for batches of states only (`_classify`).
`certify_cycle` re-checks a certificate from the cycle's points alone, with
all of them classified and stepped as one batch.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import _kernels
from ._sampling import restart, rng_stream, sample_on_section
from .contraction import _in_zone_rows, _zone_after_return, lambda_for_zone
from .dynamics import as_state
from .errors import HypothesisViolated, NumericalStall, PreconditionFailed
from .params import NetworkParams, NeuronKind

__all__ = [
    "PieceId", "CycleCertificate", "LimitCycle", "FateReport",
    "detect_cycle", "certify_cycle",
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
    return PieceId("inhib", index=code) if code >= 0 else PieceId("sync" if code == _SYNC else "boundary")


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


# longest period detection looks for, and how many occurrences of a piece it looks back over
_MAX_PERIOD, _LOOK_BACK = 256, 8


def _set_codes(fired: np.ndarray, sets: dict, n: int) -> np.ndarray:
    """Piece code n + i of each row's firing set, i the set's index in `sets`
    (packed firing set -> code, extended with the sets seen first here)."""
    packed = np.packbits(fired, axis=1)
    order = np.lexsort(packed.T)
    new = np.concatenate(([True], (packed[order[1:]] != packed[order[:-1]]).any(axis=1)))
    ids = np.array([sets.setdefault(packed[i].tobytes(), n + len(sets)) for i in order[new]])
    return ids[np.cumsum(new) - 1][np.argsort(order)]


def _walk(back: np.ndarray, f: np.ndarray, steps: int) -> np.ndarray:
    """(len(f), steps) records, steps >= 1: column j holds the record j returns before f's, in its row."""
    out = [f]
    for _ in range(steps - 1):
        out.append(back[out[-1]])
    return np.stack(out, axis=1)


def _fates(params: NetworkParams, V0: np.ndarray, max_iter: int, eta: float):
    """Fates of the rows of an (m, n) batch of starts, stepped in lockstep.

    Each return steps every live row with one `step_batch` call and tests the
    recurrences of all live rows with array operations; a row leaves the batch
    once its fate is known.  Each return of a live row is a record in a flat
    history, which grows with the live rows: its state, its piece code (the
    inhibitory winner, _SYNC, _BOUNDARY, or n + i for the i-th firing set
    seen, which codes a return outside certified mode or outside the zone)
    and its margin (-inf outside the zone).  The look-back candidates of a
    return are the last _LOOK_BACK earlier records of its row with its code,
    kept in a ring, at most _MAX_PERIOD returns back; the newest one that
    passes the test is taken.  The one test compares the distance over
    1 - lam ** p with the least margin of the window.  In certified mode lam
    is the zone factor lam_det; outside it every margin is the tie tolerance
    and lam is 0, so a state recurs when every potential ties its earlier
    value.  Windows with the same piece word share one least-rotation key,
    and candidates whose keys agree share one `_solve`, made in (return, row)
    order.  Returns (fates, last_exc): fates[r] is row r's FateReport or the
    error its solve raised, last_exc[r] the last return at which an
    excitatory neuron fired (-1 for none).
    """
    if max_iter < 0:
        raise PreconditionFailed("max_iter must be at least 0")
    rep = params.hypotheses
    lam_det = lambda_for_zone(params, _zone_after_return(params)) if rep.h3 and rep.h4 and params.inhibitory else 1.0
    certified_mode = lam_det < 1.0
    # 1 - lam ** p by lag p, each from the Python expression: positive for every lag p >= 1,
    # as 0 <= lam < 1, and 1.0 outside certified mode
    denom = np.array([1.0 - (lam_det if certified_mode else 0.0) ** p for p in range(_MAX_PERIOD + 1)])
    tie = params.tie_tol()
    excit = list(params.excitatory)

    m, n = V0.shape
    fates = [None] * m
    last_exc = np.full(m, -1, np.int64)
    sets, solved, keys = {}, {}, {}  # packed firing set -> code; least rotation -> its solve; word -> (shift, least rotation)
    # the flat history: per record its state, code, margin, return, and its row's record one return earlier
    states, codes, margs, rets, back = (np.zeros((4 * m, n)), *(np.zeros(4 * m, t) for t in (np.int64, np.float64, np.int64, np.int64)))
    occ = np.full((m, n + 2, _LOOK_BACK), -1)  # the ring: by row and code + 2, its last records with that code, newest first
    top, live, V, before = 0, np.arange(m), V0, np.full(m, -1)  # before: each live row's latest record
    for k in range(max_iter + 1):
        zero = ~V.any(axis=1)
        for r in live[zero].tolist():
            fates[r] = FateReport("synchronized", transient_steps=k, step=k)
        live, V, before = live[~zero], V[~zero], before[~zero]
        if not live.size:
            break
        image, fired, _, _ = _kernels.step_batch(params, V)
        last_exc[live[fired[:, excit].any(axis=1)]] = k
        code, marg = np.empty(live.size, np.int64), np.full(live.size, -math.inf if certified_mode else tie)
        zone = _in_zone_rows(V, params.constants.c_bar) if certified_mode else np.zeros(live.size, np.bool_)
        if certified_mode:
            piece, gap = _classify(params, V)
            code[zone], marg[zone] = piece[zone], 0.5 * gap[zone]  # margin 0 on the boundary
        if not zone.all():
            code[~zone] = _set_codes(fired[~zone], sets, n)
        if code.max() + 2 >= occ.shape[1]:
            occ = np.concatenate((occ, np.full((m, code.max() + 3, _LOOK_BACK), -1)), axis=1)
        graze = zone & (marg < eta)

        f = np.arange(top, top + live.size)
        top += live.size
        if top > len(rets):  # double the history's capacity
            states, codes, margs, rets, back = (np.concatenate((a, np.zeros_like(a))) for a in (states, codes, margs, rets, back))
        states[f], codes[f], margs[f], rets[f], back[f] = V, code, marg, k, before

        prev = occ[live, code + 2]
        i, j = np.nonzero((prev >= 0) & ~graze[:, None])  # the candidates, by row and then newest first
        cand = prev[i, j]
        p = k - rets[cand]
        keep = p <= _MAX_PERIOD
        i, cand, p = i[keep], cand[keep], p[keep]
        ratio = np.abs(V[i] - states[cand]).max(axis=1) / denom[p]
        ok = (ratio <= marg[i]) & (ratio <= margs[cand])  # the margins at both ends
        if ok.any():  # the window's least margin, from a suffix-min back from return k
            low = np.minimum.accumulate(margs[_walk(back, f[i[ok]], p[ok].max() + 1)], axis=1)
            ok[ok] = ratio[ok] <= low[np.arange(len(low)), p[ok]]
        stay = ~graze
        if ok.any():
            i, first = np.unique(i[ok], return_index=True)
            lag = p[ok][first]
            named = [] if certified_mode else [tuple(np.flatnonzero(np.unpackbits(np.frombuffer(b, np.uint8))).tolist()) for b in sets]
            stay[i] = False
            for r, w, q in zip(live[i].tolist(), _walk(back, back[f[i]], lag.max()), lag.tolist()):
                w = w[q - 1::-1]  # the records of returns k - q .. k - 1
                if not certified_mode:
                    pts = states[w]
                    fates[r] = FateReport("cycle", transient_steps=k, cycle=LimitCycle(
                        period=q, points=pts, itinerary=tuple(PieceId("fires", fired=named[c - n]) for c in codes[w].tolist()),
                        min_margin=None, certificate=None, certified=False, time_period=_period_time(params, pts)))
                    continue
                word = tuple(codes[w].tolist())
                if word not in keys:
                    s = min(range(q), key=lambda i: word[i:] + word[:i])
                    keys[word] = s, word[s:] + word[:s]
                s, key = keys[word]
                if key not in solved:
                    try:
                        solved[key] = _solve(params, np.roll(states[w], -s, axis=0), eta)
                    except (NumericalStall, PreconditionFailed) as exc:
                        solved[key] = exc
                result = solved[key]
                fates[r] = (FateReport("cycle", transient_steps=k, cycle=result) if isinstance(result, LimitCycle)
                            else replace(result, transient_steps=k, step=k) if isinstance(result, FateReport) else result)
        for r, g in zip(live[graze].tolist(), marg[graze].tolist()):
            fates[r] = FateReport("grazing", transient_steps=k, step=k, margin=g)
        r, c = live[stay], code[stay] + 2
        occ[r, c] = np.concatenate((f[stay, None], occ[r, c, :-1]), axis=1)
        live, V, before = live[stay], image[stay], f[stay]
    for r in live.tolist():
        fates[r] = FateReport("unresolved", transient_steps=max_iter)
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

    Recomputes everything from the candidate's points: a Dale network with an
    inhibitory neuron, exactly `period >= 1` points, each a section state in
    C_{c_bar} whose margin exceeds the ball radius, 0 <= lambda < 1 with the
    Banach inequality lambda*r + residual <= r, and the p-step return of every
    cycle point within residual of it (all points stepped as one batch).
    Every comparison fails on NaN.
    """
    cert = candidate.certificate
    if (not candidate.certified or cert is None or NeuronKind.MIXED in params.kinds
            or not params.inhibitory or not len(candidate.points) == candidate.period >= 1):
        return False
    if not (0.0 <= cert.lam < 1.0 and cert.lam * cert.ball_radius + cert.residual <= cert.ball_radius):
        return False
    try:
        pts = np.array([as_state(params, pt) for pt in candidate.points])
    except PreconditionFailed:
        return False
    if not (_in_zone_rows(pts, params.constants.c_bar).all()
            and (0.5 * _classify(params, pts)[1] > cert.ball_radius).all()):
        return False
    image = pts
    for _ in range(len(pts)):
        image = _kernels.step_batch(params, image)[0]
    return bool((np.abs(image - pts).max(axis=1) <= cert.residual).all())


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
    starts = np.empty((sample_count, params.n))
    for idx, row in enumerate(starts):  # the draws of sample_on_section(..., 1), in its order
        restart(rng, seed, 1 + idx)
        row[:] = rng.uniform(params.alpha, hi, params.n)
        row[rng.integers(params.n)] = 0.0
    return starts


def cycle_census(params: NetworkParams, sample_count: int, seed: int,
                 max_iter: int = 2000, eta: float = 1e-6) -> CensusReport:
    """Detect fates from uniform starts on the section inside C_{c_bar},
    deduplicate the found cycles (minimal sup-norm distance over cyclic
    alignments, threshold ten times the tie tolerance) and report basin fractions.

    Each sample owns the Philox stream (seed, 1 + index).  All samples step
    together as one lockstep batch, whose recurrence tests run as array
    operations over the live samples, and each one's fate is what
    detect_cycle gives for its start alone, so the census is deterministic.
    Samples that recur on the same piece word share one solve, and a fate
    whose cycle is an entry's own solved object counts for that entry without
    an alignment search (the entry matched no earlier one when it was made).
    When a solve fails, the error of the lowest-index sample that reached it
    is raised.
    """
    if sample_count < 1:
        raise PreconditionFailed("sample_count must be at least 1")
    V0 = _census_starts(params, sample_count, seed)
    fates = [_checked(f) for f in _fates(params, V0, max_iter, eta)[0]]
    outcomes = Counter(fate.outcome for fate in fates)

    entries: list[CensusEntry] = []
    owners = {}  # id of an entry's own cycle -> the entry, which matched no earlier entry
    thr = 10.0 * params.tie_tol()
    for cycle in (fate.cycle for fate in fates if fate.outcome == "cycle"):
        entry = owners.get(id(cycle)) or next((e for e in entries if _cycles_match(e.cycle, cycle, thr)), None)
        if entry is None:
            entry = owners[id(cycle)] = CensusEntry(cycle=cycle, count=0)
            entries.append(entry)
        entry.count += 1
    for entry in entries:
        entry.basin_fraction = entry.count / sample_count
    return CensusReport(
        entries=entries,
        synchronized_fraction=outcomes["synchronized"] / sample_count,
        grazing_fraction=outcomes["grazing"] / sample_count,
        unresolved_fraction=outcomes["unresolved"] / sample_count,
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
    if sample_count < 1:
        raise PreconditionFailed("sample_count must be at least 1")
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
