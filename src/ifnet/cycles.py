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
period-p orbit has an inhibitory winner whose margin exceeds r, the balls of
radius r lie in C_{c_bar}, and the p-step image of the r-ball around a point
stays inside it (lambda * r + residual <= r for the contraction factor lambda
of the zone at level max coordinate + r), then a unique attracting periodic
orbit lives in the ball.  It needs a Dale network with an inhibitory neuron,
not the interaction strength H3: H3 only makes every orbit reach the zone.

Detection codes each return by its winner (the neuron of largest potential)
and watches each orbit for a recurrence: a return within the tie tolerance of
an earlier one with the same winner, or, when the image of C_{c_bar} lies in
a strictly smaller zone of factor lambda < 1, a return close enough that the
contraction budget admits a ball inside every margin of the window between
them.  A return inside C_{c_bar} of a certifiable network has its winner
margin, and grazes when that is below eta; every other return has the tie
tolerance as its margin.  A recurring window inside C_{c_bar} of a
certifiable network is solved once per piece word, for every orbit that
recurs on it; any other window, and one whose solve fails on a recurrence
within the tie tolerance, is reported as an uncertified cycle of its
recurrent states.  The census steps all its samples as one batch and keeps
their itineraries in arrays: each return tests every live sample's
look-back candidates (the last 8 earlier returns with its winner) with array
operations, so its cost follows the returns stepped, not the number of
Python objects per sample.

A cycle's itinerary is the tuple of its pieces' printed names, as
`cycles.json` writes them: "inhib:i" (neuron i, from 1) for a certified
cycle, and the firing set, "J:1;3", for an uncertified one.

Pieces and margins are computed for batches of states only (`_classify`).
`certify_cycle` re-checks a certificate from the cycle's points alone, with
all of them classified and stepped as one batch.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from . import _kernels
from ._sampling import restart, rng_stream, sample_on_section
from .contraction import _in_zone_rows, _zone_after_return, lambda_for_zone
from .dynamics import as_state
from .errors import HypothesisViolated, NumericalStall, PreconditionFailed
from .params import NetworkParams

__all__ = [
    "CycleCertificate", "LimitCycle", "FateReport",
    "detect_cycle", "certify_cycle",
    "cycle_census", "classify_fate", "sync_test",
    "CensusEntry", "CensusReport", "SyncReport",
]


# piece codes beside the inhibitory indices 0..n-1
_SYNC, _BOUNDARY = -1, -2


def _certifiable(params: NetworkParams) -> bool:
    """A Dale network with an inhibitory neuron: one whose cycles a certificate can cover."""
    return params.hypotheses.h4 and bool(params.inhibitory)


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


@dataclass(frozen=True)
class CycleCertificate:
    lam: float
    ball_radius: float
    residual: float


@dataclass
class LimitCycle:
    period: int
    points: np.ndarray                  # (period, n)
    itinerary: tuple                    # printed piece names: "inhib:2", "J:1;3", ...
    min_margin: Optional[float]
    certificate: Optional[CycleCertificate]
    certified: bool
    time_period: float
    contraction: Optional[float] = None  # |l2/l1| of the piece-matrix product, per period


@dataclass
class FateReport:
    outcome: str                        # synchronized | cycle | grazing | unresolved
    transient_steps: int
    margin: Optional[float] = None
    cycle: Optional[LimitCycle] = None
    excitatory_death: Optional[bool] = None
    last_excitatory_spike: Optional[int] = None


def _period_time(params: NetworkParams, points: np.ndarray) -> float:
    """Sum of the waiting times of the points of one period, in orbit order."""
    t = _kernels.wait_times(params, points.max(axis=1))
    return float(sum(t.tolist()))


def _ball_factor(params: NetworkParams, pts: np.ndarray, code: np.ndarray, r: float) -> float:
    """The least contraction factor a certificate of ball radius r may claim
    for cycle points of piece codes `code`: lambda of the zone at level
    max(0, largest coordinate) + r, which holds the r-balls.  Raises
    PreconditionFailed unless every point has an inhibitory winner and that
    level lies in [0, c_bar)."""
    level = max(0.0, float(pts.max())) + r
    if not ((code >= 0).all() and level < params.constants.c_bar):
        raise PreconditionFailed("a cycle point has no inhibitory winner, or its ball leaves C_{c_bar}")
    return lambda_for_zone(params, level)  # which raises below level 0


def _certified_cycle(params: NetworkParams, seq: np.ndarray, p: int, eta: float):
    """LimitCycle with its Banach certificate from 2p + 1 settled iterates,
    or a grazing FateReport when the cycle hugs the boundary below eta.  A
    cycle point without an inhibitory winner is refused: without H3 the
    synchronization piece need not map to the origin."""
    # the residual is measured at every cycle point
    residual = float(np.abs(seq[p:] - seq[:p + 1]).max())
    pts = seq[:p]
    if not _in_zone_rows(pts, params.constants.c_bar).all():
        raise PreconditionFailed("state is outside C_{c_bar}")
    code, gap = _classify(params, pts)
    min_marg = min((0.5 * gap).tolist())
    if min_marg < eta:
        return FateReport("grazing", transient_steps=0, margin=min_marg)
    c_enc = max(0.0, float(pts.max()))
    head = params.constants.c_bar * (1.0 - 1e-9) - c_enc
    if head <= 0:
        raise NumericalStall("cycle points leave the certifiable zone")
    ball = 0.5 * min(min_marg, head)
    lam = _ball_factor(params, pts, code, ball)
    if lam >= 1.0 or lam * ball + residual > ball or residual > 1e-10:
        raise NumericalStall("Banach ball inequality failed at the solved cycle")
    return LimitCycle(
        period=p, points=pts, min_margin=min_marg,
        itinerary=tuple(f"inhib:{c + 1}" for c in code.tolist()),
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


@lru_cache(maxsize=1 << 12)
def _set_name(fired: bytes) -> str:
    """Printed name of a firing set, given as the bytes of one row of bools: "J:1;3"."""
    return "J:" + ";".join(str(j + 1) for j in np.flatnonzero(np.frombuffer(fired, np.bool_)).tolist())


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
    history, which grows with the live rows: its state, its firing set, its
    code (the winner, the first neuron of largest potential), its margin and
    whether it lies in C_{c_bar} of a certifiable network.  A return inside
    C_{c_bar} of a certifiable network has half its winner gap as margin (0
    on the boundary) and grazes when that is below eta; every other return
    has the tie tolerance.  The look-back candidates of a return are the last
    _LOOK_BACK earlier records of its row with its code, kept in a ring, at
    most _MAX_PERIOD returns back; the newest one that passes the test is
    taken.  A candidate passes when its sup distance is within the tie
    tolerance, or when the contraction budget admits it: the distance over
    1 - lam ** p is at most the least margin of the window.  There is a
    budget only when lam, the factor of the zone that holds the image of
    C_{c_bar} in a certifiable network, is that of a level in [0, c_bar)
    (which H3 gives).  A window wholly inside C_{c_bar} of a certifiable
    network is solved: windows with the same piece word share one
    least-rotation key, and candidates whose keys agree share one `_solve`,
    made in (return, row) order.  Any other window is an uncertified cycle of
    its states, and so is one whose solve fails on a recurrence within the
    tie tolerance.  Returns (fates, last_exc): fates[r] is row r's FateReport
    or the error its solve raised, last_exc[r] the last return at which an
    excitatory neuron fired (-1 for none).
    """
    if max_iter < 0:
        raise PreconditionFailed("max_iter must be at least 0")
    certifiable, c_bar, tie = _certifiable(params), params.constants.c_bar, params.tie_tol()
    level = _zone_after_return(params)
    lam = lambda_for_zone(params, level) if certifiable and 0.0 <= level < c_bar else 1.0
    # 1 - lam ** p by lag p, each from the Python expression: positive for every lag p >= 1 when
    # lam < 1, the contraction budget; without one nothing but a tie passes
    denom = np.array([1.0 - lam ** p for p in range(_MAX_PERIOD + 1)])
    excit = list(params.excitatory)

    m, n = V0.shape
    fates = [None] * m
    last_exc = np.full(m, -1, np.int64)
    solved, keys = {}, {}  # least rotation -> its solve; word -> (shift, least rotation)
    # the flat history: per record its state, firing set, code, margin, zone flag, return, and its row's record one return earlier
    states, sets = np.zeros((4 * m, n)), np.zeros((4 * m, n), np.bool_)
    codes, margs, zones, rets, back = (np.zeros(4 * m, t) for t in (np.int64, np.float64, np.bool_, np.int64, np.int64))
    occ = np.full((m, n, _LOOK_BACK), -1)  # the ring: by row and code, its last records with that code, newest first
    top, live, V, before = 0, np.arange(m), V0, np.full(m, -1)  # before: each live row's latest record
    for k in range(max_iter + 1):
        zero = ~V.any(axis=1)
        for r in live[zero].tolist():
            fates[r] = FateReport("synchronized", transient_steps=k)
        live, V, before = live[~zero], V[~zero], before[~zero]
        if not live.size:
            break
        image, fired, _, _ = _kernels.step_batch(params, V)
        last_exc[live[fired[:, excit].any(axis=1)]] = k
        code = V.argmax(axis=1)
        zone = _in_zone_rows(V, c_bar) & certifiable
        marg = np.where(zone, 0.5 * _classify(params, V)[1], tie) if certifiable else np.full(live.size, tie)
        graze = zone & (marg < eta)

        h = slice(top, top + live.size)  # this return's records
        f, top = np.arange(h.start, h.stop), h.stop
        if top > len(rets):  # double the history's capacity
            states, sets, codes, margs, zones, rets, back = (
                np.concatenate((a, np.zeros_like(a))) for a in (states, sets, codes, margs, zones, rets, back))
        states[h], sets[h], codes[h], margs[h], zones[h], rets[h], back[h] = V, fired, code, marg, zone, k, before

        prev = occ[live, code]
        i, j = np.nonzero((prev >= 0) & ~graze[:, None])  # the candidates, by row and then newest first
        cand = prev[i, j]
        p = k - rets[cand]
        keep = p <= _MAX_PERIOD
        i, cand, p = i[keep], cand[keep], p[keep]
        dist = np.abs(V[i] - states[cand]).max(axis=1)
        ratio = np.where(dist <= tie, 0.0, dist / denom[p] if lam < 1.0 else math.inf)  # 0: every margin admits a tie
        ok = (ratio <= marg[i]) & (ratio <= margs[cand])  # the margins at both ends
        if ok.any():  # the window's least margin, from a suffix-min back from return k
            low = np.minimum.accumulate(margs[_walk(back, f[i[ok]], p[ok].max() + 1)], axis=1)
            ok[ok] = ratio[ok] <= low[np.arange(len(low)), p[ok]]
        stay = ~graze
        if ok.any():
            i, first = np.unique(i[ok], return_index=True)
            lag, exact = p[ok][first], ratio[ok][first] == 0.0
            stay[i] = False
            walk = _walk(back, back[f[i]], lag.max())  # by row, its records of returns k - 1, k - 2, ...
            inside = np.logical_and.accumulate(zones[walk], axis=1)[np.arange(len(i)), lag - 1]  # window in the zone
            for r, w, q, e, z in zip(live[i].tolist(), walk, lag.tolist(), exact.tolist(), inside.tolist()):
                w = w[q - 1::-1]  # the records of returns k - q .. k - 1
                pts, result = states[w], None
                if z:
                    word = tuple(codes[w].tolist())
                    if word not in keys:
                        s = min(range(q), key=lambda i: word[i:] + word[:i])
                        keys[word] = s, word[s:] + word[:s]
                    s, key = keys[word]
                    if key not in solved:
                        try:
                            solved[key] = _solve(params, np.roll(pts, -s, axis=0), eta)
                        except (NumericalStall, PreconditionFailed) as exc:
                            solved[key] = exc
                    result = solved[key]
                if result is None or e and isinstance(result, Exception):
                    result = LimitCycle(period=q, points=pts, itinerary=tuple(_set_name(b.tobytes()) for b in sets[w]),
                                        min_margin=None, certificate=None, certified=False, time_period=_period_time(params, pts))
                fates[r] = (FateReport("cycle", transient_steps=k, cycle=result) if isinstance(result, LimitCycle)
                            else replace(result, transient_steps=k) if isinstance(result, FateReport) else result)
        for r, g in zip(live[graze].tolist(), marg[graze].tolist()):
            fates[r] = FateReport("grazing", transient_steps=k, margin=g)
        r, c = live[stay], code[stay]
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
    visited state in C_{c_bar} has margin below eta, a candidate sensitive
    orbit), cycle (a recurrence was found: certified when its window lies in
    C_{c_bar} of a certifiable network and its solve admits a Banach
    certificate, else reported uncertified), or unresolved after max_iter
    returns.
    """
    fates, _ = _fates(params, as_state(params, v0)[None], max_iter, eta)
    return _checked(fates[0])


def certify_cycle(params: NetworkParams, candidate: LimitCycle) -> bool:
    """Independent re-verification of a cycle certificate.

    Recomputes everything from the candidate's points: a Dale network with an
    inhibitory neuron, exactly `period >= 1` points, each a section state in
    C_{c_bar} with an inhibitory winner whose margin exceeds the ball radius
    r, the balls below c_bar, a claimed lambda below 1 and at least the zone
    factor `_certified_cycle` takes for them, the Banach inequality
    lambda*r + residual <= r, and the p-step return of every cycle point
    within residual of it (all points stepped as one batch).  Every
    comparison fails on NaN.
    """
    cert = candidate.certificate
    if (not candidate.certified or cert is None or not _certifiable(params)
            or not len(candidate.points) == candidate.period >= 1):
        return False
    try:
        pts = np.array([as_state(params, pt) for pt in candidate.points])
        code, gap = _classify(params, pts)
        lam = _ball_factor(params, pts, code, cert.ball_radius)
    except PreconditionFailed:
        return False
    if not (lam <= cert.lam < 1.0 and cert.lam * cert.ball_radius + cert.residual <= cert.ball_radius
            and _in_zone_rows(pts, params.constants.c_bar).all() and (0.5 * gap > cert.ball_radius).all()):
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

    Flags eventual death of the excitatory population when a cycle is
    reached whose firing sets contain no excitatory neuron.
    """
    fates, last_exc = _fates(params, as_state(params, v0)[None], max_iter, eta)
    fate = _checked(fates[0])
    fate.last_excitatory_spike = int(last_exc[0]) if last_exc[0] >= 0 else None
    if fate.outcome == "synchronized":
        fate.excitatory_death = False
    elif fate.outcome == "cycle":
        fired = _kernels.step_batch(params, fate.cycle.points)[1]
        fate.excitatory_death = not fired[:, list(params.excitatory)].any()
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
