"""Continuity pieces, margins, certified limit-cycle detection and orbit fates.

Inside the absorbed zone of a Dale network with inhibitory neurons, the
section decomposes into one open piece per inhibitory neuron i (that neuron's
potential strictly dominates every other), the synchronization piece (an
excitatory potential is maximal, so the whole network fires together and the
image is the origin), and the boundary set where competing maxima tie.  One
piece code serves detection and certification alike: a state's winner, the
first neuron of largest potential.  Off the boundary the maximum is unique,
so an inhibitory winner k names the piece "inhib:k" and an excitatory one the
synchronization piece.  The return map is continuous on each piece and jumps
by at least

    mu = min(|alpha|, min_{i!=j} |H[i,j] + theta|)

across the boundary, so a point's margin (half the gap between the winning and
runner-up potentials) bounds how far the state can be perturbed without
changing its piece.

Cycle certification is a Banach ball argument: if every point of a candidate
period-p orbit has an inhibitory winner whose margin exceeds r, the balls of
radius r lie in C_{c_bar}, and the p-step image of the r-ball around a point
stays inside it (lambda * r + residual <= r for the contraction factor lambda
of the zone at level max coordinate + r), then a unique attracting periodic
orbit lives in the ball.  It needs a Dale network with an inhibitory neuron
(`params.hypotheses.certifiable`), not the interaction strength H3: H3 only
makes every orbit reach the zone.

Detection codes each return by its winner and watches each orbit for a
recurrence: a return within the tie tolerance of an earlier one with the
same winner, or, when the image of C_{c_bar} lies in a strictly smaller zone
of factor lambda < 1, a return close enough that the contraction budget
admits a ball inside every margin of the window between them.  A return
inside C_{c_bar} of a certifiable network has its winner margin, and grazes
when that is below eta; every other return has the tie tolerance as its
margin.  A recurring window inside C_{c_bar} of a certifiable network is
solved once per piece word, for every orbit that recurs on it; any other
window, and one whose solve fails on a recurrence within the tie tolerance,
is reported as an uncertified cycle of its recurrent states.  The map is
projective on each piece, so a cycle is fixed by its word: per return the
winner m, the firing set J and the floored set F (the coordinates its image
leaves at alpha).  The census reads each window's word from what its step
already holds (the winners, the firing-set ring, and the next return's
states at alpha) and `_solve` builds the piece matrices from those codes
alone, stepping no window state again.  The census
steps all its samples as one batch, held as the C-contiguous (n, M) column
block the batch drivers of `_kernels` step, one live sample per column, so
each return is one `_kernels._step_columns` call with no transposes.  Each
return's winner, zone flag and margin come from what that step holds: the
column argmax, the column maxima it returns, and the top two potentials
and class maxima (`_pieces`).  Each return tests every live sample's
look-back candidates (the last 8 earlier returns with its winner) with
array operations, and skips what is empty on that return (no candidate,
no sample leaving), so its cost follows the returns stepped, not the
number of Python objects per sample.  No recurrence is looked for more
than 256 returns back, so only a sample's last 257 returns are kept, in
rings indexed by the return mod 257: its states, firing sets and margins
take at most 257 x samples x n x 9 bytes, however long the transients run.

Every fate reader works from one record, the `FateTable` that `_fates`
returns: per row its outcome code, transient, margin, cycle index and last
excitatory spike, and per distinct cycle its LimitCycle (or the error its
solve raised), its key (the least rotation of its piece word) and whether an
excitatory neuron fires on it.  `FateTable.report` builds a row's whole
FateReport, the synchronization-or-excitatory-death dichotomy included, and
`detect_cycle` returns row 0's.  The census
counts outcome codes and makes one entry per distinct cycle in the order of
the first sample that reaches it; rows that share a solve share its index,
and an uncertified cycle joins an earlier one only when their keys are equal
and their points lie within ten times the tie tolerance.

A cycle's itinerary is the tuple of its pieces' printed names, as
`cycles.json` writes them: "inhib:i" (neuron i, from 1) for a certified
cycle, and the firing set, "J:1;3", for an uncertified one.

Winners, gaps and zone flags are computed for column batches of states
only, by one helper (`_pieces`) that detection, `_certified_cycle` and
`certify_cycle` share, so the three read one gap formula; a state's margin
is half its gap.  `certify_cycle` re-checks a certificate from the cycle's
points alone, with all of them classified and stepped as one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from . import _kernels
from ._sampling import restart, rng_stream, sample_on_section
from .dynamics import as_state
from .errors import HypothesisViolated, NumericalStall, PreconditionFailed
from .params import NetworkParams, _in_zone_rows, _require_zone, _zone_after_return, lambda_for_zone

__all__ = [
    "CycleCertificate", "LimitCycle", "FateReport",
    "detect_cycle", "certify_cycle",
    "cycle_census", "sync_test",
    "CensusEntry", "CensusReport", "SyncReport",
]


def _pieces(params: NetworkParams, X: np.ndarray, vmax: np.ndarray):
    """Winners, gaps and zone flags of the columns of an (n, M) batch of
    section states of a network with an inhibitory neuron, vmax their maxima.

    A winner is the first neuron of largest potential, the piece code detection
    and certification share.  A gap is the winner's lead over the runner-up
    (the second largest potential, ties counted; minus infinity at n = 1) when
    an inhibitory neuron wins, and the largest excitatory over the largest
    inhibitory potential on the synchronization piece; it is 0 on the boundary,
    where it is within the tie tolerance.  A column of positive gap has a unique
    maximum, so its piece is its winner's: "inhib:k" or, for an excitatory
    winner, the synchronization piece.  A zone flag tells whether the column
    lies in C_{c_bar}: its maximum is at most c_bar and a coordinate is 0.
    """
    excit, inhib = params.class_rows
    zone = (vmax <= params.constants.c_bar) & (X == 0.0).any(axis=0)
    other = np.partition(X, -2, axis=0)[-2] if params.n > 1 else np.full(X.shape[1], -math.inf)
    sync = X[excit].max(axis=0, initial=-math.inf) >= vmax
    if sync.any():
        other = np.where(sync, X[inhib].max(axis=0), other)
    gap = vmax - other
    gap[~(gap > params.tie_tol())] = 0.0
    return X.argmax(axis=0), gap, zone


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
    excitatory_death: Optional[bool] = None       # None for grazing and unresolved
    last_excitatory_spike: Optional[int] = None   # None when no excitatory neuron fired


# a FateTable row's outcome code indexes the FateReport outcome it names
_OUTCOMES = ("synchronized", "cycle", "grazing", "unresolved")
_SYNCHRONIZED, _CYCLE, _GRAZING, _UNRESOLVED = range(4)


@dataclass
class FateTable:
    """Fates of the rows of a batch of starts, as per-row arrays over the distinct cycles they reach.

    Per row: its outcome code, transient, margin (NaN for none), cycle (an
    index into `cycles`, -1 for none) and last_exc, the last return at which
    an excitatory neuron fired (-1 for none).  Per distinct cycle: the
    LimitCycle or the error its solve raised, its key (the least rotation of
    its word: the winners of a solved window, the firing-set names of an
    uncertified one) and whether an excitatory neuron fires on it.
    """
    outcome: np.ndarray
    transient: np.ndarray
    margin: np.ndarray
    cycle: np.ndarray
    last_exc: np.ndarray
    cycles: list = field(default_factory=list)
    keys: list = field(default_factory=list)
    excit_fires: list = field(default_factory=list)

    def add(self, cycle, key: tuple, excit_fires: bool) -> int:
        """The index of a new distinct cycle."""
        self.cycles.append(cycle)
        self.keys.append(key)
        self.excit_fires.append(excit_fires)
        return len(self.cycles) - 1

    def report(self, r: int) -> FateReport:
        """Row r's FateReport, every field set; raises instead the error its cycle's solve raised, if it has one.

        Its excitatory death is False on a synchronized row and, on a cycle
        row, whether no excitatory neuron fires on its cycle."""
        o, c, margin, last = int(self.outcome[r]), int(self.cycle[r]), float(self.margin[r]), int(self.last_exc[r])
        cycle = self.cycles[c] if c >= 0 else None
        if isinstance(cycle, Exception):
            raise cycle
        death = False if o == _SYNCHRONIZED else not self.excit_fires[c] if o == _CYCLE else None
        return FateReport(_OUTCOMES[o], int(self.transient[r]), None if math.isnan(margin) else margin, cycle,
                          death, last if last >= 0 else None)


def _period_time(params: NetworkParams, points: np.ndarray) -> float:
    """Sum of the waiting times of the points of one period, in orbit order."""
    return float(sum(_kernels.wait_times(params, points.max(axis=1)).tolist()))


def _ball_factor(params: NetworkParams, pts: np.ndarray, winner: np.ndarray, r: float) -> float:
    """The least contraction factor a certificate of ball radius r may claim
    for cycle points of winners `winner`: lambda of the zone at level
    max(0, largest coordinate) + r, which holds the r-balls.  Raises
    PreconditionFailed unless every winner is inhibitory and that level lies
    in [0, c_bar)."""
    level = max(0.0, float(pts.max())) + r
    if np.isin(winner, params.excitatory).any() or not level < params.constants.c_bar:
        raise PreconditionFailed("a cycle point has no inhibitory winner, or its ball leaves C_{c_bar}")
    return lambda_for_zone(params, level)  # which raises below level 0


def _certified_cycle(params: NetworkParams, seq: np.ndarray, p: int, eta: float, contraction: float):
    """LimitCycle with its Banach certificate from 2p + 1 settled iterates
    and the contraction its solve measured, or, when the cycle hugs the
    boundary below eta, its least margin as a float.  Every point that
    passes the eta test has a positive gap, so a unique maximum, and its
    winner names its piece, "inhib:k".  A cycle point with an excitatory winner is refused: without
    H3 the synchronization piece need not map to the origin."""
    # the residual is measured at every cycle point
    residual = float(np.abs(seq[p:] - seq[:p + 1]).max())
    pts = seq[:p]
    winner, gap, zone = _pieces(params, pts.T, pts.max(axis=1))
    if not zone.all():
        raise PreconditionFailed("state is outside C_{c_bar}")
    min_marg = min((0.5 * gap).tolist())
    if min_marg < eta:
        return min_marg
    c_enc = max(0.0, float(pts.max()))
    head = params.constants.c_bar * (1.0 - 1e-9) - c_enc
    if head <= 0:
        raise NumericalStall("cycle points leave the certifiable zone")
    ball = 0.5 * min(min_marg, head)
    lam = _ball_factor(params, pts, winner, ball)
    if lam >= 1.0 or lam * ball + residual > ball or residual > 1e-10:
        raise NumericalStall("Banach ball inequality failed at the solved cycle")
    return LimitCycle(
        period=p, points=pts, min_margin=min_marg,
        itinerary=tuple(f"inhib:{c + 1}" for c in winner.tolist()),
        certificate=CycleCertificate(lam=lam, ball_radius=ball, residual=residual),
        certified=True, time_period=_period_time(params, pts), contraction=contraction,
    )


def _solve(params: NetworkParams, word: tuple, eta: float):
    """Cycle on a word of p pieces, (winner, fired, floored) with shapes (p,),
    (p, n) and (p, n) as `_kernels.piece_matrix` takes them: the dominant
    eigenvector of the product of their piece matrices (the p-step map there
    is projective), stepped 2p times to settle its last bits.  The next 2p + 1
    states go to `_certified_cycle`, whose residual gate rejects a solve off
    the pieces.  The orbit is stepped one state at a time (`_kernels._step_columns`
    on one column) until a state's bytes equal those of the state p returns
    back, at most 4p returns.  The step is a pure function of a state's bytes,
    so the orbit repeats with period p from there, and the remaining rows are
    filled by period: the bytes `run_orbit`'s recurrence tail gives, in 9
    steps rather than 13 on mixed8's period-6 cycle.
    The eigenvalue ratio |l2/l1| is the cycle's measured contraction per period.
    Returns `_certified_cycle`'s LimitCycle, or the least margin of a cycle
    that grazes."""
    p = len(word[0])
    prod = np.eye(params.n + 1)
    for M in _kernels.piece_matrix(params, *word):
        prod = M @ prod
    w, vecs = np.linalg.eig(prod)
    lead, second = np.argsort(-np.abs(w))[:2]
    x = vecs[:, lead]
    if w[lead].imag != 0.0 or not abs(w[lead]) > abs(w[second]) or x[-1] == 0.0:
        raise NumericalStall(f"period-{p} piece product has no strictly dominant real eigenvector")
    seq = np.empty((4 * p + 1, params.n))
    seq[0] = (x[:-1] / x[-1]).real
    for t in range(1, 4 * p + 1):
        seq[t] = _kernels._step_columns(params, seq[t - 1, :, None])[0][:, 0]
        if t >= p and seq[t].tobytes() == seq[t - p].tobytes():  # periodic from here: fill by period
            seq[t + 1:] = seq[t + 1 - p + np.arange(4 * p - t) % p]
            break
    return _certified_cycle(params, seq[2 * p:], p, eta, float(abs(w[second] / w[lead])))


# longest period detection looks for, and how many occurrences of a piece it looks back over
_MAX_PERIOD, _LOOK_BACK = 256, 8


@lru_cache(maxsize=1 << 12)
def _set_name(fired: bytes) -> str:
    """Printed name of a firing set, given as the bytes of one row of bools: "J:1;3"."""
    return "J:" + ";".join(str(j + 1) for j in np.flatnonzero(np.frombuffer(fired, np.bool_)).tolist())


@lru_cache(maxsize=1 << 12)
def _least_rotation(word: tuple):
    """(s, word[s:] + word[:s]) for the first shift s that gives the least rotation of word."""
    s = min(range(len(word)), key=lambda i: word[i:] + word[:i])
    return s, word[s:] + word[:s]


@lru_cache(maxsize=64)
def _denominators(lam: float, periods: int) -> np.ndarray:
    """1 - lam ** p by lag p = 0..periods, each from the Python expression, read-only:
    positive for every lag p >= 1 when lam < 1, the contraction budget; without one
    nothing but a tie passes."""
    denom = np.array([1.0 - lam ** p for p in range(periods + 1)])
    denom.flags.writeable = False
    return denom


def _fates(params: NetworkParams, V0: np.ndarray, max_iter: int, eta: float) -> FateTable:
    """Fates of the rows of an (m, n) batch of starts, stepped in lockstep.

    The live rows are held as a C-contiguous (n, live) block, one state per
    column.  Each return steps it with one `_kernels._step_columns` call and
    tests the recurrences of all live rows with array operations; a row
    leaves the block (`np.compress` along the columns, which keeps it
    C-contiguous) once its fate is known, and its outcome, transient and
    margin are written into the table's arrays.  A write that would change
    nothing on a return (no row synchronized, no excitatory firing, no
    candidate, no row leaving) is skipped.  Only the last depth =
    min(_MAX_PERIOD, max_iter) + 1 returns of a row are kept, in three
    slot-major rings: return k of row r is slot k % depth of its state, its
    firing set and its margin.  So the history is at most depth x m x n x 9
    bytes, whatever max_iter and the transients are.  A return's code is its
    winner, and whether it lies in C_{c_bar} and its gap come with it from
    `_pieces`, which reads the column maxima the step returns.
    A return inside C_{c_bar} of a certifiable network has half its winner
    gap as margin (0 on the boundary) and grazes when that is below eta;
    every other return has the tie tolerance.  The look-back candidates of a
    return are the last _LOOK_BACK earlier returns of its row with its code,
    kept in a ring.  A candidate more than _MAX_PERIOD returns back is
    dropped before its slot is read, so a reused slot is never read as an
    older return.  The newest candidate that passes the test is taken.  A
    candidate passes when its sup distance is within the tie tolerance, or
    when the contraction budget admits it: the distance over 1 - lam ** p is
    at most the least margin of the window.  There is a budget only when
    lam, the factor of the zone that holds the image of C_{c_bar} in a
    certifiable network, is that of a level in [0, c_bar) (which H3 gives).
    A window wholly inside C_{c_bar} of a certifiable network, as its states
    show, is solved: windows whose winners share a least rotation share one
    `_solve`, made in (return, row) order, and one cycle index of the table.
    The solve takes the window's word rolled to that rotation: its winners,
    its firing sets from the ring, and as floored sets the coordinates of the
    next slot's state at alpha (a fired coordinate resets to 0.0, never to
    alpha), the codes one `step_batch` call on the window's states gives.
    Any other window is an uncertified cycle of its states, and so is one
    whose solve fails on a recurrence within the tie tolerance; each such
    window has an index of its own.
    Raises PreconditionFailed unless max_iter >= 0 and eta is finite and
    positive.
    """
    if max_iter < 0:
        raise PreconditionFailed("max_iter must be at least 0")
    if not (math.isfinite(eta) and eta > 0):
        raise PreconditionFailed(f"eta must be a finite positive number, got {eta}")
    certifiable, c_bar, tie = params.hypotheses.certifiable, params.constants.c_bar, params.tie_tol()
    level = _zone_after_return(params)
    lam = lambda_for_zone(params, level) if certifiable and 0.0 <= level < c_bar else 1.0
    denom = _denominators(lam, _MAX_PERIOD)
    excit = params.class_rows[0]

    m, n = V0.shape
    table = FateTable(np.full(m, _UNRESOLVED, np.int8), np.full(m, max_iter), np.full(m, np.nan), np.full(m, -1), np.full(m, -1))
    solved = {}  # least rotation of a winner word -> the table index of its solve, or its grazing least margin
    # the rings, by slot and row: return k of row r is slot k % depth of its state, firing set and margin
    depth = min(_MAX_PERIOD, max_iter) + 1
    states, sets, margs = np.zeros((depth, m, n)), np.zeros((depth, m, n), np.bool_), np.zeros((depth, m))
    occ = np.full((m, n, _LOOK_BACK), -1)  # by row and code, its last returns with that code, newest first
    live, X = np.arange(m), np.ascontiguousarray(V0.T)  # the live rows' states, one per column
    for k in range(max_iter + 1):
        zero = ~X.any(axis=0)
        if zero.any():
            table.outcome[live[zero]], table.transient[live[zero]] = _SYNCHRONIZED, k
            live, X = live[~zero], np.compress(~zero, X, axis=1)
        if not live.size:
            break
        image, fired, vmax, _ = _kernels._step_columns(params, X)
        if (spiked := fired[excit].any(axis=0)).any():
            table.last_exc[live[spiked]] = k
        if certifiable:
            code, gap, zone = _pieces(params, X, vmax)
            marg = np.where(zone, 0.5 * gap, tie)
        else:
            code, zone, marg = X.argmax(axis=0), np.zeros(live.size, np.bool_), np.full(live.size, tie)
        graze = zone & (marg < eta)
        states[k % depth, live], sets[k % depth, live], margs[k % depth, live] = X.T, fired.T, marg

        prev = occ[live, code]
        # the candidates, by row and then newest first, none more than _MAX_PERIOD returns back
        i, j = np.nonzero((prev >= max(0, k - _MAX_PERIOD)) & ~graze[:, None])
        stay, ok = ~graze, np.zeros(0, np.bool_)
        if i.size:
            p = k - prev[i, j]
            at = (k - p) % depth, live[i]  # the candidates' slots and rows
            dist = np.abs(X.T[i] - states[at]).max(axis=1)
            ratio = np.where(dist <= tie, 0.0, dist / denom[p] if lam < 1.0 else math.inf)  # 0: every margin admits a tie
            ok = (ratio <= marg[i]) & (ratio <= margs[at])  # the margins at both ends
            if ok.any():  # the window's least margin, a suffix-min back from return k over one gather
                back = (k - np.arange(p[ok].max() + 1)) % depth
                low = np.minimum.accumulate(margs[back, live[i[ok], None]], axis=1)
                ok[ok] = ratio[ok] <= low[np.arange(len(low)), p[ok]]
        if ok.any():
            i, first = np.unique(i[ok], return_index=True)
            lag, exact = p[ok][first], ratio[ok][first] == 0.0
            stay[i] = False
            table.outcome[live[i]] = _CYCLE
            back = (k - 1 - np.arange(lag.max())) % depth  # the slots of returns k - 1, k - 2, ...
            # by row, their states: their winners make a window's word, and it is solved when all of them lie in the zone
            seen = states[back, live[i, None]]
            held = np.logical_and.accumulate(_in_zone_rows(seen.reshape(-1, n), c_bar).reshape(seen.shape[:2]), axis=1)
            inside = (certifiable & held[np.arange(len(i)), lag - 1]).tolist()
            for r, pts, word, q, e, z in zip(live[i].tolist(), seen, seen.argmax(axis=2), lag.tolist(), exact.tolist(), inside):
                # the slots of returns k - q .. k - 1, their states and their winners
                w, pts, word, c = back[q - 1::-1], pts[q - 1::-1], word[q - 1::-1], None
                if z:
                    s, key = _least_rotation(tuple(word.tolist()))
                    if key not in solved:
                        # its word: the winners, the firing sets, and as floored the next states' coordinates
                        # at alpha (a fired one resets to 0.0), each rolled to start at the least rotation
                        piece = word, sets[w, r], states[(w + 1) % depth, r] == params.alpha
                        try:
                            found = _solve(params, tuple(np.roll(a, -s, axis=0) for a in piece), eta)
                        except (NumericalStall, PreconditionFailed) as exc:
                            found = exc
                        # no excitatory neuron fires on a certified cycle: every point fires its inhibitory winner alone
                        solved[key] = found if isinstance(found, float) else table.add(found, key, False)
                    c = solved[key]
                if isinstance(c, float):  # the solved cycle grazes below eta, by this least margin
                    table.outcome[r], table.margin[r], c = _GRAZING, c, -1
                elif c is None or e and isinstance(table.cycles[c], Exception):
                    names = tuple(_set_name(b.tobytes()) for b in sets[w, r])
                    c = table.add(LimitCycle(period=q, points=pts.copy(), itinerary=names, min_margin=None, certificate=None,
                                             certified=False, time_period=_period_time(params, pts)),
                                  _least_rotation(names)[1], bool(sets[w, r][:, excit].any()))
                table.cycle[r] = c
        if not stay.all():  # the grazing rows, and the transient of every row that leaves at this return
            table.outcome[live[graze]], table.margin[live[graze]], table.transient[live[~stay]] = _GRAZING, marg[graze], k
            live, code, prev, image = live[stay], code[stay], prev[stay], np.compress(stay, image, axis=1)
        prev[:, 1:], prev[:, 0] = prev[:, :-1], k
        occ[live, code] = prev
        X = image
    return table


def detect_cycle(params: NetworkParams, v0, max_iter: int = 2000, eta: float = 1e-6) -> FateReport:
    """Iterate the return map from v0 and classify the orbit's fate.

    Outcomes: synchronized (the exact zero vector is reached), grazing (some
    visited state in C_{c_bar} has margin below eta, a candidate sensitive
    orbit), cycle (a recurrence was found: certified when its window lies in
    C_{c_bar} of a certifiable network and its solve admits a Banach
    certificate, else reported uncertified), or unresolved after max_iter
    returns.

    The report carries the synchronization-or-excitatory-death dichotomy:
    last_excitatory_spike is the last return at which an excitatory neuron
    fired (None if none did), and excitatory_death flags eventual death of
    the excitatory population when a cycle is reached on which no
    excitatory neuron fires, as the fate table records it: read from the
    firing sets of an uncertified cycle, and always for a certified one,
    each of whose points fires its inhibitory winner alone.  It is False for
    a synchronized orbit and None for a grazing or unresolved one.
    """
    return _fates(params, as_state(params, v0)[None], max_iter, eta).report(0)


def certify_cycle(params: NetworkParams, candidate: LimitCycle) -> bool:
    """Independent re-verification of a cycle certificate.

    Recomputes everything from the candidate's points: a Dale network with an
    inhibitory neuron, exactly `period >= 1` points, each a section state in
    C_{c_bar} with an inhibitory winner whose margin exceeds the ball radius
    r > 0, the balls below c_bar, a claimed lambda below 1 and at least the zone
    factor `_certified_cycle` takes for them, the Banach inequality
    lambda*r + residual <= r, and the p-step return of every cycle point
    within residual of it (all points stepped as one batch).  Every
    comparison fails on NaN.
    """
    cert = candidate.certificate
    if (not candidate.certified or cert is None or not params.hypotheses.certifiable
            or not len(candidate.points) == candidate.period >= 1):
        return False
    try:
        pts = np.array([as_state(params, pt) for pt in candidate.points])
        winner, gap, zone = _pieces(params, pts.T, pts.max(axis=1))
        lam = _ball_factor(params, pts, winner, cert.ball_radius)
    except PreconditionFailed:
        return False
    if not (0.0 < cert.ball_radius and lam <= cert.lam < 1.0 and cert.lam * cert.ball_radius + cert.residual <= cert.ball_radius
            and zone.all() and (0.5 * gap > cert.ball_radius).all()):
        return False
    image = pts
    for _ in range(len(pts)):
        image = _kernels.step_batch(params, image)[0]
    return bool((np.abs(image - pts).max(axis=1) <= cert.residual).all())


def _one_entry(table: FateTable, a: int, b: int, thr: float) -> bool:
    """Whether cycles a and b of a census table count as one entry: their
    keys are equal, and their points lie within thr in sup distance over the
    shifts of b that give that key (those that turn b's itinerary into a's).
    Two distinct indices have equal keys only when both cycles are
    uncertified: a solved key has one index."""
    ca, cb = table.cycles[a], table.cycles[b]
    shifts = (s for s in range(ca.period) if cb.itinerary[s:] + cb.itinerary[:s] == ca.itinerary)
    return table.keys[a] == table.keys[b] and any(np.abs(ca.points - np.roll(cb.points, -s, axis=0)).max() <= thr for s in shifts)


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
    _require_zone(params)
    hi = min(params.constants.c_bar, params.theta)
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
    deduplicate the found cycles and report basin fractions.

    Each sample owns the Philox stream (seed, 1 + index).  All samples step
    together as one lockstep batch, whose recurrence tests run as array
    operations over the live samples, and each one's fate is what
    detect_cycle gives for its start alone, so the census is deterministic.
    The fractions count the fate table's outcome codes.  Samples that recur
    on the same piece word share one solve and so one cycle of the table;
    the distinct cycles make the entries in the order of the first sample
    that reaches each, an uncertified one joining the first entry whose key
    it shares with points within ten times the tie tolerance (`_one_entry`).
    When a solve fails, the error of the lowest-index sample that reached it
    is raised.
    """
    if sample_count < 1:
        raise PreconditionFailed("sample_count must be at least 1")
    table = _fates(params, _census_starts(params, sample_count, seed), max_iter, eta)
    outcomes, cyc = np.bincount(table.outcome, minlength=len(_OUTCOMES)).tolist(), table.cycle[table.cycle >= 0]
    # heads: the cycle that opened each entry; entry: each distinct cycle's entry
    heads, entry, thr = [], np.zeros(len(table.cycles), np.int64), 10.0 * params.tie_tol()
    for c in dict.fromkeys(cyc.tolist()):  # the distinct cycles, in first-sample order
        if isinstance(table.cycles[c], Exception):
            raise table.cycles[c]
        entry[c] = next((j for j, h in enumerate(heads) if _one_entry(table, h, c, thr)), len(heads))
        if entry[c] == len(heads):
            heads.append(c)
    entries = [CensusEntry(table.cycles[h], k, k / sample_count) for h, k in zip(heads, np.bincount(entry[cyc]).tolist())]
    # the fractions of synchronized, grazing and unresolved samples
    return CensusReport(entries, *(outcomes[o] / sample_count for o in (_SYNCHRONIZED, _GRAZING, _UNRESOLVED)), sample_count)


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

    Requires the synchronization bound `params.sync_returns`, p = ceil(theta/m)
    with m the smallest interaction, which exists when every off-diagonal
    interaction is strictly positive and n >= p^2; raises HypothesisViolated
    without it.  Samples start states on the non-negative part of the section
    and verifies that each reaches the exact zero vector within p returns and
    within the transient-time bound (ln((beta-alpha)/(beta-theta)) + p ln(beta/(beta-theta)))/gamma.
    """
    if sample_count < 1:
        raise PreconditionFailed("sample_count must be at least 1")
    n, p = params.n, params.sync_returns
    if p is None:
        raise HypothesisViolated(f"synchronization needs every interaction > 0 and n >= ceil(theta/m)^2, got n = {n}")
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
