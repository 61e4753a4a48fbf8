import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifnet import (
    HypothesisViolated,
    NumericalStall,
    PreconditionFailed,
    certify_cycle,
    cycle_census,
    cycles,
    detect_cycle,
    lambda_for_zone,
    load_config,
    network,
    return_map,
    sync_test,
)
from ifnet import _kernels
from ifnet._kernels import run_orbit, step_batch, track_pair
from ifnet._sampling import rng_stream, sample_on_section
from ifnet.contraction import _in_zone_rows, _zone_after_return

NET_D_XSTAR = 0.32554373534619713401  # anti-phase coordinate for H = -0.6
NET_D_CBAR = 0.42917960675006306  # c_bar of net_d
GOLDEN = Path(__file__).resolve().parent / "golden"
MIXED8 = GOLDEN / "mixed8.json"


def mixed8():
    """n=8 Dale network, one excitatory neuron, the rest inhibitory."""
    return load_config(str(MIXED8)).params


@pytest.fixture(scope="session")
def net_death():
    """Mixed network whose inhibition on the excitatory neuron is strong
    enough that orbits starting with it dominated never let it fire."""
    H = [[0.0, 0.6, 0.6],
         [-0.9, 0.0, -0.6],
         [-0.9, -0.6, 0.0]]
    return network(3, 1.0, 1.2, 1.0, -1.0, H)


# ---------------------------------------------------------------- pieces & margins


def piece_name(winner, gap, params):
    """The name of the piece of a state of winner `winner` and gap `gap`."""
    if gap == 0.0:
        return "boundary"
    return "sync" if winner in params.excitatory else f"inhib:{winner + 1}"


def set_name(fired):
    """The printed name of a firing set, given as one row of booleans."""
    return "J:" + ";".join(str(j + 1) for j in np.flatnonzero(fired).tolist())


def reference_pieces(params, V):
    """Winner, gap and zone flag of each row of an (m, n) batch of section states,
    row by row in plain Python: the winner is the first index of the largest
    potential; the gap is m_plus - m_minus when the largest excitatory potential
    m_plus is at least the largest inhibitory one m_minus, else m_minus less the
    largest potential off the winner, and 0 unless it exceeds the tie tolerance;
    the zone flag is `_in_zone_rows`' on a certifiable network, False on any other."""
    excit, inhib, tie = params.excitatory, params.inhibitory, params.tie_tol()
    winners, gaps = [], []
    for v in np.asarray(V, np.float64).tolist():
        winner = v.index(max(v))
        m_plus = max((v[i] for i in excit), default=-math.inf)
        m_minus = max(v[i] for i in inhib)
        runner_up = max((x for i, x in enumerate(v) if i != winner), default=-math.inf)
        gap = m_plus - m_minus if m_plus >= m_minus else m_minus - runner_up
        winners.append(winner)
        gaps.append(gap if gap > tie else 0.0)
    return winners, gaps, (_in_zone_rows(V, params.constants.c_bar) & params.hypotheses.certifiable).tolist()


def pieces_and_margins(params, V):
    """Piece names and margins of the rows of a batch of states in C_{c_bar}."""
    V = np.atleast_2d(np.asarray(V, np.float64))
    winner, gap, zone = cycles._pieces(params, V.T, V.max(axis=1))
    assert zone.all()
    return [piece_name(w, g, params) for w, g in zip(winner.tolist(), gap.tolist())], (0.5 * gap).tolist()


def test_classify_fixtures(net_c):
    pieces, _ = pieces_and_margins(net_c, [[0.4, 0.0, 0.2], [0.0, 0.4, 0.2], [0.0, 0.3, 0.3]])
    assert pieces == ["sync", "inhib:2", "boundary"]


def test_in_zone_rows_flags_a_state_outside_the_zone(net_c):
    # a coordinate past c_bar (about 0.429), and a state off the section (no coordinate 0)
    V = np.array([[0.9, 0.0, 0.2], [0.0, 0.4, 0.2], [0.0, 0.5, 0.2], [0.1, 0.2, 0.3]])
    assert _in_zone_rows(V, net_c.constants.c_bar).tolist() == [False, True, False, False]
    assert _in_zone_rows(np.zeros((1, 3)), 0.0).tolist() == [True]


def test_certify_cycle_requires_zone_and_inhibitory(net_d, net_a):
    cyc = detect_cycle(net_d, [0.6, 0.0]).cycle
    assert certify_cycle(net_d, cyc)
    # the same cycle claimed for the all-excitatory net_a, which has no pieces
    assert not certify_cycle(net_a, cyc)
    # with weaker inhibition the anti-phase cycle (x = 0.436) lies above c_bar = 0.429;
    # its margins, Banach inequality and residual all pass, its zone does not
    weak = network(2, 1.0, 1.2, 1.0, -1.0, [[0.0, -0.45], [-0.45, 0.0]])
    states, _, _ = run_orbit(weak, np.array([0.6, 0.0]), 400)
    points = states[-2:]
    residual = float(np.abs(run_orbit(weak, points[0], 2)[0][-1] - points[0]).max())
    outside = replace(cyc, points=points, certificate=cycles.CycleCertificate(lam=0.5, ball_radius=0.01, residual=residual))
    assert points.max() > weak.constants.c_bar and residual <= 1e-12
    assert not certify_cycle(weak, outside)


def test_classify_margin_fixtures(net_c):
    _, margins = pieces_and_margins(net_c, [[0.0, 0.4, 0.2], [0.4, 0.0, 0.2], [0.0, 0.3, 0.3]])
    assert margins[0] == pytest.approx(0.1, abs=1e-15)
    assert margins[1] == pytest.approx(0.1, abs=1e-15)
    assert margins[2] == 0.0


def test_classify_margin_perturbation_stability(net_c):
    dc = net_c.constants
    rng = rng_stream(99, 0)
    checked = 0
    while checked < 200:
        v = sample_on_section(rng, 3, net_c.alpha, dc.c_bar, 1)[0]
        [piece], [g] = pieces_and_margins(net_c, v)
        if g < 1e-3:
            continue
        zero = int(np.argmax(v == 0.0))
        W = []
        for _ in range(5):
            w = v + rng.uniform(-1.0, 1.0, 3) * (7 * g / 8)
            w[zero] = 0.0
            W.append(np.clip(w, net_c.alpha, dc.c_bar))
        assert pieces_and_margins(net_c, W)[0] == [piece] * 5
        checked += 1


@st.composite
def piece_batches(draw):
    """A network of 1 to 12 neurons with an inhibitory one (an excitatory one only
    sometimes) and an (m, n) batch of potentials drawn from [alpha, theta] whose maxima
    are tied exactly, or within the tie tolerance, by other entries, among them
    +0.0 and -0.0."""
    n = draw(st.integers(1, 12))
    excit = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(lambda e: not all(e)))
    H = np.array([[0.3 if e else -0.3] * n for e in excit])
    np.fill_diagonal(H, 0.0)
    params = network(n, 1.0, 1.2, 1.0, -1.0, H)
    tie = params.tie_tol()
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        v = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.3, params.constants.c_bar]), st.floats(-1.0, 1.0)),
                          min_size=n, max_size=n))
        top = max(v)
        for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
            v[i] = top - draw(st.sampled_from([0.0, 0.0, tie, 2 * tie, 0.5 * tie]) | st.floats(0.0, 2 * tie))
        rows.append(v)
    return params, np.array(rows)


@settings(max_examples=150, deadline=None)
@given(case=piece_batches())
def test_pieces_equal_a_row_by_row_reference(case):
    # winners and zone flags of every column of a batch, read with the column maxima the
    # step returns, and gaps bit for bit in the zone (0 on the boundary, infinite at
    # n = 1); a column outside the zone is given gap 0 and no gap is measured there
    params, V = case
    X = np.ascontiguousarray(V.T)
    winner, gap, zone = cycles._pieces(params, X, X.max(axis=0))
    want_winner, want_gap, want_zone = reference_pieces(params, V)
    assert winner.tolist() == want_winner
    assert zone.tolist() == want_zone
    assert gap[zone].tobytes() == np.array(want_gap)[zone].tobytes()
    assert gap[~zone].tobytes() == np.zeros((~zone).sum()).tobytes()


@pytest.mark.parametrize("name", ["net_sync9", "net_a"])
def test_pieces_give_no_zone_on_a_network_that_is_not_certifiable(request, name):
    # all-excitatory networks: states inside C_{c_bar} carry no margin, and their
    # winners are still the first neuron of largest potential
    params = request.getfixturevalue(name)
    V = sample_on_section(rng_stream(5, 0), params.n, params.alpha, params.constants.c_bar, 50)
    X = np.ascontiguousarray(V.T)
    winner, gap, zone = cycles._pieces(params, X, X.max(axis=0))
    assert not params.hypotheses.certifiable and _in_zone_rows(V, params.constants.c_bar).all()
    assert winner.tolist() == V.argmax(axis=1).tolist()
    assert not zone.any() and gap.tobytes() == np.zeros(len(V)).tobytes()


# ---------------------------------------------------------------- detection


def test_detect_synchronization_net_c(net_c):
    fate = detect_cycle(net_c, [0.4, 0.0, 0.2])
    assert fate.outcome == "synchronized"
    assert fate.transient_steps <= 2


def test_detect_zero_vector_immediate(net_c):
    fate = detect_cycle(net_c, np.zeros(3))
    assert fate.outcome == "synchronized" and fate.transient_steps == 0


def test_detect_repeller_orbit_whole_section(net_a):
    fate = detect_cycle(net_a, [0.9, 0.0])
    assert fate.outcome == "cycle"
    cyc = fate.cycle
    assert cyc.period == 2 and not cyc.certified
    pts = sorted(cyc.points.tolist())
    assert pts[0] == pytest.approx([0.0, 0.9], abs=1e-12)
    assert pts[1] == pytest.approx([0.9, 0.0], abs=1e-12)
    # residual re-checked independently through two return-map steps
    two = return_map(net_a, return_map(net_a, cyc.points[0]).state).state
    assert np.max(np.abs(two - cyc.points[0])) < 1e-12


def test_detect_net_d_certified_cycle(net_d):
    fate = detect_cycle(net_d, [0.6, 0.0])
    assert fate.outcome == "cycle"
    cyc = fate.cycle
    assert cyc.certified and cyc.period == 2
    # the solved cycle sits within 2 ulps of the closed-form anti-phase point
    assert sorted(float(p.max()) for p in cyc.points) == pytest.approx(
        [NET_D_XSTAR, NET_D_XSTAR], abs=1.2e-16)
    assert cyc.certificate.residual <= 1e-10
    assert sorted(cyc.itinerary) == ["inhib:1", "inhib:2"]
    # independent residual check via orbit composition
    states, _, _ = run_orbit(net_d, cyc.points[0], cyc.period)
    assert np.max(np.abs(states[-1] - cyc.points[0])) <= cyc.certificate.residual


def test_detect_grazing_on_tie_start(net_c):
    fate = detect_cycle(net_c, [0.0, 0.3, 0.3], eta=1e-6)
    assert fate.outcome == "grazing"
    assert fate.margin == 0.0 and fate.transient_steps == 0


def test_certify_detected_cycles_and_reject_tampered(net_d):
    cyc = detect_cycle(net_d, [0.55, 0.0]).cycle
    assert certify_cycle(net_d, cyc)
    bad = replace(cyc, certificate=replace(cyc.certificate, ball_radius=cyc.min_margin * 2))
    assert not certify_cycle(net_d, bad)
    bad2 = replace(cyc, certificate=replace(cyc.certificate, lam=0.9, ball_radius=1e-4, residual=1e-3))
    assert not certify_cycle(net_d, bad2)
    assert not certify_cycle(net_d, replace(cyc, certified=False))


VACUOUS = {
    "no_points": lambda cyc, cert: replace(cyc, points=cyc.points[:0]),
    "fewer_points_than_period": lambda cyc, cert: replace(cyc, points=cyc.points[:1]),
    "period_0": lambda cyc, cert: replace(cyc, period=0),
    "period_-1": lambda cyc, cert: replace(cyc, period=-1),
    "nan_lam": lambda cyc, cert: replace(cyc, certificate=replace(cert, lam=math.nan)),
    "negative_lam": lambda cyc, cert: replace(cyc, certificate=replace(cert, lam=-0.5)),
    "nan_residual": lambda cyc, cert: replace(cyc, certificate=replace(cert, residual=math.nan)),
    "nan_ball_radius": lambda cyc, cert: replace(cyc, certificate=replace(cert, ball_radius=math.nan)),
    # a ball of radius 0 certifies nothing, even on a cycle that returns exactly
    "zero_ball_radius": lambda cyc, cert: replace(cyc, certificate=replace(cert, ball_radius=0.0, residual=0.0)),
    "negative_zero_ball_radius": lambda cyc, cert: replace(cyc, certificate=replace(cert, ball_radius=-0.0, residual=0.0)),
}


@pytest.mark.parametrize("spoil", sorted(VACUOUS))
def test_certify_cycle_rejects_vacuous_candidates(net_d, spoil):
    cyc = detect_cycle(net_d, [0.6, 0.0]).cycle
    assert certify_cycle(net_d, cyc)
    assert not certify_cycle(net_d, VACUOUS[spoil](cyc, cyc.certificate))


# entry point -> (network it runs on, a call with no samples or a negative max_iter)
EMPTY_WORK = {
    "census_0_samples": ("net_d", lambda p: cycle_census(p, 0, seed=5)),
    "census_-1_samples": ("net_d", lambda p: cycle_census(p, -1, seed=5)),
    "detect_max_iter_-1": ("net_d", lambda p: detect_cycle(p, [0.6, 0.0], max_iter=-1)),
    "sync_test_0_samples": ("net_sync9", lambda p: sync_test(p, 0, seed=13)),
}


@pytest.mark.parametrize("call", sorted(EMPTY_WORK))
def test_cycle_entry_points_reject_empty_work(call, request):
    name, run = EMPTY_WORK[call]
    with pytest.raises(PreconditionFailed, match="must be at least"):
        run(request.getfixturevalue(name))


# entry point -> a call on mixed8 with a given eta; NaN, -1 and 0 would turn the
# grazing check off, and inf would report every sample as grazing
BAD_ETA = {
    "census": lambda p, eta: cycle_census(p, 30, seed=0, eta=eta),
    "detect": lambda p, eta: detect_cycle(p, cycles._census_starts(p, 1, seed=0)[0], eta=eta),
}


@pytest.mark.parametrize("eta", [math.nan, -1.0, 0.0, math.inf])
@pytest.mark.parametrize("call", sorted(BAD_ETA))
def test_cycle_entry_points_reject_a_bad_eta(call, eta):
    with pytest.raises(PreconditionFailed, match="eta must be a finite positive number"):
        BAD_ETA[call](mixed8(), eta)


def test_cycle_banach_inequality_uses_enclosing_zone(net_d):
    cyc = detect_cycle(net_d, [0.6, 0.0]).cycle
    cert = cyc.certificate
    c_enc = max(0.0, float(cyc.points.max()))
    assert cert.lam < 1.0
    assert cert.lam >= lambda_for_zone(net_d, c_enc) - 1e-12
    assert cert.lam * cert.ball_radius + cert.residual <= cert.ball_radius
    assert cert.ball_radius < cyc.min_margin


# ---------------------------------------------------------------- census


def test_census_net_d_single_cycle(net_d):
    rep = cycle_census(net_d, 400, seed=5, eta=1e-4)
    assert len(rep.entries) == 1
    entry = rep.entries[0]
    assert entry.cycle.period == 2
    assert certify_cycle(net_d, entry.cycle)
    total = (rep.synchronized_fraction + rep.grazing_fraction
             + rep.unresolved_fraction + sum(e.basin_fraction for e in rep.entries))
    assert total == pytest.approx(1.0, abs=1e-12)
    assert entry.basin_fraction > 0.9


def test_census_seed_stable(net_d):
    first = cycle_census(net_d, 300, seed=5, eta=1e-4)
    second = cycle_census(net_d, 300, seed=6, eta=1e-4)
    assert len(first.entries) == len(second.entries) == 1
    a = first.entries[0].cycle
    b = second.entries[0].cycle
    d = min(
        max(np.max(np.abs(a.points[i] - b.points[(i + s) % 2])) for i in range(2))
        for s in range(2)
    )
    assert d <= 1e-9


def _same_fate(a, b):
    """Field-by-field equality of two FateReports, floats and points bit for bit."""
    assert (a.outcome, a.transient_steps) == (b.outcome, b.transient_steps)
    assert repr(a.margin) == repr(b.margin)
    assert (a.excitatory_death, a.last_excitatory_spike) == (b.excitatory_death, b.last_excitatory_spike)
    assert (a.cycle is None) == (b.cycle is None)
    if a.cycle is not None:
        ca, cb = a.cycle, b.cycle
        assert ca.period == cb.period and ca.points.tobytes() == cb.points.tobytes()
        assert ca.itinerary == cb.itinerary and ca.certified == cb.certified
        assert repr(ca.min_margin) == repr(cb.min_margin)
        assert repr(ca.certificate) == repr(cb.certificate)
        assert repr(ca.time_period) == repr(cb.time_period)
        assert repr(ca.contraction) == repr(cb.contraction)


# network, max_iter, eta, extra starts, outcomes the batch must contain; the
# small max_iter leaves some rows unresolved and the large eta makes some graze
BATCH_CASES = {
    "mixed8": (9, 1e-2, [], {"synchronized", "cycle", "grazing", "unresolved"}),
    "net_c": (2, 1e-2, [], {"synchronized", "grazing", "unresolved"}),
    "net_d": (4, 3e-2, [], {"cycle", "grazing", "unresolved"}),
    # all-excitatory, so no certificate: the anti-phase starts close an
    # exact uncertified period-2 cycle, the nudged one drifts off it slowly
    "net_a": (9, 1e-2, [[0.9, 0.0], [0.0, 0.9], [0.9 - 1e-9, 0.0]],
              {"synchronized", "cycle", "unresolved"}),
}


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_census_fate_equals_single_start(name, request):
    # every row of the lockstep batch gets the fate its start gets alone, but for
    # the cutoff kind: a row that enters a retirement ball by max_iter while its
    # start alone recurs only later is a cycle row, the fate its start alone
    # gets with 256 more returns
    params = mixed8() if name == "mixed8" else request.getfixturevalue(name)
    max_iter, eta, extra, outcomes = BATCH_CASES[name]
    V0 = cycles._census_starts(params, 40, seed=5)
    if extra:
        V0 = np.concatenate([V0, extra])
    fates = _row_fates(cycles._fates(params, V0, max_iter, eta))
    alone = [detect_cycle(params, v0, max_iter=max_iter, eta=eta) for v0 in V0]
    cutoff = 0
    for batched, single, v0 in zip(fates, alone, V0):
        if (batched.outcome, single.outcome) == ("cycle", "unresolved"):
            single, cutoff = detect_cycle(params, v0, max_iter=max_iter + 256, eta=eta), cutoff + 1
        _same_fate(batched, single)
    assert {f.outcome for f in alone} == outcomes
    assert cutoff == {"mixed8": 23, "net_d": 5}.get(name, 0)
    if name == "net_a":
        assert any(f.outcome == "cycle" and not f.cycle.certified for f in alone)
    # and the census counts exactly these fates
    rep = cycle_census(params, 40, seed=5, max_iter=max_iter, eta=eta)
    for outcome in ("synchronized", "grazing", "unresolved"):
        count = sum(f.outcome == outcome for f in fates[:40])
        assert getattr(rep, f"{outcome}_fraction") == count / 40
    assert sum(e.count for e in rep.entries) == sum(f.outcome == "cycle" for f in fates[:40])


@pytest.mark.parametrize("name, eta", [("mixed8", 1e-4), ("mixed8", 1e-2), ("dale4", 1e-6), ("net_d", 1e-6),
                                       ("net_death", 1e-6)])
def test_census_fate_equals_single_start_at_the_default_max_iter(name, eta, request):
    # far from the cutoff no row is excepted: every row's fate is its start's alone
    params = _diff_network(name, request)
    V0 = cycles._census_starts(params, 300, seed=5)
    for batched, v0 in zip(_row_fates(cycles._fates(params, V0, 2000, eta)), V0):
        _same_fate(batched, detect_cycle(params, v0, eta=eta))


@pytest.mark.parametrize("name", ["mixed8", "dale4", "inhib12"])
def test_retired_transients_follow_a_plain_step_loop(name, request):
    # each certified-cycle row's transient is the first return from which a plain
    # step_batch loop from its start stays within r' = min(ball radius, least
    # margin - eta) of a point of its cycle, up to the return it left
    params, eta = _diff_network(name, request), 1e-6
    V0 = cycles._census_starts(params, 300, seed=0)
    table = cycles._fates(params, V0, 2000, eta)
    fates = _row_fates(table)
    rows = [r for r, f in enumerate(fates) if f.outcome == "cycle" and f.cycle.certified]
    V, states = V0[rows], [V0[rows]]
    for _ in range(int(table.left[rows].max())):
        V = step_batch(params, V)[0]
        states.append(V)
    backdated = 0
    for j, r in enumerate(rows):
        cycle, left = fates[r].cycle, int(table.left[r])
        rad = min(cycle.certificate.ball_radius, cycle.min_margin - eta)
        inside = [np.abs(cycle.points - states[k][j]).max(axis=1).min() <= rad for k in range(left + 1)]
        assert inside[left]
        assert fates[r].transient_steps == min(t for t in range(left + 1) if all(inside[t:]))
        backdated += fates[r].transient_steps < left
    assert len(rows) > 100 and backdated > 100


@pytest.mark.parametrize("seed", range(8))
def test_census_steps_no_block_after_its_first_solve(seed, monkeypatch):
    # on mixed8 every row still live when the cycle is solved lies in its
    # retirement balls, so the census leaves its last rows at that return
    params, calls, busy = mixed8(), [], [False]
    step, solve = _kernels._step_columns, cycles._solve

    def block_step(params, X):
        if not busy[0]:  # the solve's own settling steps are not block steps
            calls.append("step")
        return step(params, X)

    def solving(params, word, eta):
        calls.append("solve")
        busy[0] = True
        try:
            return solve(params, word, eta)
        finally:
            busy[0] = False

    monkeypatch.setattr(_kernels, "_step_columns", block_step)
    monkeypatch.setattr(cycles, "_solve", solving)
    cycle_census(params, 30, seed, eta=1e-4)
    assert "step" not in calls[calls.index("solve"):]


def test_a_ball_that_fails_at_the_retirement_radius_retires_no_row(monkeypatch):
    # a certificate whose residual breaks lam * r' + residual <= r' registers no
    # ball: every cycle row leaves by its own look-back, its transient that return
    params, certified = mixed8(), cycles._certified_cycle

    def loose(*args):
        found = certified(*args)
        return replace(found, certificate=replace(found.certificate, residual=found.certificate.ball_radius))

    monkeypatch.setattr(cycles, "_certified_cycle", loose)
    V0 = cycles._census_starts(params, 30, seed=0)
    table = cycles._fates(params, V0, 2000, 1e-4)
    assert len(table.radius) == 1 and math.isnan(table.radius[0])
    _same_fates(table, reference_fates(params, V0, 2000, 1e-4))
    fates = _row_fates(table)
    assert [f.transient_steps for f in fates] == table.left.tolist()
    assert {f.outcome for f in fates} == {"synchronized", "cycle"}


class _Track:
    """Detection's record of one sample's orbit: per return its state, code
    (the winner), margin and firing set's name, and the returns at which each
    code occurred."""

    __slots__ = ("states", "codes", "margins", "sets", "seen")

    def __init__(self):
        self.states, self.codes, self.margins, self.sets = [], [], [], []
        self.seen = {}


def step_word(params, V):
    """The piece word of a (p, n) window of states, from one `step_batch` call on
    it: each state's winner (its argmax), firing set and floored set (image == alpha)."""
    out, fired, _, _ = step_batch(params, V)
    return V.argmax(axis=1), fired, out == params.alpha


def reference_fates(params, V0, max_iter, eta, windows=None):
    """Fates of the rows of an (m, n) batch of starts, stepped in lockstep.

    The census detection written as a per-row loop over Python lists, kept
    as the reference `cycles._fates` is held to, field by field, with each row of
    its FateTable read through `report`.  It reads
    `cycles._MAX_PERIOD` when it runs, so a test that patches it patches both.

    Each return steps every live row with one `step_batch` call; only the
    recurrence bookkeeping runs per row, and a row leaves the batch once its
    fate is known.  A return is coded by its winner; inside C_{c_bar} of a
    Dale network with an inhibitory neuron its margin is half its winner gap
    (below eta it grazes), elsewhere the tie tolerance.  A candidate recurs
    within the tie tolerance, or by the contraction budget when the image of
    C_{c_bar} lies in a zone of level in [0, c_bar).  The recurrences of a
    return are settled at that return, in row order.  A window inside
    C_{c_bar} of such a network is solved, candidates whose piece words share
    a least rotation sharing one `_solve` of the word that one `step_batch`
    call on the window's states gives (appended to `windows`, when given, in
    the order they are solved); any other window, and one whose
    solve fails on a recurrence within the tie tolerance, is an uncertified
    cycle named by the firing sets seen when it was stepped.

    A certified solve registers a retirement ball of radius
    r' = min(ball radius, least margin - eta) around each of its points,
    when lam * r' + residual <= r'.  From the next return on, a live row
    within r' of a registered point, before it is stepped, leaves as a row of
    that point's cycle; at the return that registers the ball, so do the rows
    still live after the look-back.  A row of a cycle with balls has as its
    transient the first return of its run of returns within r' of a point of
    its cycle that ends at the return it left (that return when it is not
    within r'); every other row has the return it left.

    Returns (fates, last_exc): fates[r] is row r's FateReport or the error
    its solve raised, last_exc[r] the last return at which an excitatory
    neuron fired (-1 for none).  Each report carries that return as its last
    excitatory spike, and its excitatory death: False when synchronized, and
    on a cycle whether no excitatory neuron fires as the cycle's points are
    stepped.
    """
    certifiable = params.hypotheses.h4 and bool(params.inhibitory)
    c_bar, tie = params.constants.c_bar, params.tie_tol()
    level = _zone_after_return(params)
    lam = lambda_for_zone(params, level) if certifiable and 0.0 <= level < c_bar else None
    if lam is not None and lam >= 1.0:
        lam = None
    excit = list(params.excitatory)

    m = V0.shape[0]
    fates, radius = [None] * m, [None] * m  # radius: r' of the balls of a row's cycle, if it has them
    last_exc = np.full(m, -1, np.int64)
    tracks = [_Track() for _ in range(m)]
    solved = {}  # least rotation of a piece word -> its solve
    balls = []  # (point, r', cycle) of every retirement ball, in the order registered

    def cycle_fate(r, k, result, rad=None):
        # excitatory death: no excitatory neuron fires as the cycle's points are stepped
        death = not step_batch(params, result.points)[1][:, excit].any()
        fates[r], radius[r] = cycles.FateReport("cycle", transient_steps=k, cycle=result, excitatory_death=death), rad

    def retired(r, k, state):
        # whether state lies within a registered ball, which makes r a row of its cycle leaving at k
        for pt, rad, result in balls:
            if np.max(np.abs(state - pt)) <= rad:
                cycle_fate(r, k, result, rad)
                return True
        return False

    def settle(r, prev, k, exact):
        track, result, rad = tracks[r], None, None
        pts = np.array(track.states[prev:k])
        if certifiable and _in_zone_rows(pts, c_bar).all():
            word = track.codes[prev:k]
            s = min(range(k - prev), key=lambda i: word[i:] + word[:i])
            key = tuple(word[s:] + word[:s])
            if key not in solved:
                window = np.roll(pts, -s, axis=0)
                if windows is not None:
                    windows.append(window)
                try:
                    solved[key] = cycles._solve(params, step_word(params, window), eta)
                except (NumericalStall, PreconditionFailed) as exc:
                    solved[key] = exc
                if isinstance(found := solved[key], cycles.LimitCycle):
                    cert = found.certificate
                    r1 = min(cert.ball_radius, found.min_margin - eta)
                    if cert.lam * r1 + cert.residual <= r1:
                        balls.extend((pt, r1, found) for pt in found.points)
            result = solved[key]
            rad = next((b[1] for b in balls if b[2] is result), None)
        if result is None or exact and isinstance(result, Exception):
            result = cycles.LimitCycle(
                period=k - prev, points=pts, itinerary=tuple(track.sets[prev:k]),
                min_margin=None, certificate=None, certified=False,
                time_period=cycles._period_time(params, pts))
        if isinstance(result, cycles.LimitCycle):
            cycle_fate(r, k, result, rad)
        elif isinstance(result, float):  # the solved cycle grazes, by this least margin
            fates[r] = cycles.FateReport("grazing", transient_steps=k, margin=result)
        else:
            fates[r] = result

    live, V = np.arange(m), V0
    for k in range(max_iter + 1):
        zero = ~V.any(axis=1)
        for r in live[zero].tolist():
            fates[r] = cycles.FateReport("synchronized", transient_steps=k, excitatory_death=False)
        live, V = live[~zero], V[~zero]
        leave = np.zeros(live.size, np.bool_)
        for i, r in enumerate(live.tolist()):
            if retired(r, k, V[i]):
                tracks[r].states.append(V[i])
                leave[i] = True
        live, V = live[~leave], V[~leave]
        if not live.size:
            break
        image, fired, _, _ = step_batch(params, V)
        last_exc[live[fired[:, excit].any(axis=1)]] = k
        if certifiable:
            _, gap, zone = reference_pieces(params, V)  # a gap is 0 on the boundary
        leave = np.zeros(live.size, np.bool_)
        found = []  # (row, first return of the recurring window, this return, within the tie tolerance)
        for i, r in enumerate(live.tolist()):
            track, state = tracks[r], V[i]
            m_k = 0.5 * gap[i] if certifiable and zone[i] else tie
            if certifiable and zone[i] and m_k < eta:
                fates[r] = cycles.FateReport("grazing", transient_steps=k, margin=m_k)
                leave[i] = True
                continue
            c_k = int(np.argmax(state))
            track.states.append(state)
            track.codes.append(c_k)
            track.margins.append(m_k)
            track.sets.append(set_name(fired[i]))
            history = track.seen.setdefault(c_k, [])
            for prev in reversed(history[-8:]):
                p = k - prev
                if p > cycles._MAX_PERIOD:
                    break
                dist = float(np.max(np.abs(state - track.states[prev])))
                exact = dist <= tie
                if not exact and (lam is None or dist / (1.0 - lam ** p) > min(track.margins[prev:])):
                    continue
                found.append((r, prev, k, exact))
                leave[i] = True
                break
            if not leave[i]:
                history.append(k)
        held = len(balls)
        for args in found:
            settle(*args)
        if len(balls) > held:
            for i, r in enumerate(live.tolist()):
                leave[i] = leave[i] or retired(r, k, V[i])
        live, V = live[~leave], image[~leave]
    for r in live.tolist():
        fates[r] = cycles.FateReport("unresolved", transient_steps=max_iter)

    for r, fate in enumerate(fates):
        if radius[r] is not None:  # the first return of the run within r' of its cycle that ends where it left
            inside = [np.abs(fate.cycle.points - state).max(axis=1).min() <= radius[r] for state in tracks[r].states]
            t = len(inside) - 1
            while inside[-1] and t > 0 and inside[t - 1]:
                t -= 1
            fate.transient_steps = t
        if isinstance(fate, cycles.FateReport):
            fate.last_excitatory_spike = int(last_exc[r]) if last_exc[r] >= 0 else None
    return fates, last_exc


def _row_fates(table):
    """Each row's fate read from a FateTable through `report`: its FateReport, or
    the error its cycle's solve raised."""
    fates = []
    for r in range(len(table.outcome)):
        try:
            fates.append(table.report(r))
        except (NumericalStall, PreconditionFailed) as exc:
            fates.append(exc)
    return fates


def _same_fates(table, want):
    """Field-by-field equality of the rows of a FateTable and reference_fates'
    (fates, last_exc); an error must have the same type and message."""
    ref_fates, ref_last_exc = want
    fates = _row_fates(table)
    assert table.last_exc.tobytes() == ref_last_exc.tobytes() and len(fates) == len(ref_fates)
    for a, b in zip(fates, ref_fates):
        if isinstance(b, Exception):
            assert (type(a), str(a)) == (type(b), str(b))
        else:
            _same_fate(a, b)


# All-inhibitory networks with beta = 1.5 whose orbits close uncertified
# cycles (above c_bar) of period 12 to 21 after about 100 returns: within a
# period one winner recurs more than 8 times, so the look-back depth decides
# at which return (and on which window) a row's recurrence is found.
LONG_WORDS = {
    "inhib4_p19": [[0.0, -0.133, -0.59, -0.706], [-0.219, 0.0, -0.297, -0.642],
                   [-0.556, -0.185, 0.0, -0.652], [-0.431, -0.62, -0.921, 0.0]],
    "inhib4_p21": [[0.0, -0.709, -0.508, -0.36], [-0.658, 0.0, -0.103, -0.084],
                   [-0.134, -0.498, 0.0, -0.62], [-0.196, -0.289, -0.06, 0.0]],
}
# starts beside the census starts: a tie (grazing inside C_{c_bar}) and the
# anti-phase start of net_a with its nudged copy
EDGE_STARTS = {"net_c": [[0.0, 0.3, 0.3]], "net_d": [[0.0, 0.3]],
               "net_a": [[0.9, 0.0], [0.9 - 1e-9, 0.0]]}


def _diff_network(name, request):
    if name in LONG_WORDS:
        return network(4, 1.0, 1.5, 1.0, -1.0, LONG_WORDS[name])
    if name == "mixed6":  # random signs: every neuron mixed, so no certificate
        return network(6, 1.0, 1.2, 1.0, -1.0, np.random.default_rng(6).uniform(-0.9, 0.9, (6, 6)))
    if name == "inhib12":  # all-inhibitory: some rows enter the solved cycle's balls a return after its solve
        return network(12, 1.0, 1.2, 1.0, -1.0, -np.random.default_rng(12).uniform(0.6, 0.9, (12, 12)))
    if name in ("mixed8", "dale4"):
        return load_config(str(GOLDEN / f"{name}.json")).params
    if name == "dale256":  # the all-inhibitory dale64 recipe at n = 256 (tools/step_bench.py's dale(256, 0))
        H = -np.random.default_rng(5).uniform(0.2, 0.5, (256, 256))
        np.fill_diagonal(H, 0.0)
        return network(256, 1.0, 1.2, 1.0, -1.0, H)
    return request.getfixturevalue(name)


def _diff_starts(params, name, seed, count, wide):
    """`count` census starts, `wide` draws on the whole section (mostly outside
    C_{c_bar}) and the network's edge starts."""
    whole = sample_on_section(rng_stream(seed, 0), params.n, params.alpha, params.theta, wide)
    return np.concatenate([cycles._census_starts(params, count, seed), whole,
                           np.reshape(EDGE_STARTS.get(name, []), (-1, params.n))])


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["net_a", "net_c", "net_d", "net_sync9", "mixed8", "dale4", "mixed6", "inhib12", *LONG_WORDS]),
       seed=st.integers(0, 2**64 - 1), count=st.integers(1, 24), wide=st.integers(0, 8),
       max_iter=st.sampled_from([0, 1, 3, 9, 40, 300]), eta=st.sampled_from([1e-6, 1e-4, 1e-2, 3e-2]))
@example(name="mixed8", seed=0, count=24, wide=8, max_iter=300, eta=1e-6)
@example(name="net_d", seed=5, count=24, wide=8, max_iter=4, eta=3e-2)
@example(name="net_c", seed=3, count=24, wide=8, max_iter=300, eta=1e-5)
@example(name="dale4", seed=0, count=24, wide=8, max_iter=300, eta=1e-6)
@example(name="net_sync9", seed=0, count=24, wide=8, max_iter=300, eta=1e-6)
@example(name="mixed6", seed=0, count=24, wide=8, max_iter=300, eta=1e-6)
# one row enters a ball a return after the solve, so the ball test before the step retires it
@example(name="inhib12", seed=0, count=24, wide=8, max_iter=300, eta=1e-6)
@example(name="inhib4_p19", seed=5, count=24, wide=8, max_iter=300, eta=1e-6)
@example(name="inhib4_p21", seed=5, count=24, wide=36, max_iter=300, eta=1e-6)
# half of these rows recur after return 257, so their rings reuse slots at the full depth
@example(name="dale256", seed=0, count=8, wide=0, max_iter=2000, eta=1e-6)
def test_fates_equal_reference_fates(name, seed, count, wide, max_iter, eta, request):
    # every field of every row's fate, solve errors and last_exc included, bit for bit
    params = _diff_network(name, request)
    V0 = _diff_starts(params, name, seed, count, wide)
    _same_fates(cycles._fates(params, V0, max_iter, eta), reference_fates(params, V0, max_iter, eta))


@pytest.mark.parametrize("name, look_back", [("inhib4_p21", 7), ("inhib4_p19", 9)])
def test_long_words_see_the_look_back_depth(name, look_back, request, monkeypatch):
    # these starts tell a look-back of 8 occurrences from one of 7 (inhib4_p21)
    # or of 9 (inhib4_p19), and the examples above hold them
    params = _diff_network(name, request)
    V0 = _diff_starts(params, name, 5, 24, 36)
    want = reference_fates(params, V0, 300, 1e-6)
    _same_fates(cycles._fates(params, V0, 300, 1e-6), want)
    monkeypatch.setattr(cycles, "_LOOK_BACK", look_back)
    with pytest.raises(AssertionError):
        _same_fates(cycles._fates(params, V0, 300, 1e-6), want)


@pytest.mark.parametrize("name, period", [("net_d", 2), ("net_a", 2), ("mixed8", 6), ("dale4", 2)])
@pytest.mark.parametrize("shorter", [0, 1])
def test_fates_equal_reference_fates_at_the_period_cutoff(name, period, shorter, request, monkeypatch):
    # with _MAX_PERIOD at a cycle's period its recurrence is found at lag
    # _MAX_PERIOD exactly; one below, it is not found at all
    params = _diff_network(name, request)
    monkeypatch.setattr(cycles, "_MAX_PERIOD", period - shorter)
    V0 = _diff_starts(params, name, 0, 40, 4)
    table = cycles._fates(params, V0, 60, 1e-4)
    _same_fates(table, reference_fates(params, V0, 60, 1e-4))
    periods = {f.cycle.period for f in _row_fates(table) if f.outcome == "cycle"}
    assert periods == (set() if shorter else {period})


def test_fates_memory_does_not_grow_with_max_iter(net_a, monkeypatch):
    # copies of net_a's exact anti-phase start recur with period 2, past the longest
    # period looked for here, so every row stays live to max_iter.  The rings keep
    # only the last _MAX_PERIOD + 1 returns, so the peak is the same at 100 and at
    # 400 returns.
    monkeypatch.setattr(cycles, "_MAX_PERIOD", 1)
    V0 = np.tile([0.9, 0.0], (64, 1))
    peaks = {}
    for max_iter in (100, 400):
        tracemalloc.start()
        try:
            table = cycles._fates(net_a, V0, max_iter, 1e-6)
            peaks[max_iter] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(f.outcome, f.transient_steps) for f in _row_fates(table)] == [("unresolved", max_iter)] * 64
    assert abs(peaks[400] - peaks[100]) < 4096, peaks


@pytest.mark.parametrize("name, eta", [("mixed8", 1e-4), ("dale4", 1e-6)])
def test_itineraries_are_the_printed_piece_names(name, eta):
    # mixed8 (H3 holds) and dale4 (H3 fails), both certified: every function hands
    # back the itinerary cycles.json prints, as a tuple of str
    params = load_config(str(GOLDEN / f"{name}.json")).params
    recorded = json.loads((GOLDEN / f"cycles_{name}" / "cycles.json").read_text())["cycles"]
    census = cycle_census(params, 30, seed=0, eta=eta)
    got = [e.cycle.itinerary for e in census.entries]
    assert [list(it) for it in got] == [c["itinerary"] for c in recorded] and len(got) == 1
    start = next(v0 for v0 in cycles._census_starts(params, 30, seed=0)
                 if detect_cycle(params, v0, eta=eta).outcome == "cycle")
    it = detect_cycle(params, start, eta=eta).cycle.itinerary
    assert type(it) is tuple and all(type(p) is str for p in it) and it == got[0]


def test_dale4_census_cycles_are_certified():
    # H3 fails on dale4, yet its cycle lies in C_{c_bar} and certify_cycle accepts its certificate
    params = load_config(str(GOLDEN / "dale4.json")).params
    assert not params.hypotheses.h3
    rep = cycle_census(params, 300, seed=0)
    assert len(rep.entries) == 1 and rep.entries[0].count > 100
    for entry in rep.entries:
        assert entry.cycle.certified and certify_cycle(params, entry.cycle)
        assert entry.cycle.itinerary == ("inhib:2", "inhib:4")


def test_empty_zone_network_still_ends_in_a_cycle():
    # all-zero H makes every neuron inhibitory, a certifiable network, but beta = 10
    # puts c_bar below 0: C_{c_bar} is empty, so no zone factor is asked for and the
    # exact recurrence is reported uncertified
    params = network(3, 1.0, 10.0, 1.0, -1.0, np.zeros((3, 3)))
    assert params.constants.c_bar < 0 and params.hypotheses.certifiable
    fate = detect_cycle(params, [0.5, 0.25, 0.0])
    assert fate.outcome == "cycle" and not fate.cycle.certified
    assert fate.cycle.period == 3 and fate.cycle.itinerary == ("J:1", "J:2", "J:3")


@pytest.mark.parametrize("name", ["mixed8", "dale4", "net_d", "net_death", "inhib4_p19"])
def test_no_certified_cycle_holds_sync(name, request):
    # a certified cycle runs on inhibitory pieces only; an uncertified one is named by firing sets
    params = _diff_network(name, request)
    fates = _row_fates(cycles._fates(params, _diff_starts(params, name, 0, 100, 20), 2000, 1e-6))
    found = [f.cycle for f in fates if f.outcome == "cycle"]
    assert found
    for cyc in found:
        prefix = "inhib:" if cyc.certified else "J:"
        assert all(p.startswith(prefix) for p in cyc.itinerary)


def test_a_failed_solve_on_a_tie_recurrence_is_reported_uncertified(monkeypatch):
    # dale4 has no contraction budget, so every recurrence there is a tie: when its
    # solve fails, the cycle is reported uncertified, named by its firing sets
    params = load_config(str(GOLDEN / "dale4.json")).params
    certified = cycle_census(params, 30, seed=0).entries

    def fail(*args):
        raise NumericalStall("no certificate")

    monkeypatch.setattr(cycles, "_certified_cycle", fail)
    rep = cycle_census(params, 30, seed=0)
    assert [(e.count, e.cycle.period) for e in rep.entries] == [(e.count, e.cycle.period) for e in certified]
    assert [(e.cycle.certified, e.cycle.itinerary) for e in rep.entries] == [(False, ("J:4", "J:2"))]


def test_windows_outside_the_zone_are_not_solved(monkeypatch):
    # dale64's cycles lie above c_bar: they are reported uncertified without a solve
    params, calls = load_config(str(GOLDEN / "dale64.json")).params, []
    monkeypatch.setattr(cycles, "_solve", lambda *args: calls.append(args))
    rep = cycle_census(params, 100, seed=0)
    assert rep.entries and calls == []
    assert not any(e.cycle.certified for e in rep.entries)


def test_certified_cycle_refuses_a_point_on_the_sync_piece(net_c):
    # an excitatory maximum with a wide gap, inside C_{c_bar}: without H3 the sync
    # piece need not map to the origin, so no certificate is made for it
    seq = np.array([[0.4, 0.0, 0.2]] * 3)
    with pytest.raises(PreconditionFailed, match="no inhibitory winner"):
        cycles._certified_cycle(net_c, seq, 1, 1e-6, 0.5)


@pytest.mark.parametrize("seq, error, message", [
    # a point above c_bar is off the zone every certificate lives in
    ([[NET_D_CBAR + 0.01, 0.0]] * 3, PreconditionFailed, r"state is outside C_\{c_bar\}"),
    # inside C_{c_bar} but within a relative 1e-9 of c_bar: no room for a ball
    ([[NET_D_CBAR * (1 - 1e-10), 0.0]] * 3, NumericalStall, "cycle points leave the certifiable zone"),
    # a residual of 1e-6 past the solved point, far above the 1e-10 a solve may leave
    ([[0.3, 0.0], [0.3 + 1e-6, 0.0], [0.3, 0.0]], NumericalStall, "Banach ball inequality failed at the solved cycle"),
])
def test_certified_cycle_refuses_what_no_ball_covers(net_d, seq, error, message):
    assert net_d.constants.c_bar == NET_D_CBAR
    with pytest.raises(error, match=message):
        cycles._certified_cycle(net_d, np.array(seq), 1, 1e-6, 0.5)


def test_certify_cycle_recomputes_lambda(net_d):
    params = mixed8()
    cyc = cycle_census(params, 30, seed=0, eta=1e-4).entries[0].cycle
    dale4 = load_config(str(GOLDEN / "dale4.json")).params
    assert certify_cycle(params, cyc) and certify_cycle(dale4, cycle_census(dale4, 30, seed=0).entries[0].cycle)
    # a claimed lambda of 0 where the zone factor is 0.930
    assert cyc.certificate.lam == pytest.approx(0.930, abs=1e-3)
    assert not certify_cycle(params, replace(cyc, certificate=replace(cyc.certificate, lam=0.0)))
    # lambda 0.5 with a ball nearly as wide as the least margin: the zone at level 0.408 has factor 0.955
    r = 0.999 * cyc.min_margin
    assert lambda_for_zone(params, float(cyc.points.max()) + r) == pytest.approx(0.955, abs=1e-3)
    assert not certify_cycle(params, replace(cyc, certificate=replace(cyc.certificate, lam=0.5, ball_radius=r)))
    # net_d's anti-phase cycle with balls reaching past c_bar, where no zone factor is below 1
    cyc = detect_cycle(net_d, [0.6, 0.0]).cycle
    r = 0.999 * cyc.min_margin
    assert float(cyc.points.max()) + r > net_d.constants.c_bar
    assert not certify_cycle(net_d, replace(cyc, certificate=replace(cyc.certificate, lam=0.99, ball_radius=r)))


@pytest.mark.parametrize("count", [1, 30, 1000])
@pytest.mark.parametrize("n", [2, 8, 12])
@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_census_starts_are_the_draws_of_each_samples_own_stream(seed, n, count):
    # one generator re-keyed per sample draws what a fresh rng_stream(seed, 1 + idx) draws
    H = np.full((n, n), -0.7)
    params = network(n, 1.0, 1.2, 1.0, -1.0, H)
    hi = params.constants.c_bar
    want = np.array([sample_on_section(rng_stream(seed, 1 + idx), n, params.alpha, hi, 1)[0]
                     for idx in range(count)])
    got = cycles._census_starts(params, count, seed)
    assert got.shape == (count, n) and got.tobytes() == want.tobytes()


def test_census_raises_error_of_lowest_failing_sample(net_d, monkeypatch):
    def fail(params, seq, p, eta, contraction):
        raise NumericalStall(seq[0].tobytes().hex())

    first = next(f for f in (detect_cycle(net_d, v0, max_iter=4, eta=3e-2)
                             for v0 in cycles._census_starts(net_d, 40, seed=5))
                 if f.outcome == "cycle")
    monkeypatch.setattr(cycles, "_certified_cycle", fail)
    with pytest.raises(NumericalStall) as err:
        cycle_census(net_d, 40, seed=5, max_iter=4, eta=3e-2)
    assert str(err.value) == first.cycle.points[0].tobytes().hex()


def test_a_solved_cycle_that_grazes_reports_the_row_grazing(monkeypatch):
    # eta just above the least margin of mixed8's cycle (its golden min_margin): start 2
    # of the 300-sample census grazes on none of its own returns, but recurs on the
    # cycle's word, and the solved cycle's least margin is below eta
    params = mixed8()
    margin = json.loads((GOLDEN / "cycles_mixed8" / "cycles.json").read_text())["cycles"][0]["min_margin"]
    eta, V0 = margin * (1 + 1e-6), cycles._census_starts(params, 300, seed=0)[:3]
    certified, reports = cycles._certified_cycle, []

    def spy(*args):
        reports.append(certified(*args))
        return reports[-1]

    monkeypatch.setattr(cycles, "_certified_cycle", spy)
    fate = detect_cycle(params, V0[2], eta=eta)
    assert (fate.outcome, fate.transient_steps, fate.margin) == ("grazing", 9, margin)
    assert [(type(f), f) for f in reports] == [(float, margin)]
    _same_fates(cycles._fates(params, V0[2:], 2000, eta), reference_fates(params, V0[2:], 2000, eta))
    # the census counts the row as grazing; rows 0 and 1 graze at their starts
    assert cycles._fates(params, V0, 2000, eta).outcome.tolist() == [cycles._GRAZING] * 3
    rep = cycle_census(params, 3, seed=0, eta=eta)
    assert (rep.grazing_fraction, rep.entries) == (1.0, [])


def test_census_solves_each_cycle_once(monkeypatch):
    params, calls = mixed8(), []
    certified = cycles._certified_cycle

    def spy(*args):
        calls.append(args[2])
        return certified(*args)

    monkeypatch.setattr(cycles, "_certified_cycle", spy)
    rep = cycle_census(params, 200, seed=0, eta=1e-4)
    assert calls == [6] and len(rep.entries) == 1
    table = cycles._fates(params, cycles._census_starts(params, 200, seed=0), 2000, 1e-4)
    points = {f.cycle.points.tobytes() for f in _row_fates(table) if f.outcome == "cycle"}
    assert points == {rep.entries[0].cycle.points.tobytes()}
    # every sample that recurs on the solved word holds the one index of its solve
    assert len(table.cycles) == 1 and set(table.cycle.tolist()) == {-1, 0}


def _cycles_match(a, b, thr):
    """Whether two cycles match by the pairwise alignment search: the least sup
    distance over cyclic alignments of equal periods, or the Hausdorff distance
    of the point sets when one period divides the other, is at most thr."""
    if a.period == b.period:
        p = a.period
        twice = np.concatenate((b.points, b.points))  # twice[s:s + p] is b shifted by s
        return any(np.abs(a.points - twice[s:s + p]).max() <= thr for s in range(p))
    if max(a.period, b.period) % min(a.period, b.period) != 0:
        return False
    d = np.abs(a.points[:, None, :] - b.points[None, :, :]).max(axis=2)
    return bool(max(d.min(axis=1).max(), d.min(axis=0).max()) <= thr)


def reference_entries(fates, thr):
    """[cycle, count] census entries by the alignment search: each cycle fate, in
    sample order, counts for the first entry whose cycle it matches, or opens one."""
    entries = []
    for fate in fates:
        if fate.outcome == "cycle":
            entry = next((e for e in entries if _cycles_match(e[0], fate.cycle, thr)), None)
            if entry is None:
                entry = [fate.cycle, 0]
                entries.append(entry)
            entry[1] += 1
    return entries


# census -> network, samples, eta: the cycles goldens, and an all-inhibitory network
# whose 300 uncertified windows all close one period-19 cycle
ORACLE_CENSUSES = {"mixed8": ("mixed8", 1000, 1e-6), "dale4": ("dale4", 1000, 1e-6),
                   "dale64": ("dale64", 200, 1e-6), "inhib4_p19": ("inhib4_p19", 300, 1e-6)}


@pytest.mark.parametrize("census", sorted(ORACLE_CENSUSES))
def test_census_entries_equal_the_alignment_search(census, request):
    # dedup by key, with points within ten tie tolerances over the shifts that
    # give it, makes the entries the alignment search makes; and the table's
    # excitatory flag of every cycle fate is what a re-step of its points says
    name, samples, eta = ORACLE_CENSUSES[census]
    params = (load_config(str(GOLDEN / "dale64.json")).params if name == "dale64"
              else _diff_network(name, request))
    rep = cycle_census(params, samples, seed=0, eta=eta)
    table = cycles._fates(params, cycles._census_starts(params, samples, seed=0), 2000, eta)
    want = reference_entries(_row_fates(table), 10.0 * params.tie_tol())
    assert [(e.cycle.points.tobytes(), e.count) for e in rep.entries] == [(c.points.tobytes(), k) for c, k in want]
    assert [e.basin_fraction for e in rep.entries] == [k / samples for _, k in want]
    rows = np.flatnonzero(table.cycle >= 0)
    assert rows.size
    for r in rows.tolist():
        points = table.cycles[table.cycle[r]].points
        assert table.excit_fires[table.cycle[r]] == step_batch(params, points)[1][:, list(params.excitatory)].any()
    if census in ("dale64", "inhib4_p19"):  # uncertified windows, merged into fewer entries
        assert len(rep.entries) < len(set(table.cycle[rows].tolist()))


def test_census_joins_uncertified_cycles_by_key_and_aligned_distance():
    # entries join on itineraries that are rotations of each other, with points
    # close over the shifts that align them: a rotated copy joins, a far one and
    # a misaligned one do not
    pts, it, thr = np.array([[0.1, 0.0], [0.0, 0.2]]), ("J:1", "J:2"), 1e-9

    def cycle(points, itinerary):
        return cycles.LimitCycle(period=len(points), points=points, itinerary=itinerary, min_margin=None,
                                 certificate=None, certified=False, time_period=1.0)

    a = cycle(pts, it)
    assert cycles._one_entry(a, cycle(pts[::-1] + thr / 2, it[::-1]), thr)
    assert not cycles._one_entry(a, cycle(pts + 0.5, it), thr)
    assert not cycles._one_entry(a, cycle(pts, ("J:1", "J:1;2")), thr)
    assert not cycles._one_entry(a, cycle(pts, ("inhib:1", "inhib:2")), thr)  # a solved cycle's names
    # a word of period 2 on a cycle of period 4: two shifts align the itineraries, one the points
    four = np.concatenate((pts, pts + 0.1))
    assert cycles._one_entry(cycle(four, it * 2), cycle(np.roll(four, 2, axis=0), it * 2), thr)
    # the same points under a shift that does not align the itineraries: the
    # alignment search alone would join them, the itinerary rule does not
    misaligned = cycle(pts[::-1], it)
    assert _cycles_match(a, misaligned, thr)
    assert not cycles._one_entry(a, misaligned, thr)


def test_census_cycle_reports_its_measured_contraction():
    # |l2/l1| of the period-6 piece-matrix product, far below the zone bound lambda^6 = 0.65
    cycle = cycle_census(mixed8(), 30, seed=0, eta=1e-4).entries[0].cycle
    assert cycle.period == 6 and cycle.contraction == pytest.approx(3.1e-4, rel=0.05)
    assert cycle.contraction < cycle.certificate.lam ** cycle.period


@pytest.mark.parametrize("name", ["mixed8", "net_d"])
def test_census_points_do_not_depend_on_the_eigenvector_last_bits(name, request, monkeypatch):
    # the solved point is stepped 2p times before its cycle is read off, so
    # a few ulps of LAPACK noise in the eigenvector never reach the output
    params = mixed8() if name == "mixed8" else request.getfixturevalue(name)
    census = lambda: cycle_census(params, 100, seed=3, eta=1e-4)
    want = [e.cycle.points.tobytes() for e in census().entries]
    assert want
    eig = np.linalg.eig
    for seed in range(4):
        toward = np.random.default_rng(seed).choice([-np.inf, np.inf], size=params.n + 1)

        def nudged(a):
            w, vecs = eig(a)
            parts = [vecs.real, vecs.imag] if np.iscomplexobj(vecs) else [vecs]
            for _ in range(3):  # 3 ulps up or down, per coordinate
                parts = [np.nextafter(x, toward[:, None]) for x in parts]
            return w, parts[0] + 1j * parts[1] if len(parts) == 2 else parts[0]

        monkeypatch.setattr(np.linalg, "eig", nudged)
        assert [e.cycle.points.tobytes() for e in census().entries] == want, seed


@pytest.mark.parametrize("spoil", ["tied", "complex", "at_infinity"])
def test_solve_needs_a_strictly_dominant_real_eigenvector(net_d, monkeypatch, spoil):
    eig = np.linalg.eig

    def spoiled(a):
        w, vecs = eig(a)
        w, vecs = w.astype(complex), vecs.astype(complex)
        lead = np.argmax(np.abs(w))
        if spoil == "tied":
            w[:] = w[lead]
        elif spoil == "complex":
            w[lead] += 1e-3j
        else:
            vecs[-1] = 0.0
        return w, vecs

    monkeypatch.setattr(np.linalg, "eig", spoiled)
    with pytest.raises(NumericalStall, match="no strictly dominant real eigenvector"):
        cycle_census(net_d, 40, seed=5, eta=1e-4)


def test_mixed8_cycle_solves_from_its_literal_word():
    # the period-6 word of the golden census, written out with no sampled state and
    # no census: each point fires its inhibitory winner alone, and nothing floors
    params, winner = mixed8(), np.array([1, 3, 2, 6, 4, 5])
    fired = np.zeros((6, params.n), np.bool_)
    fired[np.arange(6), winner] = True
    cyc = cycles._solve(params, (winner, fired, np.zeros_like(fired)), 1e-4)
    golden = json.loads((GOLDEN / "cycles_mixed8" / "cycles.json").read_text())["cycles"][0]
    assert cyc.points.tobytes() == np.array(golden["points"]).tobytes()
    assert cyc.itinerary == tuple(golden["itinerary"]) and certify_cycle(params, cyc)


# all inhibitory; its period-3 cycle floors neuron 2 on one return of the three,
# so a floored set read from the wrong slot of the census ring shows in its word
FLOOR3_H = [[0.0, -2.8, -0.7], [-0.6, 0.0, -1.7], [-0.9, -0.5, 0.0]]


@pytest.mark.parametrize("name, eta, samples", [("mixed8", 1e-4, 30), ("dale4", 1e-6, 30), ("dale64", 1e-6, 200),
                                                ("floor3", 1e-6, 30)])
def test_solve_settles_to_the_bytes_of_a_full_orbit(name, eta, samples, monkeypatch):
    # the words the census solves (mixed8, dale4, floor3), each the codes of one
    # step_batch call on its window's states, as the reference census finds them;
    # or, where it solves none (dale64: its cycles lie above c_bar), the words of
    # its cycles' points.  Each solve hands `_certified_cycle` the bytes of the full
    # orbit of its eigenvector, as run_orbit steps it, and stops stepping at its
    # first byte-periodic state: every step it takes is a settling step
    if name == "floor3":
        params = network(3, 1.0, 1.2, 1.0, -1.0, FLOOR3_H)
    else:
        params = load_config(str(GOLDEN / f"{name}.json")).params
    solve, words = cycles._solve, []
    monkeypatch.setattr(cycles, "_solve", lambda p, w, e: words.append(w) or solve(p, w, e))
    report = cycle_census(params, samples, seed=0, eta=eta)
    monkeypatch.undo()
    if words:
        windows = []
        reference_fates(params, cycles._census_starts(params, samples, seed=0), 2000, eta, windows)
        assert len(windows) == len(words)
        for window, word in zip(windows, words):
            assert [(a.dtype, a.tobytes()) for a in word] == [(a.dtype, a.tobytes()) for a in step_word(params, window)]
    else:
        words = [step_word(params, entry.cycle.points) for entry in report.entries]
    step, counts = _kernels._step_columns, {}

    class Settled(Exception):
        pass

    for word in words:
        p, states, seqs = len(word[0]), [], []

        def spy(params, X):
            states.append(X[:, 0].copy())
            return step(params, X)

        def caught(params, seq, p, eta, contraction):
            seqs.append(seq.copy())
            raise Settled

        monkeypatch.setattr(_kernels, "_step_columns", spy)
        monkeypatch.setattr(cycles, "_certified_cycle", caught)
        with pytest.raises(Settled):
            solve(params, word, eta)
        monkeypatch.undo()
        x = states[0]
        want = np.vstack((x, run_orbit(params, x, 4 * p)[0]))
        assert seqs[0].tobytes() == want[2 * p:].tobytes()
        first = next((t for t in range(p, 4 * p + 1) if want[t].tobytes() == want[t - p].tobytes()), 4 * p)
        assert len(states) == first
        counts[p] = len(states)
    if name == "mixed8":
        assert counts == {6: 9}
    if name == "floor3":
        assert any(word[2].any(axis=1).tolist() == [True, False, False] for word in words)


def test_census_eta_trend(net_d):
    grazing = []
    max_period = []
    for eta in (1e-2, 1e-3, 1e-4):
        rep = cycle_census(net_d, 300, seed=7, eta=eta)
        grazing.append(rep.grazing_fraction)
        max_period.append(max((e.cycle.period for e in rep.entries), default=0))
    assert grazing[0] >= grazing[1] >= grazing[2]
    assert max_period[0] <= max_period[1] <= max_period[2]


def test_census_mixed_network_partitions(net_death):
    rep = cycle_census(net_death, 400, seed=9, eta=1e-5)
    assert rep.synchronized_fraction > 0.0
    assert len(rep.entries) >= 1
    for entry in rep.entries:
        assert certify_cycle(net_death, entry.cycle)


def test_census_net_c_all_synchronize(net_c):
    # the excitatory neuron's inhibition-driven equilibrium sits above the
    # inhibitory pair's cycle, so it always overtakes and fires
    for seed in (3, 4):
        rep = cycle_census(net_c, 300, seed=seed, eta=1e-5)
        assert rep.entries == []
        assert rep.synchronized_fraction + rep.grazing_fraction == pytest.approx(1.0)
        assert rep.synchronized_fraction > 0.95


# ---------------------------------------------------------------- fate dichotomy


def test_detect_cycle_death_branch(net_death):
    fate = detect_cycle(net_death, [-0.8, 0.4, 0.2])
    assert fate.outcome == "cycle"
    assert fate.excitatory_death is True
    assert all(p.startswith("inhib:") for p in fate.cycle.itinerary)


def test_detect_cycle_sync_branch(net_death):
    fate = detect_cycle(net_death, [0.4, 0.0, 0.2])
    assert fate.outcome == "synchronized"
    assert fate.excitatory_death is False


def test_detect_cycle_reads_excitatory_firing_from_an_uncertified_cycle(net_a):
    # the anti-phase cycle of an all-excitatory network is uncertified, and each
    # of its points fires an excitatory neuron: no death
    fate = detect_cycle(net_a, [0.9, 0.0])
    assert fate.outcome == "cycle" and not fate.cycle.certified
    assert step_batch(net_a, fate.cycle.points)[1].any(axis=1).all()
    assert fate.excitatory_death is False and fate.cycle.itinerary == ("J:1", "J:2")


def test_detect_cycle_excitatory_record(net_death):
    # last_excitatory_spike and excitatory_death against a plain return_map loop
    excit = set(net_death.excitatory)
    starts = [[-0.8, 0.4, 0.2], [0.4, 0.0, 0.2], *cycles._census_starts(net_death, 30, seed=2)]
    outcomes = set()
    for v0 in starts:
        fate = detect_cycle(net_death, v0)
        outcomes.add(fate.outcome)
        # every outcome but synchronization also steps the state it stops at
        steps = fate.transient_steps + (fate.outcome != "synchronized")
        v, last = np.asarray(v0, np.float64), None
        for k in range(steps):
            st = return_map(net_death, v)
            if excit & set(st.fired.tolist()):
                last = k
            v = st.state
        assert fate.last_excitatory_spike == last
        if fate.outcome == "cycle":
            fired = set()
            for pt in fate.cycle.points:
                fired.update(return_map(net_death, pt).fired.tolist())
            assert fate.excitatory_death == (not fired & excit)
    assert outcomes == {"synchronized", "cycle"}


def test_report_sets_the_dichotomy_as_python_values():
    # every outcome of a mixed8 batch: death and last spike are Python values, None where the rule says.
    # eta 0.02371 lies 2e-6 below the least margin of mixed8's cycle, so its retirement balls are that
    # small, and rows still outside them at return 9 stay unresolved
    params = mixed8()
    table = cycles._fates(params, cycles._census_starts(params, 40, seed=4), 9, 0.02371)
    fates = [table.report(r) for r in range(40)]
    assert {f.outcome for f in fates} == {"synchronized", "cycle", "grazing", "unresolved"}
    for f, last in zip(fates, table.last_exc.tolist()):
        want = {"synchronized": False, "cycle": True}.get(f.outcome)  # no excitatory neuron fires on a certified cycle
        assert f.excitatory_death is want and (f.cycle is None or f.cycle.certified)
        assert f.last_excitatory_spike == (last if last >= 0 else None)
        assert type(f.last_excitatory_spike) in (int, type(None))


def test_detect_cycle_raises_the_error_of_its_solve(net_d, monkeypatch):
    def fail(params, seq, p, eta, contraction):
        raise NumericalStall("no certificate")

    monkeypatch.setattr(cycles, "_certified_cycle", fail)
    with pytest.raises(NumericalStall, match="no certificate"):
        detect_cycle(net_d, [0.6, 0.0])


def test_fate_dichotomy_over_samples(net_death):
    rng = rng_stream(123, 0)
    dc = net_death.constants
    for v0 in sample_on_section(rng, 3, net_death.alpha, dc.c_bar, 100):
        fate = detect_cycle(net_death, v0)
        if fate.outcome == "synchronized":
            assert fate.excitatory_death is False
        elif fate.outcome == "cycle":
            assert fate.excitatory_death is True


# ---------------------------------------------------------------- synchronization


def test_sync_test_nine_neurons(net_sync9):
    rep = sync_test(net_sync9, 2000, seed=13)
    assert rep.ok
    assert rep.bound_p == 3
    assert rep.max_returns <= 3
    assert rep.max_time <= rep.bound_t_trans


def test_sync_test_rejects_small_network(net_a):
    with pytest.raises(HypothesisViolated):
        sync_test(net_a, 10, seed=1)  # ceil(1/0.5)^2 = 4 > 2


def test_sync_test_rejects_inhibitory(net_c):
    with pytest.raises(HypothesisViolated):
        sync_test(net_c, 10, seed=1)


def test_sync_zero_vector_one_return(net_sync9):
    from ifnet._kernels import sync_run

    steps, _ = sync_run(net_sync9, np.zeros(9), 3)
    assert steps == 1


# ---------------------------------------------------------------- structural properties


def test_discontinuity_jump_at_inhibitory_tie(net_c):
    # mu = min(|alpha|, min |H + theta|) = 0.4 for this network
    v = np.array([0.0, 0.3, 0.3])
    base = return_map(net_c, v).state
    jumps = []
    for delta in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
        u = np.array([0.0, 0.3 + delta, 0.3])
        jumps.append(float(np.max(np.abs(return_map(net_c, u).state - base))))
    assert jumps[-1] >= 0.4 - 1e-6
    assert all(j >= 0.4 - 1e-2 for j in jumps)


def test_atom_diameter_law(net_c):
    # distance after k common-itinerary steps <= lambda^{k-1} diam + 1e-9
    lam = lambda_for_zone(net_c, 0.4)
    diam = 0.4 - net_c.alpha
    rng = rng_stream(17, 0)
    for _ in range(200):
        V = sample_on_section(rng, 3, net_c.alpha, 0.4, 2)
        v, w = V[0], V[1].copy()
        w[np.argmax(v == 0.0)] = 0.0
        dists, n_common = track_pair(net_c, v, w, 8)
        for k, d in enumerate(dists[1:n_common + 1], 1):  # the table ends at the last return stepped
            assert d <= lam ** (k - 1) * diam + 1e-9


def test_stable_window_margin_persists(net_d):
    # once inside the Banach ball of the cycle, margins never drop below
    # the cycle's own minimum margin minus the ball radius
    fate = detect_cycle(net_d, [0.6, 0.0])
    cyc = fate.cycle
    ball = cyc.certificate.ball_radius
    states, _, _ = run_orbit(net_d, cyc.points[0] + np.array([0.0, ball / 2]), 50)
    for state in states:
        dist_to_cycle = min(float(np.max(np.abs(state - p))) for p in cyc.points)
        if dist_to_cycle < ball:
            assert pieces_and_margins(net_d, state)[1][0] >= cyc.min_margin - ball
