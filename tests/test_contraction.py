import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ifnet import (
    HypothesisViolated,
    NoFixedPoint,
    PreconditionFailed,
    absorption_check,
    adapted_distance,
    check_O_conditions,
    estimate_lipschitz_c,
    expansion_witness,
    jvac_check,
    lambda_for_zone,
    load_config,
    network,
    o_pairs,
    repeller,
    return_map,
    verify_contraction,
)
from ifnet import contraction
from ifnet._sampling import rng_stream, sample_on_section
from ifnet.contraction import MetricCheck, MetricEstimate, adapted_metric_check
from ifnet.dynamics import as_state
from ifnet.params import NetworkParams

# Frozen two-route oracle for the repeller of the coupling-0.2 pair
# (g-composition fixed point vs the closed-form anti-phase seed).
NET_B_XSTAR = 0.8
NET_B_BRACKET = (0.71010205144336438036, 0.85212246173203725643)
NET_B_MULTIPLIER = 2.25
MIXED8 = Path(__file__).resolve().parent / "golden" / "mixed8.json"


def exc3():
    """Three all-to-all excitatory neurons, coupling 0.6: H3 and H4 hold, but no neuron is inhibitory."""
    H = np.full((3, 3), 0.6)
    np.fill_diagonal(H, 0.0)
    return network(3, 1.0, 1.2, 1.0, -1.0, H)


def gamma_state(n, i, x):
    v = np.zeros(n)
    v[i] = x
    return v


# ---------------------------------------------------------------- zones


def test_lambda_zone_values(net_c):
    dc = net_c.constants
    assert lambda_for_zone(net_c, 0.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert lambda_for_zone(net_c, dc.c_bar) == pytest.approx(1.0, rel=1e-12)
    assert lambda_for_zone(net_c, 0.4) == pytest.approx(0.9375, rel=1e-14)


@pytest.mark.parametrize("c", [-0.1, 1.5])
def test_lambda_zone_rejects_a_level_outside_0_theta(net_c, c):
    with pytest.raises(PreconditionFailed, match=r"zone level must lie in \[0, theta\]"):
        lambda_for_zone(net_c, c)


def test_contraction_zone_c0(net_c):
    rep = verify_contraction(net_c, 0.0, 2000, seed=11)
    assert rep.lambda_c == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert not rep.violations
    assert rep.max_ratio <= rep.lambda_c + 1e-9


def test_contraction_zone_inner_level(net_c):
    rep = verify_contraction(net_c, 0.3, 2000, seed=12)
    assert not rep.violations
    assert rep.max_ratio <= rep.lambda_c + 1e-9


def test_contraction_rejects_level_at_or_above_c_bar(net_c):
    dc = net_c.constants
    with pytest.raises(PreconditionFailed):
        verify_contraction(net_c, dc.c_bar, 100, seed=1)


def test_contraction_names_an_empty_zone_before_the_level(net_c):
    # beta 2.0 is past beta_plus, so c_bar < 0 and no level c >= 0 lies below it:
    # the empty C_{c_bar} is the hypothesis that fails, whatever level is asked
    params = network(3, 1.0, 2.0, 1.0, -1.0, net_c.H)
    assert params.constants.c_bar < 0
    with pytest.raises(HypothesisViolated, match=r"C_\{c_bar\} is empty"):
        verify_contraction(params, 0.0, 100, seed=1)


@pytest.mark.parametrize("samples", [0, -1])
def test_contraction_rejects_fewer_than_one_sample(net_c, samples):
    # no pair drawn is no evidence: an empty report would pass with no violations
    with pytest.raises(PreconditionFailed, match="sample_count"):
        verify_contraction(net_c, 0.0, samples, seed=1)


def test_contraction_quarter_level_bulk(net_c):
    dc = net_c.constants
    rep = verify_contraction(net_c, dc.c_bar / 4, 100_000, seed=13)
    assert not rep.violations
    assert rep.max_ratio <= rep.lambda_c + 1e-9


def test_contraction_insufficient_samples():
    # 12 inhibitory neurons give 12 equally likely atoms, so independent
    # draws land in a common one less than 10% of the time: about 1600 of
    # the 2000 pairs asked for within the 20 000-draw budget
    from ifnet import InsufficientSamples

    n = 12
    H = np.full((n, n), -0.7)
    np.fill_diagonal(H, 0.0)
    p = network(n, 1.0, 1.2, 1.0, -1.0, H)
    with pytest.raises(InsufficientSamples):
        verify_contraction(p, 0.2, 2000, seed=3)


# ---------------------------------------------------------------- expansion


def test_expansion_witness_fixture(net_b):
    v = gamma_state(2, 0, 0.75)
    w = gamma_state(2, 0, 0.80)
    wit = expansion_witness(net_b, 0, v, w)
    # images are g(0.75) = 13/15 and g(0.80) = 0.8 with g(x) = 1.4 - 0.24/(1.2-x)
    assert wit.ratio == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert wit.lower_bound == pytest.approx(0.24 / (0.45 * 0.40), rel=1e-14)
    assert wit.expanded


def test_expansion_ratio_meets_lower_bound(net_b):
    rng = np.random.default_rng(5)
    dc = net_b.constants
    for _ in range(200):
        a, b = rng.uniform(dc.c_star + 1e-9, net_b.theta - 1e-9, 2)
        if a == b:
            continue
        wit = expansion_witness(net_b, 0, gamma_state(2, 0, a), gamma_state(2, 0, b))
        assert wit.ratio >= wit.lower_bound - 1e-10
        assert wit.ratio > 1.0


def test_expansion_witness_rejections(net_b):
    v = gamma_state(2, 0, 0.75)
    with pytest.raises(PreconditionFailed):
        expansion_witness(net_b, 0, v, v)  # degenerate pair
    with pytest.raises(PreconditionFailed):
        expansion_witness(net_b, 0, gamma_state(2, 0, 0.5), v)  # below c_star
    with pytest.raises(PreconditionFailed):
        expansion_witness(net_b, 0, np.array([0.75, 0.1]), v)  # off the ray


# The per-pair witness as it stood before `expansion_witness` took batches: two
# `return_map` calls and a loop over the coordinates.  The batch version must
# give each pair what this gives it, bit for bit, and the same message when
# this raises.


def _reference_gamma_coordinate(params: NetworkParams, v: np.ndarray, i: int) -> float:
    dc = params.constants
    arr = as_state(params, v)
    for k in range(params.n):
        if k != i and arr[k] != 0.0:
            raise PreconditionFailed(f"state is not on Gamma_{i}: coordinate {k} nonzero")
    if not (dc.c_star < arr[i] < params.theta):
        raise PreconditionFailed(
            f"coordinate {i} must lie in (c_star, theta) = ({dc.c_star}, {params.theta})"
        )
    return float(arr[i])


@dataclass(frozen=True)
class _ReferenceWitness:
    ratios: np.ndarray   # per-coordinate stretch for non-fired, non-clamped k
    ratio: float         # the smallest of them
    expanded: bool       # all ratios > 1
    lower_bound: float   # beta(beta-theta)/((beta-v_i)(beta-w_i))


def reference_witness(params: NetworkParams, i: int, v, w) -> _ReferenceWitness:
    """Measured stretch of the return map between two Gamma_i states.

    Both states must share their firing set, and coordinates clamped at alpha
    are excluded from the comparison (the expansion statement assumes images
    above the floor).
    """
    vi = _reference_gamma_coordinate(params, v, i)
    wi = _reference_gamma_coordinate(params, w, i)
    if vi == wi:
        raise PreconditionFailed("degenerate pair: identical Gamma_i coordinates")
    sv = return_map(params, v)
    sw = return_map(params, w)
    if not np.array_equal(sv.fired, sw.fired):
        raise PreconditionFailed("states fall in different atoms (firing sets differ)")
    beta, theta, alpha = params.beta, params.theta, params.alpha
    ratios = []
    for k in range(params.n):
        if k in sv.fired:
            continue
        if sv.state[k] == alpha or sw.state[k] == alpha:
            continue  # floor clamp active; excluded from the expansion claim
        ratios.append(abs(sv.state[k] - sw.state[k]) / abs(vi - wi))
    if not ratios:
        raise PreconditionFailed("no unclamped non-firing coordinate to compare")
    ratios = np.array(ratios)
    bound = beta * (beta - theta) / ((beta - vi) * (beta - wi))
    return _ReferenceWitness(
        ratios=ratios, ratio=float(ratios.min()),
        expanded=bool(np.all(ratios > 1.0)), lower_bound=bound,
    )


def _bits(x):
    return np.float64(x).tobytes()


def check_witness_batch(params, i, V, W) -> list:
    """Hold the batch witness of (V, W), and each pair's one-pair witness, to
    reference_witness; returns each pair's message, "" for a compared pair."""
    wit = expansion_witness(params, i, V, W)
    assert wit.ratio.shape == wit.expanded.shape == wit.lower_bound.shape == wit.error.shape == V.shape[:-1]
    for r in range(V.shape[0]):
        try:
            want = reference_witness(params, i, V[r], W[r])
        except PreconditionFailed as exc:
            assert wit.error[r] == str(exc), r
            assert math.isnan(wit.ratio[r]) and math.isnan(wit.lower_bound[r]) and not wit.expanded[r]
            with pytest.raises(PreconditionFailed) as one:
                expansion_witness(params, i, V[r], W[r])
            assert str(one.value) == str(exc)
            continue
        assert wit.error[r] == "", r
        one = expansion_witness(params, i, V[r], W[r])
        assert (type(one.ratio), type(one.expanded), type(one.lower_bound)) == (float, bool, float)
        for got in (wit.ratio[r], one.ratio):
            assert _bits(got) == _bits(want.ratio), r
        for got in (wit.lower_bound[r], one.lower_bound):
            assert _bits(got) == _bits(want.lower_bound), r
        assert wit.expanded[r] == one.expanded == want.expanded, r
    return wit.error.tolist()


WITNESS_NETWORKS = {
    "net_b": [[0.0, 0.2], [0.2, 0.0]],
    "net_o3": [[0.0, 0.2, 1.5], [0.2, 0.0, 1.5], [-0.1, -0.1, 0.0]],
    # neuron 1 recruits neuron 2 for v_1 up to 0.9 only: pairs across 0.9 differ in atoms
    "atoms": [[0.0, 0.6], [0.2, 0.0]],
    # neuron 1's spikes floor every neuron that does not fire
    "floored": [[0.0, -2.5, -2.5], [0.3, 0.0, 0.3], [0.3, 0.3, 0.0]],
    # neuron 1's spike floors neuron 2 for v_1 from 0.9 on: neuron 3 is compared alone
    "half_floored": [[0.0, -1.4, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
}


def test_witness_batch_gives_each_rejection_as_the_reference_raises_it():
    p = network(2, 1.0, 1.2, 1.0, -1.0, WITNESS_NETWORKS["atoms"])
    rows = [(0.92, 0.95), (0.8, 0.8), (0.85, 0.95), (0.75, 0.8), (0.5, 0.8), (0.8, 1.0), (0.8, math.nan),
            (0.8, 1.5)]
    V, W = (np.array([[x, 0.0] for x in side]) for side in zip(*rows))
    W[1, 1], V[2, 1] = 0.1, -0.0  # off the ray, and on it at -0.0
    errors = check_witness_batch(p, 0, V, W)
    assert errors[:4] == ["", "state is not on Gamma_0: coordinate 1 nonzero",
                          "states fall in different atoms (firing sets differ)",
                          "no unclamped non-firing coordinate to compare"]  # both neurons fire
    assert errors[4].startswith("coordinate 0 must lie in") and errors[5].startswith("coordinate 0 must lie in")
    assert errors[6:] == ["state contains non-finite entries", "state has a coordinate above threshold"]
    W[1, 1] = 0.0
    assert check_witness_batch(p, 0, V[1:2], W[1:2]) == ["degenerate pair: identical Gamma_i coordinates"]
    p = network(3, 1.0, 1.2, 1.0, -1.0, WITNESS_NETWORKS["floored"])
    V, W = np.zeros((2, 3)), np.zeros((2, 3))
    V[:, 0], W[:, 0] = [0.75, 0.8], [0.8, 0.9]
    assert check_witness_batch(p, 0, V, W) == ["no unclamped non-firing coordinate to compare"] * 2
    p = network(3, 1.0, 1.2, 1.0, -1.0, WITNESS_NETWORKS["half_floored"])
    V[:, 0], W[:, 0] = [0.85, 0.95], [0.95, 0.85]  # one image of each pair floors coordinate 2
    assert check_witness_batch(p, 0, V, W) == ["", ""]
    p = network(2, 1.0, 1.2, 1.0, -1.0, [[0.0, 0.6], [0.0, 0.0]])
    V, W = np.array([[0.85, 0.0]]), np.array([[0.95, 0.0]])  # different atoms, and no coordinate left
    assert check_witness_batch(p, 0, V, W) == ["states fall in different atoms (firing sets differ)"]


@st.composite
def witness_cases(draw):
    """A network (one of WITNESS_NETWORKS or a random one, n = 2 to 4), a ray
    index and up to 8 pairs: on the ray in (c_star, theta), at its ends or off
    it, degenerate, or with a non-finite or out-of-range coordinate."""
    random_H = st.integers(2, 4).flatmap(lambda n: st.lists(
        st.lists(st.floats(-2.5, 1.6).map(lambda x: round(x, 2)), min_size=n, max_size=n),
        min_size=n, max_size=n))  # rounded: a subnormal jump gives p0 = inf, which `network` rejects
    H = draw(st.sampled_from(sorted(WITNESS_NETWORKS)).map(WITNESS_NETWORKS.get) | random_H)
    p = network(len(H), 1.0, 1.2, 1.0, -1.0, H)
    i = draw(st.integers(0, p.n - 1))
    lo, hi = p.constants.c_star, p.theta
    inside = st.floats(lo, hi, exclude_min=True, exclude_max=True)
    coordinate = inside | inside | st.sampled_from([lo, hi, 0.0, 0.5, -1.0, 1.5, math.nan, math.inf])
    m = draw(st.integers(1, 8))
    V, W = np.zeros((m, p.n)), np.zeros((m, p.n))
    for r in range(m):
        V[r, i] = draw(coordinate)
        W[r, i] = draw(coordinate | st.just(V[r, i]))
        if draw(st.integers(0, 4)) == 0:  # move one coordinate of one state, maybe off the ray
            side = draw(st.sampled_from([V, W]))
            side[r, draw(st.integers(0, p.n - 1))] = draw(st.sampled_from([-0.0, 0.1, -0.3, 1.5, math.nan]))
    return p, i, V, W


@settings(max_examples=150, deadline=None)
@given(case=witness_cases())
def test_witness_batch_matches_the_per_pair_reference(case):
    p, i, V, W = case
    for error in check_witness_batch(p, i, V, W):
        event(error.split(" = ")[0] or "compared")


# ---------------------------------------------------------------- O conditions & repeller


def test_expansion_witness_rejects_a_state_of_the_wrong_length(net_c):
    with pytest.raises(PreconditionFailed, match=r"state must have length 3, got \(2,\)"):
        expansion_witness(net_c, 2, [0.0, 0.8], [0.0, 0.9])


def test_o_conditions_reject_a_pair_of_one_neuron(net_c):
    with pytest.raises(PreconditionFailed, match="repeller pair needs two distinct neurons"):
        check_O_conditions(net_c, 1, 1)


def test_o_conditions_net_b(net_b):
    assert check_O_conditions(net_b, 0, 1) == (True, True, True)


def test_o_conditions_net_a(net_a):
    o1, o2, o3 = check_O_conditions(net_a, 0, 1)
    assert not o1  # 0.5 > theta - c_star ~ 0.2899
    assert o2 and o3


def per_pair_o_conditions(params, i, j):
    """(O1)-(O3) for one pair, as check_O_conditions once computed them pair by pair."""
    H, n = params.H, params.n
    gap = params.theta - params.constants.c_star
    o1 = o3 = True
    for s in (i, j):
        col = np.delete(H[:, s], s)
        o1 = o1 and float(col[col > 0].sum()) < gap
        o3 = o3 and float(col.sum()) > 0
    o2 = all(H[s, k] > params.theta for s in (i, j) for k in range(n) if k not in (i, j))
    return bool(o1), bool(o2), bool(o3)


@st.composite
def o_networks(draw):
    """Networks of 2 to 40 neurons, up to three of them "strong": a strong neuron
    sends a jump above theta (or exactly theta, now and then) to each neuron but the
    other strong ones, which get small jumps from every neuron.  Entries come from
    a pool of edge values (0, -0, theta, the O1 gap and their neighbours) or uniformly."""
    n = draw(st.integers(2, 40))
    beta = draw(st.floats(1.01, 3.0))
    gap = 1.0 - network(n, 1.0, beta, 1.0, -1.0, np.zeros((n, n))).constants.c_star
    pool = np.array([0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), gap, math.nextafter(gap, 0.0),
                     gap / 2, gap / (n - 1) if n > 2 else gap, -gap, 0.5, -0.5, 2.0])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from([0.0, 0.3, 0.8]))  # of entries from the pool
    H = np.where(rng.random((n, n)) < share, rng.choice(pool, (n, n)), rng.uniform(-1.0, 2.0, (n, n)))
    strong = rng.choice(n, min(n, draw(st.sampled_from([0, 1, 2, 2, 2, 3]))), replace=False)
    at_theta = draw(st.sampled_from([0.0, 0.01, 0.3]))  # share of strong jumps of exactly theta
    H[strong] = np.where(rng.random((len(strong), n)) < at_theta, 1.0,
                         rng.uniform(math.nextafter(1.0, 2.0), 2.0, (len(strong), n)))
    small = [0.0, -0.0, gap / (2 * n), math.nextafter(gap, 0.0), -gap]
    H[:, strong] = rng.choice(small, (n, len(strong)), p=[0.1, 0.1, 0.74, 0.03, 0.03])
    return network(n, 1.0, beta, 1.0, -1.0, H)


@settings(max_examples=60, deadline=None)
@given(p=o_networks())
def test_o_conditions_of_all_pairs_equal_the_per_pair_formulas(p):
    pairs = [(i, j) for i in range(p.n) for j in range(i + 1, p.n)]
    want = {pair: per_pair_o_conditions(p, *pair) for pair in pairs}
    for (i, j), conds in want.items():
        assert check_O_conditions(p, i, j) == conds
        assert check_O_conditions(p, j, i) == conds
        assert tuple(p.o_conditions[:, i, j].tolist()) == conds
    assert o_pairs(p) == [pair for pair in pairs if all(want[pair])]
    assert not p.o_conditions[:, range(p.n), range(p.n)].any()
    assert not p.o_conditions.flags.writeable
    event(f"O pairs: {'some' if o_pairs(p) else 'none'}")
    if p.n == 2:
        assert check_O_conditions(p, 0, 1)[1] is True  # (O2) is vacuous


def test_o2_fails_with_weak_third_party():
    H = [[0.0, 0.2, 0.9],
         [0.2, 0.0, 0.9],
         [0.1, 0.1, 0.0]]
    p = network(3, 1.0, 1.2, 1.0, -1.0, H)
    assert check_O_conditions(p, 0, 1)[1] is False  # 0.9 < theta


def test_repeller_two_routes_agree(net_b):
    rep = repeller(net_b, 0, 1)
    assert rep.fixed_point == pytest.approx(NET_B_XSTAR, abs=1e-12)
    assert rep.interval[0] == pytest.approx(NET_B_BRACKET[0], abs=1e-12)
    assert rep.interval[1] == pytest.approx(NET_B_BRACKET[1], abs=1e-12)
    assert rep.multiplier == pytest.approx(NET_B_MULTIPLIER, abs=1e-9)
    assert rep.multiplier > 1.0
    # closed-form route: beta - x with x from the anti-phase formula
    H = 0.2
    x = 0.5 * (math.sqrt(H * H + 4 * 1.2 * 0.2) - H)
    assert rep.fixed_point == pytest.approx(1.2 - x, abs=1e-10)


def test_repeller_requires_conditions(net_a):
    with pytest.raises(PreconditionFailed):
        repeller(net_a, 0, 1)


@pytest.mark.parametrize("h", [0.05, 0.1, 0.15, 0.2, 0.25])
def test_repeller_closed_form_family(h):
    # bisection on the g-composition must agree with the anti-phase seed
    p = network(2, 1.0, 1.2, 1.0, -1.0, [[0.0, h], [h, 0.0]])
    rep = repeller(p, 0, 1)
    x = 0.5 * (math.sqrt(h * h + 4 * 1.2 * 0.2) - h)
    assert rep.fixed_point == pytest.approx(1.2 - x, abs=1e-10)
    assert rep.multiplier > 1.0


def test_repeller_two_step_state_expansion(net_b):
    # near the seed, two return-map steps expand the Gamma coordinate
    rep = repeller(net_b, 0, 1)
    x = rep.fixed_point
    for d in (1e-3, 1e-5):
        a, b = x - d, x + d
        ra = return_map(net_b, return_map(net_b, gamma_state(2, 0, a)).state).state
        rb = return_map(net_b, return_map(net_b, gamma_state(2, 0, b)).state).state
        assert abs(ra[0] - rb[0]) > abs(a - b)
        assert np.max(np.abs(ra - rb)) > abs(a - b)


def test_repeller_reports_an_empty_bracket(net_b, monkeypatch):
    # an inverse that maps everything to theta closes the bracket (c_star, theta) to nothing
    transfer = contraction._transfer
    monkeypatch.setattr(contraction, "_transfer",
                        lambda params, k: transfer(params, k)[:2] + (lambda y: params.theta,))
    with pytest.raises(NoFixedPoint, match="empty admissible bracket"):
        repeller(net_b, 0, 1)


@pytest.mark.parametrize("end", ["a", "b", "mid"])
def test_repeller_takes_an_exact_zero_of_the_two_step_map(net_b, monkeypatch, end):
    # g_i(g_j(x)) - x is exactly 0 at a bracket end, or at the first bisection midpoint:
    # that point is the fixed point, with no further bisection
    a, b = repeller(net_b, 0, 1).interval
    zero = {"a": a, "b": b, "mid": 0.5 * (a + b)}[end]
    g_i = (lambda x: x) if end == "a" else (lambda x: zero)
    transfer = contraction._transfer  # neuron k's derivative and inverse stay the real ones
    monkeypatch.setattr(contraction, "_transfer",
                        lambda params, k: (g_i if k == 0 else (lambda x: x),) + transfer(params, k)[1:])
    rep = repeller(net_b, 0, 1)
    assert rep.interval == (a, b) and rep.fixed_point == zero


def test_estimate_lipschitz_needs_a_contracting_zone(net_c, monkeypatch):
    monkeypatch.setattr(contraction, "lambda_for_zone", lambda params, c: 1.0)
    with pytest.raises(PreconditionFailed, match="contraction factor of the absorbed zone is not below 1"):
        estimate_lipschitz_c(net_c, 100, seed=1)


def test_estimate_lipschitz_reports_too_few_same_itinerary_pairs(net_c, monkeypatch):
    from ifnet import InsufficientSamples

    monkeypatch.setattr(contraction, "_same_itinerary_pairs", lambda *args: (None, None, np.zeros((9, 3)), 7000))
    with pytest.raises(InsufficientSamples, match="only 9 same-itinerary pairs out of 7000 draws"):
        estimate_lipschitz_c(net_c, 100, seed=1)


# ---------------------------------------------------------------- absorption & jvac


def test_absorption_net_c(net_c):
    rep = absorption_check(net_c, 2000, seed=21)
    assert rep.ok
    assert rep.bound_p0_plus_1 == 5
    assert rep.max_steps_outside <= 5
    assert rep.post_entry_bound == pytest.approx(0.4, abs=1e-15)


@pytest.mark.parametrize("samples", [0, -1])
def test_absorption_rejects_fewer_than_one_sample(net_c, samples):
    # no start drawn is no evidence: an empty run would report ok with 0 steps outside
    with pytest.raises(PreconditionFailed, match="sample_count"):
        absorption_check(net_c, samples, seed=1)


def test_absorption_requires_inhibitory(net_sync9):
    with pytest.raises(HypothesisViolated):
        absorption_check(net_sync9, 100, seed=1)


@pytest.mark.parametrize("check", [
    lambda p: absorption_check(p, 100, seed=1),
    lambda p: jvac_check(p, [0.4, 0.0, 0.2]),
    lambda p: estimate_lipschitz_c(p, 100, seed=1),
], ids=["absorption", "jvac", "lipschitz"])
def test_h3_and_h4_without_an_inhibitory_neuron_are_refused(check):
    params = exc3()
    rep = params.hypotheses
    assert rep.h3 and rep.h4 and not rep.certifiable
    with pytest.raises(HypothesisViolated, match=r"\(h3=True, h4=True, 0 inhibitory\)"):
        check(params)


def test_jvac_excitatory_spontaneous_fires_all(net_c):
    assert jvac_check(net_c, [0.4, 0.0, 0.2])


def test_jvac_vacuous_for_inhibitory_firer(net_c):
    assert jvac_check(net_c, [0.0, 0.4, 0.2])


def test_jvac_outside_zone_rejected(net_c):
    with pytest.raises(PreconditionFailed):
        jvac_check(net_c, [0.9, 0.0, 0.2])


def test_inhibitory_image_lands_in_after_zone(net_c):
    # image of an inhibitory-only firing keeps coordinates <= theta - min|H| = 0.4
    st = return_map(net_c, [0.0, 0.4, 0.2])
    assert np.max(st.state) <= 0.4 + 1e-12


# ---------------------------------------------------------------- adapted metric


def test_adapted_distance_reduces_to_sup_norm(net_c):
    v = np.array([0.0, 0.4, 0.2])
    w = np.array([0.0, 0.38, 0.21])
    assert adapted_distance(net_c, v, w, 1, 0.9) == pytest.approx(0.02, abs=1e-15)
    assert adapted_distance(net_c, v, v, 3, 0.9) == 0.0


def test_adapted_distance_validates_arguments(net_c):
    with pytest.raises(PreconditionFailed):
        adapted_distance(net_c, np.zeros(3), np.zeros(3), 0, 0.9)
    with pytest.raises(PreconditionFailed):
        adapted_distance(net_c, np.zeros(3), np.zeros(3), 2, 1.5)


def test_estimate_lipschitz_and_metric_contraction(net_c):
    est = estimate_lipschitz_c(net_c, 400, seed=31)
    assert 0.0 < est.lam < 1.0
    assert est.lam < est.mu_tilde < 1.0
    assert est.n0 >= 1
    assert est.c_hat * (est.lam / est.mu_tilde) ** est.n0 < 1.0


def test_adapted_metric_check_rejects_zero_pairs(net_c):
    est = MetricEstimate(c_hat=2.0, n0=2, mu_tilde=0.9, lam=0.5, pairs=1)
    with pytest.raises(PreconditionFailed, match="the adapted-metric check needs at least one pair"):
        adapted_metric_check(net_c, est, 0, 1)


@pytest.mark.parametrize("case", ["drawn", "return-0-only", "no-pairs", "none-qualify"])
def test_adapted_metric_check_equals_its_sums_over_every_return(net_c, monkeypatch, case):
    # the check sums its table only up to the last return track_pair stepped; its ratio
    # must be the bits of the sums over all n0 + 1 returns: on net_c's own draws (few
    # nonzero returns), on pairs that merge after return 0, on a draw that keeps no pair,
    # and on draws of one state twice, whose tables end at return 0
    est = estimate_lipschitz_c(net_c, 100, seed=8)
    pairs, sums, got, rows = contraction._same_itinerary_pairs, contraction._weighted_sum, [], []
    if case == "none-qualify":
        monkeypatch.setattr(contraction, "_perturbed_pairs", lambda rng, params, count: (np.zeros((count, 3)),) * 2)

    def kept_pairs(*args):
        V, W, dists, attempts = pairs(*args)
        if case == "return-0-only":
            dists[:, 1:] = 0.0
        elif case == "no-pairs":
            V, W, dists = V[:0], W[:0], dists[:0]
        got.append(dists)
        return V, W, dists, attempts

    monkeypatch.setattr(contraction, "_same_itinerary_pairs", kept_pairs)
    monkeypatch.setattr(contraction, "_weighted_sum", lambda d, mu: rows.append(len(d)) or sums(d, mu))
    check = adapted_metric_check(net_c, est, 100, seed=9)
    (dists,) = got
    d0, d1 = sums(dists.T[:est.n0], est.mu_tilde), sums(dists.T[1:est.n0 + 1], est.mu_tilde)
    pos = d0 > 0
    assert check.pairs_checked == len(dists) and check.max_d_ratio == float((d1[pos] / d0[pos]).max(initial=0.0))
    assert est.n0 > 20 and sum(rows) < est.n0, rows
    if case in ("no-pairs", "none-qualify"):
        assert check == MetricCheck(pairs_checked=0, max_d_ratio=0.0, ok=True)


def test_estimate_lipschitz_requires_hypotheses(net_sync9):
    with pytest.raises(HypothesisViolated):
        estimate_lipschitz_c(net_sync9, 100, seed=1)


# ---------------------------------------------------------------- same-itinerary pair draws


def one_batch_per_call(params, draw, k_max, common, need, budget):
    """The reference pair loop: one drawn batch per track_pair call, each call's
    distances padded with zeros to the widest call's."""
    kept = [(np.empty((0, params.n)), np.empty((0, params.n)), np.empty((0, 0)))]
    used = attempts = 0
    while used < need and attempts < budget:
        V, W = draw()
        dists, n_common = contraction._kernels.track_pair(params, V, W, k_max)
        idx = np.flatnonzero((dists[:, 0] != 0.0) & (n_common >= common))[:need - used]
        used += idx.size
        attempts += int(idx[-1]) + 1 if used == need else V.shape[0]
        kept.append((V[idx], W[idx], dists[idx]))
    width = max(d.shape[1] for _, _, d in kept)
    kept = [(V, W, np.pad(d, ((0, 0), (0, width - d.shape[1])))) for V, W, d in kept]
    V, W, dists = (np.concatenate(x) for x in zip(*kept))
    return V, W, dists, attempts


def perturbed_draw(params, batch, seed):
    """A maker of fresh draws of `batch` perturbed pairs from stream (seed, 0), as the metric checks draw."""
    def make():
        rng = rng_stream(seed, 0)
        return lambda: contraction._perturbed_pairs(rng, params, batch)
    return make


def zone_draw(params, c, batch, seed, same=False):
    """A maker of fresh draws of `batch` pairs inside C_c, as verify_contraction draws;
    with `same`, each pair is one state twice, which no loop keeps."""
    def make():
        rng = rng_stream(seed, 0)

        def draw():
            V = sample_on_section(rng, params.n, params.alpha, c, batch)
            return V, V.copy() if same else sample_on_section(rng, params.n, params.alpha, c, batch)
        return draw
    return make


def assert_draw_ahead_exact(params, make_draw, k_max, common, need, budget):
    """The pair loop and the reference loop, each on a fresh draw, keep the same pairs
    with the same bytes and count the same attempts; returns the pair loop's result
    and the rows each loop drew, batch by batch."""
    rows = ([], [])
    out = []
    for loop, seen in zip((contraction._same_itinerary_pairs, one_batch_per_call), rows):
        draw = make_draw()

        def counted(draw=draw, seen=seen):
            V, W = draw()
            seen.append(len(V))
            return V, W
        out.append(loop(params, counted, k_max, common, need, budget))
    got, want = out
    assert [(a.shape, a.tobytes()) for a in got[:3]] == [(a.shape, a.tobytes()) for a in want[:3]]
    assert got[3] == want[3]
    return got, rows


def test_draw_ahead_keeps_the_lipschitz_pairs(net_c):
    # batch = need = 100, and about 95% of a batch qualifies
    p0 = net_c.constants.p0
    got, _ = assert_draw_ahead_exact(net_c, perturbed_draw(net_c, 100, 2), p0, 1, 100, 2000)
    assert len(got[2]) == 100


def test_draw_ahead_keeps_the_adapted_metric_pairs(net_c):
    n0 = estimate_lipschitz_c(net_c, 100, seed=2).n0
    got, _ = assert_draw_ahead_exact(net_c, perturbed_draw(net_c, 100, 3), n0 + 1, n0 + 1, 100, 5000)
    assert len(got[2]) == 100


@pytest.mark.parametrize("quarter", range(4))
@pytest.mark.parametrize("name", ["net_c", "mixed8"])
def test_draw_ahead_keeps_the_zone_pairs(request, name, quarter):
    # verify_contraction's draws at contract's four levels: about 35% of net_c's pairs
    # qualify, and 12% of mixed8's, whose 300 pairs take several calls
    params = request.getfixturevalue("net_c") if name == "net_c" else load_config(str(MIXED8)).params
    c = quarter * params.constants.c_bar / 4
    got, rows = assert_draw_ahead_exact(params, zone_draw(params, c, 1024, 1), 1, 1, 300, 3000)
    assert len(got[2]) == 300 and len(rows[1]) >= 1 + (name == "mixed8")


def test_draw_ahead_keeps_a_draw_whose_pairs_all_qualify(net_c):
    # distinct states at k_max = 0 all qualify: 5 batches of 7 cover 30 pairs in one call
    got, rows = assert_draw_ahead_exact(net_c, zone_draw(net_c, net_c.theta, 7, 4), 0, 0, 30, 300)
    assert got[3] == 30 and rows == ([7] * 5, [7] * 5)


@pytest.mark.parametrize("need, budget, calls", [(30, 100, [40] + [10] * 6), (100, 30, [30])],
                         ids=["acceptance-0", "budget"])
def test_draw_ahead_stops_at_the_budget_when_no_pair_qualifies(net_c, monkeypatch, need, budget, calls):
    # (30, 100): the first call steps 4 batches of 10, and at acceptance 0 each later
    # call steps one; (100, 30): the budget stops the first call at 3 batches.  Either
    # way both loops draw the same rows, and no more than the budget
    sizes = []
    track_pair = contraction._kernels.track_pair
    monkeypatch.setattr(contraction._kernels, "track_pair", lambda *args: sizes.append(len(args[1])) or track_pair(*args))
    got, rows = assert_draw_ahead_exact(net_c, zone_draw(net_c, 0.5, 10, 6, same=True), 1, 1, need, budget)
    assert len(got[2]) == 0 and got[3] == budget
    assert rows[0] == rows[1] and sum(rows[0]) == budget
    assert sizes == calls + [10] * (budget // 10)  # the pair loop's calls, then the reference's


def test_draw_ahead_keeps_the_insufficient_samples_report(net_c, monkeypatch):
    # every drawn pair is the zero state twice, so none qualifies and the budget runs out
    from ifnet import InsufficientSamples

    monkeypatch.setattr(contraction, "sample_on_section", lambda rng, n, lo, hi, count: np.zeros((count, n)))
    messages = []
    for loop in (contraction._same_itinerary_pairs, one_batch_per_call):
        monkeypatch.setattr(contraction, "_same_itinerary_pairs", loop)
        with pytest.raises(InsufficientSamples) as err:
            verify_contraction(net_c, 0.0, 300, seed=1)
        messages.append(str(err.value))
    assert messages == ["only 0/300 pairs landed in a common atom after 3072 draws"] * 2


def test_metric_checks_step_their_pairs_in_one_track_pair_call(net_c, monkeypatch):
    # contract --samples 300 --seed 1 checks 100 metric pairs drawn from seeds 2 and 3;
    # about 95% of a batch of 100 qualifies, so one batch per call would take two calls
    calls = []
    track_pair = contraction._kernels.track_pair
    monkeypatch.setattr(contraction._kernels, "track_pair", lambda *args: calls.append(len(args[1])) or track_pair(*args))
    est = estimate_lipschitz_c(net_c, 100, seed=2)
    assert calls == [200]
    adapted_metric_check(net_c, est, 100, seed=3)
    assert calls == [200, 200]
