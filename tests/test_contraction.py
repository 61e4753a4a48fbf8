import math

import numpy as np
import pytest

from ifnet import (
    HypothesisViolated,
    NoFixedPoint,
    PreconditionFailed,
    absorption_check,
    adapted_distance,
    check_O_conditions,
    estimate_lipschitz_c,
    expansion_witness,
    in_zone,
    jvac_check,
    lambda_for_zone,
    network,
    repeller,
    return_map,
    verify_contraction,
)

# Frozen two-route oracle for the repeller of the coupling-0.2 pair
# (g-composition fixed point vs the closed-form anti-phase seed).
NET_B_XSTAR = 0.8
NET_B_BRACKET = (0.71010205144336438036, 0.85212246173203725643)
NET_B_MULTIPLIER = 2.25


def gamma_state(n, i, x):
    v = np.zeros(n)
    v[i] = x
    return v


# ---------------------------------------------------------------- zones


def test_in_zone_basics(net_c):
    dc = net_c.constants
    assert in_zone(net_c, np.zeros(3), 0.0)
    assert in_zone(net_c, [0.0, 0.4, 0.2], dc.c_bar)
    assert not in_zone(net_c, [0.0, 0.5, 0.2], dc.c_bar)


def test_lambda_zone_values(net_c):
    dc = net_c.constants
    assert lambda_for_zone(net_c, 0.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert lambda_for_zone(net_c, dc.c_bar) == pytest.approx(1.0, rel=1e-12)
    assert lambda_for_zone(net_c, 0.4) == pytest.approx(0.9375, rel=1e-14)


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


# ---------------------------------------------------------------- O conditions & repeller


def test_o_conditions_net_b(net_b):
    assert check_O_conditions(net_b, 0, 1) == (True, True, True)


def test_o_conditions_net_a(net_a):
    o1, o2, o3 = check_O_conditions(net_a, 0, 1)
    assert not o1  # 0.5 > theta - c_star ~ 0.2899
    assert o2 and o3


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


def test_estimate_lipschitz_requires_hypotheses(net_sync9):
    with pytest.raises(HypothesisViolated):
        estimate_lipschitz_c(net_sync9, 100, seed=1)
