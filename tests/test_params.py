import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifnet import (
    NetworkParams,
    NeuronKind,
    ParseError,
    RejectConfig,
    network,
    o_pairs,
)

# Frozen oracle values, evaluated once with 40-digit arithmetic for
# beta=1.2, theta=1, alpha=-1, gamma=1.
C_STAR = 0.71010205144336438036
BETA_PLUS = 1.6180339887498948482
EPSILON = 0.57082039324993690892
C_BAR = 0.42917960675006309108
T_MAX = 1.7917594692280550008


def test_validate_accepts_reference_network():
    p = network(2, 1.0, 1.2, 1.0, -1.0, [[0.0, 0.5], [0.5, 0.0]])
    assert p.n == 2
    assert p.H[0, 1] == 0.5


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(beta=0.9),            # beta <= theta
        dict(beta=1.0),
        dict(theta=0.0),
        dict(theta=-1.0),
        dict(alpha=0.0),
        dict(alpha=0.5),
        dict(gamma=0.0),
        dict(gamma=-2.0),
        dict(n=0),
    ],
)
def test_validate_rejects_bad_scalars(kwargs):
    base = dict(n=2, gamma=1.0, beta=1.2, theta=1.0, alpha=-1.0)
    base.update(kwargs)
    with pytest.raises(RejectConfig):
        network(H=[[0.0, 0.5], [0.5, 0.0]], **base)


def test_validate_rejects_bad_matrix():
    with pytest.raises(RejectConfig):
        network(2, 1.0, 1.2, 1.0, -1.0, [[0.0, 0.5]])
    with pytest.raises(RejectConfig):
        network(2, 1.0, 1.2, 1.0, -1.0, [[0.0, np.inf], [0.5, 0.0]])
    # a subnormal entry makes p0 = ceil((theta - alpha)/5e-324) infinite
    with pytest.raises(RejectConfig, match="p0 = inf"):
        network(2, 1.0, 1.2, 1.0, -1.0, [[0.0, 5e-324], [0.5, 0.0]])


NOT_NUMBERS = {
    "n-bool": ("n", True), "n-float": ("n", 2.0), "gamma-bool": ("gamma", True),
    "gamma-str": ("gamma", "1"), "theta-null": ("theta", None), "alpha-list": ("alpha", [-1.0]),
    "beta-401-digits": ("beta", 10**400), "H-str": ("H", [["a", 0], [0, 0]]),
    "H-null": ("H", [[0.0, None], [0.5, 0.0]]), "H-nested": ("H", [[0.0, [0.5]], [0.5, 0.0]]),
    "H-bools": ("H", [[False, True], [True, False]]), "H-401-digits": ("H", [[0.0, 10**400], [0.5, 0.0]]),
    "H-text": ("H", "0.5"), "H-bool-among-numbers": ("H", [[0.0, True], [0.5, 0.0]]),
    "H-bool-ndarray": ("H", np.array([[False, True], [True, False]])),
    "H-object-ndarray-with-bool": ("H", np.array([[0.0, True], [0.5, 0.0]], object)),
}


@pytest.mark.parametrize("field, value", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
def test_network_raises_parse_error_naming_the_field(field, value):
    args = dict(n=2, gamma=1.0, beta=1.2, theta=1.0, alpha=-1.0, H=[[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ParseError, match=f"field '{field}'"):
        network(**{**args, field: value})


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
def test_network_takes_a_numeric_ndarray_as_it_takes_the_same_list(dtype):
    values = [[0.25, 0.5], [-0.75, 2.0]]
    H = np.array(values, dtype)
    p = network(2, 1.0, 1.2, 1.0, -1.0, H)
    assert p.H.dtype == np.float64
    assert p.H.tobytes() == network(2, 1.0, 1.2, 1.0, -1.0, H.tolist()).H.tobytes()
    assert H.tolist() == np.array(values, dtype).tolist()  # the caller's array keeps its diagonal


def test_validate_zeroes_diagonal():
    p = network(2, 1.0, 1.2, 1.0, -1.0, [[0.3, 0.5], [0.5, -0.2]])
    assert p.H[0, 0] == 0.0 and p.H[1, 1] == 0.0
    assert not p.H.flags.writeable


def test_classify_neurons():
    H = [[0.0, 0.5, 0.5],
         [-0.6, 0.0, -0.6],
         [0.5, -0.2, 0.0]]
    p = network(3, 1.0, 1.2, 1.0, -1.0, H)
    assert p.kinds == (NeuronKind.EXCITATORY, NeuronKind.INHIBITORY, NeuronKind.MIXED)


def reference_kinds(H):
    """Each neuron's kind from the signs of its own row, diagonal left out."""
    kinds = []
    for j, row in enumerate(H):
        row = np.delete(row, j)
        pos, neg = bool((row > 0).any()), bool((row < 0).any())
        kinds.append(NeuronKind.MIXED if pos and neg else NeuronKind.EXCITATORY if pos else NeuronKind.INHIBITORY)
    return tuple(kinds)


def test_kinds_equal_the_per_neuron_reference():
    # NetworkParams keeps the drawn diagonal, which the kinds must not read;
    # zeros and -0.0 count as neither sign
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(600):
        n = int(rng.integers(1, 12))
        H = rng.choice([-0.5, -0.0, 0.0, 0.3], size=(n, n), p=[0.15, 0.1, 0.5, 0.25])
        H *= rng.uniform(0.5, 1.5, (n, n))
        p = NetworkParams(n, 1.0, 1.2, 1.0, -1.0, H)
        assert p.kinds == reference_kinds(H)
        seen.update(p.kinds)
    assert seen == set(NeuronKind)


def test_isolated_neuron_counts_as_inhibitory():
    H = [[0.0, 0.0, 0.0],
         [0.4, 0.0, 0.4],
         [0.4, 0.4, 0.0]]
    p = network(3, 1.0, 1.2, 1.0, -1.0, H)
    assert p.kinds[0] is NeuronKind.INHIBITORY


def test_derived_constants_against_oracle(net_c):
    dc = net_c.constants
    assert dc.c_star == pytest.approx(C_STAR, abs=1e-15)
    assert dc.beta_plus == pytest.approx(BETA_PLUS, abs=1e-15)
    assert dc.epsilon == pytest.approx(EPSILON, abs=1e-15)
    assert dc.c_bar == pytest.approx(C_BAR, abs=1e-15)
    assert dc.lambda_0 == pytest.approx(0.2 / 1.2, rel=1e-15)
    assert dc.T_max == pytest.approx(T_MAX, abs=1e-14)
    assert dc.mu_jump == pytest.approx(0.4, abs=1e-15)
    assert dc.min_abs_H == 0.6
    assert dc.m_min_pos == 0.6
    assert dc.p0 == 4


def test_c_bar_equals_theta_minus_epsilon_within_4ulp(net_c):
    dc = net_c.constants
    ref = net_c.theta - dc.epsilon
    assert abs(dc.c_bar - ref) <= 4 * math.ulp(max(abs(dc.c_bar), abs(ref)))


def test_c_star_bracket_property():
    # theta/2 < c_star < theta over a parameter sweep
    for beta in np.linspace(1.01, 5.0, 40):
        for theta in (0.3, 1.0, 2.5):
            if beta <= theta:
                continue
            p = network(2, 1.0, float(beta), float(theta), -1.0, [[0.0, 0.1], [0.1, 0.0]])
            dc = p.constants
            assert theta / 2 < dc.c_star < theta


def test_beta_plus_monotone_in_alpha():
    vals = []
    for alpha in np.linspace(-10.0, -0.01, 60):
        p = network(2, 1.0, 1.2, 1.0, float(alpha), [[0.0, 0.5], [0.5, 0.0]])
        dc = p.constants
        assert 1.0 < dc.beta_plus < 2.0  # (theta, 2 theta) for alpha < 0
        vals.append(dc.beta_plus)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_lambda_at_c_bar_is_one(net_c):
    from ifnet import lambda_for_zone

    dc = net_c.constants
    assert lambda_for_zone(net_c, dc.c_bar) == pytest.approx(1.0, rel=1e-12)


def test_c_bar_positive_iff_beta_below_beta_plus():
    for beta in np.linspace(1.05, 1.9, 30):
        p = network(2, 1.0, float(beta), 1.0, -1.0, [[0.0, 0.5], [0.5, 0.0]])
        dc = p.constants
        assert (dc.c_bar > 0) == (beta < dc.beta_plus)


def test_optional_constants_absent_without_qualifying_entries(net_d):
    dc = net_d.constants
    assert dc.m_min_pos is None  # no positive interaction
    assert dc.min_abs_H == 0.6
    p = network(2, 1.0, 1.2, 1.0, -1.0, [[0.0, 0.0], [0.0, 0.0]])
    dc0 = p.constants
    assert dc0.min_abs_H is None and dc0.p0 is None


def test_check_hypotheses_net_c(net_c):
    rep = net_c.hypotheses
    assert rep.h3  # 0.6 > epsilon ~ 0.5708 and beta < beta_plus
    assert rep.h4
    assert not rep.sync_size


def test_check_hypotheses_sync_size(net_sync9):
    rep = net_sync9.hypotheses
    assert rep.sync_size  # ceil(1/0.4)^2 = 9


def test_check_hypotheses_mixed_neuron_fails_h4():
    H = [[0.0, 0.5, -0.2],
         [0.5, 0.0, 0.5],
         [0.5, 0.5, 0.0]]
    p = network(3, 1.0, 1.2, 1.0, -1.0, H)
    assert not p.hypotheses.h4


def test_check_hypotheses_zone_is_c_bar_above_0(net_c):
    # beta 2.0 is past beta_plus, so c_bar = -0.30 and C_{c_bar} is empty
    assert net_c.hypotheses.zone and net_c.constants.c_bar > 0
    p = network(3, 1.0, 2.0, 1.0, -1.0, net_c.H)
    assert not p.hypotheses.zone and p.constants.c_bar < 0


def plain_coverage(H, theta):
    """(certifiable, p) by loops over the rows of H: certifiable when no row has both
    signs and some row has no positive entry, and p = ceil(theta/m) of the least
    off-diagonal entry m when every one is > 0 and n >= p^2, else None."""
    n = len(H)
    rows = [[H[j][i] for i in range(n) if i != j] for j in range(n)]
    dale = not any(any(x > 0 for x in row) and any(x < 0 for x in row) for row in rows)
    certifiable = dale and any(all(x <= 0 for x in row) for row in rows)
    off = [x for row in rows for x in row]
    p = math.ceil(theta / min(off)) if off and all(x > 0 for x in off) else None
    return certifiable, p if p is not None and n >= p * p else None


COUPLINGS = [-0.7, -0.3, 0.0, 0.3, 0.4, 0.7, 1.2]


@st.composite
def coupling_matrices(draw):
    # entries from a small random pool of COUPLINGS, so all-positive and sign-pure rows come up often
    n = draw(st.integers(1, 6))
    pool = draw(st.lists(st.sampled_from(COUPLINGS), min_size=1, max_size=3, unique=True))
    return [[0.0 if i == j else draw(st.sampled_from(pool)) for j in range(n)] for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(coupling_matrices())
@example([[0.0 if i == j else 0.7 for j in range(4)] for i in range(4)])  # p = 2, n = 4
@example([[0.0 if i == j else 0.7 for j in range(3)] for i in range(3)])  # p = 2, n = 3 < 4
@example([[0.0, 1.2], [1.2, 0.0]])  # p = 1
def test_certifiable_and_sync_returns_match_plain_loops(H):
    p = network(len(H), 1.0, 1.2, 1.0, -1.0, H)
    certifiable, returns = plain_coverage(H, p.theta)
    assert p.hypotheses.certifiable == certifiable
    assert p.sync_returns == returns
    assert p.hypotheses.sync_size == (p.sync_returns is not None)


def test_sync_returns_of_the_fixtures(net_sync9, net_a):
    assert net_sync9.sync_returns == 3 and net_sync9.hypotheses.sync_size  # ceil(1/0.4) = 3, 9 >= 9
    assert net_a.sync_returns is None and not net_a.hypotheses.sync_size  # ceil(1/0.5) = 2, 2 < 4
    # one neuron: its all-zero row counts as inhibitory, and no interaction bounds p
    one = network(1, 1.0, 1.2, 1.0, -1.0, [[0.0]])
    assert one.sync_returns is None and one.hypotheses.certifiable


def test_o_pairs_listed_for_net_b(net_b, net_a):
    assert o_pairs(net_b) == [(0, 1)]
    assert o_pairs(net_a) == []  # 0.5 > theta - c_star


def test_validated_params_are_frozen_and_cache_invariants(net_c):
    import dataclasses

    with pytest.raises(dataclasses.FrozenInstanceError):
        net_c.beta = 1.1
    with pytest.raises(dataclasses.FrozenInstanceError):
        net_c.H = np.zeros((3, 3))
    assert not net_c.H.flags.writeable
    assert net_c.constants is net_c.constants
    assert net_c.hypotheses is net_c.hypotheses
    assert net_c.kinds is net_c.kinds
    assert net_c.step_table is net_c.step_table
    assert net_c.excitatory == (0,) and net_c.inhibitory == (1, 2)
