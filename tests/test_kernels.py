"""Differential tests: the NumPy step and its drivers against a scalar step.

`reference_step` below, a plain loop over one state, is the reference.
`step_batch` must give the same post-firing state and firing set for every
row, and `wait_times` of its row maxima the same waiting time, bit for bit;
on a single state it must also give the same avalanche depth (`rounds`), as
must `return_map`.  Each batched driver must give, row by row, what a plain
loop over the scalar step gives.  The networks cover n = 2, 3, 8, 9 and 12
with mixed-sign couplings, an all-excitatory and an all-inhibitory network,
a sparse excitatory one with exact 0.0 and -0.0 jumps, one whose inhibitory
neurons fire in only some rows of a batch, and one whose images floor at
alpha; the states include the zero vector, exact ties of the maximum and
near-ties inside the tie tolerance.  A row's image must not depend on the
other rows of its batch, which decide which columns a later round steps.
`run_orbit`, which steps one state at a time through `step_batch` and copies
a recurring orbit's tail instead of stepping it, must give what a scalar loop
that steps every return gives, on net_b, net_c and mixed8.
`piece_matrix`, built from the codes one `step_batch` call gives a state (its
argmax, its firing set and its image == alpha), applied to (v, 1) must give
that step within a few ulps of each row's scale, on net_b, net_c, net_d and
mixed8.
The jump sums take one dense product up to `_kernels._DENSE_MAX` terms and
add column by column past it: a batch on each side of that rule, and one
with every round summed column by column, must match the scalar step; one
step on 4096 states of a 64-neuron network must stay within 8 times the
batch's bytes; empty batches and single states keep their result shapes.
A later recruiting round decides from one BLAS product and falls back to the
ordered up sums only inside the product's error bound: with the bound forced
to infinity (and a product that would recruit every neuron) every later
round falls back and the step is still the scalar one; on 1000 census starts
of a 256-neuron Dale network no column falls back, and the step's bytes equal
the forced fallback's; a row whose whole network fired is 0 with no image
sum.  CI runs this file with one and with two BLAS threads.

`track_pair` and `absorb_run` stop stepping a row whose future is known (a
merged pair, a failed start, a start on a fixed point); long-horizon runs
(k_max 40, horizon 30) must still match loops that step every return, and on
net_c the contract checks must make only a handful of steps.
"""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ifnet import _kernels, contraction, cycles, load_config, network, return_map
from ifnet._sampling import sample_on_section


def _random_mixed(n, seed):
    H = np.random.default_rng(seed).uniform(-0.9, 0.9, (n, n))
    np.fill_diagonal(H, 0.0)
    return H


def _uniform(n, w):
    H = np.full((n, n), w)
    np.fill_diagonal(H, 0.0)
    return H


def _sparse_excitatory(n, seed):
    """Positive jumps on about a third of the pairs; the rest exact 0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    H = np.where(rng.random((n, n)) < 0.35, rng.uniform(0.1, 0.9, (n, n)), 0.0)
    H[(H == 0.0) & (rng.random((n, n)) < 0.5)] = -0.0
    np.fill_diagonal(H, 0.0)
    return H


def _partly_inhibitory(n, seed):
    """Weakly coupled excitatory neurons 0..n/2-1, strongly inhibitory ones after them:
    an avalanche seldom reaches the inhibitory neurons, so they fire only where one wins."""
    rng = np.random.default_rng(seed)
    H = np.vstack((rng.uniform(0.0, 0.3, (n // 2, n)), rng.uniform(-0.9, -0.4, (n - n // 2, n))))
    np.fill_diagonal(H, 0.0)
    return H


NETWORKS = {
    "n2_mixed": (2, [[0.0, 0.5], [-0.6, 0.0]]),
    "n3_net_c": (3, [[0.0, 0.6, 0.6], [-0.6, 0.0, -0.6], [-0.6, -0.6, 0.0]]),
    "n8_mixed": (8, _random_mixed(8, 1)),
    "n9_mixed": (9, _random_mixed(9, 2)),
    "n9_excitatory": (9, _uniform(9, 0.4)),
    "n12_inhibitory": (12, _uniform(12, -0.7)),
    "n12_mixed": (12, _random_mixed(12, 3)),
    "n10_sparse_excitatory": (10, _sparse_excitatory(10, 4)),
    "n7_partly_inhibitory": (7, _partly_inhibitory(7, 5)),
    "n5_floored": (5, _uniform(5, -2.5)),  # every neuron that does not fire floors at alpha
}


@pytest.fixture(params=sorted(NETWORKS), scope="module")
def net(request):
    n, H = NETWORKS[request.param]
    return network(n, 1.0, 1.2, 1.0, -1.0, H)


def _states(p, seed, count=200):
    """Section states plus the zero vector, exact ties and near-ties of the maximum."""
    rng = np.random.default_rng(seed)
    V = sample_on_section(rng, p.n, p.alpha, p.theta, count)
    V[0] = 0.0
    V[1:70, -1] = 0.0                                      # keep these rows on the section
    V[1:40, 0] = V[1:40, 1:].max(axis=1)                   # exact duplicate maxima
    V[40:60, 0] = V[40:60, 1:].max(axis=1) - 0.5 * p.tie_tol()  # ties inside the tolerance
    V[60:70, :-1] = 0.42                                   # every nonzero coordinate tied
    return V


def _pairs(p, seed, count=200):
    """Perturbed pairs on a common face, with some identical pairs."""
    rng = np.random.default_rng(seed + 100)
    V = _states(p, seed, count)
    scale = np.exp(rng.uniform(np.log(1e-9), np.log(0.3), size=count))
    W = np.clip(V + rng.uniform(-1.0, 1.0, V.shape) * scale[:, None], p.alpha, p.theta)
    W[V == 0.0] = 0.0
    W[:10] = V[:10]
    return V, W


def _bits(x):
    return np.asarray(x, np.float64).tobytes()


def reference_step(params, v, out_v, fired):
    """One return-map application; fills out_v/fired, returns (t_bar, rounds).

    A plain scalar loop over one state, kept as the reference the NumPy step is held to."""
    H = params.H
    beta, theta, alpha = params.beta, params.theta, params.alpha
    n = v.shape[0]
    vmax = v[0]
    for i in range(1, n):
        if v[i] > vmax:
            vmax = v[i]
    tied = vmax - params.tie_tol()
    for i in range(n):
        fired[i] = v[i] >= tied
    scale = (beta - theta) / (beta - vmax)
    for i in range(n):
        if fired[i]:
            out_v[i] = theta
        else:
            out_v[i] = beta - (beta - v[i]) * scale
    rounds = 0
    while True:
        recruits = []
        for k in range(n):
            if not fired[k]:
                s = out_v[k]
                for j in range(n):
                    if fired[j] and H[j, k] > 0.0:
                        s += H[j, k]
                if s >= theta:
                    recruits.append(k)
        if not recruits:
            break
        rounds += 1
        for k in recruits:
            fired[k] = True
    for i in range(n):
        if fired[i]:
            out_v[i] = 0.0
        else:
            s = out_v[i]
            for j in range(n):
                if fired[j]:
                    s += H[j, i]
            if s < alpha:
                s = alpha
            out_v[i] = s
    t_bar = math.log((beta - vmax) / (beta - theta)) / params.gamma
    if t_bar < 0.0:
        t_bar = 0.0
    return t_bar, rounds


def scalar_step(p, v):
    out = np.empty(p.n)
    fired = np.zeros(p.n, np.bool_)
    t_bar, rounds = reference_step(p, v, out, fired)
    return out, fired, t_bar, rounds


def _check_against_scalar_step(p, V):
    out, fired, vmax, rounds = _kernels.step_batch(p, V)
    t_bar = _kernels.wait_times(p, vmax)
    deepest = 0
    for row in range(V.shape[0]):
        o, f, t, r = scalar_step(p, V[row])
        assert _bits(out[row]) == _bits(o) and np.array_equal(fired[row], f), row
        assert _bits(t_bar[row]) == _bits(t), row
        deepest = max(deepest, r)
    assert rounds == deepest  # a batch counts the rounds of its deepest row


def test_step_batch_matches_scalar_step(net):
    V = _states(net, 7)
    out, fired, vmax, _ = _kernels.step_batch(net, V)
    assert out.shape == V.shape and fired.shape == V.shape and vmax.shape == V.shape[:1]
    assert _bits(vmax) == _bits(V.max(axis=1))
    _check_against_scalar_step(net, V)


def test_step_table_is_cached_and_read_only(net):
    table = net.step_table
    assert net.step_table is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0, 0, 0] = 1.0
    # up[j] for the recruiting rounds, and H[j] for the image when H has a negative entry
    inhibits = (net.H < 0.0).any()
    assert table.shape == (net.n, 1 + inhibits, net.n, 1)
    up, excites = table[:, 0, :, 0], net.H > 0.0
    assert _bits(up[excites]) == _bits(net.H[excites])
    assert (up[~excites] == 0.0).all() and np.signbit(up[~excites]).all()
    if inhibits:
        assert _bits(table[:, 1, :, 0]) == _bits(net.H)
    # up.T, row k the up jumps into k, for the product that decides a later round
    up_t = net.up_t
    assert net.up_t is up_t and not up_t.flags.writeable and up_t.flags.c_contiguous
    assert _bits(up_t) == _bits(up.T)


def test_networks_hold_signed_zero_jumps_and_floored_images():
    # the cases the step's +-0 argument turns on: exact 0.0 and -0.0 jumps from
    # neurons with no negative one, and images cut at alpha
    p = network(10, 1.0, 1.2, 1.0, -1.0, NETWORKS["n10_sparse_excitatory"][1])
    off = p.H[~np.eye(10, dtype=bool)]
    assert (off >= 0.0).all() and (off > 0.0).any() and not (p.H < 0).any()
    assert (np.signbit(off) & (off == 0.0)).any() and (~np.signbit(off) & (off == 0.0)).any()
    p = network(5, 1.0, 1.2, 1.0, -1.0, NETWORKS["n5_floored"][1])
    out, fired, _, _ = _kernels.step_batch(p, _states(p, 7))
    assert (out[~fired] == p.alpha).all()


def test_image_of_a_row_does_not_depend_on_its_batch_companions():
    # rows that fire an inhibitory neuron and rows that do not, stepped together, in
    # groups and one at a time (a batch of one steps every later round alone): bytes agree
    p = network(7, 1.0, 1.2, 1.0, -1.0, NETWORKS["n7_partly_inhibitory"][1])
    V = _states(p, 16)
    out, fired, _, _ = _kernels.step_batch(p, V)
    inhib = (fired & (p.H < 0).any(axis=1)).any(axis=1)
    assert 10 <= inhib.sum() <= V.shape[0] - 10  # the batch mixes both kinds of row
    quiet, _, _, _ = _kernels.step_batch(p, V[~inhib])
    assert _bits(quiet) == _bits(out[~inhib])
    loud, _, _, _ = _kernels.step_batch(p, V[inhib])
    assert _bits(loud) == _bits(out[inhib])
    for row in range(V.shape[0]):
        assert _bits(_kernels.step_batch(p, V[row])[0]) == _bits(out[row]), row
        assert _bits(_kernels.step_batch(p, V[row:row + 1])[0]) == _bits(out[row]), row


@pytest.mark.parametrize("side", ["dense", "columns"])
def test_step_batch_matches_scalar_step_on_each_side_of_the_size_rule(net, side):
    # the largest batch whose jump sums form one product, and one state more, which
    # sums column by column; both hold every row to the scalar step bit for bit
    rows = _kernels._DENSE_MAX // net.step_table.size + (side == "columns")
    assert (net.step_table.size * rows <= _kernels._DENSE_MAX) == (side == "dense")
    _check_against_scalar_step(net, _states(net, 17, count=rows))


def test_column_sums_match_scalar_step_in_every_round(net, monkeypatch):
    # with the rule at 0, the image sums after later rounds add column by column as well
    monkeypatch.setattr(_kernels, "_DENSE_MAX", 0)
    _check_against_scalar_step(net, _states(net, 18))


def _spy(monkeypatch, name):
    """Replace _kernels.<name> by a wrapper that records the column count of each call."""
    calls, real = [], getattr(_kernels, name)

    def spy(*args):
        calls.append(args[-1].shape[1])
        return real(*args)

    monkeypatch.setattr(_kernels, name, spy)
    return calls


def test_forced_fallback_matches_scalar_step(net, monkeypatch):
    # an infinite bound trusts no BLAS decision, so every later round of every column
    # re-decides from its ordered up sums, and the step is still the scalar one, even
    # with a product that would recruit every neuron
    monkeypatch.setattr(_kernels, "_SLACK", math.inf)
    monkeypatch.setitem(vars(net), "up_t", np.full((net.n, net.n), 10.0))
    calls = _spy(monkeypatch, "_ordered_recruits")
    V = _states(net, 18)
    _check_against_scalar_step(net, V)
    # a row runs one later round per recruiting round, less one if its whole network fired
    later = 0
    for v in V:
        _, fired, _, rounds = scalar_step(net, v)
        later += rounds - fired.all() if rounds else 0
    assert sum(calls) == later


def _dale_recipe(n):
    """The tests/golden dale64.json network at size n: default_rng(5), |H| in [0.2, 0.5],
    rows 0..n/8-1 excitatory and the rest inhibitory."""
    H = np.random.default_rng(5).uniform(0.2, 0.5, (n, n))
    H[n // 8:] *= -1.0
    np.fill_diagonal(H, 0.0)
    return network(n, 1.0, 1.2, 1.0, -1.0, H)


def test_blas_decides_every_later_round_on_large_census_starts(monkeypatch):
    # at n = 256 no recruiting sum of 1000 census starts comes within the bound of
    # theta, so no column falls back; forcing every column to fall back changes no byte
    p = _dale_recipe(256)
    V = cycles._census_starts(p, 1000, 0)
    calls = _spy(monkeypatch, "_ordered_recruits")
    filtered = _kernels.step_batch(p, V)
    assert filtered[3] >= 2 and calls == []
    monkeypatch.setattr(_kernels, "_SLACK", math.inf)
    forced = _kernels.step_batch(p, V)
    assert sum(calls) > 0
    assert all(_bits(a) == _bits(b) for a, b in zip(filtered[:3], forced[:3])) and filtered[3] == forced[3]


def test_columns_whose_whole_network_fired_take_no_image_sum(monkeypatch):
    # on the uniform excitatory network every row that recruits fires whole: its image
    # is 0 with no sum, so round 0's sum is the only one the step makes
    p = network(9, 1.0, 1.2, 1.0, -1.0, NETWORKS["n9_excitatory"][1])
    V = _states(p, 20)
    calls = _spy(monkeypatch, "_jump_sums")
    out, fired, _, rounds = _kernels.step_batch(p, V)
    whole = fired.all(axis=1)
    assert rounds >= 2 and 10 <= whole.sum() < V.shape[0] and calls == [V.shape[0]]
    assert _bits(out[whole]) == _bits(np.zeros((whole.sum(), p.n)))
    _check_against_scalar_step(p, V)


def test_empty_batches_keep_their_shapes(net):
    V = np.empty((0, net.n))
    out, fired, vmax, rounds = _kernels.step_batch(net, V)
    assert (out.shape, fired.shape, vmax.shape, rounds) == ((0, net.n), (0, net.n), (0,), 0)
    assert [a.shape for a in _kernels.absorb_run(net, V, 0.3, 0.35, 3, 4)] == [(0,), (0,)]
    assert [a.shape for a in _kernels.sync_run(net, V, 4)] == [(0,), (0,)]
    assert [a.shape for a in _kernels.track_pair(net, V, V, 5)] == [(0, 6), (0,)]


def test_one_state_gives_results_without_a_batch_axis(net):
    v, w = _pairs(net, 19, count=20)
    out, fired, vmax, rounds = _kernels.step_batch(net, v[15])
    assert (out.shape, fired.shape, np.shape(vmax), type(rounds)) == ((net.n,), (net.n,), (), int)
    assert [np.shape(a) for a in _kernels.absorb_run(net, v[15], 0.3, 0.35, 3, 4)] == [(), ()]
    assert [np.shape(a) for a in _kernels.sync_run(net, v[15], 4)] == [(), ()]
    assert [np.shape(a) for a in _kernels.track_pair(net, v[15], w[15], 5)] == [(6,), ()]


def _random_dale(n, seed):
    """About four in five rows excitatory, the rest inhibitory, |H| < 2/n."""
    rng = np.random.default_rng(seed)
    sign = np.where(rng.random(n) < 0.8, 1.0, -1.0)
    H = sign[:, None] * rng.uniform(0.0, 2.0 / n, (n, n))
    np.fill_diagonal(H, 0.0)
    return network(n, 1.0, 1.2, 1.0, -1.0, H)


def test_step_batch_memory_stays_within_a_few_batches():
    # past the size rule the sums add column by column: one product of every term
    # would take n = 64 times the batch's bytes
    p = _random_dale(64, 64)
    V = sample_on_section(np.random.default_rng(1), p.n, p.alpha, p.theta, 4096)
    p.step_table  # cached per network, not part of the step
    tracemalloc.start()
    try:
        _, fired, _, rounds = _kernels.step_batch(p, V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rounds >= 1 and fired.any(axis=0).all() and (fired & (p.H < 0).any(axis=1)[None]).any()
    assert peak <= 8 * V.nbytes


def test_step_batch_takes_one_state(net):
    V = _states(net, 8, count=80)
    out, fired, vmax, _ = _kernels.step_batch(net, V)
    t_bar = _kernels.wait_times(net, vmax)
    for row in range(V.shape[0]):
        o, f, m, r = _kernels.step_batch(net, V[row])
        t = _kernels.wait_times(net, m)
        assert o.shape == (net.n,) and np.shape(t) == ()
        assert _bits(o) == _bits(out[row]) and np.array_equal(f, fired[row])
        assert _bits(t) == _bits(t_bar[row])
        assert r == scalar_step(net, V[row])[3], row


def test_return_map_spontaneous_set_and_avalanche(net):
    V = _states(net, 9, count=70)
    _, fired, _, _ = _kernels.step_batch(net, V)
    for row in range(70):
        v = V[row]
        step = return_map(net, v)
        o, _, t, r = scalar_step(net, v)
        assert _bits(step.state) == _bits(o) and _bits(step.t_bar) == _bits(t) and step.rounds == r, row
        assert np.array_equal(step.spontaneous, np.flatnonzero(v >= v.max() - net.tie_tol())), row
        if 1 <= row < 60:  # an exact tie or a tie inside the tolerance
            assert step.spontaneous.size >= 2, row
        assert np.isin(step.spontaneous, step.fired).all(), row
        assert np.array_equal(step.fired, np.flatnonzero(fired[row])), row


def _check_absorb_run(net, V, c_enter, post_bound, max_steps, horizon):
    """absorb_run against a loop that steps every entered start for all `horizon` returns."""
    enter, stayed = _kernels.absorb_run(net, V, c_enter, post_bound, max_steps, horizon)
    for row in range(V.shape[0]):
        v = V[row]
        want_enter = -1
        for k in range(max_steps + 1):
            if np.all((v <= c_enter) & (v >= net.alpha)):
                want_enter = k
                break
            v = scalar_step(net, v)[0]
        want_stayed = want_enter >= 0
        if want_enter >= 0:
            for _ in range(horizon):
                v = scalar_step(net, v)[0]
                want_stayed = want_stayed and not np.any(v > post_bound)
        assert (enter[row], stayed[row]) == (want_enter, want_stayed), row
    return enter, stayed


def test_absorb_run_matches_scalar_loop(net):
    _check_absorb_run(net, _states(net, 10), 0.3, 0.35, 3, 4)


def test_absorb_run_matches_scalar_loop_over_a_long_horizon(net):
    # the zero vector (row 0) is a fixed point; failed rows and fixed points leave early
    enter, stayed = _check_absorb_run(net, _states(net, 15, count=100), 0.3, 0.35, 3, 30)
    assert enter[0] == 0 and stayed[0]


def test_sync_run_matches_scalar_loop(net):
    V = _states(net, 11)
    max_steps = 4
    steps, total = _kernels.sync_run(net, V, max_steps)
    for row in range(V.shape[0]):
        v = V[row]
        want_steps, want_total = -1, 0.0
        for k in range(1, max_steps + 1):
            v, _, t, _ = scalar_step(net, v)
            want_total += t
            if not np.any(v != 0.0):
                want_steps = k
                break
        assert steps[row] == want_steps, row
        assert _bits(total[row]) == _bits(want_total), row


def _check_track_pair(net, V, W, k_max):
    """track_pair against a loop that steps both orbits until their firing sets differ."""
    dists, n_common = _kernels.track_pair(net, V, W, k_max)
    assert dists.shape == (V.shape[0], k_max + 1)
    for row in range(V.shape[0]):
        v, w = V[row], W[row]
        want = np.zeros(k_max + 1)
        want[0] = np.max(np.abs(v - w))
        common = 0
        for k in range(1, k_max + 1):
            v, fv, _, _ = scalar_step(net, v)
            w, fw, _, _ = scalar_step(net, w)
            if not np.array_equal(fv, fw):
                break
            want[k] = np.max(np.abs(v - w))
            common = k
        assert n_common[row] == common, row
        assert _bits(dists[row]) == _bits(want), row
    return dists, n_common


def test_track_pair_matches_scalar_loop(net):
    _check_track_pair(net, *_pairs(net, 12), 6)


def test_track_pair_matches_scalar_loop_over_a_long_horizon(net):
    k_max = 40
    dists, n_common = _check_track_pair(net, *_pairs(net, 14, count=100), k_max)
    # pairs 0..9 are equal from the start; many others merge into one orbit later
    assert (dists[:10] == 0.0).all() and (n_common[:10] == k_max).all()
    merged = (dists[:, 0] != 0.0) & (dists[:, -1] == 0.0) & (n_common == k_max)
    assert merged.sum() >= 10


def test_drivers_take_one_state(net):
    V, W = _pairs(net, 13, count=20)
    enter, stayed = _kernels.absorb_run(net, V, 0.3, 0.35, 3, 4)
    steps, total = _kernels.sync_run(net, V, 4)
    dists, n_common = _kernels.track_pair(net, V, W, 5)
    for row in range(V.shape[0]):
        v, w = V[row], W[row]
        assert _kernels.absorb_run(net, v, 0.3, 0.35, 3, 4) == (enter[row], stayed[row])
        s, t = _kernels.sync_run(net, v, 4)
        assert (s, _bits(t)) == (steps[row], _bits(total[row]))
        d, c = _kernels.track_pair(net, v, w, 5)
        assert d.shape == (6,) and c == n_common[row] and _bits(d) == _bits(dists[row])


GOLDEN = Path(__file__).resolve().parent / "golden"
ORBIT_NETWORKS = {
    "net_b": network(2, 1.0, 1.2, 1.0, -1.0, [[0.0, 0.2], [0.2, 0.0]]),
    "net_c": network(3, 1.0, 1.2, 1.0, -1.0, NETWORKS["n3_net_c"][1]),
    "mixed8": load_config(str(GOLDEN / "mixed8.json")).params,
}


def plain_orbit(p, v0, n_steps):
    """n_steps applications of the scalar step, every one of them stepped."""
    states = np.empty((n_steps, p.n))
    fired = np.zeros((n_steps, p.n), np.bool_)
    t_bars = np.empty(n_steps)
    v = v0
    for s in range(n_steps):
        t_bars[s] = reference_step(p, v, states[s], fired[s])[0]
        v = states[s]
    return states, fired, t_bars


@st.composite
def orbit_starts(draw):
    """(network name, section start, n_steps); starts may hold -0.0 and exact ties."""
    name = draw(st.sampled_from(sorted(ORBIT_NETWORKS)))
    p = ORBIT_NETWORKS[name]
    coords = st.one_of(st.floats(p.alpha, p.theta), st.sampled_from([0.0, -0.0, p.theta, 0.5]))
    v0 = np.array(draw(st.lists(coords, min_size=p.n, max_size=p.n)))
    v0[draw(st.integers(0, p.n - 1))] = draw(st.sampled_from([0.0, -0.0]))
    return name, v0, draw(st.integers(1, 300))


@settings(max_examples=150, deadline=None)
@given(case=orbit_starts())
# the golden simulate starts: inside mixed8's 28-step transient, across its
# period-6 tail, and net_c reaching 0;0;0 from a start with -0.0
@example(case=("mixed8", load_config(str(GOLDEN / "mixed8_v0.json")).v0, 20))
@example(case=("mixed8", load_config(str(GOLDEN / "mixed8_v0.json")).v0, 300))
@example(case=("net_c", load_config(str(GOLDEN / "net_c_edges.json")).v0, 7))
@example(case=("net_b", np.array([0.3, 0.0]), 1))
def test_run_orbit_matches_plain_step_loop(case):
    name, v0, n_steps = case
    p = ORBIT_NETWORKS[name]
    got, want = _kernels.run_orbit(p, v0, n_steps), plain_orbit(p, v0, n_steps)
    repeats = len({row.tobytes() for row in want[0]}) < n_steps
    event(f"{name}: {'repeats' if repeats else 'no repeat'} within n_steps")
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_run_orbit_copies_its_tail_without_temporaries():
    # net_c_v0 reaches the fixed point 0;0;0 within a few returns, so nearly
    # every row is copied; the copies add at most a tenth to what is returned
    p, v0 = ORBIT_NETWORKS["net_c"], load_config(str(GOLDEN / "net_c_v0.json")).v0
    tracemalloc.start()
    try:
        out = _kernels.run_orbit(p, v0, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in out)
    assert (out[0][-1] == 0.0).all() and peak <= 1.1 * held, (peak, held)


PIECE_NETWORKS = dict(ORBIT_NETWORKS, net_d=network(2, 1.0, 1.2, 1.0, -1.0, [[0.0, -0.6], [-0.6, 0.0]]))


@st.composite
def piece_states(draw):
    """(network name, (m, n) section states); coordinates may tie exactly or sit at alpha."""
    name = draw(st.sampled_from(sorted(PIECE_NETWORKS)))
    p = PIECE_NETWORKS[name]
    tie = draw(st.floats(p.alpha, p.theta))
    coords = st.one_of(st.floats(p.alpha, p.theta), st.sampled_from([p.alpha, 0.5, tie]))
    rows = draw(st.lists(st.lists(coords, min_size=p.n, max_size=p.n), min_size=1, max_size=6))
    V = np.array(rows)
    V[np.arange(len(rows)), draw(st.lists(st.integers(0, p.n - 1), min_size=len(rows),
                                          max_size=len(rows)))] = 0.0
    return name, V


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=piece_states())
def test_piece_matrix_reproduces_step(case):
    name, V = case
    p = PIECE_NETWORKS[name]
    out, fired, _, _ = _kernels.step_batch(p, V)
    M = _kernels.piece_matrix(p, V.argmax(axis=1), fired, out == p.alpha)  # the codes of that one step
    assert M.shape == V.shape[:1] + (p.n + 1, p.n + 1)
    h = np.concatenate([V, np.ones((V.shape[0], 1))], axis=1)
    y = np.einsum("mij,mj->mi", M, h)
    # a few ulps of the row's own scale: the terms of M @ (v, 1) over its last coordinate
    scale = np.einsum("mij,mj->mi", np.abs(M), np.abs(h))[:, :-1] / y[:, -1:]
    err = np.abs(y[:, :-1] / y[:, -1:] - out)
    assert (err <= 4 * np.finfo(float).eps * np.maximum(scale, 1.0)).all()
    event(f"{name}: {'floored' if (out[~fired] == p.alpha).any() else 'no floor'}")
    event(f"{name}: {'tie' if (fired.sum(axis=1) > 1).any() else 'one winner'}")


def test_batch_drivers_stop_stepping_rows_with_a_known_future(monkeypatch):
    # on net_c every tracked pair merges and every absorbed start reaches the
    # fixed point 0;0;0 within a few returns, long before the n0 + 1 = 92
    # returns of the adapted-metric check or the 20-return absorption horizon
    p, calls = ORBIT_NETWORKS["net_c"], []
    step = _kernels._step_columns  # the drivers step their column batches through it directly
    monkeypatch.setattr(_kernels, "_step_columns", lambda *a: calls.append(1) or step(*a))
    est = contraction.estimate_lipschitz_c(p, 100, 1)
    assert est.n0 == 91
    calls.clear()
    assert contraction.adapted_metric_check(p, est, 100, 2).ok
    assert len(calls) <= 6  # one track_pair call of 5 steps
    calls.clear()
    assert contraction.absorption_check(p, 300, 0).ok
    assert len(calls) <= p.constants.p0 + 3
