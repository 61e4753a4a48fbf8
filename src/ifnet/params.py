"""Network description, neuron classification and closed-form analysis constants.

A network of n identical leaky integrate-and-fire neurons is described by the
decay rate gamma, the equilibrium drive beta (= K/gamma), the firing threshold
theta, the potential floor alpha and the interaction matrix H, where H[j, i]
is the jump added to neuron i's potential when neuron j fires.  Well-posedness
requires beta > theta > 0 > alpha.

All analysis constants have closed forms in (beta, theta, alpha, gamma, H):

    c_star    = beta - sqrt(beta*(beta-theta))                 in (theta/2, theta)
    beta_plus = (alpha + 2*theta + sqrt(alpha^2 + 4*theta^2))/2
    c_bar     = beta - ((beta-theta) + sqrt(D))/2,  D = (beta-theta)^2
                                                        + 4*(beta-theta)*(beta-alpha)
    epsilon   = (sqrt(D) - (beta-theta))/2  =  theta - c_bar
    lambda_0  = (beta-theta)/beta
    mu_jump   = min(|alpha|, min_{i!=j} |H[i,j] + theta|)
    T_max     = ln(beta/(beta-theta))/gamma      (upper bound on any waiting time)
    p0        = ceil((theta-alpha)/min_{j!=i}|H[j,i]|)  over nonzero entries
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ParseError, RejectConfig

# Relative tolerance deciding when two potentials (hence two firing times) tie.
TIE_REL = 1e-12


class NeuronKind(Enum):
    EXCITATORY = "excitatory"
    INHIBITORY = "inhibitory"
    MIXED = "mixed"


@dataclass(frozen=True)
class NetworkParams:
    """Static network description, immutable; build a validated one with `network`.

    The per-network invariants below are computed on first use and cached on
    the instance; frozen fields (and the read-only H of a validated instance)
    keep the caches from going stale.
    """

    n: int
    gamma: float
    beta: float
    theta: float
    alpha: float
    H: np.ndarray  # shape (n, n); H[j, i] = jump from presynaptic j to i

    def tie_tol(self) -> float:
        """Absolute tolerance within which two potentials tie."""
        return TIE_REL * max(1.0, self.theta)

    @cached_property
    def constants(self) -> DerivedConstants:
        """Every closed-form constant of the module docstring.

        epsilon uses the rationalized form 2*(beta-theta)*(beta-alpha)/(sqrt(D) +
        (beta-theta)), which is algebraically identical to (sqrt(D)-(beta-theta))/2
        and free of cancellation; c_bar is computed by its own formula so the two
        can be cross-checked against theta - epsilon.
        """
        beta, theta, alpha, gamma = self.beta, self.theta, self.alpha, self.gamma
        bt = beta - theta
        ba = beta - alpha
        disc = math.sqrt(bt * bt + 4.0 * bt * ba)
        c_star = beta - math.sqrt(beta * bt)
        beta_plus = 0.5 * (alpha + 2.0 * theta + math.hypot(alpha, 2.0 * theta))
        c_bar = beta - 0.5 * (bt + disc)
        epsilon = 2.0 * bt * ba / (disc + bt)
        lambda_0 = bt / beta
        off = _off_diagonal(self.H)
        mu_jump = min(abs(alpha), float(np.min(np.abs(off + theta)))) if off.size else abs(alpha)
        pos = off[off > 0]
        m_min_pos = float(pos.min()) if pos.size else None
        nz = off[off != 0]
        min_abs_H = float(np.min(np.abs(nz))) if nz.size else None
        p0 = (theta - alpha) / min_abs_H if min_abs_H is not None else None
        p0 = math.ceil(p0) if p0 is not None and p0 < math.inf else p0  # `network` rejects an inf p0
        T_max = math.log(beta / bt) / gamma
        return DerivedConstants(
            c_star=c_star, beta_plus=beta_plus, c_bar=c_bar, epsilon=epsilon,
            lambda_0=lambda_0, mu_jump=mu_jump, T_max=T_max,
            m_min_pos=m_min_pos, min_abs_H=min_abs_H, p0=p0,
        )

    @cached_property
    def kinds(self) -> tuple[NeuronKind, ...]:
        """Per-neuron Dale classification from the sign pattern of its outgoing row.

        A neuron with an all-zero row is classified inhibitory: zero rows satisfy
        both non-strict sign conditions and this choice keeps Dale's principle
        satisfiable for unconnected networks.
        """
        off = _off_diagonal(self.H).reshape(self.n, self.n - 1)
        return tuple(_KINDS[k] for k in ((off > 0).any(axis=1) + 2 * (off < 0).any(axis=1)).tolist())

    @cached_property
    def step_table(self) -> np.ndarray:
        """(n, L, n, 1), read-only: entry j holds what neuron j's firing adds, up[j]
        for the recruiting rounds (H with every entry <= 0 replaced by -0.0) and, when
        some row has a negative entry, H[j] for the image (L = 2; else the last
        round's sum is the image and L = 1), with a trailing axis that broadcasts
        over a batch of states (`_kernels` docstring)."""
        up = np.where(self.H > 0.0, self.H, -0.0)
        table = np.stack((up, self.H) if (self.H < 0.0).any() else (up,), axis=1)[..., None]
        table.setflags(write=False)
        return table

    @cached_property
    def up_t(self) -> np.ndarray:
        """(n, n), read-only: row k holds the positive jumps into neuron k and -0.0
        elsewhere, the transposed up rows of `step_table`, which decide a recruiting
        round in one product (`_kernels` docstring)."""
        up_t = np.ascontiguousarray(self.step_table[:, 0, :, 0].T)
        up_t.setflags(write=False)
        return up_t

    @cached_property
    def excitatory(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds) if k is NeuronKind.EXCITATORY)

    @cached_property
    def inhibitory(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds) if k is NeuronKind.INHIBITORY)

    @cached_property
    def class_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The excitatory and the inhibitory neurons as read-only index arrays, which
        gather a class's rows of an (n, M) batch in one call (`cycles._pieces`)."""
        rows = tuple(np.array(c, np.intp) for c in (self.excitatory, self.inhibitory))
        for r in rows:
            r.setflags(write=False)
        return rows

    @cached_property
    def o_conditions(self) -> np.ndarray:
        """(3, n, n) read-only bools, symmetric: [k, i, j] tells whether the pair of
        neurons i != j meets (O{k+1}) of `contraction.check_O_conditions`; the
        diagonal is False.

        (O1) and (O3) hold for a pair when they hold for each of its neurons: the
        positive jumps into it sum below theta - c_star, and all jumps into it sum
        above 0.  Each neuron's sums add the same terms in the same order as a sum
        over its column without the diagonal (pairwise summation rounds by position).
        (O2) holds for (i, j) when i and j each send a jump above theta to every
        neuron but the two.
        """
        n = self.n
        into = self.H.T[~np.eye(n, dtype=bool)].reshape(n, n - 1)  # row i: the jumps into i, in order
        gap = self.theta - self.constants.c_star
        o1 = np.array([row[row > 0].sum() for row in into]) < gap
        o3 = into.sum(axis=1) > 0
        weak = self.H <= self.theta
        np.fill_diagonal(weak, False)
        missed = weak.sum(axis=1)[:, None] - weak  # [i, j]: the neurons but i and j that i does not excite past theta
        o2 = (missed == 0) & (missed.T == 0)
        conds = np.stack((o1[:, None] & o1, o2, o3[:, None] & o3))
        conds[:, np.arange(n), np.arange(n)] = False
        conds.setflags(write=False)
        return conds

    @cached_property
    def hypotheses(self) -> HypothesisReport:
        """Which of the standing hypotheses hold, and which results cover the network.

        h3: beta < beta_plus(alpha) and every nonzero interaction exceeds epsilon
            in magnitude.
        h4: Dale's principle, no mixed neuron.
        sync_size: the synchronization bound holds (`sync_returns` is not None).
        certifiable: h4 and some inhibitory neuron, the networks whose limit
            cycles a Banach certificate can cover (`cycles`).
        """
        dc = self.constants
        h3 = self.beta < dc.beta_plus and dc.min_abs_H is not None and dc.min_abs_H > dc.epsilon
        h4 = NeuronKind.MIXED not in self.kinds
        return HypothesisReport(h3=bool(h3), h4=h4, sync_size=self.sync_returns is not None,
                                certifiable=h4 and NeuronKind.INHIBITORY in self.kinds)

    @cached_property
    def sync_returns(self) -> Optional[int]:
        """p = ceil(theta/m), m the least off-diagonal entry, when every off-diagonal
        entry is > 0 and n >= p^2: every start on the non-negative part of the
        section then reaches the origin within p returns (`cycles.sync_test`).
        None when either condition fails."""
        off = _off_diagonal(self.H)
        if off.size == 0 or not np.all(off > 0):
            return None
        p = math.ceil(self.theta / float(off.min()))
        return p if self.n >= p * p else None


def network(n, gamma, beta, theta, alpha, H) -> NetworkParams:
    """Build a validated NetworkParams: diagonal of H zeroed, H frozen read-only.

    Raises ParseError, naming the field, if a value is not a number or has the wrong
    shape, and RejectConfig if one is not finite or breaks a well-posedness
    inequality, if the jumps into a neuron can sum past the float range, or if a
    closed-form constant is not finite.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ParseError(f"field 'n' must be a positive integer, got {n!r}")
    # gamma before beta: a config's beta = K/gamma means nothing without a valid gamma
    gamma = number("gamma", gamma)
    if gamma <= 0:
        raise RejectConfig(f"gamma must be > 0, got {gamma}")
    theta = number("theta", theta)
    if theta <= 0:
        raise RejectConfig(f"theta must be > 0, got {theta}")
    alpha = number("alpha", alpha)
    if alpha >= 0:
        raise RejectConfig(f"alpha must be < 0, got {alpha}")
    beta = number("beta", beta)
    if beta <= theta:
        raise RejectConfig(f"beta must exceed theta (perpetual firing), got beta={beta} theta={theta}")
    H = number_array("H", H, (n, n))
    np.fill_diagonal(H, 0.0)  # a neuron does not self-interact
    # a pre-firing potential lies in [alpha, theta], so this bounds every partial sum
    # of jumps into neuron i: in a step, in its piece matrix and in the O-condition sums
    with np.errstate(over="ignore"):
        reach = max(-alpha, theta) + np.abs(H).sum(axis=0)
    bad = np.flatnonzero(~np.isfinite(reach))
    if bad.size:
        i = int(bad[0]) + 1
        raise RejectConfig(f"jumps into neuron {i} overflow: max(|alpha|, theta) + sum_j |H[j, {i}]| is not finite")
    H.setflags(write=False)
    p = NetworkParams(n=int(n), gamma=gamma, beta=beta, theta=theta, alpha=alpha, H=H)
    bad = [f"{k} = {v}" for k, v in vars(p.constants).items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise RejectConfig(f"closed-form constants are not finite: {', '.join(bad)}")
    return p


def number(name: str, value) -> float:
    """value as a finite float; ParseError unless it is an int (not a bool) or a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ParseError(f"field '{name}' must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ParseError(f"field '{name}' is an integer too large for a float") from None
    if not math.isfinite(value):
        raise RejectConfig(f"{name} must be a finite number, got {value!r}")
    return value


def number_array(name: str, value, shape: tuple) -> np.ndarray:
    """value as a new float64 array of the given shape with finite entries; ParseError
    unless every entry is an int (not a bool) or a float."""
    try:
        arr = np.array(value)
    except ValueError:  # ragged nesting
        arr = np.array(None)
    # numpy reads a bool among numbers as 0 or 1, so the entries themselves are looked at;
    # a numeric ndarray cannot hold one (a bool or object ndarray fails the dtype check)
    if arr.dtype.kind not in "iuf" or arr.shape != shape or not isinstance(value, np.ndarray) and any(
            isinstance(x, (bool, np.bool_)) for x in np.array(value, object).flat):
        raise ParseError(f"field '{name}' must hold {'x'.join(map(str, shape))} numbers")
    if not np.all(np.isfinite(arr)):
        raise RejectConfig(f"{name} contains non-finite entries")
    return arr.astype(np.float64, copy=False)


# the kind of a neuron by (a positive off-diagonal entry in its row) + 2 (a negative one)
_KINDS = (NeuronKind.INHIBITORY, NeuronKind.EXCITATORY, NeuronKind.INHIBITORY, NeuronKind.MIXED)


def _off_diagonal(H: np.ndarray) -> np.ndarray:
    n = H.shape[0]
    mask = ~np.eye(n, dtype=bool)
    return H[mask]


@dataclass(frozen=True)
class DerivedConstants:
    c_star: float
    beta_plus: float
    c_bar: float
    epsilon: float
    lambda_0: float
    mu_jump: float
    T_max: float
    m_min_pos: Optional[float]  # min strictly positive off-diagonal entry
    min_abs_H: Optional[float]  # min |entry| over nonzero off-diagonal entries
    p0: Optional[int]


@dataclass(frozen=True)
class HypothesisReport:
    h3: bool
    h4: bool
    sync_size: bool
    certifiable: bool
