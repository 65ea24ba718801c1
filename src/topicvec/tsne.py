"""Exact t-SNE in two dimensions.

High-dimensional affinities are Gaussian with per-point bandwidths found
by a perplexity binary search, then symmetrized into a joint P. The
search scores each bandwidth with one exponential over the row: the
entropy is log Z + beta * E[d^2], with the self entry removed and the
nearest squared distance shifted out. The low-dimensional kernel
defaults to the Student-t (heavy-tailed) form; the plain Gaussian kernel
is available as an option. Optimization is plain gradient descent on
the KL divergence with a two-stage momentum schedule and optional early
exaggeration.

One descent iteration computes the layout's squared distances once and
shares them between Q and the gradient. It holds at most five n x n
float64 matrices at once: P, the exaggerated P (during exaggeration
only), Q, the Student-t divisor 1 + d^2, and one working matrix (the
gradient weights, or log Q). The KL trace is a constant sum of P log P
minus one sum of P log Q per iteration.

`run` takes feature rows. Non-finite input raises ValueError before any
work is done. A descent that diverges raises ValueError at the first
iteration whose KL is not finite. The plain references these routines
are checked against, including the masked KL and the row entropy, live
in the test suite (`tests/oracles.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_FLOOR = 1e-12
_LN2 = np.log(2.0)
KERNELS = ("student_t", "gaussian")


@dataclass
class TsneConfig:
    perplexity: float = 30.0
    iterations: int = 1000
    learning_rate: float = 100.0
    momentum_initial: float = 0.5
    momentum_final: float = 0.8
    momentum_switch: int = 250
    kernel: str = "student_t"
    exaggeration: float = 4.0
    exaggeration_iters: int = 50  # 0 disables early exaggeration
    seed: int = 0

    def __post_init__(self):
        if self.perplexity <= 0:
            raise ValueError("perplexity must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        for name in ("momentum_initial", "momentum_final"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.momentum_switch < 0:
            raise ValueError("momentum_switch must be >= 0")
        if self.exaggeration <= 0:
            raise ValueError("exaggeration must be positive")
        if self.exaggeration_iters < 0:
            raise ValueError("exaggeration_iters must be >= 0")
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}")

    def momentum(self, t: int) -> float:
        return self.momentum_initial if t < self.momentum_switch else self.momentum_final


@dataclass
class TsneLayout:
    Y: np.ndarray  # n x 2 coordinates
    kl: float  # final KL divergence against the unexaggerated P
    kl_trace: np.ndarray  # KL after each iteration


def squared_distances(X: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, exact zeros on the diagonal."""
    X = np.asarray(X, dtype=float)
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def conditional_affinities(sq_row, sigma: float, self_index: int) -> np.ndarray:
    """One row of neighbor probabilities: exp(-d^2 / 2 sigma^2) over all
    other points, normalized to sum to 1, with the self entry fixed at 0."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    logits = -np.asarray(sq_row, dtype=float) / (2.0 * sigma * sigma)
    logits[self_index] = -np.inf
    logits -= logits.max()  # shift for stable exponentials
    p = np.exp(logits)
    return p / p.sum()


def calibrate_sigma(sq_row, perp: float, self_index: int,
                    tol: float = 1e-5, max_bisections: int = 50) -> float:
    """Bandwidth whose neighbor distribution has the requested perplexity.

    Brackets by geometric expansion, then bisects until the entropy matches
    log2(perp) within tol bits or the bisection budget runs out; the best
    bracketed value is returned either way (an exactly equidistant row has
    the same perplexity for every sigma, so any value is as good).

    With beta = 1 / 2 sigma^2 and the squared distances d to the other
    points shifted so the nearest is 0, the weights are w = exp(-beta d)
    and the entropy in nats is log(sum w) + beta * sum(w d) / sum(w): one
    exponential per evaluation, equal to the entropy of
    `conditional_affinities` up to rounding.
    """
    target = np.log2(perp)
    d = np.delete(np.asarray(sq_row, dtype=float), self_index)
    d -= d.min()

    def achieved(sigma):
        beta = 1.0 / (2.0 * sigma * sigma)
        w = np.exp(-beta * d)
        z = w.sum()
        return (np.log(z) + beta * (w @ d) / z) / _LN2

    sigma = 1.0
    h = achieved(sigma)
    if abs(h - target) < tol:
        return sigma
    if h < target:  # perplexity grows with sigma
        lo = sigma
        for _ in range(64):
            sigma *= 2.0
            h = achieved(sigma)
            if h >= target:
                break
            lo = sigma
        hi = sigma
    else:
        hi = sigma
        for _ in range(64):
            sigma /= 2.0
            h = achieved(sigma)
            if h <= target:
                break
            hi = sigma
        lo = sigma
    for _ in range(max_bisections):
        sigma = 0.5 * (lo + hi)
        h = achieved(sigma)
        if abs(h - target) < tol:
            return sigma
        if h < target:
            lo = sigma
        else:
            hi = sigma
    return sigma


def symmetrize(p_conditional: np.ndarray) -> np.ndarray:
    """Joint affinities (P + P^T) / 2n, floored at 1e-12 off the diagonal."""
    P = np.asarray(p_conditional, dtype=float)
    n = P.shape[0]
    P = P + P.T
    P /= 2.0 * n
    np.maximum(P, _FLOOR, out=P)
    np.fill_diagonal(P, 0.0)
    return P


def low_dim_affinities(Y: np.ndarray, kernel: str):
    """Joint affinities Q of the embedded points, normalized over all
    pairs, and the Student-t divisor 1 + d^2 (None under the Gaussian
    kernel), both from one squared-distance matrix."""
    d2 = squared_distances(Y)
    if kernel == "student_t":
        d2 += 1.0
        divisor = d2
        Q = 1.0 / divisor
    else:
        divisor = None
        np.negative(d2, out=d2)
        Q = np.exp(d2, out=d2)
    np.fill_diagonal(Q, 0.0)
    # a diverged layout can underflow every weight; the 0 / 0 NaNs then
    # make run() stop at a non-finite KL
    with np.errstate(invalid="ignore"):
        Q /= Q.sum()
    np.maximum(Q, _FLOOR, out=Q)
    np.fill_diagonal(Q, 0.0)
    return Q, divisor


def _sum_p_log(P: np.ndarray, M: np.ndarray) -> float:
    """Sum of p_ij log m_ij over i != j, for square matrices whose
    off-diagonal entries of M are positive (the diagonal is skipped)."""
    with np.errstate(divide="ignore"):
        L = np.log(M)
    np.fill_diagonal(L, 0.0)
    return float(P.ravel() @ L.ravel())


def kl_and_gradient(P: np.ndarray, Q: np.ndarray, Y: np.ndarray,
                    divisor: np.ndarray | None) -> np.ndarray:
    """Gradient of the KL divergence with respect to the coordinates.

    The gradient of point i is 4 times the sum over j of
    (p_ij - q_ij)(y_i - y_j), divided by 1 + d_ij^2 under the Student-t
    kernel. Q and `divisor` are the pair `low_dim_affinities` returns
    for Y.
    """
    G = P - Q
    if divisor is not None:
        G /= divisor
    return 4.0 * (G.sum(axis=1)[:, None] * Y - G @ Y)


def joint_affinities(sq_dists: np.ndarray, perplexity: float) -> np.ndarray:
    """Calibrate every row, conditionalize, and symmetrize."""
    n = sq_dists.shape[0]
    P_cond = np.zeros((n, n))
    for i in range(n):
        sigma = calibrate_sigma(sq_dists[i], perplexity, i)
        P_cond[i] = conditional_affinities(sq_dists[i], sigma, i)
    return symmetrize(P_cond)


def run(X, cfg: TsneConfig) -> TsneLayout:
    """Embed the n rows of the feature matrix X into the plane.

    The initial layout is drawn from a tight Gaussian; each iteration
    takes a gradient descent step on the KL divergence plus a momentum
    term. Early exaggeration scales P for the first exaggeration_iters
    iterations; the KL trace is always recorded against the
    unexaggerated P.
    """
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError("X must be finite (found NaN or infinity)")
    d2 = squared_distances(X)
    n = d2.shape[0]
    if n <= cfg.perplexity + 1:
        raise ValueError("need more points than perplexity + 1")
    if d2.max() == 0.0:
        raise ValueError("degenerate input: all points are identical")

    P = joint_affinities(d2, cfg.perplexity)
    del X, d2  # the descent needs only P
    p_log_p = _sum_p_log(P, P)
    rng = np.random.default_rng(cfg.seed)
    Y = rng.normal(0.0, 1e-2, size=(n, 2))
    Y_prev = Y.copy()
    Q, divisor = low_dim_affinities(Y, cfg.kernel)
    trace = []
    for t in range(1, cfg.iterations + 1):
        P_step = P * cfg.exaggeration if t <= cfg.exaggeration_iters else P
        grad = kl_and_gradient(P_step, Q, Y, divisor)
        del P_step, Q, divisor  # freed before the next layout's matrices
        step = -cfg.learning_rate * grad + cfg.momentum(t) * (Y - Y_prev)
        Y_prev = Y
        Y = Y + step
        Q, divisor = low_dim_affinities(Y, cfg.kernel)
        kl = p_log_p - _sum_p_log(P, Q)
        if not math.isfinite(kl):
            raise ValueError(f"t-SNE diverged: the KL divergence is not finite "
                             f"at iteration {t} with learning_rate "
                             f"{cfg.learning_rate}")
        trace.append(kl)
    return TsneLayout(Y, trace[-1], np.asarray(trace))
