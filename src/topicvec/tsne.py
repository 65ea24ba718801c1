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

Non-finite input, and a precomputed matrix that is not one of squared
distances, raise ValueError before any work is done.
"""

from __future__ import annotations

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


def row_perplexity(p_row: np.ndarray) -> float:
    """2 to the Shannon entropy of a neighbor distribution."""
    nz = p_row[p_row > 0]
    return float(2.0 ** (-np.sum(nz * np.log2(nz))))


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


def _embedding_affinities(Y: np.ndarray, kernel: str):
    """Q of the layout, and the Student-t divisor 1 + d^2 (None under the
    Gaussian kernel), both from one squared-distance matrix."""
    d2 = squared_distances(Y)
    if kernel == "student_t":
        d2 += 1.0
        divisor = d2
        Q = 1.0 / divisor
    elif kernel == "gaussian":
        divisor = None
        np.negative(d2, out=d2)
        Q = np.exp(d2, out=d2)
    else:
        raise ValueError(f"kernel must be one of {KERNELS}")
    np.fill_diagonal(Q, 0.0)
    Q /= Q.sum()
    np.maximum(Q, _FLOOR, out=Q)
    np.fill_diagonal(Q, 0.0)
    return Q, divisor


def low_dim_affinities(Y: np.ndarray, kernel: str) -> np.ndarray:
    """Joint affinities of the embedded points, normalized over all pairs."""
    return _embedding_affinities(Y, kernel)[0]


def kl_divergence(P: np.ndarray, Q: np.ndarray) -> float:
    mask = P > 0
    return float(np.sum(P[mask] * np.log(P[mask] / Q[mask])))


def _sum_p_log(P: np.ndarray, M: np.ndarray) -> float:
    """Sum of p_ij log m_ij over i != j, for square matrices whose
    off-diagonal entries of M are positive (the diagonal is skipped)."""
    with np.errstate(divide="ignore"):
        L = np.log(M)
    np.fill_diagonal(L, 0.0)
    return float(P.ravel() @ L.ravel())


def kl_and_gradient(P: np.ndarray, Q: np.ndarray, Y: np.ndarray,
                    kernel: str, *, divisor: np.ndarray | None = None,
                    want_kl: bool = True) -> tuple[float | None, np.ndarray]:
    """KL divergence and its gradient with respect to the coordinates.

    For both kernels the gradient of point i is 4 times the sum over j of
    (p_ij - q_ij)(y_i - y_j), additionally divided by 1 + d_ij^2 under
    the Student-t kernel. A caller that already holds that divisor for Y
    passes it as `divisor`; with want_kl false the KL is not evaluated and
    None stands in its place.
    """
    G = P - Q
    if kernel == "student_t":
        if divisor is None:
            divisor = 1.0 + squared_distances(Y)
        G /= divisor
    elif kernel != "gaussian":
        raise ValueError(f"kernel must be one of {KERNELS}")
    grad = 4.0 * (G.sum(axis=1)[:, None] * Y - G @ Y)
    return (kl_divergence(P, Q) if want_kl else None), grad


def joint_affinities(sq_dists: np.ndarray, perplexity: float) -> np.ndarray:
    """Calibrate every row, conditionalize, and symmetrize."""
    n = sq_dists.shape[0]
    P_cond = np.zeros((n, n))
    for i in range(n):
        sigma = calibrate_sigma(sq_dists[i], perplexity, i)
        P_cond[i] = conditional_affinities(sq_dists[i], sigma, i)
    return symmetrize(P_cond)


def run(X, cfg: TsneConfig, precomputed: bool = False) -> TsneLayout:
    """Embed points into the plane.

    X is an n x F feature matrix, or an n x n matrix of squared distances
    when precomputed is true. The initial layout is drawn from a tight
    Gaussian; each iteration takes a gradient descent step on the KL
    divergence plus a momentum term. Early exaggeration scales P for the
    first exaggeration_iters iterations; the KL trace is always recorded
    against the unexaggerated P.
    """
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        what = "precomputed distances" if precomputed else "X"
        raise ValueError(f"{what} must be finite (found NaN or infinity)")
    if precomputed:
        _check_distances(X)
    d2 = X if precomputed else squared_distances(X)
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
    Q, divisor = _embedding_affinities(Y, cfg.kernel)
    trace = []
    for t in range(1, cfg.iterations + 1):
        P_step = P * cfg.exaggeration if t <= cfg.exaggeration_iters else P
        _, grad = kl_and_gradient(P_step, Q, Y, cfg.kernel, divisor=divisor,
                                  want_kl=False)
        del P_step, Q, divisor  # freed before the next layout's matrices
        step = -cfg.learning_rate * grad + cfg.momentum(t) * (Y - Y_prev)
        Y_prev = Y
        Y = Y + step
        Q, divisor = _embedding_affinities(Y, cfg.kernel)
        trace.append(p_log_p - _sum_p_log(P, Q))
    return TsneLayout(Y, trace[-1], np.asarray(trace))


def _check_distances(d2: np.ndarray) -> None:
    """Reject a precomputed matrix that is not one of squared distances."""
    if d2.ndim != 2 or d2.shape[0] != d2.shape[1]:
        raise ValueError("precomputed distances must be square")
    if np.any(d2 < 0.0):
        raise ValueError("precomputed distances must be non-negative")
    if not np.array_equal(d2, d2.T):
        raise ValueError("precomputed distances must be symmetric")
    if np.any(np.diagonal(d2) != 0.0):
        raise ValueError("precomputed distances must have a zero diagonal")
