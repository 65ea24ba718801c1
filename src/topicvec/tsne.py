"""Exact t-SNE in two dimensions.

High-dimensional affinities are Gaussian with per-point bandwidths found
by a perplexity search, then symmetrized into a joint P. The search is
a safeguarded Newton iteration in log sigma that scores each bandwidth
with one exponential over the row, giving the entropy log Z + beta *
E[d^2] and its slope, with the self entry removed and the nearest
squared distance shifted out; it stops at the first bandwidth whose
entropy is within the tolerance of the target. The
low-dimensional kernel defaults to the Student-t (heavy-tailed) form;
the plain Gaussian kernel is available as an option. Optimization is
plain gradient descent on the KL divergence with a two-stage momentum
schedule and optional early exaggeration.

No n x n array is formed. P is kept as the row blocks of its upper
triangle that the descent reads (below), in one contiguous buffer:
about 4n^2 bytes for large n, 16.4 MiB at n = 2,000 and 2.4 GiB at n =
25,203, where the full matrix takes 8n^2 (a P that fits one block, n <=
362, is stored whole). `joint_affinities` builds it from the feature
rows in two passes over row blocks. Pass 1 forms each block's squared
distances to every point, calibrates its rows and keeps three numbers
per row: 2 sigma^2, the largest logit and the normalizer. Pass 2 forms
each triangle block's distances again and, with those numbers, both
conditional affinities of each pair and their joint value. Under
tracemalloc a whole `run` at n = 2,000 peaks at 0.65 n x n matrices
while it builds P and again in the descent. Each block's distances
come from its own matrix product, which can round them apart from the
Gram matrix of all points; a P that fits one block keeps the
whole-matrix arithmetic.

The descent keeps P and three buffers of one row block each, about
`_BLOCK_ENTRIES` entries. P and the kernel weights are symmetric, so
each iteration forms every unordered pair once: it makes two passes
over row blocks of the upper triangle of the pair matrix, block [s, e)
covering the columns s:n, and recomputes the layout's kernel weights
with one matrix product per block. The first pass sums the normalizer
Z; the second forms the block's Q, its share of sum p log q and its
share of the gradient, for its rows and, through the transpose of the
part right of its square, for the points it pairs them with. A pair
right of the square stands for both of its orders, so it counts twice
in Z and in sum p log q. Early exaggeration scales each block of P as
it is read. The KL is the constant sum p log p, taken once, minus sum
p log q. Both sums are einsum reductions over P's blocks, read in place
with no copy of P. They are not BLAS dot products: OpenBLAS splits a
dot product of that size across its threads, and starting those
threads can make the first run in a fresh process several times as
slow.

`run` takes feature rows. Non-finite input raises ValueError before any
work is done, and identical points before any row is calibrated. A
descent that diverges raises ValueError at the first iteration whose
KL is not finite. The plain references these routines are checked
against, including the whole-matrix joint P, the masked KL, the dense Q
and gradient, and the row entropy, live in the test suite
(`tests/oracles.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_FLOOR = 1e-12
_BLOCK_ENTRIES = 1 << 17  # pair-matrix entries per descent row block (1 MB)
_LN2 = math.log(2.0)
# calibrate_sigma searches log sigma in [-45, 45], and exp(2 * 45) keeps
# beta finite; halving that bracket reaches the float spacing of log sigma
# within 60 steps, so a search that takes 100 has no root inside it
_LOG_SIGMA_BOUND = 45.0
_MAX_STEPS = 100
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
        for name in ("perplexity", "learning_rate", "exaggeration"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def momentum(self, t: int) -> float:
        return self.momentum_initial if t < self.momentum_switch else self.momentum_final


@dataclass
class TsneLayout:
    Y: np.ndarray  # n x 2 coordinates
    kl: float  # final KL divergence against the unexaggerated P
    kl_trace: np.ndarray  # KL after each iteration


def _distance_block(X, sq, s, e, c):
    """Squared distances from the points s:e to the points c:n, for c <= s:
    -2 x_i . x_j + (sq_i + sq_j), clipped at 0, with the self pairs at
    exact zeros. sq holds the squared norms of the rows of X."""
    D = X[s:e] @ X[c:].T
    D *= -2.0
    D += sq[s:e, None] + sq[None, c:]
    np.maximum(D, 0.0, out=D)
    D.ravel()[s - c::D.shape[1] + 1] = 0.0
    return D


def calibrate_sigma(sq_row, perp: float, self_index: int,
                    tol: float = 1e-5) -> float:
    """Bandwidth whose neighbor distribution has the requested perplexity:
    its entropy lies within tol bits of log2(perp).

    With beta = 1 / 2 sigma^2, the squared distances d to the other points
    shifted so the nearest is 0 and w = exp(-beta d), one product of w
    with the rows 1, d and d^2 gives the entropy H = (log(sum w) + beta
    sum(w d) / sum(w)) / ln 2, equal up to rounding to the entropy of the
    neighbor probabilities w / sum(w), and its slope in u = log
    sigma, 2 beta^2 Var_w(d) / ln 2. Newton steps in u start where sigma^2
    is the ceil(perp)-th nearest distance over e^2 and are clamped to 2.
    The loop keeps a bracket of u, from [-45, 45], on the points it has
    seen, and bisects it when a step leaves it or |H - log2(perp)| fails
    to halve; it returns exp(u) once |H - log2(perp)| < tol, or after
    100 steps, which only a root beyond the bracket takes (squared
    distances of order 1e39 and above, or 1e-39 and below): sigma then
    ends near e^45 or e^-45.

    H rises with sigma from log2 of the number of points at the nearest
    distance (sigma -> 0) to log2 of the number of other points (sigma ->
    inf). A row whose target lies outside that range has no root and gets
    its limit bandwidth without a search: e^45, a uniform row, when perp
    is at or above the number of other points; e^-45, all mass on the
    nearest points, when perp <= 1 or at least perp points tie at the
    nearest distance.
    """
    d = np.delete(np.asarray(sq_row, dtype=float), self_index)
    d -= d.min()
    n = len(d)
    if perp >= n:
        return math.exp(_LOG_SIGMA_BOUND)
    k = math.ceil(perp) - 1
    dk = float(np.partition(d, k)[k]) if perp > 1.0 else 0.0
    if dk == 0.0:  # perp <= 1, or perp or more points at the nearest distance
        return math.exp(-_LOG_SIGMA_BOUND)
    target = math.log2(perp)
    rows = np.empty((3, n))
    rows[0] = 1.0
    rows[1] = d
    np.multiply(d, d, out=rows[2])
    lo, hi = -_LOG_SIGMA_BOUND, _LOG_SIGMA_BOUND
    u = min(max(0.5 * math.log(dk) - 1.0, lo), hi)
    last = math.inf
    for _ in range(_MAX_STEPS):
        beta = 0.5 * math.exp(-2.0 * u)
        z, s1, s2 = (rows @ np.exp(d * -beta)).tolist()
        mean = s1 / z
        err = (math.log(z) + beta * mean) / _LN2 - target
        if abs(err) < tol:
            break
        if err < 0.0:
            lo = u
        else:
            hi = u
        # Python floats: dividing by a tiny slope gives inf, not a warning
        slope = 2.0 * beta * beta * (s2 / z - mean * mean) / _LN2
        step = -err / slope if slope > 0.0 else math.copysign(2.0, -err)
        nxt = u + max(-2.0, min(2.0, step))
        if not lo < nxt < hi or abs(err) > 0.5 * last:
            nxt = 0.5 * (lo + hi)
        u, last = nxt, abs(err)
    return math.exp(u)


def _row_blocks(n: int) -> list:
    rows = max(1, _BLOCK_ENTRIES // n)
    return [(s, min(s + rows, n)) for s in range(0, n, rows)]


def sum_p_log_p(P) -> float:
    """Sum of p_ij log p_ij over i != j: the part of the KL divergence that
    does not depend on the layout. P is packed as `joint_affinities`
    returns it and must be positive off the diagonal. Each stored block
    is logged once, in one buffer, and the part right of its square
    counts twice, for its mirror image: about half the logarithms of a
    pass over P's full rows."""
    total = 0.0
    buf = np.empty(max(Pb.size for Pb in P))
    for Pb in P:
        L = buf[:Pb.size].reshape(Pb.shape)
        L[...] = Pb
        total += _block_sum_p_log(Pb, L)
    return total


def _block_sum_p_log(Pb, L):
    """Sum of p log l over the pairs of one packed block of P, with L an
    array of the block's shape that is logged in place: its self pairs
    are set to 1 (log 1 = 0) first, and the part right of the square
    counts twice, for its mirror image."""
    m, w = Pb.shape
    L.ravel()[::w + 1] = 1.0
    np.log(L, out=L)
    return (float(np.einsum("ij,ij->", Pb[:, :m], L[:, :m]))
            + 2.0 * float(np.einsum("ij,ij->", Pb[:, m:], L[:, m:])))


def _pair_factors(Y, kernel):
    """Factors A (n x 4) and B (4 x n) of the layout with A @ B = 1 + d^2
    under the Student-t kernel and -d^2 under the Gaussian one, so that
    one matrix product gives a block of either."""
    sq = np.einsum("ij,ij->i", Y, Y)
    ones = np.ones_like(sq)
    B = np.vstack([Y.T, sq, ones])
    if kernel == "student_t":
        A = np.column_stack([-2.0 * Y, ones, sq + 1.0])
    else:
        A = np.column_stack([2.0 * Y, -ones, -sq])
    return A, B


def _triangle_blocks(n: int) -> list:
    """Row blocks [s, e) of the upper triangle of the pair matrix. Block
    [s, e) covers the columns s:n, and holds (e - s)(n - s) entries, at
    most `_BLOCK_ENTRIES` unless it is a single row; rows get wider blocks
    as s grows."""
    blocks, s = [], 0
    while s < n:
        e = min(n, s + max(1, _BLOCK_ENTRIES // (n - s)))
        blocks.append((s, e))
        s = e
    return blocks


def _kernel_weights(A, B, s, e, kernel, W):
    """Unnormalized weights between the layout rows s:e and the points
    s:n, 1 / (1 + d^2) or exp(-d^2), with the self pairs at 0, written
    into the (e - s) x (n - s) array W."""
    np.matmul(A[s:e], B[:, s:], out=W)
    if kernel == "student_t":
        np.maximum(W, 1.0, out=W)
        np.reciprocal(W, out=W)
    else:
        np.minimum(W, 0.0, out=W)
        np.exp(W, out=W)
    W.ravel()[::W.shape[1] + 1] = 0.0
    return W


def _kl_blocks(P, p_log_p, Y, kernel, exaggeration):
    """KL divergence of the layout's Q from P and, unless exaggeration is
    None, the gradient under exaggeration * P.

    Each unordered pair is formed once, in the row blocks of
    `_triangle_blocks`: block [s, e) holds the square part of its rows on
    the diagonal, with both orders of its pairs, and the part to its
    right, which stands for its mirror image too. The first pass sums
    the normalizer Z, counting the right parts twice; the second forms
    each block of Q = max(w / Z, 1e-12), adds its share of sum p log q,
    again counting the right part twice, and accumulates the gradient:
    the rows s:e take the block's product with the layout, and the
    points e:n the transposed product of its right part. Both passes
    work in three block buffers taken once per call, and the first pass
    ends on the first block, whose weights the second pass reuses. (With
    fresh arrays for every block and no reuse, an n = 200 call took 2.7
    times as long: new arrays cost page faults.) A single block is the
    whole matrix, with whole-matrix arithmetic.
    """
    n = Y.shape[0]
    A, B = _pair_factors(Y, kernel)
    blocks = _triangle_blocks(n)
    bufs = np.empty((3, max((e - s) * (n - s) for s, e in blocks)))

    def views(s, e):  # the three buffers as (e - s) x (n - s) arrays
        return bufs[:, :(e - s) * (n - s)].reshape(3, e - s, n - s)

    Z = 0.0
    for s, e in reversed(blocks):
        W = _kernel_weights(A, B, s, e, kernel, views(s, e)[0])
        Z += float(W.sum()) + float(W[:, e - s:].sum())
    Y1 = np.column_stack([Y, np.ones(n)])  # G @ Y1 holds G @ Y and G's row sums
    R = None if exaggeration is None else np.zeros((n, 3))
    p_log_q = 0.0
    for (s, e), Pb in zip(blocks, P):
        W, Q, G = views(s, e)
        m = e - s  # the square part is [:, :m], the right part [:, m:]
        if s:
            _kernel_weights(A, B, s, e, kernel, W)
        # a diverged layout can underflow every weight; the 0 / 0 NaNs then
        # make run() stop at a non-finite KL
        with np.errstate(invalid="ignore"):
            np.divide(W, Z, out=Q)
        np.maximum(Q, _FLOOR, out=Q)
        if R is not None:
            Q.ravel()[::n - s + 1] = 0.0  # the self pairs
            np.multiply(Pb, exaggeration, out=G)
            G -= Q
            if kernel == "student_t":
                G *= W  # (p - q) / (1 + d^2)
            R[s:e] += G @ Y1[s:]
            R[e:] += G[:, m:].T @ Y1[s:e]
        # the gradient is done with Q: take log Q in place (with one block,
        # the whole matrix)
        p_log_q += _block_sum_p_log(Pb, Q)
    grad = None if R is None else 4.0 * (R[:, 2:] * Y - R[:, :2])
    return p_log_p - p_log_q, grad


def kl_and_gradient(P: list, p_log_p: float, Y: np.ndarray, kernel: str,
                    exaggeration: float):
    """KL divergence of the layout Y and its gradient, as (kl, grad).

    The KL is taken against P and p_log_p = sum_p_log_p(P). The gradient
    is taken under exaggeration * P: the gradient of point i is 4 times
    the sum over j of (p_ij - q_ij)(y_i - y_j), divided by 1 + d_ij^2
    under the Student-t kernel. No n x n array is formed.

    P is packed as `joint_affinities` returns it: the row blocks of
    `_triangle_blocks(n)`, block [s, e) holding P[s:e, s:], its square
    part P[s:e, s:e] with both orders of each pair and exactly symmetric.
    Only this upper triangle, P[i, j] with j >= i, is stored or read:
    about 4n^2 bytes for large n, 16.4 MiB at n = 2,000.
    """
    return _kl_blocks(P, p_log_p, Y, kernel, exaggeration)


def joint_affinities(X: np.ndarray, perplexity: float) -> list:
    """Joint affinities of the feature rows X, packed as the descent reads
    them: a list of the row blocks of `_triangle_blocks(n)`, block [s, e)
    an (e - s) x (n - s) array holding P[s:e, s:], all views into one
    contiguous buffer. No n x n array is formed.

    Pass 1 walks the row blocks of `_row_blocks(n)`, forms each block's
    squared distances to every point (`_distance_block`), calibrates
    each row with `calibrate_sigma` and keeps, per row, only 2 sigma^2,
    its largest logit and the normalizer of its conditional affinities.
    Pass 2 forms each triangle block's distances again and, with those
    numbers, p_j|i = exp(-d_ij^2 / 2 sigma_i^2 - top_i) / norm_i (top_i
    the largest logit of row i) and p_i|j likewise, and stores (p_j|i +
    p_i|j) / 2n floored at 1e-12, with the self pairs at 0; the square
    part of each block takes its distances from its upper triangle, so P
    is exactly symmetric. Identical points (no squared distance above 0)
    raise ValueError before any row is calibrated.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    sq = np.sum(X * X, axis=1)
    rows = np.empty((3, n))  # per row: 2 sigma^2, largest logit, normalizer
    scale, top, norm = rows
    blocks = _row_blocks(n)
    for s, e in blocks:
        D = _distance_block(X, sq, s, e, 0)
        # all distances are 0 only if the first block's are
        if s == 0 and D.max() == 0.0 and all(
                _distance_block(X, sq, a, b, 0).max() == 0.0
                for a, b in blocks[1:]):
            raise ValueError("degenerate input: all points are identical")
        for i in range(s, e):
            sigma = calibrate_sigma(D[i - s], perplexity, i)
            scale[i] = 2.0 * sigma * sigma
        np.divide(D, -scale[s:e, None], out=D)  # the logits, in place
        D.ravel()[s::n + 1] = -np.inf
        top[s:e] = D.max(axis=1)
        D -= top[s:e, None]
        np.exp(D, out=D)
        norm[s:e] = D.sum(axis=1)
    triangle = _triangle_blocks(n)
    buf = np.empty(sum((e - s) * (n - s) for s, e in triangle))
    P, at = [], 0
    for s, e in triangle:
        Pb = buf[at:at + (e - s) * (n - s)].reshape(e - s, n - s)
        at += Pb.size
        D = _distance_block(X, sq, s, e, s)
        # a gemm need not round d_ij and d_ji alike: mirror the upper
        # triangle of the square part, so that P is exactly symmetric
        square, lower = D[:, :e - s], np.tril_indices(e - s, -1)
        square[lower] = square.T[lower]
        # p_j|i into Pb with the numbers of the rows s:e, then p_i|j over D
        # with those of the columns s:n; self pairs on the diagonal
        for out, cut in ((Pb, np.s_[:, s:e, None]), (D, np.s_[:, None, s:])):
            scale, top, norm = rows[cut]
            np.divide(D, -scale, out=out)
            out.ravel()[::n - s + 1] = -np.inf
            out -= top
            np.exp(out, out=out)
            out /= norm
        Pb += D
        Pb /= 2.0 * n
        np.maximum(Pb, _FLOOR, out=Pb)
        Pb.ravel()[::n - s + 1] = 0.0
        P.append(Pb)
    return P


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
    n = X.shape[0]
    if n <= cfg.perplexity + 1:
        raise ValueError("need more points than perplexity + 1")
    P = joint_affinities(X, cfg.perplexity)  # raises on identical points
    del X  # the descent needs only P
    p_log_p = sum_p_log_p(P)
    rng = np.random.default_rng(cfg.seed)
    Y = rng.normal(0.0, 1e-2, size=(n, 2))
    Y_prev = Y.copy()
    trace = []

    def record(kl, t):  # the KL after step t
        if not math.isfinite(kl):
            raise ValueError(f"t-SNE diverged: the KL divergence is not finite "
                             f"at iteration {t} with learning_rate "
                             f"{cfg.learning_rate}")
        trace.append(kl)

    for t in range(1, cfg.iterations + 1):
        exaggeration = cfg.exaggeration if t <= cfg.exaggeration_iters else 1.0
        kl, grad = kl_and_gradient(P, p_log_p, Y, cfg.kernel, exaggeration)
        if t > 1:
            record(kl, t - 1)
        step = -cfg.learning_rate * grad + cfg.momentum(t) * (Y - Y_prev)
        Y_prev = Y
        Y = Y + step
    record(_kl_blocks(P, p_log_p, Y, cfg.kernel, None)[0], cfg.iterations)
    return TsneLayout(Y, trace[-1], np.asarray(trace))
