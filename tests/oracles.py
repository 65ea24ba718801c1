"""Independent reference implementations used to check the fast paths.

Everything here recomputes results from first principles (exact joint
densities, exhaustive sorts, central finite differences) and deliberately
shares no code with the implementations under test.
"""

import math

import numpy as np

from topicvec.autoencoder import loss
from topicvec.lda import LdaState


# ------------------------------------------------- collapsed joint density

def log_delta(vec):
    """log of the Dirichlet normalizer: sum of lgammas minus lgamma of sum."""
    return sum(math.lgamma(x) for x in vec) - math.lgamma(sum(vec))


def log_joint(docs, z, K, V, alpha, beta):
    """Collapsed joint of assignments and words, recounted from scratch."""
    M = len(docs)
    n_kt = np.zeros((K, V))
    n_mk = np.zeros((M, K))
    for m, (toks, zs) in enumerate(zip(docs, z)):
        for t, k in zip(toks, zs):
            n_kt[k, t] += 1
            n_mk[m, k] += 1
    total = 0.0
    for k in range(K):
        total += log_delta(n_kt[k] + beta) - log_delta(beta)
    for m in range(M):
        total += log_delta(n_mk[m] + alpha) - log_delta(alpha)
    return total


def oracle_conditional(docs, z, m, n, K, V, alpha, beta):
    """Normalize the exact joint over the K choices for one assignment."""
    logs = []
    for k in range(K):
        z_k = [np.array(zs) for zs in z]
        z_k[m][n] = k
        logs.append(log_joint(docs, z_k, K, V, alpha, beta))
    logs = np.array(logs)
    p = np.exp(logs - logs.max())
    return p / p.sum()


def random_micro_instance(rng):
    K = int(rng.integers(1, 4))
    V = int(rng.integers(1, 5))
    M = int(rng.integers(1, 4))
    total = int(rng.integers(M, 11))
    sizes = np.full(M, 1)
    for _ in range(total - M):
        sizes[rng.integers(M)] += 1
    docs = [rng.integers(V, size=s) for s in sizes]
    z = [rng.integers(K, size=s) for s in sizes]
    alpha = rng.uniform(0.05, 2.0, size=K)
    beta = rng.uniform(0.05, 2.0, size=V)
    return docs, z, K, V, alpha, beta


def state_from(docs, z, K, V):
    """A sampler state counted from scratch. It copies `z`, which sweeps
    mutate, so states built from one instance stay independent."""
    M = len(docs)
    n_kt = np.zeros((K, V), dtype=np.int64)
    n_mk = np.zeros((M, K), dtype=np.int64)
    for m, (toks, zs) in enumerate(zip(docs, z)):
        for t, k in zip(toks, zs):
            n_kt[k, t] += 1
            n_mk[m, k] += 1
    return LdaState([np.asarray(d) for d in docs], [np.array(s) for s in z],
                    n_kt, n_mk, n_kt.sum(axis=1), n_mk.sum(axis=1))


def exclude_token(state, m, n):
    k = int(state.z[m][n])
    t = int(state.docs[m][n])
    state.n_kt[k, t] -= 1
    state.n_mk[m, k] -= 1
    state.n_k[k] -= 1


# ------------------------------------------------------ direct formulas

def tf_idf(term, doc, corpus):
    """Term frequency in the document times ln(D / document frequency),
    for one (term, document) pair: the oracle for `corpus.term_scores`."""
    if term not in corpus.vocab.term_to_id:
        raise KeyError(f"unknown term: {term!r}")
    t = corpus.vocab.term_to_id[term]
    f_td = int(np.count_nonzero(corpus.docs[doc].tokens == t))
    if f_td == 0:
        return 0.0
    return f_td * math.log(corpus.num_docs / int(corpus.vocab.doc_freq[t]))


def predict_distribution(h, model):
    """Softmax over the vocabulary logits b + U h of a doc2vec model."""
    logits = model.b + model.U @ h
    e = np.exp(logits - logits.max())
    return e / e.sum()


# ----------------------------------------------------- finite differences

def finite_difference_net_grads(net, x, target, eps=1e-4):
    """Central differences of the squared-error loss for every parameter."""
    grad_w = [np.zeros_like(w) for w in net.weights]
    grad_b = [np.zeros_like(b) for b in net.biases]
    for arrs, grads in ((net.weights, grad_w), (net.biases, grad_b)):
        for l, arr in enumerate(arrs):
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + eps
                up = loss(net, x, target)
                arr[idx] = orig - eps
                down = loss(net, x, target)
                arr[idx] = orig
                grads[l][idx] = (up - down) / (2 * eps)
    return grad_w, grad_b


def max_rel_err(analytic, numeric, floor=1e-3):
    """Worst componentwise relative error; tiny values compare absolutely."""
    worst = 0.0
    for a, f in zip(analytic, numeric):
        a, f = np.asarray(a), np.asarray(f)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


# ------------------------------------------------------- exhaustive search

def knn_oracle_distances(matrix, q, metric):
    """Distance of every row to q, written independently of the search module."""
    out = []
    for row in matrix:
        if metric == "cosine":
            d = 1.0 - np.dot(row, q) / (np.linalg.norm(row) * np.linalg.norm(q))
        else:
            d = float(np.linalg.norm(row - q))
        out.append(0.0 if abs(d) <= 1e-12 else d)
    return out


def knn_sort_oracle(matrix, q, metric):
    """Full distance sort: row indices by distance, ties to the lower index."""
    d = knn_oracle_distances(matrix, q, metric)
    return sorted(range(len(d)), key=lambda i: (d[i], i))


# ------------------------------------------------------------ exact t-SNE

def _reference_squared_distances(X):
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def _reference_conditional(sq_row, sigma, self_index):
    logits = -np.asarray(sq_row, dtype=float) / (2.0 * sigma * sigma)
    logits[self_index] = -np.inf
    logits -= logits.max()
    p = np.exp(logits)
    return p / p.sum()


def _reference_entropy_bits(p_row):
    nz = p_row[p_row > 0]
    return float(np.log2(2.0 ** (-np.sum(nz * np.log2(nz)))))


def reference_calibrate_sigma(sq_row, perp, self_index, tol=1e-5,
                              max_bisections=50):
    """Perplexity search that normalizes the whole row for every sigma it
    tries and takes the entropy of the normalized probabilities: the
    oracle for `tsne.calibrate_sigma`, with the same bracketing and
    bisection."""
    target = np.log2(perp)

    def achieved(sigma):
        return _reference_entropy_bits(
            _reference_conditional(sq_row, sigma, self_index))

    sigma = 1.0
    h = achieved(sigma)
    if abs(h - target) < tol:
        return sigma
    if h < target:
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


def _reference_q(Y, kernel):
    d2 = _reference_squared_distances(Y)
    num = 1.0 / (1.0 + d2) if kernel == "student_t" else np.exp(-d2)
    np.fill_diagonal(num, 0.0)
    Q = np.maximum(num / num.sum(), 1e-12)
    np.fill_diagonal(Q, 0.0)
    return Q


def _reference_kl(P, Q):
    mask = P > 0
    return float(np.sum(P[mask] * np.log(P[mask] / Q[mask])))


def reference_tsne_run(X, cfg, precomputed=False):
    """Exact t-SNE written plainly: the oracle for `tsne.run`.

    Each iteration recomputes the layout's distances for the gradient,
    forms it with a dense diagonal matrix, and takes the KL with boolean
    masks. Returns (Y, kl_trace).
    """
    X = np.asarray(X, dtype=float)
    d2 = X if precomputed else _reference_squared_distances(X)
    n = d2.shape[0]
    P_cond = np.zeros((n, n))
    for i in range(n):
        sigma = reference_calibrate_sigma(d2[i], cfg.perplexity, i)
        P_cond[i] = _reference_conditional(d2[i], sigma, i)
    P = np.maximum((P_cond + P_cond.T) / (2.0 * n), 1e-12)
    np.fill_diagonal(P, 0.0)

    rng = np.random.default_rng(cfg.seed)
    Y = rng.normal(0.0, 1e-2, size=(n, 2))
    Y_prev = Y.copy()
    Q = _reference_q(Y, cfg.kernel)
    trace = []
    for t in range(1, cfg.iterations + 1):
        P_step = P * cfg.exaggeration if t <= cfg.exaggeration_iters else P
        G = P_step - Q
        if cfg.kernel == "student_t":
            G = G / (1.0 + _reference_squared_distances(Y))
        grad = 4.0 * (np.diag(G.sum(axis=1)) @ Y - G @ Y)
        step = -cfg.learning_rate * grad + cfg.momentum(t) * (Y - Y_prev)
        Y_prev = Y
        Y = Y + step
        Q = _reference_q(Y, cfg.kernel)
        trace.append(_reference_kl(P, Q))
    return Y, np.asarray(trace)
