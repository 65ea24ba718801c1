"""Independent reference implementations used to check the fast paths.

Everything here recomputes results from first principles (exact joint
densities, exhaustive sorts, central finite differences) and deliberately
shares no code with the implementations under test. The doc2vec references
keep the plain per-instance step and update loop and build their instances
by positions; `reference_train` takes only its model initialization and
the documents' model ids from `topicvec.doc2vec`. `packed_joint` takes
only the block layout of packed P, `_triangle_blocks`, from
`topicvec.tsne`.
"""

import math

import numpy as np

from topicvec import doc2vec, tsne
from topicvec.autoencoder import loss
from topicvec.lda import LdaState
from topicvec.neighbors import NeighborList


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


def bucket_masses(state, m, n, alpha, beta):
    """The SparseLDA split of token n of document m, recomputed from the
    current counts (which must already exclude the token): the K-vectors
    s, r and q with s + r + q = (n_tk + beta_t) (n_mk + alpha_k) / n_k',
    where n_k' = n_k + sum(beta)."""
    t = int(state.docs[m][n])
    inv = 1.0 / (state.n_k + beta.sum())
    s = beta[t] * alpha * inv
    r = beta[t] * state.n_mk[m] * inv
    q = state.n_kt[:, t] * (state.n_mk[m] + alpha) * inv
    return s, r, q


def reference_sparse_sweep(state, cfg, rng):
    """Token-by-token sweep in SparseLDA's draw order: exclude the token,
    lay out its q, r and s masses in that order, each over the topics in
    ascending order, draw by inverse CDF with one `rng.random()`, and add
    the token back. Zero masses are zero-width segments; a uniform that
    rounding carries past the last segment takes the last positive one."""
    alpha = cfg.alpha_vec()
    beta = cfg.beta_vec(state.n_kt.shape[1])
    K = len(alpha)
    for m, (toks, zs) in enumerate(zip(state.docs, state.z)):
        for n in range(len(toks)):
            exclude_token(state, m, n)
            s, r, q = bucket_masses(state, m, n, alpha, beta)
            masses = np.concatenate([q, r, s])
            cum = np.cumsum(masses / masses.sum())
            i = int(np.searchsorted(cum, rng.random(), side="right"))
            if i == len(cum):
                i = int(np.flatnonzero(masses)[-1])
            k = i % K
            zs[n] = k
            state.n_kt[k, int(toks[n])] += 1
            state.n_mk[m, k] += 1
            state.n_k[k] += 1


def reference_sparse_infer_theta(model, doc, cfg):
    """Token-by-token fold-in with phi frozen, in the two-bucket draw order:
    exclude the token from the document's counts n_k, lay out the sparse
    masses phi[:, t] * n_k and then the dense masses phi[:, t] * alpha, each
    over the topics in ascending order, draw by inverse CDF with one
    uniform, and add the token back; then the readout rule of train, written
    out. Zero masses are zero-width segments; a uniform that rounding
    carries past the last segment takes topic K - 1."""
    alpha = cfg.alpha_vec()
    K = model.phi.shape[0]
    tokens = [t for t in sorted(doc.counts) for _ in range(doc.counts[t])]
    if not tokens:
        return alpha / alpha.sum()
    rng = np.random.default_rng(cfg.seed)
    z = rng.integers(K, size=len(tokens))
    n_k = np.bincount(z, minlength=K).astype(np.int64)
    kept = []
    for sweep in range(1, cfg.sweeps + 1):
        for i, (t, u) in enumerate(zip(tokens, rng.random(len(tokens)))):
            n_k[z[i]] -= 1
            col = model.phi[:, t]
            cum = np.cumsum(np.concatenate([col * n_k, col * alpha]))
            j = min(int(np.searchsorted(cum, u * cum[-1], side="right")), 2 * K - 1)
            z[i] = j % K
            n_k[z[i]] += 1
        if (cfg.readout == "thinned_average" and sweep > cfg.burn_in
                and (sweep - cfg.burn_in) % cfg.sample_lag == 0):
            kept.append((n_k + alpha) / (len(tokens) + alpha.sum()))
    if kept:
        return sum(kept) / len(kept)
    return (n_k + alpha) / (len(tokens) + alpha.sum())


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


# ------------------------------------------------------------ doc2vec step

def hidden_h(doc_vec, context_vecs, mode):
    """pvdm: arithmetic mean of the document vector and all context word
    vectors; pvdbow: the document vector itself."""
    if mode == "pvdbow":
        return doc_vec
    if len(context_vecs) == 0:
        return doc_vec
    return (doc_vec + np.sum(context_vecs, axis=0)) / (1 + len(context_vecs))


def reference_step(model, doc_vec, context_ids, target_id):
    """One doc2vec instance against the exact softmax, written plainly: the
    oracle for `doc2vec.log_prob_and_grads`, with the document vector
    passed in. Returns (log p, gU, gb, grad_doc, grad_ctx)."""
    ctx_vecs = model.W[list(context_ids)] if len(context_ids) else ()
    mode = model.config.mode
    h = hidden_h(doc_vec, ctx_vecs, mode)
    logits = model.b + model.U @ h
    shifted = logits - logits.max()
    e = np.exp(shifted)
    norm = e.sum()
    logp = float(shifted[target_id] - np.log(norm))
    err = -(e / norm)
    err[target_id] += 1.0
    grad_h = model.U.T @ err
    if mode == "pvdbow":
        return logp, np.outer(err, h), err, grad_h, np.zeros_like(grad_h)
    share = 1.0 / (1 + len(context_ids))
    return logp, np.outer(err, h), err, grad_h * share, grad_h * share


def init_model(corpus, cfg):
    """A doc2vec model as `doc2vec.train` starts it under cfg.seed: small
    random word and document vectors and zero softmax parameters, so every
    prediction starts uniform."""
    return doc2vec._init_with_rng(corpus, cfg, np.random.default_rng(cfg.seed))


def reference_instances(model, ids, cfg, rng):
    """One epoch's (context ids, target id) pairs for one document of model
    ids, built the plain way: thin frequent words with the discard table of
    the whole vocabulary, window by positions, and look up each id. It
    draws the same uniforms and target offsets from `rng` in the same order
    as training and fold-in do."""
    discard = np.maximum(0.0, 1.0 - np.sqrt(cfg.subsample / model.term_freq))
    ids = np.asarray(ids, dtype=np.int64)
    toks = ids[rng.random(len(ids)) >= discard[ids]]
    n, w = len(toks), cfg.window
    if n == 0:
        return []
    if model.config.mode == "pvdm":
        windows = [(list(range(max(0, i - w), i))
                    + list(range(i + 1, min(n, i + w + 1))), i)
                   for i in range(n)]
    else:
        span = min(w, n)
        windows = [([], i + int(rng.integers(span)))
                   for i in range(n - span + 1)]
    return [([int(toks[j]) for j in ctx], int(toks[center]))
            for ctx, center in windows]


def reference_train(corpus, cfg):
    """doc2vec training with `reference_step` and one update per parameter
    and per context word: the oracle for `doc2vec.train`."""
    rng = np.random.default_rng(cfg.seed)
    model = doc2vec._init_with_rng(corpus, cfg, rng)
    docs = doc2vec._corpus_model_ids(corpus, model)
    for alpha in doc2vec.epoch_schedule(cfg):
        for m, doc_ids in enumerate(docs):
            for ctx_ids, target in reference_instances(model, doc_ids, cfg, rng):
                _, gU, gb, gdoc, gctx = reference_step(model, model.D[m],
                                                       ctx_ids, target)
                model.U += alpha * gU
                model.b += alpha * gb
                model.D[m] += alpha * gdoc
                for c in ctx_ids:
                    model.W[c] += alpha * gctx
    return model


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

def cosine(a, b):
    """Cosine of the angle between two nonzero vectors."""
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def knn_oracle_distances(matrix, q, metric):
    """Distance of every row to q, written independently of the search module."""
    out = []
    for row in matrix:
        if metric == "cosine":
            d = 1.0 - cosine(row, q)
        else:
            d = float(np.linalg.norm(row - q))
        out.append(0.0 if abs(d) <= 1e-12 else d)
    return out


def knn_sort_oracle(matrix, q, metric):
    """Full distance sort: row indices by distance, ties to the lower index."""
    d = knn_oracle_distances(matrix, q, metric)
    return sorted(range(len(d)), key=lambda i: (d[i], i))


def reference_knn(matrix, query, k, metric):
    """The full-sort search: the oracle for `neighbors.knn`, bit for bit.

    It computes the distances with the same arithmetic as `knn` (the same
    einsum reductions, so it checks the selection, not the distances;
    `knn_oracle_distances` is the independent check of those), sorts all
    n of them stably (ties to the lower index) and scans that order in
    Python to drop the query row, which a row query puts at rank 0."""
    X = np.asarray(matrix, dtype=float)
    if isinstance(query, (int, np.integer)):
        qi, q = int(query), X[int(query)]
    else:
        qi, q = None, np.asarray(query, dtype=float)
    if metric == "cosine":
        norms = np.sqrt(np.einsum("ij,ij->i", X, X))
        qn = np.sqrt(np.einsum("i,i->", q, q))
        dists = 1.0 - np.einsum("ij,j->i", X, q) / (norms * qn)
    else:
        D = X - q
        dists = np.sqrt(np.einsum("ij,ij->i", D, D))
    dists = np.where(np.abs(dists) <= 1e-12, 0.0, dists)
    order = np.argsort(dists, kind="stable")
    if qi is not None:
        picked = [qi] + [i for i in order if i != qi][:k]
    else:
        picked = list(order[:k])
    return NeighborList(qi if qi is not None else q,
                        [(int(i), float(dists[i])) for i in picked])


# ------------------------------------------------------------ exact t-SNE

def reference_squared_distances(X):
    """Pairwise squared Euclidean distances, exact zeros on the diagonal."""
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def reference_conditional(sq_row, sigma, self_index):
    """One row of neighbor probabilities: exp(-d^2 / 2 sigma^2) over all
    other points, normalized to sum to 1, with the self entry at 0."""
    logits = -np.asarray(sq_row, dtype=float) / (2.0 * sigma * sigma)
    logits[self_index] = -np.inf
    logits -= logits.max()
    p = np.exp(logits)
    return p / p.sum()


def reference_symmetrize(P_cond):
    """Joint affinities from the conditional ones, whole-matrix: (P + P^T)
    / 2n, floored at 1e-12, with the diagonal at 0."""
    n = P_cond.shape[0]
    P = np.maximum((P_cond + P_cond.T) / (2.0 * n), 1e-12)
    np.fill_diagonal(P, 0.0)
    return P


def reference_joint_affinities(X, perp, calibrate):
    """The dense n x n joint P of the feature rows X: the oracle for
    `tsne.joint_affinities`. Each row's bandwidth comes from
    `calibrate(sq_row, perp, self_index)`."""
    d2 = reference_squared_distances(np.asarray(X, dtype=float))
    n = d2.shape[0]
    P_cond = np.zeros((n, n))
    for i in range(n):
        sigma = calibrate(d2[i], perp, i)
        P_cond[i] = reference_conditional(d2[i], sigma, i)
    return reference_symmetrize(P_cond)


def dense_joint(P, n):
    """The n x n matrix of a joint P packed as `tsne.joint_affinities`
    returns it: block k holds the rows s:s + m and the columns s:n, where
    s is the number of rows before it; its part right of the square is
    mirrored below the diagonal."""
    dense = np.zeros((n, n))
    s = 0
    for block in P:
        m = block.shape[0]
        assert block.shape == (m, n - s)
        dense[s:s + m, s:] = block
        dense[s + m:, s:s + m] = block[:, m:].T
        s += m
    assert s == n
    return dense


def packed_joint(P):
    """A dense symmetric P cut into the upper-triangle row blocks of
    `tsne._triangle_blocks`, each a contiguous copy: the layout
    `tsne.kl_and_gradient` and `tsne.sum_p_log_p` read."""
    return [np.ascontiguousarray(P[s:e, s:])
            for s, e in tsne._triangle_blocks(P.shape[0])]


def reference_entropy_bits(p_row):
    nz = p_row[p_row > 0]
    return float(np.log2(2.0 ** (-np.sum(nz * np.log2(nz)))))


def reference_calibrate_sigma(sq_row, perp, self_index, tol=1e-5,
                              max_bisections=50):
    """Perplexity search that normalizes the whole row for every sigma it
    tries and takes the entropy of the normalized probabilities, by
    doubling or halving sigma from 1 and then bisecting: the plain search
    that `tsne.calibrate_sigma` must match in how close it comes to the
    target."""
    target = np.log2(perp)

    def achieved(sigma):
        return reference_entropy_bits(
            reference_conditional(sq_row, sigma, self_index))

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


def reference_q(Y, kernel):
    d2 = reference_squared_distances(Y)
    num = 1.0 / (1.0 + d2) if kernel == "student_t" else np.exp(-d2)
    np.fill_diagonal(num, 0.0)
    Q = np.maximum(num / num.sum(), 1e-12)
    np.fill_diagonal(Q, 0.0)
    return Q


def reference_kl(P, Q):
    mask = P > 0
    return float(np.sum(P[mask] * np.log(P[mask] / Q[mask])))


def reference_gradient(P, Y, kernel):
    """KL gradient written plainly: the oracle for `tsne.kl_and_gradient`.

    Recomputes Q and the layout's distances from Y and forms the gradient
    with a dense diagonal matrix."""
    G = P - reference_q(Y, kernel)
    if kernel == "student_t":
        G = G / (1.0 + reference_squared_distances(Y))
    return 4.0 * (np.diag(G.sum(axis=1)) @ Y - G @ Y)


def reference_tsne_run(X, cfg, calibrate=reference_calibrate_sigma):
    """Exact t-SNE written plainly: the oracle for `tsne.run`.

    P comes from `reference_joint_affinities` with `calibrate`. Each
    iteration takes the gradient from `reference_gradient` and the
    KL with boolean masks. Returns (Y, kl_trace).
    """
    P = reference_joint_affinities(X, cfg.perplexity, calibrate)
    n = P.shape[0]
    rng = np.random.default_rng(cfg.seed)
    Y = rng.normal(0.0, 1e-2, size=(n, 2))
    Y_prev = Y.copy()
    trace = []
    for t in range(1, cfg.iterations + 1):
        P_step = P * cfg.exaggeration if t <= cfg.exaggeration_iters else P
        grad = reference_gradient(P_step, Y, cfg.kernel)
        step = -cfg.learning_rate * grad + cfg.momentum(t) * (Y - Y_prev)
        Y_prev = Y
        Y = Y + step
        trace.append(reference_kl(P, reference_q(Y, cfg.kernel)))
    return Y, np.asarray(trace)
