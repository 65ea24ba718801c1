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
