"""Collapsed Gibbs sampling for latent Dirichlet allocation.

Topic/word and document/topic count matrices are kept as exact integers;
the sampler resamples one token at a time and updates them in place.
Row-stochastic read-outs (phi for topics over terms, theta for documents
over topics) are computed from counts plus the Dirichlet priors.
Training and fold-in of an unseen document (`infer_theta`, with phi
frozen) run one chain routine for burn-in, thinning and readout, and draw
each topic the same way. Their per-token loops (`gibbs_sweep` and the
sweep inside `infer_theta`) stay separate, because a shared per-token
kernel would add a call or a list to every token of the hottest loop;
tests/test_lda.py pins each to a token-by-token reference.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .corpus import BagOfWords, Corpus, build_corpus


@dataclass
class LdaConfig:
    num_topics: int = 50
    alpha: float | list[float] | None = None  # None -> symmetric 1/num_topics
    beta: float | list[float] = 0.1
    sweeps: int = 100
    burn_in: int = 50
    sample_lag: int = 10
    readout: str = "final_sample"  # or "thinned_average"
    seed: int = 0

    def __post_init__(self):
        if self.num_topics < 1:
            raise ValueError("num_topics must be >= 1")
        if not 0 <= self.burn_in < self.sweeps:
            raise ValueError("burn_in must lie in [0, sweeps)")
        if self.sample_lag < 1:
            raise ValueError("sample_lag must be >= 1")
        if self.readout not in ("final_sample", "thinned_average"):
            raise ValueError("readout must be 'final_sample' or 'thinned_average'")
        self.alpha_vec()  # its length and sign; beta's length needs the vocabulary
        if not np.all(np.asarray(self.beta, dtype=float) > 0):
            raise ValueError("beta entries must be positive")

    def alpha_vec(self) -> np.ndarray:
        if self.alpha is None:
            a = np.full(self.num_topics, 1.0 / self.num_topics)
        elif np.isscalar(self.alpha):
            a = np.full(self.num_topics, float(self.alpha))
        else:
            a = np.asarray(self.alpha, dtype=float)
            if a.shape != (self.num_topics,):
                raise ValueError("alpha vector must have num_topics entries")
        if not np.all(a > 0):
            raise ValueError("alpha entries must be positive")
        return a

    def beta_vec(self, num_terms: int) -> np.ndarray:
        if np.isscalar(self.beta):
            return np.full(num_terms, float(self.beta))
        b = np.asarray(self.beta, dtype=float)
        if b.shape != (num_terms,):
            raise ValueError("beta vector must have one entry per term")
        return b


@dataclass
class LdaState:
    """Topic assignments plus the count matrices they induce."""

    docs: list[np.ndarray]  # token ids per document
    z: list[np.ndarray]  # topic assignment per token position
    n_kt: np.ndarray  # topics x terms
    n_mk: np.ndarray  # documents x topics
    n_k: np.ndarray  # tokens per topic
    n_m: np.ndarray  # tokens per document


@dataclass
class LdaModel:
    phi: np.ndarray  # topics x terms, rows sum to 1
    theta: np.ndarray  # documents x topics, rows sum to 1
    config: LdaConfig
    terms: list[str]
    doc_topic_counts: np.ndarray  # final-state n_mk, for unnormalized export


@dataclass
class GeneratorConfig:
    """Settings for drawing a synthetic corpus from the generative process."""

    num_topics: int
    vocab_size: int
    num_docs: int
    alpha: float | list[float] = 0.1
    beta: float | list[float] | np.ndarray = 0.1  # scalar, V-vector, or KxV rows
    mean_doc_len: float = 50.0
    seed: int = 0

    def __post_init__(self):
        if self.mean_doc_len <= 0:
            raise ValueError("mean_doc_len must be positive")


def sample_dirichlet(alpha, rng: np.random.Generator,
                     size: int | None = None) -> np.ndarray:
    """Dirichlet draws via normalized Gamma variates.

    Zero components are allowed (the draw puts exactly zero mass there), as
    long as at least one component is positive. Returns one vector, or a
    (size, len(alpha)) matrix of independent draws when size is given.
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha < 0) or not np.any(alpha > 0):
        raise ValueError("alpha must be nonnegative with a positive entry")
    shape = (len(alpha),) if size is None else (size, len(alpha))
    g = rng.gamma(np.broadcast_to(alpha, shape))
    total = g.sum(axis=-1, keepdims=True)
    while np.any(total == 0.0):  # possible for very small positive alphas
        redo = np.broadcast_to(total == 0.0, shape)
        g[redo] = rng.gamma(np.broadcast_to(alpha, shape)[redo])
        total = g.sum(axis=-1, keepdims=True)
    return g / total


def _categorical(cum_probs: np.ndarray, u: float) -> int:
    k = int(np.searchsorted(cum_probs, u, side="right"))
    k = min(k, len(cum_probs) - 1)
    # rounding overshoot (u >= final cumsum) must not land on a zero-width
    # segment, i.e. an outcome with probability exactly 0
    while k > 0 and cum_probs[k] == cum_probs[k - 1]:
        k -= 1
    return k


def init_state(corpus: Corpus, cfg: LdaConfig, rng: np.random.Generator) -> LdaState:
    """Assign every token a uniform-random topic and tally the counts."""
    if corpus.num_docs == 0:
        raise ValueError("corpus is empty")
    K = cfg.num_topics
    V = corpus.num_terms
    M = corpus.num_docs
    docs = [doc.tokens for doc in corpus.docs]
    z = [rng.integers(K, size=len(toks)) for toks in docs]
    n_kt = np.zeros((K, V), dtype=np.int64)
    n_mk = np.zeros((M, K), dtype=np.int64)
    for m, (toks, zs) in enumerate(zip(docs, z)):
        for t, k in zip(toks, zs):
            n_kt[k, t] += 1
            n_mk[m, k] += 1
    return LdaState(docs, z, n_kt, n_mk, n_kt.sum(axis=1), n_mk.sum(axis=1))


def _conditional(state: LdaState, m: int, t: int,
                 alpha: np.ndarray, beta_t: float, beta_sum: float) -> np.ndarray:
    # counts must already exclude the token being resampled
    p = (state.n_kt[:, t] + beta_t) / (state.n_k + beta_sum) * (state.n_mk[m] + alpha)
    return p / p.sum()


def full_conditional(state: LdaState, m: int, n: int, cfg: LdaConfig) -> np.ndarray:
    """Resampling distribution over topics for token n of document m.

    The caller must have removed that token from the counts first (the
    usual decrement/sample/increment cycle). The document-side denominator
    is constant across topics and is dropped before normalization.
    """
    alpha = cfg.alpha_vec()
    beta = cfg.beta_vec(state.n_kt.shape[1])
    t = int(state.docs[m][n])
    return _conditional(state, m, t, alpha, float(beta[t]), float(beta.sum()))


def gibbs_sweep(state: LdaState, cfg: LdaConfig, rng: np.random.Generator) -> LdaState:
    """One pass over every token in document order: decrement, resample
    from the full conditional, increment.

    The conditional is evaluated inline on Python lists, unnormalised: its
    running sum is searched at u times the total, with one uniform u per
    token (drawn per document in a single `rng.random(len(doc))` call, which
    yields the same stream as one call per token). The counts are copied out
    once per sweep and written back into the state's own arrays, and the
    new assignments into `state.z[m]`. tests/test_lda.py checks that a sweep
    draws exactly the topics of a token-by-token reference sweep built on
    `full_conditional`.
    """
    alpha = cfg.alpha_vec().tolist()
    beta_vec = cfg.beta_vec(state.n_kt.shape[1])
    beta = beta_vec.tolist()
    beta_sum = float(beta_vec.sum())
    topics = range(len(alpha))
    last = len(alpha) - 1
    n_tk = state.n_kt.T.tolist()  # one count list per term
    n_k = state.n_k.tolist()
    for m, (toks, zs) in enumerate(zip(state.docs, state.z)):
        n_mk = state.n_mk[m].tolist()
        z_m = zs.tolist()
        uniforms = rng.random(len(toks)).tolist()
        for n, t in enumerate(toks.tolist()):
            k = z_m[n]
            n_t = n_tk[t]
            n_t[k] -= 1
            n_mk[k] -= 1
            n_k[k] -= 1
            b = beta[t]
            total = 0.0
            cum = []
            for j in topics:
                total += (n_t[j] + b) / (n_k[j] + beta_sum) * (n_mk[j] + alpha[j])
                cum.append(total)
            # alpha, beta > 0 make every segment positive; only rounding of
            # u * total can reach past the last one
            k = min(bisect_right(cum, uniforms[n] * total), last)
            z_m[n] = k
            n_t[k] += 1
            n_mk[k] += 1
            n_k[k] += 1
        zs[:] = z_m
        state.n_mk[m] = n_mk
    state.n_kt[...] = np.array(n_tk, dtype=np.int64).T
    state.n_k[...] = n_k
    return state


def estimate_phi_theta(state: LdaState, cfg: LdaConfig) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed row-stochastic read-outs from the current counts."""
    alpha = cfg.alpha_vec()
    beta = cfg.beta_vec(state.n_kt.shape[1])
    phi = (state.n_kt + beta) / (state.n_k + beta.sum())[:, None]
    theta = (state.n_mk + alpha) / (state.n_m + alpha.sum())[:, None]
    return phi, theta


def _run_chain(cfg: LdaConfig, sweep, estimate) -> list[np.ndarray]:
    """Run `sweep()` cfg.sweeps times and read out `estimate()`, a tuple of
    arrays.

    Sweeps up to and including burn_in are discarded. With the
    'thinned_average' readout the estimates of every sample_lag-th
    post-burn-in sweep are averaged; with 'final_sample', or when no sweep
    was kept, the estimate is taken from the last state.
    """
    acc = None
    n_samples = 0
    for n in range(1, cfg.sweeps + 1):
        sweep()
        if (cfg.readout == "thinned_average" and n > cfg.burn_in
                and (n - cfg.burn_in) % cfg.sample_lag == 0):
            est = estimate()
            acc = est if acc is None else [a + e for a, e in zip(acc, est)]
            n_samples += 1
    if n_samples == 0:
        return list(estimate())
    return [a / n_samples for a in acc]


def train(corpus: Corpus, cfg: LdaConfig) -> LdaModel:
    """Run the Gibbs chain and read out phi and theta.

    Averaging under 'thinned_average' is subject to topic label switching
    across samples, which is why the final sample is the default.
    """
    rng = np.random.default_rng(cfg.seed)
    state = init_state(corpus, cfg, rng)
    phi, theta = _run_chain(cfg, lambda: gibbs_sweep(state, cfg, rng),
                            lambda: estimate_phi_theta(state, cfg))
    return LdaModel(phi, theta, dataclasses.replace(cfg),
                    list(corpus.vocab.id_to_term), state.n_mk.copy())


def top_words(model: LdaModel, k: int, n: int = 20) -> list[tuple[float, str]]:
    """The n most probable terms of topic k, highest first."""
    if not 0 <= k < model.phi.shape[0]:
        raise IndexError(f"topic index {k} out of range")
    row = model.phi[k]
    order = np.argsort(-row, kind="stable")[:n]
    return [(float(row[t]), model.terms[t]) for t in order]


def format_topics(model: LdaModel, num_words: int = 20) -> str:
    """Plain-text topic dump: a header line per topic, then one
    '%.3f word' line per term, topics separated by blank lines."""
    out = []
    for k in range(model.phi.shape[0]):
        out.append("Topic %d" % k)
        for prob, term in top_words(model, k, num_words):
            out.append("%.3f %s" % (prob, term))
        out.append("")
    return "\n".join(out) + "\n"


def infer_theta(model: LdaModel, doc: BagOfWords, cfg: LdaConfig) -> np.ndarray:
    """Topic mixture for an unseen document, with the topic/term rows frozen.

    Only the new document's assignments are resampled, by the chain and
    readout of `train` and the draw of `gibbs_sweep`, with the columns of
    phi standing in for the topic/term factor of the conditional.
    """
    alpha_vec = cfg.alpha_vec()
    K, V = model.phi.shape
    terms = sorted(doc.counts)
    for t in terms:
        if not 0 <= t < V:
            raise IndexError(f"term id {t} outside model vocabulary")
    tokens = [t for t in terms for _ in range(doc.counts[t])]
    if not tokens:
        return alpha_vec / alpha_vec.sum()

    rng = np.random.default_rng(cfg.seed)
    z = rng.integers(K, size=len(tokens)).tolist()
    n_k = np.bincount(z, minlength=K).tolist()
    # only this document's columns: converting all of phi costs more than
    # a short fold-in
    weights = dict(zip(terms, model.phi[:, terms].T.tolist()))
    alpha = alpha_vec.tolist()
    topics = range(K)
    last = K - 1

    def sweep():
        uniforms = rng.random(len(tokens)).tolist()
        for n, t in enumerate(tokens):
            k = z[n]
            n_k[k] -= 1
            w = weights[t]
            total = 0.0
            cum = []
            for j in topics:
                total += w[j] * (n_k[j] + alpha[j])
                cum.append(total)
            k = min(bisect_right(cum, uniforms[n] * total), last)
            z[n] = k
            n_k[k] += 1

    def estimate():
        return ((np.array(n_k) + alpha_vec) / (len(tokens) + alpha_vec.sum()),)

    theta, = _run_chain(cfg, sweep, estimate)
    return theta


def generate_corpus(gcfg: GeneratorConfig) -> tuple[Corpus, np.ndarray, np.ndarray]:
    """Draw a synthetic corpus from the generative process.

    Topic/term rows come from Dirichlet(beta) (beta may be one row shared by
    all topics or a full topics x terms matrix), document mixtures from
    Dirichlet(alpha), and document lengths from a Poisson with the
    configured mean, resampled to be at least 1. Returns the corpus (terms
    named 'w0'..'w{V-1}') along with the true phi and theta matrices.
    """
    K, V, M = gcfg.num_topics, gcfg.vocab_size, gcfg.num_docs
    rng = np.random.default_rng(gcfg.seed)

    alpha = np.full(K, float(gcfg.alpha)) if np.isscalar(gcfg.alpha) \
        else np.asarray(gcfg.alpha, dtype=float)
    beta = np.asarray(gcfg.beta, dtype=float) if not np.isscalar(gcfg.beta) \
        else np.full(V, float(gcfg.beta))
    if beta.ndim == 1:
        beta_rows = [beta] * K
    else:
        if beta.shape != (K, V):
            raise ValueError("matrix beta must be num_topics x vocab_size")
        beta_rows = list(beta)

    phi = np.stack([sample_dirichlet(row, rng) for row in beta_rows])
    theta = np.stack([sample_dirichlet(alpha, rng) for _ in range(M)])

    lengths = rng.poisson(gcfg.mean_doc_len, size=M)
    while np.any(lengths == 0):
        zero = lengths == 0
        lengths[zero] = rng.poisson(gcfg.mean_doc_len, size=int(zero.sum()))

    cum_phi = np.cumsum(phi, axis=1)
    docs = []
    for m in range(M):
        cum_theta = np.cumsum(theta[m])
        toks = []
        for _ in range(int(lengths[m])):
            k = _categorical(cum_theta, rng.random())
            t = _categorical(cum_phi[k], rng.random())
            toks.append(f"w{t}")
        docs.append(toks)
    labels = [f"doc{m}" for m in range(M)]
    return build_corpus(docs, labels), phi, theta
