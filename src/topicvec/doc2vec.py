"""Paragraph vectors trained against an exact softmax.

Two modes: pvdm predicts each word from the document vector averaged with
its context word vectors; pvdbow predicts a word sampled from each text
window from the document vector alone. Training ascends the average log
probability by per-instance gradient steps with a multiplicative
learning-rate decay.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus


@dataclass
class Doc2VecConfig:
    dim: int = 50
    window: int = 5
    min_count: int = 5
    mode: str = "pvdm"  # or "pvdbow"
    subsample: float = 1e-5
    alpha0: float = 0.025
    decay: float = 0.99
    alpha_floor: float = 1e-3
    max_epochs: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if self.subsample <= 0:
            raise ValueError("subsample must be positive")
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must lie in (0, 1)")
        if self.mode not in ("pvdm", "pvdbow"):
            raise ValueError("mode must be 'pvdm' or 'pvdbow'")


@dataclass
class EmbeddingModel:
    W: np.ndarray  # word vectors, one row per surviving term
    D: np.ndarray  # document vectors, one row per document
    U: np.ndarray  # softmax weights
    b: np.ndarray  # softmax biases
    config: Doc2VecConfig
    terms: list[str]
    term_to_id: dict[str, int]
    term_freq: np.ndarray  # relative frequency of each surviving term
    labels: list[str]


def epoch_schedule(cfg: Doc2VecConfig) -> list[float]:
    """Learning rate per epoch: alpha0 * decay^e, stopping at the first
    epoch whose rate would fall below alpha_floor (or at max_epochs)."""
    alphas = []
    for e in range(cfg.max_epochs):
        a = cfg.alpha0 * cfg.decay ** e
        if a < cfg.alpha_floor:
            break
        alphas.append(a)
    return alphas


def ngram_spans(tokens, n: int) -> list[tuple[int, ...]]:
    """Positions of every contiguous n-token span."""
    return [tuple(range(i, i + n)) for i in range(len(tokens) - n + 1)]


def build_windows(doc_tokens, window: int, mode: str,
                  rng: np.random.Generator | None = None):
    """Training instances as (context positions, center position) pairs.

    pvdm: every position is a center, with up to `window` context words on
    each side (truncated at the document edges). pvdbow: one target is
    sampled per contiguous window-length span, with an empty context.
    """
    n = len(doc_tokens)
    if n == 0:
        raise ValueError("document is empty")
    if mode == "pvdm":
        out = []
        for i in range(n):
            ctx = tuple(range(max(0, i - window), i)) + \
                tuple(range(i + 1, min(n, i + window + 1)))
            out.append((ctx, i))
        return out
    if mode == "pvdbow":
        if rng is None:
            raise ValueError("pvdbow windowing needs an rng to sample targets")
        span_len = min(window, n)
        out = []
        for span in ngram_spans(doc_tokens, span_len):
            target = span[int(rng.integers(len(span)))]
            out.append(((), target))
        return out
    raise ValueError(f"unknown mode: {mode!r}")


def subsample(tokens, threshold: float, frequencies: np.ndarray,
              rng: np.random.Generator) -> np.ndarray:
    """Randomly thin frequent words: an occurrence of a word with relative
    frequency f survives with probability min(1, sqrt(threshold / f))."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if len(tokens) == 0:
        return tokens
    discard = np.maximum(0.0, 1.0 - np.sqrt(threshold / frequencies))
    keep = rng.random(len(tokens)) >= discard[tokens]
    return tokens[keep]


def hidden_h(doc_vec: np.ndarray, context_vecs, mode: str) -> np.ndarray:
    """pvdm: arithmetic mean of the document vector and all context word
    vectors; pvdbow: the document vector itself."""
    if mode == "pvdbow":
        return doc_vec
    if len(context_vecs) == 0:
        return doc_vec
    return (doc_vec + np.sum(context_vecs, axis=0)) / (1 + len(context_vecs))


def predict_distribution(h: np.ndarray, model: EmbeddingModel) -> np.ndarray:
    """Softmax over the vocabulary logits b + U h."""
    logits = model.b + model.U @ h
    logits = logits - logits.max()
    e = np.exp(logits)
    return e / e.sum()


def log_prob_and_grads(model: EmbeddingModel, doc_index: int,
                       context_ids, target_id: int, mode: str | None = None):
    """Log probability of the target word for one instance, plus ascent
    gradients for U, b, the document vector, and the shared context
    direction (to be split equally among contributing vectors)."""
    mode = mode or model.config.mode
    ctx_vecs = model.W[list(context_ids)] if len(context_ids) else ()
    h = hidden_h(model.D[doc_index], ctx_vecs, mode)
    logits = model.b + model.U @ h
    shifted = logits - logits.max()
    log_norm = np.log(np.sum(np.exp(shifted)))
    logp = float(shifted[target_id] - log_norm)
    p = np.exp(shifted - log_norm)
    err = -p
    err[target_id] += 1.0  # one-hot target minus prediction
    grad_b = err
    grad_U = np.outer(err, h)
    grad_h = model.U.T @ err
    if mode == "pvdbow":
        grad_doc = grad_h
        grad_ctx = np.zeros_like(grad_h)
    else:
        share = 1.0 / (1 + len(context_ids))
        grad_doc = grad_h * share
        grad_ctx = grad_h * share
    return logp, grad_U, grad_b, grad_doc, grad_ctx


def _corpus_model_ids(corpus: Corpus, model: EmbeddingModel) -> list[np.ndarray]:
    """Per-document token lists remapped to model ids, pruned terms dropped."""
    lut = np.full(corpus.num_terms, -1, dtype=np.int64)
    for t, term in enumerate(corpus.vocab.id_to_term):
        if term in model.term_to_id:
            lut[t] = model.term_to_id[term]
    out = []
    for doc in corpus.docs:
        mapped = lut[doc.tokens]
        out.append(mapped[mapped >= 0])
    return out


def _init_with_rng(corpus: Corpus, cfg: Doc2VecConfig,
                   rng: np.random.Generator) -> EmbeddingModel:
    keep = [t for t in range(corpus.num_terms)
            if corpus.vocab.collection_freq[t] >= cfg.min_count]
    if not keep:
        raise ValueError("no term survives min_count pruning")
    terms = [corpus.vocab.id_to_term[t] for t in keep]
    term_to_id = {term: i for i, term in enumerate(terms)}
    counts = corpus.vocab.collection_freq[keep].astype(float)
    term_freq = counts / counts.sum()

    V = len(terms)
    M = corpus.num_docs
    span = 0.5 / cfg.dim
    W = rng.uniform(-span, span, size=(V, cfg.dim))
    D = rng.uniform(-span, span, size=(M, cfg.dim))
    U = np.zeros((V, cfg.dim))
    b = np.zeros(V)
    labels = [doc.label for doc in corpus.docs]
    return EmbeddingModel(W, D, U, b, dataclasses.replace(cfg),
                          terms, term_to_id, term_freq, labels)


def init_model(corpus: Corpus, cfg: Doc2VecConfig) -> EmbeddingModel:
    """Model at initialization: small random word/document vectors, zero
    softmax parameters (so every prediction starts uniform)."""
    return _init_with_rng(corpus, cfg, np.random.default_rng(cfg.seed))


def _train_instances(model, doc_ids, m, alpha, rng):
    cfg = model.config
    toks = subsample(doc_ids, cfg.subsample, model.term_freq, rng)
    if len(toks) == 0:
        return
    for ctx_pos, center in build_windows(toks, cfg.window, cfg.mode, rng):
        ctx_ids = [int(toks[i]) for i in ctx_pos]
        target = int(toks[center])
        _, gU, gb, gdoc, gctx = log_prob_and_grads(model, m, ctx_ids, target)
        model.U += alpha * gU
        model.b += alpha * gb
        model.D[m] += alpha * gdoc
        for c in ctx_ids:
            model.W[c] += alpha * gctx


def train(corpus: Corpus, cfg: Doc2VecConfig) -> EmbeddingModel:
    """Gradient ascent on the average log probability of target words.

    Documents are visited in order within each epoch; the learning rate
    follows epoch_schedule. Single-threaded and fully deterministic for a
    fixed seed.
    """
    if corpus.num_docs == 0:
        raise ValueError("corpus is empty")
    rng = np.random.default_rng(cfg.seed)
    model = _init_with_rng(corpus, cfg, rng)
    docs = _corpus_model_ids(corpus, model)
    for alpha in epoch_schedule(cfg):
        for m, doc_ids in enumerate(docs):
            if len(doc_ids):
                _train_instances(model, doc_ids, m, alpha, rng)
    return model


def avg_log_prob(model: EmbeddingModel, corpus: Corpus) -> float:
    """Mean log probability of the target word over all prediction
    instances, enumerated deterministically: every position is a pvdm
    center (or a pvdbow target), with no subsampling."""
    docs = _corpus_model_ids(corpus, model)
    total = 0.0
    count = 0
    w = model.config.window
    for m, toks in enumerate(docs):
        n = len(toks)
        for i in range(n):
            if model.config.mode == "pvdm":
                ctx = [int(toks[j]) for j in range(max(0, i - w), min(n, i + w + 1))
                       if j != i]
            else:
                ctx = []
            logp, *_ = log_prob_and_grads(model, m, ctx, int(toks[i]))
            total += logp
            count += 1
    if count == 0:
        raise ValueError("corpus has no in-vocabulary tokens")
    return total / count


def infer_vector(model: EmbeddingModel, doc_tokens, cfg: Doc2VecConfig) -> np.ndarray:
    """Vector for an unseen document, optimized with the word vectors and
    softmax parameters frozen.

    Runs the same schedule and instance construction as training, but only
    the fresh document vector receives gradient updates.
    """
    ids = np.asarray([model.term_to_id[t] for t in doc_tokens
                      if t in model.term_to_id], dtype=np.int64)
    if len(ids) == 0:
        raise ValueError("document has no in-vocabulary tokens")
    rng = np.random.default_rng(cfg.seed)
    span = 0.5 / model.config.dim
    v = rng.uniform(-span, span, size=model.config.dim)
    mode = model.config.mode
    for alpha in epoch_schedule(cfg):
        toks = subsample(ids, cfg.subsample, model.term_freq, rng)
        if len(toks) == 0:
            continue
        for ctx_pos, center in build_windows(toks, cfg.window, mode, rng):
            ctx_ids = [int(toks[i]) for i in ctx_pos]
            target = int(toks[center])
            ctx_vecs = model.W[ctx_ids] if ctx_ids else ()
            h = hidden_h(v, ctx_vecs, mode)
            logits = model.b + model.U @ h
            shifted = logits - logits.max()
            p = np.exp(shifted)
            p /= p.sum()
            err = -p
            err[target] += 1.0
            grad_h = model.U.T @ err
            if mode == "pvdm":
                grad_h = grad_h / (1 + len(ctx_ids))
            v += alpha * grad_h
    return v
