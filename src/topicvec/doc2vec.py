"""Paragraph vectors trained against an exact softmax.

Two modes: pvdm predicts each word from the document vector averaged with
its context word vectors; pvdbow predicts a word sampled from each text
window from the document vector alone. Training ascends the average log
probability by per-instance gradient steps with a multiplicative
learning-rate decay. Training, fold-in (`infer_vector`) and
`avg_log_prob` share one fused forward/backward step, and training and
fold-in take each epoch's instances, windows of model ids, from one
routine.

The step makes few numpy calls per instance, because at small
vocabularies the call overhead outweighs the arithmetic: one gathered
context sum, the softmax in place on one V-vector, and in pvdm one
gradient array for the document and its context words. The U gradient
err h^T is one k = 1 matrix product (V x 1 by 1 x dim), which training
writes into one V x dim buffer kept for the run and scales in place
before adding it to U. Training adds the context step to the context
rows with one `np.add.at`, which adds a word repeated in the window once
per occurrence, in order. The results are bit for bit those of the
plain step and update loop in the test suite (`tests/oracles.py`),
which forms the U gradient with `np.outer`. The product may drop the
sign of a zero entry where `np.outer` keeps it; U cannot see that,
since it starts at +0.0 and an IEEE sum is -0.0 only when both terms
are, so D, W, U and b keep their bytes.
"""

from __future__ import annotations

import dataclasses
import math
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
        for name in ("subsample", "alpha0", "alpha_floor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
        if self.alpha_floor > self.alpha0:
            raise ValueError("alpha_floor must not exceed alpha0 "
                             "(no epoch would run)")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
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


def build_windows(doc_tokens, window: int, mode: str,
                  rng: np.random.Generator | None = None):
    """Training instances as (context tokens, target token) pairs, taken
    from the list `doc_tokens` itself (model ids in training and fold-in).

    pvdm: every token is a target, with up to `window` context tokens on
    each side (truncated at the document edges). pvdbow: one target is
    sampled per contiguous window-length span, with an empty context.
    """
    toks = list(doc_tokens)
    n = len(toks)
    if n == 0:
        raise ValueError("document is empty")
    if mode == "pvdm":
        return [(toks[max(0, i - window):i] + toks[i + 1:i + window + 1],
                 toks[i]) for i in range(n)]
    if mode == "pvdbow":
        if rng is None:
            raise ValueError("pvdbow windowing needs an rng to sample targets")
        span_len = min(window, n)
        return [([], toks[i + int(rng.integers(span_len))])
                for i in range(n - span_len + 1)]
    raise ValueError(f"unknown mode: {mode!r}")


def subsample(tokens, threshold: float, frequencies: np.ndarray,
              rng: np.random.Generator) -> np.ndarray:
    """Randomly thin frequent words: an occurrence of a word with relative
    frequency f survives with probability min(1, sqrt(threshold / f))."""
    tokens = np.asarray(tokens, dtype=np.int64)
    discard = np.maximum(0.0, 1.0 - np.sqrt(threshold / frequencies[tokens]))
    return tokens[rng.random(len(tokens)) >= discard]


def _step(model: EmbeddingModel, doc_vec: np.ndarray, context_ids,
          target_id: int):
    """Forward/backward pass of one instance against the exact softmax, in
    the model's mode: the shifted target logit and the softmax normalizer
    (log p of the target is their `shifted - log(norm)`), the hidden vector
    h, the output error (one-hot target minus prediction, which is also the
    bias gradient), and one ascent gradient: for the document vector, and
    in pvdm also the shared context direction (to be split equally among
    contributing vectors).

    h is the document vector in pvdbow and, in pvdm, the mean of the
    document vector and the context word vectors. The softmax runs in
    place on one V-vector; dividing by -norm gives -(e / norm) bit for
    bit. In pvdm the gradient is grad_h / (1 + len(context_ids)). The
    reductions call the ufuncs' `reduce` directly, which is what `.sum()`
    and `.max()` run.
    """
    U = model.U
    pvdm = model.config.mode == "pvdm"
    if pvdm and len(context_ids):
        h = np.add.reduce(model.W.take(context_ids, axis=0), axis=0)
        h += doc_vec
        h /= 1 + len(context_ids)
    else:
        h = doc_vec
    e = U @ h
    e += model.b
    e -= np.maximum.reduce(e)
    shifted_target = e[target_id]
    np.exp(e, out=e)
    norm = np.add.reduce(e)
    e /= -norm
    e[target_id] += 1.0
    grad_h = U.T @ e
    if pvdm:
        grad_h *= 1.0 / (1 + len(context_ids))
    return shifted_target, norm, h, e, grad_h


def log_prob_and_grads(model: EmbeddingModel, doc_index: int,
                       context_ids, target_id: int, out=None):
    """Log probability of the target word for one instance, plus ascent
    gradients for U, b, the document vector, and the shared context
    direction (to be split equally among contributing vectors). In pvdm
    the last two are one array.

    gU = err h^T is one k = 1 matrix product, written into `out` (a C
    contiguous V x dim float array) when given. Each entry is the one
    product err_i h_j, as in `np.outer`, but a zero product may lose its
    sign.
    """
    shifted, norm, h, err, grad = _step(model, model.D[doc_index],
                                        context_ids, target_id)
    gU = np.dot(err[:, None], h[None, :], out=out)
    grad_ctx = grad if model.config.mode == "pvdm" else np.zeros_like(grad)
    return float(shifted - np.log(norm)), gU, err, grad, grad_ctx


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


def _instances(model: EmbeddingModel, ids: np.ndarray, cfg: Doc2VecConfig,
               rng: np.random.Generator) -> list[tuple[list[int], int]]:
    """One epoch's (context ids, target id) pairs for one document of model
    ids: `subsample`, then `build_windows` on the surviving ids. The window
    and threshold come from `cfg`, the mode from the model. Training and
    fold-in both take their instances from here."""
    toks = subsample(ids, cfg.subsample, model.term_freq, rng).tolist()
    return build_windows(toks, cfg.window, model.config.mode, rng) if toks else []


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
    U, b, W = model.U, model.b, model.W
    gU = np.empty_like(U)
    for alpha in epoch_schedule(cfg):
        for m, doc_ids in enumerate(docs):
            d = model.D[m]
            for ctx_ids, target in _instances(model, doc_ids, cfg, rng):
                # looked up as a module global on every instance, so that
                # tvbench can wrap it to count instances
                _, _, gb, gdoc, _ = log_prob_and_grads(model, m, ctx_ids,
                                                       target, out=gU)
                gU *= alpha
                U += gU
                gb *= alpha
                b += gb
                gdoc *= alpha  # in pvdm also the context step
                d += gdoc
                if ctx_ids:  # repeated ids add in order, as a loop would
                    np.add.at(W, ctx_ids, gdoc)
    return model


def avg_log_prob(model: EmbeddingModel, corpus: Corpus) -> float:
    """Mean log probability of the target word over all prediction
    instances, enumerated deterministically: every position is a pvdm
    center (or a pvdbow target), with no subsampling."""
    mode = model.config.mode
    total = 0.0
    count = 0
    for m, ids in enumerate(_corpus_model_ids(corpus, model)):
        toks = ids.tolist()
        if not toks:
            continue
        if mode == "pvdm":
            windows = build_windows(toks, model.config.window, mode)
        else:
            windows = [([], t) for t in toks]
        for ctx_ids, target in windows:
            shifted, norm = _step(model, model.D[m], ctx_ids, target)[:2]
            total += float(shifted - np.log(norm))
            count += 1
    if count == 0:
        raise ValueError("corpus has no in-vocabulary tokens")
    return total / count


def infer_vector(model: EmbeddingModel, doc_tokens, cfg: Doc2VecConfig) -> np.ndarray:
    """Vector for an unseen document, optimized with the word vectors and
    softmax parameters frozen.

    Runs the same schedule, instance construction and step as training, but
    only the fresh document vector receives gradient updates.
    """
    ids = np.asarray([model.term_to_id[t] for t in doc_tokens
                      if t in model.term_to_id], dtype=np.int64)
    if len(ids) == 0:
        raise ValueError("document has no in-vocabulary tokens")
    rng = np.random.default_rng(cfg.seed)
    span = 0.5 / model.config.dim
    v = rng.uniform(-span, span, size=model.config.dim)
    for alpha in epoch_schedule(cfg):
        for ctx_ids, target in _instances(model, ids, cfg, rng):
            g = _step(model, v, ctx_ids, target)[4]
            g *= alpha
            v += g
    return v
