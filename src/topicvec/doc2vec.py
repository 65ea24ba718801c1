"""Paragraph vectors trained against an exact softmax.

Two modes: pvdm predicts each word from the document vector averaged with
its context word vectors; pvdbow predicts a word sampled from each text
window from the document vector alone. Training ascends the average log
probability by per-instance gradient steps with a multiplicative
learning-rate decay. Training, fold-in (`infer_vector`) and
`avg_log_prob` share one fused forward/backward step and one mapping
from a document's tokens to model ids, which rejects a document that
`min_count` leaves empty; training and fold-in take each epoch's
instances, windows of model ids, from one routine.

The step makes few numpy calls per instance, because at small
vocabularies the call overhead outweighs the arithmetic: it takes the
context sum ready-made, runs the softmax in place in buffers taken once
per call of the routine that steps, and in pvdm gives one gradient array
for the document and its context words. Training sums each instance's
context itself, since it moves W after every instance. Fold-in and
`avg_log_prob` leave W frozen, so they pad each epoch's (or document's)
context ids into one id matrix and form all of its context sums with one
gather and one reduce; at dim >= 2 each sum is bit for bit the
per-instance one. The U gradient err h^T is one k = 1 matrix product
(V x 1 by 1 x dim), which training writes into one V x dim buffer kept
for the run and scales in place before adding it to U. Training adds
the context step to the context rows with one `np.add.at`, which adds a
word repeated in the window once per occurrence, in order. The results
are bit for bit those of the plain step and update loop in the test
suite (`tests/oracles.py`), which forms the U gradient with `np.outer`.
The product may drop the sign of a zero entry where `np.outer` keeps
it; U cannot see that, since it starts at +0.0 and an IEEE sum is -0.0
only when both terms are, so D, W, U and b keep their bytes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .corpus import Corpus

MODES = ("pvdm", "pvdbow")


@dataclass
class Doc2VecConfig:
    dim: int = 50
    window: int = 5
    min_count: int = 5
    mode: str = "pvdm"  # one of MODES
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
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


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
        # a conditional, not max(): fold-in builds these once per epoch
        return [(toks[i - window if i > window else 0:i]
                 + toks[i + 1:i + window + 1], toks[i]) for i in range(n)]
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


def _step(model: EmbeddingModel, doc_vec: np.ndarray, ctx_sum, n_ctx: int,
          target_id: int, h: np.ndarray, err: np.ndarray, grad: np.ndarray):
    """Forward/backward pass of one instance against the exact softmax,
    given the sum `ctx_sum` of its `n_ctx` context word vectors (pvdm; a
    pvdbow instance, or a pvdm one with an empty context, has n_ctx = 0
    and no sum is read). Returns the shifted target logit, the softmax
    normalizer (log p of the target is their `shifted - log(norm)`) and
    the hidden vector h; writes the output error (one-hot target minus
    prediction, which is also the bias gradient) into `err` and one ascent
    gradient into `grad`: for the document vector, and in pvdm also the
    shared context direction (to be split equally among contributing
    vectors).

    h is the document vector when n_ctx = 0 and otherwise, written into
    the buffer `h`, the mean of the document vector and the context word
    vectors. The softmax runs in place on `err`; dividing by -norm gives
    -(e / norm) bit for bit. With a context the gradient is
    grad_h / (1 + n_ctx). The reductions call the ufuncs' `reduce`
    directly, which is what `.sum()` and `.max()` run.
    """
    U = model.U
    share = 1.0 + n_ctx  # a float divisor is cheaper than an int, same bits
    if n_ctx:
        np.add(ctx_sum, doc_vec, out=h)
        h /= share
    else:
        h = doc_vec
    np.matmul(U, h, out=err)
    err += model.b
    err -= np.maximum.reduce(err)
    shifted_target = err[target_id]
    np.exp(err, out=err)
    norm = np.add.reduce(err)
    err /= -norm
    err[target_id] += 1.0
    np.matmul(err, U, out=grad)
    if n_ctx:
        grad *= 1.0 / share
    return shifted_target, norm, h


def _buffers(model: EmbeddingModel):
    """The h, err and grad buffers of `_step`, taken once per call of a
    routine that steps many instances."""
    dim = model.W.shape[1]
    return np.empty(dim), np.empty(len(model.b)), np.empty(dim)


def log_prob_and_grads(model: EmbeddingModel, doc_index: int,
                       context_ids, target_id: int, out=None, bufs=None):
    """Log probability of the target word for one instance, plus ascent
    gradients for U, b, the document vector, and the shared context
    direction (to be split equally among contributing vectors). In pvdm
    the last two are one array.

    The context sum is formed here, from the rows of W as they are now,
    since training moves W between instances. gU = err h^T is one k = 1
    matrix product, written into `out` (a C contiguous V x dim float
    array) when given. Each entry is the one product err_i h_j, as in
    `np.outer`, but a zero product may lose its sign. The error and
    gradient are written into `bufs` (as `_buffers` returns) when given,
    and into fresh arrays otherwise.
    """
    pvdm = model.config.mode == "pvdm"
    n_ctx = len(context_ids) if pvdm else 0
    h, err, grad = _buffers(model) if bufs is None else bufs
    ctx_sum = np.add.reduce(model.W.take(context_ids, axis=0), axis=0, out=h) \
        if n_ctx else None
    shifted, norm, h = _step(model, model.D[doc_index], ctx_sum, n_ctx,
                             target_id, h, err, grad)
    gU = np.dot(err[:, None], h[None, :], out=out)
    grad_ctx = grad if pvdm else np.zeros_like(grad)
    return float(shifted - np.log(norm)), gU, err, grad, grad_ctx


def _context_sums(table: np.ndarray | None, windows, width: int):
    """The context sum of each (context ids, target id) window, from one
    gather, for a model whose W does not move between the windows (fold-in
    and `avg_log_prob`). With no table (pvdbow, whose windows have empty
    contexts) nothing is gathered and each sum is None.

    The contexts are padded with the id of `table`'s last row, a row of
    -0.0, into one (windows x width) id matrix. It is gathered transposed,
    so that one reduce over its first axis adds each window's rows in
    window order and then its pads. x + -0.0 is x for every x, so each sum
    is bit for bit `np.add.reduce(W.take(ctx, axis=0), axis=0)`, which
    adds the rows in order too when dim >= 2 (at dim 1 numpy sums eight
    or more rows pairwise, so there the two may round apart).
    """
    if table is None:
        return [None] * len(windows)
    pad = [len(table) - 1] * width
    padded = chain.from_iterable(ctx + pad[len(ctx):] for ctx, _ in windows)
    ids = np.fromiter(padded, np.intp, len(windows) * width).reshape(-1, width)
    return np.add.reduce(table.take(ids.T, axis=0), axis=0)


def _padded_table(model: EmbeddingModel) -> np.ndarray:
    """W with one more row of -0.0, the pad row of `_context_sums`."""
    return np.vstack([model.W, np.full((1, model.W.shape[1]), -0.0)])


def _model_ids(model: EmbeddingModel, tokens, label: str | None = None) -> np.ndarray:
    """A document's tokens (term strings) as model ids, in order, with the
    terms that min_count pruned left out. Training, fold-in and
    `avg_log_prob` all map documents here, so a document with no term
    left fails the same way in each: ValueError, naming the document by
    its label when it has one."""
    ids = [model.term_to_id[t] for t in tokens if t in model.term_to_id]
    if not ids:
        doc = "document" if label is None else f"document {label!r}"
        raise ValueError(f"{doc} has no term left after [doc2vec] min_count "
                         f"= {model.config.min_count}")
    return np.asarray(ids, dtype=np.int64)


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
    fixed seed. A document with no term left after min_count pruning
    raises ValueError before the first epoch.
    """
    if corpus.num_docs == 0:
        raise ValueError("corpus is empty")
    rng = np.random.default_rng(cfg.seed)
    model = _init_with_rng(corpus, cfg, rng)
    terms = corpus.vocab.id_to_term
    docs = [_model_ids(model, [terms[t] for t in doc.tokens.tolist()], doc.label)
            for doc in corpus.docs]
    U, b, W = model.U, model.b, model.W
    gU = np.empty_like(U)
    bufs = _buffers(model)
    for alpha in epoch_schedule(cfg):
        for m, doc_ids in enumerate(docs):
            d = model.D[m]
            for ctx_ids, target in _instances(model, doc_ids, cfg, rng):
                # looked up as a module global on every instance, so that
                # tvbench can wrap it to count instances
                _, _, gb, gdoc, _ = log_prob_and_grads(model, m, ctx_ids,
                                                       target, out=gU,
                                                       bufs=bufs)
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
    center (or a pvdbow target), with no subsampling. A document with no
    term left after min_count pruning raises ValueError. W is frozen here,
    so each pvdm document's context sums come from one gather."""
    if corpus.num_docs == 0:
        raise ValueError("corpus is empty")
    window = model.config.window
    pvdm = model.config.mode == "pvdm"
    table = _padded_table(model) if pvdm else None
    bufs = _buffers(model)
    terms = corpus.vocab.id_to_term
    total = 0.0
    count = 0
    for m, doc in enumerate(corpus.docs):
        toks = _model_ids(model, [terms[t] for t in doc.tokens.tolist()],
                          doc.label).tolist()
        windows = build_windows(toks, window, "pvdm") if pvdm \
            else [([], t) for t in toks]
        sums = _context_sums(table, windows, 2 * window)
        for (ctx_ids, target), ctx_sum in zip(windows, sums):
            shifted, norm, _ = _step(model, model.D[m], ctx_sum, len(ctx_ids),
                                     target, *bufs)
            total += float(shifted - np.log(norm))
            count += 1
    return total / count


def infer_vector(model: EmbeddingModel, doc_tokens, cfg: Doc2VecConfig) -> np.ndarray:
    """Vector for an unseen document, optimized with the word vectors and
    softmax parameters frozen.

    Runs the same schedule, instance construction and step as training, but
    only the fresh document vector receives gradient updates. Since W does
    not move, each pvdm epoch's context sums come from one gather
    (`_context_sums`) rather than one per instance. A document with no
    term in the model raises ValueError.
    """
    ids = _model_ids(model, doc_tokens)
    rng = np.random.default_rng(cfg.seed)
    span = 0.5 / model.config.dim
    v = rng.uniform(-span, span, size=model.config.dim)
    table = _padded_table(model) if model.config.mode == "pvdm" else None
    h, err, grad = _buffers(model)
    for alpha in epoch_schedule(cfg):
        instances = _instances(model, ids, cfg, rng)
        sums = _context_sums(table, instances, 2 * cfg.window)
        for (ctx_ids, target), ctx_sum in zip(instances, sums):
            _step(model, v, ctx_sum, len(ctx_ids), target, h, err, grad)
            grad *= alpha
            v += grad
    return v
