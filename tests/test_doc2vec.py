import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import predict_distribution
from topicvec.corpus import build_corpus, cosine_similarity
from topicvec.doc2vec import (Doc2VecConfig, EmbeddingModel, avg_log_prob,
                              build_windows, epoch_schedule, hidden_h, infer_vector,
                              init_model, log_prob_and_grads, subsample, train)

SENTENCE = "el gato negro es bellissimo".split()


def toy_corpus():
    colors = ["red", "blue", "green", "teal"]
    animals = ["dog", "cat", "bird", "fish"]
    rng = np.random.default_rng(0)
    docs = []
    for i in range(10):
        pool = colors if i % 2 == 0 else animals
        docs.append([pool[rng.integers(4)] for _ in range(12)])
    return build_corpus(docs, [f"d{i}" for i in range(10)])


def toy_config(**kw):
    base = dict(dim=4, window=2, min_count=1, subsample=1.0,
                max_epochs=25, seed=3)
    base.update(kw)
    return Doc2VecConfig(**base)


def manual_model(V, dim, seed, zero_softmax=False):
    rng = np.random.default_rng(seed)
    W = rng.normal(0, 0.4, size=(V, dim))
    D = rng.normal(0, 0.4, size=(3, dim))
    U = np.zeros((V, dim)) if zero_softmax else rng.normal(0, 0.4, size=(V, dim))
    b = np.zeros(V) if zero_softmax else rng.normal(0, 0.4, size=V)
    terms = [f"t{i}" for i in range(V)]
    freq = np.full(V, 1.0 / V)
    return EmbeddingModel(W, D, U, b, Doc2VecConfig(dim=dim, min_count=1),
                          terms, {t: i for i, t in enumerate(terms)}, freq,
                          ["a", "b", "c"])


# ----------------------------------------------------------------- windows

def test_pvdm_windows_center_every_position():
    out = build_windows(SENTENCE, window=2, mode="pvdm")
    assert [center for _, center in out] == list(range(5))
    ctx, center = out[2]  # "negro": two words each side
    assert ctx == (0, 1, 3, 4) and center == 2
    ctx, _ = out[0]
    assert ctx == (1, 2)  # truncated at the left edge


def test_pvdm_single_token_gives_empty_context():
    assert build_windows(["solo"], window=3, mode="pvdm") == [((), 0)]


def test_pvdbow_targets_come_from_their_spans():
    rng = np.random.default_rng(0)
    out = build_windows(SENTENCE, window=3, mode="pvdbow", rng=rng)
    assert len(out) == len(SENTENCE) - 3 + 1  # one per contiguous 3-token span
    for i, (ctx, target) in enumerate(out):
        assert ctx == ()
        assert i <= target < i + 3


def test_pvdbow_requires_rng_and_rejects_empty_docs():
    with pytest.raises(ValueError):
        build_windows(SENTENCE, 2, "pvdbow")
    with pytest.raises(ValueError):
        build_windows([], 2, "pvdm")


# -------------------------------------------------------------- subsampling

def test_rare_words_never_discarded():
    rng = np.random.default_rng(0)
    freq = np.array([1e-6, 0.5])
    tokens = np.zeros(1000, dtype=np.int64)  # all the rare word
    kept = subsample(tokens, 1e-5, freq, rng)
    assert len(kept) == 1000


def test_threshold_one_keeps_everything():
    rng = np.random.default_rng(0)
    freq = np.array([0.9, 0.1])
    tokens = np.array([0, 1] * 500)
    assert len(subsample(tokens, 1.0, freq, rng)) == 1000


def test_discard_probability_one_half_at_four_times_threshold():
    rng = np.random.default_rng(42)
    thr = 1e-3
    freq = np.array([4 * thr])
    tokens = np.zeros(20_000, dtype=np.int64)
    kept = len(subsample(tokens, thr, freq, rng))
    # keep probability sqrt(1/4) = 0.5; 3 sigma ~ 0.0106
    assert abs(kept / 20_000 - 0.5) < 3 * math.sqrt(0.25 / 20_000)


# ------------------------------------------------------------- predictions

def test_uniform_logits_give_uniform_distribution():
    model = manual_model(V=5, dim=2, seed=0, zero_softmax=True)
    p = predict_distribution(np.array([0.3, -0.4]), model)
    assert p == pytest.approx(np.full(5, 0.2), abs=1e-12)


def test_softmax_shift_invariance():
    model = manual_model(V=4, dim=3, seed=1)
    h = np.array([0.5, -1.0, 0.25])
    p1 = predict_distribution(h, model)
    model.b = model.b + 7.3  # constant shift of every logit
    p2 = predict_distribution(h, model)
    assert p2 == pytest.approx(p1, abs=1e-12)


def test_softmax_hand_value():
    model = manual_model(V=3, dim=1, seed=0, zero_softmax=True)
    model.U = np.array([[0.0], [math.log(2)], [math.log(4)]])
    p = predict_distribution(np.array([1.0]), model)
    assert p == pytest.approx([1 / 7, 2 / 7, 4 / 7], abs=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-10)


def test_hidden_h_modes():
    doc = np.array([1.0, 1.0])
    ctx = np.array([[3.0, -1.0]])
    assert hidden_h(doc, ctx, "pvdm") == pytest.approx([2.0, 0.0], abs=0)
    assert hidden_h(doc, (), "pvdm") is doc
    assert hidden_h(doc, ctx, "pvdbow") is doc


# ---------------------------------------------------------------- schedule

def test_schedule_stops_at_epoch_321_with_defaults():
    assert len(epoch_schedule(Doc2VecConfig())) == 321


def test_schedule_respects_max_epochs():
    assert len(epoch_schedule(Doc2VecConfig(max_epochs=10))) == 10


def test_default_hyperparameters():
    cfg = Doc2VecConfig()
    assert (cfg.dim, cfg.window, cfg.min_count) == (50, 5, 5)
    assert cfg.alpha0 == 0.025 and cfg.decay == 0.99 and cfg.alpha_floor == 1e-3
    assert cfg.mode == "pvdm" and cfg.subsample == 1e-5


# ---------------------------------------------------------------- training

def test_training_raises_on_empty_vocabulary():
    corp = build_corpus([["one", "two"]], ["d0"])
    with pytest.raises(ValueError):
        train(corp, toy_config(min_count=5))


def test_min_count_pruning_invariant():
    docs = [["common"] * 6 + ["rare"], ["common"] * 4]
    corp = build_corpus(docs, ["a", "b"])
    model = train(corp, toy_config(min_count=2, max_epochs=2))
    assert "rare" not in model.term_to_id
    for term in model.terms:
        t = corp.vocab.term_to_id[term]
        assert corp.vocab.collection_freq[t] >= 2


def test_objective_improves_over_initialization():
    corp = toy_corpus()
    cfg = toy_config()
    before = avg_log_prob(init_model(corp, cfg), corp)
    assert before == pytest.approx(-math.log(8), abs=1e-12)  # uniform start
    model = train(corp, cfg)
    assert avg_log_prob(model, corp) > before


def test_objective_improves_in_pvdbow_mode():
    corp = toy_corpus()
    cfg = toy_config(mode="pvdbow")
    model = train(corp, cfg)
    assert avg_log_prob(model, corp) > -math.log(8)


def test_single_word_vocabulary_has_zero_log_loss():
    corp = build_corpus([["echo"] * 5, ["echo"] * 3], ["a", "b"])
    model = train(corp, toy_config(max_epochs=1))
    assert avg_log_prob(model, corp) == 0.0


def test_avg_log_prob_matches_independent_recomputation():
    corp = toy_corpus()
    model = train(corp, toy_config(max_epochs=5))
    w = model.config.window
    total, count = 0.0, 0
    for m, doc in enumerate(corp.docs):
        ids = [model.term_to_id[corp.vocab.id_to_term[t]] for t in doc.tokens
               if corp.vocab.id_to_term[t] in model.term_to_id]
        for i, target in enumerate(ids):
            ctx = ids[max(0, i - w):i] + ids[i + 1:i + w + 1]
            h = hidden_h(model.D[m], model.W[ctx] if ctx else (), "pvdm")
            total += math.log(predict_distribution(h, model)[target])
            count += 1
    assert avg_log_prob(model, corpus=corp) == pytest.approx(
        total / count, abs=1e-10)


def test_training_deterministic():
    corp = toy_corpus()
    cfg = toy_config(max_epochs=4)
    m1, m2 = train(corp, cfg), train(corp, cfg)
    assert np.array_equal(m1.W, m2.W)
    assert np.array_equal(m1.D, m2.D)
    assert np.array_equal(m1.U, m2.U)
    assert np.array_equal(m1.b, m2.b)


# --------------------------------------------------------------- gradients

def test_analytic_gradients_match_finite_differences():
    eps = 1e-5
    model = manual_model(V=8, dim=3, seed=7)
    ctx = [2, 5, 5]
    target = 4

    def logp():
        return log_prob_and_grads(model, 0, ctx, target)[0]

    _, gU, gb, gdoc, gctx = log_prob_and_grads(model, 0, ctx, target)

    def fd(arr, idx):
        orig = arr[idx]
        arr[idx] = orig + eps
        up = logp()
        arr[idx] = orig - eps
        down = logp()
        arr[idx] = orig
        return (up - down) / (2 * eps)

    worst = 0.0

    def check(analytic, numeric):
        nonlocal worst
        denom = max(abs(analytic), abs(numeric), 1e-3)
        worst = max(worst, abs(analytic - numeric) / denom)

    for idx in np.ndindex(model.U.shape):
        check(gU[idx], fd(model.U, idx))
    for i in range(len(model.b)):
        check(gb[i], fd(model.b, i))
    for j in range(3):
        check(gdoc[j], fd(model.D, (0, j)))
    # word 5 appears twice in the context, so its total gradient is 2x the
    # shared context direction
    for j in range(3):
        check(2 * gctx[j], fd(model.W, (5, j)))
    assert worst < 1e-5


def test_doc_and_word_vector_gradients_match_finite_differences():
    eps = 1e-5
    model = manual_model(V=6, dim=4, seed=11)
    ctx = [1, 3]
    target = 2
    _, _, _, gdoc, gctx = log_prob_and_grads(model, 0, ctx, target)

    def logp():
        return log_prob_and_grads(model, 0, ctx, target)[0]

    worst = 0.0
    for j in range(4):
        orig = model.D[0, j]
        model.D[0, j] = orig + eps
        up = logp()
        model.D[0, j] = orig - eps
        down = logp()
        model.D[0, j] = orig
        numeric = (up - down) / (2 * eps)
        worst = max(worst, abs(gdoc[j] - numeric) / max(abs(numeric), 1e-3))
    # each context vector receives the shared context gradient once per
    # occurrence; word 1 appears once here
    for j in range(4):
        orig = model.W[1, j]
        model.W[1, j] = orig + eps
        up = logp()
        model.W[1, j] = orig - eps
        down = logp()
        model.W[1, j] = orig
        numeric = (up - down) / (2 * eps)
        worst = max(worst, abs(gctx[j] - numeric) / max(abs(numeric), 1e-3))
    assert worst < 1e-5


def test_pvdbow_gradient_flows_only_to_doc_vector():
    model = manual_model(V=5, dim=2, seed=3)
    model.config.mode = "pvdbow"
    _, _, _, gdoc, gctx = log_prob_and_grads(model, 1, [], 2)
    assert np.all(gctx == 0)
    assert gdoc.shape == (2,)


# --------------------------------------------------------------- inference

def test_inference_freezes_shared_parameters():
    corp = toy_corpus()
    model = train(corp, toy_config(max_epochs=3))
    W0, U0, b0 = model.W.copy(), model.U.copy(), model.b.copy()
    infer_vector(model, ["red", "blue", "green"], toy_config(max_epochs=3))
    assert np.array_equal(model.W, W0)
    assert np.array_equal(model.U, U0)
    assert np.array_equal(model.b, b0)


def reference_infer_vector(model, doc_tokens, cfg):
    """Fold-in written as training restricted to one document: a copy of the
    model whose only D row is the fresh vector, stepped by the grad_doc of
    log_prob_and_grads on the same subsampled windows."""
    ids = np.asarray([model.term_to_id[t] for t in doc_tokens
                      if t in model.term_to_id], dtype=np.int64)
    rng = np.random.default_rng(cfg.seed)
    span = 0.5 / model.config.dim
    fresh = rng.uniform(-span, span, size=(1, model.config.dim))
    ref = dataclasses.replace(model, D=fresh)
    for alpha in epoch_schedule(cfg):
        toks = subsample(ids, cfg.subsample, model.term_freq, rng)
        if len(toks) == 0:
            continue
        for ctx_pos, center in build_windows(toks, cfg.window, model.config.mode, rng):
            ctx = [int(toks[i]) for i in ctx_pos]
            ref.D[0] += alpha * log_prob_and_grads(ref, 0, ctx, int(toks[center]))[3]
    return ref.D[0]


@pytest.mark.parametrize("mode", ["pvdm", "pvdbow"])
def test_inference_matches_training_step_reference(mode):
    corp = toy_corpus()
    model = train(corp, toy_config(max_epochs=5, mode=mode))
    cfg = toy_config(max_epochs=8, mode=mode, subsample=0.05, seed=11)
    rng = np.random.default_rng(4)
    words = model.terms + ["zzz"]
    for _ in range(10):
        size = int(rng.integers(1, 15))
        doc = [words[i] for i in rng.integers(len(words), size=size)]
        if not any(w in model.term_to_id for w in doc):
            continue
        got = infer_vector(model, doc, cfg)
        assert np.max(np.abs(got - reference_infer_vector(model, doc, cfg))) <= 1e-12


def test_inference_deterministic():
    corp = toy_corpus()
    model = train(corp, toy_config(max_epochs=3))
    cfg = toy_config(max_epochs=5)
    v1 = infer_vector(model, ["red", "blue"], cfg)
    v2 = infer_vector(model, ["red", "blue"], cfg)
    assert np.array_equal(v1, v2)


def test_inference_rejects_out_of_vocabulary_documents():
    corp = toy_corpus()
    model = train(corp, toy_config(max_epochs=2))
    with pytest.raises(ValueError):
        infer_vector(model, ["zzz", "qqq"], toy_config())


def test_reinferring_training_document_lands_near_itself():
    # ten documents, each dominated by its own private words
    rng = np.random.default_rng(2)
    docs = []
    for i in range(10):
        private = [f"p{i}x", f"p{i}y", f"p{i}z"]
        doc = [private[rng.integers(3)] for _ in range(16)] + ["shared", "words"]
        docs.append(doc)
    corp = build_corpus(docs, [f"d{i}" for i in range(10)])
    cfg = toy_config(max_epochs=80, seed=5)
    model = train(corp, cfg)
    m = 0
    tokens = [corp.vocab.id_to_term[t] for t in corp.docs[m].tokens]
    v = infer_vector(model, tokens, toy_config(max_epochs=150, seed=9))
    sims = [cosine_similarity(v, model.D[i]) for i in range(corp.num_docs)]
    assert int(np.argmax(sims)) == m


# -------------------------------------------------------------- separation

def test_two_cluster_corpus_separates():
    rng = np.random.default_rng(8)
    vocab_a = [f"a{i}" for i in range(20)]
    vocab_b = [f"b{i}" for i in range(20)]
    docs, labels = [], []
    for i in range(20):
        docs.append([vocab_a[rng.integers(20)] for _ in range(30)])
        labels.append(f"A{i}")
    for i in range(20):
        docs.append([vocab_b[rng.integers(20)] for _ in range(30)])
        labels.append(f"B{i}")
    corp = build_corpus(docs, labels)
    model = train(corp, Doc2VecConfig(dim=8, window=3, min_count=1,
                                      subsample=1.0, max_epochs=30, seed=1))
    D = model.D
    within, cross = [], []
    for i in range(40):
        for j in range(i + 1, 40):
            sim = cosine_similarity(D[i], D[j])
            (within if (i < 20) == (j < 20) else cross).append(sim)
    assert np.mean(within) > np.mean(cross)
