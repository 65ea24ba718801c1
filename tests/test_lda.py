import math

import numpy as np
import pytest

from oracles import (exclude_token, oracle_conditional, random_micro_instance,
                     state_from)
from topicvec.corpus import build_corpus
from topicvec.lda import (GeneratorConfig, LdaConfig, LdaState, _categorical,
                          estimate_phi_theta, format_topics, full_conditional,
                          generate_corpus, gibbs_sweep, infer_theta, init_state,
                          sample_dirichlet, top_words, train)


def tiny_corpus():
    docs = [["ant", "bee", "ant"], ["bee", "cat"], ["cat", "cat", "ant", "bee"]]
    return build_corpus(docs, ["d0", "d1", "d2"])


def assert_counts_consistent(state):
    K, V = state.n_kt.shape
    n_kt = np.zeros((K, V), dtype=np.int64)
    n_mk = np.zeros_like(state.n_mk)
    for m, (toks, zs) in enumerate(zip(state.docs, state.z)):
        for t, k in zip(toks, zs):
            n_kt[k, t] += 1
            n_mk[m, k] += 1
    assert np.array_equal(n_kt, state.n_kt)
    assert np.array_equal(n_mk, state.n_mk)
    assert np.array_equal(state.n_kt.sum(axis=1), state.n_k)
    assert np.array_equal(state.n_mk.sum(axis=1), state.n_m)
    assert state.n_k.sum() == state.n_m.sum()


# ----------------------------------------------------- brute-force oracle

def test_full_conditional_matches_joint_ratio_oracle():
    rng = np.random.default_rng(123)
    for _ in range(100):
        docs, z, K, V, alpha, beta = random_micro_instance(rng)
        m = int(rng.integers(len(docs)))
        n = int(rng.integers(len(docs[m])))
        expected = oracle_conditional(docs, z, m, n, K, V, alpha, beta)
        state = state_from(docs, z, K, V)
        exclude_token(state, m, n)
        cfg = LdaConfig(num_topics=K, alpha=list(alpha), beta=list(beta),
                        sweeps=2, burn_in=0)
        got = full_conditional(state, m, n, cfg)
        assert np.max(np.abs(got - expected)) < 1e-12
        assert got.sum() == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------- init

def test_init_single_topic_is_degenerate():
    corp = tiny_corpus()
    cfg = LdaConfig(num_topics=1, sweeps=2, burn_in=0)
    state = init_state(corp, cfg, np.random.default_rng(0))
    for zs in state.z:
        assert np.all(zs == 0)
    assert np.array_equal(state.n_mk[:, 0], state.n_m)


def test_init_counts_consistent():
    corp = tiny_corpus()
    cfg = LdaConfig(num_topics=3, sweeps=2, burn_in=0)
    state = init_state(corp, cfg, np.random.default_rng(7))
    assert_counts_consistent(state)


def test_init_deterministic_for_fixed_seed():
    corp = tiny_corpus()
    cfg = LdaConfig(num_topics=3, sweeps=2, burn_in=0)
    s1 = init_state(corp, cfg, np.random.default_rng(5))
    s2 = init_state(corp, cfg, np.random.default_rng(5))
    for a, b in zip(s1.z, s2.z):
        assert np.array_equal(a, b)


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        init_state(build_corpus([], []), LdaConfig(num_topics=2, sweeps=2, burn_in=0),
                   np.random.default_rng(0))


# ------------------------------------------------------- full conditional

def test_full_conditional_single_topic():
    state = state_from([[0, 1]], [[0, 0]], K=1, V=2)
    exclude_token(state, 0, 0)
    cfg = LdaConfig(num_topics=1, sweeps=2, burn_in=0)
    assert np.array_equal(full_conditional(state, 0, 0, cfg), [1.0])


def test_full_conditional_uniform_under_symmetry():
    # counts identical across both topics, symmetric priors
    state = LdaState([np.array([0])], [np.array([0])],
                     n_kt=np.array([[2, 1], [2, 1]], dtype=np.int64),
                     n_mk=np.array([[1, 1]], dtype=np.int64),
                     n_k=np.array([3, 3], dtype=np.int64),
                     n_m=np.array([2], dtype=np.int64))
    cfg = LdaConfig(num_topics=2, alpha=0.5, beta=0.5, sweeps=2, burn_in=0)
    assert full_conditional(state, 0, 0, cfg) == pytest.approx([0.5, 0.5], abs=1e-15)


# ------------------------------------------------------------------ sweeps

def test_sweep_conserves_tokens_and_consistency():
    corp = tiny_corpus()
    cfg = LdaConfig(num_topics=3, sweeps=2, burn_in=0, seed=1)
    rng = np.random.default_rng(cfg.seed)
    state = init_state(corp, cfg, rng)
    before = state.n_k.sum()
    for _ in range(5):
        gibbs_sweep(state, cfg, rng)
    assert state.n_k.sum() == before
    assert_counts_consistent(state)


def reference_sweep(state, cfg, rng):
    """Token-by-token sweep built on full_conditional: decrement, normalised
    conditional, inverse-CDF draw, increment."""
    for m, (toks, zs) in enumerate(zip(state.docs, state.z)):
        for n in range(len(toks)):
            exclude_token(state, m, n)
            p = full_conditional(state, m, n, cfg)
            k = _categorical(np.cumsum(p), rng.random())
            zs[n] = k
            t = int(toks[n])
            state.n_kt[k, t] += 1
            state.n_mk[m, k] += 1
            state.n_k[k] += 1


def test_sweep_draws_match_full_conditional_reference():
    rng = np.random.default_rng(2718)
    for seed in range(200):
        docs, z, K, V, alpha, beta = random_micro_instance(rng)
        cfg = LdaConfig(num_topics=K, alpha=list(alpha), beta=list(beta),
                        sweeps=2, burn_in=0)
        fast = state_from(docs, z, K, V)
        ref = state_from(docs, z, K, V)
        gibbs_sweep(fast, cfg, np.random.default_rng(seed))
        reference_sweep(ref, cfg, np.random.default_rng(seed))
        for a, b in zip(fast.z, ref.z):
            assert np.array_equal(a, b)
        assert np.array_equal(fast.n_kt, ref.n_kt)
        assert np.array_equal(fast.n_mk, ref.n_mk)
        assert np.array_equal(fast.n_k, ref.n_k)


def test_sweep_trajectory_bit_identical_across_runs():
    corp = tiny_corpus()
    cfg = LdaConfig(num_topics=3, sweeps=2, burn_in=0)
    trajectories = []
    for _ in range(2):
        rng = np.random.default_rng(42)
        state = init_state(corp, cfg, rng)
        snap = []
        for _ in range(4):
            gibbs_sweep(state, cfg, rng)
            snap.append([zs.copy() for zs in state.z])
        trajectories.append(snap)
    for s1, s2 in zip(*trajectories):
        for a, b in zip(s1, s2):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------- readouts

def test_estimate_with_zero_counts_gives_prior_means():
    state = LdaState([np.array([], dtype=np.int64)], [np.array([], dtype=np.int64)],
                     n_kt=np.zeros((2, 3), dtype=np.int64),
                     n_mk=np.zeros((1, 2), dtype=np.int64),
                     n_k=np.zeros(2, dtype=np.int64),
                     n_m=np.zeros(1, dtype=np.int64))
    cfg = LdaConfig(num_topics=2, alpha=0.7, beta=[0.2, 0.3, 0.5], sweeps=2, burn_in=0)
    phi, theta = estimate_phi_theta(state, cfg)
    assert phi[0] == pytest.approx([0.2, 0.3, 0.5], abs=1e-15)
    assert theta[0] == pytest.approx([0.5, 0.5], abs=1e-15)


def test_estimate_hand_value():
    state = LdaState([np.array([0, 0])], [np.array([0, 0])],
                     n_kt=np.array([[2, 0]], dtype=np.int64),
                     n_mk=np.array([[2]], dtype=np.int64),
                     n_k=np.array([2], dtype=np.int64),
                     n_m=np.array([2], dtype=np.int64))
    cfg = LdaConfig(num_topics=1, beta=0.1, sweeps=2, burn_in=0)
    phi, _ = estimate_phi_theta(state, cfg)
    assert phi[0] == pytest.approx([2.1 / 2.2, 0.1 / 2.2], abs=1e-12)


def test_rows_sum_to_one_after_training():
    corp = tiny_corpus()
    model = train(corp, LdaConfig(num_topics=3, sweeps=8, burn_in=4, seed=0))
    assert np.allclose(model.phi.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(model.theta.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(model.phi > 0) and np.all(model.theta > 0)


def test_training_deterministic():
    corp = tiny_corpus()
    cfg = LdaConfig(num_topics=2, sweeps=10, burn_in=5, seed=9)
    m1, m2 = train(corp, cfg), train(corp, cfg)
    assert np.array_equal(m1.phi, m2.phi)
    assert np.array_equal(m1.theta, m2.theta)


def test_thinned_average_readout_runs_and_normalizes():
    corp = tiny_corpus()
    cfg = LdaConfig(num_topics=2, sweeps=12, burn_in=4, sample_lag=2,
                    readout="thinned_average", seed=3)
    model = train(corp, cfg)
    assert np.allclose(model.phi.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(model.theta.sum(axis=1), 1.0, atol=1e-9)


def test_default_hyperparameters():
    cfg = LdaConfig()
    assert cfg.num_topics == 50
    assert np.allclose(cfg.alpha_vec(), 1.0 / 50)
    assert cfg.alpha_vec()[0] == pytest.approx(0.02)
    assert np.allclose(cfg.beta_vec(10), 0.1)
    assert (cfg.sweeps, cfg.burn_in, cfg.sample_lag) == (100, 50, 10)


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        LdaConfig(num_topics=0)
    with pytest.raises(ValueError):
        LdaConfig(sweeps=10, burn_in=10)
    with pytest.raises(ValueError):
        LdaConfig(alpha=-1.0).alpha_vec()


# --------------------------------------------------------------- top words

def test_top_words_sorted_and_resolved():
    corp = tiny_corpus()
    model = train(corp, LdaConfig(num_topics=2, sweeps=6, burn_in=2, seed=0))
    words = top_words(model, 0, n=3)
    probs = [p for p, _ in words]
    assert probs == sorted(probs, reverse=True)
    assert all(w in corp.vocab.id_to_term for _, w in words)
    with pytest.raises(IndexError):
        top_words(model, 99)


def test_topic_dump_format():
    corp = tiny_corpus()
    model = train(corp, LdaConfig(num_topics=2, sweeps=6, burn_in=2, seed=0))
    text = format_topics(model, num_words=3)
    blocks = text.split("\n\n")
    assert blocks[0].splitlines()[0] == "Topic 0"
    for line in blocks[0].splitlines()[1:]:
        prob, word = line.split(" ", 1)
        assert len(prob.split(".")[1]) == 3  # %.3f style
        float(prob)


# --------------------------------------------------------------- inference

def test_infer_empty_document_returns_prior_mean():
    corp = tiny_corpus()
    cfg = LdaConfig(num_topics=2, alpha=[0.3, 0.7], sweeps=5, burn_in=2, seed=0)
    model = train(corp, cfg)
    from topicvec.corpus import BagOfWords
    theta = infer_theta(model, BagOfWords({}), cfg)
    assert theta == pytest.approx([0.3, 0.7], abs=1e-15)


def test_infer_deterministic():
    corp = tiny_corpus()
    cfg = LdaConfig(num_topics=2, sweeps=10, burn_in=5, seed=4)
    model = train(corp, cfg)
    bag = corp.bag_of_words(0)
    v1 = infer_theta(model, bag, cfg)
    v2 = infer_theta(model, bag, cfg)
    assert np.array_equal(v1, v2)


def test_infer_recovers_planted_topic():
    beta = np.zeros((2, 10))
    beta[0, :5] = 1.0
    beta[1, 5:] = 1.0
    gcfg = GeneratorConfig(num_topics=2, vocab_size=10, num_docs=30,
                           alpha=0.1, beta=beta, mean_doc_len=25, seed=11)
    corp, true_phi, _ = generate_corpus(gcfg)
    cfg = LdaConfig(num_topics=2, alpha=0.1, beta=0.1, sweeps=40, burn_in=20, seed=2)
    model = train(corp, cfg)

    # a fresh document built purely from one planted block
    block_terms = [f"w{t}" for t in range(5)]
    present = [corp.vocab.term_to_id[w] for w in block_terms
               if w in corp.vocab.term_to_id]
    from topicvec.corpus import BagOfWords
    bag = BagOfWords({t: 4 for t in present})
    theta = infer_theta(model, bag, cfg)

    # which trained topic corresponds to block 0? the one with more mass there
    mass = [sum(model.phi[k, corp.vocab.term_to_id[w]] for w in block_terms
                if w in corp.vocab.term_to_id) for k in range(2)]
    assert int(np.argmax(theta)) == int(np.argmax(mass))


# --------------------------------------------------------------- generator

def test_generate_single_topic_uses_only_phi0():
    gcfg = GeneratorConfig(num_topics=1, vocab_size=6, num_docs=5,
                           alpha=1.0, beta=1.0, mean_doc_len=10, seed=0)
    corp, phi, theta = generate_corpus(gcfg)
    assert phi.shape == (1, 6)
    assert np.allclose(theta, 1.0)
    assert corp.num_terms <= 6


def test_generate_blocks_stay_disjoint():
    beta = np.zeros((2, 8))
    beta[0, :4] = 2.0
    beta[1, 4:] = 2.0
    # documents committed to one topic each
    gcfg = GeneratorConfig(num_topics=2, vocab_size=8, num_docs=40,
                           alpha=0.01, beta=beta, mean_doc_len=15, seed=5)
    corp, phi, theta = generate_corpus(gcfg)
    assert np.all(phi[0, 4:] == 0.0) and np.all(phi[1, :4] == 0.0)
    for m, doc in enumerate(corp.docs):
        terms = {int(corp.vocab.id_to_term[t][1:]) for t in doc.tokens}
        blocks = {0 if t < 4 else 1 for t in terms}
        allowed = {k for k in range(2) if theta[m, k] > 0}
        assert blocks <= allowed


def test_generate_poisson_mean_within_three_standard_errors():
    xi = 10.0
    gcfg = GeneratorConfig(num_topics=2, vocab_size=12, num_docs=10_000,
                           alpha=0.5, beta=0.5, mean_doc_len=xi, seed=17)
    corp, _, _ = generate_corpus(gcfg)
    lengths = np.array([len(d) for d in corp.docs], dtype=float)
    assert np.all(lengths >= 1)
    se = math.sqrt(xi / len(lengths))
    assert abs(lengths.mean() - xi) < 3 * se


def test_generated_corpus_recoverable():
    # planted 2-topic corpus; training should align with the truth
    beta = np.zeros((2, 20))
    beta[0, :10] = 1.0
    beta[1, 10:] = 1.0
    gcfg = GeneratorConfig(num_topics=2, vocab_size=20, num_docs=60,
                           alpha=0.05, beta=beta, mean_doc_len=30, seed=3)
    corp, true_phi, _ = generate_corpus(gcfg)
    model = train(corp, LdaConfig(num_topics=2, alpha=0.02, beta=0.1,
                                  sweeps=50, burn_in=25, seed=1))
    cols = [int(term[1:]) for term in corp.vocab.id_to_term]
    truth = true_phi[:, cols]
    from topicvec.corpus import cosine_similarity
    best = max(
        min(cosine_similarity(model.phi[0], truth[p[0]]),
            cosine_similarity(model.phi[1], truth[p[1]]))
        for p in ([0, 1], [1, 0]))
    assert best > 0.9


def test_dirichlet_mean_accuracy():
    rng = np.random.default_rng(99)
    draws = sample_dirichlet(np.ones(5), rng, size=100_000)
    assert np.allclose(draws.sum(axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(draws.mean(axis=0) - 0.2)) < 0.002  # 1% of 1/K


def test_dirichlet_rejects_bad_alpha():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_dirichlet([0.0, 0.0], rng)
    with pytest.raises(ValueError):
        sample_dirichlet([-1.0, 1.0], rng)
