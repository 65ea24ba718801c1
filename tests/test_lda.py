import copy
import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from oracles import (bucket_masses, cosine, exclude_token, oracle_conditional,
                     random_micro_instance, reference_sparse_infer_theta,
                     reference_sparse_sweep, state_from)
from topicvec.corpus import BagOfWords, build_corpus
from topicvec.lda import (GeneratorConfig, LdaConfig, LdaModel, LdaState, _categorical,
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


def reference_infer_theta(model, doc, cfg):
    """Token-by-token fold-in with phi frozen: decrement, normalised
    phi[:, t] * (n_k + alpha), inverse-CDF draw, increment; the readout
    rule of train, written out."""
    alpha = cfg.alpha_vec()
    K = model.phi.shape[0]
    tokens = []
    for t in sorted(doc.counts):
        tokens.extend([t] * doc.counts[t])
    if not tokens:
        return alpha / alpha.sum()
    rng = np.random.default_rng(cfg.seed)
    z = rng.integers(K, size=len(tokens))
    n_k = np.bincount(z, minlength=K).astype(np.int64)
    theta_acc = None
    n_samples = 0
    for sweep in range(1, cfg.sweeps + 1):
        for i, t in enumerate(tokens):
            n_k[z[i]] -= 1
            p = model.phi[:, t] * (n_k + alpha)
            p = p / p.sum()
            z[i] = _categorical(np.cumsum(p), rng.random())
            n_k[z[i]] += 1
        if (cfg.readout == "thinned_average" and sweep > cfg.burn_in
                and (sweep - cfg.burn_in) % cfg.sample_lag == 0):
            est = (n_k + alpha) / (len(tokens) + alpha.sum())
            theta_acc = est if theta_acc is None else theta_acc + est
            n_samples += 1
    if cfg.readout == "thinned_average" and n_samples > 0:
        return theta_acc / n_samples
    return (n_k + alpha) / (len(tokens) + alpha.sum())


def micro_cases(seed, count):
    """Random micro instances with vector alpha and beta, as configs."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        docs, z, K, V, alpha, beta = random_micro_instance(rng)
        cfg = LdaConfig(num_topics=K, alpha=list(alpha), beta=list(beta),
                        sweeps=2, burn_in=0)
        yield docs, z, K, V, cfg


def test_bucket_masses_sum_to_unnormalised_full_conditional():
    for docs, z, K, V, cfg in micro_cases(577, 200):
        alpha, beta = cfg.alpha_vec(), cfg.beta_vec(V)
        for m in range(len(docs)):
            for n in range(len(docs[m])):
                state = state_from(docs, z, K, V)
                exclude_token(state, m, n)
                s, r, q = bucket_masses(state, m, n, alpha, beta)
                t = int(docs[m][n])
                full = ((state.n_kt[:, t] + beta[t]) / (state.n_k + beta.sum())
                        * (state.n_mk[m] + alpha))
                assert np.all(np.abs(s + r + q - full) <= 1e-12 * full)
                assert np.allclose(full / full.sum(), full_conditional(state, m, n, cfg),
                                   rtol=1e-12, atol=0)


def test_sweep_draws_match_full_conditional_reference():
    """gibbs_sweep draws exactly the topics of the token-by-token sweep over
    the q, r and s masses in bucket order, whose sum is the full
    conditional (test above)."""
    cases = [(docs, z, K, V, cfg, seed)
             for seed, (docs, z, K, V, cfg) in enumerate(micro_cases(2718, 200))]
    # K = 50: long sorted topic lists, counts moving between 0 and 1, and
    # draws in all three buckets
    rng = np.random.default_rng(99)
    for seed in range(3):
        K, V = 50, 60
        docs = [rng.integers(V, size=int(rng.integers(1, 80))) for _ in range(15)]
        z = [rng.integers(K, size=len(d)) for d in docs]
        cfg = LdaConfig(num_topics=K, beta=list(rng.uniform(0.01, 0.2, V)),
                        sweeps=2, burn_in=0)
        cases.append((docs, z, K, V, cfg, seed))
    for docs, z, K, V, cfg, seed in cases:
        fast = state_from(docs, z, K, V)
        ref = state_from(docs, z, K, V)
        for rep in range(2):
            gibbs_sweep(fast, cfg, np.random.default_rng([seed, rep]))
            reference_sparse_sweep(ref, cfg, np.random.default_rng([seed, rep]))
        for a, b in zip(fast.z, ref.z):
            assert np.array_equal(a, b)
        assert np.array_equal(fast.n_kt, ref.n_kt)
        assert np.array_equal(fast.n_mk, ref.n_mk)
        assert np.array_equal(fast.n_k, ref.n_k)


def test_sweep_frequencies_match_full_conditional():
    """One token resampled 20,000 times against fixed counts from tokens
    outside the sweep, at K = 12 with all three buckets carrying mass: its
    draws are independent draws from the full conditional."""
    rng = np.random.default_rng(31)
    K, V, t, k0 = 12, 6, 2, 5
    n_kt = rng.integers(0, 4, size=(K, V)) * (rng.random((K, V)) < 0.5)
    n_mk = rng.integers(0, 3, size=(1, K)) * (rng.random((1, K)) < 0.5)
    n_kt[k0, t] += 1
    n_mk[0, k0] += 1
    state = LdaState([np.array([t])], [np.array([k0])], n_kt, n_mk,
                     n_kt.sum(axis=1), n_mk.sum(axis=1))
    cfg = LdaConfig(num_topics=K, alpha=list(rng.uniform(0.2, 1.0, K)),
                    beta=list(rng.uniform(0.3, 1.0, V)), sweeps=2, burn_in=0)
    probe = copy.deepcopy(state)
    exclude_token(probe, 0, 0)
    p = full_conditional(probe, 0, 0, cfg)
    shares = [b.sum() for b in bucket_masses(probe, 0, 0, cfg.alpha_vec(),
                                              cfg.beta_vec(V))]
    assert min(shares) > 0.1 * sum(shares)  # every bucket matters
    outside_kt, outside_mk = probe.n_kt.copy(), probe.n_mk.copy()

    draws = 20_000
    freq = np.zeros(K)
    for _ in range(draws):
        gibbs_sweep(state, cfg, rng)
        freq[state.z[0][0]] += 1
    exclude_token(state, 0, 0)
    assert np.array_equal(state.n_kt, outside_kt)
    assert np.array_equal(state.n_mk, outside_mk)
    assert np.array_equal(state.n_k, outside_kt.sum(axis=1))
    chi2 = float(np.sum((freq - draws * p) ** 2 / (draws * p)))
    assert chi2 < 37.37  # chi-square with 11 degrees of freedom, p = 1e-4


def test_sweep_law_matches_topic_order_reference():
    """Bucket order changes which uniform maps to which topic, not the
    law: from one start state at K = 10, the topic of the last token after
    one sweep has the same distribution under gibbs_sweep and under the
    topic-order reference sweep (two-sample chi-square, 4,000 sweeps each)."""
    K, V = 10, 5
    docs = [np.array([0, 1, 1, 3]), np.array([2, 1, 0])]
    z = [np.array([4, 7, 7, 1]), np.array([9, 7, 4])]
    cfg = LdaConfig(num_topics=K, alpha=0.2, beta=[0.3, 0.1, 0.5, 0.2, 0.4],
                    sweeps=2, burn_in=0)
    runs = 4_000
    fast, ref = np.zeros(K), np.zeros(K)
    for seed in range(runs):
        state = state_from(docs, z, K, V)
        gibbs_sweep(state, cfg, np.random.default_rng([1, seed]))
        fast[state.z[-1][-1]] += 1
        state = state_from(docs, z, K, V)
        reference_sweep(state, cfg, np.random.default_rng([2, seed]))
        ref[state.z[-1][-1]] += 1
    seen = (fast + ref) > 0
    chi2 = float(np.sum((fast - ref)[seen] ** 2 / (fast + ref)[seen]))
    assert chi2 < 33.72  # chi-square with 9 degrees of freedom, p = 1e-4


class ConstantUniforms:
    """An rng stand-in whose `random(n)` returns n copies of one value."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


@pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)])
def test_extreme_uniforms_take_first_and_last_positive_mass(u):
    """u = 0 takes the first topic of positive mass in bucket order (q, r,
    s); u just below 1 takes the last one, topic K - 1 of the s bucket, also
    when rounding carries u * total past the summed masses."""
    for docs, z, K, V, cfg in micro_cases(4242, 200):
        alpha, beta = cfg.alpha_vec(), cfg.beta_vec(V)
        fast = state_from(docs, z, K, V)
        gibbs_sweep(fast, cfg, ConstantUniforms(u))
        ref = state_from(docs, z, K, V)
        for m, toks in enumerate(ref.docs):
            for n in range(len(toks)):
                exclude_token(ref, m, n)
                s, r, q = bucket_masses(ref, m, n, alpha, beta)
                positive = np.flatnonzero(np.concatenate([q, r, s]))
                k = int(positive[0 if u == 0.0 else -1]) % K
                ref.z[m][n] = k
                ref.n_kt[k, int(toks[n])] += 1
                ref.n_mk[m, k] += 1
                ref.n_k[k] += 1
                assert fast.z[m][n] == k
                if u > 0.5:
                    assert k == K - 1
        assert_counts_consistent(fast)


def test_single_topic_sweep_always_draws_topic_zero():
    for docs, z, K, V, cfg in micro_cases(8080, 50):
        cfg = LdaConfig(num_topics=1, beta=cfg.beta, sweeps=2, burn_in=0)
        state = state_from(docs, [np.zeros(len(d), dtype=np.int64) for d in docs], 1, V)
        for seed in range(3):
            gibbs_sweep(state, cfg, np.random.default_rng(seed))
        for u in (0.0, np.nextafter(1.0, 0.0)):
            gibbs_sweep(state, cfg, ConstantUniforms(u))
        assert all(np.all(zs == 0) for zs in state.z)
        assert_counts_consistent(state)


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


@pytest.mark.parametrize("field,value", [
    ("alpha", math.inf), ("alpha", math.nan), ("alpha", [1.0, math.inf]),
    ("beta", math.inf), ("beta", -math.inf), ("beta", [0.1, math.nan])])
def test_non_finite_priors_rejected_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        LdaConfig(num_topics=2, **{field: value})


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
    theta = infer_theta(model, BagOfWords({}), cfg)
    assert theta == pytest.approx([0.3, 0.7], abs=1e-15)


def test_infer_deterministic():
    corp = tiny_corpus()
    cfg = LdaConfig(num_topics=2, sweeps=10, burn_in=5, seed=4)
    model = train(corp, cfg)
    bag = BagOfWords(dict(Counter(corp.docs[0].tokens.tolist())))
    v1 = infer_theta(model, bag, cfg)
    v2 = infer_theta(model, bag, cfg)
    assert np.array_equal(v1, v2)


def random_bag(rng, V, max_tokens):
    ids = rng.integers(V, size=int(rng.integers(1, max_tokens + 1)))
    terms, counts = np.unique(ids, return_counts=True)
    return BagOfWords({int(t): int(c) for t, c in zip(terms, counts)})


def phi_model(phi, cfg):
    return LdaModel(phi, None, cfg, [f"w{t}" for t in range(phi.shape[1])], None)


@pytest.mark.parametrize("readout", ["final_sample", "thinned_average"])
def test_infer_draws_match_token_by_token_reference(readout):
    """infer_theta draws exactly the topics of the token-by-token fold-in
    over the sparse masses, then the dense masses."""
    rng = np.random.default_rng(1618)
    cases = []
    for _ in range(100):
        docs, z, K, V, alpha, beta = random_micro_instance(rng)
        sweeps = int(rng.integers(1, 9))
        cfg = LdaConfig(num_topics=K, alpha=list(alpha), beta=list(beta),
                        sweeps=sweeps, burn_in=int(rng.integers(sweeps)),
                        sample_lag=int(rng.integers(1, 4)), readout=readout,
                        seed=int(rng.integers(1 << 30)))
        phi, _ = estimate_phi_theta(state_from(docs, z, K, V), cfg)
        cases.append((phi, cfg, random_bag(rng, V, 10)))
    # a topics-k50-sized case: many topics, a long document
    for seed in range(3):
        phi = rng.dirichlet(np.full(400, 0.1), size=50)
        cfg = LdaConfig(num_topics=50, sweeps=30, burn_in=10, sample_lag=5,
                        readout=readout, seed=seed)
        cases.append((phi, cfg, random_bag(rng, 400, 150)))
    for phi, cfg, bag in cases:
        model = phi_model(phi, cfg)
        assert np.array_equal(infer_theta(model, bag, cfg),
                              reference_sparse_infer_theta(model, bag, cfg))


def test_infer_law_matches_topic_order_reference():
    """The two-bucket order changes which uniform maps to which topic, not
    the law: the final counts of a 4-token document at K = 4 (35 possible
    outcomes) have the same distribution under infer_theta and under the
    topic-order reference fold-in (two-sample chi-square, 10,000 seeds
    each)."""
    phi = np.array([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8], [0.3, 0.4, 0.3], [0.6, 0.1, 0.3]])
    bag = BagOfWords({0: 2, 1: 1, 2: 1})
    cfg = LdaConfig(num_topics=4, alpha=[0.3, 0.5, 0.2, 0.9], sweeps=2, burn_in=0)
    model = phi_model(phi, cfg)
    runs = 10_000
    fast, ref = Counter(), Counter()
    for seed in range(runs):
        fast[tuple(infer_theta(model, bag, dataclasses.replace(cfg, seed=seed)))] += 1
        ref[tuple(reference_infer_theta(
            model, bag, dataclasses.replace(cfg, seed=runs + seed)))] += 1
    outcomes = fast.keys() | ref.keys()
    assert len(outcomes) <= 35
    chi2 = sum((fast[o] - ref[o]) ** 2 / (fast[o] + ref[o]) for o in outcomes)
    assert chi2 < 73.48  # chi-square with 34 degrees of freedom, p = 1e-4


class FoldInUniforms(ConstantUniforms):
    """An rng stand-in for a fold-in: fixed start topics, then one constant
    uniform for every draw."""

    def __init__(self, u, start):
        super().__init__(u)
        self.start = np.asarray(start)

    def integers(self, K, size):
        assert size == len(self.start)
        return self.start.copy()


def fold_in_with(monkeypatch, u, start, model, bag, cfg):
    monkeypatch.setattr(np.random, "default_rng", lambda seed: FoldInUniforms(u, start))
    return infer_theta(model, bag, cfg), reference_sparse_infer_theta(model, bag, cfg)


def counts_of(theta, cfg, tokens):
    alpha = cfg.alpha_vec()
    return np.rint(theta * (tokens + alpha.sum()) - alpha).astype(int)


def test_infer_uniform_zero_takes_first_positive_sparse_mass(monkeypatch):
    """u = 0 takes the first topic of positive mass in the sparse bucket:
    topic 1 holds two of the three tokens at the start but has no mass for
    term 0, and topic 0 has mass only in the dense bucket."""
    phi = np.array([[0.5, 0.5], [0.0, 1.0], [0.5, 0.5], [0.25, 0.75]])
    cfg = LdaConfig(num_topics=4, alpha=0.5, sweeps=2, burn_in=0)
    bag = BagOfWords({0: 3})
    fast, ref = fold_in_with(monkeypatch, 0.0, [1, 1, 3], phi_model(phi, cfg), bag, cfg)
    assert np.array_equal(counts_of(fast, cfg, 3), [0, 0, 0, 3])
    assert np.array_equal(fast, ref)


@pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)])
def test_infer_extreme_uniforms_match_reference(monkeypatch, u):
    """Under a constant uniform, u = 0 or u just below 1, the fold-in takes
    the reference's topic at every token; u just below 1 takes topic K - 1,
    also when rounding carries u * total past the summed masses."""
    rng = np.random.default_rng(5150)
    for _ in range(100):
        docs, z, K, V, alpha, beta = random_micro_instance(rng)
        cfg = LdaConfig(num_topics=K, alpha=list(alpha), beta=list(beta),
                        sweeps=3, burn_in=1)
        phi, _ = estimate_phi_theta(state_from(docs, z, K, V), cfg)
        bag = random_bag(rng, V, 10)
        tokens = sum(bag.counts.values())
        start = rng.integers(K, size=tokens)
        fast, ref = fold_in_with(monkeypatch, u, start, phi_model(phi, cfg), bag, cfg)
        assert np.array_equal(fast, ref)
        if u > 0.5:
            assert counts_of(fast, cfg, tokens)[-1] == tokens


def test_infer_one_token_document_draws_from_dense_bucket(monkeypatch):
    """A one-token document has an empty sparse bucket once the token is
    excluded, so every draw inverts phi[:, t] * alpha, whatever the start
    topic."""
    rng = np.random.default_rng(77)
    K, t = 6, 2
    phi = rng.dirichlet(np.ones(5), size=K)
    cfg = LdaConfig(num_topics=K, alpha=list(rng.uniform(0.1, 1.0, K)),
                    sweeps=3, burn_in=0)
    dense = phi[:, t] * cfg.alpha_vec()
    cum = np.cumsum(dense / dense.sum())
    for u in np.linspace(0.01, 0.99, 25):
        expected = int(np.searchsorted(cum, u, side="right"))
        for start in range(K):
            fast, _ = fold_in_with(monkeypatch, u, [start], phi_model(phi, cfg),
                                   BagOfWords({t: 1}), cfg)
            assert np.array_equal(counts_of(fast, cfg, 1),
                                  np.eye(K, dtype=int)[expected])


def test_infer_single_topic_returns_one():
    rng = np.random.default_rng(3)
    for seed in range(20):
        phi = rng.dirichlet(np.ones(7), size=1)
        cfg = LdaConfig(num_topics=1, alpha=float(rng.uniform(0.05, 2.0)),
                        sweeps=3, burn_in=1, seed=seed)
        theta = infer_theta(phi_model(phi, cfg), random_bag(rng, 7, 12), cfg)
        assert np.array_equal(theta, [1.0])


@pytest.mark.parametrize("counts, bad", [({0: 0, 1: -2}, 0), ({0: 2.0}, 0),
                                         ({3: 1, 4: -1}, 4)])
def test_infer_rejects_counts_that_are_not_positive_integers(counts, bad):
    phi = np.full((2, 5), 0.2)
    cfg = LdaConfig(num_topics=2, sweeps=2, burn_in=0)
    with pytest.raises(ValueError, match=f"term id {bad}\\b"):
        infer_theta(phi_model(phi, cfg), BagOfWords(counts), cfg)


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
    best = max(
        min(cosine(model.phi[0], truth[p[0]]),
            cosine(model.phi[1], truth[p[1]]))
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
