"""Acceptance suite: every release gate in one module, each check printing
its own pass/fail line (run with -s or -rA to see them).

The gates are statistical or oracle-backed desk-scale checks with pinned
tolerances and runtime budgets; nothing here depends on external data.
"""

import filecmp
import importlib.util
import math
import time
from contextlib import contextmanager
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from oracles import (cosine, dense_joint, exclude_token,
                     finite_difference_net_grads, init_model, knn_sort_oracle,
                     max_rel_err, oracle_conditional, random_micro_instance,
                     reference_conditional, reference_entropy_bits, reference_kl,
                     reference_q, reference_squared_distances, state_from)
from topicvec import cli
from topicvec.autoencoder import (ACTIVATIONS, NetTrainConfig, backprop, init_net,
                                  layer_learning_rates, reconstruction_error,
                                  train_autoencoder)
from topicvec.corpus import build_corpus
from topicvec.doc2vec import (Doc2VecConfig, avg_log_prob, epoch_schedule,
                              log_prob_and_grads)
from topicvec.doc2vec import train as d2v_train
from topicvec.lda import (GeneratorConfig, LdaConfig, estimate_phi_theta,
                          full_conditional, generate_corpus, gibbs_sweep,
                          init_state)
from topicvec.neighbors import knn
from topicvec.tsne import (TsneConfig, calibrate_sigma, joint_affinities,
                           kl_and_gradient, run, sum_p_log_p)

DATA = files("topicvec") / "data"
ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {label}: FAIL")
        raise
    print(f"\n[acceptance] {label}: PASS")


def test_criterion_1_gibbs_oracle_equivalence():
    with criterion("1 Gibbs-oracle equivalence (100 micro-instances, "
                   "max abs err < 1e-12, < 5 s)"):
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        worst = 0.0
        for _ in range(100):
            docs, z, K, V, alpha, beta = random_micro_instance(rng)
            # check the conditional at every token of the instance
            for m in range(len(docs)):
                for n in range(len(docs[m])):
                    expected = oracle_conditional(docs, z, m, n, K, V, alpha, beta)
                    state = state_from(docs, z, K, V)
                    exclude_token(state, m, n)
                    cfg = LdaConfig(num_topics=K, alpha=list(alpha),
                                    beta=list(beta), sweeps=2, burn_in=0)
                    got = full_conditional(state, m, n, cfg)
                    worst = max(worst, float(np.max(np.abs(got - expected))))
        elapsed = time.perf_counter() - start
        assert worst < 1e-12, f"max abs error {worst}"
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_2_count_conservation():
    with criterion("2 count conservation after 200 sweeps on 50 docs "
                   "(exact integers; rows sum to 1 within 1e-9)"):
        gcfg = GeneratorConfig(num_topics=3, vocab_size=30, num_docs=50,
                               alpha=0.3, beta=0.5, mean_doc_len=30, seed=7)
        corp, _, _ = generate_corpus(gcfg)
        cfg = LdaConfig(num_topics=3, alpha=0.1, beta=0.1, sweeps=200,
                        burn_in=100, seed=5)
        rng = np.random.default_rng(cfg.seed)
        state = init_state(corp, cfg, rng)
        total_tokens = int(state.n_m.sum())
        for _ in range(200):
            gibbs_sweep(state, cfg, rng)

        n_kt = np.zeros_like(state.n_kt)
        n_mk = np.zeros_like(state.n_mk)
        for m, (toks, zs) in enumerate(zip(state.docs, state.z)):
            for t, k in zip(toks, zs):
                n_kt[k, t] += 1
                n_mk[m, k] += 1
        assert np.array_equal(n_kt, state.n_kt)
        assert np.array_equal(n_mk, state.n_mk)
        assert np.array_equal(state.n_kt.sum(axis=1), state.n_k)
        assert np.array_equal(state.n_mk.sum(axis=1), state.n_m)
        assert int(state.n_k.sum()) == total_tokens
        assert int(state.n_m.sum()) == total_tokens

        phi, theta = estimate_phi_theta(state, cfg)
        assert np.max(np.abs(phi.sum(axis=1) - 1.0)) < 1e-9
        assert np.max(np.abs(theta.sum(axis=1) - 1.0)) < 1e-9


def test_criterion_3_planted_topic_recovery(capsys):
    # scripts/planted_recovery.py trains the ten planted-topic models once
    # for both checks: this gate and the script's own summary line
    with criterion("3 planted-topic recovery (cosine > 0.9 in >= 9/10 runs, "
                   "< 60 s)"):
        path = ROOT / "scripts" / "planted_recovery.py"
        spec = importlib.util.spec_from_file_location("planted_recovery", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        start = time.perf_counter()
        wins = script.main()
        elapsed = time.perf_counter() - start
        summary = capsys.readouterr().out.splitlines()[-1]
        assert wins >= 9, f"only {wins}/10 runs recovered the planted topics"
        assert elapsed < 60.0, f"took {elapsed:.1f} s"
        assert summary == "recovered in 10/10 runs (threshold 0.9)"


def test_criterion_4_autoencoder_gradient_fidelity():
    with criterion("4 autoencoder gradients vs central differences "
                   "(20 nets, rel err < 1e-5, < 10 s)"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(20):
            depth = int(rng.integers(2, 5))
            sizes = [int(rng.integers(1, 7)) for _ in range(depth + 1)]
            kinds = [ACTIVATIONS[rng.integers(3)] for _ in range(depth)]
            net = init_net(sizes, kinds, 0.7, rng)
            x = rng.normal(size=sizes[0])
            target = rng.normal(size=sizes[-1])
            gw, gb = backprop(net, x, target)
            fw, fb = finite_difference_net_grads(net, x, target, eps=1e-4)
            assert max_rel_err(gw + gb, fw + fb) < 1e-5
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_5_word_feature_demo():
    with criterion("5 one-hot sentence demo (error cut >= 50%, "
                   "rate ratio exactly 10)"):
        sentences = np.array([[1, 1, 1, 0, 0, 0, 0],
                              [1, 1, 0, 1, 1, 1, 0],
                              [1, 0, 1, 0, 0, 0, 1]], dtype=float)
        cfg = NetTrainConfig(seed=0)
        rng = np.random.default_rng(cfg.seed)
        initial_net = init_net([7, 3, 7], ["sigmoid", "linear"],
                               cfg.init_scale, rng)
        before = reconstruction_error(initial_net, sentences)
        net = train_autoencoder(sentences, 3, cfg)
        after = reconstruction_error(net, sentences)
        assert after <= 0.5 * before, f"error only fell {before} -> {after}"
        for n_inputs in (7, 3):
            lw, lb = layer_learning_rates(cfg, n_inputs)
            assert lw / lb == 10.0


def test_criterion_6_doc2vec_gradients_and_separation():
    with criterion("6 doc2vec gradient check (< 1e-5), cluster separation, "
                   "objective increase (< 60 s)"):
        start = time.perf_counter()

        # finite differences on a small model with live softmax parameters
        rng = np.random.default_rng(31)
        corp0 = build_corpus(
            [[f"t{rng.integers(8)}" for _ in range(10)] for _ in range(3)],
            ["a", "b", "c"])
        cfg0 = Doc2VecConfig(dim=4, window=2, min_count=1, subsample=1.0,
                             max_epochs=2, seed=0)
        model = d2v_train(corp0, cfg0)
        ctx, target = [0, 1], min(2, len(model.terms) - 1)
        _, gU, gb, gdoc, gctx = log_prob_and_grads(model, 0, ctx, target)

        def logp():
            return log_prob_and_grads(model, 0, ctx, target)[0]

        def central(arr, idx, eps=1e-5):
            orig = arr[idx]
            arr[idx] = orig + eps
            up = logp()
            arr[idx] = orig - eps
            down = logp()
            arr[idx] = orig
            return (up - down) / (2 * eps)

        worst = 0.0
        for idx in np.ndindex(model.U.shape):
            worst = max(worst, max_rel_err([gU[idx]], [central(model.U, idx)]))
        for i in range(len(model.b)):
            worst = max(worst, max_rel_err([gb[i]], [central(model.b, (i,))]))
        for j in range(4):
            worst = max(worst, max_rel_err([gdoc[j]], [central(model.D, (0, j))]))
            worst = max(worst, max_rel_err([gctx[j]], [central(model.W, (0, j))]))
        assert worst < 1e-5, f"gradient mismatch {worst}"

        # two disjoint 20-word vocabularies, 20 documents each
        rng = np.random.default_rng(8)
        docs, labels = [], []
        for c, prefix in enumerate("ab"):
            vocab = [f"{prefix}{i}" for i in range(20)]
            for i in range(20):
                docs.append([vocab[rng.integers(20)] for _ in range(30)])
                labels.append(f"{prefix}{i}_doc")
        corp = build_corpus(docs, labels)
        cfg = Doc2VecConfig(dim=8, window=3, min_count=1, subsample=1.0,
                            max_epochs=30, seed=1)
        lp_init = avg_log_prob(init_model(corp, cfg), corp)
        assert lp_init == pytest.approx(-math.log(40), abs=1e-12)
        trained = d2v_train(corp, cfg)
        lp_final = avg_log_prob(trained, corp)
        assert lp_final > lp_init, "objective did not increase"

        D = trained.D
        within, cross = [], []
        for i in range(40):
            for j in range(i + 1, 40):
                sim = cosine(D[i], D[j])
                (within if (i < 20) == (j < 20) else cross).append(sim)
        assert np.mean(within) > np.mean(cross)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_7_knn_oracle():
    with criterion("7 KNN vs exhaustive sort (50 matrices, both metrics), "
                   "self-match, scale invariance"):
        rng = np.random.default_rng(55)
        for trial in range(50):
            M = int(rng.integers(2, 51))
            F = int(rng.integers(1, 11))
            X = rng.uniform(0.05, 3.0, size=(M, F))
            qi = int(rng.integers(M))
            k = min(int(rng.integers(1, 21)), M - 1)
            for metric in ("cosine", "euclidean"):
                res = knn(X, qi, k=k, metric=metric)
                full = knn_sort_oracle(X, X[qi], metric)
                full = [qi] + [i for i in full if i != qi]
                assert [i for i, _ in res.entries] == full[:k + 1], \
                    f"trial {trial} metric {metric}"
            assert res.entries[0] == (qi, 0.0)

        X = rng.uniform(0.1, 1.0, size=(30, 5))
        scales = rng.uniform(0.25, 4.0, size=(30, 1))
        before = [i for i, _ in knn(X, 3, k=12, metric="cosine").entries]
        after = [i for i, _ in knn(X * scales, 3, k=12, metric="cosine").entries]
        assert before == after, "cosine ranking changed under row scaling"


def test_criterion_8_tsne_calibration_and_descent():
    with criterion("8 t-SNE calibration (< 1e-5 bits), gradient (< 1e-4), "
                   "KL descent, 3-cluster purity >= 90% (< 90 s)"):
        start = time.perf_counter()

        rng = np.random.default_rng(40)
        X = rng.normal(size=(60, 8))
        d2 = reference_squared_distances(X)
        for i in range(60):
            sigma = calibrate_sigma(d2[i], perp=12.0, self_index=i)
            bits = reference_entropy_bits(reference_conditional(d2[i], sigma, i))
            assert abs(bits - math.log2(12.0)) < 1e-5

        Y = rng.normal(size=(6, 2))
        packed = joint_affinities(rng.normal(size=(6, 4)), 2.5)
        P = dense_joint(packed, 6)
        for kernel in ("student_t", "gaussian"):
            grad = kl_and_gradient(packed, sum_p_log_p(packed), Y, kernel, 1.0)[1]
            worst = 0.0
            for idx in np.ndindex(Y.shape):
                orig = Y[idx]
                eps = 1e-5
                Y[idx] = orig + eps
                up = reference_kl(P, reference_q(Y, kernel))
                Y[idx] = orig - eps
                down = reference_kl(P, reference_q(Y, kernel))
                Y[idx] = orig
                worst = max(worst, max_rel_err([grad[idx]],
                                               [(up - down) / (2 * eps)]))
            assert worst < 1e-4, f"{kernel} gradient mismatch {worst}"

        layout = run(rng.normal(size=(100, 10)),
                     TsneConfig(perplexity=15, iterations=300, seed=1))
        assert layout.kl < layout.kl_trace[50], "KL did not fall after exaggeration"

        centers = np.random.default_rng(41).normal(0, 20.0, size=(3, 10))
        pts = np.vstack([c + np.random.default_rng(42 + i).normal(0, 0.5, (50, 10))
                         for i, c in enumerate(centers)])
        labels = np.repeat(np.arange(3), 50)
        lay = run(pts, TsneConfig(seed=6))
        dd = reference_squared_distances(lay.Y)
        np.fill_diagonal(dd, np.inf)
        purity = float(np.mean(labels[np.argmin(dd, axis=1)] == labels))
        assert purity >= 0.9, f"cluster purity {purity}"
        elapsed = time.perf_counter() - start
        assert elapsed < 90.0, f"took {elapsed:.1f} s"


def test_criterion_9_hyperparameter_fidelity():
    with criterion("9 default hyperparameters match the documented settings"):
        lda = LdaConfig()
        assert lda.num_topics == 50
        assert np.allclose(lda.alpha_vec(), 1.0 / 50)
        assert float(lda.alpha_vec()[0]) == 0.02
        assert np.allclose(lda.beta_vec(4), 0.1)

        d2v = Doc2VecConfig()
        assert (d2v.dim, d2v.window, d2v.min_count) == (50, 5, 5)
        assert (d2v.alpha0, d2v.decay, d2v.alpha_floor) == (0.025, 0.99, 1e-3)
        assert len(epoch_schedule(d2v)) == 321  # 0.025 * 0.99^e floors at e=321

        X = np.random.default_rng(0).uniform(0.1, 1.0, size=(30, 4))
        assert len(knn(X, 0).entries) == 21  # default k=20 plus the query row

        tsne = TsneConfig()
        assert tsne.perplexity == 30 and tsne.iterations == 1000
        assert tsne.learning_rate == 100
        assert (tsne.momentum(249), tsne.momentum(250)) == (0.5, 0.8)


def test_criterion_10_end_to_end_determinism(tmp_path):
    with criterion("10 two pipeline runs are byte-identical (< 120 s)"):
        start = time.perf_counter()
        args = ["pipeline",
                "--config", str(DATA / "mini.ini"),
                "--corpus", str(DATA / "mini_plots.txt"),
                "--titles", str(DATA / "mini_titles.txt"),
                "--stopwords", str(DATA / "stopwords.txt")]
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        elapsed = time.perf_counter() - start

        artifacts = ["corpus_filtered.txt", "lda_theta.csv", "lda_topics.txt",
                     "doc2vec_vectors.csv", "knn_lda.tsv", "knn_doc2vec.tsv",
                     "lda_tsne.csv", "doc2vec_tsne.csv"]
        for name in artifacts:
            assert (out1 / name).exists(), f"{name} missing"
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False), \
                f"{name} differs between runs"

        n_titles = len((DATA / "mini_titles.txt").read_text().splitlines())
        from topicvec.pipeline import load_matrix_csv, load_model
        for name, cols in (("lda_theta.csv", 8), ("doc2vec_vectors.csv", 16),
                           ("lda_tsne.csv", 2), ("doc2vec_tsne.csv", 2)):
            parsed = load_matrix_csv(out1 / name)
            assert parsed.shape == (n_titles, cols), f"{name}: {parsed.shape}"
            assert np.all(np.isfinite(parsed)), f"{name} has non-finite entries"
        for name in ("knn_lda.tsv", "knn_doc2vec.tsv"):
            lines = (out1 / name).read_text().splitlines()
            assert len(lines) == 21  # configured k=20 plus the query itself
            rank, title, dist = lines[0].split("\t")
            assert (rank, title, dist) == ("0", "The Godfather", "0.0")
        load_model(out1 / "lda_model.npz", kind="lda")
        load_model(out1 / "doc2vec_model.npz", kind="doc2vec")
        assert elapsed < 120.0, f"took {elapsed:.1f} s"
