import math

import numpy as np
import pytest
from oracles import (reference_calibrate_sigma, reference_entropy_bits,
                     reference_gradient, reference_kl, reference_tsne_run)

from topicvec.tsne import (TsneConfig, calibrate_sigma, conditional_affinities,
                           joint_affinities, kl_and_gradient, low_dim_affinities,
                           run, squared_distances, symmetrize)


def awkward_data(n, seed, dups=0, simplex=0):
    """Gaussian points whose first `dups` rows are one repeated point and
    whose next `simplex` rows are scaled unit vectors in their own
    coordinates, so those rows are equidistant from each other."""
    rng = np.random.default_rng(seed)
    X = np.hstack([rng.normal(size=(n, 5)), np.zeros((n, simplex))])
    X[:dups] = X[0]
    block = slice(dups, dups + simplex)
    X[block] = 0.0
    X[block, 5:] = 3.0 * np.eye(simplex)
    return X


def three_cluster_data(n_per=50, dim=10, spread=0.5, gap=20.0, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, gap, size=(3, dim))
    X = np.vstack([c + rng.normal(0, spread, size=(n_per, dim)) for c in centers])
    labels = np.repeat(np.arange(3), n_per)
    return X, labels


# ----------------------------------------------------------- conditionals

def test_conditional_row_sums_to_one():
    row = np.array([0.0, 1.0, 4.0, 2.5])
    p = conditional_affinities(row, sigma=0.8, self_index=0)
    assert p[0] == 0.0
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_equidistant_points_get_uniform_affinities():
    row = np.array([0.0, 5.0, 5.0])
    for sigma in (0.1, 1.0, 10.0):
        p = conditional_affinities(row, sigma, 0)
        assert p == pytest.approx([0.0, 0.5, 0.5], abs=1e-12)


def test_conditional_matches_direct_formula():
    row = np.array([3.0, 0.0, 1.0, 7.0])
    sigma = 1.3
    p = conditional_affinities(row, sigma, self_index=1)
    weights = [math.exp(-d / (2 * sigma * sigma)) if j != 1 else 0.0
               for j, d in enumerate(row)]
    expected = np.array(weights) / sum(weights)
    assert p == pytest.approx(expected, abs=1e-12)


def test_conditional_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        conditional_affinities(np.array([0.0, 1.0]), 0.0, 0)


# ------------------------------------------------------------ calibration

def test_calibration_hits_target_perplexity_on_random_rows():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 5))
    d2 = squared_distances(X)
    for i in range(40):
        sigma = calibrate_sigma(d2[i], perp=10.0, self_index=i)
        bits = reference_entropy_bits(conditional_affinities(d2[i], sigma, i))
        assert abs(bits - math.log2(10.0)) < 1e-5


def test_doubling_distances_doubles_sigma():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(25, 4))
    d2 = squared_distances(X)
    for i in (0, 7, 19):
        s1 = calibrate_sigma(d2[i], perp=8.0, self_index=i)
        s2 = calibrate_sigma(4.0 * d2[i], perp=8.0, self_index=i)  # 2x distances
        assert s2 == pytest.approx(2.0 * s1, rel=1e-3)


def test_equidistant_row_reports_its_forced_perplexity():
    n = 6
    row = np.full(n, 3.0)
    row[2] = 0.0
    sigma = calibrate_sigma(row, perp=n - 1, self_index=2)
    bits = reference_entropy_bits(conditional_affinities(row, sigma, 2))
    assert 2.0 ** bits == pytest.approx(n - 1, rel=1e-9)


@pytest.mark.parametrize("n,perp,dups,simplex", [
    (30, 5.0, 0, 0), (80, 12.5, 10, 0), (150, 20.0, 0, 30),
    (300, 30.0, 25, 40)])
def test_calibration_matches_reference_search(n, perp, dups, simplex):
    d2 = squared_distances(awkward_data(n, seed=n, dups=dups, simplex=simplex))
    fast = [calibrate_sigma(d2[i], perp, i) for i in range(n)]
    slow = [reference_calibrate_sigma(d2[i], perp, i) for i in range(n)]
    assert np.array_equal(fast, slow)


def equidistant_and_tied_rows(n=30):
    simplex = squared_distances(3.0 * np.eye(n))  # every row is equidistant
    ties = np.round(squared_distances(np.random.default_rng(9).normal(size=(n, 2))))
    return simplex, ties


@pytest.mark.parametrize("perp", [2.0, 7.3, 28.5])
def test_calibration_matches_reference_on_equidistant_rows(perp):
    for rows in equidistant_and_tied_rows():
        n = len(rows)
        fast = [calibrate_sigma(rows[i], perp, i) for i in range(n)]
        slow = [reference_calibrate_sigma(rows[i], perp, i) for i in range(n)]
        assert np.array_equal(fast, slow)


def test_calibration_at_the_limit_perplexity_meets_target():
    # perp = n - 1 is reached only as sigma grows without bound, so the
    # entropy lies within a few ulps of the target over a range of sigmas
    # and either search may stop anywhere in it; run() never asks for it
    rows = equidistant_and_tied_rows()[1]
    n = len(rows)
    for i in range(n):
        for sigma in (calibrate_sigma(rows[i], n - 1, i),
                      reference_calibrate_sigma(rows[i], n - 1, i)):
            bits = reference_entropy_bits(conditional_affinities(rows[i], sigma, i))
            assert abs(bits - math.log2(n - 1)) < 1e-12


def test_unreachable_perplexity_returns_best_effort():
    row = np.array([0.0, 1.0, 1.0, 1.0])
    sigma = calibrate_sigma(row, perp=2.0, self_index=0)  # forced perp is 3
    assert sigma > 0 and np.isfinite(sigma)


# ----------------------------------------------------------- joint P and Q

def test_symmetrize_properties():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(12, 3))
    P = joint_affinities(squared_distances(X), perplexity=5.0)
    assert np.array_equal(P, P.T)
    assert P.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diag(P) == 0.0)
    assert np.all(P[~np.eye(12, dtype=bool)] >= 1e-12)


def test_symmetrize_three_point_hand_example():
    cond = np.array([[0.0, 0.7, 0.3],
                     [0.2, 0.0, 0.8],
                     [0.5, 0.5, 0.0]])
    P = symmetrize(cond)
    assert P[0, 1] == pytest.approx((0.7 + 0.2) / 6.0, abs=1e-15)
    assert P[0, 2] == pytest.approx((0.3 + 0.5) / 6.0, abs=1e-15)
    assert P[1, 2] == pytest.approx((0.8 + 0.5) / 6.0, abs=1e-15)
    assert P.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kernel", ["student_t", "gaussian"])
def test_two_points_split_q_evenly(kernel):
    Y = np.array([[0.0, 0.0], [1.0, 2.0]])
    Q, _ = low_dim_affinities(Y, kernel)
    assert Q[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert Q[1, 0] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("kernel", ["student_t", "gaussian"])
def test_q_symmetric_and_normalized(kernel):
    Y = np.random.default_rng(0).normal(size=(9, 2))
    Q, _ = low_dim_affinities(Y, kernel)
    assert np.array_equal(Q, Q.T)
    assert Q.sum() == pytest.approx(1.0, abs=1e-9)


def test_student_q_matches_hand_table():
    Y = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    d2 = {(0, 1): 1.0, (0, 2): 4.0, (1, 2): 5.0}
    w = {k: 1.0 / (1.0 + v) for k, v in d2.items()}
    total = 2 * sum(w.values())
    Q, _ = low_dim_affinities(Y, "student_t")
    for (i, j), wij in w.items():
        assert Q[i, j] == pytest.approx(wij / total, abs=1e-12)


# ------------------------------------------------------------ KL and grad

def test_gradient_zero_at_matching_distributions():
    Y = np.random.default_rng(1).normal(size=(7, 2))
    Q, divisor = low_dim_affinities(Y, "student_t")
    grad = kl_and_gradient(Q, Q, Y, divisor)
    assert np.allclose(grad, 0.0, atol=1e-15)


@pytest.mark.parametrize("kernel", ["student_t", "gaussian"])
def test_gradient_matches_reference_per_call(kernel):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        P = joint_affinities(squared_distances(rng.normal(size=(20, 4))), 5.0)
        Y = rng.normal(size=(20, 2))
        for P_step in (P, 4.0 * P):  # plain and early-exaggerated
            Q, divisor = low_dim_affinities(Y, kernel)
            assert np.array_equal(kl_and_gradient(P_step, Q, Y, divisor),
                                  reference_gradient(P_step, Y, kernel))


@pytest.mark.parametrize("kernel", ["student_t", "gaussian"])
def test_gradient_matches_finite_differences(kernel):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(6, 4))
    P = joint_affinities(squared_distances(X), perplexity=3.0)
    Y = rng.normal(size=(6, 2))
    Q, divisor = low_dim_affinities(Y, kernel)
    grad = kl_and_gradient(P, Q, Y, divisor)
    eps = 1e-5
    worst = 0.0
    for idx in np.ndindex(Y.shape):
        orig = Y[idx]
        Y[idx] = orig + eps
        up = reference_kl(P, low_dim_affinities(Y, kernel)[0])
        Y[idx] = orig - eps
        down = reference_kl(P, low_dim_affinities(Y, kernel)[0])
        Y[idx] = orig
        numeric = (up - down) / (2 * eps)
        denom = max(abs(grad[idx]), abs(numeric), 1e-3)
        worst = max(worst, abs(grad[idx] - numeric) / denom)
    assert worst < 1e-4


# --------------------------------------------------------------------- run

def test_kl_decreases_after_exaggeration_window():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(100, 10))
    cfg = TsneConfig(perplexity=15, iterations=300, seed=1)
    layout = run(X, cfg)
    first_post = layout.kl_trace[cfg.exaggeration_iters]
    assert layout.kl < first_post
    assert layout.kl == layout.kl_trace[-1]
    assert np.all(np.isfinite(layout.Y))


def test_run_deterministic():
    X = np.random.default_rng(11).normal(size=(40, 6))
    cfg = TsneConfig(perplexity=8, iterations=80, seed=4)
    l1, l2 = run(X, cfg), run(X, cfg)
    assert np.array_equal(l1.Y, l2.Y)
    assert np.array_equal(l1.kl_trace, l2.kl_trace)


def test_degenerate_input_rejected():
    X = np.ones((20, 3))
    with pytest.raises(ValueError, match="identical"):
        run(X, TsneConfig(perplexity=5, iterations=10))


def test_too_few_points_rejected():
    X = np.random.default_rng(0).normal(size=(10, 3))
    with pytest.raises(ValueError):
        run(X, TsneConfig(perplexity=30, iterations=10))


# cases of (n, kernel, learning rate, exaggeration_iters, repeated rows,
# equidistant rows); the Gaussian kernel diverges at the default learning
# rate
REFERENCE_RUNS = [
    (30, "student_t", 100.0, 50, 0, 0),
    (60, "gaussian", 10.0, 0, 6, 8),
    (120, "student_t", 100.0, 0, 0, 20),
    (150, "gaussian", 5.0, 20, 10, 0),
    (300, "student_t", 100.0, 25, 20, 30),
]


@pytest.mark.parametrize("n,kernel,rate,exag,dups,simplex", REFERENCE_RUNS)
def test_run_matches_reference_descent(n, kernel, rate, exag, dups, simplex):
    X = awkward_data(n, seed=n + 1, dups=dups, simplex=simplex)
    cfg = TsneConfig(perplexity=min(20.0, n / 4), iterations=60,
                     learning_rate=rate, kernel=kernel,
                     exaggeration_iters=exag, seed=n)
    layout = run(X, cfg)
    Y, trace = reference_tsne_run(X, cfg)
    assert np.array_equal(layout.Y, Y)
    assert np.all(np.abs(layout.kl_trace - trace) <= 1e-12 * np.abs(trace))
    assert layout.kl == layout.kl_trace[-1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected(bad):
    X = np.random.default_rng(15).normal(size=(20, 3))
    X[4, 1] = bad
    with pytest.raises(ValueError, match="X must be finite"):
        run(X, TsneConfig(perplexity=5, iterations=10))


def test_non_finite_check_precedes_degenerate_check():
    X = np.ones((20, 3))  # identical points, which alone is "degenerate"
    X[7, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        run(X, TsneConfig(perplexity=5, iterations=10))


@pytest.mark.parametrize("rate,diverges_at", [(10, None), (50, 7), (100, 5)])
def test_gaussian_divergence_stops_at_first_non_finite_kl(rate, diverges_at):
    X = np.random.default_rng(0).normal(size=(120, 6))
    cfg = TsneConfig(perplexity=15, kernel="gaussian", learning_rate=rate)
    if diverges_at is None:
        layout = run(X, cfg)
        assert np.all(np.isfinite(layout.Y)) and np.all(np.isfinite(layout.kl_trace))
        return
    with pytest.raises(ValueError, match=f"not finite at iteration {diverges_at} "
                                         f"with learning_rate {rate}"):
        run(X, cfg)


def test_monotone_descent_without_momentum():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(6, 4))
    cfg = TsneConfig(perplexity=2.5, iterations=100, learning_rate=0.5,
                     momentum_initial=0.0, momentum_final=0.0,
                     exaggeration_iters=0, seed=2)
    layout = run(X, cfg)
    diffs = np.diff(layout.kl_trace)
    assert np.all(diffs <= 1e-12)


def test_rigid_rotation_leaves_layout_unchanged():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(30, 4))
    # 180-degree rotation in the first two coordinates: every intermediate
    # product is bitwise unchanged, so the distances are exactly equal
    R = np.diag([-1.0, -1.0, 1.0, 1.0])
    assert np.array_equal(squared_distances(X), squared_distances(X @ R))
    cfg = TsneConfig(perplexity=6, iterations=150, seed=3)
    l1, l2 = run(X, cfg), run(X @ R, cfg)
    assert np.array_equal(l1.Y, l2.Y)

    # a 90-degree rotation reorders float sums, so P only matches to
    # round-off; the descent itself is chaotic beyond that
    R90 = np.eye(4)
    R90[0, 0] = R90[1, 1] = 0.0
    R90[0, 1], R90[1, 0] = 1.0, -1.0
    P1 = joint_affinities(squared_distances(X), cfg.perplexity)
    P2 = joint_affinities(squared_distances(X @ R90), cfg.perplexity)
    assert np.allclose(P1, P2, rtol=1e-9, atol=1e-15)


def test_three_clusters_map_to_pure_neighborhoods():
    X, labels = three_cluster_data()
    cfg = TsneConfig(perplexity=20, iterations=400, seed=6)
    layout = run(X, cfg)
    d2 = squared_distances(layout.Y)
    np.fill_diagonal(d2, np.inf)
    nearest = np.argmin(d2, axis=1)
    purity = float(np.mean(labels[nearest] == labels))
    assert purity >= 0.9


def test_default_configuration_values():
    cfg = TsneConfig()
    assert cfg.perplexity == 30 and cfg.iterations == 1000
    assert cfg.learning_rate == 100 and cfg.kernel == "student_t"
    assert cfg.momentum(100) == 0.5 and cfg.momentum(250) == 0.8
    assert cfg.exaggeration == 4.0 and cfg.exaggeration_iters == 50
