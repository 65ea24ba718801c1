import math
import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import (dense_joint, packed_joint, reference_calibrate_sigma,
                     reference_conditional, reference_entropy_bits,
                     reference_gradient, reference_joint_affinities,
                     reference_kl, reference_q, reference_squared_distances,
                     reference_symmetrize, reference_tsne_run)

from topicvec import tsne
from topicvec.tsne import (TsneConfig, calibrate_sigma, joint_affinities,
                           kl_and_gradient, run, sum_p_log_p)


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
    p = reference_conditional(row, sigma=0.8, self_index=0)
    assert p[0] == 0.0
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_equidistant_points_get_uniform_affinities():
    row = np.array([0.0, 5.0, 5.0])
    for sigma in (0.1, 1.0, 10.0):
        p = reference_conditional(row, sigma, 0)
        assert p == pytest.approx([0.0, 0.5, 0.5], abs=1e-12)


def test_conditional_matches_direct_formula():
    row = np.array([3.0, 0.0, 1.0, 7.0])
    sigma = 1.3
    p = reference_conditional(row, sigma, self_index=1)
    weights = [math.exp(-d / (2 * sigma * sigma)) if j != 1 else 0.0
               for j, d in enumerate(row)]
    expected = np.array(weights) / sum(weights)
    assert p == pytest.approx(expected, abs=1e-12)


# ------------------------------------------------------------ calibration

def test_calibration_hits_target_perplexity_on_random_rows():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 5))
    d2 = reference_squared_distances(X)
    for i in range(40):
        sigma = calibrate_sigma(d2[i], perp=10.0, self_index=i)
        bits = reference_entropy_bits(reference_conditional(d2[i], sigma, i))
        assert abs(bits - math.log2(10.0)) < 1e-5


def test_doubling_distances_doubles_sigma():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(25, 4))
    d2 = reference_squared_distances(X)
    for i in (0, 7, 19):
        s1 = calibrate_sigma(d2[i], perp=8.0, self_index=i)
        s2 = calibrate_sigma(4.0 * d2[i], perp=8.0, self_index=i)  # 2x distances
        assert s2 == pytest.approx(2.0 * s1, rel=1e-3)


def test_equidistant_row_reports_its_forced_perplexity():
    n = 6
    row = np.full(n, 3.0)
    row[2] = 0.0
    sigma = calibrate_sigma(row, perp=n - 1, self_index=2)
    bits = reference_entropy_bits(reference_conditional(row, sigma, 2))
    assert 2.0 ** bits == pytest.approx(n - 1, rel=1e-9)


def assert_calibrated(rows, perp, tol=1e-5):
    """calibrate_sigma gives every row a finite positive bandwidth, with no
    warning of any kind. Where the plain reference search meets the
    target, the row's entropy does too; elsewhere it lies no farther from
    the target than the reference's."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigmas = [calibrate_sigma(row, perp, i, tol) for i, row in enumerate(rows)]

    def miss(row, sigma, i):
        p = reference_conditional(row, sigma, i)
        return abs(reference_entropy_bits(p) - math.log2(perp))

    for i, (row, sigma) in enumerate(zip(rows, sigmas)):
        assert 0.0 < sigma < math.inf
        ours = miss(row, sigma, i)
        ref = miss(row, reference_calibrate_sigma(row, perp, i, tol), i)
        assert ours < tol if ref < tol else ours <= ref + 1e-12


@pytest.mark.parametrize("n,perp,dups,simplex", [
    (30, 5.0, 0, 0), (80, 12.5, 10, 0), (150, 20.0, 0, 30),
    (300, 30.0, 25, 40)])
def test_calibration_matches_reference_search(n, perp, dups, simplex):
    X = awkward_data(n, seed=n, dups=dups, simplex=simplex)
    assert_calibrated(reference_squared_distances(X), perp)


def equidistant_and_tied_rows(n=30):
    # every row of simplex is equidistant
    simplex = reference_squared_distances(3.0 * np.eye(n))
    ties = np.round(reference_squared_distances(
        np.random.default_rng(9).normal(size=(n, 2))))
    return simplex, ties


@pytest.mark.parametrize("perp", [2.0, 7.3, 28.5])
def test_calibration_matches_reference_on_equidistant_rows(perp):
    for rows in equidistant_and_tied_rows():
        assert_calibrated(rows, perp)


def test_calibration_at_the_limit_perplexity_meets_target():
    # perp = n - 1 is reached only as sigma grows without bound: the
    # library returns its limit bandwidth, and the reference search stops
    # where rounding puts the entropy within a few ulps of the target;
    # run() never asks for it
    rows = equidistant_and_tied_rows()[1]
    n = len(rows)
    for i in range(n):
        for sigma in (calibrate_sigma(rows[i], n - 1, i),
                      reference_calibrate_sigma(rows[i], n - 1, i)):
            bits = reference_entropy_bits(reference_conditional(rows[i], sigma, i))
            assert abs(bits - math.log2(n - 1)) < 1e-12


def test_unreachable_perplexity_returns_best_effort():
    row = np.array([0.0, 1.0, 1.0, 1.0])
    sigma = calibrate_sigma(row, perp=2.0, self_index=0)  # forced perp is 3
    assert sigma > 0 and np.isfinite(sigma)
    # the root lies beyond sigma = e^45: the search stops at its step bound
    row = 1e60 * np.array([0.0, 1.0, 2.0, 3.0, 5.0])
    assert calibrate_sigma(row, perp=2.5, self_index=0) == pytest.approx(math.exp(45.0))


@pytest.mark.parametrize("scale", [1e-8, 1e8])
def test_calibration_matches_reference_on_tiny_and_huge_distances(scale):
    d2 = reference_squared_distances(awkward_data(60, seed=11, dups=6, simplex=8))
    for perp in (5.0, 30.0):
        assert_calibrated(scale * d2, perp)


def rows_tied_at_the_nearest(n, ties, seed):
    """n rows of squared distances, row i with its self entry at i and
    `ties` other entries at the nearest distance 1.0, the rest farther."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(1.5, 10.0, size=(n, n))
    for i, row in enumerate(rows):
        row[rng.choice(np.delete(np.arange(n), i), ties, replace=False)] = 1.0
        row[i] = 0.0
    return rows


@pytest.mark.parametrize("ties", [9, 12])
def test_calibration_matches_reference_with_ties_at_the_nearest_distance(ties):
    # perp below the tie count has no root; above it, a steep one
    rows = rows_tied_at_the_nearest(40, ties, seed=ties)
    for perp in (5.0, 8.5, 11.5, 12.5, 20.0):
        assert_calibrated(rows, perp)


def test_calibration_with_as_many_ties_as_the_perplexity_meets_target():
    # the entropy falls to log2(ties) only as sigma goes to 0: the library
    # returns its limit bandwidth, and rounding decides where the
    # reference search stops
    rows = rows_tied_at_the_nearest(40, 9, seed=9)
    for i, row in enumerate(rows):
        for sigma in (calibrate_sigma(row, 9.0, i),
                      reference_calibrate_sigma(row, 9.0, i)):
            bits = reference_entropy_bits(reference_conditional(row, sigma, i))
            assert abs(bits - math.log2(9.0)) < 1e-5


def test_calibration_matches_reference_just_below_the_limit_perplexity():
    for rows in (reference_squared_distances(awkward_data(30, seed=30)),
                 equidistant_and_tied_rows()[1]):
        assert_calibrated(rows, len(rows) - 1.5)


def test_rows_without_a_root_get_their_limit_rows():
    # perp at or above the 39 other points: sigma e^45 and a uniform row;
    # perp <= 1, or at most the 9 ties at the nearest distance: sigma
    # e^-45 and the mass spread evenly over the tied points
    n = 40
    rows = rows_tied_at_the_nearest(n, 9, seed=9)
    for i, row in enumerate(rows):
        others = np.arange(n) != i
        for perp, sigma, support in (
                (39.0, math.exp(45.0), others), (45.5, math.exp(45.0), others),
                (0.5, math.exp(-45.0), row == 1.0), (1.0, math.exp(-45.0), row == 1.0),
                (5.0, math.exp(-45.0), row == 1.0), (9.0, math.exp(-45.0), row == 1.0)):
            assert calibrate_sigma(row, perp, i) == sigma
            p = reference_conditional(row, sigma, i)
            assert p == pytest.approx(support / support.sum(), abs=1e-15)


# ----------------------------------------------------------- joint P and Q

def test_symmetrize_properties():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(12, 3))
    P = dense_joint(joint_affinities(X, perplexity=5.0), 12)
    assert np.array_equal(P, P.T)
    assert P.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diag(P) == 0.0)
    assert np.all(P[~np.eye(12, dtype=bool)] >= 1e-12)


def test_symmetrize_three_point_hand_example():
    cond = np.array([[0.0, 0.7, 0.3],
                     [0.2, 0.0, 0.8],
                     [0.5, 0.5, 0.0]])
    P = reference_symmetrize(cond)
    assert P[0, 1] == pytest.approx((0.7 + 0.2) / 6.0, abs=1e-15)
    assert P[0, 2] == pytest.approx((0.3 + 0.5) / 6.0, abs=1e-15)
    assert P[1, 2] == pytest.approx((0.8 + 0.5) / 6.0, abs=1e-15)
    assert P.sum() == pytest.approx(1.0, abs=1e-12)


def assert_packed_p_matches_reference(X, perp):
    """Every stored block of joint_affinities(X, perp) lies within 1e-12
    relative of the same rows and columns of the whole-matrix reference P
    (whose bandwidths also come from calibrate_sigma), and equals them bit
    for bit when the points fit one block."""
    n = len(X)
    P = joint_affinities(X, perp)
    want = reference_joint_affinities(X, perp, calibrate_sigma)
    blocks = tsne._triangle_blocks(n)
    assert [Pb.shape for Pb in P] == [(e - s, n - s) for s, e in blocks]
    for (s, e), Pb in zip(blocks, P):
        ref = want[s:e, s:]
        assert np.all(np.abs(Pb - ref) <= 1e-12 * ref)
        if len(tsne._row_blocks(n)) == len(blocks) == 1:
            assert np.array_equal(Pb, ref)
    dense = dense_joint(P, n)
    assert np.array_equal(dense, dense.T)


@pytest.mark.parametrize("n", [5, 22, 300])
def test_blocked_p_building_matches_whole_matrix_formulas(monkeypatch, n):
    # 3-row blocks: n = 5 ends in a ragged block, n = 22 in a one-row block
    monkeypatch.setattr(tsne, "_BLOCK_ENTRIES", 3 * n)
    rng = np.random.default_rng(n)
    X = rng.normal(scale=10.0, size=(n, 6))
    sq = np.sum(X * X, axis=1)
    assert np.array_equal(tsne._distance_block(X, sq, 0, n, 0),
                          reference_squared_distances(X))
    assert_packed_p_matches_reference(X, min(20.0, n / 4))


def test_packed_p_matches_whole_matrix_reference_at_block_edges():
    # well under one block and exactly one block are bit for bit
    for n in block_edge_sizes():
        X = np.random.default_rng(n).normal(size=(n, 4))
        assert_packed_p_matches_reference(X, 5.0)


def kl_and_grad(P, Y, kernel):
    """KL and gradient against a dense P, packed as joint_affinities packs it."""
    P = packed_joint(P)
    return kl_and_gradient(P, sum_p_log_p(P), Y, kernel, 1.0)


# Q is never formed whole; these tests see it through the KL and gradient

@pytest.mark.parametrize("kernel", ["student_t", "gaussian"])
def test_two_points_split_q_evenly(kernel):
    # only Q = 1/2 per pair gives zero KL and force against P = 1/2 per pair
    Y = np.array([[0.0, 0.0], [1.0, 2.0]])
    P = np.array([[0.0, 0.5], [0.5, 0.0]])
    kl, grad = kl_and_grad(P, Y, kernel)
    assert kl == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(grad, 0.0, atol=1e-15)


@pytest.mark.parametrize("kernel", ["student_t", "gaussian"])
def test_q_symmetric_and_normalized(kernel):
    rng = np.random.default_rng(0)
    Y = rng.normal(size=(9, 2))
    # normalized: zero KL against the normalized kernel itself
    assert kl_and_grad(reference_q(Y, kernel), Y, kernel)[0] == pytest.approx(
        0.0, abs=1e-12)
    # symmetric: the pair forces cancel, so the gradient sums to zero
    P = dense_joint(joint_affinities(rng.normal(size=(9, 4)), 3.0), 9)
    grad = kl_and_grad(P, Y, kernel)[1]
    assert np.allclose(grad.sum(axis=0), 0.0, atol=1e-12 * np.abs(grad).max())


def test_student_q_matches_hand_table():
    Y = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    d2 = {(0, 1): 1.0, (0, 2): 4.0, (1, 2): 5.0}
    w = {k: 1.0 / (1.0 + v) for k, v in d2.items()}
    total = 2 * sum(w.values())
    P = np.full((3, 3), 1.0 / 6.0)
    np.fill_diagonal(P, 0.0)
    kl, grad = kl_and_grad(P, Y, "student_t")
    expected = 2 * sum(math.log((1 / 6) / (wij / total)) / 6 for wij in w.values())
    assert kl == pytest.approx(expected, abs=1e-12)
    force = sum(4 * (1 / 6 - w[0, j] / total) * w[0, j] * (Y[0] - Y[j])
                for j in (1, 2))
    assert grad[0] == pytest.approx(force, abs=1e-12)


# ------------------------------------------------------------ KL and grad

def test_gradient_zero_at_matching_distributions():
    Y = np.random.default_rng(1).normal(size=(7, 2))
    grad = kl_and_grad(reference_q(Y, "student_t"), Y, "student_t")[1]
    assert np.allclose(grad, 0.0, atol=1e-15)


def block_edge_sizes():
    """Point counts around the row blocks: well under one block, exactly
    one full block, several full-width blocks whose last holds one row,
    and the first counts that split the descent's upper triangle into two
    and into three blocks, each ending in a two-row block with nothing
    right of its square."""
    budget = tsne._BLOCK_ENTRIES
    full = math.isqrt(budget)
    assert budget // full == full
    ragged = next(n for n in range(full + 1, budget) if n % (budget // n) == 1)
    assert len(tsne._triangle_blocks(full)) == 1
    assert len(tsne._triangle_blocks(full + 1)) == 2
    three = next(n for n in range(full + 1, budget)
                 if len(tsne._triangle_blocks(n)) == 3)
    return [20, full, ragged, full + 1, three]


@pytest.mark.parametrize("budget", [1, 5, 24, 97, 3600])
def test_triangle_blocks_tile_the_upper_triangle_once(monkeypatch, budget):
    # budget 1 gives one-row blocks, 3600 one block for every n up to 60
    monkeypatch.setattr(tsne, "_BLOCK_ENTRIES", budget)
    ragged = 0
    for n in range(1, 61):
        blocks = tsne._triangle_blocks(n)
        assert [s for s, _ in blocks] == [0] + [e for _, e in blocks[:-1]]
        assert blocks[-1][1] == n
        cover = np.zeros((n, n), dtype=int)
        for s, e in blocks:
            assert e - s == 1 or (e - s) * (n - s) <= budget
            cover[s:e, s:] += 1
        assert np.array_equal(np.triu(cover), np.triu(np.ones((n, n), dtype=int)))
        assert (len(blocks) == 1) == (n * n <= budget)
        s, e = blocks[-1]
        ragged += e - s < budget // (n - s)
    if budget in (24, 97):  # some last blocks stop short at n
        assert ragged > 0


@pytest.mark.parametrize("kernel", ["student_t", "gaussian"])
def test_gradient_matches_reference_per_call(kernel):
    for n in block_edge_sizes():
        rng = np.random.default_rng(n)
        packed = joint_affinities(rng.normal(size=(n, 4)), 5.0)
        P = dense_joint(packed, n)
        p_log_p = sum_p_log_p(packed)
        for scale in (1e-2, 1.0, 10.0):
            Y = scale * rng.normal(size=(n, 2))
            want_kl = reference_kl(P, reference_q(Y, kernel))
            for exaggeration in (1.0, 4.0):  # plain and early-exaggerated
                kl, grad = kl_and_gradient(packed, p_log_p, Y, kernel,
                                           exaggeration)
                want = reference_gradient(exaggeration * P, Y, kernel)
                assert np.abs(grad - want).max() <= 1e-12 * np.abs(want).max()
                assert abs(kl - want_kl) <= 1e-12 * abs(want_kl)


@pytest.mark.parametrize("kernel", ["student_t", "gaussian"])
def test_gradient_matches_finite_differences(kernel):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(6, 4))
    P = dense_joint(joint_affinities(X, perplexity=3.0), 6)
    Y = rng.normal(size=(6, 2))
    grad = kl_and_grad(P, Y, kernel)[1]
    eps = 1e-5
    worst = 0.0
    for idx in np.ndindex(Y.shape):
        orig = Y[idx]
        Y[idx] = orig + eps
        up = kl_and_grad(P, Y, kernel)[0]
        Y[idx] = orig - eps
        down = kl_and_grad(P, Y, kernel)[0]
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
# rate. The runs use a budget of 7n entries, so every case spans several
# blocks: P is built in blocks of 7 rows (the n = 120 case ends in a
# one-row block), and the descent's upper-triangle blocks start at 7 rows,
# widen, and end short (4 rows at n = 120). The descent sums in row
# blocks, the reference over whole matrices, and the descent amplifies
# that round-off (on the n = 30 case the layouts differ by 1.0e-14
# relative after 5 iterations, 2.9e-12 after 10 and 2.5e-7 after 20), so
# the runs are compared over their first 5 iterations. Both take their
# bandwidths from calibrate_sigma, which the calibration tests check on
# its own: any bandwidth within tol of the target perplexity serves, and
# another one moves P by about 1e-6.
REFERENCE_RUNS = [
    (30, "student_t", 100.0, 50, 0, 0),
    (60, "gaussian", 10.0, 0, 6, 8),
    (120, "student_t", 100.0, 0, 0, 20),
    (150, "gaussian", 5.0, 20, 10, 0),
    (300, "student_t", 100.0, 25, 20, 30),
]


@pytest.mark.parametrize("n,kernel,rate,exag,dups,simplex", REFERENCE_RUNS)
def test_run_matches_reference_descent(n, kernel, rate, exag, dups, simplex,
                                       monkeypatch):
    monkeypatch.setattr(tsne, "_BLOCK_ENTRIES", 7 * n)
    X = awkward_data(n, seed=n + 1, dups=dups, simplex=simplex)
    cfg = TsneConfig(perplexity=min(20.0, n / 4), iterations=5,
                     learning_rate=rate, kernel=kernel,
                     exaggeration_iters=exag, seed=n)
    layout = run(X, cfg)
    Y, trace = reference_tsne_run(X, cfg, calibrate_sigma)
    assert np.abs(layout.Y - Y).max() <= 1e-12 * np.abs(Y).max()
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


def test_run_peak_memory_stays_below_three_quarters_of_a_matrix(monkeypatch):
    # building P holds its packed upper triangle and row blocks; so does the
    # descent, from the call to sum_p_log_p on. No n x n array is formed.
    n = 2000
    matrix = n * n * 8
    X = np.random.default_rng(16).normal(size=(n, 10))
    cfg = TsneConfig(perplexity=30, iterations=3, exaggeration_iters=1)
    peaks = []

    def marked(P, sum_p_log_p=tsne.sum_p_log_p):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return sum_p_log_p(P)

    monkeypatch.setattr(tsne, "sum_p_log_p", marked)
    tracemalloc.start()
    try:
        run(X, cfg)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    building, descent = peaks
    assert building < 0.75 * matrix
    assert descent < 0.75 * matrix


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
    assert np.array_equal(reference_squared_distances(X),
                          reference_squared_distances(X @ R))
    cfg = TsneConfig(perplexity=6, iterations=150, seed=3)
    l1, l2 = run(X, cfg), run(X @ R, cfg)
    assert np.array_equal(l1.Y, l2.Y)

    # a 90-degree rotation reorders float sums, so P only matches to
    # round-off; the descent itself is chaotic beyond that
    R90 = np.eye(4)
    R90[0, 0] = R90[1, 1] = 0.0
    R90[0, 1], R90[1, 0] = 1.0, -1.0
    P1 = dense_joint(joint_affinities(X, cfg.perplexity), 30)
    P2 = dense_joint(joint_affinities(X @ R90, cfg.perplexity), 30)
    assert np.allclose(P1, P2, rtol=1e-9, atol=1e-15)


def test_three_clusters_map_to_pure_neighborhoods():
    X, labels = three_cluster_data()
    cfg = TsneConfig(perplexity=20, iterations=400, seed=6)
    layout = run(X, cfg)
    d2 = reference_squared_distances(layout.Y)
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
