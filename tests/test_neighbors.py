import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import knn_oracle_distances, reference_knn
from oracles import knn_sort_oracle as sort_oracle
from topicvec.neighbors import NeighborList, format_listing, knn


# rows whose true distances tie may be rounded apart by this much
ORDER_TOL = 1e-12

nonzero_matrices = arrays(
    float, st.tuples(st.integers(2, 50), st.integers(1, 10)),
    elements=st.floats(0.05, 10.0))


def test_self_query_is_rank_zero_with_zero_distance():
    X = np.random.default_rng(0).normal(size=(8, 4))
    res = knn(X, 3, k=4)
    assert res.entries[0] == (3, 0.0)


def test_default_k_returns_21_entries_for_row_queries():
    X = np.random.default_rng(1).uniform(0.1, 1.0, size=(30, 5))
    res = knn(X, 0)
    assert len(res.entries) == 21


def test_vector_query_returns_k_entries():
    X = np.random.default_rng(2).uniform(0.1, 1.0, size=(10, 3))
    res = knn(X, np.array([1.0, 2.0, 3.0]), k=4)
    assert len(res.entries) == 4
    assert np.array_equal(res.query, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_matches_exhaustive_sort_oracle(metric):
    rng = np.random.default_rng(7)
    X = rng.uniform(0.1, 2.0, size=(5, 3))
    res = knn(X, 2, k=4, metric=metric)
    assert [i for i, _ in res.entries] == sort_oracle(X, X[2], metric)[:5]


@given(nonzero_matrices, st.integers(0, 49), st.sampled_from(["cosine", "euclidean"]))
def test_result_is_prefix_of_full_sort(X, qi, metric):
    qi = qi % X.shape[0]
    k = min(10, X.shape[0] - 1)
    res = knn(X, qi, k=k, metric=metric)
    full = sort_oracle(X, X[qi], metric)
    full = [qi] + [i for i in full if i != qi]  # query row pinned to rank 0
    got = [i for i, _ in res.entries]
    assert got[0] == qi and len(set(got)) == len(got) == k + 1
    # each rank holds a row as far from the query as the oracle's row at
    # that rank; rows within ORDER_TOL of each other may swap
    d = knn_oracle_distances(X, X[qi], metric)
    for mine, theirs in zip(got[1:], full[1:]):
        assert abs(d[mine] - d[theirs]) <= ORDER_TOL
    dists = [d for _, d in res.entries]
    assert dists[1:] == sorted(dists[1:])


@given(nonzero_matrices)
def test_distance_ranges(X):
    res = knn(X, 0, k=X.shape[0] - 1, metric="cosine")
    assert all(0.0 <= d <= 2.0 + 1e-12 for _, d in res.entries)
    res = knn(X, 0, k=X.shape[0] - 1, metric="euclidean")
    assert all(d >= 0.0 for _, d in res.entries)


def test_cosine_ranking_invariant_under_positive_row_scaling():
    rng = np.random.default_rng(3)
    X = rng.uniform(0.1, 1.0, size=(20, 6))
    scales = rng.uniform(0.5, 5.0, size=(20, 1))
    before = [i for i, _ in knn(X, 4, k=10).entries]
    after = [i for i, _ in knn(X * scales, 4, k=10).entries]
    assert before == after


def test_ties_break_toward_lower_index():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 1.0]])
    res = knn(X, np.array([0.0, 1.0]), k=3, metric="euclidean")
    assert [i for i, _ in res.entries] == [1, 2, 3]


def test_identical_rows_keep_index_order_under_cosine():
    # identical rows must get identical distances, however the dot products
    # are blocked, so the lower-index tie rule orders them
    X = np.full((10, 8), 0.1)
    X[0, 7] = 3.2
    res = knn(X, 0, k=9)
    assert [i for i, _ in res.entries] == list(range(10))


def test_zero_vectors_rejected_for_cosine():
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="matrix row 1 is zero"):
        knn(X, 0, k=1, metric="cosine")
    with pytest.raises(ValueError, match="query vector is zero"):
        knn(np.eye(3), np.zeros(3), k=1, metric="cosine")


def test_zero_rows_fine_for_euclidean():
    X = np.array([[0.0, 0.0], [1.0, 0.0]])
    res = knn(X, 0, k=1, metric="euclidean")
    assert res.entries[0] == (0, 0.0)


def test_bad_arguments_rejected():
    X = np.eye(3)
    with pytest.raises(ValueError):
        knn(X, 0, k=0)
    with pytest.raises(ValueError):
        knn(X, 0, k=1, metric="manhattan")
    with pytest.raises(IndexError):
        knn(X, 9, k=1)
    with pytest.raises(ValueError):
        knn(X, np.ones(5), k=1)


def test_deterministic():
    X = np.random.default_rng(5).uniform(0.1, 1.0, size=(15, 4))
    assert knn(X, 2, k=5) == knn(X, 2, k=5)


@st.composite
def tie_heavy_cases(draw):
    """Small integer matrices built from a few distinct rows, so rows repeat
    and distances tie; cosine cases take no zero entry, so no zero row."""
    metric = draw(st.sampled_from(["cosine", "euclidean"]))
    values = (st.sampled_from([-2.0, -1.0, 1.0, 2.0, 3.0]) if metric == "cosine"
              else st.sampled_from([-1.0, 0.0, 1.0, 2.0]))
    d = draw(st.integers(1, 4))
    base = draw(arrays(float, (draw(st.integers(1, 6)), d), elements=values))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=14))
    X = base[picks]
    n = len(X)
    if draw(st.booleans()):
        query = draw(st.integers(0, n - 1))
    else:
        query = draw(arrays(float, d, elements=values))
    return X, query, draw(st.integers(1, n + 2)), metric


@given(tie_heavy_cases())
def test_matches_full_sort_reference_bit_for_bit(case):
    X, query, k, metric = case
    assert knn(X, query, k, metric).entries == reference_knn(X, query, k, metric).entries


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_paper_scale_matches_full_sort_reference(metric):
    # 25,203 rows as in the movie corpus, integer-valued so distances tie,
    # with a block of duplicated rows
    rng = np.random.default_rng(25203)
    X = rng.integers(1, 5, size=(25203, 50)).astype(float)
    X[1000:1100] = X[:100]
    queries = [0, 1050, 25202] + [rng.integers(0, 5, size=50).astype(float) + 0.5,
                                  X[60].copy(), rng.uniform(0.5, 4.5, size=50)]
    for query in queries:
        got = knn(X, query, 20, metric).entries
        assert got == reference_knn(X, query, 20, metric).entries


def _all_distances(X, query, metric):
    """knn's distance to every row, in row order."""
    entries = knn(X, query, k=len(X), metric=metric).entries
    return [d for _, d in sorted(entries)]


def _assert_close_to_oracle(got, want, metric):
    # 1e-12 absolute for cosine distances, which lie in [0, 2]; relative
    # for Euclidean ones, whose scale follows the data
    for a, b in zip(got, want, strict=True):
        tol = 1e-12 if metric == "cosine" else 1e-12 * abs(b)
        assert abs(a - b) <= tol, (a, b)


@given(nonzero_matrices, st.integers(0, 49), st.sampled_from(["cosine", "euclidean"]))
def test_distances_match_row_by_row_oracle(X, qi, metric):
    qi = qi % X.shape[0]
    for query, q in ((qi, X[qi]), (X[qi] + 0.5, X[qi] + 0.5)):
        _assert_close_to_oracle(_all_distances(X, query, metric),
                                knn_oracle_distances(X, q, metric), metric)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_paper_scale_distances_match_row_by_row_oracle(metric):
    rng = np.random.default_rng(2520350)
    X = rng.uniform(0.0, 1.0, size=(25203, 50))
    for query in (17, rng.uniform(0.0, 1.0, size=50)):
        q = X[query] if isinstance(query, int) else query
        _assert_close_to_oracle(_all_distances(X, query, metric),
                                knn_oracle_distances(X, q, metric), metric)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_repeated_rows_tie_at_d50_in_any_memory_layout(metric):
    # the distance pass must give identical rows identical distances
    # whatever the rows' alignment and strides, so the lower-index tie rule
    # orders them; checked on a C-order matrix, its Fortran-order copy and
    # a strided view of every other column
    rng = np.random.default_rng(50)
    for _ in range(20):
        n = int(rng.integers(20, 120))
        X = rng.uniform(0.1, 2.0, size=(n, 50))
        dup = np.sort(rng.choice(n, size=n // 3, replace=False))
        X[dup] = X[dup[0]]
        dups = set(dup.tolist())
        wide = np.empty((n, 100))
        wide[:, ::2] = X
        wide[:, 1::2] = rng.uniform(0.1, 2.0, size=(n, 50))
        for M in (X, np.asfortranarray(X), wide[:, ::2]):
            for query in (int(dup[-1]), rng.uniform(0.1, 2.0, size=50)):
                entries = knn(M, query, k=n, metric=metric).entries
                assert entries == reference_knn(M, query, n, metric).entries
                assert len({d for i, d in entries if i in dups}) == 1
                ranked = [i for i, _ in entries if i in dups]
                if isinstance(query, int):  # the query row stays at rank 0
                    ranked.remove(query)
                assert ranked == sorted(ranked)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_overflowing_distance_is_a_value_error(metric):
    X = np.array([[1e200, 1.0], [-1e200, 1.0]])
    with pytest.raises(ValueError, match="overflows to a non-finite value"):
        knn(X, 0, k=1, metric=metric)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_single_row_matrix(metric):
    X = np.array([[1.0, 2.0]])
    assert knn(X, 0, k=3, metric=metric).entries == [(0, 0.0)]
    assert [i for i, _ in knn(X, np.array([2.0, 1.0]), k=3, metric=metric).entries] == [0]


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_vector_query_on_empty_matrix_lists_nothing(metric):
    assert knn(np.empty((0, 3)), np.ones(3), k=2, metric=metric).entries == []


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_k_at_least_n_lists_every_row(metric):
    X = np.random.default_rng(8).uniform(0.1, 1.0, size=(6, 3))
    for k in (5, 6, 9):  # a row query lists the query and k others
        rows = [i for i, _ in knn(X, 2, k=k, metric=metric).entries]
        assert rows[0] == 2 and sorted(rows) == list(range(6))
    for k in (6, 9):
        rows = [i for i, _ in knn(X, np.ones(3), k=k, metric=metric).entries]
        assert sorted(rows) == list(range(6))


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_query_row_stays_first_before_its_lower_duplicate(metric):
    X = np.array([[1.0, 2.0], [3.0, 1.0], [1.0, 2.0], [2.0, 2.0]])
    res = knn(X, 2, k=2, metric=metric)
    assert res.entries[:2] == [(2, 0.0), (0, 0.0)]


def test_boundary_ties_go_to_lower_indices():
    # five rows at distance 1 from the query; k = 3 keeps the three lowest
    X = np.array([[0.0, 3.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                  [0.0, 0.5], [0.0, -1.0], [1.0, 0.0]])
    res = knn(X, np.zeros(2), k=3, metric="euclidean")
    assert res.entries == [(4, 0.5), (1, 1.0), (2, 1.0)]
    # rows 1, 3 and 6 tie at the bound; two of them fit
    res = knn(X, 4, k=3, metric="euclidean")
    assert [i for i, _ in res.entries] == [4, 2, 1, 3]
    assert [i for i, _ in knn(X, np.zeros(2), k=5, metric="euclidean").entries] \
        == [4, 1, 2, 3, 5]


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_row_is_named(metric, bad):
    X = np.random.default_rng(9).uniform(0.1, 1.0, size=(6, 3))
    X[3, 1] = bad
    X[5, 0] = -bad
    with pytest.raises(ValueError, match="row 3 is not finite"):
        knn(X, 0, k=5, metric=metric)
    with pytest.raises(ValueError, match="row 3 is not finite"):
        knn(X, 3, k=2, metric=metric)
    with pytest.raises(ValueError, match="row 3 is not finite"):
        knn(X, np.ones(3), k=2, metric=metric)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_query_vector_rejected(metric, bad):
    X = np.random.default_rng(10).uniform(0.1, 1.0, size=(6, 3))
    with pytest.raises(ValueError, match="query vector is not finite"):
        knn(X, np.array([1.0, bad, 0.0]), k=3, metric=metric)


def test_listing_formats():
    nl = NeighborList(0, [(0, 0.0), (2, 0.25), (1, 1.5)])
    titles = ["Alpha", "Beta", 'Say "Hi"']
    tsv = format_listing(nl, titles)
    lines = tsv.splitlines()
    assert lines[0] == "0\tAlpha\t0.0"
    assert lines[1] == '1\tSay "Hi"\t0.25'
