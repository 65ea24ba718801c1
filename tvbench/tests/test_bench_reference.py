"""Tests of the benchmark's own reference code.

Run from the repository root: python3 -m pytest tvbench/tests
"""

import math
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import reference  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def brute_distance(a, b, metric):
    if metric == "cosine":
        dot = math.fsum(x * y for x, y in zip(a, b))
        na = math.sqrt(math.fsum(x * x for x in a))
        nb = math.sqrt(math.fsum(y * y for y in b))
        return 1.0 - dot / (na * nb)
    return math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(a, b)))


def sorted_entries(X, q, k, metric, query_row=None):
    """Neighbour list built by a full sort, ties to the lower row."""
    d = [brute_distance(X[q] if query_row is not None else q, x, metric) for x in X]
    order = sorted(range(len(X)), key=lambda i: (d[i], i))
    if query_row is None:
        return [(i, d[i]) for i in order[:k]], np.array(d)
    rest = [i for i in order if i != query_row][:k]
    return [(query_row, 0.0)] + [(i, d[i]) for i in rest], np.array(d)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_distances_match_brute_force(metric):
    rng = np.random.default_rng(3)
    X = rng.random((150, 7)) + 0.01
    Q = rng.random((70, 7)) + 0.01
    D = reference.distances(X, Q, metric)
    assert D.shape == (70, 150)
    for qi in (0, 33, 69):
        for xi in (0, 64, 65, 149):
            assert abs(D[qi, xi] - brute_distance(Q[qi], X[xi], metric)) < 1e-12


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_check_neighbors_accepts_a_full_sort(metric):
    rng = np.random.default_rng(4)
    X = rng.random((40, 5))
    entries, d = sorted_entries(X, 7, 10, metric, query_row=7)
    ref = reference.distances(X, X[7], metric)[0]
    assert reference.check_neighbors(entries, ref, 10, 7) is None
    vec = rng.random(5)
    entries, _ = sorted_entries(X, vec, 10, metric)
    ref = reference.distances(X, vec, metric)[0]
    assert reference.check_neighbors(entries, ref, 10) is None


def test_check_neighbors_rejects_each_kind_of_error():
    rng = np.random.default_rng(5)
    X = rng.random((30, 4))
    entries, _ = sorted_entries(X, 2, 6, "euclidean", query_row=2)
    ref = reference.distances(X, X[2], "euclidean")[0]
    swapped = entries[:2] + [entries[3], entries[2]] + entries[4:]
    assert "out of order" in reference.check_neighbors(swapped, ref, 6, 2)
    off = entries[:3] + [(entries[3][0], entries[3][1] + 1e-8)] + entries[4:]
    assert "distance" in reference.check_neighbors(off, ref, 6, 2)
    dropped = entries[:-1] + [sorted_entries(X, 2, 7, "euclidean", 2)[0][-1]]
    assert "nearer row" in reference.check_neighbors(dropped, ref, 6, 2)
    assert "rank 0" in reference.check_neighbors(entries[1:] + [entries[0]],
                                                 ref, 6, 2)
    assert "neighbours" in reference.check_neighbors(entries[:-1], ref, 6, 2)
    twice = entries[:-1] + [entries[1]]
    assert "twice" in reference.check_neighbors(twice, ref, 6, 2)


def test_check_neighbors_accepts_either_order_of_tied_rows():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    ref = reference.distances(X, X[0], "euclidean")[0]
    assert reference.check_neighbors([(0, 0.0), (1, 1.0), (2, 1.0)], ref, 2, 0) is None
    assert reference.check_neighbors([(0, 0.0), (2, 1.0), (1, 1.0)], ref, 2, 0) is None


def test_neighbor_purity_by_hand():
    # two tight pairs far apart, one pair per label, one unlabelled point
    X = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0], [5.0, 0.0]])
    labels = ["a", "a", "b", "b", None]
    assert reference.neighbor_purity(X, labels, 1, "euclidean") == 1.0
    # k=2: each labelled point's second neighbour is the unlabelled middle one
    assert reference.neighbor_purity(X, labels, 2, "euclidean") == 0.5
    assert reference.map_purity(X, ["a", "b", "a", "b", None]) == 0.0


def test_neighbor_purity_breaks_ties_to_the_lower_row():
    X = np.array([[0.0], [1.0], [-1.0]])
    assert reference.neighbor_purity(X, ["a", "a", "b"], 1, "euclidean") == \
        pytest.approx((1 + 1 + 0) / 3)


def test_stochastic_rows():
    assert reference.stochastic_rows([[0.25, 0.75], [0.5, 0.5]]) is None
    assert reference.stochastic_rows([[0.25, 0.75 + 1e-8]]) is not None
    assert reference.stochastic_rows([[0.0, 1.0]]) is not None
    assert reference.stochastic_rows([[np.nan, 1.0]]) is not None


def test_epochs_counts_rates_down_to_the_floor():
    # 0.025 * 0.99**e >= 1e-3 holds for e <= 320
    assert reference.epochs(0.025, 0.99, 1e-3, 500) == 321
    assert reference.epochs(0.025, 0.99, 1e-3, 12) == 12


def read(name):
    path = os.path.join(ROOT, "src", "topicvec", "data", name)
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f]


def test_mini_labels_follow_the_generator():
    plots, titles = read("mini_plots.txt"), read("mini_titles.txt")
    labels = workloads.mini_labels(ROOT, plots, titles)
    assert len(labels) == 200
    assert labels[190:] == [None] * 10
    assert set(labels[:190]) == {"space", "crime", "family", "war", "sports",
                                 "music", "sea", "school"}
    # the main theme should usually contribute the most theme words
    script = workloads._load_script(ROOT)
    words = {name: set(text.split()) for name, text in script.THEMES.items()}
    agree = 0
    for text, label in zip(plots[:190], labels):
        toks = text.lower().replace(".", " ").split()
        counts = {name: sum(t in ws for t in toks) for name, ws in words.items()}
        agree += max(counts, key=counts.get) == label
    assert agree >= 0.8 * 190


def test_mini_labels_refuse_a_corpus_the_replay_does_not_match():
    plots, titles = read("mini_plots.txt"), read("mini_titles.txt")
    plots[17] = plots[17] + " extra"
    with pytest.raises(ValueError, match="line 17"):
        workloads.mini_labels(ROOT, plots, titles)


def test_synthetic_lines_are_seeded():
    spec = workloads.SyntheticSpec(docs=20, held_out=5, themes=3, vocab=200,
                                   theme_words=10, mean_tokens=15.0,
                                   main_share=0.6, second_share=0.1, ini="")
    a = workloads.synthetic_lines(spec, 1, ["the", "of"], frozenset(["the", "of"]))
    b = workloads.synthetic_lines(spec, 1, ["the", "of"], frozenset(["the", "of"]))
    c = workloads.synthetic_lines(spec, 2, ["the", "of"], frozenset(["the", "of"]))
    assert a == b and a != c
    assert len(a[0]) == 25 and set(a[1]) <= {0, 1, 2}


def test_pseudo_words_are_distinct_and_skip_excluded():
    words = workloads.pseudo_words(500, frozenset(["bababe"]))
    assert len(set(words)) == 500 and "bababe" not in words


def probe_with(samples):
    probe = speed.SpeedProbe()
    for row in samples:
        probe._log[probe._count] = row
        probe._count += 1
    return probe


def test_reference_seconds_weights_each_stretch_by_its_own_probe():
    ref = speed.REFERENCE_PROBE_S
    # probes at 1.0-1.1 (twice the reference duration, half speed) and at
    # 4.0-4.1 (the reference duration); the interval is [0.5, 5.0)
    probe = probe_with([(1.0, 1.1, 2 * ref), (4.0, 4.1, ref)])
    assert probe.wall_seconds(0.5, 5.0) == pytest.approx(4.5 - 0.2)
    # 0.5 s up to the first probe at half speed, 2.9 s up to the second at
    # full speed, and 0.9 s after it at the last probe's speed
    assert probe.reference_seconds(0.5, 5.0) == pytest.approx(0.25 + 2.9 + 0.9)


def test_reference_seconds_without_a_probe_inside_uses_the_nearest():
    ref = speed.REFERENCE_PROBE_S
    probe = probe_with([(1.0, 1.1, 2 * ref), (4.0, 4.1, 4 * ref)])
    assert probe.reference_seconds(1.2, 1.6) == pytest.approx(0.2)
    assert probe.reference_seconds(3.0, 3.8) == pytest.approx(0.2)
    assert speed.SpeedProbe(active=False).reference_seconds(1.0, 3.0) == 2.0
    assert speed.SpeedProbe().reference_seconds(1.0, 3.0) == 2.0

