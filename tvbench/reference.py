"""Reference computations the benchmark checks the program's outputs against.

Nothing here calls topicvec: distances are recomputed from the feature
matrices with numpy, in another formulation than `neighbors.knn` uses.
"""

from __future__ import annotations

import numpy as np

ORDER_TOL = 1e-12  # neighbours whose distances differ by less count as tied
DIST_TOL = 1e-9


def distances(X: np.ndarray, Q: np.ndarray, metric: str) -> np.ndarray:
    """Distance from each row of Q (m x F) to each row of X (n x F)."""
    X = np.asarray(X, dtype=float)
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if metric == "cosine":
        xn = X / np.sqrt(np.einsum("ij,ij->i", X, X))[:, None]
        qn = Q / np.sqrt(np.einsum("ij,ij->i", Q, Q))[:, None]
        return 1.0 - np.einsum("qf,nf->qn", qn, xn)
    if metric == "euclidean":
        out = np.empty((len(Q), len(X)))
        for s in range(0, len(Q), 64):  # blocks keep the difference tensor small
            diff = Q[s:s + 64, None, :] - X[None, :, :]
            out[s:s + 64] = np.sqrt(np.einsum("qnf,qnf->qn", diff, diff))
        return out
    raise ValueError(f"unknown metric {metric!r}")


def check_neighbors(entries, ref: np.ndarray, k: int, query_row=None) -> str | None:
    """Why a neighbour list disagrees with reference distances, or None.

    `entries` are (row, distance) pairs as `neighbors.knn` returns them and
    `ref` holds the reference distance to every row. For a row query the
    query must come first at distance exactly 0, followed by k others.
    Order must agree up to ties within ORDER_TOL, and each distance must
    lie within DIST_TOL of the reference.
    """
    entries = [(int(i), float(d)) for i, d in entries]
    rest = entries
    n = len(ref)
    if query_row is not None:
        if not entries or entries[0] != (query_row, 0.0):
            return f"rank 0 is {entries[:1]}, not the query {query_row} at 0.0"
        rest = entries[1:]
        want = min(k, n - 1)
    else:
        want = min(k, n)
    if len(rest) != want:
        return f"{len(rest)} neighbours, expected {want}"
    rows = [i for i, _ in rest]
    if len(set(rows)) != len(rows) or query_row in rows:
        return "a row is listed twice"
    for i, d in entries:
        if abs(d - ref[i]) > DIST_TOL:
            return f"row {i}: distance {d!r}, reference {float(ref[i])!r}"
    got = ref[rows]
    if np.any(np.diff(got) < -ORDER_TOL):
        return "neighbours are out of order"
    left = np.ones(n, dtype=bool)
    left[rows] = False
    if query_row is not None:
        left[query_row] = False
    if left.any() and len(got) and got.max() > ref[left].min() + ORDER_TOL:
        return "a nearer row was left out"
    return None


def neighbor_purity(X: np.ndarray, labels: list, k: int, metric: str) -> float:
    """Mean share, over labelled rows, of their k nearest other rows that
    carry the same label. Ties go to the lower row; unlabelled rows count
    as neighbours with another label."""
    D = distances(X, X, metric)
    np.fill_diagonal(D, np.inf)
    if k == 1:  # argmin takes the first of tied minima, as the stable sort does
        order = D.argmin(axis=1)[:, None]
    else:
        order = np.argsort(D, axis=1, kind="stable")[:, :k]
    shares = [np.mean([labels[j] == labels[i] for j in order[i]])
              for i in range(len(labels)) if labels[i] is not None]
    return float(np.mean(shares))


def map_purity(Y: np.ndarray, labels: list) -> float:
    """Share of labelled points whose nearest other point in the map carries
    the same label."""
    return neighbor_purity(Y, labels, 1, "euclidean")


def stochastic_rows(M: np.ndarray, tol: float = 1e-9) -> str | None:
    """Why the rows of M are not positive and summing to 1, or None."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if not np.all(np.isfinite(M)) or not np.all(M > 0):
        return "an entry is not positive"
    worst = float(np.max(np.abs(M.sum(axis=1) - 1.0)))
    if worst > tol:
        return f"a row sum is {worst:.3g} away from 1"
    return None


def epochs(alpha0: float, decay: float, floor: float, max_epochs: int) -> int:
    """Epochs doc2vec trains for: rates alpha0 * decay**e not under floor."""
    return sum(1 for e in range(max_epochs) if alpha0 * decay ** e >= floor)
