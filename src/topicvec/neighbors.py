"""Brute-force K-nearest-neighbor search over document feature matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

METRICS = ("cosine", "euclidean")
_ZERO_SNAP = 1e-12


@dataclass
class NeighborList:
    query: object  # row index for in-matrix queries, else the query vector
    entries: list[tuple[int, float]]  # (document index, distance), ascending


def knn(matrix, query, k: int = 20, metric: str = "cosine") -> NeighborList:
    """Exhaustive nearest-neighbor search.

    `query` is either a row index (the row itself is returned at rank 0,
    so the list has k+1 entries) or a feature vector (k entries). Cosine
    distance is 1 minus the cosine similarity; ties are broken by lower
    row index. Distances within 1e-12 of zero are snapped to exactly 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    X = np.asarray(matrix, dtype=float)
    if X.ndim != 2:
        raise ValueError("matrix must be 2-d")

    if isinstance(query, (int, np.integer)):
        qi = int(query)
        if not 0 <= qi < X.shape[0]:
            raise IndexError(f"query row {qi} out of range")
        q = X[qi]
    else:
        qi = None
        q = np.asarray(query, dtype=float)
        if q.shape != (X.shape[1],):
            raise ValueError("query vector length must match the matrix")

    if metric == "cosine":
        norms = np.linalg.norm(X, axis=1)
        qn = np.linalg.norm(q)
        if qn == 0.0 or np.any(norms == 0.0):
            raise ValueError("cosine distance is undefined for zero vectors")
        # row-wise products, not X @ q: a BLAS matrix-vector product can round
        # identical rows differently and so break the lower-index tie rule
        dists = 1.0 - (X * q).sum(axis=1) / (norms * qn)
    else:
        dists = np.linalg.norm(X - q, axis=1)
    dists = np.where(np.abs(dists) <= _ZERO_SNAP, 0.0, dists)

    order = np.argsort(dists, kind="stable")  # stable: ties go to lower index
    if qi is not None:
        rest = [i for i in order if i != qi][:k]
        picked = [qi] + rest
    else:
        picked = list(order[:k])
    return NeighborList(qi if qi is not None else q,
                        [(int(i), float(dists[i])) for i in picked])


def format_listing(neighbors: NeighborList, titles: list[str]) -> str:
    """Tab-separated listing: rank, title, distance, one neighbor per line."""
    lines = [f"{rank}\t{titles[i]}\t{d!r}"
             for rank, (i, d) in enumerate(neighbors.entries)]
    return "\n".join(lines) + "\n"
