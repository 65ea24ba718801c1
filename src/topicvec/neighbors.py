"""Brute-force K-nearest-neighbor search over document feature matrices.

A query computes its distance to every row, then selects the nearest rows
without sorting them all: `np.partition` finds the bound, the m-th
smallest distance (m = k + 1 for a row query, k for a vector query), and
only the rows at or under that bound are sorted. Those rows, ties at the
bound included, are exactly the first rows of the full distance order, so
the result is that order's prefix. A query costs one O(n d) distance pass
and O(n) selection, plus a sort of about k rows.

The distance pass is a few plain `np.einsum` reductions, each one pass
over the rows: under cosine the row norms, which every query recomputes
since `knn` keeps nothing between calls, and the products with the query;
under Euclidean the norms of the rows of X - q. None goes through BLAS,
whose matrix-vector product can round identical rows differently and so
break the lower-index tie rule; the tests check identical rows in C
order, in Fortran order and in a strided view. Nor does any form an
n x d product before its short row sums, as `np.linalg.norm` and
`(X * q).sum(axis=1)` would.
"""

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
    A non-finite matrix row or query vector raises ValueError, and so,
    under cosine, does a zero query vector or matrix row; the message
    names the query vector or the first such row.

    The rows are not all sorted. With m the number of rows the query can
    list (k + 1 or k, at most n), every row whose distance is at most the
    m-th smallest one is a candidate; the candidates, taken in index order
    and sorted stably by distance, are the first rows of the full stable
    distance order, ties at the bound included. So the entries are those
    of a full sort, and the query costs O(n) after the distance pass.
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

    # a non-finite row or query gives a non-finite distance; inf - inf and
    # inf / inf on the way there are caught by the check after this block.
    # einsum without optimize=True, and not X @ q: BLAS can round identical
    # rows apart and so break the lower-index tie rule
    with np.errstate(invalid="ignore"):
        if metric == "cosine":
            norms = np.sqrt(np.einsum("ij,ij->i", X, X))
            qn = np.sqrt(np.einsum("i,i->", q, q))
            if qi is None and qn == 0.0:
                raise ValueError("query vector is zero: cosine distance is "
                                 "undefined")
            if not norms.all():
                raise ValueError(f"matrix row {np.flatnonzero(norms == 0.0)[0]} "
                                 f"is zero: cosine distance is undefined")
            dists = 1.0 - np.einsum("ij,j->i", X, q) / (norms * qn)
        else:
            D = X - q
            dists = np.sqrt(np.einsum("ij,ij->i", D, D))
    if not np.isfinite(dists).all():
        raise _non_finite(X, q, qi)
    dists[np.abs(dists) <= _ZERO_SNAP] = 0.0

    m = min(len(dists), k if qi is None else k + 1)
    if m == 0:  # a vector query on a matrix with no rows
        return NeighborList(q, [])
    bound = np.partition(dists, m - 1)[m - 1]
    cand = np.flatnonzero(dists <= bound)  # index order: ties to lower index
    picked = cand[np.argsort(dists[cand], kind="stable")]
    if qi is not None:
        picked = np.concatenate(([qi], picked[picked != qi][:k]))
    else:
        picked = picked[:k]
    return NeighborList(qi if qi is not None else q,
                        list(zip(picked.tolist(), dists[picked].tolist())))


def _non_finite(X, q, qi) -> ValueError:
    """The error for a query with a non-finite distance: the query vector,
    else the first matrix row that holds a non-finite value. This scans
    the matrix, but only once a distance has failed the check."""
    if qi is None and not np.isfinite(q).all():
        return ValueError("query vector is not finite")
    rows = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if len(rows):
        return ValueError(f"matrix row {rows[0]} is not finite")
    return ValueError("a distance overflows to a non-finite value")


def format_listing(neighbors: NeighborList, titles: list[str]) -> str:
    """Tab-separated listing: rank, title, distance, one neighbor per line."""
    lines = [f"{rank}\t{titles[i]}\t{d!r}"
             for rank, (i, d) in enumerate(neighbors.entries)]
    return "\n".join(lines) + "\n"
