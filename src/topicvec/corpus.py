"""Tokenized corpora: preprocessing, vocabulary indexing, TF-IDF pruning,
and the cosine similarity primitive shared by the downstream models."""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})


@dataclass
class PreprocessConfig:
    stopwords: frozenset[str] = frozenset()
    drop_names: frozenset[str] = frozenset()
    keep_top_n_terms: int = 100_000
    min_token_len: int = 1
    score_aggregate: str = "max"  # or "sum"

    def __post_init__(self):
        if self.keep_top_n_terms < 1:
            raise ValueError("keep_top_n_terms must be >= 1")
        if self.min_token_len < 1:
            raise ValueError("min_token_len must be >= 1")
        if self.score_aggregate not in ("max", "sum"):
            raise ValueError("score_aggregate must be 'max' or 'sum'")


@dataclass
class Vocabulary:
    """Dense term index with per-term document and collection frequencies."""

    term_to_id: dict[str, int]
    id_to_term: list[str]
    doc_freq: np.ndarray
    collection_freq: np.ndarray

    def __len__(self):
        return len(self.id_to_term)


@dataclass
class TokenizedDocument:
    label: str
    tokens: np.ndarray  # term ids, original order kept for windowing

    def __len__(self):
        return len(self.tokens)


@dataclass
class BagOfWords:
    """Sparse term-id -> count view of one document."""

    counts: dict[int, int]


@dataclass
class Corpus:
    docs: list[TokenizedDocument]
    vocab: Vocabulary

    @property
    def num_docs(self) -> int:
        return len(self.docs)

    @property
    def num_terms(self) -> int:
        return len(self.vocab)


def preprocess_document(raw: str, cfg: PreprocessConfig) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace, then drop pure
    numbers, non-ascii characters, stopwords and listed names.

    Token order is preserved; an empty result is valid.
    """
    tokens = raw.lower().translate(_PUNCT_TABLE).split()
    out = []
    for tok in tokens:
        if tok.isdigit():
            continue
        tok = tok.encode("ascii", errors="ignore").decode("ascii")
        if not tok:
            continue
        if tok in cfg.stopwords or tok in cfg.drop_names:
            continue
        if len(tok) < cfg.min_token_len:
            continue
        out.append(tok)
    return out


def build_corpus(docs: list[list[str]], labels: list[str]) -> Corpus:
    """Index token lists into a corpus with dense term ids.

    Ids are assigned in order of first appearance, so the indexing is
    deterministic for a given document order.
    """
    if len(docs) != len(labels):
        raise ValueError("docs and labels must have the same length")
    seen = set()
    for label in labels:
        if label in seen:
            raise ValueError(f"duplicate document label: {label!r}")
        seen.add(label)

    term_to_id: dict[str, int] = {}
    id_to_term: list[str] = []
    indexed: list[np.ndarray] = []
    for tokens in docs:
        ids = []
        for tok in tokens:
            if tok not in term_to_id:
                term_to_id[tok] = len(id_to_term)
                id_to_term.append(tok)
            ids.append(term_to_id[tok])
        indexed.append(np.asarray(ids, dtype=np.int64))

    V = len(id_to_term)
    doc_freq = np.zeros(V, dtype=np.int64)
    collection_freq = np.zeros(V, dtype=np.int64)
    for ids in indexed:
        for t in ids:
            collection_freq[t] += 1
        for t in set(ids.tolist()):
            doc_freq[t] += 1

    vocab = Vocabulary(term_to_id, id_to_term, doc_freq, collection_freq)
    tdocs = [TokenizedDocument(label, ids) for label, ids in zip(labels, indexed)]
    return Corpus(tdocs, vocab)


def term_scores(corpus: Corpus, aggregate: str = "max") -> np.ndarray:
    """Corpus-level pruning score per term: max (or sum) of its per-document
    TF-IDF values."""
    V = corpus.num_terms
    D = corpus.num_docs
    idf = np.log(D / corpus.vocab.doc_freq.astype(float))
    scores = np.zeros(V)
    for doc in corpus.docs:
        ids, counts = np.unique(doc.tokens, return_counts=True)
        doc_scores = counts * idf[ids]
        if aggregate == "max":
            np.maximum.at(scores, ids, doc_scores)
        else:
            np.add.at(scores, ids, doc_scores)
    return scores


def filter_vocabulary(corpus: Corpus, keep_top_n: int, aggregate: str = "max") -> Corpus:
    """Keep the highest-scoring keep_top_n terms and re-index the corpus.

    Ties at the cutoff are broken by lexicographic term order so the result
    is deterministic.
    """
    if keep_top_n < 1:
        raise ValueError("keep_top_n must be >= 1")
    if corpus.num_terms <= keep_top_n:
        keep = set(range(corpus.num_terms))
    else:
        scores = term_scores(corpus, aggregate)
        order = sorted(range(corpus.num_terms),
                       key=lambda t: (-scores[t], corpus.vocab.id_to_term[t]))
        keep = set(order[:keep_top_n])

    terms = corpus.vocab.id_to_term
    docs = []
    labels = []
    for doc in corpus.docs:
        docs.append([terms[t] for t in doc.tokens if int(t) in keep])
        labels.append(doc.label)
    return build_corpus(docs, labels)


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two nonzero vectors of equal length."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("vectors must have the same length")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for zero vectors")
    return float(np.dot(a, b) / (na * nb))


def load_token_file(path) -> list[list[str]]:
    """One document per line, whitespace-separated tokens."""
    with open(path, encoding="utf-8") as f:
        return [line.split() for line in f]


def load_lines(path) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f]


def load_stopwords(path) -> frozenset[str]:
    """One term per line; blank lines ignored."""
    with open(path, encoding="utf-8") as f:
        return frozenset(line.strip() for line in f if line.strip())


def write_token_file(path, docs: list[list[str]]):
    with open(path, "w", encoding="utf-8") as f:
        for tokens in docs:
            f.write(" ".join(tokens) + "\n")
