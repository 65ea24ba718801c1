import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import tf_idf
from topicvec.corpus import (PreprocessConfig, build_corpus, filter_vocabulary,
                             preprocess_document, term_scores)

token_lists = st.lists(
    st.lists(st.sampled_from(["ant", "bee", "cat", "dog", "elk", "fox"]),
             min_size=0, max_size=8),
    min_size=1, max_size=6)


def corpus_from(docs):
    return build_corpus(docs, [f"d{i}" for i in range(len(docs))])


# ---------------------------------------------------------------- preprocess

def test_preprocess_applies_stoplist_and_number_rule():
    cfg = PreprocessConfig(stopwords=frozenset({"the"}))
    assert preprocess_document("The CAT sat 42 times", cfg) == ["cat", "sat", "times"]


def test_preprocess_all_stopwords_gives_empty():
    cfg = PreprocessConfig(stopwords=frozenset({"the", "and", "a"}))
    assert preprocess_document("the and a the", cfg) == []


def test_preprocess_strips_non_ascii():
    assert preprocess_document("café", PreprocessConfig()) == ["caf"]


def test_preprocess_drops_tokens_left_empty():
    assert preprocess_document("héllo ươ 1984", PreprocessConfig()) == ["hllo"]


def test_preprocess_drops_names_and_short_tokens():
    cfg = PreprocessConfig(drop_names=frozenset({"anderson"}), min_token_len=3)
    assert preprocess_document("Anderson met me, twice!", cfg) == ["met", "twice"]


def test_preprocess_keeps_order():
    out = preprocess_document("zebra apple mango", PreprocessConfig())
    assert out == ["zebra", "apple", "mango"]


# -------------------------------------------------------------- build_corpus

def test_doc_freq_counts_documents_not_occurrences():
    corp = corpus_from([["cat", "cat", "dog"], ["cat"]])
    t = corp.vocab.term_to_id["cat"]
    assert corp.vocab.doc_freq[t] == 2
    assert corp.vocab.collection_freq[t] == 3


def test_empty_corpus():
    corp = build_corpus([], [])
    assert corp.num_docs == 0 and corp.num_terms == 0


def test_three_sentence_demo_vocabulary():
    corp = corpus_from([["el", "gato", "canta"],
                        ["el", "gato", "negro", "es", "bellisimo"],
                        ["el", "pato", "canta"]])
    assert corp.num_terms == 7
    assert corp.vocab.id_to_term == ["el", "gato", "canta", "negro", "es",
                                     "bellisimo", "pato"]


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build_corpus([["a"], ["b"]], ["same", "same"])


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        build_corpus([["a"]], ["x", "y"])


@given(token_lists)
def test_ids_are_dense_and_inverse(docs):
    corp = corpus_from(docs)
    assert sorted(corp.vocab.term_to_id.values()) == list(range(corp.num_terms))
    for term, t in corp.vocab.term_to_id.items():
        assert corp.vocab.id_to_term[t] == term


@given(token_lists)
def test_doc_freq_recomputable_from_docs(docs):
    corp = corpus_from(docs)
    recomputed = np.zeros(corp.num_terms, dtype=np.int64)
    recounted = np.zeros(corp.num_terms, dtype=np.int64)
    for doc in corp.docs:
        for t in set(doc.tokens.tolist()):
            recomputed[t] += 1
        for t in doc.tokens.tolist():
            recounted[t] += 1
    assert np.array_equal(recomputed, corp.vocab.doc_freq)
    assert np.array_equal(recounted, corp.vocab.collection_freq)
    assert corp.vocab.doc_freq.dtype == corp.vocab.collection_freq.dtype == np.int64
    assert np.all(corp.vocab.doc_freq >= 1)
    assert np.all(corp.vocab.doc_freq <= corp.num_docs)


# -------------------------------------------------------------------- tf-idf

def test_tfidf_zero_when_term_in_every_document():
    corp = corpus_from([["cat", "dog"], ["cat"], ["cat", "elk"]])
    assert tf_idf("cat", 0, corpus=corp) == 0.0


def test_tfidf_hand_value():
    # two occurrences in one of three documents: 2 * ln 3
    corp = corpus_from([["cat", "cat", "dog"], ["dog"], ["elk"]])
    assert tf_idf("cat", 0, corp) == pytest.approx(2 * math.log(3), abs=1e-12)
    assert tf_idf("cat", 0, corp) == pytest.approx(2.1972245773362196, abs=1e-12)


def test_tfidf_zero_when_absent_from_document():
    corp = corpus_from([["cat"], ["dog"]])
    assert tf_idf("dog", 0, corp) == 0.0


def test_tfidf_unknown_term_raises():
    corp = corpus_from([["cat"]])
    with pytest.raises(KeyError):
        tf_idf("unknown", 0, corp)


@given(token_lists)
def test_tfidf_zero_iff_absent_or_everywhere(docs):
    corp = corpus_from(docs)
    for term in corp.vocab.id_to_term:
        t = corp.vocab.term_to_id[term]
        for m, doc in enumerate(corp.docs):
            score = tf_idf(term, m, corp)
            f_td = int(np.count_nonzero(doc.tokens == t))
            everywhere = corp.vocab.doc_freq[t] == corp.num_docs
            assert (score == 0.0) == (f_td == 0 or everywhere)
            assert score >= 0.0


# --------------------------------------------------------- filter_vocabulary

def test_filter_noop_when_budget_covers_vocabulary():
    corp = corpus_from([["cat", "dog"], ["elk", "cat"]])
    out = filter_vocabulary(corp, keep_top_n=10)
    assert sorted(out.vocab.id_to_term) == sorted(corp.vocab.id_to_term)
    assert [[out.vocab.id_to_term[t] for t in d.tokens] for d in out.docs] == \
        [["cat", "dog"], ["elk", "cat"]]


def test_default_budget_is_one_hundred_thousand():
    assert PreprocessConfig().keep_top_n_terms == 100_000


def test_filter_matches_exhaustive_scoring_oracle():
    docs = [["cat", "cat", "dog", "elk"],
            ["dog", "fox", "fox", "fox"],
            ["cat", "elk", "hen", "hen"]]
    corp = corpus_from(docs)
    # independent oracle: score every (term, doc) pair one at a time
    best = {}
    for term in corp.vocab.id_to_term:
        best[term] = max(tf_idf(term, m, corp) for m in range(corp.num_docs))
    expected = set(sorted(best, key=lambda w: (-best[w], w))[:3])
    out = filter_vocabulary(corp, keep_top_n=3)
    assert set(out.vocab.id_to_term) == expected


def test_filter_sum_aggregate_matches_oracle():
    docs = [["cat", "dog"], ["cat", "dog", "dog"], ["elk", "cat"]]
    corp = corpus_from(docs)
    totals = {}
    for term in corp.vocab.id_to_term:
        totals[term] = sum(tf_idf(term, m, corp) for m in range(corp.num_docs))
    expected = set(sorted(totals, key=lambda w: (-totals[w], w))[:2])
    out = filter_vocabulary(corp, keep_top_n=2, aggregate="sum")
    assert set(out.vocab.id_to_term) == expected


def test_filter_tie_break_is_lexicographic():
    # two one-doc terms tie; the alphabetically first survives
    corp = corpus_from([["zeta", "cat"], ["alpha", "cat"]])
    out = filter_vocabulary(corp, keep_top_n=1)
    assert out.vocab.id_to_term == ["alpha"]


@given(token_lists, st.integers(min_value=1, max_value=8))
def test_filter_is_idempotent(docs, keep):
    corp = corpus_from(docs)
    once = filter_vocabulary(corp, keep)
    twice = filter_vocabulary(once, keep)
    assert once.vocab.id_to_term == twice.vocab.id_to_term
    for a, b in zip(once.docs, twice.docs):
        assert a.label == b.label
        assert np.array_equal(a.tokens, b.tokens)


@given(token_lists)
def test_unpruned_corpus_matches_a_pruned_rebuild(docs):
    # a term in every document scores 0 and, named last, is the one that
    # pruning to the original vocabulary size drops: that path rebuilds the
    # corpus, while one already within the budget is returned as it is
    corp = corpus_from(docs)
    if corp.num_terms == 0:
        return
    unpruned = filter_vocabulary(corp, corp.num_terms)
    pruned = filter_vocabulary(corpus_from([d + ["zzz"] for d in docs]),
                               corp.num_terms)
    assert pruned.vocab.id_to_term == unpruned.vocab.id_to_term
    assert pruned.vocab.term_to_id == unpruned.vocab.term_to_id
    assert np.array_equal(pruned.vocab.doc_freq, unpruned.vocab.doc_freq)
    assert np.array_equal(pruned.vocab.collection_freq,
                          unpruned.vocab.collection_freq)
    assert [d.label for d in pruned.docs] == [d.label for d in unpruned.docs]
    for a, b in zip(pruned.docs, unpruned.docs):
        assert a.tokens.dtype == b.tokens.dtype
        assert np.array_equal(a.tokens, b.tokens)


def test_term_scores_max_vs_sum_disagree_when_expected():
    corp = corpus_from([["cat", "cat"], ["cat", "dog"], ["elk"]])
    mx = term_scores(corp, "max")
    sm = term_scores(corp, "sum")
    t = corp.vocab.term_to_id["cat"]
    assert sm[t] >= mx[t]
