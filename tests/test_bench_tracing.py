"""The benchmark's tracing contract, checked on a tiny pipeline run.

`tvbench/spans.py` wraps public functions of the topicvec modules by name
and counts work units at fixed call sites: sweeps x tokens per
`lda.infer_theta` call, one `doc2vec.log_prob_and_grads` call per training
instance made directly by `doc2vec.train`, and the windows that
`doc2vec.infer_vector` gets from `build_windows` with no traced function in
between. A renamed function or an inlined call breaks those counts; this
test runs the count identities of `tvbench/run.py --trace 1`.
"""

import os
import sys
from collections import Counter

import numpy as np

from topicvec import cli, corpus, doc2vec, lda, neighbors, pipeline, tsne

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tvbench"))

import spans  # noqa: E402

INI = """\
[lda]
num_topics = 3
sweeps = 4
burn_in = 1
sample_lag = 1

[doc2vec]
dim = 4
window = 2
min_count = 2
mode = pvdm
subsample = 1.0
max_epochs = 3

[tsne]
perplexity = 5
iterations = 15
exaggeration_iters = 5

[knn]
k = 5
"""


def tiny_inputs(tmp_path):
    rng = np.random.default_rng(12)
    vocab = [f"word{i:02d}" for i in range(40)]
    lines = [" ".join(vocab[t] for t in rng.integers(40, size=rng.integers(6, 15)))
             for _ in range(24)]
    paths = {name: tmp_path / f"{name}.txt" for name in ("corpus", "titles")}
    paths["corpus"].write_text("\n".join(lines) + "\n")
    paths["titles"].write_text("".join(f"Plot {i}\n" for i in range(24)))
    (tmp_path / "run.ini").write_text(INI)
    return ["--config", str(tmp_path / "run.ini"), "--corpus", str(paths["corpus"]),
            "--titles", str(paths["titles"]), "--out", str(tmp_path / "out")]


def test_traced_counts_match_the_work_done(tmp_path):
    argv = tiny_inputs(tmp_path)
    out = tmp_path / "out"
    tracer = spans.Tracer()
    tracer.install({"cli": cli, "pipeline": pipeline, "corpus": corpus,
                    "lda": lda, "doc2vec": doc2vec, "tsne": tsne,
                    "neighbors": neighbors})
    try:
        assert cli.main(["pipeline"] + argv) == 0
        model = pipeline.load_model(out / "doc2vec_model.npz", kind="doc2vec")
        docs = [line.split() for line in
                (out / "corpus_filtered.txt").read_text().splitlines()]
        doc2vec.infer_vector(model, docs[0] + ["unseen"], model.config)
        lda_model = pipeline.load_model(out / "lda_model.npz", kind="lda")
        term_ids = {t: i for i, t in enumerate(lda_model.terms)}
        bag = corpus.BagOfWords(dict(Counter(term_ids[t] for t in docs[0])))
        lda.infer_theta(lda_model, bag, lda_model.config)
    finally:
        tracer.uninstall()

    counts = tracer.counts
    tokens = sum(len(d) for d in docs)
    cfg = pipeline.load_config(tmp_path / "run.ini")
    assert counts["lda.token_updates"] == cfg.lda.sweeps * tokens
    assert counts["lda.infer_token_updates"] == cfg.lda.sweeps * len(docs[0])

    epochs = 3  # max_epochs; 0.025 * 0.99**2 stays above the 1e-3 floor
    term_counts = Counter(t for d in docs for t in d)
    in_vocab = sum(n for n in term_counts.values() if n >= model.config.min_count)
    assert counts["doc2vec.instances"] == epochs * in_vocab
    folded = sum(1 for t in docs[0] if t in model.term_to_id)
    assert folded > 0
    assert counts["doc2vec.infer_instances"] == epochs * folded

    assert tracer.calls("tsne.kl_and_gradient") == 2 * cfg.tsne.iterations
    assert tracer.calls("tsne.calibrate_sigma") == 2 * len(docs)
