#!/usr/bin/env python3
"""Benchmark of the topicvec pipeline, fold-in and KNN lookups.

Run from the repository root:

    python3 tvbench/run.py --workload mini --seed 1 --seconds 10 --trace 0

One run generates the workload's inputs from the seed, runs `topicvec
pipeline` once through `topicvec.cli.main`, loads the archives, then for
--seconds folds documents in and answers in-corpus KNN queries in
alternating slices, timing a recommender's cold set-up in a fresh process
after each pair of slices. It checks every output against reference
computations, and prints as its last
line one JSON object with the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1, from spans recorded around the calls into
each module). See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import resource
import shutil
import subprocess
import sys
from collections import Counter
from time import monotonic, perf_counter

import numpy as np

import reference
import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".tvbench-work")

SLICES = 10  # fold-in and query slices per run
REFOLDS = 10  # documents folded in a second time after the timed phases

# printed by --trace 0, with their units
END_TO_END = (("pipeline_s", "s"), ("foldin_docs_per_s", "docs/s"),
              ("knn_queries_per_s", "queries/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("lda_purity", "fraction"),
              ("doc2vec_purity", "fraction"), ("tsne_purity", "fraction"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the fold-in and query phases together")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS uses, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        fn = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


class Checks:
    """Failed output checks, each with the reason."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def reason(self, why: str | None, what: str) -> None:
        if why is not None:
            self.failures.append(f"{what}: {why}")


def cold_setup(workload) -> tuple[float, float, list[int]]:
    """Seconds from spawning a fresh interpreter until it has loaded both
    archives, both feature files and the titles: in reference seconds, at
    the speed that the child's own probes measured right after, and raw.
    Also the number of titles and rows of each feature file it loaded."""
    start = monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "coldstart.py"), SRC,
         workload.out_dir, workload.titles_path],
        capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    wall = report["ready"] - start
    return wall * report["speed"], wall, report["rows"]


def token_counts(path: str) -> tuple[list[int], Counter]:
    """Tokens per line of a token file, and the count of each term."""
    per_line, terms = [], Counter()
    with open(path, encoding="utf-8") as f:
        for line in f:
            toks = line.split()
            per_line.append(len(toks))
            terms.update(toks)
    return per_line, terms


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("tvbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "topicvec", "cli.py")):
        print(f"tvbench: no topicvec sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from topicvec import cli, corpus, doc2vec, lda, neighbors, pipeline, tsne

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    w = workloads.make(args.workload, args.seed, ROOT, work)
    checks = Checks()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install({"cli": cli, "pipeline": pipeline, "corpus": corpus,
                        "lda": lda, "doc2vec": doc2vec, "tsne": tsne,
                        "neighbors": neighbors})

    # untraced timings are corrected for the CPU's drifting speed
    probe = speed.SpeedProbe(active=tracer is None)

    def operation(name):
        if tracer is not None:
            tracer.op = name

    # ---------------------------------------------------------- pipeline
    operation("pipeline")
    probe.start()
    start = perf_counter()
    status = cli.main(["pipeline"] + w.argv)
    pipeline_span = (start, perf_counter())
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if status != 0:
        print(f"tvbench: topicvec pipeline exited {status}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    # ------------------------------------------------------------ set-up
    out = w.out_dir
    n = len(w.titles)
    operation("setup")
    lda_model = pipeline.load_model(os.path.join(out, "lda_model.npz"), kind="lda")
    d2v_model = pipeline.load_model(os.path.join(out, "doc2vec_model.npz"),
                                    kind="doc2vec")
    theta = pipeline.load_matrix_csv(os.path.join(out, "lda_theta.csv"))
    vectors = pipeline.load_matrix_csv(os.path.join(out, "doc2vec_vectors.csv"))
    titles = corpus.load_lines(w.titles_path)
    cfg = pipeline.load_config(w.config_path)
    pcfg = dataclasses.replace(
        cfg.preprocess, stopwords=corpus.load_stopwords(w.stopwords_path))
    k, metric = cfg.knn_k, cfg.knn_metric
    lda_index = {t: i for i, t in enumerate(lda_model.terms)}
    # doc2vec.infer_vector raises on documents without an in-vocabulary
    # token, so those are left out of the fold-in set
    usable = [i for i, line in enumerate(w.foldin_lines)
              if any(t in d2v_model.term_to_id
                     for t in corpus.preprocess_document(line, pcfg))]
    skipped = len(w.foldin_lines) - len(usable)
    checks.expect(len(usable) > 0, "no document can be folded in")

    def fold_in(line):
        tokens = corpus.preprocess_document(line, pcfg)
        bag = corpus.BagOfWords(dict(Counter(
            lda_index[t] for t in tokens if t in lda_index)))
        th = lda.infer_theta(lda_model, bag, lda_model.config)
        vec = doc2vec.infer_vector(d2v_model, tokens, d2v_model.config)
        return (th, vec, neighbors.knn(theta, th, k, metric).entries,
                neighbors.knn(vectors, vec, k, metric).entries)

    order = np.random.default_rng(args.seed).permutation(n).tolist()
    matrices = (theta, vectors)
    folded = []  # (fold-in line, result or None)
    answers = []  # (row, matrix, entries or None)
    errors: list[str] = []

    def fold_in_next():
        i = usable[len(folded) % len(usable)]
        operation(f"foldin-{len(folded)}")
        try:
            folded.append((i, fold_in(w.foldin_lines[i])))
        except Exception as e:  # noqa: BLE001 - counted and reported
            errors.append(f"fold-in of line {i}: {e!r}")
            folded.append((i, None))

    def query_next():
        row = order[len(answers) // 2 % n]
        mi = len(answers) % 2
        operation(f"query-{len(answers)}")
        try:
            q = pipeline.title_lookup(titles, titles[row])
            answers.append((row, mi, neighbors.knn(matrices[mi], q, k, metric).entries))
        except Exception as e:  # noqa: BLE001 - counted and reported
            errors.append(f"query of row {row}: {e!r}")
            answers.append((row, mi, None))

    # The two phases alternate in short slices, so that both sample the
    # whole measuring window: this machine's speed drifts within seconds.
    # Untraced runs time a recommender's cold set-up in a fresh process
    # after each pair of slices, with this process's probe stopped.
    slices = {fold_in_next: [], query_next: []}
    slice_s = args.seconds / (2 * SLICES)
    cold = []  # (reference seconds, wall seconds) of each cold set-up
    for _ in range(SLICES):
        probe.start()
        for step, spans_of_step in slices.items():
            start = perf_counter()
            while True:
                step()
                end = perf_counter()
                if end - start >= slice_s:
                    break
            spans_of_step.append((start, end))
        probe.stop()
        if tracer is None:
            ref_s, wall_s, rows = cold_setup(w)
            cold.append((ref_s, wall_s))
            checks.expect(rows == [n, n, n], "cold set-up loaded "
                          f"{rows} titles and feature rows, not {n} each")
    setup_s = float(np.median([c[0] for c in cold])) if cold else None
    foldin_s, query_s = (sum(probe.reference_seconds(a, b) for a, b in v)
                         for v in slices.values())
    foldin_wall, query_wall = (sum(probe.wall_seconds(a, b) for a, b in v)
                               for v in slices.values())
    queries = len(answers)
    attempted = 1 + len(folded) + queries
    failed = len(errors)
    operation("check")

    # ------------------------------------------------------------ checks
    for line in errors[:5]:
        print(f"tvbench: failed operation: {line}", file=sys.stderr)
    ref = [reference.distances(M, M, metric) for M in matrices]
    seen = {}
    for row, mi, entries in answers:
        if entries is None:
            continue
        if (row, mi) in seen:
            checks.expect(seen[row, mi] == entries,
                          f"query of row {row} on matrix {mi} gave two answers")
            continue
        seen[row, mi] = entries
        checks.reason(reference.check_neighbors(entries, ref[mi][row], k, row),
                      f"query of row {row} on matrix {mi}")

    title_row = {t: i for i, t in enumerate(titles)}
    checks.expect(len(title_row) == n, "titles are not unique")
    query_row = title_row[cfg.knn_title] if cfg.knn_title else cfg.knn_index
    for name, mi in (("knn_lda.tsv", 0), ("knn_doc2vec.tsv", 1)):
        entries = []
        with open(os.path.join(out, name), encoding="utf-8") as f:
            for line in f:
                _, title, dist = line.rstrip("\n").split("\t")
                entries.append((title_row[title], float(dist)))
        checks.reason(reference.check_neighbors(entries, ref[mi][query_row], k,
                                                query_row), name)

    per_line, term_counts = token_counts(os.path.join(out, "corpus_filtered.txt"))
    with np.load(os.path.join(out, "lda_model.npz")) as npz:
        counts = npz["doc_topic_counts"]
        checks.reason(reference.stochastic_rows(npz["theta"]), "lda theta")
        checks.reason(reference.stochastic_rows(npz["phi"]), "lda phi")
    checks.expect(counts.shape[0] == n and np.array_equal(counts.sum(axis=1),
                                                          per_line),
                  "doc_topic_counts rows do not sum to the document lengths")
    checks.reason(reference.stochastic_rows(theta), "lda_theta.csv")
    checks.expect(theta.shape[0] == n and vectors.shape[0] == n,
                  "feature files do not have one row per document")

    first_result = {}
    hits = {"lda": [], "doc2vec": []}
    for i, result in folded:
        if result is None:
            continue
        th, vec, lda_nn, d2v_nn = result
        checks.reason(reference.stochastic_rows(th), f"inferred theta {i}")
        checks.reason(reference.check_neighbors(
            lda_nn, reference.distances(theta, th, metric)[0], k),
            f"fold-in {i} on lda_theta.csv")
        checks.reason(reference.check_neighbors(
            d2v_nn, reference.distances(vectors, vec, metric)[0], k),
            f"fold-in {i} on doc2vec_vectors.csv")
        if i in first_result:
            checks.expect(_same(first_result[i], result),
                          f"fold-in of line {i} gave two results")
            continue
        first_result[i] = result
        row, label = w.foldin_rows[i], w.foldin_labels[i]
        if row is not None:
            hits["lda"].append(any(r == row for r, _ in lda_nn))
        else:
            hits["lda"].append(np.mean([w.labels[r] == label for r, _ in lda_nn]))
            hits["doc2vec"].append(np.mean([w.labels[r] == label
                                            for r, _ in d2v_nn]))
    for i in list(first_result)[:REFOLDS]:
        checks.expect(_same(first_result[i], fold_in(w.foldin_lines[i])),
                      f"folding line {i} in twice gave two results")
    floors = w.floors
    if "self_retrieval" in floors:
        rate = float(np.mean(hits["lda"]))
        print(f"lda self-retrieval {sum(hits['lda'])}/{len(hits['lda'])}")
        checks.expect(rate >= floors["self_retrieval"],
                      f"lda self-retrieval {rate:.3f} under its floor")
    else:
        for key in ("lda", "doc2vec"):
            value = float(np.mean(hits[key]))
            print(f"held-out {key} fold-in purity {value:.4f}")
            checks.expect(value >= floors[f"foldin_{key}"],
                          f"held-out {key} fold-in purity {value:.3f} under its floor")

    maps = []
    for name in ("lda_tsne.csv", "doc2vec_tsne.csv"):
        Y = np.loadtxt(os.path.join(out, name), delimiter=",", ndmin=2)
        checks.expect(Y.shape == (n, 2) and bool(np.all(np.isfinite(Y))),
                      f"{name} is not a finite {n} x 2 layout")
        maps.append(reference.map_purity(Y, w.labels) if Y.shape == (n, 2)
                    else 0.0)
    purity = {"lda_purity": reference.neighbor_purity(theta, w.labels, k, metric),
              "doc2vec_purity": reference.neighbor_purity(vectors, w.labels, k,
                                                          metric),
              "tsne_purity": float(np.mean(maps))}
    for name, value in purity.items():
        checks.expect(value >= floors[name], f"{name} {value:.3f} under its floor")

    print(f"workload {w.name} seed {args.seed}: {n} documents, "
          f"{sum(per_line)} tokens, {len(lda_model.terms)} terms, "
          f"{w.num_themes} themes; {len(folded)} folded in "
          f"({skipped} of {len(w.foldin_lines)} lines left out), "
          f"{queries} queries; BLAS threads {blas_threads()}")
    print(f"wall clock: pipeline {probe.wall_seconds(*pipeline_span):.3f} s, "
          f"fold-in {len(folded) / foldin_wall:.3f} docs/s, "
          f"queries {queries / query_wall:.1f} /s" + (
              f", set-up {np.median([c[1] for c in cold]):.3f} s "
              f"(median of {len(cold)}); mean speed probe "
              f"{probe.mean_probe_s() * 1e6:.1f} us over {len(probe.samples)} "
              "probes" if probe.active else ""))

    if tracer is None:
        metrics = {"pipeline_s": probe.reference_seconds(*pipeline_span),
                   "foldin_docs_per_s": len(folded) / foldin_s,
                   "knn_queries_per_s": queries / query_s,
                   "setup_s": setup_s, "peak_rss_mb": peak_rss_mb, **purity}
        units = dict(END_TO_END)
    else:
        tracer.uninstall()
        tracer.dump(os.path.join(work, "spans.jsonl"))
        layer = tracer.layer_metrics()
        metrics = {name: value for name, (value, _) in layer.items()}
        units = {name: unit for name, (_, unit) in layer.items()}
        c = tracer.counts
        sweeps = lda_model.config.sweeps
        checks.expect(c["lda.token_updates"] == sweeps * sum(per_line),
                      f"lda.token_updates {c['lda.token_updates']} is not "
                      f"{sweeps} sweeps x {sum(per_line)} tokens")
        dc = d2v_model.config
        checks.expect(dc.mode == "pvdm" and dc.subsample == 1.0,
                      "the instance identity needs pvdm without subsampling")
        epochs = reference.epochs(dc.alpha0, dc.decay, dc.alpha_floor, dc.max_epochs)
        in_vocab = sum(n_t for n_t in term_counts.values() if n_t >= dc.min_count)
        checks.expect(c["doc2vec.instances"] == epochs * in_vocab,
                      f"doc2vec.instances {c['doc2vec.instances']} is not "
                      f"{epochs} epochs x {in_vocab} in-vocabulary tokens")
        iterations = tracer.calls("tsne.kl_and_gradient")
        checks.expect(iterations == 2 * cfg.tsne.iterations,
                      f"tsne.iterations {iterations} is not twice "
                      f"{cfg.tsne.iterations}")

    for what in checks.failures[:20]:
        print(f"tvbench: check failed: {what}", file=sys.stderr)
    print(json.dumps({
        "correct": not checks.failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def _same(a, b) -> bool:
    return (a is not None and b is not None and all(
        np.array_equal(x, y) for x, y in zip(a[:2], b[:2]))
        and a[2:] == b[2:])


if __name__ == "__main__":
    sys.exit(main())
