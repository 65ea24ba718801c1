"""Span tracing from outside the program.

`Tracer.install` replaces public functions of the topicvec modules with
wrappers that record one span per call: name, operation id, parent span,
start and end. Spans stay in memory until `dump`. A few wrappers also count
work units at the boundary (tokens swept, training instances, bytes written)
so that per-unit costs are measured where the work happens.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

STAGES = ("run_preprocess", "run_lda_train", "run_lda_topics",
          "run_doc2vec_train", "run_knn", "run_tsne")

TRACED = {
    "cli": ("main",),
    "pipeline": ("run_pipeline",) + STAGES + (
        "write_matrix_csv", "load_matrix_csv", "save_model", "load_model"),
    "corpus": ("load_lines", "load_stopwords", "preprocess_document",
               "build_corpus", "filter_vocabulary", "term_scores",
               "write_token_file", "load_token_file"),
    "lda": ("train", "gibbs_sweep", "infer_theta"),
    "doc2vec": ("train", "infer_vector"),
    "tsne": ("run", "joint_affinities", "calibrate_sigma", "kl_and_gradient"),
    "neighbors": ("knn",),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name, op, parent, start, end), None while open
        self.stack: list[int] = []
        self.op = "setup"
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list = []

    def _patch(self, module, attr, wrapper):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def wrap(self, module, attr, name, after=None):
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.names.append(name)
            self.spans.append(None)
            self.stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[sid] = (name, self.op, parent, start, end)
            if after is not None:
                after(args, result)
            return result

        self._patch(module, attr, traced)

    def count_under(self, module, attr, key, parent_name, units):
        """Count `units(result)` for calls made directly inside a span
        named `parent_name`; records no span of its own."""
        fn = getattr(module, attr)

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.stack and self.names[self.stack[-1]] == parent_name:
                self.counts[key] += units(result)
            return result

        self._patch(module, attr, counted)

    def install(self, modules: dict) -> None:
        """Wrap every function in TRACED; `modules` maps layer name to module."""
        def tally(key, amount):
            self.counts[key] += amount

        after = {
            ("pipeline", "run_preprocess"): lambda a, c: (
                tally("corpus.docs", c.num_docs),
                tally("corpus.tokens", sum(len(d.tokens) for d in c.docs)),
                tally("corpus.terms", c.num_terms)),
            ("pipeline", "write_matrix_csv"): lambda a, r: tally(
                "pipeline.csv_bytes", os.path.getsize(a[0])),
            ("pipeline", "save_model"): lambda a, r: tally(
                "pipeline.archive_bytes", os.path.getsize(a[1])),
            ("lda", "gibbs_sweep"): lambda a, r: tally(
                "lda.token_updates", sum(len(d) for d in a[0].docs)),
            ("lda", "infer_theta"): lambda a, r: tally(
                "lda.infer_token_updates", a[2].sweeps * sum(a[1].counts.values())),
        }
        for layer, attrs in TRACED.items():
            for attr in attrs:
                self.wrap(modules[layer], attr, f"{layer}.{attr}",
                          after.get((layer, attr)))
        # pipeline binds build_corpus by name at import
        self.wrap(modules["pipeline"], "build_corpus", "corpus.build_corpus")
        # one call per training instance; infer_vector inlines its own step
        self.count_under(modules["doc2vec"], "log_prob_and_grads",
                         "doc2vec.instances", "doc2vec.train", lambda r: 1)
        self.count_under(modules["doc2vec"], "build_windows",
                         "doc2vec.infer_instances", "doc2vec.infer_vector", len)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, (name, op, parent, start, end) in enumerate(self.spans):
                f.write(json.dumps({"id": sid, "name": name, "op": op,
                                    "parent": parent, "start": start,
                                    "end": end}) + "\n")

    # ------------------------------------------------------------ read-out

    def total(self, name: str, parent: str | None = None) -> float:
        """Summed duration of spans called `name`, optionally only those
        whose parent span is called `parent`."""
        return sum(e - s for n, _, p, s, e in self.spans
                   if n == name and (parent is None or
                                     (p is not None and self.names[p] == parent)))

    def calls(self, name: str) -> int:
        return sum(1 for n in self.names if n == name)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures as name -> (value, unit)."""
        c = self.counts
        t = self.total
        stage_s = sum(t(f"pipeline.{s}") for s in STAGES)
        preprocess_s = sum(t(f"corpus.{a}", "pipeline.run_preprocess")
                           for a in TRACED["corpus"])
        sweep_s = t("lda.gibbs_sweep")
        rows = self.calls("tsne.calibrate_sigma")
        affinities_s = t("tsne.joint_affinities")
        descent_s = t("tsne.run") - affinities_s
        iterations = self.calls("tsne.kl_and_gradient")
        queries = self.calls("neighbors.knn")

        def per(total, n, scale):
            return total / n * scale if n else 0.0

        return {
            "cli.main_s": (t("cli.main"), "s"),
            "cli.self_s": (t("cli.main") - stage_s, "s"),
            "corpus.preprocess_s": (preprocess_s, "s"),
            "corpus.docs": (c["corpus.docs"], "count"),
            "corpus.tokens": (c["corpus.tokens"], "count"),
            "corpus.terms": (c["corpus.terms"], "count"),
            "lda.train_s": (t("lda.train"), "s"),
            "lda.token_updates": (c["lda.token_updates"], "count"),
            "lda.us_per_token_update": (per(sweep_s, c["lda.token_updates"], 1e6), "us"),
            "lda.infer_s": (t("lda.infer_theta"), "s"),
            "lda.infer_token_updates": (c["lda.infer_token_updates"], "count"),
            "lda.infer_us_per_token_update": (
                per(t("lda.infer_theta"), c["lda.infer_token_updates"], 1e6), "us"),
            "doc2vec.train_s": (t("doc2vec.train"), "s"),
            "doc2vec.instances": (c["doc2vec.instances"], "count"),
            "doc2vec.us_per_instance": (
                per(t("doc2vec.train"), c["doc2vec.instances"], 1e6), "us"),
            "doc2vec.infer_s": (t("doc2vec.infer_vector"), "s"),
            "doc2vec.infer_instances": (c["doc2vec.infer_instances"], "count"),
            "doc2vec.infer_us_per_instance": (
                per(t("doc2vec.infer_vector"), c["doc2vec.infer_instances"], 1e6), "us"),
            "tsne.affinities_s": (affinities_s, "s"),
            "tsne.calibrated_rows": (rows, "count"),
            "tsne.us_per_calibrated_row": (
                per(t("tsne.calibrate_sigma"), rows, 1e6), "us"),
            "tsne.descent_s": (descent_s, "s"),
            "tsne.iterations": (iterations, "count"),
            "tsne.ms_per_iteration": (per(descent_s, iterations, 1e3), "ms"),
            "neighbors.queries": (queries, "count"),
            "neighbors.us_per_query": (per(t("neighbors.knn"), queries, 1e6), "us"),
            "pipeline.csv_write_s": (t("pipeline.write_matrix_csv"), "s"),
            "pipeline.csv_read_s": (t("pipeline.load_matrix_csv"), "s"),
            "pipeline.csv_bytes": (c["pipeline.csv_bytes"], "B"),
            "pipeline.archive_save_s": (t("pipeline.save_model"), "s"),
            "pipeline.archive_load_s": (t("pipeline.load_model"), "s"),
            "pipeline.archive_bytes": (c["pipeline.archive_bytes"], "B"),
        }
