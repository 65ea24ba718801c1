"""End-to-end wiring: declarative config, model persistence, title-keyed
queries, and the stage runners behind the command-line interface."""

from __future__ import annotations

import configparser
import dataclasses
import difflib
import json
import os
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import corpus as corpus_mod
from . import doc2vec as d2v_mod
from . import lda as lda_mod
from . import neighbors as nn_mod
from . import tsne as tsne_mod
from .corpus import Corpus, PreprocessConfig, build_corpus
from .doc2vec import Doc2VecConfig, EmbeddingModel
from .lda import LdaConfig, LdaModel
from .tsne import TsneConfig

ARCHIVE_VERSION = 1

COMMANDS = ("preprocess", "lda-train", "lda-topics", "doc2vec-train",
            "knn", "tsne", "pipeline")


class ArchiveError(Exception):
    pass


class CorruptArchiveError(ArchiveError):
    pass


class VersionMismatchError(ArchiveError):
    pass


class KindMismatchError(ArchiveError):
    pass


class PipelineError(Exception):
    pass


# ---------------------------------------------------------------- persistence

def save_model(model, path) -> None:
    """Write a model to a versioned, self-describing archive."""
    if isinstance(model, LdaModel):
        kind = "lda"
        arrays = {"phi": model.phi, "theta": model.theta,
                  "doc_topic_counts": model.doc_topic_counts}
        extra = {"config": dataclasses.asdict(model.config), "terms": model.terms}
    elif isinstance(model, EmbeddingModel):
        kind = "doc2vec"
        arrays = {"W": model.W, "D": model.D, "U": model.U, "b": model.b,
                  "term_freq": model.term_freq}
        extra = {"config": dataclasses.asdict(model.config),
                 "terms": model.terms, "labels": model.labels}
    else:
        raise TypeError(f"cannot archive objects of type {type(model).__name__}")
    meta = {"version": ARCHIVE_VERSION, "kind": kind, **extra}
    np.savez(path, __meta__=np.asarray(json.dumps(meta)), **arrays)


def load_model(path, kind: str | None = None):
    """Load a model archive, optionally insisting on a model kind."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            if "__meta__" not in npz.files:
                raise CorruptArchiveError(f"{path}: not a model archive")
            meta = json.loads(str(npz["__meta__"]))
            arrays = {name: npz[name] for name in npz.files if name != "__meta__"}
    except (zipfile.BadZipFile, ValueError, EOFError, OSError, KeyError) as e:
        if isinstance(e, ArchiveError):
            raise
        raise CorruptArchiveError(f"{path}: unreadable archive ({e})") from e

    if meta.get("version") != ARCHIVE_VERSION:
        raise VersionMismatchError(
            f"{path}: archive version {meta.get('version')!r}, "
            f"expected {ARCHIVE_VERSION}")
    found = meta.get("kind")
    if found not in ("lda", "doc2vec"):
        raise CorruptArchiveError(f"{path}: unknown model kind {found!r}")
    if kind is not None and found != kind:
        raise KindMismatchError(f"{path}: holds a {found!r} model, "
                                f"expected {kind!r}")

    try:
        if found == "lda":
            cfg = LdaConfig(**meta["config"])
            return LdaModel(arrays["phi"], arrays["theta"], cfg,
                            list(meta["terms"]), arrays["doc_topic_counts"])
        cfg = Doc2VecConfig(**meta["config"])
        terms = list(meta["terms"])
        return EmbeddingModel(arrays["W"], arrays["D"], arrays["U"],
                              arrays["b"], cfg, terms,
                              {t: i for i, t in enumerate(terms)},
                              arrays["term_freq"], list(meta["labels"]))
    except (KeyError, TypeError, ValueError) as e:
        raise CorruptArchiveError(f"{path}: invalid {found} archive ({e})") from e


# ------------------------------------------------------------------- queries

def title_lookup(titles: list[str], name: str) -> int:
    """Index of the first document whose title matches exactly."""
    try:
        return titles.index(name)
    except ValueError:
        close = difflib.get_close_matches(name, titles, n=3, cutoff=0.0)
        raise KeyError(f"unknown title {name!r}; closest matches: {close}") from None


# -------------------------------------------------------------------- config

@dataclass
class PipelineConfig:
    """Every setting of a run. `configure` and `load_config` build it: they
    validate each setting and derive the stage seeds from `seed`."""

    corpus_path: str = ""
    titles_path: str = ""
    stopwords_path: str | None = None
    names_path: str | None = None
    out_dir: str = "out"
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    lda: LdaConfig = field(default_factory=LdaConfig)
    doc2vec: Doc2VecConfig = field(default_factory=Doc2VecConfig)
    tsne: TsneConfig = field(default_factory=TsneConfig)
    knn_k: int = 20
    knn_metric: str = "cosine"
    knn_title: str | None = None
    knn_index: int = 0
    lda_num_words: int = 20
    lda_unnormalized: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.knn_k < 1:
            raise ValueError("knn_k must be >= 1")
        if self.knn_metric not in nn_mod.METRICS:
            raise ValueError(f"knn_metric must be one of {nn_mod.METRICS}")
        if self.lda_num_words < 1:
            raise ValueError("lda_num_words must be >= 1")


STAGES = {"preprocess": PreprocessConfig, "lda": LdaConfig,
          "doc2vec": Doc2VecConfig, "tsne": TsneConfig}

# INI (section, key) -> (stage attribute, or None for PipelineConfig itself;
# field name). A stage section holds every scalar field of its config except
# the seed, which derives from [run] seed; [paths] loads the word sets.
SETTINGS = {
    **{(section, key): (None, name) for section, key, name in (
        ("paths", "corpus", "corpus_path"), ("paths", "titles", "titles_path"),
        ("paths", "stopwords", "stopwords_path"), ("paths", "names", "names_path"),
        ("paths", "out_dir", "out_dir"), ("lda", "num_words", "lda_num_words"),
        ("lda", "unnormalized", "lda_unnormalized"), ("knn", "k", "knn_k"),
        ("knn", "metric", "knn_metric"), ("knn", "title", "knn_title"),
        ("knn", "index", "knn_index"), ("run", "seed", "seed"))},
    **{(stage, f.name): (stage, f.name)
       for stage, cls in STAGES.items() for f in dataclasses.fields(cls)
       if f.name not in ("seed", "stopwords", "drop_names")},
}


def _parse(raw: str, annotation: str):
    """An INI string read as the first type in a field's annotation."""
    kind = annotation.split("|")[0].strip()
    if kind == "bool":
        states = configparser.ConfigParser.BOOLEAN_STATES
        if raw.lower() not in states:
            raise ValueError(f"not a boolean: {raw!r}")
        return states[raw.lower()]
    return {"int": int, "float": float, "str": str}[kind](raw)


def configure(cfg: PipelineConfig, settings: dict) -> PipelineConfig:
    """A copy of `cfg` with `settings` ({section: {key: value}}, at INI
    addresses) applied, string values parsed by their field's type, and the
    stage seeds derived from [run] seed. Every config is rebuilt, so its own
    checks run; a bad key or value raises PipelineError naming `[section] key`."""
    changes = {target: {} for target in (None, *STAGES)}
    for section, values in settings.items():
        for key, value in values.items():
            if (section, key) not in SETTINGS:
                raise PipelineError(f"unknown config key [{section}] {key}")
            target, name = SETTINGS[section, key]
            if isinstance(value, str):
                cls = STAGES.get(target, PipelineConfig)
                types = {f.name: f.type for f in dataclasses.fields(cls)}
                try:
                    value = _parse(value, types[name])
                except ValueError as e:
                    raise PipelineError(f"[{section}] {key}: {e}") from None
            changes[target][name] = value
    seed = changes[None].get("seed", cfg.seed)
    for offset, stage in enumerate(("lda", "doc2vec", "tsne"), 1):
        changes[stage]["seed"] = seed + offset

    def rebuild(target, obj):
        try:
            return dataclasses.replace(obj, **changes[target])
        except ValueError as e:
            # every config check's message starts with the field at fault
            at = {v: k for k, v in SETTINGS.items()}.get((target, str(e).split()[0]))
            raise PipelineError(f"[{at[0]}] {at[1]}: {e}" if at else str(e)) from None

    for stage in STAGES:
        changes[None][stage] = rebuild(stage, getattr(cfg, stage))
    return rebuild(None, cfg)


def load_config(path) -> PipelineConfig:
    """Read the INI-style config: one section per stage plus [paths], [knn]
    and [run]. Values are read literally: a '%' is not interpolation."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        found = parser.read(path)
    except configparser.Error as e:
        detail = " ".join(str(e).split())  # configparser spans several lines
        raise PipelineError(f"malformed config file {path}: {detail}") from None
    if not found:
        raise PipelineError(f"cannot read config file {path}")
    return configure(PipelineConfig(),
                     {name: dict(parser[name]) for name in parser.sections()})


# ------------------------------------------------------------------- exports

def write_matrix_csv(path, matrix) -> None:
    """Comma-separated rows at full (round-trippable) precision."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w", encoding="utf-8") as f:
        for row in matrix:
            f.write(",".join(repr(float(v)) for v in row) + "\n")


def load_matrix_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _out(cfg: PipelineConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


# -------------------------------------------------------------------- stages

def _load_titles(cfg: PipelineConfig) -> list[str]:
    if not cfg.titles_path:
        raise PipelineError("no titles file configured")
    return corpus_mod.load_lines(cfg.titles_path)


def run_preprocess(cfg: PipelineConfig) -> Corpus:
    """Raw text in, filtered token corpus out (written next to the other
    artifacts as corpus_filtered.txt)."""
    if not cfg.corpus_path:
        raise PipelineError("no corpus file configured")
    raw = corpus_mod.load_lines(cfg.corpus_path)
    titles = _load_titles(cfg)
    if len(raw) != len(titles):
        raise PipelineError(
            f"corpus has {len(raw)} lines but titles file has {len(titles)}")
    pcfg = cfg.preprocess
    if cfg.stopwords_path:
        pcfg = dataclasses.replace(
            pcfg, stopwords=corpus_mod.load_stopwords(cfg.stopwords_path))
    if cfg.names_path:
        pcfg = dataclasses.replace(
            pcfg, drop_names=corpus_mod.load_stopwords(cfg.names_path))
    docs = [corpus_mod.preprocess_document(line, pcfg) for line in raw]
    corp = build_corpus(docs, titles)
    corp = corpus_mod.filter_vocabulary(corp, pcfg.keep_top_n_terms,
                                        pcfg.score_aggregate)
    tokens = [[corp.vocab.id_to_term[t] for t in doc.tokens] for doc in corp.docs]
    corpus_mod.write_token_file(_out(cfg, "corpus_filtered.txt"), tokens)
    return corp


def _load_token_corpus(cfg: PipelineConfig) -> Corpus:
    """Build a corpus from an already-tokenized file (one doc per line)."""
    filtered = os.path.join(cfg.out_dir, "corpus_filtered.txt")
    path = filtered if os.path.exists(filtered) else cfg.corpus_path
    if not path:
        raise PipelineError("no corpus file configured")
    docs = corpus_mod.load_token_file(path)
    titles = _load_titles(cfg)
    if len(docs) != len(titles):
        raise PipelineError(
            f"corpus has {len(docs)} documents but titles file has {len(titles)}")
    return build_corpus(docs, titles)


def run_lda_train(cfg: PipelineConfig) -> LdaModel:
    corp = _load_token_corpus(cfg)
    model = lda_mod.train(corp, cfg.lda)
    save_model(model, _out(cfg, "lda_model.npz"))
    if cfg.lda_unnormalized:
        features = model.doc_topic_counts + cfg.lda.alpha_vec()
    else:
        features = model.theta
    write_matrix_csv(_out(cfg, "lda_theta.csv"), features)
    return model


def run_lda_topics(cfg: PipelineConfig, model_path: str | None = None) -> str:
    path = model_path or os.path.join(cfg.out_dir, "lda_model.npz")
    model = load_model(path, kind="lda")
    text = lda_mod.format_topics(model, cfg.lda_num_words)
    with open(_out(cfg, "lda_topics.txt"), "w", encoding="utf-8") as f:
        f.write(text)
    return text


def run_doc2vec_train(cfg: PipelineConfig) -> EmbeddingModel:
    corp = _load_token_corpus(cfg)
    model = d2v_mod.train(corp, cfg.doc2vec)
    save_model(model, _out(cfg, "doc2vec_model.npz"))
    write_matrix_csv(_out(cfg, "doc2vec_vectors.csv"), model.D)
    return model


def _load_features(cfg: PipelineConfig, features_path: str):
    """Feature rows and titles, checked to match one to one and be finite."""
    if not features_path:
        raise PipelineError("no --features file given")
    features = load_matrix_csv(features_path)
    titles = _load_titles(cfg)
    if features.shape[0] != len(titles):
        raise PipelineError("feature rows do not match the titles file")
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise PipelineError(
            f"{features_path}: row {bad[0]} holds a non-finite value")
    return features, titles


def run_knn(cfg: PipelineConfig, features_path: str,
            out_name: str = "knn.tsv") -> str:
    features, titles = _load_features(cfg, features_path)
    if cfg.knn_title is not None:
        index = title_lookup(titles, cfg.knn_title)
    else:
        index = cfg.knn_index
    result = nn_mod.knn(features, index, cfg.knn_k, cfg.knn_metric)
    listing = nn_mod.format_listing(result, titles)
    with open(_out(cfg, out_name), "w", encoding="utf-8") as f:
        f.write(listing)
    return listing


def run_tsne(cfg: PipelineConfig, features_path: str,
             out_name: str = "tsne.csv") -> np.ndarray:
    features, _ = _load_features(cfg, features_path)
    layout = tsne_mod.run(features, cfg.tsne)
    write_matrix_csv(_out(cfg, out_name), layout.Y)
    return layout.Y


def run_pipeline(cfg: PipelineConfig) -> None:
    """All stages in order, on both feature sets."""
    run_preprocess(cfg)
    run_lda_train(cfg)
    run_lda_topics(cfg)
    run_doc2vec_train(cfg)
    run_knn(cfg, os.path.join(cfg.out_dir, "lda_theta.csv"), "knn_lda.tsv")
    run_knn(cfg, os.path.join(cfg.out_dir, "doc2vec_vectors.csv"),
            "knn_doc2vec.tsv")
    run_tsne(cfg, os.path.join(cfg.out_dir, "lda_theta.csv"), "lda_tsne.csv")
    # independent layout noise for the second map
    second = dataclasses.replace(
        cfg, tsne=dataclasses.replace(cfg.tsne, seed=cfg.tsne.seed + 1))
    run_tsne(second, os.path.join(cfg.out_dir, "doc2vec_vectors.csv"),
             "doc2vec_tsne.csv")


def run(command: str, cfg: PipelineConfig,
        features_path: str | None = None,
        model_path: str | None = None) -> int:
    """Dispatch one CLI command; raises on failure, returns 0 on success."""
    if command not in COMMANDS:
        raise PipelineError(f"unknown command {command!r}")
    if command == "preprocess":
        run_preprocess(cfg)
    elif command == "lda-train":
        run_lda_train(cfg)
    elif command == "lda-topics":
        print(run_lda_topics(cfg, model_path), end="")
    elif command == "doc2vec-train":
        run_doc2vec_train(cfg)
    elif command == "knn":
        print(run_knn(cfg, features_path), end="")
    elif command == "tsne":
        run_tsne(cfg, features_path)
    else:
        run_pipeline(cfg)
    return 0
