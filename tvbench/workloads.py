"""The benchmark's workloads: what each one feeds `topicvec pipeline`, and
the labels and fold-in documents its checks use.

`mini` is the bundled mini corpus run exactly as the README quick start.
`topics-k50` and `map-2k` are seeded synthetic corpora of plot-like lines,
each document written mostly from the word list of one theme (its label).
"""

from __future__ import annotations

import importlib.util
import os
from dataclasses import dataclass

import numpy as np

CONSONANTS = "bcdfghjklmnprstvz"
VOWELS = "aeiou"
SYLLABLES = [c + v for c in CONSONANTS for v in VOWELS]
MINI_SEED = 20250809  # the seed scripts/make_minicorpus.py draws from


@dataclass
class Workload:
    """Generated inputs of one run, plus what the checks need to know."""

    name: str
    argv: list[str]  # arguments of `topicvec pipeline`, after the command
    out_dir: str
    config_path: str
    titles_path: str
    stopwords_path: str
    titles: list[str]
    labels: list  # theme label per training document, None if unlabelled
    foldin_lines: list[str]  # raw lines to fold in
    foldin_labels: list  # label per fold-in line (None: the line is a corpus row)
    foldin_rows: list  # corpus row of each fold-in line, or None if held out
    num_themes: int
    floors: dict  # purity floors, checked on every run


@dataclass(frozen=True)
class SyntheticSpec:
    docs: int
    held_out: int
    themes: int
    vocab: int
    theme_words: int
    mean_tokens: float
    main_share: float  # share of content words from the document's theme
    second_share: float  # share from one other theme
    ini: str


SPECS = {
    "topics-k50": SyntheticSpec(
        docs=1000, held_out=120, themes=10, vocab=6000, theme_words=80,
        mean_tokens=110.0, main_share=0.5, second_share=0.15, ini="""\
[preprocess]
keep_top_n_terms = 3000
min_token_len = 2

[lda]
num_topics = 50
sweeps = 10
burn_in = 5
sample_lag = 2
num_words = 10

[doc2vec]
dim = 16
window = 4
min_count = 40
subsample = 1.0
alpha0 = 0.1
max_epochs = 1

[tsne]
perplexity = 20
iterations = 20
exaggeration_iters = 10
learning_rate = 200

[knn]
k = 10
metric = cosine
title = Plot 0000
"""),
    "map-2k": SyntheticSpec(
        docs=2000, held_out=120, themes=8, vocab=400, theme_words=30,
        mean_tokens=30.0, main_share=0.6, second_share=0.1, ini="""\
[preprocess]
keep_top_n_terms = 2000
min_token_len = 2

[lda]
num_topics = 8
sweeps = 6
burn_in = 3
sample_lag = 1
num_words = 10

[doc2vec]
dim = 16
window = 4
min_count = 5
subsample = 1.0
alpha0 = 0.1
max_epochs = 1

[tsne]
perplexity = 30
iterations = 20
exaggeration_iters = 10
learning_rate = 200

[knn]
k = 10
metric = euclidean
title = Plot 0000
"""),
}

# Purity floors sit well under the values measured on every seed tried and
# above chance (one over the number of themes).
FLOORS = {
    "mini": {"lda_purity": 0.5, "doc2vec_purity": 0.35, "tsne_purity": 0.45,
             "self_retrieval": 0.9},
    "topics-k50": {"lda_purity": 0.6, "doc2vec_purity": 0.3, "tsne_purity": 0.4,
                   "foldin_lda": 0.6, "foldin_doc2vec": 0.2},
    "map-2k": {"lda_purity": 0.35, "doc2vec_purity": 0.35, "tsne_purity": 0.3,
               "foldin_lda": 0.4, "foldin_doc2vec": 0.35},
}

NAMES = ("mini", "topics-k50", "map-2k")


def pseudo_words(n: int, exclude: frozenset) -> list[str]:
    """n distinct three-syllable words, skipping any listed in `exclude`."""
    out = []
    i = 0
    base = len(SYLLABLES)
    while len(out) < n:
        word = (SYLLABLES[i // (base * base) % base] + SYLLABLES[i // base % base]
                + SYLLABLES[i % base])
        if word not in exclude:
            out.append(word)
        i += 1
    return out


def synthetic_lines(spec: SyntheticSpec, seed: int, fillers: list[str],
                    exclude: frozenset):
    """Raw document lines and their theme labels, training documents first.

    Content words come from the document's own theme (Zipf-weighted within
    the theme's list), from a second theme, or from a Zipf background over
    the whole vocabulary; about half of the written words are stopwords,
    and some sentences carry a year, which preprocessing drops.
    """
    rng = np.random.default_rng(seed)
    words = pseudo_words(spec.vocab, exclude)
    background = rng.permutation(spec.vocab)
    bg_cum = np.cumsum(1.0 / (np.arange(spec.vocab) + 10.0))
    bg_cum /= bg_cum[-1]
    pool = rng.permutation(np.arange(spec.vocab // 20, spec.vocab))
    theme_lists = pool[:spec.themes * spec.theme_words].reshape(
        spec.themes, spec.theme_words)
    th_cum = np.cumsum(1.0 / (np.arange(spec.theme_words) + 2.0))
    th_cum /= th_cum[-1]
    shares = np.cumsum([spec.main_share, spec.second_share])

    lines, labels = [], []
    for _ in range(spec.docs + spec.held_out):
        label = int(rng.integers(spec.themes))
        other = int((label + 1 + rng.integers(spec.themes - 1)) % spec.themes)
        n = max(5, int(rng.poisson(spec.mean_tokens)))
        source = np.searchsorted(shares, rng.random(n), side="right")
        in_theme = np.minimum(np.searchsorted(th_cum, rng.random(n)),
                              spec.theme_words - 1)
        in_bg = background[np.minimum(np.searchsorted(bg_cum, rng.random(n)),
                                      spec.vocab - 1)]
        ids = np.where(source == 0, theme_lists[label][in_theme],
                       np.where(source == 1, theme_lists[other][in_theme], in_bg))
        sentences, sent = [], []
        for t in ids.tolist():
            while rng.random() < 0.5:
                sent.append(fillers[int(rng.integers(len(fillers)))])
            sent.append(words[t])
            if len(sent) >= 10 and rng.random() < 0.3:
                if rng.random() < 0.15:
                    sent.append(str(int(rng.integers(1890, 2010))))
                sentences.append(" ".join(sent).capitalize() + ".")
                sent = []
        if sent:
            sentences.append(" ".join(sent).capitalize() + ".")
        lines.append(" ".join(sentences))
        labels.append(label)
    return lines, labels


def _load_script(root: str):
    path = os.path.join(root, "scripts", "make_minicorpus.py")
    spec = importlib.util.spec_from_file_location("make_minicorpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mini_labels(root: str, plots: list[str], titles: list[str]) -> list:
    """Main theme of each synthetic mini document, None for the book openings.

    Replays the seeded loop of scripts/make_minicorpus.py and raises
    ValueError unless the replay reproduces the bundled text and titles.
    """
    script = _load_script(root)
    rng = np.random.default_rng(MINI_SEED)
    names = list(script.THEMES)
    theme_words = [script.THEMES[t].split() for t in names]
    n_synth = len(plots) - len(script.SNIPPETS)
    used: set = set()
    labels = []
    for i in range(n_synth):
        theta = rng.dirichlet(np.full(len(names), 0.15))
        doc = script.synth_doc(rng, theme_words, theta)
        main = int(np.argmax(theta))
        if i == 42:  # the generator names this one "The Godfather"
            title = "The Godfather"
            used.add(title)
        else:
            title = script.make_title(rng, theme_words[main], used)
        if doc != plots[i] or title != titles[i]:
            raise ValueError(f"mini corpus line {i} does not match its replay")
        labels.append(names[main])
    for (title, text), got_title, got_text in zip(
            script.SNIPPETS, titles[n_synth:], plots[n_synth:]):
        if title != got_title or text != got_text:
            raise ValueError(f"book opening {title!r} does not match the script")
        labels.append(None)
    return labels


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f]


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def make(name: str, seed: int, root: str, work: str) -> Workload:
    """Write the inputs of workload `name` under `work` and describe them."""
    data = os.path.join(root, "src", "topicvec", "data")
    stopwords = os.path.join(data, "stopwords.txt")
    out = os.path.join(work, "out")
    if name == "mini":
        corpus, titles_path = (os.path.join(data, "mini_plots.txt"),
                               os.path.join(data, "mini_titles.txt"))
        config = os.path.join(data, "mini.ini")
        plots, titles = _read_lines(corpus), _read_lines(titles_path)
        labels = mini_labels(root, plots, titles)
        order = np.random.default_rng(seed).permutation(len(plots)).tolist()
        foldin_lines = [plots[i] for i in order]
        foldin_labels = [None] * len(order)
        foldin_rows = order
        themes = len(set(l for l in labels if l is not None))
    else:
        spec = SPECS[name]
        fillers = sorted(set(_read_lines(stopwords)) - {""})
        lines, all_labels = synthetic_lines(spec, seed, fillers,
                                            frozenset(fillers))
        titles = [f"Plot {i:04d}" for i in range(spec.docs)]
        corpus = os.path.join(work, "plots.txt")
        titles_path = os.path.join(work, "titles.txt")
        config = os.path.join(work, "pipeline.ini")
        _write_lines(corpus, lines[:spec.docs])
        _write_lines(titles_path, titles)
        with open(config, "w", encoding="utf-8") as f:
            f.write(spec.ini + f"\n[run]\nseed = {seed}\n")
        labels = all_labels[:spec.docs]
        foldin_lines = lines[spec.docs:]
        foldin_labels = all_labels[spec.docs:]
        foldin_rows = [None] * spec.held_out
        themes = spec.themes
    argv = ["--config", config, "--corpus", corpus, "--titles", titles_path,
            "--stopwords", stopwords, "--out", out]
    return Workload(name, argv, out, config, titles_path, stopwords, titles,
                    labels, foldin_lines,
                    foldin_labels, foldin_rows, themes, FLOORS[name])
