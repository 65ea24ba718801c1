"""Command-line entry point.

Settings come from an optional INI config file. Each setting flag carries
its INI address as its argparse dest (`--num-topics` is `lda.num_topics`)
and, when given, overrides that INI setting.
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline as pl


class _Readout(argparse.Action):
    """Stores `--readout final|average` as the LdaConfig readout name."""

    def __call__(self, parser, namespace, value, option_string=None):
        readout = {"final": "final_sample", "average": "thinned_average"}
        setattr(namespace, self.dest, readout[value])


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file with per-stage sections")
    for flag, dest, text in (
            ("--corpus", "paths.corpus", "corpus file, one document per line"),
            ("--titles", "paths.titles", "titles file, one title per line"),
            ("--stopwords", "paths.stopwords", "stopword file, one term per line"),
            ("--names", "paths.names", "file of common names to drop"),
            ("--out", "paths.out_dir", "output directory")):
        common.add_argument(flag, dest=dest, help=text)
    common.add_argument("--seed", dest="run.seed", type=int,
                        help="global seed; stage seeds derive from it")

    parser = argparse.ArgumentParser(
        prog="topicvec",
        description="Document features from LDA and paragraph vectors, "
                    "with KNN search and 2-D maps")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, text):
        return sub.add_parser(name, help=text, parents=[common])

    p = command("preprocess", "tokenize, filter and index the corpus")
    p.add_argument("--keep-top-n", dest="preprocess.keep_top_n_terms", type=int,
                   help="vocabulary size cap")
    p.add_argument("--min-token-len", dest="preprocess.min_token_len", type=int)

    p = command("lda-train", "train the topic model "
                "(uses OUT/corpus_filtered.txt when present)")
    p.add_argument("--num-topics", dest="lda.num_topics", type=int)
    p.add_argument("--alpha", dest="lda.alpha", type=float)
    p.add_argument("--beta", dest="lda.beta", type=float)
    p.add_argument("--sweeps", dest="lda.sweeps", type=int)
    p.add_argument("--burn-in", dest="lda.burn_in", type=int)
    p.add_argument("--sample-lag", dest="lda.sample_lag", type=int)
    p.add_argument("--readout", dest="lda.readout", choices=["final", "average"],
                   action=_Readout)
    p.add_argument("--unnormalized", dest="lda.unnormalized", action="store_true",
                   default=None,
                   help="export expected topic counts instead of normalized rows")

    p = command("lda-topics", "dump the most probable words per topic")
    p.add_argument("--model", help="model archive (default OUT/lda_model.npz)")
    p.add_argument("--n", dest="lda.num_words", type=int, help="words per topic")

    p = command("doc2vec-train", "train paragraph vectors")
    p.add_argument("--dim", dest="doc2vec.dim", type=int)
    p.add_argument("--window", dest="doc2vec.window", type=int)
    p.add_argument("--min-count", dest="doc2vec.min_count", type=int)
    p.add_argument("--mode", dest="doc2vec.mode", choices=["pvdm", "pvdbow"])
    p.add_argument("--subsample", dest="doc2vec.subsample", type=float)
    p.add_argument("--max-epochs", dest="doc2vec.max_epochs", type=int)

    p = command("knn", "rank nearest documents for a query")
    p.add_argument("--features", help="feature CSV, one row per document")
    p.add_argument("--title", dest="knn.title", help="query by exact title")
    p.add_argument("--index", dest="knn.index", type=int, help="query by row index")
    p.add_argument("--k", dest="knn.k", type=int)
    p.add_argument("--metric", dest="knn.metric", choices=["cosine", "euclidean"])

    p = command("tsne", "project features to two dimensions")
    p.add_argument("--features", help="feature CSV, one row per document")
    p.add_argument("--perplexity", dest="tsne.perplexity", type=float)
    p.add_argument("--iterations", dest="tsne.iterations", type=int)
    p.add_argument("--learning-rate", dest="tsne.learning_rate", type=float)
    p.add_argument("--kernel", dest="tsne.kernel", choices=["student_t", "gaussian"])

    command("pipeline", "run every stage in order")
    return parser


def config_from_args(args) -> pl.PipelineConfig:
    """The --config file's settings, overridden by every setting flag given."""
    settings = {}
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.split(".")
            settings.setdefault(section, {})[key] = value
    cfg = pl.load_config(args.config) if args.config else pl.PipelineConfig()
    return pl.configure(cfg, settings)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        return pl.run(args.command, cfg,
                      features_path=getattr(args, "features", None),
                      model_path=getattr(args, "model", None))
    except Exception as e:
        print(f"topicvec: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
