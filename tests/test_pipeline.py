import argparse
import json
import os
import re
import zipfile

import numpy as np
import pytest

from topicvec import cli, pipeline
from topicvec.corpus import build_corpus
from topicvec.doc2vec import Doc2VecConfig
from topicvec.doc2vec import train as d2v_train
from topicvec.lda import LdaConfig
from topicvec.lda import train as lda_train
from topicvec.pipeline import (SETTINGS, CorruptArchiveError, KindMismatchError,
                               PipelineConfig, PipelineError, VersionMismatchError,
                               configure, load_config, load_matrix_csv, load_model,
                               save_model, title_lookup, write_matrix_csv)


@pytest.fixture
def small_corpus():
    docs = [["ant", "bee", "ant", "cat"], ["bee", "cat", "dog"],
            ["dog", "ant", "dog", "bee"], ["cat", "cat", "bee"]]
    return build_corpus(docs, ["d0", "d1", "d2", "d3"])


# -------------------------------------------------------------- persistence

def test_lda_round_trip_is_bit_exact(small_corpus, tmp_path):
    model = lda_train(small_corpus, LdaConfig(num_topics=2, sweeps=6, burn_in=2, seed=0))
    path = tmp_path / "m.npz"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(model.phi, back.phi)
    assert np.array_equal(model.theta, back.theta)
    assert back.terms == model.terms
    assert back.config == model.config


def test_doc2vec_round_trip_is_bit_exact(small_corpus, tmp_path):
    cfg = Doc2VecConfig(dim=3, window=2, min_count=1, subsample=1.0,
                        max_epochs=3, seed=1)
    model = d2v_train(small_corpus, cfg)
    path = tmp_path / "m.npz"
    save_model(model, path)
    back = load_model(path, kind="doc2vec")
    for field in ("W", "D", "U", "b", "term_freq"):
        assert np.array_equal(getattr(model, field), getattr(back, field))
    assert back.labels == model.labels
    assert back.term_to_id == model.term_to_id


def test_truncated_archive_reports_corruption(small_corpus, tmp_path):
    model = lda_train(small_corpus, LdaConfig(num_topics=2, sweeps=4, burn_in=1, seed=0))
    path = tmp_path / "m.npz"
    save_model(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 3])
    with pytest.raises(CorruptArchiveError):
        load_model(path)


def test_non_archive_file_reports_corruption(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_text("this is not a zip")
    with pytest.raises(CorruptArchiveError):
        load_model(path)


def test_missing_metadata_reports_corruption(tmp_path):
    path = tmp_path / "plain.npz"
    np.savez(path, data=np.ones(3))
    with pytest.raises(CorruptArchiveError):
        load_model(path)


def rewrite_meta(path, edit):
    """Apply `edit` to the metadata of the archive at `path`, in place."""
    with np.load(path) as npz:
        arrays = {k: npz[k] for k in npz.files}
    meta = json.loads(str(arrays["__meta__"]))
    edit(meta)
    arrays["__meta__"] = np.asarray(json.dumps(meta))
    np.savez(path, **arrays)


@pytest.mark.parametrize("edit", [
    lambda meta: meta.pop("kind"),
    lambda meta: meta["config"].update(num_tropics=3),
    lambda meta: meta["config"].update(num_topics=0),
], ids=["missing-kind", "unknown-config-key", "invalid-config-value"])
def test_bad_metadata_reports_corruption(small_corpus, tmp_path, edit):
    model = lda_train(small_corpus, LdaConfig(num_topics=2, sweeps=4, burn_in=1, seed=0))
    path = tmp_path / "m.npz"
    save_model(model, path)
    rewrite_meta(path, edit)
    for kind in (None, "lda"):
        with pytest.raises(CorruptArchiveError):
            load_model(path, kind=kind)


def test_version_mismatch_detected(small_corpus, tmp_path):
    model = lda_train(small_corpus, LdaConfig(num_topics=2, sweeps=4, burn_in=1, seed=0))
    path = tmp_path / "m.npz"
    save_model(model, path)
    rewrite_meta(path, lambda meta: meta.update(version=999))
    with pytest.raises(VersionMismatchError):
        load_model(path)


def test_kind_mismatch_detected(small_corpus, tmp_path):
    model = lda_train(small_corpus, LdaConfig(num_topics=2, sweeps=4, burn_in=1, seed=0))
    path = tmp_path / "m.npz"
    save_model(model, path)
    with pytest.raises(KindMismatchError):
        load_model(path, kind="doc2vec")


def test_unarchivable_object_rejected():
    with pytest.raises(TypeError):
        save_model({"not": "a model"}, "nowhere.npz")


# ------------------------------------------------------------------ lookups

def test_title_lookup_returns_first_occurrence():
    titles = ["A", "B", "C", "B"]
    assert title_lookup(titles, "B") == 1


def test_title_lookup_error_lists_suggestions():
    titles = ["The Godfather", "Amelie", "Jaws"]
    assert title_lookup(titles, "The Godfather") == 0
    with pytest.raises(KeyError, match="Godfather"):
        title_lookup(titles, "The Godfathr")


# ------------------------------------------------------------------- config

def test_config_file_round_trip(tmp_path):
    ini = tmp_path / "c.ini"
    ini.write_text("""
[paths]
corpus = plots.txt
titles = titles.txt
out_dir = results

[lda]
num_topics = 12
alpha = 0.05
num_words = 7

[doc2vec]
dim = 24
mode = pvdbow

[tsne]
perplexity = 12.5
kernel = gaussian

[knn]
k = 5
metric = euclidean
title = The Godfather

[run]
seed = 99
""")
    cfg = load_config(ini)
    assert cfg.corpus_path == "plots.txt" and cfg.out_dir == "results"
    assert cfg.lda.num_topics == 12 and cfg.lda.alpha == 0.05
    assert cfg.lda_num_words == 7
    assert cfg.doc2vec.dim == 24 and cfg.doc2vec.mode == "pvdbow"
    assert cfg.tsne.perplexity == 12.5 and cfg.tsne.kernel == "gaussian"
    assert cfg.knn_k == 5 and cfg.knn_metric == "euclidean"
    assert cfg.knn_title == "The Godfather"
    assert cfg.seed == 99


def test_config_values_keep_percent_signs(tmp_path):
    ini = tmp_path / "c.ini"
    ini.write_text("[knn]\ntitle = 100% Love\n\n[paths]\nout_dir = out%(x)s\n")
    cfg = load_config(ini)
    assert cfg.knn_title == "100% Love"
    assert cfg.out_dir == "out%(x)s"


def test_config_rejects_unknown_keys(tmp_path):
    ini = tmp_path / "c.ini"
    ini.write_text("[lda]\nnum_tropics = 3\n")
    with pytest.raises(Exception, match="num_tropics"):
        load_config(ini)


@pytest.mark.parametrize("section,key,value", [
    ("preprocess", "min_token_len", "0"), ("preprocess", "stopwords", "the"),
    ("lda", "num_topics", "0"), ("lda", "num_topics", "2.5"),
    ("lda", "readout", "average"), ("lda", "unnormalized", "maybe"),
    ("lda", "num_words", "0"), ("lda", "seed", "3"),
    ("doc2vec", "dim", "0"), ("doc2vec", "min_count", "0"),
    ("doc2vec", "subsample", "0"), ("doc2vec", "alpha0", "0"),
    ("doc2vec", "max_epochs", "0"), ("doc2vec", "alpha_floor", "0.5"),
    ("lda", "alpha", "-1"), ("lda", "alpha", [0.5, 0.5]), ("lda", "beta", "0"),
    ("tsne", "perplexity", "-5"), ("tsne", "exaggeration", "0"),
    ("tsne", "exaggeration_iters", "-1"), ("tsne", "momentum_switch", "-1"),
    ("tsne", "momentum_initial", "-0.1"), ("tsne", "momentum_final", "1"),
    ("knn", "k", "0"), ("knn", "metric", "manhattan"),
])
def test_configure_rejects_bad_settings_by_address(section, key, value):
    with pytest.raises(PipelineError, match=re.escape(f"[{section}] {key}")):
        configure(PipelineConfig(), {section: {key: value}})


def test_configure_parses_by_field_type_without_touching_its_input():
    base = PipelineConfig()
    cfg = configure(base, {"lda": {"alpha": "0.5", "unnormalized": "yes",
                                    "sweeps": "20", "burn_in": "10"},
                           "knn": {"title": "The Godfather"}})
    assert cfg.lda.alpha == 0.5 and cfg.lda_unnormalized is True
    assert (cfg.lda.sweeps, cfg.lda.burn_in) == (20, 10)
    assert cfg.knn_title == "The Godfather"
    assert base == PipelineConfig()


def test_every_setting_flag_sets_its_ini_address():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    flags = 0
    for name, command in commands.items():
        for action in command._actions:
            if "." not in action.dest:
                continue
            flags += 1
            section, key = action.dest.split(".")
            assert (section, key) in SETTINGS, action.option_strings
            if action.nargs == 0:
                value = []
            elif action.choices:
                value = [action.choices[0]]
            else:
                value = [{int: "60", float: "0.5", None: "x"}[action.type]]
            args = parser.parse_args([name, action.option_strings[0]] + value)
            cfg = cli.config_from_args(args)
            target, field_name = SETTINGS[section, key]
            obj = cfg if target is None else getattr(cfg, target)
            assert getattr(obj, field_name) == getattr(args, action.dest)
    assert flags == 7 * 6 + 25  # six shared flags per command, plus stage flags


def test_flags_override_ini_settings(tmp_path):
    ini = tmp_path / "c.ini"
    ini.write_text("[lda]\nnum_topics = 12\nreadout = final_sample\n")
    args = cli.build_parser().parse_args(
        ["lda-train", "--config", str(ini), "--num-topics", "5",
         "--readout", "average"])
    cfg = cli.config_from_args(args)
    assert cfg.lda.num_topics == 5 and cfg.lda.readout == "thinned_average"


def test_stage_command_seeds_derive_from_ini_run_seed(tmp_path):
    ini = tmp_path / "c.ini"
    ini.write_text("[run]\nseed = 7\n")
    parser = cli.build_parser()
    cfg = cli.config_from_args(parser.parse_args(["lda-train", "--config", str(ini)]))
    assert (cfg.lda.seed, cfg.doc2vec.seed, cfg.tsne.seed) == (8, 9, 10)
    cfg = cli.config_from_args(
        parser.parse_args(["tsne", "--config", str(ini), "--seed", "3"]))
    assert (cfg.lda.seed, cfg.tsne.seed) == (4, 6)


def test_stage_seeds_derive_from_global_seed():
    cfg = configure(PipelineConfig(), {"run": {"seed": "10"}})
    assert (cfg.lda.seed, cfg.doc2vec.seed, cfg.tsne.seed) == (11, 12, 13)


# ---------------------------------------------------------------------- csv

def test_matrix_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.normal(size=(5, 4)) * np.exp(rng.normal(size=(5, 4)) * 5)
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M)
    back = load_matrix_csv(path)
    assert np.array_equal(M, back)


# ----------------------------------------------------------------- cli runs

def winners_fixture(tmp_path):
    rng = np.random.default_rng(6)
    features = rng.uniform(0.1, 1.0, size=(25, 4))
    titles = [f"Movie {i}" for i in range(25)]
    titles[5] = "The Godfather"
    fpath = tmp_path / "features.csv"
    tpath = tmp_path / "titles.txt"
    write_matrix_csv(fpath, features)
    tpath.write_text("\n".join(titles) + "\n")
    return fpath, tpath


def test_cli_knn_emits_self_match_listing(tmp_path, capsys):
    fpath, tpath = winners_fixture(tmp_path)
    rc = cli.main(["knn", "--features", str(fpath), "--titles", str(tpath),
                   "--title", "The Godfather", "--k", "20",
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 21
    assert lines[0] == "0\tThe Godfather\t0.0"
    ranks = [int(l.split("\t")[0]) for l in lines]
    assert ranks == list(range(21))


def test_cli_knn_unknown_title_fails_nonzero(tmp_path, capsys):
    fpath, tpath = winners_fixture(tmp_path)
    rc = cli.main(["knn", "--features", str(fpath), "--titles", str(tpath),
                   "--title", "No Such Film", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cli_missing_inputs_fail_nonzero(tmp_path, capsys):
    rc = cli.main(["lda-train", "--corpus", str(tmp_path / "absent.txt"),
                   "--titles", str(tmp_path / "absent2.txt"),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cli_lda_topics_blocks(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    titles = tmp_path / "titles.txt"
    corpus.write_text("ant bee ant cat\nbee cat dog\ndog ant dog bee\n")
    titles.write_text("one\ntwo\nthree\n")
    out = tmp_path / "out"
    rc = cli.main(["lda-train", "--corpus", str(corpus), "--titles", str(titles),
                   "--out", str(out), "--num-topics", "2", "--sweeps", "6",
                   "--burn-in", "2", "--seed", "0"])
    assert rc == 0
    capsys.readouterr()
    rc = cli.main(["lda-topics", "--titles", str(titles), "--out", str(out),
                   "--n", "3"])
    assert rc == 0
    text = capsys.readouterr().out
    blocks = [b for b in text.split("\n\n") if b.strip()]
    assert len(blocks) == 2
    assert blocks[0].splitlines()[0] == "Topic 0"
    assert len(blocks[0].splitlines()) == 4  # header + 3 word lines
    assert (out / "lda_theta.csv").read_text().count("\n") == 3


def test_cli_tsne_writes_two_column_layout(tmp_path):
    rng = np.random.default_rng(1)
    fpath = tmp_path / "f.csv"
    tpath = tmp_path / "t.txt"
    write_matrix_csv(fpath, rng.normal(size=(30, 3)))
    tpath.write_text("\n".join(f"t{i}" for i in range(30)) + "\n")
    out = tmp_path / "out"
    rc = cli.main(["tsne", "--features", str(fpath), "--titles", str(tpath),
                   "--out", str(out), "--perplexity", "5",
                   "--iterations", "30", "--seed", "0"])
    assert rc == 0
    layout = load_matrix_csv(out / "tsne.csv")
    assert layout.shape == (30, 2)


def test_unknown_command_rejected():
    from topicvec.pipeline import run
    with pytest.raises(Exception, match="unknown command"):
        run("transmogrify", PipelineConfig())


def raw_fixture(tmp_path):
    corpus = tmp_path / "corpus.txt"
    titles = tmp_path / "titles.txt"
    corpus.write_text("ant bee ant cat\nbee cat dog\ndog ant dog bee\n")
    titles.write_text("one\ntwo\nthree\n")
    features = tmp_path / "features.csv"
    write_matrix_csv(features, np.random.default_rng(0).uniform(0.1, 1.0, (3, 2)))
    return ["--corpus", str(corpus), "--titles", str(titles)], str(features)


@pytest.mark.parametrize("command,setting,address", [
    ("lda-train", ["--num-topics", "0"], "[lda] num_topics"),
    ("lda-train", "[lda]\nnum_topics = 0", "[lda] num_topics"),
    ("doc2vec-train", ["--dim", "0"], "[doc2vec] dim"),
    ("doc2vec-train", "[doc2vec]\ndim = 0", "[doc2vec] dim"),
    ("tsne", ["--perplexity", "-5"], "[tsne] perplexity"),
    ("tsne", "[tsne]\nperplexity = -5", "[tsne] perplexity"),
    ("knn", ["--k", "0"], "[knn] k"),
    ("knn", "[knn]\nk = 0", "[knn] k"),
    ("lda-train", "[lda]\nreadout = average", "[lda] readout"),
    ("lda-train", ["--alpha", "-1"], "[lda] alpha"),
    ("lda-train", ["--beta", "0"], "[lda] beta"),
    ("doc2vec-train", "[doc2vec]\nalpha_floor = 0.5", "[doc2vec] alpha_floor"),
    ("tsne", "[tsne]\nexaggeration = -4", "[tsne] exaggeration"),
    ("tsne", "[tsne]\nmomentum_final = 1.0", "[tsne] momentum_final"),
    ("preprocess", "[preprocess]\nstopwords = the", "[preprocess] stopwords"),
])
def test_cli_bad_setting_fails_before_any_output(tmp_path, capsys, command,
                                                 setting, address):
    inputs, features = raw_fixture(tmp_path)
    out = tmp_path / "out"
    argv = [command, *inputs, "--out", str(out)]
    if command in ("knn", "tsne"):
        argv += ["--features", features]
    if isinstance(setting, list):  # flags
        argv += setting
    else:  # INI text
        (tmp_path / "bad.ini").write_text(setting + "\n")
        argv += ["--config", str(tmp_path / "bad.ini")]
    assert cli.main(argv) == 1
    assert address in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["num_topics = 3", "[lda]\ngarbage",
                                  "[lda]\nsweeps = 3\nsweeps = 4"])
def test_cli_malformed_config_fails_in_one_line(tmp_path, capsys, text):
    ini = tmp_path / "bad.ini"
    ini.write_text(text + "\n")
    out = tmp_path / "out"
    assert cli.main(["lda-train", "--config", str(ini), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("topicvec: error: ")
    assert str(ini) in err
    assert not out.exists()


def test_cli_lets_a_bug_propagate_with_its_traceback(tmp_path, monkeypatch):
    inputs, features = raw_fixture(tmp_path)

    def broken_stage(*args):
        raise TypeError("a bug, not bad input")

    monkeypatch.setattr(pipeline, "run_tsne", broken_stage)
    with pytest.raises(TypeError, match="a bug"):
        cli.main(["tsne", *inputs, "--features", features,
                  "--out", str(tmp_path / "out")])


def test_cli_gaussian_divergence_fails_without_output(tmp_path, capsys):
    inputs, _ = raw_fixture(tmp_path)
    fpath = tmp_path / "f.csv"
    write_matrix_csv(fpath, np.random.default_rng(0).normal(size=(120, 6)))
    (tmp_path / "titles.txt").write_text("".join(f"t{i}\n" for i in range(120)))
    out = tmp_path / "out"
    rc = cli.main(["tsne", *inputs, "--features", str(fpath), "--out", str(out),
                   "--perplexity", "15", "--kernel", "gaussian"])
    assert rc == 1
    assert "iteration 5 with learning_rate 100" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["knn", "tsne"])
def test_cli_rejects_non_finite_feature_rows(tmp_path, capsys, command):
    inputs, _ = raw_fixture(tmp_path)
    features = np.ones((3, 2))
    features[1, 0] = np.nan
    features[2, 1] = np.inf
    fpath = tmp_path / "nan.csv"
    write_matrix_csv(fpath, features)
    out = tmp_path / "out"
    rc = cli.main([command, *inputs, "--features", str(fpath), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(fpath) in err and "row 1 " in err
    assert not out.exists()
