import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import typing

import numpy as np
import pytest

from dataclasses import replace as dc_replace
from hypothesis import given, settings, strategies as st
from pathlib import Path

from proofmatch import decoding, forkmap
from proofmatch.cli import build_parser, main
from proofmatch.corpus import (
    Corpus, PairRecord, SplitSpec, _escape, format_record, math_token,
    read_corpus, read_records, text_token, write_corpus, write_records)
from proofmatch.decoding import build_score_matrix, decode_local
from proofmatch.encoders import (
    EncoderConfig, Vocabulary, build_vocab, init_model, load_model,
    save_model)
from proofmatch.evalharness import assignment_distribution
from proofmatch.mathml import linearize_mathml
from proofmatch.symbols import Level, ReplacementLevel
from proofmatch.training import TrainConfig, TrainHistory
from conftest import (MARKER, TEXT_A_ENTRY, UNK_ENTRY, assert_no_child_left,
                      letter_corpus, repeated_token_pair, save_marker_as,
                      separable_corpus, topic_corpus, write_pooled_model)


def raw_line(pair_id, n_statement=25, n_proof=25, mathml=None):
    statement = " ".join(["m:s"] * n_statement)
    proof_items = ["m:p"] * n_proof
    if mathml is not None:
        proof_items.append("x:" + _escape(mathml))
    return "\t".join([pair_id, "art1", "topology",
                      statement, " ".join(proof_items)])


def write_raw(path, lines):
    path.write_text("# raw records\n" + "\n".join(lines) + "\n",
                    encoding="utf-8")


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.tsv"
    write_corpus(separable_corpus(10), path)
    return path


class TestIngest:
    def test_counts_and_output(self, tmp_path, capsys):
        raw = tmp_path / "raw.tsv"
        write_raw(raw, [
            raw_line("keep1"),
            raw_line("keep2", n_statement=20, n_proof=500),
            raw_line("short", n_proof=5),
            raw_line("long", n_statement=501),
            raw_line("both", n_statement=501, n_proof=3),  # short wins
        ])
        code = main(["ingest", str(raw), "--out-dir", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "kept 2, rejected 3 (too short 2, too long 1)" in out
        corpus = read_corpus(tmp_path / "out" / "corpus.tsv")
        assert [p.pair_id for p in corpus.pairs] == ["keep1", "keep2"]

    def test_mathml_items_linearized(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        fragment = "<math><msub><mi>a</mi><mi>n</mi></msub><mtext>holds</mtext></math>"
        write_raw(raw, [raw_line("p1", n_proof=18, mathml=fragment)])
        assert main(["ingest", str(raw), "--out-dir", str(tmp_path / "o")]) == 0
        corpus = read_corpus(tmp_path / "o" / "corpus.tsv")
        surfaces = [t.surface for t in corpus.pairs[0].proof]
        assert surfaces[-3:] == ["a", "n", "holds"]  # 18 + 3 = 21 tokens kept

    def test_equal_mathml_items_linearized_once(self, tmp_path, monkeypatch):
        import proofmatch.cli as cli
        payloads = []

        def counting(fragment, tokens=None):
            payloads.append(fragment)
            return linearize_mathml(fragment, tokens)

        monkeypatch.setattr(cli, "linearize_mathml", counting)
        raw = tmp_path / "raw.tsv"
        same = "<math><mi>a</mi><mi mathvariant=\"bold\">b</mi></math>"
        other = "<math><mi>c</mi></math>"
        write_raw(raw, [raw_line("p1", mathml=same) + " x:" + _escape(same),
                        raw_line("p2", mathml=other),
                        raw_line("p3", mathml=same)])
        records = list(read_records(raw, cli._parse_raw_item))
        assert sorted(payloads) == sorted([same, other])
        p1, p2, p3 = (r.proof for r in records)
        assert p1[-4:] == p3[-2:] * 2 and p2[-1:] == [math_token("c")]
        assert p1[-4] is p1[-2] is p3[-2] and p1[-3] is p1[-1] is p3[-1]

    def test_one_token_per_distinct_mathml_leaf(self, tmp_path, monkeypatch):
        import proofmatch.cli as cli
        written = []

        def recording(records, path):
            written.append(list(records))
            write_records(written[-1], path)

        monkeypatch.setattr(cli, "write_records", recording)
        raw = tmp_path / "raw.tsv"
        write_raw(raw, [
            raw_line("p1", mathml='<math><mi>a</mi><mi mathvariant="bold">a'
                                  '</mi><mtext>holds</mtext></math>'),
            raw_line("p2", mathml="<math><mrow><mtext>holds</mtext><mi>a</mi>"
                                  "</mrow></math>"),
            raw_line("p3", mathml='<math><mi mathvariant="bold">a</mi><mi>a'
                                  '</mi></math>')])
        assert main(["ingest", str(raw), "--out-dir", str(tmp_path / "o")]) == 0
        leaves = [t for p in written[0] for t in p.proof[25:]]
        assert len(leaves) == 7
        assert len({id(t) for t in leaves}) == len(set(leaves)) == 3

    def test_strict_exit_code(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        write_raw(raw, [raw_line("ok"), raw_line("short", n_proof=1)])
        assert main(["ingest", str(raw), "--strict",
                     "--out-dir", str(tmp_path / "o")]) == 2

    def test_malformed_mathml_reports_error(self, tmp_path, capsys):
        raw = tmp_path / "raw.tsv"
        write_raw(raw, [raw_line("bad", mathml="<math><mi>x</math>")])
        assert main(["ingest", str(raw), "--out-dir", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_mixed_content_mathml_names_line_and_column(self, tmp_path,
                                                         capsys):
        raw = tmp_path / "raw.tsv"
        mixed = "<math><mi>a</mi>b<mrow>c<mi>d</mi></mrow></math>"
        line = raw_line("bad", mathml=mixed)
        write_raw(raw, [raw_line("ok"), line])
        assert main(["ingest", str(raw), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        # the comment is line 1; the x: item starts after the last space
        assert err == (f"error: {raw}: line 3, col {line.rindex(' ') + 1}: "
                       "text 'b' beside child elements of <math>\n")
        assert not (tmp_path / "o" / "corpus.tsv").exists()

    def test_bad_token_error_names_column(self, tmp_path, capsys):
        raw = tmp_path / "raw.tsv"
        line = raw_line("p1")
        write_raw(raw, [line + " q:oops"])
        assert main(["ingest", str(raw), "--out-dir", str(tmp_path / "o")]) == 1
        # the comment is line 1; the bad item starts after the last space
        assert (f"line 2, col {len(line) + 1}: unknown token-kind sigil"
                in capsys.readouterr().err)

    def test_escaped_line_break_in_an_id_reads_back(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        write_raw(raw, [raw_line("a%0Db")])
        assert main(["ingest", str(raw), "--out-dir", str(tmp_path / "o"),
                     "--quiet"]) == 0
        corpus = tmp_path / "o" / "corpus.tsv"
        assert corpus.read_text().startswith("a%0Db\t")
        assert [p.pair_id for p in read_corpus(corpus).pairs] == ["a\rb"]

    def test_idempotent(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        write_raw(raw, [raw_line("p1"), raw_line("p2")])
        main(["ingest", str(raw), "--out-dir", str(tmp_path / "a"), "--quiet"])
        # re-ingesting the clean corpus keeps it byte-identical
        first = (tmp_path / "a" / "corpus.tsv").read_text()
        main(["ingest", str(tmp_path / "a" / "corpus.tsv"),
              "--out-dir", str(tmp_path / "b"), "--quiet"])
        assert (tmp_path / "b" / "corpus.tsv").read_text() == first


class TestSplit:
    def test_writes_three_files_with_floor_sizes(self, tmp_path, corpus_file):
        out = tmp_path / "splits"
        assert main(["split", str(corpus_file), "--out-dir", str(out),
                     "--quiet"]) == 0
        sizes = {name: len(read_corpus(out / f"corpus.{name}.tsv"))
                 for name in ("train", "dev", "test")}
        assert sizes == {"train": 8, "dev": 1, "test": 1}

    def test_partition_is_disjoint_and_complete(self, tmp_path, corpus_file):
        out = tmp_path / "splits"
        main(["split", str(corpus_file), "--out-dir", str(out), "--quiet"])
        ids = []
        for name in ("train", "dev", "test"):
            ids += [p.pair_id for p in read_corpus(out / f"corpus.{name}.tsv").pairs]
        assert sorted(ids) == sorted(
            p.pair_id for p in read_corpus(corpus_file).pairs)

    def test_seed_changes_split(self, tmp_path, corpus_file):
        outs = []
        for seed in (0, 1):
            out = tmp_path / f"s{seed}"
            main(["split", str(corpus_file), "--out-dir", str(out),
                  "--seed", str(seed), "--quiet"])
            outs.append({p.pair_id
                         for p in read_corpus(out / "corpus.dev.tsv").pairs})
        assert outs[0] != outs[1]


class TestReplaceVocab:
    def test_replace_reports_the_alpha_it_used(self, tmp_path, corpus_file,
                                               capsys):
        # a full replacement renames every shared symbol whatever --alpha says
        assert main(["replace", str(corpus_file), "--level", "full",
                     "--alpha", "0.3", "--out-dir", str(tmp_path / "r")]) == 0
        assert "(full, alpha=1.0)" in capsys.readouterr().out

    def test_replace_conservation_identity(self, tmp_path, corpus_file):
        out = tmp_path / "r"
        assert main(["replace", str(corpus_file), "--level", "conservation",
                     "--out-dir", str(out), "--quiet"]) == 0
        assert (read_corpus(out / "replaced.tsv").pairs
                == read_corpus(corpus_file).pairs)

    def test_replace_manifest_checksums_the_option_files(self, tmp_path,
                                                         corpus_file):
        # --config and --protected change the outputs, so the manifest
        # holds their checksums beside the corpus's, also for a protected
        # file that the config file names
        protected, config = tmp_path / "prot.txt", tmp_path / "run.cfg"
        protected.write_text("P\nσ\n", encoding="utf-8")
        sha = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()  # noqa: E731
        for text, flags in [("level = transposition\n",
                             ["--protected", str(protected)]),
                            (f"protected = {protected}\n", [])]:
            config.write_text(text, encoding="utf-8")
            out = tmp_path / "r"
            assert main(["replace", str(corpus_file), "--config", str(config),
                         *flags, "--out-dir", str(out), "--quiet"]) == 0
            manifest = json.loads((out / "manifest-replace.json").read_text())
            assert manifest["inputs"] == {
                str(p): sha(p) for p in (corpus_file, config, protected)}

    def test_vocab_file(self, tmp_path, corpus_file):
        out = tmp_path / "v"
        assert main(["vocab", str(corpus_file), "--out-dir", str(out),
                     "--quiet"]) == 0
        lines = (out / "vocab.tsv").read_text().splitlines()
        assert lines[0] == "0\t<unk>"
        # 10 separable pairs contribute 20 distinct math tokens
        assert len(lines) == 21


def train_args(tmp_path, corpus_file, extra=()):
    out = tmp_path / "model"
    return ["train", str(corpus_file), str(corpus_file),
            "--out-dir", str(out), "--dim", "16", "--batch-size", "5",
            "--epochs", "60", "--eval-every", "20", "--quiet", *extra], out


class TestTrainEval:
    def test_train_then_eval(self, tmp_path, corpus_file, capsys):
        args, out = train_args(tmp_path, corpus_file)
        assert main(args) == 0
        assert (out / "model.pmm").is_file()
        assert (out / "model.log").is_file()

        eval_out = tmp_path / "e"
        assert main(["eval", str(out / "model.pmm"), str(corpus_file),
                     "--out-dir", str(eval_out)]) == 0
        line = (eval_out / "eval.tsv").read_text().strip()
        assert line.startswith("decode=local\tmrr=")
        assert line.endswith("n=10")

    def test_eval_global_k_naming(self, tmp_path, corpus_file):
        args, out = train_args(tmp_path, corpus_file)
        main(args)
        eval_out = tmp_path / "e"
        main(["eval", str(out / "model.pmm"), str(corpus_file),
              "--decode", "global", "--out-dir", str(eval_out), "--quiet"])
        assert "k=all\tmrr=-" in (eval_out / "eval.tsv").read_text()
        assert "padded=0" in (eval_out / "eval.tsv").read_text()
        main(["eval", str(out / "model.pmm"), str(corpus_file),
              "--decode", "global", "--k", "3",
              "--out-dir", str(eval_out), "--quiet"])
        assert "k=3\t" in (eval_out / "eval.tsv").read_text()

    def test_eval_global_reports_padding(self, tmp_path, corpus_file, capsys):
        # identical pairs share one top-1 proof, so the k=1 edges admit no
        # perfect matching
        args, out = train_args(tmp_path, corpus_file)
        main(args)
        dup = tmp_path / "dup.tsv"
        write_corpus(Corpus([dc_replace(repeated_token_pair(0), pair_id=f"d{i}")
                             for i in range(3)]), dup)
        eval_out = tmp_path / "e"
        capsys.readouterr()
        assert main(["eval", str(out / "model.pmm"), str(dup),
                     "--decode", "global", "--k", "1",
                     "--out-dir", str(eval_out), "--quiet"]) == 0
        assert (eval_out / "eval.tsv").read_text().rstrip().endswith("padded=1")
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_eval_k_zero_is_an_error(self, tmp_path, corpus_file, capsys):
        # omitting --k solves densely; --k takes K >= 1 and has no 0 alias
        model = tmp_path / "m.pmm"
        save_model(init_model(build_vocab(read_corpus(corpus_file)),
                              EncoderConfig(d=8)), model)
        capsys.readouterr()
        assert main(["eval", str(model), str(corpus_file), "--decode", "global",
                     "--k", "0", "--out-dir", str(tmp_path / "e"),
                     "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == "error: k=0 outside [1, 10]\n"
        assert not (tmp_path / "e" / "eval.tsv").exists()

    def test_train_reports_the_model_it_saved(self, tmp_path, corpus_file,
                                              capsys, monkeypatch):
        import proofmatch.cli as cli
        history = TrainHistory(dev_accuracy=[(1, 0.5), (2, 0.9), (3, 0.9),
                                             (4, 0.7)])
        monkeypatch.setattr(cli, "train",
                            lambda train_c, dev_c, state, config: (state, history))
        args, _ = train_args(tmp_path, corpus_file)
        assert main([a for a in args if a != "--quiet"]) == 0
        # train keeps the first evaluation with the best accuracy
        assert "(dev accuracy 0.9000 at epoch 2)" in capsys.readouterr().out

    def test_default_training_learns_and_does_not_warn(self, tmp_path,
                                                        capsys):
        # Over the seed pairs 1/2, 3/4, ..., 19/20 of these corpora, the
        # defaults reached a best dev accuracy of 0.783 to 0.950, and lr
        # 5e-3 reached 0.017 to 0.033 (chance is 1/60)
        train, dev = tmp_path / "train.tsv", tmp_path / "dev.tsv"
        write_corpus(topic_corpus(1, 120, "t"), train)
        write_corpus(topic_corpus(2, 60, "d"), dev)
        assert main(["train", str(train), str(dev), "--out-dir",
                     str(tmp_path / "o"), "--quiet"]) == 0
        manifest = json.loads((tmp_path / "o" / "manifest-train.json")
                              .read_text())
        assert manifest["best_dev_accuracy"] >= 0.7
        assert capsys.readouterr().err == ""

    def test_training_at_chance_warns_and_succeeds(self, tmp_path,
                                                   corpus_file, capsys):
        # no dev token is in the training vocabulary, so every dev document
        # encodes alike, every score ties, and ties go by index: only the
        # first statement ranks its own proof first
        dev = tmp_path / "dev.tsv"
        write_corpus(Corpus([repeated_token_pair(i) for i in range(10, 20)]),
                     dev)
        out = tmp_path / "o"
        assert main(["train", str(corpus_file), str(dev), "--epochs", "1",
                     "--out-dir", str(out), "--quiet"]) == 0
        assert (out / "model.pmm").is_file()
        err = capsys.readouterr().err
        assert re.fullmatch(r"warning: best dev accuracy 0\.1000 is below "
                            r"5 times chance \(0\.1000\); the model may not "
                            r"have learned\n", err)

    def test_small_dev_set_never_warns(self, tmp_path, capsys):
        # on 5 or fewer dev pairs even accuracy 1 is not 5 times chance:
        # the check would say nothing, so no warning is printed
        corpus = tmp_path / "c.tsv"
        write_corpus(separable_corpus(4), corpus)
        out = tmp_path / "o"
        assert main(["train", str(corpus), str(corpus), "--dim", "16",
                     "--batch-size", "4", "--epochs", "60", "--eval-every",
                     "20", "--out-dir", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "manifest-train.json").read_text())
        assert manifest["best_dev_accuracy"] == 1.0
        assert manifest["chance"] == 0.25
        assert capsys.readouterr().err == ""

    def test_the_largest_seed_is_kept_as_given(self, tmp_path, corpus_file):
        # the checkpoint's uint64 seed field holds it, so no seed is
        # truncated on its way into model.pmm
        seed = 2**64 - 1
        out = tmp_path / "o"
        assert main(["train", str(corpus_file), str(corpus_file), "--dim", "4",
                     "--epochs", "1", "--seed", str(seed), "--out-dir",
                     str(out), "--quiet"]) == 0
        assert load_model(out / "model.pmm").rng_seed == seed
        manifest = json.loads((out / "manifest-train.json").read_text())
        assert manifest["config"]["seed"] == seed

    def test_manifest_written(self, tmp_path, corpus_file):
        dev, test, model = (tmp_path / "dev.tsv", tmp_path / "test.tsv",
                            tmp_path / "model.pmm")
        dev.write_bytes(corpus_file.read_bytes())
        test.write_bytes(corpus_file.read_bytes())
        save_model(init_model(build_vocab(read_corpus(corpus_file)),
                              EncoderConfig(d=4), 0), model)
        small = ["--dim", "4", "--batch-size", "5", "--epochs", "2",
                 "--eval-every", "2"]
        runs = {
            "ingest": ([corpus_file], []),
            "split": ([corpus_file], []),
            "replace": ([corpus_file], []),
            "vocab": ([corpus_file], []),
            "train": ([corpus_file, dev], small),
            "eval": ([model, corpus_file], []),
            "grid": ([corpus_file, dev, test], small + ["--levels", "full"]),
        }
        for command, (inputs, flags) in runs.items():
            out = tmp_path / command
            assert main([command, *map(str, inputs), *flags,
                         "--out-dir", str(out), "--quiet"]) == 0
            manifest = json.loads((out / f"manifest-{command}.json").read_text())
            assert manifest["command"] == command
            # no file-valued option is given: the inputs are the
            # positional files
            assert manifest["inputs"] == {
                str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in inputs}
            assert "inputs" not in manifest["config"]
        assert manifest["config"]["epochs"] == 2

    def test_train_writes_the_dev_curve(self, tmp_path, corpus_file,
                                        monkeypatch):
        import proofmatch.cli as cli
        histories = []

        def recording_train(*args):
            best, history = cli_train(*args)
            histories.append(history)
            return best, history

        cli_train = cli.train
        monkeypatch.setattr(cli, "train", recording_train)
        args, out = train_args(tmp_path, corpus_file,
                               ["--epochs", "5", "--eval-every", "2",
                                "--output", "run.pmm"])
        assert main(args) == 0
        (history,) = histories
        assert [e for e, _ in history.dev_accuracy] == [2, 4, 5]
        assert (out / "run.dev.tsv").read_text() == "".join(
            f"{e}\t{a:.10g}\n" for e, a in history.dev_accuracy)

    def test_manifest_records_encoder_threads(self, tmp_path, corpus_file,
                                              monkeypatch):
        # the most threads that one of the command's encoder maps ran on,
        # in the calling process or in a forked grid worker: one per chunk
        # on the encoder pool, 1 on the calling thread; grid workers, at
        # most one per level, in ``processes``
        import proofmatch.encoders as encoders
        monkeypatch.setattr(forkmap, "_WORKERS", 3)
        small = ["--dim", "8", "--heads", "2", "--dk", "4", "--batch-size",
                 "5", "--epochs", "1", "--quiet"]
        files = [str(corpus_file)] * 3

        def ran(encoder, out):
            """Each run's manifest ``threads`` and ``processes``."""
            runs = [["train", *files[:2], "--encoder", encoder, *small],
                    ["eval", str(out / "model.pmm"), files[0], "--quiet"],
                    ["grid", *files, "--encoder", encoder, "--levels", "full",
                     *small],
                    ["grid", *files, "--encoder", encoder, "--levels",
                     "conservation,full", *small]]
            got = []
            for argv in runs:
                assert main([*argv, "--out-dir", str(out)]) == 0
                manifest = json.loads(
                    (out / f"manifest-{argv[0]}.json").read_text())
                assert "threads" not in manifest["config"]
                assert "processes" not in manifest["config"]
                got.append((manifest["threads"], manifest["processes"]))
            return got

        # documents under the pool's minimum work run on the calling thread
        assert ran("selfattn", tmp_path / "short") == [
            (1, None), (1, None), (1, None), (1, 2)]
        assert ran("pooled", tmp_path / "pooled") == [
            (1, None), (1, None), (1, None), (1, 2)]
        monkeypatch.setattr(encoders, "_MIN_POOL_WORK", 0)
        # the last grid's rows run in its 2 workers, which send back theirs
        assert ran("selfattn", tmp_path / "long") == [
            (3, None), (3, None), (3, None), (3, 2)]
        # a pooled encoder has no attention layers, whatever the work
        assert ran("pooled", tmp_path / "pooled") == [
            (1, None), (1, None), (1, None), (1, 2)]
        out = tmp_path / "other"
        # an input under two chunks' minimum runs in the calling process
        for command in ("split", "ingest", "replace"):
            assert main([command, files[0], "--out-dir", str(out),
                         "--quiet"]) == 0
        for command in ("split", "ingest", "replace"):
            manifest = json.loads(
                (out / f"manifest-{command}.json").read_text())
            assert (manifest["threads"], manifest["processes"]) == (None, None)
        # failed before any map: no model, a model but no corpus, no corpus
        for argv in (["eval", str(tmp_path / "missing.pmm"), files[0]],
                     ["eval", str(tmp_path / "long" / "model.pmm"),
                      str(tmp_path / "missing.tsv")],
                     ["grid", files[0], str(tmp_path / "missing.tsv"),
                      files[0]]):
            assert main([*argv, "--out-dir", str(out), "--quiet"]) == 1
            manifest = json.loads(
                (out / f"manifest-{argv[0]}.json").read_text())
            assert manifest["error"] is not None
            assert (manifest["threads"], manifest["processes"]) == (None, None)

    def test_manifest_records_peak_memory_and_chance(self, tmp_path,
                                                     corpus_file, monkeypatch):
        # every manifest holds this process's peak; train adds its best dev
        # accuracy beside chance, and a grid, ingest or replace on worker
        # processes their peak
        import proofmatch.cli as cli
        monkeypatch.setattr(forkmap, "_WORKERS", 2)
        monkeypatch.setattr(cli, "_MIN_CHUNK_BYTES", 1)
        files = [str(corpus_file)] * 3
        small = ["--dim", "8", "--batch-size", "5", "--epochs", "2",
                 "--eval-every", "1", "--quiet"]
        out = tmp_path / "out"
        assert main(["train", *files[:2], *small, "--out-dir", str(out)]) == 0
        assert main(["grid", *files, "--levels", "conservation,full", *small,
                     "--out-dir", str(out)]) == 0
        for command in ("ingest", "replace"):
            assert main([command, files[0], "--out-dir", str(out),
                         "--quiet"]) == 0
            manifest = json.loads(
                (out / f"manifest-{command}.json").read_text())
            assert manifest["processes"] == 2
            assert manifest["workers_peak_rss_mb"] > 0
        train_m, grid_m = (json.loads((out / f"manifest-{c}.json").read_text())
                           for c in ("train", "grid"))
        best = max(float(line.split("\t")[1]) for line in
                   (out / "model.dev.tsv").read_text().splitlines())
        assert train_m["best_dev_accuracy"] == best > 0
        assert train_m["chance"] == 1 / 10
        assert grid_m["processes"] == 2
        assert grid_m["workers_peak_rss_mb"] > 0
        for manifest in (train_m, grid_m):
            assert manifest["peak_rss_mb"] > 0
            for key in ("peak_rss_mb", "workers_peak_rss_mb",
                        "best_dev_accuracy", "chance"):
                assert key not in manifest["config"]
        assert train_m["workers_peak_rss_mb"] is None
        assert grid_m["best_dev_accuracy"] is grid_m["chance"] is None

    def test_failed_run_manifest_names_the_error(self, tmp_path, corpus_file,
                                                 capsys):
        out = tmp_path / "out"
        missing = tmp_path / "missing.tsv"
        assert main(["train", str(corpus_file), str(missing),
                     "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        manifest = json.loads((out / "manifest-train.json").read_text())
        assert manifest["error"] == err[len("error: "):].rstrip("\n")
        assert str(missing) in manifest["error"]
        assert manifest["inputs"] == {
            str(corpus_file): hashlib.sha256(corpus_file.read_bytes()).hexdigest()}

        assert main(["split", str(corpus_file), "--out-dir", str(out),
                     "--quiet"]) == 0
        assert json.loads(
            (out / "manifest-split.json").read_text())["error"] is None

    def test_unusable_out_dir_is_one_error_line(self, tmp_path, corpus_file,
                                                capsys):
        assert main(["split", str(corpus_file),
                     "--out-dir", str(corpus_file / "sub")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [corpus_file.name]

    def test_config_file_defaults_and_cli_precedence(self, tmp_path, corpus_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 2\ndim = 4\n# comment\nbatch-size = 3\n")
        out = tmp_path / "model"
        main(["train", str(corpus_file), str(corpus_file),
              "--out-dir", str(out), "--dim", "16", "--batch-size", "5",
              "--quiet", "--config", str(cfg)])
        manifest = json.loads((out / "manifest-train.json").read_text())
        # dim and batch-size were explicit flags, epochs came from the file
        assert manifest["config"]["epochs"] == 2
        assert manifest["config"]["dim"] == 16
        assert manifest["config"]["batch_size"] == 5

    @pytest.mark.parametrize("argv", [
        ["train", "{corpus}", "{corpus}", "--epo", "3"],
        ["train", "{corpus}", "{corpus}", "--epochs", "3", "--dim=8", "--bat", "5"],
        ["eval", "{corpus}", "{corpus}", "--dec", "global"],
        ["split", "{corpus}", "--rat", "0.5,0.25,0.25"],
    ])
    def test_abbreviated_flag_is_a_usage_error(self, tmp_path, corpus_file,
                                               capsys, argv):
        # An abbreviation would lose to a config-file value, so argparse
        # must not accept it at all.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 1\n")
        out = tmp_path / "out"
        argv = [a.replace("{corpus}", str(corpus_file)) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(cfg), "--out-dir", str(out), "--quiet"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_casts_by_option_type(self, tmp_path, corpus_file):
        # --k defaults to None, so only the option's declared type gives int
        args, out = train_args(tmp_path, corpus_file)
        main(args)
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("k = 5\n")
        eval_out = tmp_path / "e"
        assert main(["eval", str(out / "model.pmm"), str(corpus_file),
                     "--decode", "global", "--config", str(cfg),
                     "--out-dir", str(eval_out), "--quiet"]) == 0
        assert "k=5\t" in (eval_out / "eval.tsv").read_text()

    def test_channel_math_only(self, tmp_path, corpus_file):
        args, out = train_args(tmp_path, corpus_file,
                               extra=["--channel", "math"])
        assert main(args) == 0

    def test_missing_file_error(self, tmp_path, capsys):
        assert main(["split", str(tmp_path / "nope.tsv"),
                     "--out-dir", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupted_checkpoint_is_one_error_line(self, tmp_path,
                                                    corpus_file, capsys):
        model = tmp_path / "m.pmm"
        save_model(init_model(build_vocab(read_corpus(corpus_file)),
                              EncoderConfig(d=8)), model)
        blob = bytearray(model.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        model.write_bytes(bytes(blob))
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text("no equals sign\n")
        for argv in (["eval", str(model), str(corpus_file)],
                     ["split", str(corpus_file), "--config", str(bad_cfg)]):
            capsys.readouterr()
            assert main(argv + ["--out-dir", str(tmp_path / "e")]) == 1
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1
            assert err.startswith("error: ")
            assert "Traceback" not in err


    @pytest.mark.parametrize("lr, message", [
        ("1e300", "error: non-finite loss on batch "),
        ("1e100", "error: non-finite gradient norm on batch "),
        ("1e50", "error: tensor embeddings has values outside float32's "),
    ])
    def test_diverging_training_is_one_error_line(self, tmp_path, capsys, lr,
                                                  message):
        # hybrid training at 1e300 overflows the global step's in-batch
        # scores; at 1e100 the gradient's sum of squares overflows; at 1e50
        # training ends with parameters float32 cannot hold
        corpus = tmp_path / "letters.tsv"
        write_corpus(letter_corpus(np.random.default_rng(0), 8), corpus)
        out = tmp_path / "t"
        out.mkdir()
        (out / "model.pmm").write_bytes(b"previous")
        argv = ["train", str(corpus), str(corpus), "--objective", "hybrid",
                "--lr", lr, "--epochs", "2", "--batch-size", "4",
                "--eval-every", "2", "--out-dir", str(out), "--quiet"]
        with np.errstate(all="ignore"):
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(message)
        assert (out / "model.pmm").read_bytes() == b"previous"

    @pytest.mark.parametrize("decode", ["local", "global"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_checkpoint_is_one_error_line(self, tmp_path, corpus_file,
                                                     capsys, decode, value):
        state = init_model(build_vocab(read_corpus(corpus_file)),
                           EncoderConfig(d=8))
        state.embeddings[1, 0] = MARKER
        model = tmp_path / "m.pmm"
        save_marker_as(state, model, value)
        capsys.readouterr()
        assert main(["eval", str(model), str(corpus_file), "--decode", decode,
                     "--out-dir", str(tmp_path / "e"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == "error: non-finite values in tensor embeddings\n"
        assert not (tmp_path / "e" / "eval.tsv").exists()

    @pytest.mark.parametrize("decode", [[], ["--decode", "global"],
                                        ["--decode", "global", "--k", "2"]])
    def test_non_finite_scores_are_one_error_line(self, tmp_path, corpus_file,
                                                  capsys, monkeypatch, decode):
        import proofmatch.cli as cli
        model = tmp_path / "m.pmm"
        save_model(init_model(build_vocab(read_corpus(corpus_file)),
                              EncoderConfig(d=8)), model)

        def overflowing(*args):
            m = build_score_matrix(*args)
            m[3, 4] = float("inf")
            return m

        monkeypatch.setattr(cli, "build_score_matrix", overflowing)
        capsys.readouterr()
        assert main(["eval", str(model), str(corpus_file), *decode,
                     "--out-dir", str(tmp_path / "e"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == "error: non-finite scores in 1 of 100 cells\n"
        assert not (tmp_path / "e" / "eval.tsv").exists()

    @pytest.mark.parametrize("message,line", [
        ("Unable to allocate 15.2 PiB for an array",
         "Unable to allocate 15.2 PiB for an array"),
        ("", "out of memory"),
    ])
    def test_an_allocation_failure_is_one_error_line(
            self, tmp_path, corpus_file, capsys, monkeypatch, message, line):
        # injected: a real request that large could be granted by an
        # overcommitting kernel and then killed
        import proofmatch.cli as cli

        def refused(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "init_model", refused)
        out = tmp_path / "t"
        assert main(["train", str(corpus_file), str(corpus_file),
                     "--out-dir", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: {line}\n"
        manifest = json.loads((out / "manifest-train.json").read_text())
        assert manifest["error"] == line
        assert not (out / "model.pmm").exists()

    @pytest.mark.parametrize("case", ["surface", "min_freq"])
    def test_a_vocabulary_no_model_file_stores_fails_before_training(
            self, tmp_path, corpus_file, capsys, monkeypatch, case):
        import proofmatch.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train", never)
        train_file, flags = corpus_file, ["--min-freq", "4294967296"]
        if case == "surface":
            train_file, flags = tmp_path / "long.tsv", []
            train_file.write_bytes(long_word(corpus_file))
        out = tmp_path / "t"
        assert main(["train", str(train_file), str(corpus_file),
                     "--out-dir", str(out), "--quiet", *flags]) == 1
        err = capsys.readouterr().err
        manifest = json.loads((out / "manifest-train.json").read_text())
        assert err == f"error: {manifest['error']}\n"
        assert case in manifest["error"]
        assert ("4294967296" if case == "min_freq" else
                "70000 UTF-8 bytes") in manifest["error"]
        assert list(out.iterdir()) == [out / "manifest-train.json"]


# Each bad value ends `match` in one error line, never a traceback.
BAD_VALUES = {
    "heads_not_dividing_dim": ["train", "{corpus}", "{corpus}",
                               "--encoder", "selfattn", "--dim", "15",
                               "--heads", "2"],
    "unknown_protected_font": ["replace", "{corpus}",
                               "--protected", "{protected}"],
    "double_struck_protected": ["replace", "{corpus}",
                                "--protected", "{dstruck}"],
    "ratios_not_summing_to_one": ["split", "{corpus}",
                                  "--ratios", "0.5,0.5,0.5"],
    "two_ratios": ["split", "{corpus}", "--ratios", "0.5,0.5"],
    "ratio_not_a_number": ["split", "{corpus}", "--ratios", "0.8,a,0.1"],
    "alpha_above_one": ["replace", "{corpus}", "--level", "partial",
                        "--alpha", "2"],
    "batch_of_one": ["train", "{corpus}", "{corpus}", "--batch-size", "1"],
    "zero_lr": ["train", "{corpus}", "{corpus}", "--lr", "0"],
    "zero_eval_every": ["train", "{corpus}", "{corpus}", "--eval-every", "0"],
    "zero_min_freq": ["vocab", "{corpus}", "--min-freq", "0"],
    "zero_dim": ["train", "{corpus}", "{corpus}", "--dim", "0"],
    "negative_layers": ["train", "{corpus}", "{corpus}", "--encoder",
                        "selfattn", "--dim", "8", "--layers", "-1"],
    "zero_dk": ["train", "{corpus}", "{corpus}", "--encoder", "selfattn",
                "--dim", "8", "--dk", "0"],
    "duplicate_pair_id": ["split", "{duplicated}"],
    "space_in_token": ["vocab", "{spaced}"],
    "unknown_grid_level": ["grid", "{corpus}", "{corpus}", "{corpus}",
                           "--levels", "full,bogus"],
    "config_value_outside_choices": ["train", "{corpus}", "{corpus}",
                                     "--config", "{bad_choice}"],
    "zero_epochs": ["train", "{corpus}", "{corpus}", "--epochs", "0"],
    "non_utf8_corpus": ["split", "{non_utf8}"],
    "corpus_is_a_directory": ["split", "{directory}"],
    "out_dir_is_a_file": ["split", "{corpus}", "--out-dir", "{corpus}"],
    "non_utf8_config": ["train", "{corpus}", "{corpus}",
                        "--config", "{non_utf8}"],
    "non_utf8_protected": ["replace", "{corpus}", "--protected", "{non_utf8}"],
    "config_names_a_positional": ["split", "{corpus}", "--config",
                                  "{positional}"],
    "unknown_config_key": ["split", "{corpus}", "--config", "{typo}"],
    "optimizer_config_key": ["train", "{corpus}", "{corpus}", "--config",
                             "{optimizer}"],
    "config_bool_not_a_bool": ["split", "{corpus}", "--config", "{not_bool}"],
    "repeated_grid_level": ["grid", "{corpus}", "{corpus}", "{corpus}",
                            "--levels", "full,partial,full"],
    "k_with_local_decode": ["eval", "{model}", "{corpus}", "--decode", "local",
                            "--k", "5"],
    "four_field_line": ["split", "{four_fields}"],
    "four_field_dev_corpus": ["train", "{corpus}", "{four_fields}"],
    "unknown_protected_font_in_grid": ["grid", "{corpus}", "{corpus}",
                                       "{corpus}", "--protected",
                                       "{protected}"],
    "negative_split_seed": ["split", "{corpus}", "--seed", "-1"],
    "negative_train_seed": ["train", "{corpus}", "{corpus}", "--seed", "-1"],
    "negative_grid_seed": ["grid", "{corpus}", "{corpus}", "{corpus}",
                           "--seed", "-1"],
    "negative_replace_seed": ["replace", "{corpus}", "--seed", "-1"],
    "huge_split_seed": ["split", "{corpus}", "--seed", "18446744073709551616"],
    "huge_replace_seed": ["replace", "{corpus}", "--seed",
                          "18446744073709551616"],
    "huge_train_seed": ["train", "{corpus}", "{corpus}", "--seed",
                        "18446744073709551616"],
    "huge_grid_seed": ["grid", "{corpus}", "{corpus}", "{corpus}",
                       "--seed", "18446744073709551616"],
    "nan_middle_ratio": ["split", "{corpus}", "--ratios", "0.5,nan,0.5"],
    "nan_first_ratio": ["split", "{corpus}", "--ratios", "nan,0.5,0.5"],
    "nan_ratio_unmixed": ["split", "{corpus}", "--mode", "unmixed",
                          "--ratios", "nan,0.5,0.5"],
    "nan_lr": ["train", "{corpus}", "{corpus}", "--lr", "nan"],
    "infinite_lr": ["train", "{corpus}", "{corpus}", "--lr", "inf"],
    "one_train_pair": ["train", "{one_pair}", "{corpus}"],
    "one_train_pair_in_grid": ["grid", "{one_pair}", "{corpus}", "{corpus}"],
    # a pooled model ignores d_k, heads and layers, but its file stores them
    "dk_past_checkpoint_field": ["train", "{corpus}", "{corpus}",
                                 "--dk", "5000000000"],
    "heads_past_checkpoint_field": ["train", "{corpus}", "{corpus}",
                                    "--heads", "5000000000"],
    "layers_past_checkpoint_field_in_grid": ["grid", "{corpus}", "{corpus}",
                                             "{corpus}", "--layers",
                                             "5000000000"],
    "min_freq_past_checkpoint_field_in_vocab": ["vocab", "{corpus}",
                                                "--min-freq", "4294967296"],
    "min_freq_past_checkpoint_field_in_grid": ["grid", "{corpus}", "{corpus}",
                                               "{corpus}", "--min-freq",
                                               "4294967296"],
    "surface_past_checkpoint_field_in_vocab": ["vocab", "{long_word}"],
    "surface_past_checkpoint_field_in_grid": ["grid", "{long_word}",
                                              "{corpus}", "{corpus}"],
    "unk_not_first_in_model": ["eval", "{unk_not_first}", "{corpus}"],
    "no_vocabulary_in_model": ["eval", "{no_vocabulary}", "{corpus}"],
}

# What the error line of a BAD_VALUES case must name.
NAMED_IN_ERROR = {
    "unknown_config_key": ["{typo}:", "epohcs"],
    "optimizer_config_key": ["{optimizer}: no subcommand takes optimizer"],
    "config_bool_not_a_bool": ["{not_bool}:", "quiet", "ture"],
    "repeated_grid_level": ["['full']"],
    "double_struck_protected": ["{dstruck}: line 2,", "R#dstruck"],
    "k_with_local_decode": ["--k", "global"],
    "four_field_line": ["{four_fields}: line 1,",
                        "expected 5 tab-separated fields, got 4"],
    "four_field_dev_corpus": [
        "{four_fields}: line 1, col 0: expected 5 tab-separated fields, got 4"],
    "unknown_protected_font_in_grid": [
        "{protected}: line 2, col 0: unknown font sigil 'zz'"],
    "negative_split_seed": ["seed", "-1"],
    "negative_train_seed": ["seed", "-1"],
    "negative_grid_seed": ["seed", "-1"],
    "negative_replace_seed": ["seed", "-1"],
    "huge_split_seed": ["seed", "18446744073709551616"],
    "huge_replace_seed": ["seed", "18446744073709551616"],
    "huge_train_seed": ["seed", "18446744073709551616"],
    "huge_grid_seed": ["seed", "18446744073709551616"],
    "nan_lr": ["lr", "nan"],
    "infinite_lr": ["lr", "inf"],
    "one_train_pair": ["at least 2 pairs"],
    "one_train_pair_in_grid": ["at least 2 pairs"],
    "dk_past_checkpoint_field": ["d_k=5000000000", "4294967295"],
    "heads_past_checkpoint_field": ["heads=5000000000", "4294967295"],
    "layers_past_checkpoint_field_in_grid": ["layers=5000000000",
                                             "4294967295"],
    **{f"min_freq_past_checkpoint_field_in_{command}": ["min_freq",
                                                        "4294967296"]
       for command in ("vocab", "grid")},
    **{f"surface_past_checkpoint_field_in_{command}": ["70000 UTF-8 bytes",
                                                       "65535"]
       for command in ("vocab", "grid")},
    "unk_not_first_in_model": ["malformed model body", "UNK entry, at id 0"],
    "no_vocabulary_in_model": ["malformed model body", "UNK entry, at id 0"],
}


def long_word(corpus_file) -> bytes:
    """The corpus with a 70000-byte word added to its first proof."""
    return corpus_file.read_bytes().replace(
        b"\n", b" t:" + b"x" * 70000 + b"\n", 1)


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_value_is_one_error_line(tmp_path, corpus_file, capsys, case):
    pair = format_record(separable_corpus(1).pairs[0]).encode()
    files = {"corpus": corpus_file, "directory": tmp_path,
             "model": tmp_path / "model.pmm"}
    save_model(init_model(build_vocab(read_corpus(corpus_file)),
                          EncoderConfig(d=4), 0), files["model"])
    for name, data in (("protected", b"P\nx#zz\n"),
                       ("dstruck", b"P\nR#dstruck\n"),
                       ("one_pair", pair + b"\n"),
                       ("duplicated", pair + b"\n" + pair + b"\n"),
                       ("spaced", pair + b" t:a%20b\n"),
                       ("bad_choice", b"encoder = tfidf\n"),
                       ("non_utf8", b"# a comment\r\n\xff\n"),
                       ("positional", f"corpus = {corpus_file}\n".encode()),
                       ("typo", b"ratios = 0.5,0.25,0.25\nepohcs = 3\n"),
                       ("optimizer", b"optimizer = sgd\n"),
                       ("not_bool", b"epochs = 3\nquiet = ture\n"),
                       ("four_fields", b"p1\ta1\tt:x\tt:y\n"),
                       ("long_word", long_word(corpus_file))):
        files[name] = tmp_path / name
        files[name].write_bytes(data)
    for name, entries in (("unk_not_first", [TEXT_A_ENTRY, UNK_ENTRY]),
                          ("no_vocabulary", [])):
        files[name] = tmp_path / name
        write_pooled_model(files[name], entries)
    command, *rest = [arg.format(**files) for arg in BAD_VALUES[case]]
    # a case's own --out-dir comes later and wins
    assert main([command, "--out-dir", str(tmp_path / "o"), *rest]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not list(tmp_path.glob("o/*.train.tsv"))  # no split was written
    if case.startswith("non_utf8"):  # the bad byte is on line 2
        assert f"{files['non_utf8']}:2:" in err
    for name in NAMED_IN_ERROR.get(case, []):
        assert name.format(**files) in err


OUT_DIR_IS_A_FILE = {
    "train": (["{corpus}", "{corpus}"], "train"),
    "grid": (["{corpus}", "{corpus}", "{corpus}"], "run_grid"),
    "split": (["{corpus}"], "split_corpus"),
    "replace": (["{corpus}"], "replace_pairs"),
    "eval": (["{model}", "{corpus}"], "build_score_matrix"),
}


@pytest.mark.parametrize("command", sorted(OUT_DIR_IS_A_FILE))
def test_out_dir_is_checked_before_the_work(tmp_path, corpus_file, capsys,
                                            monkeypatch, command):
    import proofmatch.cli as cli
    model = tmp_path / "model.pmm"
    save_model(init_model(build_vocab(read_corpus(corpus_file)),
                          EncoderConfig(d=4), 0), model)
    args, work = OUT_DIR_IS_A_FILE[command]

    def never(*args, **kwargs):
        raise AssertionError(f"{work} ran although --out-dir is a file")

    monkeypatch.setattr(cli, work, never)
    argv = [a.format(corpus=corpus_file, model=model) for a in args]
    assert main([command, *argv, "--out-dir", str(corpus_file)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("levels", ["full,bogus", "full,partial,full"])
def test_grid_levels_are_checked_before_the_corpora_are_read(
        tmp_path, corpus_file, capsys, monkeypatch, levels):
    import proofmatch.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("read_corpus ran although --levels is bad")

    monkeypatch.setattr(cli, "read_corpus", never)
    assert main(["grid", *[str(corpus_file)] * 3, "--levels", levels,
                 "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["train", "{corpus}", "{corpus}", "--dim", "0"],
    ["train", "{corpus}", "{corpus}", "--lr", "nan"],
    ["grid", "{corpus}", "{corpus}", "{corpus}", "--epochs", "0"],
    ["train", "{corpus}", "{corpus}", "--dk", "5000000000"],
], ids=["train_dim", "train_lr", "grid_epochs", "train_dk"])
def test_configs_are_checked_before_the_corpora_are_read(
        tmp_path, corpus_file, capsys, monkeypatch, argv):
    import proofmatch.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("read_corpus ran although a config value is bad")

    monkeypatch.setattr(cli, "read_corpus", never)
    assert main([a.format(corpus=corpus_file) for a in argv]
                + ["--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_config_options_default_to_the_library_types():
    """Each option that sets a field of a library type has that field's
    default, of the field's type, so the default is stated once."""
    enc, tr, spec = EncoderConfig(), TrainConfig(), SplitSpec()
    min_freq = inspect.signature(build_vocab).parameters["min_freq"].default
    alpha = ReplacementLevel(Level.PARTIAL).alpha
    model = {"encoder": enc.kind.value, "dim": enc.d, "layers": enc.layers,
             "heads": enc.heads, "dk": enc.d_k, "pooling": enc.pooling.value,
             "min_freq": min_freq, "objective": tr.objective.value,
             "batch_size": tr.batch_size, "epochs": tr.epochs, "lr": tr.lr,
             "lr_decay": tr.lr_decay,
             "eval_every": tr.eval_every, "seed": tr.seed}
    expected = {
        "split": {"mode": spec.mode.value,
                  "ratios": ",".join(map(str, spec.ratios)), "seed": spec.seed},
        "replace": {"alpha": alpha},
        "vocab": {"min_freq": min_freq},
        "train": model,
        "grid": {**model, "alpha": alpha,
                 "levels": ",".join(level.value for level in Level)},
    }
    _, tables = build_parser()
    for command, defaults in expected.items():
        got = {dest: tables[command][dest].default for dest in defaults}
        assert got == defaults, command
        assert ({dest: type(v) for dest, v in got.items()}
                == {dest: type(v) for dest, v in defaults.items()}), command
    # an option's type is its default's, so a float field needs a float
    for config_type in (EncoderConfig, TrainConfig, SplitSpec,
                        ReplacementLevel, Vocabulary):
        kinds = typing.get_type_hints(config_type)
        for f in dataclasses.fields(config_type):
            if f.default is not dataclasses.MISSING and isinstance(
                    kinds[f.name], type):
                assert type(f.default) is kinds[f.name], f.name


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=40))
def test_any_protected_file_runs_or_is_one_error_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_corpus(separable_corpus(4), tmp / "corpus.tsv")
        (tmp / "protected").write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["replace", str(tmp / "corpus.tsv"), "--protected",
                         str(tmp / "protected"), "--out-dir", str(tmp),
                         "--quiet"])
    assert code in (0, 1)
    if code == 1:
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")


REMOVED_FLAGS = [("ingest", "--seed"), ("ingest", "--channel"),
                 ("split", "--channel"), ("replace", "--channel"),
                 ("vocab", "--seed"), ("eval", "--seed")]


@pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
def test_subcommand_rejects_an_option_it_would_ignore(tmp_path, corpus_file,
                                                       capsys, command, flag):
    inputs = [str(corpus_file)] * (2 if command == "eval" else 1)
    value = "1" if flag == "--seed" else "math"
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, flag, value, "--out-dir", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_skips_other_subcommands_keys(tmp_path, corpus_file,
                                                  capsys):
    # one file serves the whole pipeline: split takes seed and quiet, and
    # skips the training keys
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("epochs = 3\nencoder = selfattn\nseed = 1\nquiet = yes\n")
    out = tmp_path / "out"
    assert main(["split", str(corpus_file), "--config", str(cfg),
                 "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out == ""
    config = json.loads((out / "manifest-split.json").read_text())["config"]
    assert config["seed"] == 1 and config["quiet"] is True
    assert "epochs" not in config and "encoder" not in config


def test_config_line_without_equals_is_one_error_line(tmp_path, corpus_file,
                                                     capsys):
    cfg = tmp_path / "split.cfg"
    cfg.write_text("# defaults\nseed = 1\nquiet yes\n")
    out = tmp_path / "out"
    assert main(["split", str(corpus_file), "--config", str(cfg),
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:3: expected key = value\n"
    assert not list(out.glob("*.train.tsv"))


def test_eval_writes_the_assignment_histogram_under_local_decoding(
        tmp_path, corpus_file):
    model = tmp_path / "model.pmm"
    save_model(init_model(build_vocab(read_corpus(corpus_file)),
                          EncoderConfig(d=4), 0), model)
    local, glob = tmp_path / "local", tmp_path / "global"
    assert main(["eval", str(model), str(corpus_file),
                 "--out-dir", str(local), "--quiet"]) == 0
    pairs = read_corpus(corpus_file).pairs
    m = build_score_matrix(load_model(model), [p.statement for p in pairs],
                           [p.proof for p in pairs])
    rows = assignment_distribution(decode_local(m))
    assert (local / "assign.tsv").read_text().splitlines() == [
        f"{label}\t{count}\t{percent:.2f}" for label, count, percent in rows]
    assert main(["eval", str(model), str(corpus_file), "--decode", "global",
                 "--out-dir", str(glob), "--quiet"]) == 0
    assert (glob / "eval.tsv").is_file()
    assert not (glob / "assign.tsv").exists()


@pytest.mark.parametrize("decode", [[], ["--decode", "global"]],
                         ids=["local", "global"])
def test_a_forked_eval_records_its_processes(tmp_path, corpus_file,
                                             monkeypatch, decode):
    # the same outputs from the calling process alone and from it with one
    # forked encode worker, whose processes and peak only the latter records
    model = tmp_path / "model.pmm"
    save_model(init_model(build_vocab(read_corpus(corpus_file)),
                          EncoderConfig(d=4), 0), model)
    monkeypatch.setattr(forkmap, "_WORKERS", 2)
    runs = {}
    for forked in (False, True):
        if forked:
            monkeypatch.setattr(decoding, "_MIN_FORK_TOKENS", 1)
        out = tmp_path / str(forked)
        assert main(["eval", str(model), str(corpus_file), *decode,
                     "--out-dir", str(out), "--quiet"]) == 0
        assert_no_child_left()
        manifest = json.loads((out / "manifest-eval.json").read_text())
        runs[forked] = {path.name: path.read_bytes()
                        for path in out.glob("*.tsv")}
        assert manifest["processes"] == (2 if forked else None)
        peak = manifest["workers_peak_rss_mb"]
        assert peak > 0 if forked else peak is None
    assert runs[True] == runs[False] and "eval.tsv" in runs[True]


def test_a_dead_encode_worker_is_one_error_line(tmp_path, corpus_file,
                                                monkeypatch, capsys):
    model = tmp_path / "model.pmm"
    save_model(init_model(build_vocab(read_corpus(corpus_file)),
                          EncoderConfig(d=4), 0), model)
    caller, real = os.getpid(), decoding.encode_collection

    def die_in_a_worker(state, ids):
        if os.getpid() != caller:
            os._exit(1)
        return real(state, ids)

    monkeypatch.setattr(decoding, "encode_collection", die_in_a_worker)
    monkeypatch.setattr(decoding, "_MIN_FORK_TOKENS", 1)
    monkeypatch.setattr(forkmap, "_WORKERS", 2)
    assert main(["eval", str(model), str(corpus_file),
                 "--out-dir", str(tmp_path / "e"), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "error: an encode worker process ended before returning its vectors\n")
    assert_no_child_left()
    assert not (tmp_path / "e" / "eval.tsv").exists()


def test_global_eval_removes_a_local_runs_histogram(tmp_path, corpus_file):
    model = tmp_path / "model.pmm"
    save_model(init_model(build_vocab(read_corpus(corpus_file)),
                          EncoderConfig(d=4), 0), model)
    out = tmp_path / "eval"
    assert main(["eval", str(model), str(corpus_file),
                 "--out-dir", str(out), "--quiet"]) == 0
    assert (out / "assign.tsv").is_file()
    assert main(["eval", str(model), str(corpus_file), "--decode", "global",
                 "--out-dir", str(out), "--quiet"]) == 0
    assert (out / "eval.tsv").read_text().startswith("decode=global")
    assert not (out / "assign.tsv").exists()


# The commands that encode a corpus, each reading the corpus below in the
# place of one of its corpora.
EMPTY_DOCUMENT = {
    "train": ["train", "{gappy}", "{corpus}", "--dim", "8", "--epochs", "2"],
    "eval": ["eval", "{model}", "{gappy}"],
    "grid": ["grid", "{corpus}", "{corpus}", "{gappy}", "--levels", "full",
             "--dim", "8", "--epochs", "2"],
}


@pytest.mark.parametrize("channel,named", [
    ("math", "pair pair3 has no math tokens in its statement"),
    ("both", "pair pair5 has no tokens in its proof"),
], ids=["math", "both"])
@pytest.mark.parametrize("command", sorted(EMPTY_DOCUMENT))
def test_empty_document_is_named_in_one_error_line(tmp_path, corpus_file,
                                                   capsys, command, channel,
                                                   named):
    pairs = separable_corpus(10).pairs
    pairs[3].statement = [text_token("let")] * 20
    pairs[5].proof = []
    gappy, model = tmp_path / "gappy.tsv", tmp_path / "model.pmm"
    write_corpus(Corpus(pairs), gappy)
    save_model(init_model(build_vocab(read_corpus(corpus_file)),
                          EncoderConfig(d=4), 0), model)
    args = [arg.format(gappy=gappy, corpus=corpus_file, model=model)
            for arg in EMPTY_DOCUMENT[command]]
    assert main([*args, "--channel", channel,
                 "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {gappy}: {named}\n"
    # vocab encodes no document, so it takes these pairs
    assert main(["vocab", str(gappy), "--channel", channel,
                 "--out-dir", str(tmp_path / "v"), "--quiet"]) == 0


class TestGrid:
    def test_grid_outputs(self, tmp_path, corpus_file):
        out = tmp_path / "g"
        assert main(["grid", str(corpus_file), str(corpus_file),
                     str(corpus_file), "--levels", "conservation,full",
                     "--dim", "8", "--batch-size", "5", "--epochs", "10",
                     "--eval-every", "10", "--out-dir", str(out),
                     "--quiet"]) == 0
        records = (out / "grid.tsv").read_text().splitlines()
        assert len(records) == 4
        text = (out / "grid.txt").read_text()
        assert "conservation" in text and "full" in text


# Repeated and distinct MathML items, fonts, case variants, constants,
# multi-letter and double-struck symbols, and percent escapes.
PINNED_FRAGMENTS = (
    "<math><msub><mi>a</mi><mi>n</mi></msub><mo>=</mo><mi>A</mi></math>",
    "<math><mi mathvariant=\"bold\">x</mi><mo>+</mo>"
    "<mi mathvariant=\"double-struck\">R</mi><mtext>for all</mtext></math>",
    "<math><mi>π</mi><mi>e</mi><mi>sin</mi><mi mathvariant=\"fraktur\">g</mi></math>",
    "<math><mrow><mi>λ</mi><mo>%</mo><mi>Λ</mi>"
    "<mi mathvariant=\"script\">b</mi></mrow></math>",
)


def pinned_raw_text():
    xs = ["x:" + _escape(f) for f in PINNED_FRAGMENTS]
    lines = ["# pinned raw records",
             "short\tart0\tmath.NT\tm:a t:b\tm:a"]  # rejected as too short
    for i in range(8):
        letters = "abcdefgh"[i:] + "abcdefgh"[:i]
        statement = ([f"m:{c}" for c in letters[:4]]
                     + ["t:a%25b", "m:X", xs[i % 4], "m:x#bold", "t:x%3Ay",
                        xs[(i + 1) % 4]] + ["t:so"] * 10)
        proof = ([f"m:{c.upper() if j % 2 else c}"
                  for j, c in enumerate(letters[2:7])]
                 + [xs[i % 4], "m:y#italic", "m:ℝ", "m:R#dstruck", "m:π",
                    "m:e", "m:sin", "t:%2C", "m:%23#fraktur", "m:Α", "m:α"]
                 + ["t:hence"] * 8)
        lines.append("\t".join([f"p{i}", f"art{i % 4}", "math.NT",
                                " ".join(statement), " ".join(proof)]))
    return "\n".join(lines) + "\n"


PINNED_OUTPUTS = {
    "raw.tsv": "d0746796334ef5022077f212e825e3c4c924c169b6cb9503734212015d63e644",
    "corpus.tsv": "b4bff9d207b5ebc5fc38e7c158a1e230a9b8bdacb328656b15ed9e06c1f1cbb2",
    "corpus.train.tsv": "a56c5366244cb82be61ac2e5ff2cc9601abe1b566ecc1aa2b9bd4d1fe8abd3cb",
    "corpus.dev.tsv": "5a92f29fcef630b11ab3dff0cab6fc25754e5762eea4227730dd9d3b9fe9e7e2",
    "corpus.test.tsv": "210df7572793981bd028d8d9fd301841ed8484e202f8e4971d279687490923a1",
    # conservation renames nothing, so its output is the ingested corpus
    "replaced-conservation.tsv":
        "b4bff9d207b5ebc5fc38e7c158a1e230a9b8bdacb328656b15ed9e06c1f1cbb2",
    "replaced-partial.tsv":
        "72fe3bdcb4bc897c00ab837e8ccc26db3558d0d96083368ce3da81434d920d63",
    "replaced-full.tsv":
        "12c70ecfd4d2ea57150234717d6291b60ee353e3793c76891f30be27e8c190bf",
    "replaced-transposition.tsv":
        "b16062159d93645ed093e3fd2f39746eaf705084f561bede61df171642987add",
}


def test_pinned_text_outputs(tmp_path):
    raw = tmp_path / "raw.tsv"
    raw.write_text(pinned_raw_text(), encoding="utf-8")
    out = tmp_path / "out"
    common = ["--out-dir", str(out), "--quiet"]
    assert main(["ingest", str(raw), *common]) == 0
    corpus = str(out / "corpus.tsv")
    assert main(["split", corpus, "--mode", "unmixed", "--seed", "3",
                 "--ratios", "0.5,0.25,0.25", *common]) == 0
    for level in ("conservation", "partial", "full", "transposition"):
        assert main(["replace", corpus, "--level", level, "--seed", "5",
                     "--output", f"replaced-{level}.tsv", *common]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (raw, *out.glob("*.tsv"))}
    assert digests == PINNED_OUTPUTS


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str, *args) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports proofmatch from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


CORPUS_COMMANDS = """
import json, sys
from proofmatch.cli import main

def lazy_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "multiprocessing")
                  or m == "concurrent.futures.process")

raw, corpus, out = sys.argv[1:]
on_import = lazy_modules()
common = ["--out-dir", out, "--quiet"]
codes = [main(["ingest", raw, *common]), main(["split", corpus, *common]),
         main(["replace", corpus, "--level", "full", *common]),
         main(["vocab", corpus, *common])]
print(json.dumps([on_import, codes, lazy_modules()]))
"""


def test_import_and_corpus_commands_load_no_scipy(tmp_path, corpus_file):
    # scipy is imported where an assignment is solved, and the process pool
    # where a grid starts or a corpus command's input fills two chunks, so
    # importing the CLI and the corpus commands on a small input never pay
    # for them
    raw = tmp_path / "raw.tsv"
    write_raw(raw, [raw_line("keep1"), raw_line("keep2")])
    run = run_python(CORPUS_COMMANDS, raw, corpus_file, tmp_path / "out")
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [[], [0, 0, 0, 0], []]


LOCAL_TRAIN = """
import json, sys
from proofmatch.cli import main

corpus, encoder, out = sys.argv[1:]
code = main(["train", corpus, corpus, "--encoder", encoder, "--objective",
             "local", "--dim", "8", "--dk", "4", "--batch-size", "5",
             "--epochs", "2", "--eval-every", "1", "--out-dir", out,
             "--quiet"])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.split(".")[0] == "scipy")]))
"""


@pytest.mark.parametrize("encoder", ["pooled", "selfattn"])
def test_local_training_loads_no_scipy(tmp_path, corpus_file, encoder):
    # the local loss takes its log-sum-exp in numpy, and local decoding
    # solves no assignment
    run = run_python(LOCAL_TRAIN, corpus_file, encoder, tmp_path / "out")
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [0, []]


def long_letter_corpus(path: Path) -> Path:
    """A letter corpus whose documents repeat 8 times, at ``path``."""
    letters = letter_corpus(np.random.default_rng(0), 8)
    write_corpus(Corpus([PairRecord(p.pair_id, p.article_id, [],
                                    p.statement * 8, p.proof * 8)
                         for p in letters.pairs]), path)
    return path


# ``match`` with the usable core count set to argv[1]
MAIN_ON_CORES = """
import sys
from proofmatch import forkmap
from proofmatch.cli import main
forkmap._WORKERS = int(sys.argv[1])
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("command", ["train", "grid"])
@pytest.mark.parametrize("encoder", ["pooled", "selfattn"])
@pytest.mark.parametrize("lr", ["1e300", "1e100"])
def test_diverging_training_prints_no_warnings(tmp_path, command, encoder, lr):
    # stderr is the error line alone, also from documents long enough (80
    # tokens at d=64) to be encoded on the self-attentive encoder's pool,
    # and from a grid whose rows run in worker processes: its line is the
    # line of the grid run in the calling process
    corpus = long_letter_corpus(tmp_path / "long.tsv")
    inputs = [corpus] * (2 if command == "train" else 3)
    levels = [] if command == "train" else ["--levels", "conservation,full"]
    lines = []
    for cores in (2, 1):
        run = run_python(
            MAIN_ON_CORES, cores, command, *inputs, *levels, "--encoder",
            encoder, "--objective", "hybrid", "--lr", lr,
            "--epochs", "2", "--batch-size", "4", "--out-dir", tmp_path / "t",
            "--quiet")
        assert run.returncode == 1
        assert len(run.stderr.splitlines()) == 1, run.stderr
        assert run.stderr.startswith("error: non-finite ")
        lines.append(run.stderr)
    assert lines[0] == lines[1]


def test_a_grid_that_fails_in_its_workers_records_them(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.setattr(forkmap, "_WORKERS", 2)
    corpus = str(long_letter_corpus(tmp_path / "long.tsv"))
    out = tmp_path / "out"
    assert main(["grid", corpus, corpus, corpus, "--levels", "conservation,full",
                 "--objective", "hybrid", "--lr", "1e100", "--epochs", "2",
                 "--batch-size", "4", "--out-dir", str(out), "--quiet"]) == 1
    assert_no_child_left()
    err = capsys.readouterr().err
    manifest = json.loads((out / "manifest-grid.json").read_text())
    assert err == f"error: {manifest['error']}\n"
    assert manifest["error"].startswith("non-finite ")
    assert manifest["processes"] == 2
    assert manifest["workers_peak_rss_mb"] > 0


# ``match`` on 2 cores, with any input cut into chunks and any collection
# encoded in them, in a process that has first reaped a child that touched
# argv[1] MiB. Prints the exit code, the manifest's ``processes`` and
# ``workers_peak_rss_mb``, and the largest peak of the reaped children.
FORKED_RUN = """
import json, os, resource, sys
from pathlib import Path
import numpy as np
from proofmatch import cli, decoding, forkmap
forkmap._WORKERS = 2
cli._MIN_CHUNK_BYTES = decoding._MIN_FORK_TOKENS = 1
touched, out, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
if touched:
    pid = os.fork()
    if pid == 0:
        np.ones(touched << 17)  # 8 bytes a cell
        os._exit(0)
    os.waitpid(pid, 0)
code = cli.main([*argv, "--out-dir", out, "--quiet"])
manifest = json.loads((Path(out) / f"manifest-{argv[0]}.json").read_text())
children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(json.dumps([code, manifest["processes"], manifest["workers_peak_rss_mb"],
                  children]))
"""


def forked_runs(tmp_path, corpus_file) -> dict[str, list[str]]:
    """The arguments of an ingest, a grid and an eval that fork 2 processes
    under ``FORKED_RUN``."""
    raw = tmp_path / "raw.tsv"
    write_raw(raw, [raw_line(f"p{i}") for i in range(20)])
    model = tmp_path / "model.pmm"
    save_model(init_model(build_vocab(read_corpus(corpus_file)),
                          EncoderConfig(d=4), 0), model)
    files = [str(corpus_file)] * 3
    return {"ingest": ["ingest", str(raw)],
            "grid": ["grid", *files, "--levels", "conservation,full",
                     "--dim", "8", "--batch-size", "5", "--epochs", "2",
                     "--eval-every", "1"],
            "eval": ["eval", str(model), files[0]]}


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
@pytest.mark.parametrize("command", ["ingest", "grid", "eval"])
def test_workers_peak_is_the_peak_of_the_workers_reaped(tmp_path, corpus_file,
                                                        command):
    argv = forked_runs(tmp_path, corpus_file)[command]
    run = run_python(FORKED_RUN, 0, tmp_path / "out", *argv)
    assert run.returncode == 0, run.stderr
    code, processes, peak, children = json.loads(run.stdout)
    assert (code, processes) == (0, 2)
    assert abs(peak - children) <= 1


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
def test_workers_peak_leaves_out_children_reaped_before(tmp_path, corpus_file):
    argv = forked_runs(tmp_path, corpus_file)["grid"]
    run = run_python(FORKED_RUN, 400, tmp_path / "out", *argv)
    assert run.returncode == 0, run.stderr
    code, processes, peak, children = json.loads(run.stdout)
    assert (code, processes) == (0, 2)
    assert peak < 400 <= children


def test_help_states_every_default(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    assert (f"sets TrainConfig.lr (default: {TrainConfig.lr})"
            in " ".join(capsys.readouterr().out.split()))
    _, tables = build_parser()
    for command, actions in tables.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        options = [a for a in actions.values() if a.option_strings]
        assert capsys.readouterr().out.count("(default:") == len(options), command
