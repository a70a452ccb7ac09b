"""``match ingest`` and ``match replace`` in line chunks on forked workers:
the same output bytes, the same error line and no part file left, for any
chunk count."""

import hashlib
import json
import multiprocessing
import os
import tempfile
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import proofmatch.cli as cli
import proofmatch.corpus as corpus_module
from proofmatch import encoders
from proofmatch.cli import main
from proofmatch.corpus import _escape, format_record, numbered_lines
from proofmatch.symbols import Level
from conftest import letter_corpus

COUNTS = (1, 2, 3)
LEVELS = [level.value for level in Level]
MATHML = ('<math><msub><mi>a</mi><mi mathvariant="bold">b</mi></msub>'
          '<mtext>holds</mtext></math>')


def raw_lines(n=12) -> list[str]:
    """Raw records with letters that replacement renames, MathML items,
    records too short and too long, comment and blank lines, and
    multibyte characters at both ends of each record, so that the cuts
    fall next to each kind of line."""
    lines = ["# raw records"]
    for i, p in enumerate(letter_corpus(np.random.default_rng(4), n).pairs):
        statement = p.statement * (60 if i % 7 == 3 else 3)
        proof = p.proof[:5] if i % 5 == 1 else p.proof * 3
        record = format_record(dc_replace(p, pair_id=f"∑{i}", statement=statement,
                                          proof=proof))
        lines.append(record + " x:" + _escape(MATHML) + " t:é")
        if i % 3 == 2:
            lines += ["", "# a comment"]
    return lines


def write_raw(path: Path, lines: list[str], newlines=("\n",)) -> Path:
    """``lines`` in ``path``, each ended by the next of ``newlines`` in turn."""
    path.write_bytes("".join(line + newlines[i % len(newlines)]
                             for i, line in enumerate(lines)).encode("utf-8"))
    return path


@pytest.fixture
def run(tmp_path, monkeypatch, capsys):
    """``run(argv, n)``: ``match argv`` with its input cut into ``n`` chunks
    however small it is. Returns the exit code, stderr and the manifest,
    after checking that the out dir holds only the output and the
    manifest."""
    def run_in(argv: list[str], n: int, output: str):
        monkeypatch.setattr(cli, "_MIN_CHUNK_BYTES", 1)
        monkeypatch.setattr(encoders, "_WORKERS", n)
        out = tmp_path / f"{argv[0]}-{n}"
        code = main([*argv, "--out-dir", str(out), "--output", output, "--quiet"])
        err = capsys.readouterr().err
        manifest = f"manifest-{argv[0]}.json"
        assert set(os.listdir(out)) <= {output, manifest}  # no part file left
        assert multiprocessing.active_children() == []
        return code, err, json.loads((out / manifest).read_text())
    return run_in


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("newlines", [("\n",), ("\n", "\r", "\r\n")],
                         ids=["lf", "mixed"])
def test_outputs_are_the_same_bytes_for_any_chunk_count(tmp_path, run,
                                                        newlines):
    raw = write_raw(tmp_path / "raw.tsv", raw_lines(), newlines)
    digests = {}
    for n in COUNTS:
        code, err, manifest = run(["ingest", str(raw)], n, "corpus.tsv")
        assert (code, err) == (0, "")
        assert manifest["processes"] == (None if n == 1 else n)
        assert (manifest["workers_peak_rss_mb"] is None) == (n == 1)
        corpus = tmp_path / f"ingest-{n}" / "corpus.tsv"
        digests.setdefault("ingest", set()).add(sha256(corpus))
        for level in LEVELS:
            code, err, manifest = run(
                ["replace", str(corpus), "--level", level], n, "replaced.tsv")
            assert (code, err) == (0, "")
            assert manifest["processes"] == (None if n == 1 else n)
            digests.setdefault(level, set()).add(
                sha256(tmp_path / f"replace-{n}" / "replaced.tsv"))
    assert all(len(d) == 1 for d in digests.values()), digests
    # every level but conservation renames
    assert len(set().union(*digests.values())) == 1 + len(LEVELS) - 1


def test_a_cut_after_any_line_gives_the_same_bytes(tmp_path, run,
                                                  monkeypatch):
    # one worker runs both chunks in turn; each cut falls next to a
    # multibyte character, and some next to blank and comment lines
    raw = write_raw(tmp_path / "raw.tsv", raw_lines(), ("\n", "\r\n", "\r"))
    data = raw.read_bytes()
    assert run(["ingest", str(raw)], 1, "corpus.tsv")[:2] == (0, "")
    corpus = tmp_path / "ingest-1" / "corpus.tsv"
    want = corpus.read_bytes()
    for cut in [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]:
        monkeypatch.setattr(cli, "_line_ranges",
                            lambda path, chunks: [(0, cut), (cut, len(data))])
        assert run(["ingest", str(raw)], 1, "corpus.tsv")[:2] == (0, "")
        assert corpus.read_bytes() == want, cut


def ingested(tmp_path, run) -> list[str]:
    """The lines of the corpus that ``raw_lines`` ingests to, after a
    comment line, so that its records sit on the same lines as theirs."""
    raw = write_raw(tmp_path / "raw.tsv", raw_lines())
    assert run(["ingest", str(raw)], 1, "corpus.tsv")[:2] == (0, "")
    text = (tmp_path / "ingest-1" / "corpus.tsv").read_text(encoding="utf-8")
    return ["# an ingested corpus", *text.splitlines()]


# Each case: what it does to the raw lines or to an ingested corpus's, and
# a part of the one error line that every chunk count prints. Its bad
# lines sit in the last chunk, or in the first and the last.
BAD_LINE = "p\ta\t\tq:oops\tt:x"
ERRORS = {
    "bad_line_in_a_later_chunk": (lambda lines: lines + [BAD_LINE],
                                  "unknown token-kind sigil"),
    "bad_lines_in_two_chunks": (lambda lines: lines[:2] + ["p\ta\t\tt:x"]
                                + lines[2:] + [BAD_LINE],
                                "expected 5 tab-separated fields, got 4"),
    "duplicate_id_across_chunks": (lambda lines: lines + [lines[1]],
                                   "duplicate pair_id: ∑0"),
}


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_an_error_is_the_one_line_of_one_chunk(tmp_path, run, case):
    build, message = ERRORS[case]
    for command in ("ingest", "replace"):
        lines = raw_lines() if command == "ingest" else ingested(tmp_path, run)
        source = write_raw(tmp_path / f"{command}.tsv", build(lines),
                           ("\n", "\r"))
        outcomes = {run([command, str(source)], n, "out.tsv")[:2]
                    for n in COUNTS}
        (outcome,) = outcomes
        code, err = outcome
        assert code == 1 and len(err.splitlines()) == 1
        assert err.startswith("error: ") and message in err
        assert not list(tmp_path.glob(f"{command}-*/out.tsv"))


def test_a_read_error_comes_before_a_renaming_error(tmp_path, run):
    # the first pair alone shares a letter, z, and every other letter is
    # protected, so it cannot be renamed; the last line cannot be read
    lines = ingested(tmp_path, run)
    z = " ".join(["m:z"] * 20)
    lines[1:1] = [f"first\ta\t\t{z}\t{z}"]
    corpus = write_raw(tmp_path / "corpus.tsv", lines + [BAD_LINE])
    protected = tmp_path / "protected.txt"
    protected.write_text("\n".join("abcdefghijklmnopqrstuvwxy"
                                   "αβγδεζηθικλμνξοπρστυφχψω") + "\n",
                         encoding="utf-8")
    for n in COUNTS:
        assert run(["replace", str(corpus), "--level", "full", "--protected",
                    str(protected)], n, "replaced.tsv")[:2] == (
            1, f"error: {corpus}: line {len(lines) + 1}, col 5: "
               "unknown token-kind sigil 'q'\n")


@pytest.mark.parametrize("seed", ["0", "-1"])
def test_a_corpus_of_comments_has_no_records(tmp_path, run, seed):
    # a bad seed is a renaming error, after the empty corpus
    corpus = write_raw(tmp_path / "corpus.tsv",
                       ["# a comment", "", "# ∑ another"] * 4)
    for n in COUNTS:
        assert run(["replace", str(corpus), "--seed", seed], n,
                   "replaced.tsv")[:2] == (1, f"error: no records in {corpus}\n")
        assert not (tmp_path / f"replace-{n}" / "replaced.tsv").exists()


@pytest.mark.parametrize("n", [2, 3])
def test_the_calling_process_reads_no_record(tmp_path, run, monkeypatch, n):
    corpus = write_raw(tmp_path / "corpus.tsv", ingested(tmp_path, run))
    assert run(["replace", str(corpus)], 1, "replaced.tsv")[:2] == (0, "")
    want = (tmp_path / "replace-1" / "replaced.tsv").read_bytes()
    caller, read = os.getpid(), corpus_module.numbered_lines

    def numbered_lines(*args, **kwargs):
        if os.getpid() == caller:
            raise AssertionError("the calling process read a record")
        return read(*args, **kwargs)

    monkeypatch.setattr(corpus_module, "numbered_lines", numbered_lines)
    assert run(["replace", str(corpus)], n, "replaced.tsv")[:2] == (0, "")
    assert (tmp_path / f"replace-{n}" / "replaced.tsv").read_bytes() == want


def test_a_byte_that_is_not_utf8_in_a_later_chunk(tmp_path, run):
    raw = write_raw(tmp_path / "raw.tsv", raw_lines(), ("\r\n",))
    data = raw.read_bytes()
    # the bad byte ends the last record, whose line has the lone \r too
    raw.write_bytes(data[:-2] + b"\r#\xff\n")
    lines = data.count(b"\n") + 1
    for n in COUNTS:
        assert run(["ingest", str(raw)], n, "corpus.tsv")[:2] == (
            1, f"error: {raw}:{lines}: not UTF-8 (invalid start byte)\n")


def test_pool_exhausted_in_a_worker(tmp_path, run):
    # every letter but z is protected, and the last pair alone shares z
    raw = write_raw(tmp_path / "raw.tsv", raw_lines()
                    + ["last\ta\t\t" + " ".join(["m:z"] * 20)
                       + "\t" + " ".join(["m:z"] * 20)])
    assert run(["ingest", str(raw)], 1, "corpus.tsv")[0] == 0
    protected = tmp_path / "protected.txt"
    protected.write_text("\n".join("abcdefghijklmnopqrstuvwxy"
                                   "αβγδεζηθικλμνξοπρστυφχψω") + "\n",
                         encoding="utf-8")
    corpus = tmp_path / "ingest-1" / "corpus.tsv"
    for n in COUNTS:
        assert run(["replace", str(corpus), "--level", "full", "--protected",
                    str(protected)], n, "replaced.tsv")[:2] == (
            1, "error: need 1 fresh names, pool has 0\n")


def test_a_bad_seed_is_the_one_line_of_every_chunk(tmp_path, run):
    raw = write_raw(tmp_path / "raw.tsv", raw_lines())
    assert run(["ingest", str(raw)], 1, "corpus.tsv")[0] == 0
    corpus = tmp_path / "ingest-1" / "corpus.tsv"
    for n in COUNTS:
        assert run(["replace", str(corpus), "--seed", "-1"], n,
                   "replaced.tsv")[:2] == (
            1, "error: seed must be >= 0 and < 2**64, not -1\n")
        assert not (tmp_path / f"replace-{n}" / "replaced.tsv").exists()


@pytest.mark.parametrize("command, work, worker", [
    ("ingest", "filter_pair", "an ingest worker"),
    ("replace", "replace_pairs", "a replace worker"),
])
def test_a_dead_worker_is_one_error_line(tmp_path, run, monkeypatch, command,
                                         work, worker):
    raw = write_raw(tmp_path / "raw.tsv", raw_lines())
    assert run(["ingest", str(raw)], 1, "corpus.tsv")[0] == 0
    caller = os.getpid()

    def die(*args, **kwargs):
        if os.getpid() == caller:
            raise AssertionError("a chunk ran in the calling process")
        os._exit(1)

    monkeypatch.setattr(cli, work, die)
    source = raw if command == "ingest" else tmp_path / "ingest-1" / "corpus.tsv"
    code, err, manifest = run([command, str(source)], 2, "out.tsv")
    assert (code, err) == (
        1, f"error: {worker} process ended before returning its chunk\n")
    assert manifest["processes"] == 2
    assert not (tmp_path / f"{command}-2" / "out.tsv").exists()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["a", "é", "∑", "#", "\t", "\n", "\r", "\r\n"]),
                max_size=40),
       st.integers(1, 5))
def test_chunks_cover_the_file_and_number_its_lines(pieces, chunks):
    data = "".join(pieces).encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "f")
        path.write_bytes(data)
        ranges = cli._line_ranges(path, chunks)
        starts = [a for a, _ in ranges]
        ends = [len(data) if b is None else b for _, b in ranges]
        # contiguous, none empty, each cut just after a \n
        assert [0, *ends] == [*starts, len(data)] if data else len(ranges) < 2
        assert all(a < b for a, b in zip(starts, ends)) or not data
        assert all(data[cut - 1:cut] == b"\n" for cut in ends[:-1])
        chunked = [line for a, b in ranges for line in numbered_lines(path, a, b)]
        assert chunked == list(numbered_lines(path))
