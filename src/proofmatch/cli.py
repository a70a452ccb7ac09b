"""Command-line front door: ingest, split, replace, vocab, train, eval, grid.

Every run writes a manifest (resolved configuration, input checksums,
version, wall-clock, peak memory, for ``train`` the best dev accuracy
beside chance, and the encoder threads and worker processes that ran, as
``forkmap.recording`` noted them) next to its outputs so any reported
number can be reproduced and its time and memory explained from the
manifest alone. A flat ``key = value`` config file can supply
defaults; explicit command-line flags win. ``ingest`` and ``replace`` run
their input in line chunks on forked workers (``_chunked``).
"""

from __future__ import annotations

import argparse
import enum
import functools
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (
    CHANNELS,
    Corpus,
    FilterResult,
    FormatError,
    Memo,
    SplitMode,
    SplitSpec,
    Token,
    _unescape,
    check_unique,
    filter_channel,
    filter_pair,
    format_token,
    numbered_lines,
    parse_item,
    read_corpus,
    read_records,
    split_corpus,
    write_corpus,
    write_records,
)
from .decoding import build_score_matrix, decode_global, decode_local
from .encoders import (
    EncoderConfig,
    Vocabulary,
    build_vocab,
    init_model,
    load_model,
    save_model,
)
from .errors import InvalidValue, ProofmatchError
from .evalharness import (
    assignment_distribution,
    check_levels,
    report_global,
    report_local,
    run_grid,
)
from .forkmap import Workers, fork_map, processes, recording
from .mathml import MalformedXml, linearize_mathml, token_table
from .symbols import Level, ReplacementLevel, read_protected_set, replace_pairs
from .training import TrainConfig, train, write_history


def _values(kind: type[enum.Enum]) -> tuple[str, ...]:
    """The command-line choices of an option that names an enum member."""
    return tuple(member.value for member in kind)


# The options that set the fields of a library config type: each
# destination with the field it sets. Only these three names differ.
_ENCODER_FIELDS = {"encoder": "kind", "dim": "d", "layers": "layers",
                   "heads": "heads", "dk": "d_k", "pooling": "pooling"}
_TRAIN_FIELDS = {name: name for name in (
    "objective", "batch_size", "epochs", "lr", "lr_decay",
    "eval_every", "seed")}


def _add_field_options(p: argparse.ArgumentParser, config_type: type,
                       fields: dict[str, str]) -> None:
    """One option per destination of ``fields``. It takes the default of the
    dataclass field it sets and that default's type, or for an enum field
    the enum's values as choices. So each such default must have its
    field's type: an int default for a float field would reject 0.5."""
    for dest, name in fields.items():
        flag, default = "--" + dest.replace("_", "-"), getattr(config_type, name)
        sets = f"sets {config_type.__name__}.{name}"
        if isinstance(default, enum.Enum):
            p.add_argument(flag, choices=_values(type(default)),
                           default=default.value, help=sets)
        else:
            p.add_argument(flag, type=type(default), default=default, help=sets)


def _config(config_type: type, fields: dict[str, str], args):
    """The ``config_type`` whose ``fields`` the options set."""
    return config_type(**{
        name: type(getattr(config_type, name))(getattr(args, dest))
        for dest, name in fields.items()})


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in numbered_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ProofmatchError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


def _apply_config_defaults(args: argparse.Namespace,
                           tables: dict[str, dict[str, argparse.Action]],
                           argv: list[str]) -> None:
    """File values fill in only options the user did not pass explicitly.
    A key of another subcommand is skipped, so one file can serve a whole
    pipeline. A key that no subcommand accepts, a key that names a
    positional argument and a boolean that is not one of
    1/0/true/false/yes/no are rejected."""
    if not args.config:
        return
    file_values = _read_config_file(args.config)
    explicit = {a.lstrip("-").replace("-", "_").split("=")[0]
                for a in argv if a.startswith("--")}
    actions = tables[args.command]
    for key, raw in file_values.items():
        if not any(key in table for table in tables.values()):
            raise InvalidValue(f"{args.config}: no subcommand takes {key}")
        if key in explicit or key not in actions:
            continue
        action = actions[key]
        if not action.option_strings:
            raise InvalidValue(f"{args.config}: {key} is a positional argument; "
                               "give it on the command line")
        try:
            value = (_BOOLEANS[raw.lower()] if isinstance(action.default, bool)
                     else (action.type or str)(raw))
        except (KeyError, ValueError):
            raise InvalidValue(f"{args.config}: bad {key} {raw!r}") from None
        if action.choices and value not in action.choices:
            raise InvalidValue(f"{args.config}: {key} must be one of "
                               f"{', '.join(action.choices)}, not {raw!r}")
        setattr(args, key, value)


# What ``train`` records on ``args``, each a manifest key of its own (null
# for other commands) and not configuration: best dev accuracy and chance.
_RECORDED = ("best_dev_accuracy", "chance")


def _peak_rss_mb(maxrss: int | None) -> float | None:
    """A peak resident set given as ``ru_maxrss``, which counts KiB on Linux
    and bytes on macOS, in MiB."""
    if maxrss is None:
        return None
    return round(maxrss / (1 << (20 if sys.platform == "darwin" else 10)), 1)


def _write_manifest(args: argparse.Namespace, inputs: list[Path],
                    started: float, error: str | None, ran: Workers) -> None:
    manifest = {
        "command": args.command,
        "version": __version__,
        "config": {k: (str(v) if isinstance(v, Path) else v)
                   for k, v in sorted(vars(args).items())
                   if k != "func" and k not in _RECORDED},
        **{k: getattr(args, k, None) for k in _RECORDED},
        "threads": ran.threads,
        "processes": ran.processes,
        "workers_peak_rss_mb": _peak_rss_mb(ran.peak_rss),
        "peak_rss_mb": _peak_rss_mb(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "inputs": {str(p): _sha256(p) for p in inputs if p and p.is_file()},
        "error": error,
        "wall_clock_sec": round(time.time() - started, 3),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    with open(args.out_dir / f"manifest-{args.command}.json", "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _read_documents(path: Path, channel: str) -> Corpus:
    """The corpus at ``path`` in ``channel``, for a command that encodes its
    documents. The encoders take no empty document, so a statement or proof
    with no tokens in the channel is an error that names its pair."""
    corpus = filter_channel(read_corpus(path), channel)
    tokens = "tokens" if channel == "both" else f"{channel} tokens"
    for p in corpus.pairs:
        for field in ("statement", "proof"):
            if not getattr(p, field):
                raise InvalidValue(f"{path}: pair {p.pair_id} has no {tokens} "
                                   f"in its {field}")
    return corpus


def _load_protected(args) -> frozenset[str] | None:
    if args.protected:
        return read_protected_set(args.protected)
    return None


# ---------------------------------------------------------------------------
# Subcommands


# A corpus command's input is cut into one chunk per usable core, of at
# least this many bytes each; a smaller input runs in the calling process.
# Time saved by 2 chunks on 2 cores over the calling process alone, by
# input size (least..most of 3 medians of 20, BLAS on 1 thread):
#   ingest of gen.py raw records: 128 KiB -2.4..-2.0 ms, 256 KiB -4.1..-2.7,
#                                 512 KiB 0.0..+4.7, 1 MiB +8.0..+13.5;
#   replace --level full:         128 KiB -11.3..-9.5, 256 KiB -1.7..+0.9,
#                                 512 KiB +2.5..+4.5, 1 MiB +13.2..+14.9;
#   replace --level conservation: 256 KiB -5.3..-1.6, 512 KiB -3.6..0.0,
#                                 1 MiB +4.3..+4.6.
# Ingest and renaming cross over between 256 and 512 KiB, so 2 chunks
# start at 512 KiB; conservation, which renames nothing, gains from 1 MiB.
_MIN_CHUNK_BYTES = 1 << 18


def _line_ranges(path, chunks: int) -> list[tuple[int, int | None]]:
    """The byte ranges of about ``chunks`` contiguous chunks that cover the
    file at ``path``, in order. Each cut falls just after a ``\\n``, so
    no chunk splits a line, a ``\\r\\n`` pair or a UTF-8 sequence, and
    cuts that meet leave no empty range. One chunk reads to the file's end,
    whatever its size."""
    if chunks < 2:
        return [(0, None)]
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        cuts = [0]
        for k in range(1, chunks):
            fh.seek(size * k // chunks)
            fh.readline()
            cuts.append(fh.tell())
    return [(a, b) for a, b in zip(cuts, [*cuts[1:], size]) if a < b]


def _chunked(args, path, chunk, worker: str, check=None) -> list:
    """Run ``chunk(start, end, part)`` on each line range of the file at
    ``path`` by ``fork_map`` and return the results in order. Each chunk
    reads its own range, writes its corpus lines to its ``part`` file and
    returns its pair ids first: the calling process reads no record. The
    first repeated id raises, then ``check(results)`` runs, then the parts
    are joined into ``--output``, which is opened last so that its error
    comes after the input's. So the output is the same bytes and an error
    the same line for any chunk count, and a failed run leaves no output.
    The parts' temporary directory is removed either way."""
    ranges = _line_ranges(path, processes(os.path.getsize(path)
                                          // _MIN_CHUNK_BYTES))
    out_path = args.out_dir / args.output
    with tempfile.TemporaryDirectory(prefix=f".{out_path.name}.",
                                     dir=args.out_dir) as tmp:
        parts = [Path(tmp, str(i)) for i in range(len(ranges))]
        results = fork_map(lambda i: chunk(*ranges[i], parts[i]), len(ranges),
                           worker, "chunk")
        check_unique(pair_id for ids, *_ in results for pair_id in ids)
        if check is not None:
            check(results)
        with open(out_path, "wb") as out:
            for part in parts:
                with open(part, "rb") as fh:
                    shutil.copyfileobj(fh, out)
    return results


def cmd_ingest(args) -> int:
    results = _chunked(args, args.input,
                       functools.partial(_ingest_range, args.input),
                       "an ingest worker")
    kept = sum(len(ids) for ids, _ in results)
    rejected = sum((counts for _, counts in results), Counter())
    n_rej = rejected.total()
    _say(args, f"kept {kept}, rejected {n_rej} "
               f"(too short {rejected['too_short']}, "
               f"too long {rejected['too_long']})")
    if args.strict and n_rej:
        return 2
    return 0


def _ingest_range(path, start: int, end: int | None,
                  part: Path) -> tuple[list[str], Counter]:
    """Read, linearize and filter the raw records of one byte range of
    ``path`` (``numbered_lines``), with one item memo and MathML token
    table, and write the kept ones to ``part``. Returns the kept pair ids
    and the count of each rejection."""
    ids, rejected = [], Counter()

    def kept(records):
        for record in records:
            verdict = filter_pair(record)
            if verdict is FilterResult.KEEP:
                ids.append(record.pair_id)
                yield record
            else:
                rejected[verdict.value] += 1

    parse = functools.partial(_parse_raw_item, tokens=token_table())
    write_records(kept(read_records(path, parse, start, end)), part)
    return ids, rejected


def _parse_raw_item(item: str, line: int, column: int,
                    tokens: Memo | None = None) -> tuple[Token, ...]:
    """A corpus item, or an ``x:payload`` item carrying percent-encoded
    Presentation-MathML, linearized with the read's ``tokens`` table
    (``mathml.token_table``)."""
    if not item.startswith("x:"):
        return parse_item(item, line, column)
    try:
        return tuple(linearize_mathml(_unescape(item[2:]), tokens))
    except MalformedXml as exc:
        raise FormatError(str(exc), line, column) from exc


def cmd_split(args) -> int:
    try:
        ratios = tuple(float(r) for r in args.ratios.split(","))
    except ValueError:
        raise InvalidValue(f"split ratios are not numbers: {args.ratios!r}") from None
    spec = SplitSpec(mode=SplitMode(args.mode), ratios=ratios, seed=args.seed)
    parts = split_corpus(read_corpus(args.corpus), spec)
    for part, name in zip(parts, ("train", "dev", "test")):
        path = args.out_dir / f"{args.corpus.stem}.{name}.tsv"
        write_corpus(part, path)
        _say(args, f"{name}: {len(part)} pairs -> {path}")
    return 0


def cmd_replace(args) -> int:
    level = ReplacementLevel(Level(args.level), args.alpha)
    protected = _load_protected(args)
    out_path = args.out_dir / args.output

    def replace(start: int, end: int | None,
                part: Path) -> tuple[list[str], ProofmatchError | None]:
        # returned, not raised: a renaming error comes after all the others
        pairs = list(read_records(args.corpus, start=start, end=end))
        ids = [p.pair_id for p in pairs]
        try:
            replaced = replace_pairs(pairs, level, protected, args.seed)
        except ProofmatchError as exc:
            return ids, exc
        write_records(replaced, part)
        return ids, None

    def check(results) -> None:
        if not any(ids for ids, _ in results):
            raise InvalidValue(f"no records in {args.corpus}")
        if errors := [error for _, error in results if error is not None]:
            raise errors[0]

    _chunked(args, args.corpus, replace, "a replace worker", check)
    _say(args, f"replaced ({args.level}, alpha={level.alpha}) -> {out_path}")
    return 0


def cmd_vocab(args) -> int:
    corpus = filter_channel(read_corpus(args.corpus), args.channel)
    vocab = build_vocab(corpus, args.min_freq)
    out_path = args.out_dir / args.output
    with open(out_path, "w", encoding="utf-8") as fh:
        for i, tok in enumerate(vocab.tokens):
            item = "<unk>" if tok is None else format_token(tok)
            fh.write(f"{i}\t{item}\n")
    _say(args, f"vocabulary of {len(vocab)} entries -> {out_path}")
    return 0


# A random ranking puts about one dev statement's own proof first, whatever
# the dev size, and five or more in under 1% of evaluations: on more than
# this many dev pairs, ``train`` warns when its best dev accuracy is below
# this many times chance (1 / dev pairs).
NEAR_CHANCE = 5


def cmd_train(args) -> int:
    encoder = _config(EncoderConfig, _ENCODER_FIELDS, args)
    train_config = _config(TrainConfig, _TRAIN_FIELDS, args)
    train_c = _read_documents(args.train_corpus, args.channel)
    dev_c = _read_documents(args.dev_corpus, args.channel)
    vocab = build_vocab(train_c, args.min_freq)
    state = init_model(vocab, encoder, args.seed)
    best, history = train(train_c, dev_c, state, train_config)
    model_path = args.out_dir / args.output
    save_model(best, model_path)
    stem = Path(args.output).stem
    write_history(history, args.out_dir / f"{stem}.log")
    with open(args.out_dir / f"{stem}.dev.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{epoch}\t{acc:.10g}\n"
                      for epoch, acc in history.dev_accuracy)
    # the saved model is the first evaluation that reached the best accuracy
    epoch, acc = max(history.dev_accuracy, key=lambda e: e[1])
    args.best_dev_accuracy, args.chance = acc, 1 / len(dev_c.pairs)
    _say(args, f"model -> {model_path} (dev accuracy {acc:.4f} "
               f"at epoch {epoch})")
    if len(dev_c.pairs) > NEAR_CHANCE and acc < NEAR_CHANCE * args.chance:
        print(f"warning: best dev accuracy {acc:.4f} is below {NEAR_CHANCE} "
              f"times chance ({args.chance:.4f}); the model may not have "
              "learned", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    if args.k is not None and args.decode != "global":
        raise InvalidValue(f"--k {args.k} applies to --decode global only")
    state = load_model(args.model)
    corpus = _read_documents(args.corpus, args.channel)
    m = build_score_matrix(state, [p.statement for p in corpus.pairs],
                           [p.proof for p in corpus.pairs])
    if args.decode == "global":
        result = decode_global(m, args.k)
        report = report_global(result)
        k_name = "all" if args.k is None else str(args.k)
        line = (f"decode=global\tk={k_name}\tmrr=-\t"
                f"accuracy={report.accuracy:.6f}\tn={report.n}\t"
                f"padded={int(result.padded_flag)}")
        if result.padded_flag:
            print(f"warning: the top-{args.k} edges admit no perfect matching; "
                  "the assignment uses pruned cells", file=sys.stderr)
        # A local run's histogram would otherwise sit beside this eval.tsv.
        (args.out_dir / "assign.tsv").unlink(missing_ok=True)
    else:
        ranking = decode_local(m)
        report = report_local(ranking)
        line = (f"decode=local\tmrr={report.mrr:.6f}\t"
                f"accuracy={report.accuracy:.6f}\tn={report.n}")
        with open(args.out_dir / "assign.tsv", "w", encoding="utf-8") as fh:
            for label, count, percent in assignment_distribution(ranking):
                fh.write(f"{label}\t{count}\t{percent:.2f}\n")
    with open(args.out_dir / "eval.tsv", "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    _say(args, line)
    return 0


def cmd_grid(args) -> int:
    names = args.levels.split(",")
    if unknown := set(names) - set(_values(Level)):
        raise InvalidValue(f"unknown replacement levels: {sorted(unknown)}")
    levels = [ReplacementLevel(Level(name), args.alpha) for name in names]
    check_levels(levels)  # before the corpora are read
    encoder = _config(EncoderConfig, _ENCODER_FIELDS, args)
    train_config = _config(TrainConfig, _TRAIN_FIELDS, args)
    train_c = _read_documents(args.train_corpus, args.channel)
    dev_c = _read_documents(args.dev_corpus, args.channel)
    test_c = _read_documents(args.test_corpus, args.channel)
    protected = _load_protected(args)
    report = run_grid(train_c, dev_c, test_c, levels, encoder, train_config,
                      protected, seed=args.seed, min_freq=args.min_freq)
    with open(args.out_dir / "grid.txt", "w", encoding="utf-8") as fh:
        fh.write(report.to_text() + "\n")
    with open(args.out_dir / "grid.tsv", "w", encoding="utf-8") as fh:
        fh.write("\n".join(report.to_records()) + "\n")
    _say(args, report.to_text())
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None,
                   help="a file of key = value option defaults")
    p.add_argument("--out-dir", type=Path, default=Path("."),
                   help="directory of the outputs and the manifest")
    p.add_argument("--quiet", action="store_true",
                   help="print nothing on success")


def _add_channel(p: argparse.ArgumentParser) -> None:
    p.add_argument("--channel", choices=CHANNELS, default="both",
                   help="the token kinds kept")


def _add_protected(p: argparse.ArgumentParser) -> None:
    p.add_argument("--protected", type=Path, default=None,
                   help="a file of letters never renamed")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    """The encoder and training options of ``train`` and ``grid``."""
    _add_field_options(p, EncoderConfig, _ENCODER_FIELDS)
    _add_field_options(p, Vocabulary, {"min_freq": "min_freq"})
    _add_channel(p)
    _add_field_options(p, TrainConfig, _TRAIN_FIELDS)


def build_parser() -> tuple[argparse.ArgumentParser,
                            dict[str, dict[str, argparse.Action]]]:
    """The parser, and each subcommand's actions by destination in
    declaration order. Every positional argument names an input file."""
    # No abbreviated flags: _apply_config_defaults tells options given on
    # the command line from the literal --name words of argv.
    # Every option has a help line, so the formatter states every default.
    parser_class = functools.partial(
        argparse.ArgumentParser, allow_abbrev=False,
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser = parser_class(prog="match",
                          description="Match mathematical proofs to statements.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=parser_class)

    p = sub.add_parser("ingest", help="validate, linearize and filter raw records")
    p.add_argument("input", type=Path)
    p.add_argument("--output", default="corpus.tsv",
                   help="corpus file name in --out-dir")
    p.add_argument("--strict", action="store_true",
                   help="exit with 2 when a record is rejected")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("split", help="train/dev/test split")
    p.add_argument("corpus", type=Path)
    _add_field_options(p, SplitSpec, {"mode": "mode"})
    p.add_argument("--ratios", default=",".join(map(str, SplitSpec.ratios)),
                   help="train,dev,test fractions")
    _add_field_options(p, SplitSpec, {"seed": "seed"})
    _add_common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("replace", help="apply a symbol-replacement level")
    p.add_argument("corpus", type=Path)
    p.add_argument("--output", default="replaced.tsv",
                   help="corpus file name in --out-dir")
    p.add_argument("--level", choices=_values(Level), default=Level.FULL.value,
                   help="replacement level")
    _add_field_options(p, ReplacementLevel, {"alpha": "alpha"})
    _add_protected(p)
    p.add_argument("--seed", type=int, default=0, help="renaming seed")
    _add_common(p)
    p.set_defaults(func=cmd_replace)

    p = sub.add_parser("vocab", help="build and dump a vocabulary")
    p.add_argument("corpus", type=Path)
    p.add_argument("--output", default="vocab.tsv",
                   help="vocabulary file name in --out-dir")
    _add_field_options(p, Vocabulary, {"min_freq": "min_freq"})
    _add_channel(p)
    _add_common(p)
    p.set_defaults(func=cmd_vocab)

    p = sub.add_parser("train", help="train a matching model")
    p.add_argument("train_corpus", type=Path)
    p.add_argument("dev_corpus", type=Path)
    p.add_argument("--output", default="model.pmm",
                   help="model file name in --out-dir")
    _add_model_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a corpus")
    p.add_argument("model", type=Path)
    p.add_argument("corpus", type=Path)
    p.add_argument("--decode", choices=("local", "global"), default="local",
                   help="local ranking or global assignment")
    p.add_argument("--k", type=int, default=None,
                   help="top-k pruning for global decoding, K >= 1; "
                        "without it the solve is dense")
    _add_channel(p)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grid", help="cross-replacement experiment grid")
    p.add_argument("train_corpus", type=Path)
    p.add_argument("dev_corpus", type=Path)
    p.add_argument("test_corpus", type=Path)
    p.add_argument("--levels", default=",".join(_values(Level)),
                   help="comma-separated replacement levels")
    _add_field_options(p, ReplacementLevel, {"alpha": "alpha"})
    _add_protected(p)
    _add_model_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_grid)

    tables = {name: {a.dest: a for a in p._actions if a.dest != "help"}
              for name, p in sub.choices.items()}
    return parser, tables


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, tables = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    error, ran = None, recording()
    try:
        _apply_config_defaults(args, tables, argv)
        # before the work, so that an unusable --out-dir costs no training
        args.out_dir.mkdir(parents=True, exist_ok=True)
        # Every non-finite loss, gradient, score or parameter ends in an
        # error of its own, so numpy's overflow warnings would only come
        # before that one line.
        with np.errstate(over="ignore", invalid="ignore"):
            code = args.func(args)
    except (ProofmatchError, OSError) as exc:
        error, code = str(exc), 1
    except MemoryError as exc:  # numpy's names the allocation it refused
        error, code = str(exc) or "out of memory", 1
    # the files whose contents change the outputs: the positional ones,
    # --config and --protected (None where not given)
    inputs = [getattr(args, a.dest) for a in tables[args.command].values()
              if a.type is Path and a.dest != "out_dir"]
    try:
        # a failed run records its error too, wherever --out-dir is usable
        _write_manifest(args, inputs, started, error, ran)
    except OSError as exc:
        # say an unusable --out-dir, which a failed run already reported
        error, code = error or str(exc), 1
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
