"""One benchmark process: set up a workload, then run its operations in a
closed loop (one client that waits for each result) and check every output.

run.py starts this file with PYTHONPATH set to the checkout's ``src``:

    python3 worker.py SPEC.json setup       # set up, report ready, exit
    python3 worker.py SPEC.json run         # set up, report ready, measure
    python3 worker.py SPEC.json checkpoint  # train the eval-n2000 checkpoint

It prints ``READY`` when set-up ends, waits for ``GO`` on standard input,
and in run mode prints ``RESULT <json>`` as its last line. Operation times
are kept both as wall seconds and in reference seconds (calibrate.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import calibrate
import checks


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` is not. ``check`` returns
    (problems, values). ``known_defect`` is the one-line error a known
    program defect makes this operation raise."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], dict[str, float]]]
    known_defect: str | None = None


# Workloads import proofmatch names where they call them, so that the traced
# run calls the wrappers tracing.install put on the module attributes.

# ---------------------------------------------------------------------------
# eval-n2000: read path, one operation per `match eval` mode


class EvalWorkload:
    TOPK = 50

    def __init__(self, spec):
        self.spec = spec
        self.refs = checks.MatrixReferences()

    def setup(self):
        from proofmatch import load_model, read_corpus
        corpus = read_corpus(self.spec["inputs"]["test"])
        self.state = load_model(self.spec["inputs"]["model"])
        self.statements = [p.statement for p in corpus.pairs]
        self.proofs = [p.proof for p in corpus.pairs]

    def warmup(self):
        from proofmatch import build_score_matrix, decode_global, decode_local
        m = build_score_matrix(self.state, self.statements[:100], self.proofs[:100])
        decode_local(m)
        decode_global(m)
        decode_global(m, 10)

    def trace_extras(self):
        return {}

    def ops(self):
        return [Op("eval_local", self._local, self._check_local),
                Op("eval_global", self._global, self._check_global),
                Op("eval_global_topk", self._topk, self._check_topk)]

    def _matrix(self):
        from proofmatch import build_score_matrix
        return build_score_matrix(self.state, self.statements, self.proofs)

    def _local(self):
        from proofmatch.decoding import decode_local
        from proofmatch.evalharness import report_local
        m = self._matrix()
        result = decode_local(m)
        return m, result, report_local(result)

    def _global(self, k=None):
        from proofmatch.decoding import decode_global
        from proofmatch.evalharness import report_global
        m = self._matrix()
        result = decode_global(m, k)
        return m, result, report_global(result)

    def _topk(self):
        return self._global(self.TOPK)

    def _check_local(self, out):
        m, result, report = out
        ranks = self.refs.ranks(m)
        problems = []
        if not np.array_equal(result.gold_rank, ranks):
            problems.append("gold ranks differ from the numpy reference")
        acc = float(np.mean(ranks == 1))
        mrr = float(np.mean(1.0 / ranks))
        if not (checks.close(report.accuracy, acc) and checks.close(report.mrr, mrr)):
            problems.append("local report differs from the reference ranks")
        return problems, {"accuracy_local": acc, "mrr_local": mrr}

    def _check_assignment(self, m, result, report):
        n = m.shape[0]
        problems = []
        if not checks.is_permutation(result.assignment, n):
            problems.append("assignment is not a permutation")
            return problems, None
        acc = float(np.mean(result.assignment == np.arange(n)))
        if not checks.close(report.accuracy, acc):
            problems.append("global report accuracy differs from the assignment")
        return problems, acc

    def _check_global(self, out):
        m, result, report = out
        problems, acc = self._check_assignment(m, result, report)
        if not checks.close(result.objective, self.refs.objective(m)):
            problems.append(f"dense objective {result.objective!r} != scipy "
                            f"{self.refs.objective(m)!r}")
        return problems, {} if acc is None else {"accuracy_global": acc}

    def _check_topk(self, out):
        """The reported objective covers retained (top-k) edges only, so a
        padded matching is compared with the dense optimum by its full score."""
        m, result, report = out
        problems, acc = self._check_assignment(m, result, report)
        values = {"padded": float(result.padded_flag)}
        if acc is None:
            return problems, values
        chosen = m[np.arange(m.shape[0]), result.assignment]
        retained = checks.rank_of_chosen(m, result.assignment) < self.TOPK
        dense = self.refs.objective(m)
        score = chosen.sum() if result.padded_flag else result.objective
        if score > dense + 1e-9 * max(1.0, abs(dense)):
            problems.append("top-k matching scores more than the dense optimum")
        if not result.padded_flag and not retained.all():
            problems.append("unpadded top-k matching uses a pruned edge")
        if not checks.close(result.objective, float(chosen[retained].sum())):
            problems.append("top-k objective is not the sum of its retained edges")
        values["accuracy_global_topk"] = acc
        return problems, values


# ---------------------------------------------------------------------------
# train-selfattn: write path, `match train` with the self-attentive encoder


class TrainWorkload:
    def __init__(self, spec):
        self.spec = spec

    def setup(self):
        from proofmatch import build_vocab, read_corpus
        self.train_corpus = read_corpus(self.spec["inputs"]["train"])
        self.dev_corpus = read_corpus(self.spec["inputs"]["dev"])
        self.vocab = build_vocab(self.train_corpus)

    def _configs(self):
        from proofmatch import EncoderConfig, EncoderKind, Objective, TrainConfig
        p = self.spec["params"]
        enc = EncoderConfig(EncoderKind.SELF_ATTENTIVE, d=p["dim"], layers=p["layers"],
                            heads=p["heads"], d_k=p["dk"])
        tr = TrainConfig(objective=Objective.HYBRID, batch_size=p["batch_size"],
                         epochs=p["epochs"], lr=p["lr"], eval_every=1,
                         seed=self.spec["seed"])
        return enc, tr

    def warmup(self):
        # One untimed batch, so first-call costs stay out of the timed operation.
        from proofmatch import init_model
        from proofmatch.training import batch_loss_and_grads, local_loss
        enc, tr = self._configs()
        state = init_model(self.vocab, enc, self.spec["seed"])
        batch_loss_and_grads(state, self.train_corpus.pairs[:tr.batch_size], local_loss)

    def ops(self):
        return [Op("train", self._train, self._check_train)]

    def trace_extras(self):
        """One training step at the full-scale reference shape."""
        from proofmatch import init_model
        from proofmatch.encoders import REFERENCE_CONFIG
        from proofmatch.training import batch_loss_and_grads, local_loss
        state = init_model(self.vocab, REFERENCE_CONFIG, self.spec["seed"])
        batch = self.train_corpus.pairs[:self.spec["params"]["batch_size"]]
        t0 = time.perf_counter()
        batch_loss_and_grads(state, batch, local_loss)
        return {"training.reference_step_s": time.perf_counter() - t0}

    def _train(self):
        from proofmatch import init_model, save_model, train
        enc, tr = self._configs()
        state = init_model(self.vocab, enc, self.spec["seed"])
        best, history = train(self.train_corpus, self.dev_corpus, state, tr)
        save_model(best, self.spec["work"] + "/model.pmm")
        return best, history

    def _check_train(self, out):
        from proofmatch import build_score_matrix, load_model
        best, history = out
        problems = []
        pairs = sum(len(s.batch_ids) for s in history.steps)
        best_acc = max(acc for _, acc in history.dev_accuracy)
        m = build_score_matrix(best, [p.statement for p in self.dev_corpus.pairs],
                               [p.proof for p in self.dev_corpus.pairs])
        ref_acc = float(np.mean(checks.gold_ranks(m) == 1))
        if not checks.close(best_acc, ref_acc):
            problems.append(f"best dev accuracy {best_acc} != reference {ref_acc}")
        loaded = load_model(self.spec["work"] + "/model.pmm")
        if not np.allclose(loaded.embeddings, best.embeddings, rtol=1e-6, atol=1e-6):
            problems.append("saved model does not load back")
        return problems, {"dev_accuracy": best_acc, "pairs": float(pairs)}


# ---------------------------------------------------------------------------
# pipeline-grid: the CLI from raw records to the replacement grid


GRID_LEVELS = ("conservation", "partial", "full")
REPLACE_LEVELS = ("conservation", "partial", "full", "transposition")
# Until build_replacement_map is fixed, transposition raises on pairs that
# share one letter in two fonts next to other shared letters.
TRANSPOSITION_DEFECT = "ValueError: replacement map is not injective"


def _fields(path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh if line.strip()]


class PipelineWorkload:
    def __init__(self, spec):
        self.spec = spec
        self.work = Path(spec["work"]) / "pipeline"

    def setup(self):
        import proofmatch.cli  # noqa: F401  (set-up is the import alone)

    def warmup(self):
        """Nothing to warm: set-up already imported every module the CLI uses."""

    def _cli(self, argv):
        from proofmatch.cli import main
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv + ["--out-dir", str(self.work)])
        return code, buf.getvalue()

    def ops(self):
        w = self.work
        p = self.spec["params"]
        ops = [
            Op("ingest", lambda: self._cli(["ingest", self.spec["inputs"]["raw"]]),
               self._check_ingest),
            Op("split", lambda: self._cli(["split", str(w / "corpus.tsv"), "--mode",
                                            "unmixed", "--ratios", p["ratios"], "--quiet"]),
               self._check_split),
        ]
        for level in REPLACE_LEVELS:
            ops.append(Op(
                f"replace_{level}",
                lambda level=level: self._cli([
                    "replace", str(w / "corpus.train.tsv"), "--level", level,
                    "--output", f"train.{level}.tsv", "--quiet"]),
                lambda out, level=level: self._check_replace(out, level),
                TRANSPOSITION_DEFECT if level == "transposition" else None))
        ops.append(Op("grid", lambda: self._cli([
            "grid", str(w / "corpus.train.tsv"), str(w / "corpus.dev.tsv"),
            str(w / "corpus.test.tsv"), "--levels", ",".join(GRID_LEVELS),
            "--encoder", "pooled", "--dim", str(p["dim"]), "--epochs", str(p["epochs"]),
            "--lr", str(p["lr"]), "--eval-every", str(p["epochs"]), "--quiet"]),
            self._check_grid))
        return ops

    def trace_extras(self):
        """Share of train-split pairs whose replacement map raises, per level,
        with the seed `match replace` uses by default."""
        from proofmatch import read_corpus
        from proofmatch.symbols import Level, ReplacementLevel, replace_pair
        pairs = read_corpus(self.work / "corpus.train.tsv").pairs
        out = {}
        for level in REPLACE_LEVELS:
            rl = ReplacementLevel(Level(level))
            fails = 0
            for pair in pairs:
                try:
                    replace_pair(pair, rl, None, 0)
                except Exception:  # any raise is a failed pair
                    fails += 1
            out[f"symbols.pair_fail_ratio_{level}"] = fails / len(pairs)
        return out

    def _check_ingest(self, out):
        code, text = out
        labels = self.spec["labels"]
        expected = (f"kept {labels['keep']}, rejected "
                    f"{labels['too_short'] + labels['too_long']} "
                    f"(too short {labels['too_short']}, too long {labels['too_long']})")
        problems = [] if code == 0 else [f"exit code {code}"]
        if text.strip() != expected:
            problems.append(f"ingest said {text.strip()!r}, generator labels {expected!r}")
        if len(_fields(self.work / "corpus.tsv")) != labels["keep"]:
            problems.append("ingested corpus size differs from the kept count")
        n = sum(labels.values())
        return problems, {"records": float(n)}

    def _check_split(self, out):
        code, _ = out
        problems = [] if code == 0 else [f"exit code {code}"]
        ids = [r[0] for r in _fields(self.work / "corpus.tsv")]
        parts = [_fields(self.work / f"corpus.{s}.tsv") for s in ("train", "dev", "test")]
        if sorted(r[0] for part in parts for r in part) != sorted(ids):
            problems.append("splits do not partition the corpus")
        articles = [{r[1] for r in part} for part in parts]
        if any(articles[i] & articles[j] for i in range(3) for j in range(i + 1, 3)):
            problems.append("an article spans two splits in unmixed mode")
        return problems, {}

    def _check_replace(self, out, level):
        code, _ = out
        problems = [] if code == 0 else [f"exit code {code}"]
        before = _fields(self.work / "corpus.train.tsv")
        after = _fields(self.work / f"train.{level}.tsv")
        if len(before) != len(after):
            return problems + ["replacement changed the number of pairs"], {}
        if any(a[:4] != b[:4] for a, b in zip(after, before)):
            problems.append("replacement touched a statement")
        if level == "conservation" and after != before:
            problems.append("conservation changed a proof")
        return problems, {}

    def _check_grid(self, out):
        code, _ = out
        problems = [] if code == 0 else [f"exit code {code}"]
        rows = _fields(self.work / "grid.tsv") if code == 0 else []
        cells = {(r[0], r[1]) for r in rows}
        want = {(s, t) for s in GRID_LEVELS for t in GRID_LEVELS}
        if cells != want or len(rows) != len(want):
            problems.append(f"grid has {len(rows)} cells, expected {len(want)}")
            return problems, {}
        accs = [float(r[3]) for r in rows]
        if not all(0.0 <= a <= 1.0 for a in accs):
            problems.append("grid accuracy outside [0, 1]")
        return problems, {"grid_accuracy_mean": float(np.mean(accs))}


WORKLOADS = {
    "eval-n2000": EvalWorkload,
    "train-selfattn": TrainWorkload,
    "pipeline-grid": PipelineWorkload,
}


# ---------------------------------------------------------------------------


def _run_op(op: Op, pause) -> dict:
    """Time one operation, in wall and in reference seconds, then check its
    output with tracing paused."""
    kernel_before = calibrate.kernel_seconds()
    t0 = time.perf_counter()
    error = None
    try:
        out = op.run()
    except Exception as exc:  # an operation that raises is a failed operation
        error = f"{type(exc).__name__}: {exc}".splitlines()[0]
    seconds = time.perf_counter() - t0
    record = {"name": op.name, "seconds": seconds,
              "ref_seconds": calibrate.scale(seconds, kernel_before,
                                             calibrate.kernel_seconds()),
              "known_defect": error is not None and error == op.known_defect,
              "values": {}}
    if error is None:
        with pause():
            try:
                problems, record["values"] = op.check(out)
            except Exception as exc:  # a check that cannot run fails the operation
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        del out
        error = "; ".join(problems) or None
    record.update(ok=error is None, error=error)
    return record


def _trace_extras(tracer, workload) -> dict[str, float]:
    """Traced-run extras, measured with spans off: accuracy against k for
    top-k global decoding of the last score matrix the workload built,
    plus each workload's own (0 where a workload has none)."""
    from proofmatch.decoding import decode_global
    out = {"training.reference_step_s": 0.0}
    out.update({f"symbols.pair_fail_ratio_{lv}": 0.0 for lv in REPLACE_LEVELS})
    m = tracer.last_matrix
    for k in (1, 3, 10, 50):
        acc = padded = 0.0
        if m is not None and k <= m.shape[0]:
            r = decode_global(m, k)
            acc = float(np.mean(r.assignment == np.arange(m.shape[0])))
            padded = float(r.padded_flag)
        out[f"assignment.accuracy_at_k{k}"] = acc
        out[f"assignment.padded_at_k{k}"] = padded
    out.update(workload.trace_extras())
    return out


def _train_checkpoint(spec) -> None:
    """The eval-n2000 checkpoint: pooled encoder trained on a split disjoint
    from the test corpus. It is an input, so its cost is not measured."""
    from proofmatch import (EncoderConfig, Objective, TrainConfig, build_vocab,
                            init_model, read_corpus, save_model, train)
    p = spec["params"]
    train_c = read_corpus(spec["inputs"]["ckpt_train"])
    dev_c = read_corpus(spec["inputs"]["ckpt_dev"])
    state = init_model(build_vocab(train_c), EncoderConfig(d=p["dim"]), spec["seed"])
    best, _ = train(train_c, dev_c, state, TrainConfig(
        objective=Objective.LOCAL, epochs=p["epochs"], lr=p["lr"],
        eval_every=p["epochs"], seed=spec["seed"]))
    tmp = spec["inputs"]["model"] + ".tmp"
    save_model(best, tmp)
    os.replace(tmp, spec["inputs"]["model"])


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    mode = sys.argv[2]
    if mode == "checkpoint":
        _train_checkpoint(spec)
        return 0
    import proofmatch  # noqa: F401  (part of set-up)
    tracer, pause = None, contextlib.nullcontext
    if spec["trace"] and mode == "run":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        pause = tracer.paused
    workload = WORKLOADS[spec["workload"]](spec)
    workload.setup()
    print("READY", flush=True)
    sys.stdin.readline()  # GO: run.py has timed the set-up
    if mode == "setup":
        return 0

    with pause():
        workload.warmup()
    deadline = time.perf_counter() + spec["seconds"]
    ops, passes = [], []
    while True:
        start = len(ops)
        for op in workload.ops():
            if tracer is not None:
                tracer.op_id = len(ops)
            ops.append(_run_op(op, pause))
        passes.append(sum(o["ref_seconds"] for o in ops[start:]))
        if time.perf_counter() >= deadline:
            break
    result = {
        "ops": ops,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        with pause():
            result["layers"] = {**tracing.layer_metrics(tracer),
                                **_trace_extras(tracer, workload)}
        result["span_table"] = tracer.table()
        tracer.dump(spec["spans_out"])
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
