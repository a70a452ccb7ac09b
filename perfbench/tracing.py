"""Spans and counts around calls into proofmatch's public functions.

``install`` wraps module attributes from outside the program, including the
names other proofmatch modules bound with ``from ... import``, so calls
between modules are seen too. Spans (name, start, end, parent, operation id)
are kept in memory and written out when the run ends. Used only by the
traced run, which also measures decode_local's tracemalloc peak, in a call
of its own so that tracemalloc's cost stays out of the spans.
"""

from __future__ import annotations

import contextlib
import json
import time
import tracemalloc
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.active = True
        self.op_id = -1  # spans of set-up keep -1
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.docs: dict[int, object] = {}  # id -> doc, kept alive so ids stay unique
        self.last_matrix = None
        self.largest_local = None  # the largest matrix decode_local ranked

    @contextlib.contextmanager
    def paused(self):
        """No spans or counts inside: warm-up, checks and extras."""
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def totals(self) -> dict[str, list[float]]:
        """name -> [calls, total seconds, self seconds]. A span's self time
        is its duration minus its children's, which never overlap here
        because the program is single-threaded."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if end is None:
                continue
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[i]
        return dict(out)

    def seconds_under(self, name: str, parent_name: str) -> float:
        return sum(end - start for n, start, end, parent, _ in self.spans
                   if n == name and parent >= 0 and self.spans[parent][0] == parent_name)

    def table(self) -> list[list]:
        return [[name, int(c), round(t, 6), round(s, 6)]
                for name, (c, t, s) in sorted(self.totals().items(),
                                              key=lambda kv: -kv[1][1])]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _wrap(tracer: Tracer, name: str, fn, on_return=None, label=None):
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = tracer.open(label(args) if label else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if on_return is not None:
            on_return(tracer, args, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


# --- counts, recorded at the same boundaries as the spans -----------------


def _tokens_read(t, args, corpus):
    t.counts["corpus.tokens_read"] += sum(len(p.statement) + len(p.proof)
                                          for p in corpus.pairs)


def _lookups(t, args, ids):
    _, doc = args
    t.counts["encoders.tokens_looked_up"] += len(ids)
    t.counts["encoders.unk_lookups"] += int(np.count_nonzero(ids == 0))
    t.docs[id(doc)] = doc


def _attn_flop(t_len: int, cfg) -> float:
    """Multiply-adds x2 of one self-attentive forward pass, from shapes."""
    d, h, dk = cfg.d, cfg.heads, cfg.d_k
    per_layer = 2 * t_len * d * h * dk * 2   # q and k projections
    per_layer += 2 * t_len * d * d           # v projection (h * d_v = d)
    per_layer += 2 * h * t_len * t_len * dk  # scores
    per_layer += 2 * h * t_len * t_len * (d // h)  # attention-weighted values
    per_layer += 2 * t_len * d * d           # output projection
    return per_layer * cfg.layers


def _forward(t, args, result):
    state, doc = args
    t.counts["encoders.forward_calls"] += 1
    if state.layers:
        t.counts["encoders.attn_flop"] += _attn_flop(len(doc), state.config)


def _backward(t, args, result):
    state, cache = args[0], args[1]
    t.counts["encoders.backward_calls"] += 1
    if state.layers:
        t.counts["encoders.attn_flop"] += 2 * _attn_flop(cache.x0.shape[0], state.config)


def _vocab(t, args, vocab):
    t.counts["encoders.vocab_size"] = len(vocab)


def _loaded(t, args, state):
    t.counts["encoders.vocab_size"] = len(state.vocab)


def _matrix(t, args, m):
    t.last_matrix = m


def _ranked(t, args, result):
    m = args[0]
    if t.largest_local is None or m.shape[0] > t.largest_local.shape[0]:
        t.largest_local = m


def _dense(t, args, result):
    t.counts["assignment.solve_dense_calls"] += 1
    t.counts["assignment.solve_dense_max_n"] = max(
        t.counts["assignment.solve_dense_max_n"], args[0].shape[0])


def _pruned(t, args, sparse):
    t.counts["assignment.edges_retained"] += sum(len(c) for c in sparse.cols)


def _sparse(t, args, result):
    t.counts["assignment.padded_solves"] += int(result[2])


def _fragment(t, args, result):
    t.counts["mathml.fragments"] += 1


def _renamed(t, args, corpus):
    before = args[0]
    t.counts["symbols.tokens_renamed"] += sum(
        a != b for p, q in zip(before.pairs, corpus.pairs)
        for a, b in zip(p.proof, q.proof))


def _trained(t, args, result):
    config = args[3]
    _, history = result
    t.counts["training.steps"] += len(history.steps)
    t.counts["training.clipped_steps"] += sum(
        1 for s in history.steps if config.clip_norm and s.grad_norm > config.clip_norm)


def _cli_label(args):
    return f"cli.main.{args[0][0]}"  # one span name per subcommand


def install(tracer: Tracer) -> None:
    from proofmatch import (assignment, cli, corpus, decoding, encoders,
                            evalharness, mathml, symbols, training)
    import proofmatch
    modules = [proofmatch, corpus, mathml, symbols, encoders, assignment,
               decoding, training, evalharness, cli]
    targets = [
        (corpus, "read_corpus", {"on_return": _tokens_read}),
        (corpus, "write_corpus", {}),
        (corpus, "split_corpus", {}),
        (mathml, "linearize_mathml", {"on_return": _fragment}),
        (symbols, "replace_corpus", {"on_return": _renamed}),
        (encoders, "build_vocab", {"on_return": _vocab}),
        (encoders, "forward", {"on_return": _forward}),
        (encoders, "backward", {"on_return": _backward}),
        (encoders, "apply_gradients", {}),
        (encoders, "load_model", {"on_return": _loaded}),
        (encoders, "save_model", {}),
        (decoding, "encode_collection", {}),
        (decoding, "build_score_matrix", {"on_return": _matrix}),
        (decoding, "decode_local", {"on_return": _ranked}),
        (decoding, "decode_global", {}),
        (assignment, "solve_dense", {"on_return": _dense}),
        (assignment, "prune_topk", {"on_return": _pruned}),
        (assignment, "solve_sparse", {"on_return": _sparse}),
        (training, "train", {"on_return": _trained}),
        (training, "batch_loss_and_grads", {}),
        (training, "local_loss", {}),
        (training, "global_loss", {}),
        (evalharness, "run_grid", {}),
        (evalharness, "evaluate_local", {}),
        (evalharness, "report_local", {}),
        (evalharness, "report_global", {}),
        (cli, "main", {"label": _cli_label}),
    ]
    for module, attr, opts in targets:
        original = getattr(module, attr)
        short = module.__name__.rsplit(".", 1)[-1]
        wrapped = _wrap(tracer, f"{short}.{attr}", original, **opts)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
    encoders.Vocabulary.encode_ids = _wrap(
        tracer, "encoders.encode_ids", encoders.Vocabulary.encode_ids,
        on_return=_lookups)


def _local_peak_mb(tracer: Tracer) -> float:
    """tracemalloc peak of decode_local on the largest matrix the workload
    ranked, in a call made outside every span."""
    from proofmatch import decoding
    if tracer.largest_local is None:
        return 0.0
    with tracer.paused():
        tracemalloc.start()
        try:
            decoding.decode_local(tracer.largest_local)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


CLI_SUBCOMMANDS = ("ingest", "split", "replace", "grid")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values from the spans and counts; 0 where the workload
    never called into that layer."""
    tot = tracer.totals()
    c = tracer.counts

    def s(name):
        return tot.get(name, [0, 0.0, 0.0])[1]

    def ratio(num, den):
        return num / den if den else 0.0

    lookups = c["encoders.tokens_looked_up"]
    encode_calls = tot.get("encoders.encode_ids", [0, 0.0, 0.0])[0]
    m = {
        "corpus.read_corpus_s": s("corpus.read_corpus"),
        "corpus.tokens_read": c["corpus.tokens_read"],
        "corpus.write_corpus_s": s("corpus.write_corpus"),
        "corpus.split_corpus_s": s("corpus.split_corpus"),
        "mathml.linearize_mathml_s": s("mathml.linearize_mathml"),
        "mathml.fragments": c["mathml.fragments"],
        "symbols.replace_corpus_s": s("symbols.replace_corpus"),
        "symbols.tokens_renamed": c["symbols.tokens_renamed"],
        "encoders.build_vocab_s": s("encoders.build_vocab"),
        "encoders.vocab_size": c["encoders.vocab_size"],
        "encoders.unk_rate": ratio(c["encoders.unk_lookups"], lookups),
        "encoders.encode_ids_s": s("encoders.encode_ids"),
        "encoders.tokens_looked_up": lookups,
        "encoders.distinct_docs": float(len(tracer.docs)),
        "encoders.lookups_per_distinct_doc": ratio(encode_calls, len(tracer.docs)),
        "encoders.forward_s": s("encoders.forward"),
        "encoders.forward_calls": c["encoders.forward_calls"],
        "encoders.backward_s": s("encoders.backward"),
        "encoders.backward_calls": c["encoders.backward_calls"],
        "encoders.apply_gradients_s": s("encoders.apply_gradients"),
        "encoders.attn_gflop_computed": c["encoders.attn_flop"] / 1e9,
        "encoders.load_model_s": s("encoders.load_model"),
        "encoders.save_model_s": s("encoders.save_model"),
        "decoding.build_score_matrix_s": s("decoding.build_score_matrix"),
        "decoding.encode_collection_s": s("decoding.encode_collection"),
        "decoding.decode_local_s": s("decoding.decode_local"),
        "decoding.decode_local_peak_mb": _local_peak_mb(tracer),
        "decoding.decode_global_s": s("decoding.decode_global"),
        "assignment.solve_dense_s": s("assignment.solve_dense"),
        "assignment.solve_dense_calls": c["assignment.solve_dense_calls"],
        "assignment.solve_dense_max_n": c["assignment.solve_dense_max_n"],
        "assignment.prune_topk_s": s("assignment.prune_topk"),
        "assignment.solve_sparse_s": s("assignment.solve_sparse"),
        "assignment.edges_retained": c["assignment.edges_retained"],
        "assignment.padded_solves": c["assignment.padded_solves"],
        "training.batch_loss_and_grads_s": s("training.batch_loss_and_grads"),
        "training.steps": c["training.steps"],
        "training.local_loss_s": s("training.local_loss"),
        "training.global_loss_s": s("training.global_loss"),
        "training.dev_eval_s": float(tracer.seconds_under("decoding.build_score_matrix", "training.train")
                                + tracer.seconds_under("decoding.decode_local", "training.train")),
        "training.clip_ratio": ratio(c["training.clipped_steps"], c["training.steps"]),
        "evalharness.run_grid_s": s("evalharness.run_grid"),
        "evalharness.evaluate_local_s": s("evalharness.evaluate_local"),
        "evalharness.report_s": s("evalharness.report_local") + s("evalharness.report_global"),
    }
    cli_total = cli_self = 0.0
    for sub in CLI_SUBCOMMANDS:
        _, total, own = tot.get(f"cli.main.{sub}", [0, 0.0, 0.0])
        m[f"cli.main.{sub}_s"] = total
        m[f"cli.main.{sub}_self_s"] = own
        cli_total += total
        cli_self += own
    m["cli.main_s"] = cli_total
    m["cli.main_self_s"] = cli_self
    return m
