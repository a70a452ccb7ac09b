"""The names and call shapes that the benchmark in ``perfbench/`` binds.

``perfbench/tracing.py`` wraps proofmatch functions by module attribute and
reads their arguments and results (``encode_ids``' document, ``backward``'s
``cache.x0``, ``train``'s ``config.clip_norm``); ``perfbench/worker.py``
calls ``build_score_matrix`` on token lists and ``batch_loss_and_grads`` on
pairs. A subprocess installs the tracer over the package, runs a tiny
traced ``match train`` and ``match eval --decode global --k 2`` and the
worker's two calls, then computes the benchmark's per-layer metrics. A
refactor that removes or reshapes one of those names fails here. Nothing
under ``perfbench/`` is changed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from proofmatch.corpus import write_corpus
from conftest import letter_corpus

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """
import json, sys
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from proofmatch import build_score_matrix, load_model, read_corpus
from proofmatch.cli import main
from proofmatch.training import batch_loss_and_grads, local_loss
corpus, out = sys.argv[1:]
codes = [
    main(["train", corpus, corpus, "--encoder", "selfattn", "--dim", "8",
          "--dk", "4", "--objective", "hybrid", "--epochs", "2",
          "--batch-size", "4", "--eval-every", "1", "--out-dir", out,
          "--quiet"]),
    main(["eval", out + "/model.pmm", corpus, "--decode", "global", "--k", "2",
          "--out-dir", out, "--quiet"]),
]
state = load_model(out + "/model.pmm")
pairs = read_corpus(corpus).pairs
build_score_matrix(state, [p.statement for p in pairs], [p.proof for p in pairs])
batch_loss_and_grads(state, pairs[:4], local_loss)
print(json.dumps({"codes": codes, "metrics": tracing.layer_metrics(tracer)}))
"""


def test_traced_train_and_eval_feed_every_layer_metric(tmp_path):
    corpus = tmp_path / "letters.tsv"
    write_corpus(letter_corpus(np.random.default_rng(0), 8), corpus)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    run = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(corpus), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    metrics = result["metrics"]
    for name in ("corpus.read_corpus_s", "encoders.build_vocab_s",
                 "encoders.encode_ids_s", "encoders.forward_s",
                 "encoders.backward_s", "encoders.apply_gradients_s",
                 "encoders.save_model_s", "encoders.load_model_s",
                 "decoding.build_score_matrix_s",
                 "decoding.encode_collection_s", "decoding.decode_local_s",
                 "decoding.decode_global_s", "assignment.solve_dense_s",
                 "assignment.prune_topk_s", "assignment.solve_sparse_s",
                 "training.batch_loss_and_grads_s", "training.local_loss_s",
                 "training.global_loss_s", "training.dev_eval_s",
                 "evalharness.report_s", "encoders.attn_gflop_computed"):
        assert metrics[name] > 0, name
    # 2 epochs of 2 steps; 8 pairs, 2 edges each
    assert metrics["training.steps"] == 4
    assert metrics["assignment.edges_retained"] == 16
    assert metrics["encoders.vocab_size"] > 1
    assert metrics["encoders.forward_calls"] > metrics["encoders.backward_calls"] > 0
    assert 0 <= metrics["training.clip_ratio"] <= 1
