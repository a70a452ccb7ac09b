"""proofmatch benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload eval-n2000 --seed 1 --seconds 10 --trace 0

Run from the root of a proofmatch checkout; the program is imported from
its ``src`` directory. The command generates the workload's inputs from the
seed, sets up and measures in fresh processes (see worker.py), checks every
output, prints a report, and prints one JSON object as its last line: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
metrics with ``--trace 1``. BENCHMARK.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Set-up is measured in this many fresh processes; the last one also runs
# the workload.
SETUP_REPS = 3
# BLAS is the only threaded layer. One thread keeps runs steady on a shared
# machine and is never more than nproc.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170

PARAMS = {
    "eval-n2000": {"n_test": 2000, "n_ckpt_train": 1000, "n_ckpt_dev": 200,
                   "dim": 64, "epochs": 8, "lr": 0.5},
    "train-selfattn": {"n_train": 600, "n_dev": 200, "dim": 64, "layers": 1,
                       "heads": 2, "dk": 32, "batch_size": 60, "epochs": 1,
                       "lr": 5e-3},
    "pipeline-grid": {"n_raw": 1000, "ratios": "0.6,0.2,0.2", "dim": 64,
                      "epochs": 2, "lr": 0.5},
}


def sub_seed(seed: int, name: str) -> int:
    return int.from_bytes(hashlib.sha256(f"{seed}:{name}".encode()).digest()[:8], "little")


def make_inputs(workload: str, seed: int, work: Path, env: dict) -> dict:
    """Write the workload's inputs under ``work`` and return the spec the
    worker reads. Generation and the eval checkpoint are not measured."""
    import gen
    p = PARAMS[workload]
    spec = {"workload": workload, "seed": seed, "params": p, "work": str(work),
            "inputs": {}}
    inputs = spec["inputs"]
    if workload == "eval-n2000":
        inputs["test"] = str(work / "test.tsv")
        gen.write_corpus_file(gen.generate_pairs(sub_seed(seed, "test"), p["n_test"], "e"),
                              inputs["test"])
        cache = BENCH / ".cache"
        cache.mkdir(exist_ok=True)
        key = hashlib.sha256(json.dumps(p, sort_keys=True).encode()).hexdigest()[:12]
        inputs["model"] = str(cache / f"eval-n2000-seed{seed}-{key}.pmm")
        if not Path(inputs["model"]).exists():
            inputs["ckpt_train"] = str(work / "ckpt-train.tsv")
            inputs["ckpt_dev"] = str(work / "ckpt-dev.tsv")
            gen.write_corpus_file(gen.generate_pairs(
                sub_seed(seed, "ckpt-train"), p["n_ckpt_train"], "c"), inputs["ckpt_train"])
            gen.write_corpus_file(gen.generate_pairs(
                sub_seed(seed, "ckpt-dev"), p["n_ckpt_dev"], "v"), inputs["ckpt_dev"])
            spec_path = work / "checkpoint.json"
            spec_path.write_text(json.dumps(spec), encoding="utf-8")
            subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec_path),
                            "checkpoint"], env=env, check=True, timeout=CHILD_TIMEOUT_S)
    elif workload == "train-selfattn":
        inputs["train"] = str(work / "train.tsv")
        inputs["dev"] = str(work / "dev.tsv")
        gen.write_corpus_file(gen.generate_pairs(sub_seed(seed, "train"), p["n_train"], "t"),
                              inputs["train"])
        gen.write_corpus_file(gen.generate_pairs(sub_seed(seed, "dev"), p["n_dev"], "d"),
                              inputs["dev"])
    else:
        inputs["raw"] = str(work / "raw.tsv")
        spec["labels"] = gen.generate_raw(sub_seed(seed, "raw"), p["n_raw"], inputs["raw"])
    return spec


class Child:
    """A worker process, timed from just before it starts until it reports
    that set-up is done, in reference seconds (calibrate.py). A watchdog
    kills it if it overruns."""

    def __init__(self, spec_path: Path, mode: str, env: dict):
        kernel_before = calibrate.kernel_seconds()
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path), mode],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.watchdog.start()
        line = self.proc.stdout.readline()
        self.setup_wall_s = time.perf_counter() - self.start
        if line.strip() != "READY":
            self.finish()
            raise RuntimeError(f"worker did not finish set-up ({mode})")
        # The worker waits for GO, so this kernel runs on a quiet machine.
        self.setup_s = calibrate.scale(self.setup_wall_s, kernel_before,
                                       calibrate.kernel_seconds())
        self.proc.stdin.write("GO\n")
        self.proc.stdin.close()

    def finish(self) -> str:
        try:
            if not self.proc.stdin.closed:
                self.proc.stdin.close()
            out = self.proc.stdout.read()
            code = self.proc.wait()
        finally:
            self.watchdog.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
        return out


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas": blas_name,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": commit_id(),
    }


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unavailable"


def median(xs):
    return statistics.median(xs) if xs else 0.0


def workload_metrics(workload: str, ops: list[dict]) -> dict[str, tuple[float, str]]:
    """The workload's own end-to-end metrics (BENCHMARK.md), printed in the
    report; values repeat exactly across passes except times."""
    def times(name):
        return [o["ref_seconds"] for o in ops if o["name"] == name and o["ok"]]

    def value(key):
        vals = [o["values"][key] for o in ops if key in o["values"]]
        return vals[-1] if vals else float("nan")

    failed = sum(not o["ok"] for o in ops)
    out = {"failed_op_ratio": (failed / len(ops), f"failed/attempted ({failed}/{len(ops)})")}
    if workload == "eval-n2000":
        out.update({
            "eval_local_s": (median(times("eval_local")), "s"),
            "eval_global_s": (median(times("eval_global")), "s"),
            "eval_global_topk_s": (median(times("eval_global_topk")), "s"),
            "accuracy_local": (value("accuracy_local"), "fraction"),
            "mrr_local": (value("mrr_local"), "fraction"),
            "accuracy_global": (value("accuracy_global"), "fraction"),
            "accuracy_global_topk": (value("accuracy_global_topk"), "fraction"),
        })
    elif workload == "train-selfattn":
        rates = [o["values"]["pairs"] / o["ref_seconds"] for o in ops
                 if o["name"] == "train" and o["ok"]]
        out.update({
            "train_pairs_per_s": (median(rates), "pairs/s"),
            "dev_accuracy": (value("dev_accuracy"), "fraction"),
        })
    else:
        rates = [o["values"]["records"] / o["ref_seconds"] for o in ops
                 if o["name"] == "ingest" and o["ok"]]
        out.update({
            "ingest_records_per_s": (median(rates), "records/s"),
            "grid_s": (median(times("grid")), "s"),
            "grid_accuracy_mean": (value("grid_accuracy_mean"), "fraction"),
        })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PARAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "proofmatch" / "__init__.py").is_file():
        print(f"error: no proofmatch sources at {SRC}; run from a proofmatch checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
        "OMP_NUM_THREADS": str(BLAS_THREADS),
        "MKL_NUM_THREADS": str(BLAS_THREADS),
    })
    work = BENCH / ".work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out_dir = BENCH / ".out"
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        spec = make_inputs(args.workload, args.seed, work, env)
        spec.update({"seconds": args.seconds, "trace": bool(args.trace),
                     "spans_out": str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")})
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        children = []
        if not args.trace:
            for _ in range(SETUP_REPS - 1):
                children.append(Child(spec_path, "setup", env))
                children[-1].finish()
        children.append(Child(spec_path, "run", env))
        child = children[-1]
        lines = child.finish().splitlines()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = json.loads(next(l for l in reversed(lines) if l.startswith("RESULT "))[7:])
    return report(args, declared, result, children)


def report(args, declared: dict, result: dict, children: list[Child]) -> int:
    ops = result["ops"]
    env = environment()
    print(f"# proofmatch benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# closed loop, 1 client: {len(result['passes'])} pass(es), {len(ops)} operations")
    for i, o in enumerate(ops):
        status = "ok" if o["ok"] else ("FAILED (known defect)" if o["known_defect"] else "FAILED")
        print(f"# op {i:3d} {o['name']:<24} {o['ref_seconds']:9.4f} s "
              f"(wall {o['seconds']:.4f} s)  {status}")
        if not o["ok"]:
            print(f"#   error: {o['error']}")

    e2e = {
        "setup_s": (median([c.setup_s for c in children]), "s"),
        "pipeline_s": (median(result["passes"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    shown = dict(e2e)
    shown.update(workload_metrics(args.workload, ops))
    label = "traced end-to-end" if args.trace else "end-to-end"
    for name, (val, unit) in shown.items():
        print(f"# {label} {name} = {val:.6g} {unit}")
    print(f"#   setup_s from {len(children)} process(es): "
          + ", ".join(f"{c.setup_s:.4f} (wall {c.setup_wall_s:.4f})" for c in children))

    if args.trace:
        layers = dict(result["layers"])
        layers["trace.setup_s"] = e2e["setup_s"][0]
        layers["trace.pipeline_s"] = e2e["pipeline_s"][0]
        print("# spans: name calls total_s self_s")
        for name, calls, total, own in result["span_table"]:
            print(f"#   {name:<36} {calls:7d} {total:10.4f} {own:10.4f}")
        wanted = declared["per_layer"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in wanted}
        for name, entry in metrics.items():
            print(f"# per-layer {name} = {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in declared["end_to_end"]}

    unexpected = [o for o in ops if not o["ok"] and not o["known_defect"]]
    print(json.dumps({"correct": not unexpected, "attempted": len(ops),
                      "failed": len(unexpected), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
