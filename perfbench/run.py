#!/usr/bin/env python3
"""Build, prepare and run one perfbench workload; print its result as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload serve-mnist --seed 1 --seconds 25 --trace 0

The first run in a checkout builds the libraries under src/ together with
the measuring binary (perfbench/src) into .bench_build/, then trains the
REPRO_SCALE=fast models once into a cache keyed by a hash of src/, so a
cache is never shared between two versions of the code.

--trace 0 prints every end-to-end metric (each workload measures all of
them), with ADV_OBS=0. --trace 1 runs the workload twice for half the time each, once
untraced and once with ADV_OBS=1 plus benchmark-side spans, and prints every
per-layer metric together with the tracing overhead (traced minus untraced)
of each end-to-end metric. The last stdout line is always one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Other modes:
    --steady N          run the workload N times (seeds 1..N) and print each
                        metric's median, quartiles and spread
    --write-benchmark-json
                        regenerate BENCHMARK.json from the tables below
"""
import argparse
import fcntl
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "perfbench")
RUN_SECONDS = 25
# Seconds one invocation of the measuring binary may take before it is
# killed (the whole run must end within 180 s).
RUN_TIMEOUT = 150

WORKLOADS = {
    "serve-mnist": "closed-loop single-image requests to the MNIST MagNet daemon, 1 then nproc callers",
    "eval-cifar": "in-process defended classify of 64-row CIFAR batches; forward-bound, no serving",
    "attack-ead": "detector-aware EAD on 10-image MNIST requests; backward-bound, no serving",
}

# Every workload reports every metric; an operation is one request
# (serve-mnist, attack-ead) or one 64-row batch (eval-cifar).
# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ok_share": ("share", "higher", 0.01),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_p90_ms": ("ms", "lower", 0.25),
    "items_per_s": ("1/s", "higher", 0.25),
    "result_share": ("share", "higher", 0.05),
}

PER_LAYER = {}
for _m in ["core.dataset_s", "core.models_s", "core.build_magnet_s"]:
    PER_LAYER[_m] = ("s", "lower")
PER_LAYER["core.first_result_ms"] = ("ms", "lower")
for _p in [".d1", ".d4"]:
    PER_LAYER["serve.queue_wait_ms" + _p] = ("ms", "lower")
    PER_LAYER["serve.batch_forward_ms" + _p] = ("ms", "lower")
    PER_LAYER["serve.batch_rows" + _p] = ("rows", "higher")
    PER_LAYER["serve.transport_ms" + _p] = ("ms", "lower")
    PER_LAYER["serve.requests" + _p] = ("count", "higher")
    PER_LAYER["serve.errors" + _p] = ("count", "lower")
    PER_LAYER["serve.shed" + _p] = ("count", "lower")
for _m in ["classify", "detectors", "reformer", "classifier"]:
    PER_LAYER["magnet.%s_ms" % _m] = ("ms", "lower")
PER_LAYER["magnet.forwards_per_classify"] = ("count", "lower")
for _m in ["clf_fwd", "ae_fwd", "clf_bwd", "ae_bwd"]:
    PER_LAYER["nn.%s_ms" % _m] = ("ms", "lower")
PER_LAYER["nn.forward_calls"] = ("count", "lower")
PER_LAYER["nn.backward_calls"] = ("count", "lower")
PER_LAYER["tensor.pool_calls"] = ("count", "lower")
PER_LAYER["tensor.pool_wait_ms"] = ("ms", "lower")
PER_LAYER["tensor.conv_direct_share"] = ("share", "higher")
PER_LAYER["tensor.ws_bytes_reused"] = ("bytes", "higher")
for _m in ["req", "logits", "input_grad", "aux_loss", "aux_grad", "self", "eval"]:
    PER_LAYER["attack.%s_ms" % _m] = ("ms", "lower")
PER_LAYER["attack.grad_queries"] = ("count", "lower")
PER_LAYER["attack.passes_saved_share"] = ("share", "higher")
for _m, (_unit, _, _) in END_TO_END.items():
    PER_LAYER["overhead." + _m] = (_unit, "lower")


def fail(msg, code=2):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def source_hash():
    """Hash of every file under src/: the code the models are trained by."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit_id(tree):
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip() + "+tree-" + tree
    return "tree-" + tree


def quiet(cmd, env=None):
    """Runs cmd; its output goes to stderr only if it fails."""
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       env=env)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail("command failed: %s" % " ".join(cmd), 1)
    return r.stdout.decode(errors="replace")


def bench_env(cache, obs):
    env = dict(os.environ)
    env["REPRO_SCALE"] = "fast"
    env["REPRO_CACHE_DIR"] = cache
    env["ADV_OBS"] = "1" if obs else "0"
    return env


def build_and_prepare():
    """Builds the binary and trains the models (once per source tree)."""
    for need in ["src/CMakeLists.txt", "perfbench/CMakeLists.txt"]:
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("run from the repository root: %s not found" % need)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            quiet(["cmake", "-S", "perfbench", "-B", CMAKE_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"])
        quiet(["cmake", "--build", CMAKE_DIR, "--target", "perfbench",
               "-j", str(os.cpu_count() or 1)])
        tree = source_hash()
        cache = os.path.join(BUILD, "model_cache", tree)
        stamp = os.path.join(cache, "prepared")
        if not os.path.isfile(stamp):
            os.makedirs(cache, exist_ok=True)
            t0 = time.time()
            quiet([BINARY, "prepare"], env=bench_env(cache, False))
            with open(stamp, "w") as f:
                f.write("%.1f\n" % (time.time() - t0))
            sys.stderr.write("perfbench: trained fast-scale models in %.1f s "
                             "(not a metric)\n" % (time.time() - t0))
    return tree, cache


def run_binary(workload, seed, seconds, trace, cache, commit, spans=None):
    cmd = [BINARY, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)),
           "--trace", "1" if trace else "0", "--commit", commit]
    if spans:
        cmd += ["--spans", spans]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, env=bench_env(cache, trace),
                       timeout=RUN_TIMEOUT)
    out = r.stdout.decode(errors="replace").strip().splitlines()
    # Everything but the result line (zoo notes) goes to stderr.
    for line in out[:-1]:
        sys.stderr.write(line + "\n")
    if r.returncode != 0 or not out:
        fail("%s exited with %d" % (workload, r.returncode), 1)
    return json.loads(out[-1])


def e2e_values(res, workload):
    vals = dict(res["e2e"])
    vals["ok_share"] = (res["attempted"] - res["failed"]) / res["attempted"]
    missing = [m for m in END_TO_END if m not in vals]
    if missing:
        fail("%s did not report %s" % (workload, ", ".join(missing)), 1)
    return {m: vals[m] for m in END_TO_END}


def measure(workload, seed, seconds, trace):
    tree, cache = build_and_prepare()
    commit = commit_id(tree)
    if not trace:
        res = run_binary(workload, seed, seconds, False, cache, commit)
        metrics = {m: {"value": float(v), "unit": END_TO_END[m][0]}
                   for m, v in e2e_values(res, workload).items()}
        ok = all(math.isfinite(v["value"]) for v in metrics.values())
    else:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, "%s-seed%d.json" % (workload, seed))
        plain = run_binary(workload, seed, seconds / 2, False, cache, commit)
        res = run_binary(workload, seed, seconds / 2, True, cache, commit, spans)
        base = e2e_values(plain, workload)
        traced = e2e_values(res, workload)
        layer = dict(res["layer"])
        for m in base:
            layer["overhead." + m] = traced[m] - base[m]
        unknown = sorted(set(layer) - set(PER_LAYER))
        if unknown:
            fail("unlisted per-layer metrics: %s" % ", ".join(unknown), 1)
        missing = sorted(set(PER_LAYER) - set(layer))
        if missing:
            fail("%s did not report %s" % (workload, ", ".join(missing)), 1)
        metrics = {m: {"value": float(layer[m]), "unit": unit}
                   for m, (unit, _) in PER_LAYER.items()}
        ok = plain["failed"] == 0
        sys.stderr.write("perfbench: spans written to %s\n" % spans)
    stamp = res["stamp"]
    sys.stderr.write("perfbench: %s seed %d on isa=%s nproc=%s threads=%s "
                     "scale=%s commit=%s\n" % (
                         workload, seed, stamp["isa"], stamp["nproc"],
                         stamp["threads"], stamp["scale"], stamp["commit"]))
    return {"correct": ok and res["failed"] == 0,
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def steady(workload, runs, seconds):
    """Runs the workload `runs` times and prints median/quartiles/spread."""
    values = {}
    for seed in range(1, runs + 1):
        t0 = time.time()
        r = subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"],
                           stdout=subprocess.PIPE, text=True)
        if r.returncode != 0:
            fail("seed %d failed" % seed, 1)
        res = json.loads(r.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            fail("seed %d: outputs incorrect" % seed, 1)
        for m, v in res["metrics"].items():
            values.setdefault(m, []).append(v["value"])
        print("seed %d (%.1f s): %s" % (seed, time.time() - t0, json.dumps(
            {m: v["value"] for m, v in res["metrics"].items()})), flush=True)
    print("%-16s %-6s %12s %12s %12s %8s %6s" % (
        "metric", "unit", "q1", "median", "q3", "spread", "bound"))
    for m, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        unit, _, bound = END_TO_END[m]
        print("%-16s %-6s %12.6g %12.6g %12.6g %8.4f %6.2f%s" % (
            m, unit, q1, med, q3, spread, bound,
            "" if spread < bound / 3 else "  <-- above bound/3"))


def write_benchmark_json():
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": why} for w, why in WORKLOADS.items()],
        "end_to_end": [{"name": m, "unit": u, "better": b, "bound": bound}
                       for m, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": m, "unit": u, "better": b}
                      for m, (u, b) in PER_LAYER.items()],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        json.dump(spec, f, indent=2)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, metavar="N")
    ap.add_argument("--write-benchmark-json", action="store_true")
    args = ap.parse_args()
    if args.write_benchmark_json:
        write_benchmark_json()
        return
    if not args.workload:
        ap.error("--workload is required")
    if args.steady:
        steady(args.workload, args.steady, args.seconds)
        return
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
