#!/usr/bin/env python3
"""The repository benchmark: LACC from the graph file to labels on disk.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rmat-s16 --seed 1 --seconds 30 --trace 0

Builds the `perfbench` helper (perfbench/src) in release mode, writes the
workload's input graph for `--seed` as a Matrix Market file, and runs the
pipeline once per child process until `--seconds` have passed, checking
every run's labels. `--trace 0` prints the end-to-end metrics, `--trace 1`
alternates untraced and traced runs and prints the per-layer metrics. The
last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Metric names and units come from BENCHMARK.json next to this directory.
Scratch files go to .perfbench-work/ under the working directory.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench-work")
MIN_RUNS = 5  # however short --seconds is
CHILD_TIMEOUT_S = 20
MEASURE_LIMIT_S = 120  # past this the loop stops whatever --seconds says

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# Host timings among the per-layer metrics: reported as medians over the
# traced runs. Every other per-layer value must repeat exactly.
HOST_TIMES = {"graph.io.read_s", "graph.csr.build_s", "graph.permute_s",
              "graph.unpermute_s", "graph.write_s", "core.run_s",
              "core.spmd_s", "serving.apply_batch_s", "serving.query_s",
              "serving.bootstrap_s"}
# Deterministic for a given seed: must repeat exactly across runs, traced
# or not, and across invocations of the same binary.
DETERMINISTIC = ("modeled_s", "core.iterations", "dmsim.words_sent")


class RunFailed(Exception):
    pass


def build():
    """Builds the helper and returns the path of its executable."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--message-format=json-render-diagnostics",
           "--manifest-path", str(HERE / "Cargo.toml")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench: build failed ({proc.returncode})")
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            return Path(msg["executable"])
    sys.exit("perfbench: build produced no executable")


def child(binary, *args):
    """Runs the helper once; returns its JSON result and its peak RSS in MB."""
    proc = subprocess.Popen([str(binary), *map(str, args)],
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RunFailed(f"{args[0]} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunFailed(f"{args[0]} printed nothing")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


class Bench:
    def __init__(self, binary, workload, seed):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.serving = workload.startswith("serve-")
        self.graph = WORK / f"{workload}.mtx"
        self.expect = WORK / f"{workload}.expect"
        self.out = WORK / f"{workload}.labels"
        self.edges = WORK / f"{workload}.final-edges"
        self.first_edges = None  # bytes of the first serving run's final edges
        self.reference = None  # deterministic values of the first run
        self.attempted = 0
        self.failed = 0
        self.problems = []  # anything here makes the result incorrect

    def prepare(self):
        common = ["--workload", self.workload]
        child(self.binary, "gen", *common, "--seed", self.seed, "--out", self.graph)
        self.info, _ = child(self.binary, "verify", *common,
                             "--graph", self.graph, "--expect", self.expect)

    def run(self, traced):
        """One pipeline run, checked; returns its metrics, or None if the
        helper itself failed."""
        self.attempted += 1
        args = ["run", "--workload", self.workload, "--seed", self.seed,
                "--graph", self.graph, "--out", self.out]
        if self.serving:
            args += ["--edges-out", self.edges]
        if traced:
            args.append("--trace")
        try:
            m, rss_mb = child(self.binary, *args)
        except RunFailed as e:
            self.fail(e)
            return None
        m["peak_rss_mb"] = rss_mb
        try:
            self.check(m)
        except RunFailed as e:
            self.fail(e)  # its timings still count: the run completed
        return m

    def fail(self, e):
        self.failed += 1
        self.problems.append(str(e))

    def check(self, m):
        values = {k: m[k] for k in DETERMINISTIC}
        if self.reference is None:
            self.reference = values
        elif values != self.reference:
            raise RunFailed(f"nondeterministic: {values} != {self.reference}")
        if self.serving:
            if m.get("check.answers_consistent") != 1:
                raise RunFailed("serving answers disagree with the oracle")
            edges = self.edges.read_bytes()
            if self.first_edges is None:
                # The final epoch must equal a fresh lacc::run on the edges
                # that survived; later runs must end on the same edges.
                self.first_edges = edges
                child(self.binary, "verify", "--workload", self.workload,
                      "--edges", self.edges, "--expect", self.expect)
            elif edges != self.first_edges:
                raise RunFailed("serving run ended on different edges")
        if self.out.read_bytes() != self.expect.read_bytes():
            raise RunFailed("labels differ from the reference")
        if m.get("check.selftime_gap", 0.0) > 1e-9:
            raise RunFailed(f"self times do not sum to the engine span: "
                            f"gap {m['check.selftime_gap']:.3g}")

    def check_across_invocations(self):
        """Compares the deterministic values with earlier invocations of the
        same binary on the same workload and seed."""
        if self.reference is None:
            return
        digest = hashlib.sha256(self.binary.read_bytes()).hexdigest()[:16]
        key = f"{self.workload}:{self.seed}:{digest}"
        path = WORK / "determinism.json"
        seen = json.loads(path.read_text()) if path.exists() else {}
        if key in seen and seen[key] != self.reference:
            self.problems.append(f"drift since an earlier invocation: "
                                 f"{self.reference} != {seen[key]}")
        seen.setdefault(key, self.reference)
        path.write_text(json.dumps(seen, indent=1, sort_keys=True))

    def measure(self, seconds, traced_pairs):
        """Runs until `seconds` have passed (at least MIN_RUNS times); with
        `traced_pairs`, each step is an untraced then a traced run."""
        runs, steps = [], 0
        start = time.monotonic()
        while (steps < MIN_RUNS or time.monotonic() - start < seconds) \
                and time.monotonic() - start < MEASURE_LIMIT_S:
            steps += 1
            step = [self.run(traced=False)]
            if traced_pairs:
                step.append(self.run(traced=True))
            if all(m is not None for m in step):
                runs.append(step)
        return runs


def median(runs, key):
    return statistics.median(r[key] for r in runs)


def end_to_end(runs):
    untraced = [step[0] for step in runs]
    return {m["name"]: median(untraced, m["name"]) for m in SPEC["end_to_end"]}


def per_layer(bench, runs):
    untraced = [step[0] for step in runs]
    traced = [step[1] for step in runs]
    first = traced[0]
    out = {"baseline.unionfind_s": bench.info["baseline.unionfind_s"],
           "trace.overhead_s": (median(traced, "core.run_s")
                                - median(untraced, "core.run_s"))}
    for name in (m["name"] for m in SPEC["per_layer"]):
        if name in out:
            continue
        if name not in first:
            out[name] = 0.0  # a serving metric on a one-shot workload
        elif name in HOST_TIMES:
            out[name] = median(traced, name)
        else:
            if any(t[name] != first[name] for t in traced):
                bench.problems.append(f"{name} differs between traced runs")
            out[name] = first[name]
    return {m["name"]: out[m["name"]] for m in SPEC["per_layer"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    binary = build()
    WORK.mkdir(exist_ok=True)
    bench = Bench(binary, args.workload, args.seed)
    try:
        bench.prepare()
    except RunFailed as e:
        sys.exit(f"perfbench: could not prepare the input: {e}")
    runs = bench.measure(args.seconds, traced_pairs=bool(args.trace))
    bench.check_across_invocations()

    if runs:
        metrics = per_layer(bench, runs) if args.trace else end_to_end(runs)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    info = bench.info
    print(f"# {args.workload} seed {args.seed}: {info['vertices']:.0f} vertices, "
          f"{info['edges']:.0f} edges, {info['components']:.0f} components, "
          f"{info['file_bytes']:.0f} file bytes, p={info['ranks']:.0f}, "
          f"Edison model, nproc={os.cpu_count()}; serial union-find "
          f"{info['baseline.unionfind_s'] * 1e3:.2f} ms")
    print(f"# {len(runs)} measured steps, {bench.attempted} runs attempted, "
          f"{bench.failed} failed (fail_rate "
          f"{bench.failed / max(bench.attempted, 1):.3g})")
    for problem, count in Counter(bench.problems).items():
        print(f"# FAILED ({count}x): {problem}")
    if not runs:
        sys.exit("perfbench: every run failed")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
