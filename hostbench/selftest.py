#!/usr/bin/env python3
"""Self-test of the host-clock benchmark at tiny sizes.

    python3 hostbench/selftest.py

Runs every workload through run.py with --tiny, with tracing off and on,
and checks: exit status 0 and correct outputs; the result line's schema
and metric names against BENCHMARK.json; that each traced run measured
the layers its workload exercises and wrote a Chrome trace; that inputs
follow the seed (same seed, same counts; another seed, another graph);
and that a directory holding only BENCHMARK.json and hostbench/ fails
without printing a result. Exit status 0 when everything passed.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

# Per-layer metrics each workload's traced run must report as nonzero.
EXPECTED = {
    "full-reddit-maxk": [
        "graph.materialize_ms", "nn.fwd_compute_ms", "nn.fwd_combine_ms",
        "nn.bwd_agg_ms", "nn.bwd_post_ms", "nn.loss_ms", "nn.adam_ms",
        "nn.eval_ms", "nn.layer2.bwd_post_ms", "core.spgemm_fwd_ms",
        "core.sspmm_bwd_ms", "core.maxk_select_ms", "kernels.spmm_fwd_ms",
        "kernels.spmm_bwd_ms", "kernels.dense_over_cbsr_fwd",
        "gpusim.agg_fwd_ms", "gpusim.linear_ms", "gpusim.epoch_ms",
        "gpusim.dense_over_cbsr_fwd", "trace.unit_ms", "trace.coverage",
        "trace.traced_over_untraced"],
    "sampled-flickr-relu": [
        "graph.materialize_ms", "nn.fwd_compute_ms", "nn.bwd_post_ms",
        "nn.eval_ms", "sample.sample_ms", "sample.extract_ms",
        "sample.step_ms", "sample.real_rows_ratio", "trace.unit_ms",
        "trace.coverage", "trace.traced_over_untraced"],
    "serve-flickr-maxk": [
        "graph.materialize_ms", "serve.session_ms", "serve.call_p90_ms",
        "serve.hit_ratio", "serve.rows_recomputed_per_req",
        "serve.planned_rows_ratio", "gpusim.req_per_s", "trace.unit_ms",
        "trace.coverage", "trace.traced_over_untraced"],
    "sharded2-reddit-relu": [
        "graph.materialize_ms", "graph.partition_ms", "dist.plan_ms",
        "nn.fwd_compute_ms", "nn.bwd_post_ms", "nn.eval_ms", "dist.halo_ms",
        "dist.allreduce_ms", "dist.halo_bytes_per_epoch",
        "dist.reduce_bytes_per_epoch", "dist.halo_rows", "gpusim.epoch_ms",
        "trace.unit_ms", "trace.coverage", "trace.traced_over_untraced"],
}
# Counts that are a pure function of the seed.
SEEDED = ["dist.halo_bytes_per_epoch", "dist.halo_rows",
          "sample.real_rows_ratio", "serve.hit_ratio", "gpusim.epoch_ms"]

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL:", what)


def invoke(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "hostbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=300)
    return p.returncode, p.stdout


def result(workload, seed, trace):
    rc, out = invoke(workload, seed, trace)
    tag = "%s trace=%d seed=%d" % (workload, trace, seed)
    expect(rc == 0, tag + ": exit status %d" % rc)
    lines = out.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        expect(False, tag + ": last stdout line is not JSON")
        return {}
    expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
           tag + ": result keys %s" % sorted(res))
    expect(res.get("correct") is True, tag + ": outputs not correct")
    expect(isinstance(res.get("attempted"), int) and res["attempted"] >= 1,
           tag + ": attempted < 1")
    expect(res.get("failed") == 0, tag + ": failed operations")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = res.get("metrics", {})
    expect(sorted(metrics) == sorted(m["name"] for m in declared),
           tag + ": metric names differ from BENCHMARK.json")
    for m in declared:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        expect(got.get("unit") == m["unit"], tag + ": unit of " + m["name"])
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               tag + ": value of " + m["name"])
        if not trace:
            expect(isinstance(value, (int, float)) and value > 0,
                   tag + ": end-to-end " + m["name"] + " is not positive")
    return {k: v["value"] for k, v in metrics.items()}


def main():
    if not run.build():
        print("FAIL: build")
        return 1
    for workload in run.WORKLOADS:
        result(workload, 3, 0)
        traced = result(workload, 3, 1)
        for name in EXPECTED[workload]:
            expect(traced.get(name, 0) != 0,
                   "%s: per-layer %s not measured" % (workload, name))
        trace_file = os.path.join(run.BUILD, "out",
                                  "trace-%s-3.json" % workload)
        try:
            events = json.load(open(trace_file))["traceEvents"]
            expect(len(events) > 0, workload + ": empty trace file")
        except (OSError, ValueError, KeyError):
            expect(False, workload + ": no readable trace file")
        again = result(workload, 3, 1)
        for name in SEEDED:
            expect(traced.get(name) == again.get(name),
                   "%s: %s differs between runs of one seed" % (workload, name))
    other = result("sharded2-reddit-relu", 4, 1)
    expect(other.get("dist.halo_rows") != traced.get("dist.halo_rows"),
           "sharded2-reddit-relu: another seed gave the same partition")

    # Without the program's sources the benchmark must fail, and print
    # no result line.
    bare = os.path.join(run.BUILD, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "hostbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, out = invoke("full-reddit-maxk", 1, 0, cwd=bare)
    expect(rc != 0, "bare directory: exit status 0")
    expect('"correct"' not in out, "bare directory: printed a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures
                            else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
