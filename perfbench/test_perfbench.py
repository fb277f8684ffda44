#!/usr/bin/env python3
"""The benchmark's own test. Run from the repository root:

    python3 perfbench/test_perfbench.py

1. Builds the benchmark and runs its statistics self-test, which checks
   that the tail helper picks the highest percentile with at least 10
   samples beyond it.
2. Runs every workload traced, twice with one seed, and asserts that
   the scheduler-determined counts repeat exactly.
3. Asserts the workload contrast README.md predicts: prefix hits and
   preemptions only on batch_shared_prefix, INT4 kernel calls only on
   longctx_int4, a larger attention share on longctx_int4 than on
   chat_bf16, and no attention scratch growth in any timed region.
Exits nonzero on the first failed assertion.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step lives there)

WORKLOADS = ["chat_bf16", "batch_shared_prefix", "longctx_int4"]
DETERMINISTIC = [
    "serve.steps", "serve.preemptions", "serve.prefix_hit_frac",
    "kv.cow_copies", "attn.kv_rows_per_step", "gemm.quant.gemv_calls",
    "gemm.quant.gemm_calls", "gemm.quant.bytes_per_step",
]
QUANT = ["gemm.quant.gemv_calls", "gemm.quant.gemm_calls",
         "gemm.quant.bytes_per_step"]


def traced(workload, seed):
    """Per-layer metrics of one short traced run."""
    cmd = [os.path.join(run.BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", "1"]
    p = subprocess.run(cmd, capture_output=True, text=True)
    last = p.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    assert p.returncode == 0 and result["correct"], \
        "%s failed (exit %d): %s" % (workload, p.returncode, p.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    run.build()
    selftest = os.path.join(run.BUILD, "perfbench_selftest")
    assert subprocess.run([selftest]).returncode == 0, "selftest failed"

    runs = {}
    for w in WORKLOADS:
        first, second = traced(w, 7), traced(w, 7)
        for name in DETERMINISTIC:
            assert first[name] == second[name], \
                "%s: %s %r != %r on the same seed" % (
                    w, name, first[name], second[name])
        assert first["attn.scratch_allocs"] == 0, \
            "%s: attention scratch grew while timed" % w
        runs[w] = first
        print("%s: deterministic counts repeat" % w)

    batch = "batch_shared_prefix"
    for w, m in runs.items():
        shared = w == batch
        assert (m["serve.prefix_hit_frac"] > 0) == shared, w
        assert (m["serve.preemptions"] > 0) == shared, w
        assert (m["kv.cow_copies"] > 0) == shared, w
        for name in QUANT:
            assert (m[name] > 0) == (w == "longctx_int4"), (w, name)
    assert runs["batch_shared_prefix"]["serve.useful_prefill_frac"] < 1
    assert (runs["longctx_int4"]["op.attention.self_frac"] >
            runs["chat_bf16"]["op.attention.self_frac"])
    print("workload contrast holds")


if __name__ == "__main__":
    main()
