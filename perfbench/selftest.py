"""Exact-repeat self-test: counts a later change may rest a claim on.

Runs every workload traced twice with the same seed, each run in its own
process, and requires these per-layer counts to be identical across the
two runs: the evaluator's work counts and the wire bytes and pages of the
pipelines, and the WAL bytes, fsyncs and replayed records of the serving
workload's single-threaded write path.  Timings are not compared.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

EXACT = {
    "pipelines_local": (
        "sparql.evaluator.pattern_matches", "sparql.evaluator.intermediate_rows",
        "sparql.evaluator.rows_pulled", "sparql.evaluator.joins",
        "sparql.evaluator.sorted_runs_built",
        "sparql.evaluator.synopsis_builds"),
    "pipelines_http": (
        "sparql.evaluator.pattern_matches", "sparql.evaluator.intermediate_rows",
        "sparql.evaluator.rows_pulled", "sparql.evaluator.joins",
        "sparql.json_results.bytes", "sparql.endpoint.pages"),
    "serving_rw": (
        "storage.wal_bytes_per_user_byte", "storage.wal_fsyncs",
        "storage.replayed_records"),
}
HERE = os.path.dirname(os.path.abspath(__file__))


def _traced_run(workload: str, seed: int) -> dict:
    # The benchmark's own run length: shorter runs of serving_rw have too
    # few reads for their percentiles and fail.
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1"],
        capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s failed (exit %d): %s" % (
            workload, out.returncode, out.stderr[-2000:]))
    return json.loads(lines[-1])


def main(seed: int) -> int:
    failures = 0
    for workload, names in EXACT.items():
        first, second = (_traced_run(workload, seed) for _ in range(2))
        for name in names:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            same = a == b
            failures += not same
            print("%-16s %-40s %18r %18r %s" % (
                workload, name, a, b, "same" if same else "DIFFERENT"))
    print("self-test %s" % ("passed" if not failures else
                            "FAILED: %d counts differ" % failures))
    return 1 if failures else 0
