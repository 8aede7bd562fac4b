"""End-to-end benchmark of the RDFFrames reproduction.

One run measures one workload in this process and prints, as its last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics of a traced run).  Lines before it give every metric by name,
with its unit and, for timings, the sample count.

    python3 perfbench/run.py --workload pipelines_local --seed 1 \\
        --seconds 22 --trace 0
    python3 perfbench/run.py --all --seed 1      # every workload, each
                                                 # in its own process
    python3 perfbench/run.py --self-test         # exact-repeat counts
    python3 perfbench/run.py --write-expected    # refresh reference bags

See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("pipelines_local", "pipelines_http", "serving_rw")


def _require_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("perfbench: no program source at %s; run from a "
                         "checkout of the repository\n" % SRC)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    from perfbench import common

    common.pin_cpu()
    if name == "serving_rw":
        from perfbench import serving
        out = serving.run(seed, seconds, traced)
    else:
        from perfbench import pipelines
        out = pipelines.run(name == "pipelines_http", seed, seconds, traced)
    for metric, (value, count) in sorted(out["notes"].items()):
        print("%-28s %14.3f   n=%d" % (metric, value, count))
    for metric, entry in out["e2e"].items():
        print("%-28s %14.4f %s" % (metric, entry["value"], entry["unit"]))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer"]
    # Layers a workload leaves idle report 0.
    layer = {m["name"]: common.metric(out["layer"].get(m["name"], 0),
                                      m["unit"]) for m in declared}
    if traced:
        for metric, entry in layer.items():
            print("%-44s %16.4f %s" % (metric, entry["value"],
                                       entry["unit"]))
    tally = out["tally"]
    errors = tally.errors + out["errors"]
    for line in errors:
        sys.stderr.write("perfbench: %s\n" % line)
    correct = tally.failed == 0 and not out["errors"]
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": layer if traced else out["e2e"]}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload, each in its own process (so ``peak_rss_mb`` is per
    workload)."""
    status = 0
    for name in WORKLOADS:
        print("== %s" % name, flush=True)
        status |= subprocess.call([
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if traced else "0"])
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in its own process")
    parser.add_argument("--self-test", action="store_true",
                        help="check that the exact-repeat counts repeat")
    parser.add_argument("--write-expected", action="store_true",
                        help="recompute the reference bags with the "
                             "reference evaluator")
    args = parser.parse_args(argv)
    _require_source()
    if args.write_expected:
        from perfbench import reference
        reference.write_expected()
        return 0
    if args.self_test:
        from perfbench import selftest
        return selftest.main(args.seed)
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload is None:
        parser.error("--workload, --all, --self-test or --write-expected "
                     "is required")
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
