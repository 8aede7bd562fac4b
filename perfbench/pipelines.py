"""The paper's case studies, end to end, in a closed loop.

``pipelines_local`` runs each case study as an RDFFrames pipeline
(``RDFFrame.execute(EngineClient)``, the direct model-to-algebra path) and
as expert SPARQL (``EngineClient.execute``).  ``pipelines_http`` runs the
three pipelines through ``HttpClient`` -> ``Endpoint`` with the paper's
10,000-row page cap; the endpoint's cursor cache is cleared before every
run, so every run executes the query.  One caller runs the items in a
seeded order, each after the previous one returned its DataFrame.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from . import common
from .common import Tally, now, quiesce
from .trace import LAYERS, Tracer

Item = Tuple[str, str]          # (case study key, "pipeline" | "expert")

#: Rows per endpoint response (Virtuoso's ResultSetMaxRows in the paper).
PAGE_ROWS = 10000
#: Evaluator counters reported per pass.
EVALUATOR_COUNTS = ("pattern_matches", "intermediate_rows", "rows_pulled",
                    "joins", "sorted_runs_built", "synopsis_builds")


class Pipelines:
    """One process's pipelines workload: set-up, the loop, the checks."""

    def __init__(self, http: bool, seed: int):
        from repro.workload.case_studies import CASE_STUDIES

        self.http = http
        self.rng = random.Random(seed)
        self.cases = {cs.key: cs for cs in CASE_STUDIES}
        kinds = ("pipeline",) if http else ("pipeline", "expert")
        self.items: List[Item] = [(key, kind) for key in self.cases
                                  for kind in kinds]
        self.expected = common.load_json("expected.json")
        self.tally = Tally()
        self.engine = None
        self.client = None
        self.endpoint = None

    # -- set-up --------------------------------------------------------
    def build(self) -> None:
        from repro.client import EngineClient, HttpClient
        from repro.data import build_dataset
        from repro.sparql import Endpoint, Engine

        dataset = build_dataset(scale=common.SCALE, seed=common.DATASET_SEED,
                                use_cache=False)
        self.engine = Engine(dataset)
        if self.http:
            self.endpoint = Endpoint(self.engine, max_rows=PAGE_ROWS)
            self.client = HttpClient(self.endpoint)
        else:
            self.client = EngineClient(self.engine)

    def setup(self) -> Dict[str, float]:
        """Build ``SETUP_REPEATS`` times, keep the last, then warm up.

        Warm-up runs each pipeline's query once on the evaluator path this
        workload uses (for HTTP, the endpoint's streaming cursor, without
        the wire) and plans every expert query, so plan caches, sorted runs
        and synopses exist before timing starts.  It is excluded from
        timing and counted in ``setup_s``."""
        builds = []
        for _ in range(common.SETUP_REPEATS):
            self.engine = self.client = self.endpoint = None
            quiesce()
            with common.Timed() as build:
                self.build()
            builds.append(build.ref)
        with common.Timed() as warm:
            for key, kind in self.items:
                case = self.cases[key]
                if kind == "expert":
                    self.engine.plan(case.expert_sparql)
                elif self.http:
                    self.engine.stream(case.frame().to_sparql()).result()
                else:
                    self.check((key, kind), self.run_item((key, kind)))
        common.freeze_setup()
        return {"build_s": common.median(builds), "warm_s": warm.ref}

    # -- one operation -------------------------------------------------
    def run_item(self, item: Item):
        key, kind = item
        case = self.cases[key]
        if self.endpoint is not None:
            self.endpoint.clear_cache()
        if kind == "expert":
            return self.client.execute(case.expert_sparql)
        return case.frame().execute(self.client)

    def check(self, item: Item, frame) -> Optional[str]:
        """Compare an answer with the stored reference bag."""
        want = self.expected["case_studies"][item[0]]
        rows, digest = len(frame), common.frame_digest(frame)
        if rows == want["rows"] and digest == want["digest"]:
            self.tally.ok()
            return None
        why = "%s %s: %d rows, digest %s; want %d rows, digest %s" % (
            item[0], item[1], rows, digest[:12], want["rows"],
            want["digest"][:12])
        self.tally.fail(why)
        return why

    # -- the closed loop -----------------------------------------------
    def order(self):
        """Endless passes over the items, each pass in a seeded order."""
        while True:
            items = list(self.items)
            self.rng.shuffle(items)
            yield from items

    def measure(self, seconds: float, tracer: Optional[Tracer] = None
                ) -> Dict[Item, List[Dict]]:
        """Run items until ``seconds`` passed and each ran at least once.

        Returns per item one record per run: its wall seconds, the same
        rescaled to the reference speed, the probe's speed during it
        and, when traced, its per-layer self seconds, span seconds and
        counts."""
        samples: Dict[Item, List[Dict]] = {item: [] for item in self.items}
        deadline = now() + seconds
        for serial, item in enumerate(self.order()):
            if now() >= deadline and all(samples.values()):
                break
            common.pin_cpu()
            quiesce()
            if tracer is None:
                with common.Timed() as timed:
                    frame = self.run_item(item)
            else:
                pages0 = tracer.calls["sparql.endpoint.request"]
                bytes0 = tracer.counts["sparql.json_results.bytes"]
                tracer.set_request(serial)
                with common.Timed() as timed:
                    frame = tracer.run("bench.op", self.run_item, item)[0]
                tracer.set_request(None)
            record = {"s": timed.wall, "ref": timed.ref,
                      "probe": timed.probe}
            if tracer is not None:
                record["self"] = tracer.self_times(serial)
                record["spans"] = tracer.span_seconds(serial)
            stats = self.engine.last_stats
            record["counts"] = {name: getattr(stats, name)
                                for name in EVALUATOR_COUNTS}
            if tracer is not None:
                record["counts"]["pages"] = \
                    tracer.calls["sparql.endpoint.request"] - pages0
                record["counts"]["bytes"] = \
                    tracer.counts["sparql.json_results.bytes"] - bytes0
            self.check(item, frame)
            samples[item].append(record)
        return samples


def _per_pass(samples: Dict[Item, List[Dict]], field: str, key: str
              ) -> float:
    """Sum over items of the item's mean ``record[field][key]``: the value
    for one pass over the workload's items."""
    total = 0.0
    for records in samples.values():
        total += sum(r[field].get(key, 0.0) for r in records) / len(records)
    return total


def _item_medians(samples, field: str = "ref") -> Dict[Item, float]:
    return {item: common.median([r[field] for r in records])
            for item, records in samples.items()}


def _metric_name(item: Item) -> str:
    key, kind = item
    return "%s_ms" % key if kind == "pipeline" else "%s_expert_ms" % key


def run(http: bool, seed: int, seconds: float, traced: bool) -> Dict:
    """One run of ``pipelines_http`` (``http``) or ``pipelines_local``:
    ``seconds`` of untraced operations give the end-to-end figures; with
    ``traced``, another ``seconds`` of traced operations follow and give
    the per-layer figures."""
    bench = Pipelines(http, seed)
    setup = bench.setup()
    plain = bench.measure(seconds)
    medians = _item_medians(plain)
    work_ms = 1000 * sum(medians.values())
    e2e = {
        "setup_s": common.metric(setup["build_s"] + setup["warm_s"], "s"),
        "peak_rss_mb": common.metric(common.peak_rss_mb(), "MB"),
        "ok_share": common.metric(bench.tally.share_ok(), "share"),
        "work_ms": common.metric(work_ms, "ms"),
        "heavy_ms": common.metric(1000 * max(medians.values()), "ms"),
    }
    # Per query, the wall time a user waits, not rescaled.
    notes = {_metric_name(item): (1000 * med, len(plain[item]))
             for item, med in _item_medians(plain, "s").items()}
    notes["host.probe_ms"] = (1000 * common.median(
        [r["probe"] for records in plain.values() for r in records]),
        sum(len(records) for records in plain.values()))
    layer: Dict[str, float] = {}
    errors: List[str] = []
    if traced:
        with Tracer() as tracer:
            plan_hits0 = bench.engine.plan_cache_hits
            plan_miss0 = bench.engine.plan_cache_misses
            traced_samples = bench.measure(seconds, tracer)
            plan_hits = bench.engine.plan_cache_hits - plan_hits0
            plan_miss = bench.engine.plan_cache_misses - plan_miss0
        traced_work = 1000 * sum(_item_medians(traced_samples).values())

        def per_pass_ms(span):
            return 1000 * _per_pass(traced_samples, "spans", span)

        layer.update({
            "core.generate_ms": per_pass_ms("core.generate"),
            "core.compile_ms": per_pass_ms("core.compile"),
            "core.translate_ms": per_pass_ms("core.translate"),
            "sparql.parser.parse_ms": per_pass_ms("sparql.parser.parse"),
            "sparql.engine.plan_ms": per_pass_ms("sparql.engine.plan"),
            "sparql.engine.plan_cache_hit_ratio":
                plan_hits / max(1, plan_hits + plan_miss),
            # Evaluator self time: Engine.evaluate_plan less its decode
            # (local), or the endpoint cursor's opening and pulls less
            # planning (HTTP).
            "sparql.evaluator.execute_ms": 1000 * _per_pass(
                traced_samples, "self", "sparql.evaluator"),
            "sparql.results.decode_ms": per_pass_ms("sparql.results.decode"),
            "dataframe.build_ms": per_pass_ms("dataframe.build"),
            "sparql.json_results.encode_ms":
                per_pass_ms("sparql.json_results.encode"),
            "sparql.json_results.decode_ms":
                per_pass_ms("sparql.json_results.decode"),
            "sparql.endpoint.request_ms":
                per_pass_ms("sparql.endpoint.request"),
            "trace.overhead_ms": traced_work - work_ms,
            "trace.spans": len(tracer.spans),
        })
        for name in EVALUATOR_COUNTS:
            layer["sparql.evaluator." + name] = _per_pass(
                traced_samples, "counts", name)
        layer["sparql.json_results.bytes"] = _per_pass(
            traced_samples, "counts", "bytes")
        layer["sparql.endpoint.pages"] = _per_pass(
            traced_samples, "counts", "pages")
        layer["client.retries"] = getattr(bench.client, "retries_performed",
                                          0)
        for name in LAYERS:
            layer["self.%s_ms" % name] = 1000 * _per_pass(
                traced_samples, "self", name)
        errors.extend(_attribution_errors(traced_samples))
        expected_spans = EXPECTED_SPANS_HTTP if http else \
            EXPECTED_SPANS_LOCAL
        missing = [s for s in expected_spans if tracer.calls[s] == 0]
        if missing:
            errors.append("no spans recorded for: %s" % ", ".join(missing))
        tracer.dump(common.out_path("spans-%s-%d.jsonl" % (
            "pipelines_http" if http else "pipelines_local", seed)))
    for name, (value, _) in notes.items():
        layer[name] = value
    layer["data.build_s"] = setup["build_s"]
    layer["failed_share"] = bench.tally.failed / max(1, bench.tally.attempted)
    layer["samples_min"] = min(len(r) for r in plain.values())
    return {"e2e": e2e, "layer": layer, "tally": bench.tally,
            "errors": errors, "notes": notes, "setup": setup}


#: Spans a traced pipelines run must record; a wrapper its caller
#: bypasses fails the run instead of reporting zero.
EXPECTED_SPANS_LOCAL = (
    "bench.op", "core.generate", "core.compile", "sparql.parser.parse",
    "sparql.engine.plan", "sparql.evaluator.execute",
    "sparql.results.decode", "dataframe.build", "client.execute")
EXPECTED_SPANS_HTTP = (
    "bench.op", "core.generate", "core.translate", "sparql.parser.parse",
    "sparql.engine.plan", "sparql.evaluator.pull", "dataframe.build",
    "sparql.json_results.encode", "sparql.json_results.decode",
    "sparql.endpoint.request", "client.execute")

#: Largest share of a traced pipeline run its layers may leave
#: unattributed (time spent in no wrapped layer).
UNATTRIBUTED_MAX = 0.05


def _attribution_errors(samples) -> List[str]:
    """Per-layer self times must account for each traced pipeline run."""
    errors = []
    for item, records in samples.items():
        for record in records:
            loose = record["self"].get("bench", 0.0)
            if loose > UNATTRIBUTED_MAX * record["s"]:
                errors.append("%s %s: %.0f of %.0f ms in no layer" % (
                    item[0], item[1], 1000 * loose, 1000 * record["s"]))
    return errors
