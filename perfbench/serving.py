"""``serving_rw``: an open loop of reads and writes against the serving tier.

Independent users, so an open loop: operations arrive on a seeded
schedule at a fixed offered rate, whether or not earlier ones finished.
The rate alternates between ``nominal`` and ``peak`` every
``BLOCK_SECONDS``, so a slow stretch of the machine lands on both.  Reads
go to a ``QueryServer`` with a ``ResultCache``; they are drawn
zipf-distributed from a seeded population of parameterised RDFFrames-shaped
queries, more of them than the cache holds.  A fixed share of operations
are writes, made on the generator thread through the dbpedia graph, which
is attached to a WAL-logged ``GraphStore``; a checkpoint runs at a fixed
write count.  After the timed operations the store is flushed, closed and
reopened, and every acknowledged write must be back.

Writes attach a predicate no read matches to subjects the reads traverse,
so every expected answer stays fixed while each write still changes the
dataset fingerprint (re-planning, cache misses) and the indexes readers
walk.  Each write target carries one permanent triple of that predicate,
planted at set-up, so a write never adds or drops a key of a dict a
reader may be iterating: it only grows or shrinks a set no read scans.
"""

from __future__ import annotations

import bisect
import collections
import gc
import hashlib
import os
import random
import shutil
import time
from typing import Dict, List, Optional, Tuple

from . import common
from .common import Tally, now, percentile, quiesce
from .pipelines import EVALUATOR_COUNTS
from .trace import LAYERS, Tracer

#: Offered rates in operations per second, frozen where the server worker
#: was busy about a third and a half of the time on the seed commit; at
#: higher rates the latencies were too unsteady across runs to bound (see
#: README.md).
NOMINAL_RATE = 100.0
PEAK_RATE = 160.0
#: The offered rate switches between nominal and peak this often.
BLOCK_SECONDS = 2.0
#: Every this many operations, one is a write (a 5% share).
WRITE_EVERY = 20
#: The checkpoint runs at this write of every timed drive.
CHECKPOINT_AT = 20
#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10
#: Seconds of untimed open-loop traffic at the nominal rate ending the
#: warm-up, so timing starts with writes, re-planning and the WAL in
#: their steady state.
WARM_SECONDS = 2.0
#: Server worker threads (at most the machine's cores).
WORKERS = 1
#: Result cache size: the population below has more distinct queries.
CACHE_ENTRIES = 256
#: Zipf exponent of the read draws within a shape.
ZIPF_S = 1.0
#: The three query shapes the workload's definition names get equal
#: shares of the reads and equal numbers of distinct queries: 3 x 108 =
#: 324, more than the cache holds.  No trace of real traffic backs these
#: shares; they are a rule, not a calibration.  Every query is scoped to
#: one film or one director (about ten films), so queries of a shape cost
#: about the same and which of them the seed makes popular barely moves
#: the cost of the mix.
SHAPES = ("neighbourhood", "group", "window")
PER_SHAPE = 108
WINDOW_ROWS = 5

TAG = "http://perfbench.invalid/tag"
ANCHOR = "http://perfbench.invalid/anchor"
TAG_OBJECTS = 16


def population() -> Tuple[List[Tuple[str, str]], List[str]]:
    """(shape, SPARQL text) of every distinct read query, and the subjects
    the reads traverse.  Fixed, so its reference answers can be stored;
    the workload seed decides which queries are popular."""
    from repro.core import OPTIONAL, KnowledgeGraph
    from repro.data import DBPEDIA_URI

    kg = KnowledgeGraph(graph_uri=DBPEDIA_URI)
    pick = random.Random(0)
    films = pick.sample(range(3000), PER_SHAPE)
    directors = pick.sample(range(300), 2 * PER_SHAPE)
    queries = []
    for film in films:
        frame = kg.seed("dbpr:Film_%d" % film, "dbpp:starring", "actor") \
            .expand("actor", [("rdfs:label", "actor_name"),
                              ("dbpp:birthPlace", "birth_place", OPTIONAL)])
        queries.append(("neighbourhood", frame.to_sparql()))
    for director in directors[:PER_SHAPE]:
        frame = kg.seed("movie", "dbpp:director",
                        "dbpr:Director_%d" % director) \
            .expand("movie", [("dbpp:starring", "actor")]) \
            .group_by(["actor"]).count("movie", "n") \
            .filter({"n": [">=1"]})
        queries.append(("group", frame.to_sparql()))
    for director in directors[PER_SHAPE:]:
        frame = kg.seed("movie", "dbpp:director",
                        "dbpr:Director_%d" % director) \
            .expand("movie", [("rdfs:label", "title")]) \
            .sort({"title": "asc"}) \
            .head(WINDOW_ROWS)
        queries.append(("window", frame.to_sparql()))
    return queries, ["Film_%d" % f for f in films]


def query_key(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _zipf_cdf(n: int) -> List[float]:
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(n)]
    total, acc, cdf = sum(weights), 0.0, []
    for weight in weights:
        acc += weight
        cdf.append(acc / total)
    return cdf


def result_digest(result) -> str:
    """Digest of the answer's bag of solution mappings: each row is the
    set of its bound (variable, term) pairs, so a column that is unbound
    in every row does not count.  (For ``SELECT *`` the reference
    evaluator names only the variables some solution binds.)"""
    rows = (tuple(sorted((var, repr(term)) for var, term
                         in zip(result.variables, row) if term is not None))
            for row in result.rows)
    return common.bag_digest(["mapping"], ((row,) for row in rows))


class Phase:
    """What the generator saw during one open-loop drive."""

    def __init__(self):
        # due -> seen resolved, seconds, by offered rate, and the block
        # each read was sent in.
        self.reads: Dict[str, List[float]] = {"nominal": [], "peak": []}
        self.blocks: Dict[str, List[int]] = {"nominal": [], "peak": []}
        # Probe rounds the generator ran while waiting, by block.
        self.probes: Dict[int, List[float]] = collections.defaultdict(list)
        self.writes: List[float] = []    # due -> acknowledged, seconds
        self.late: List[float] = []      # how late each operation was sent
        self.tickets: List[Tuple[int, object]] = []
        self.pending = collections.deque()

    def harvest(self, until: Optional[float]) -> None:
        """Record reads resolved by ``until`` (``None``: wait for all).
        Blocks on the oldest outstanding read, so the wait releases the
        interpreter lock to the server's workers."""
        pending = self.pending
        while pending:
            ticket = pending[0][0]
            if not ticket.done():
                left = None if until is None else until - now()
                if left is not None and left <= 0:
                    return
                try:
                    ticket.error(timeout=left)
                except TimeoutError:
                    return
            seen = now()
            while pending and pending[0][0].done():
                ticket, due, index, rate, block = pending.popleft()
                self.reads[rate].append(seen - due)
                self.blocks[rate].append(block)
                self.tickets.append((index, ticket))

    def rescaled(self, rate: str) -> List[float]:
        """The read latencies at ``rate``, each rescaled to the reference
        speed by the probe's speed over its block."""
        probes = {block: common.speed(rounds)
                  for block, rounds in self.probes.items()}
        return [common.at_ref(latency, probes[block])
                for latency, block in zip(self.reads[rate],
                                          self.blocks[rate])]


class Serving:
    """One process's serving workload."""

    def __init__(self, seed: int):
        self.seed = seed
        self.tally = Tally()
        self.store_dir = common.out_path("store-%d" % os.getpid())
        self.engine = self.server = self.store = self.graph = None
        self.live: List[Tuple[int, int]] = []    # acknowledged tag pairs
        self.live_set = set()
        self.writes = 0
        self.user_bytes = 0
        self.checkpoint_s: Optional[float] = None

    # -- set-up --------------------------------------------------------
    def build(self) -> None:
        from repro.data import build_dataset
        from repro.sparql import Engine

        self.engine = Engine(build_dataset(
            scale=common.SCALE, seed=common.DATASET_SEED, use_cache=False))

    def setup(self) -> Dict[str, float]:
        """Build ``SETUP_REPEATS`` times and keep the last, attach the
        store, then warm up: every read once, then ``WARM_SECONDS`` of
        open-loop traffic.  Each part but the last is timed and rescaled
        to the reference speed; the traffic lasts a fixed wall time, so it
        is left out."""
        from repro.sparql import QueryServer, ResultCache

        builds = []
        for _ in range(common.SETUP_REPEATS):
            self.engine = None
            quiesce()
            with common.Timed() as build:
                self.build()
            builds.append(build.ref)
        with common.Timed() as store:
            self.attach_store()
        self.cache = ResultCache(max_entries=CACHE_ENTRIES)
        self.server = QueryServer(self.engine,
                                  workers=min(WORKERS, os.cpu_count() or 1),
                                  queue_size=1 << 16,
                                  result_cache=self.cache)
        with common.Timed() as warm:
            for index, text in enumerate(self.texts):
                self.check(index, self.server.submit(text))
        self.drive(WARM_SECONDS, stream=-1)
        common.freeze_setup()
        return {"build_s": common.median(builds), "store_s": store.ref,
                "warm_s": warm.ref}

    def attach_store(self) -> None:
        """Load the read population and its reference answers, plant the
        write targets' permanent triples, and attach the dbpedia graph to
        a fresh store with one checkpoint."""
        from repro.data import DBPEDIA_URI
        from repro.rdf import Literal, URIRef
        from repro.rdf.namespaces import DBPR
        from repro.storage import GraphStore

        queries, targets = population()
        self.texts = [text for _, text in queries]
        stored = common.load_json("expected.json")["serving"]
        self.expected = [stored.get(query_key(text)) for text in self.texts]
        if None in self.expected:
            raise RuntimeError("expected.json lacks reference answers for "
                               "the read population; run --write-expected")
        # Per shape: its queries in seeded popularity order and the zipf
        # distribution over that order.
        rng = random.Random(self.seed)
        self.shapes = []
        for shape in SHAPES:
            ranked = [i for i, (f, _) in enumerate(queries) if f == shape]
            rng.shuffle(ranked)
            self.shapes.append((ranked, _zipf_cdf(len(ranked))))
        self.graph = self.engine.dataset.graph(DBPEDIA_URI)
        self.tag = URIRef(TAG)
        self.tag_objects = [Literal("tag-%d" % j)
                            for j in range(TAG_OBJECTS)]
        self.targets = [DBPR[name] for name in targets]
        anchor_value = Literal("anchor")
        for obj in self.tag_objects:
            self.graph.add(URIRef(ANCHOR), self.tag, obj)
        for subject in self.targets:
            self.graph.add(subject, self.tag, anchor_value)
        self.planted = len(self.tag_objects) + len(self.targets)
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.store = GraphStore(self.store_dir)
        self.store.open()
        self.store.attach(self.graph)
        self.store.checkpoint()

    def check(self, index: int, ticket) -> None:
        error = ticket.error(timeout=60)
        if error is not None:
            self.tally.fail("read %d: %s: %s" % (index, type(error).__name__,
                                                 error))
        elif result_digest(ticket.result()) != self.expected[index]:
            self.tally.fail("read %d: answer differs from the reference "
                            "evaluator's" % index)
        else:
            self.tally.ok()

    # -- writes --------------------------------------------------------
    def write(self, rng: random.Random) -> None:
        """One add or remove of a tag triple; it is acknowledged when the
        graph call returns."""
        from repro.rdf.ntriples import serialize_triple

        if self.live and rng.random() < 0.5:
            slot = rng.randrange(len(self.live))
            pair = self.live[slot]
            self.live[slot] = self.live[-1]
            self.live.pop()
            self.live_set.discard(pair)
            mutate = self.graph.remove
        else:
            pair = (rng.randrange(len(self.targets)),
                    rng.randrange(TAG_OBJECTS))
            while pair in self.live_set:
                pair = (rng.randrange(len(self.targets)),
                        rng.randrange(TAG_OBJECTS))
            self.live.append(pair)
            self.live_set.add(pair)
            mutate = self.graph.add
        triple = (self.targets[pair[0]], self.tag, self.tag_objects[pair[1]])
        if mutate(*triple):
            self.tally.ok()
        else:
            self.tally.fail("write %d was not applied" % self.writes)
        self.writes += 1
        self.user_bytes += len(serialize_triple(triple).encode())

    def checkpoint(self) -> None:
        start = now()
        self.store.checkpoint()
        self.checkpoint_s = now() - start

    # -- the open loop -------------------------------------------------
    def draw(self, rng: random.Random) -> int:
        """One read: a shape (equal shares), then a query of it by zipf
        rank."""
        ranked, cdf = self.shapes[rng.randrange(len(self.shapes))]
        rank = bisect.bisect_left(cdf, rng.random())
        return ranked[min(rank, len(ranked) - 1)]

    def schedule(self, seconds: float, stream: int
                 ) -> List[Tuple[float, int, str]]:
        """(due offset, query index or -1 for a write, offered rate) per
        operation.

        The rate is nominal in even and peak in odd ``BLOCK_SECONDS``
        blocks.  Gaps jitter uniformly around ``1 / rate``, so the offered
        load is steady at the scale of a stall instead of Poisson-bursty;
        every ``WRITE_EVERY``-th operation is a write."""
        rng = random.Random(self.seed * 1000 + stream)
        ops: List[Tuple[float, int, str]] = []
        due = 0.0
        while True:
            peak = int(due // BLOCK_SECONDS) % 2 == 1
            due += rng.uniform(0.5, 1.5) / (PEAK_RATE if peak
                                            else NOMINAL_RATE)
            if due >= seconds:
                return ops
            write = (len(ops) + 1) % WRITE_EVERY == 0
            ops.append((due, -1 if write else self.draw(rng),
                        "peak" if peak else "nominal"))

    def drive(self, seconds: float, stream: int,
              tracer: Optional[Tracer] = None,
              checkpoint_at: Optional[int] = None) -> "Phase":
        """Offer the alternating rates for ``seconds``.

        Arrival times, operation kinds, query draws and write targets all
        come from the workload seed and ``stream``, so the same seed gives
        the same operations.  The drive's write number ``checkpoint_at``
        is followed by a checkpoint.  The cyclic collector is off while
        the drive runs, so a full collection's pause, whose timing depends
        on what the harness keeps alive, lands between drives instead.

        While it waits for the next arrival, the generator runs a probe
        round at most every ``SAMPLE_EVERY`` seconds (and at least once a
        block), to rescale the block's latencies to the reference speed."""
        phase = Phase()
        ops = self.schedule(seconds, stream)
        write_rng = random.Random(self.seed * 1000 + stream + 500)
        quiesce()
        gc.disable()
        try:
            start = now() + 0.01
            sampled = start
            for serial, (offset, index, rate) in enumerate(ops):
                block = int(offset // BLOCK_SECONDS)
                due = start + offset
                phase.harvest(due)
                if now() - sampled >= common.SAMPLE_EVERY or \
                        block not in phase.probes:
                    phase.probes[block].append(common.probe_round())
                    sampled = now()
                wait = due - now()
                if wait > 0:
                    time.sleep(wait)
                phase.late.append(max(0.0, now() - due))
                if index >= 0:
                    ticket = self.server.submit(self.texts[index])
                    phase.pending.append((ticket, due, index, rate, block))
                    continue
                if tracer is not None:
                    tracer.set_request("w%d-%d" % (stream, serial))
                self.write(write_rng)
                phase.writes.append(now() - due)
                if len(phase.writes) == checkpoint_at:
                    self.checkpoint()
            phase.harvest(None)
        finally:
            gc.enable()
        for index, ticket in phase.tickets:
            self.check(index, ticket)
        return phase

    # -- the end of the run ----------------------------------------------
    def recover(self) -> Dict[str, float]:
        """Flush, close, reopen; every acknowledged write must be back."""
        from repro.data import DBPEDIA_URI
        from repro.storage import GraphStore

        start = now()
        self.store.flush()
        flush_s = now() - start
        self.server.shutdown()
        self.store.close()
        counters = dict(self.store.counters)
        reopened = GraphStore(self.store_dir)
        start = now()
        report = reopened.open()
        recover_s = now() - start
        try:
            graph = reopened.graph(DBPEDIA_URI)
            want = len(self.live) + self.planted
            have = graph.count(predicate=self.tag)
            if len(graph) != len(self.graph) or have != want:
                self.tally.fail(
                    "reopened store: %d triples (%d tagged), want %d (%d)"
                    % (len(graph), have, len(self.graph), want))
            for s, j in self.live:
                if (self.targets[s], self.tag, self.tag_objects[j]) \
                        not in graph:
                    self.tally.fail("acknowledged write lost on reopen")
                    break
        finally:
            reopened.close()
            shutil.rmtree(self.store_dir, ignore_errors=True)
        return {"flush_s": flush_s, "recover_s": recover_s,
                "replayed": report.replayed_records,
                "wal_bytes": counters["wal_bytes"],
                "wal_fsyncs": counters["wal_fsyncs"]}


def _latencies(phase: Phase) -> Dict[str, Tuple[float, int, int]]:
    """name -> (seconds, samples, samples beyond) of the drive's read and
    write latencies and the generator's lateness."""
    nominal, peak = phase.reads["nominal"], phase.reads["peak"]

    def at(values, q):
        return (percentile(values, q), len(values),
                int(len(values) * (100 - q) / 100))

    return {
        "serve_p50_ms": at(nominal, 50),
        "serve_p99_ms": at(nominal, 99),
        "serve_peak_p50_ms": at(peak, 50),
        "serve_peak_p99_ms": at(peak, 99),
        "write_p90_ms": at(phase.writes, 90),
        "generator_lateness_p99_ms": at(phase.late, 99),
    }


def run(seed: int, seconds: float, traced: bool) -> Dict:
    """One run of ``serving_rw``: ``seconds`` of operations, untraced,
    give the latencies; with ``traced``, another ``seconds`` of traced
    operations follow and give the per-layer figures."""
    bench = Serving(seed)
    setup = bench.setup()
    plain = bench.drive(seconds, 0, checkpoint_at=CHECKPOINT_AT)
    serve = _latencies(plain)
    # The latencies a user sees, not rescaled.
    notes = {name: (1000 * value, count)
             for name, (value, count, _) in serve.items()}
    rounds = [r for block in plain.probes.values() for r in block]
    notes["host.probe_ms"] = (1000 * common.median(rounds), len(rounds))
    work = common.median(plain.rescaled("nominal"))
    beyond = min(n for _, _, n in serve.values())
    errors: List[str] = []
    if beyond < MIN_BEYOND:
        errors.append("a percentile has %d samples beyond it, fewer than "
                      "%d: run longer" % (beyond, MIN_BEYOND))
    layer: Dict[str, float] = {}
    if traced:
        stats0 = bench.server.stats.as_dict()
        plan0 = (bench.engine.plan_cache_hits, bench.engine.plan_cache_misses)
        with Tracer() as tracer:
            traced_phase = bench.drive(seconds, 1, tracer,
                                       checkpoint_at=CHECKPOINT_AT)
            recovery = bench.recover()
        layer.update(_traced_layers(bench, tracer, traced_phase.tickets,
                                    stats0, plan0))
        layer["trace.overhead_ms"] = \
            1000 * (common.median(traced_phase.rescaled("nominal")) - work)
        missing = [s for s in EXPECTED_SPANS if tracer.calls[s] == 0]
        if missing:
            errors.append("no spans recorded for: %s" % ", ".join(missing))
        tracer.dump(common.out_path("spans-serving_rw-%d.jsonl" % seed))
    else:
        recovery = bench.recover()
    layer.update({name: value for name, (value, _) in notes.items()})
    layer.update({
        "recover_s": recovery["recover_s"],
        "data.build_s": setup["build_s"],
        "failed_share": bench.tally.failed / max(1, bench.tally.attempted),
        "samples_min": beyond,
        "storage.wal_bytes_per_user_byte":
            recovery["wal_bytes"] / max(1, bench.user_bytes),
        "storage.wal_fsyncs": recovery["wal_fsyncs"],
        "storage.flush_ms": 1000 * recovery["flush_s"],
        "storage.checkpoint_ms": 1000 * (bench.checkpoint_s or 0.0),
        "storage.open_ms": 1000 * recovery["recover_s"],
        "storage.replayed_records": recovery["replayed"],
    })
    e2e = {
        "setup_s": common.metric(sum(setup.values()), "s"),
        "peak_rss_mb": common.metric(common.peak_rss_mb(), "MB"),
        "ok_share": common.metric(bench.tally.share_ok(), "share"),
        "work_ms": common.metric(1000 * work, "ms"),
        "heavy_ms": common.metric(
            1000 * common.median(plain.rescaled("peak")), "ms"),
    }
    return {"e2e": e2e, "layer": layer, "tally": bench.tally,
            "errors": errors, "notes": notes, "setup": setup}


#: Spans a traced serving run must record.
EXPECTED_SPANS = (
    "sparql.server.run", "sparql.engine.plan", "sparql.parser.parse",
    "sparql.cache.get", "sparql.cache.put", "sparql.evaluator.execute",
    "sparql.results.decode", "rdf.graph.write", "storage.wal_append",
    "storage.flush", "storage.checkpoint", "storage.open", "storage.close")


def _traced_layers(bench: Serving, tracer: Tracer, tickets, stats0: Dict,
                   plan0) -> Dict[str, float]:
    """Per-layer figures of the traced phases, per read where a time."""
    tickets = [t for _, t in tickets]
    reads = max(1, len(tickets))
    stats1 = bench.server.stats.as_dict()

    def delta(field):
        return stats1[field] - stats0[field]

    lookups = delta("cache_hits") + delta("cache_misses") + delta("coalesced")
    plan_hits = bench.engine.plan_cache_hits - plan0[0]
    plan_misses = bench.engine.plan_cache_misses - plan0[1]
    waits = [t.waited for t in tickets if t.waited is not None]
    executed = [t.stats for t in tickets
                if t.cache_state == "miss" and t.stats is not None]
    totals = collections.Counter()
    for _, name, start, end, _, _ in tracer.spans:
        totals[name] += end - start
    # Generator-side writes only: recovery replays through Graph.add too.
    writes = [end - start for _, name, start, end, _, request
              in tracer.spans if name == "rdf.graph.write"
              and str(request).startswith("w")]

    def per_read_ms(name):
        return 1000 * totals[name] / reads

    out = {
        "sparql.parser.parse_ms": per_read_ms("sparql.parser.parse"),
        "sparql.engine.plan_ms": per_read_ms("sparql.engine.plan"),
        "sparql.engine.plan_cache_hit_ratio":
            plan_hits / max(1, plan_hits + plan_misses),
        "sparql.evaluator.execute_ms":
            per_read_ms("sparql.evaluator.execute")
            - per_read_ms("sparql.results.decode"),
        "sparql.results.decode_ms": per_read_ms("sparql.results.decode"),
        "sparql.server.queue_wait_p50_ms": 1000 * common.median(waits),
        "sparql.server.queue_wait_p99_ms": 1000 * percentile(waits, 99),
        "sparql.server.exec_ms": per_read_ms("sparql.server.run"),
        "sparql.server.shed": delta("shed"),
        "sparql.cache.hit_ratio": delta("cache_hits") / max(1, lookups),
        "sparql.cache.evictions": delta("cache_evictions"),
        "sparql.cache.coalesced": delta("coalesced"),
        "rdf.graph.write_us": 1e6 * sum(writes) / max(1, len(writes)),
        "trace.spans": len(tracer.spans),
    }
    for name in EVALUATOR_COUNTS:
        out["sparql.evaluator." + name] = sum(
            getattr(s, name) for s in executed) / max(1, len(executed))
    self_times = tracer.self_times()
    for name in LAYERS:
        out["self.%s_ms" % name] = 1000 * self_times.get(name, 0.0) / reads
    return out
