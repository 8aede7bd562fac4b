"""Span recording from outside the program.

The benchmark does not edit the program: a traced run replaces the public
entry point of each layer with a wrapper that records a span around the
call.  Each span keeps its name, start, end, parent span and request id;
spans stay in memory and are written out when the run ends.  Where a
module binds a name at import (``engine.py`` imports ``parse`` from the
parser), the wrapper goes on the name the caller resolves.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import threading
from typing import Callable, Dict, List, Optional, Tuple

from .common import now

#: Span name -> layer (module name) it belongs to.
LAYER_OF = {
    "core.generate": "core",
    "core.compile": "core",
    "core.translate": "core",
    "sparql.parser.parse": "sparql.parser",
    "sparql.engine.plan": "sparql.engine",
    "sparql.evaluator.execute": "sparql.evaluator",
    "sparql.evaluator.open": "sparql.evaluator",
    "sparql.evaluator.pull": "sparql.evaluator",
    "sparql.results.decode": "sparql.results",
    "dataframe.build": "dataframe",
    "sparql.json_results.encode": "sparql.json_results",
    "sparql.json_results.decode": "sparql.json_results",
    "sparql.endpoint.request": "sparql.endpoint",
    "client.execute": "client",
    "sparql.server.run": "sparql.server",
    "sparql.cache.get": "sparql.cache",
    "sparql.cache.put": "sparql.cache",
    "rdf.graph.write": "rdf",
    "storage.wal_append": "storage",
    "storage.flush": "storage",
    "storage.checkpoint": "storage",
    "storage.open": "storage",
    "storage.close": "storage",
    "bench.op": "bench",
}
LAYERS = sorted(set(LAYER_OF.values()))

# A recorded span: (id, name, start, end, parent id, request id).
Span = Tuple[int, str, float, float, Optional[int], object]


class Tracer:
    """Records spans and counts from wrappers installed on the program."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = collections.Counter()
        self.calls: Dict[str, int] = collections.Counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def set_request(self, request) -> None:
        self._local.request = request

    def request(self):
        return getattr(self._local, "request", None)

    def record(self, name: str, start: float, end: float,
               parent: Optional[int]) -> int:
        sid = next(self._ids)
        self.spans.append((sid, name, start, end, parent, self.request()))
        self.calls[name] += 1
        return sid

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; returns
        ``(result, span id, start, end)``."""
        local = self._local
        parent = getattr(local, "top", None)
        sid = next(self._ids)
        local.top = sid
        start = now()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = now()
            local.top = parent
            self.spans.append((sid, name, start, end, parent, self.request()))
            self.calls[name] += 1
        return result, sid, start, end

    # -- installation --------------------------------------------------
    def wrap(self, owner, attr: str, name: str,
             on_exit: Optional[Callable] = None,
             request_of: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_exit(tracer, args, result, span_id, start, end)`` runs after a
        successful call; ``request_of(args)`` names the request a call
        serves, for calls that start a request on another thread."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if request_of is not None:
                tracer.set_request(request_of(args))
            result, sid, start, end = tracer.run(name, original, *args,
                                                 **kwargs)
            if on_exit is not None:
                on_exit(tracer, args, result, sid, start, end)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        install(self)
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ------------------------------------------------------
    def self_times(self, request=None) -> Dict[str, float]:
        """Seconds of self time per layer: each span's duration minus
        the part its child spans cover, summed by layer.  With
        ``request`` given, only that request's spans count."""
        spans = self.spans if request is None else \
            [s for s in self.spans if s[5] == request]
        child_time: Dict[int, float] = collections.Counter()
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, float] = collections.Counter()
        for sid, name, start, end, _, _ in spans:
            out[LAYER_OF[name]] += (end - start) - child_time.get(sid, 0.0)
        return out

    def span_seconds(self, request) -> Dict[str, float]:
        """Seconds per span name, summed over one request's spans."""
        out: Dict[str, float] = collections.Counter()
        for _, name, start, end, _, req in self.spans:
            if req == request:
                out[name] += end - start
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as handle:
            for sid, name, start, end, parent, request in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request}) + "\n")


def _after_evaluate(tracer: Tracer, args, result, sid, start, end) -> None:
    """``Engine.evaluate_plan`` returns its evaluator-only elapsed time;
    the rest of its wall time is ``ResultSet.from_table`` decoding, which
    becomes a child span of its own."""
    elapsed = result[2]
    tracer.record("sparql.results.decode", start + elapsed, end, sid)


def _after_encode(tracer: Tracer, args, result, sid, start, end) -> None:
    # json.dumps escapes to ASCII, so characters are bytes.
    tracer.counts["sparql.json_results.bytes"] += len(result)


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry point the workloads reach."""
    from repro.client import clients
    from repro.core import compiler, generator, rdfframe
    from repro.rdf import graph
    from repro.sparql import (cache, endpoint, engine, json_results,
                              results, server)
    from repro.storage import store, wal

    wrap = tracer.wrap
    wrap(generator.Generator, "generate", "core.generate")
    wrap(compiler, "compile_model", "core.compile")
    wrap(rdfframe, "translate", "core.translate")
    wrap(engine, "parse", "sparql.parser.parse")
    wrap(engine.Engine, "plan", "sparql.engine.plan")
    wrap(engine.Engine, "evaluate_plan", "sparql.evaluator.execute",
         on_exit=_after_evaluate)
    wrap(engine.Engine, "stream", "sparql.evaluator.open")
    wrap(results.ResultStream, "fetch_until", "sparql.evaluator.pull")
    wrap(results.ResultSet, "to_dataframe", "dataframe.build")
    wrap(json_results, "encode_results", "sparql.json_results.encode",
         on_exit=_after_encode)
    wrap(json_results, "decode_results", "sparql.json_results.decode")
    wrap(endpoint.Endpoint, "request", "sparql.endpoint.request")
    wrap(clients.EngineClient, "execute", "client.execute")
    wrap(clients.EngineClient, "execute_model", "client.execute")
    wrap(clients.HttpClient, "execute", "client.execute")
    wrap(server.QueryServer, "_run_ticket", "sparql.server.run",
         request_of=lambda args: args[1].id)
    wrap(cache.ResultCache, "get", "sparql.cache.get")
    wrap(cache.ResultCache, "put", "sparql.cache.put")
    wrap(graph.Graph, "add", "rdf.graph.write")
    wrap(graph.Graph, "remove", "rdf.graph.write")
    wrap(wal.WriteAheadLog, "append", "storage.wal_append")
    wrap(store.GraphStore, "flush", "storage.flush")
    wrap(store.GraphStore, "checkpoint", "storage.checkpoint")
    wrap(store.GraphStore, "open", "storage.open")
    wrap(store.GraphStore, "close", "storage.close")
