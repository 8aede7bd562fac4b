"""Bottom-up evaluation of SPARQL algebra with bag semantics — columnar.

Implements the semantics summarized in Section 5.2 of the paper.  The
evaluator is deliberately structured the way the paper's cost model assumes:

* A :class:`~.algebra.BGP` is evaluated as an index-nested-loop join over
  the graph's SPO/POS/OSP indexes, with join order chosen by the optimizer
  and bindings propagated pattern-to-pattern.  Flat queries are cheap.
* A nested SELECT (:class:`~.algebra.Project` below the root) is always
  *materialized independently* — no bindings flow into it — and then
  hash-joined with its siblings.  This is exactly why the paper's naive
  one-subquery-per-operator queries are slow, and it makes the engine
  reproduce the naive-vs-optimized gap of Figures 3 and 5.

The data plane is *dictionary-encoded and columnar*: solutions are
:class:`~.solution.SolutionTable` objects (schema header + rows of dense
integer term ids), pattern matching runs on :meth:`Graph.triples_ids`,
joins hash ints, and RDF term objects are materialized only at the result
boundary or lazily inside expression evaluation (:class:`~.solution.RowView`).
The original dict-based evaluator survives as
:class:`~.reference.ReferenceEvaluator` for differential tests and the
perf-report baseline.

The data plane has two execution modes over the same operators:

* the *materialized* mode (``evaluate``/``evaluate_query``): every operator
  returns a fully-built :class:`SolutionTable` — the differential oracle
  and the default for unbounded queries;
* the *streaming* mode (``stream``/``evaluate_query_stream``): operators
  produce/consume :class:`~.solution.TableStream` iterators of row
  batches, materializing only at pipeline breakers (hash-join build sides,
  ``Minus``, full ``OrderBy``).  A bounded consumer — ``Slice`` with a
  limit, or the fused bounded-sort ``TopK`` — stops upstream row
  production by not pulling, so ``LIMIT``-topped queries exit early
  instead of materializing the full intermediate result.  ``Group`` is a
  *streaming hash aggregation*: it consumes its child stream batch by
  batch into per-group accumulator states (no input table exists) and the
  single-pattern COUNT shape is answered straight from the graph indexes
  without producing rows at all (:meth:`Evaluator._fast_group_count`).
  The ``rows_pulled``/``early_exits``/``peak_batch_rows``/``groups_built``
  counters on :class:`EvaluationStats` make the short-circuiting
  observable.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import Counter
from itertools import chain, repeat
from decimal import Decimal
from typing import Dict, List, Optional, Tuple, Union

from ..rdf.dataset import Dataset
from ..rdf.terms import (XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER, Literal,
                         Variable)
from . import algebra as alg
from .expressions import ExpressionError, VarExpr, ebv
from .optimizer import (GraphStatistics, generic_join_order,
                        intersection_worthwhile, order_patterns,
                        run_signature, run_width)
from .solution import (ColumnBatch, ProbeIndex, RowView, SolutionTable,
                       TableStream, _merge_plan, batched, probe_join,
                       probe_left_join, stream_distinct, table_distinct,
                       table_join, table_left_join, table_minus,
                       table_project, table_union)
from .vector import compile_predicate, expand_columns, replicate

#: Target rows per streamed batch.  Bounded consumers shrink it (a
#: ``LIMIT 10`` pulls batches of ~10), so early exit is row-accurate.
STREAM_BATCH_ROWS = 512


class EvaluationError(RuntimeError):
    """Raised when a query cannot be evaluated (e.g. missing graph)."""


class RowBudgetExceeded(EvaluationError):
    """The ``max_rows`` safety valve tripped.

    Distinguished from plain :class:`EvaluationError` so the serving tier
    can classify it as ``ResourceExhausted`` (deterministic — a retry runs
    the same query into the same wall) instead of a malformed query.
    """


class QueryTimeout(RuntimeError):
    """Raised when a query exceeds the engine's time budget.

    With a ``deadline`` set on the evaluator this trips *mid-query* — the
    pattern matcher checks the clock while rows are being produced — so a
    runaway cross product is abandoned instead of run to completion.
    """


def _synopses_built(graph) -> int:
    """Total statistics synopses built on a graph, union views included
    (a union's member builds land on the member counters)."""
    total = getattr(graph, "synopses_built", 0)
    for member in getattr(graph, "graphs", ()):
        total += member.synopses_built
    return total


class EvaluationStats:
    """Counters exposed for tests and the ablation benchmarks."""

    def __init__(self):
        self.bgp_count = 0
        self.bgp_cache_hits = 0
        self.pattern_matches = 0
        self.intermediate_rows = 0
        self.materialized_subqueries = 0
        self.joins = 0
        # Streaming-executor counters.  ``rows_pulled`` counts every row
        # crossing an operator's stream boundary (a row passing through k
        # streaming operators counts k times); on an early-exiting query it
        # stays near k * LIMIT instead of the intermediate cardinality.
        # ``early_exits`` counts operators that stopped pulling from their
        # child because a row bound was satisfied; ``peak_batch_rows`` is
        # the largest single batch seen (breakers emit one table-sized
        # batch, pipelined operators stay at the configured batch size).
        self.rows_pulled = 0
        self.early_exits = 0
        self.peak_batch_rows = 0
        # Aggregation counters.  ``groups_built`` counts distinct groups
        # materialized by Group operators (hash entries or index-backed
        # groups); ``accumulator_rows`` counts input rows folded into
        # streaming per-group accumulator states — the streaming Group's
        # working-set proxy (the index-backed fast path folds zero).
        self.groups_built = 0
        self.accumulator_rows = 0
        # Join-subsystem counters.  ``sip_filtered_rows`` counts candidate
        # bindings a sideways-information-passing filter dropped at a BGP
        # leaf (rows that never existed thanks to a join build side's
        # exported key set); ``intersect_steps`` counts k-way sorted-run
        # intersections executed by multiway BGP steps (one per input row
        # per intersection step); ``sorted_runs_built`` counts sorted runs
        # lazily built on the graphs this query touched (cached runs
        # reused by later queries count zero).
        self.sip_filtered_rows = 0
        self.intersect_steps = 0
        self.sorted_runs_built = 0
        # Generic-join (WCOJ) counters.  ``wcoj_steps`` counts input rows
        # processed by generic-join variable-binding levels (each level is
        # a k-way sorted-run intersection; its internal probes also bump
        # ``intersect_steps``); ``synopsis_builds`` counts statistics
        # synopses (characteristic sets, per-predicate synopses) lazily
        # built on the graphs this query touched during evaluation —
        # synopses already built (at plan time or by earlier queries)
        # count zero, like the sorted runs.
        self.wcoj_steps = 0
        self.synopsis_builds = 0
        # Vectorized-plane counters.  ``vector_batches`` counts
        # ColumnBatch objects crossing the root stream boundary;
        # ``selection_vector_hits`` counts batches filtered by a compiled
        # id-predicate (no row view, no term decode);  ``row_fallbacks``
        # counts transpositions back to row form forced by a cold
        # operator — zero on a pure-id plan, where every batch stays
        # columnar from the BGP to the stream boundary.
        self.vector_batches = 0
        self.selection_vector_hits = 0
        self.row_fallbacks = 0
        # ``join_candidates`` counts the build rows the join probe kernel
        # (:class:`~.solution.ProbeIndex`) handed back across all probes
        # of Join, LeftJoin, MINUS and EXISTS — the operators' work, which
        # stays linear in their inputs plus output.
        self.join_candidates = 0

    def __repr__(self):
        return ("EvaluationStats(bgps=%d, cache_hits=%d, matches=%d, "
                "rows=%d, subqueries=%d, joins=%d, pulled=%d, "
                "early_exits=%d, peak_batch=%d, groups=%d, acc_rows=%d, "
                "sip_filtered=%d, intersects=%d, runs_built=%d, "
                "wcoj=%d, synopses=%d, "
                "vector_batches=%d, sel_hits=%d, fallbacks=%d, "
                "join_candidates=%d)" % (
                    self.bgp_count, self.bgp_cache_hits,
                    self.pattern_matches, self.intermediate_rows,
                    self.materialized_subqueries, self.joins,
                    self.rows_pulled, self.early_exits,
                    self.peak_batch_rows, self.groups_built,
                    self.accumulator_rows, self.sip_filtered_rows,
                    self.intersect_steps, self.sorted_runs_built,
                    self.wcoj_steps, self.synopsis_builds,
                    self.vector_batches, self.selection_vector_hits,
                    self.row_fallbacks, self.join_candidates))

    def as_dict(self) -> Dict[str, int]:
        return {"bgp_count": self.bgp_count,
                "bgp_cache_hits": self.bgp_cache_hits,
                "pattern_matches": self.pattern_matches,
                "intermediate_rows": self.intermediate_rows,
                "materialized_subqueries": self.materialized_subqueries,
                "joins": self.joins,
                "rows_pulled": self.rows_pulled,
                "early_exits": self.early_exits,
                "peak_batch_rows": self.peak_batch_rows,
                "groups_built": self.groups_built,
                "accumulator_rows": self.accumulator_rows,
                "sip_filtered_rows": self.sip_filtered_rows,
                "intersect_steps": self.intersect_steps,
                "sorted_runs_built": self.sorted_runs_built,
                "wcoj_steps": self.wcoj_steps,
                "synopsis_builds": self.synopsis_builds,
                "vector_batches": self.vector_batches,
                "selection_vector_hits": self.selection_vector_hits,
                "row_fallbacks": self.row_fallbacks,
                "join_candidates": self.join_candidates}


class Evaluator:
    """Evaluates an algebra tree against a dataset on the columnar plane."""

    def __init__(self, dataset: Dataset, optimize: bool = True,
                 max_rows: Optional[int] = None, cache_bgps: bool = True,
                 deadline: Optional[float] = None,
                 sip: Union[bool, str] = "auto",
                 multiway: Union[bool, str] = "auto",
                 wcoj: Union[bool, str] = "auto",
                 cancel=None, vectorize: bool = False):
        self.dataset = dataset
        self.optimize = optimize
        self.max_rows = max_rows  # safety valve for runaway queries
        # Absolute time.perf_counter() deadline; checked between operators
        # and inside the pattern matcher's row production.
        self.deadline = deadline
        # Cooperative cancellation: a CancelToken checked at the same
        # checkpoints as the deadline, so a disconnecting client kills its
        # query mid-operator instead of running it to completion.
        self.cancel = cancel
        self.cache_bgps = cache_bgps
        # Sideways information passing and multiway intersection knobs.
        # ``'auto'`` follows the planner's JoinStrategy annotations
        # (``sip_eligible`` on join nodes, ``strategy`` on BGPs); True
        # forces the technique wherever structurally possible; False
        # disables it — the PR-4 behaviour the joins benchmark measures
        # against.
        self.sip = sip
        self.multiway = multiway
        # Generic-join (WCOJ) knob, same contract: ``'auto'`` runs a BGP
        # the planner annotated ``strategy='wcoj'`` as a generic join
        # (unless ``multiway=False`` — the all-intersections-off baseline
        # keeps every run-intersection counter at zero); True forces
        # generic join on any structurally eligible BGP; False falls back
        # to the annotated intersect/nested-loop plan.
        self.wcoj = wcoj
        # Columnar data plane: when True the streaming executor exchanges
        # ColumnBatch objects between the operators that have a
        # column-at-a-time form, transposing back to row tuples only where
        # a cold operator (complex expression, OrderBy, Minus, joins'
        # probe) needs row view.  Routing is the engine's job
        # (``vectorize='auto'`` consults the plan annotation); the
        # evaluator just obeys the flag.
        self.vectorize = vectorize
        # Active sideways filters: variable name -> set of admissible term
        # ids, installed by join operators around their probe side and
        # consulted by the BGP pattern steps.  Always {} at quiescence.
        self._sip: Dict[str, set] = {}
        self.stats = EvaluationStats()
        self.dictionary = None  # set when the query's graphs are resolved
        self._stats_cache: Dict[int, GraphStatistics] = {}
        # Common-subexpression cache: identical BGPs (e.g. the repeated
        # pattern inside a full-outer-join's UNION branches) are evaluated
        # once per query.  Cached tables are never mutated downstream
        # (every operator builds fresh row lists), so sharing is safe.
        self._bgp_cache: Dict[Tuple, SolutionTable] = {}

    # ------------------------------------------------------------------
    def evaluate_query(self, query: alg.Query,
                       default_graph_uri: Optional[str] = None
                       ) -> SolutionTable:
        graph = self._resolve_graphs(query.from_graphs, default_graph_uri)
        self.dictionary = graph.dictionary
        before = _synopses_built(graph)
        try:
            return self.evaluate(query.pattern, graph, top=True)
        finally:
            self.stats.synopsis_builds += _synopses_built(graph) - before

    def _resolve_graphs(self, from_graphs: List[str],
                        default_graph_uri: Optional[str]):
        if from_graphs:
            missing = [u for u in from_graphs if u not in self.dataset]
            if missing:
                raise EvaluationError("unknown graph(s): %s" % ", ".join(missing))
            if len(from_graphs) == 1:
                return self.dataset.graph(from_graphs[0])
            return self.dataset.union_view(from_graphs)
        if default_graph_uri is not None:
            return self.dataset.graph(default_graph_uri)
        graphs = list(self.dataset)
        if len(graphs) == 1:
            return graphs[0]
        return self.dataset.union_view()

    # ------------------------------------------------------------------
    def evaluate(self, node: alg.AlgebraNode, graph,
                 top: bool = False) -> SolutionTable:
        if self.cancel is not None:
            self.cancel.raise_if_cancelled()
        if self.deadline is not None \
                and time.perf_counter() > self.deadline:
            raise QueryTimeout("query exceeded its time budget at %r" % node)
        method = getattr(self, "_eval_%s" % type(node).__name__.lower(), None)
        if method is None:
            raise EvaluationError("cannot evaluate %r" % node)
        if isinstance(node, alg.Project) and not top:
            self.stats.materialized_subqueries += 1
        result = method(node, graph)
        self.stats.intermediate_rows += len(result.rows)
        if self.max_rows is not None and len(result.rows) > self.max_rows:
            raise RowBudgetExceeded("intermediate result exceeds max_rows=%d"
                                  % self.max_rows)
        return result

    # ------------------------------------------------------------------
    # Pattern evaluation
    # ------------------------------------------------------------------
    def _graph_stats(self, graph) -> GraphStatistics:
        key = id(graph)
        stats = self._stats_cache.get(key)
        if stats is None or not stats.fresh():
            stats = GraphStatistics(graph)
            self._stats_cache[key] = stats
        return stats

    # -- strategy / SIP routing ----------------------------------------

    def _bgp_intersect(self, node: alg.BGP) -> bool:
        """Should this BGP compile with multiway intersection steps?

        A BGP the planner routed to generic join (``strategy='wcoj'``)
        falls back to intersection when the ``wcoj`` knob is off *and*
        the planner recorded that the multiway gate would also have
        fired (``intersect_ok``) — so a ``wcoj=False`` engine keeps the
        pre-WCOJ intersection plan rather than dropping to nested-loop.
        """
        mode = self.multiway
        if mode is True:
            return True
        if mode != "auto":
            return False
        strategy = getattr(node, "strategy", None)
        if strategy == "intersect":
            return True
        return strategy == "wcoj" and getattr(node, "intersect_ok", False)

    def _wcoj_order(self, node: alg.BGP, graph):
        """The elimination order generic join should use for this BGP,
        or ``None`` when the BGP runs on another strategy.

        ``wcoj='auto'`` follows the planner's annotation (suppressed
        under ``multiway=False``, the run-intersections-off baseline);
        ``wcoj=True`` forces generic join on any structurally eligible
        BGP, computing an order on the spot when the plan carries none.
        """
        if self.wcoj is False:
            return None
        if not hasattr(graph, "objects_run"):
            return None
        order = getattr(node, "eliminate", None)
        if self.wcoj is True:
            if order is None and len(node.triples) > 1:
                order = generic_join_order(node.triples,
                                           self._graph_stats(graph))
            return tuple(order) if order else None
        if self.multiway is False:
            return None
        if getattr(node, "strategy", None) == "wcoj" and order:
            return tuple(order)
        return None

    def _use_sip(self, node) -> bool:
        """Should this join export sideways filters to its probe side?"""
        mode = self.sip
        if mode is True:
            return True
        return mode == "auto" and getattr(node, "sip_eligible", False)

    def _sip_touches(self, patterns) -> bool:
        """True when an active sideways filter names a pattern variable
        (such BGPs bypass the BGP cache: their result depends on the
        filter, not just the pattern set)."""
        sip = self._sip
        if not sip:
            return False
        for triple in patterns:
            for term in triple:
                if isinstance(term, Variable) and term.name in sip:
                    return True
        return False

    def _sip_exports(self, table: SolutionTable, probe) -> Optional[Dict]:
        """The join-key id-sets a build side exports toward a probe.

        One set per variable that (a) the probe has in scope and (b) is
        bound in *every* build row — an unbound build cell joins with any
        probe value, so such variables export nothing.  A probe candidate
        whose id is outside the set cannot join any build row, which is
        what lets the BGP leaves drop it before a row exists.
        """
        if not table.rows:
            return None
        probe_vars = set(probe.in_scope())
        exports: Dict[str, set] = {}
        for pos, var in enumerate(table.variables):
            if var not in probe_vars:
                continue
            values = set()
            add = values.add
            bound_everywhere = True
            for row in table.rows:
                tid = row[pos]
                if tid is None:
                    bound_everywhere = False
                    break
                add(tid)
            if bound_everywhere:
                exports[var] = values
        return exports or None

    def _sip_merge(self, exports: Dict) -> Dict:
        """Merge fresh exports into the active scope.  A variable filtered
        by two enclosing joins keeps the intersection of both sets."""
        if not self._sip:
            return exports
        merged = dict(self._sip)
        for var, values in exports.items():
            prev = merged.get(var)
            merged[var] = values if prev is None else (prev & values)
        return merged

    def _order_for_sip(self, patterns, graph):
        """Re-order a sideways-filtered BGP so the filtered leaves lead.

        The plan-time join order was chosen without knowing the build
        side's key sets; with them in hand, a pattern binding a filtered
        variable is far more selective than its base estimate (the filter
        keeps ``|set|`` of the variable's distinct values).  Re-running
        the greedy ordering with discounted estimates starts the probe at
        the semi-join filter instead of dragging the full scan first —
        the classic magic-sets effect, per execution and only for BGPs a
        filter actually touches."""
        return order_patterns(patterns,
                              _SipAwareStats(self._graph_stats(graph),
                                             self._sip, graph))

    # -- BGP evaluation ------------------------------------------------

    def _eval_bgp(self, node: alg.BGP, graph) -> SolutionTable:
        self.stats.bgp_count += 1
        patterns = node.triples
        if not patterns:
            return SolutionTable.unit()
        intersect = self._bgp_intersect(node)
        eliminate = self._wcoj_order(node, graph)
        sip_active = self._sip_touches(patterns)
        cache_key = None
        if self.cache_bgps and not sip_active:
            cache_key = (id(graph), intersect, eliminate,
                         tuple(sorted(patterns, key=lambda t: repr(t))))
            cached = self._bgp_cache.get(cache_key)
            if cached is not None:
                self.stats.bgp_cache_hits += 1
                return cached
        if len(patterns) > 1 and not eliminate:
            if sip_active:
                patterns = self._order_for_sip(patterns, graph)
            elif self.optimize:
                patterns = order_patterns(patterns, self._graph_stats(graph))
        schema, _schemas, steps = self._bgp_steps(patterns, graph, intersect,
                                                  eliminate)
        rows: List[tuple] = []
        if steps is not None:
            rows = [()]
            for step in steps:
                out: List[tuple] = []
                step(rows, self._guarded_append(out))
                rows = out
                if not rows:
                    break
        table = SolutionTable(schema, rows)
        if cache_key is not None:
            self._bgp_cache[cache_key] = table
        return table

    def _pattern_plan(self, pattern, schema: List[str], graph):
        """Compile one triple pattern into ``(new_schema, step)``.

        ``step(rows, append)`` extends each input row (positionally aligned
        with the *old* schema) with the pattern's id-level matches, calling
        ``append`` per output row.  The bound/free shape is analyzed here,
        once per pattern, so the specialized index probe it returns is
        reusable for any number of row batches — this is what lets the
        streaming executor drive the same matcher one input row at a time.
        ``step`` is ``None`` when a constant term is unknown to the
        dictionary (no triple can match); the returned schema still
        includes the pattern's fresh variables.

        When a sideways-information-passing scope is active
        (``self._sip``), the step additionally drops candidate bindings
        for filtered fresh variables at the index probe itself — the
        pruned combination never becomes a row — and counts them in
        ``stats.sip_filtered_rows``.
        """
        lookup = self.dictionary.lookup
        sip = self._sip
        index = {v: i for i, v in enumerate(schema)}
        schema = list(schema)
        # A slot per position: ('c', id) constant, ('b', col) bound var,
        # ('n', k) k-th newly-introduced var (repeats share one k).
        slots = []
        new_pos: Dict[str, int] = {}
        missing_constant = False
        for term in pattern:
            if isinstance(term, Variable):
                name = term.name
                col = index.get(name)
                if col is not None:
                    slots.append(("b", col))
                elif name in new_pos:
                    slots.append(("n", new_pos[name]))
                else:
                    k = len(new_pos)
                    new_pos[name] = k
                    schema.append(name)
                    slots.append(("n", k))
            else:
                tid = lookup(term)
                if tid is None:
                    missing_constant = True
                    slots.append(("c", None))
                else:
                    slots.append(("c", tid))
        if missing_constant:
            return schema, None

        (s_kind, s_val), (p_kind, p_val), (o_kind, o_val) = slots
        n_new = len(new_pos)
        stats = self.stats

        # The bound/free shape of the pattern is fixed across rows ('b'
        # columns are always bound inside a BGP), so dispatch to a
        # specialized index probe once per *pattern*, not once per row.
        s_free = s_kind == "n"
        p_free = p_kind == "n"
        o_free = o_kind == "n"

        def val_of(kind, val):
            if kind == "c":
                return lambda row, v=val: v
            return lambda row, c=val: row[c]

        def col_of(kind, val, cb, n):
            # Columnar face of ``val_of``: an n-element iterable of the
            # slot's per-row values (a shared column or a repeated const).
            if kind == "c":
                return repeat(val, n)
            return cb.columns[val]

        # Raw per-predicate maps for the hot columnar shapes (constant
        # predicate, bound var in the probe slot): the per-row probe then
        # runs inside a list comprehension with nothing but a single
        # dict get — no method dispatch, no per-row extend.  ``None``
        # (multi-graph union) keeps those shapes on the generic per-row
        # csteps.  The maps are memoized on the graph, so compiling the
        # same predicate twice is free.
        pos_fn = getattr(graph, "pos_index", None)
        pos = pos_fn() if pos_fn is not None else None
        fwd = None
        if p_kind == "c" and s_kind == "b":
            fwd_fn = getattr(graph, "forward_map", None)
            if fwd_fn is not None:
                fwd = fwd_fn(p_val)

        if not p_free and not s_free and not o_free:
            # Fully bound: a containment probe per row.
            s_of, p_of, o_of = (val_of(s_kind, s_val), val_of(p_kind, p_val),
                                val_of(o_kind, o_val))
            contains = graph.contains_ids

            def step(rows, append):
                matches = 0
                for row in rows:
                    if contains(s_of(row), p_of(row), o_of(row)):
                        matches += 1
                        append(row)
                stats.pattern_matches += matches

            if fwd is not None and o_kind == "b":
                def cstep(cb, _get=fwd.get, _e=()):
                    flags = bytearray(
                        o in _get(s, _e)
                        for s, o in zip(cb.columns[s_val],
                                        cb.columns[o_val]))
                    kept = sum(flags)
                    stats.pattern_matches += kept
                    return cb.take_flags(flags, kept)
            elif fwd is not None and o_kind == "c":
                # Constant object (``?s rdf:type :Class`` shape): a
                # membership scan of the subject column.
                def cstep(cb, _get=fwd.get, _o=o_val, _e=()):
                    flags = bytearray(
                        _o in _get(s, _e)
                        for s in cb.columns[s_val])
                    kept = sum(flags)
                    stats.pattern_matches += kept
                    return cb.take_flags(flags, kept)
            else:
                def cstep(cb):
                    n = len(cb)
                    flags = bytearray(n)
                    kept = 0
                    i = 0
                    for s, p, o in zip(col_of(s_kind, s_val, cb, n),
                                       col_of(p_kind, p_val, cb, n),
                                       col_of(o_kind, o_val, cb, n)):
                        if contains(s, p, o):
                            flags[i] = 1
                            kept += 1
                        i += 1
                    stats.pattern_matches += kept
                    return cb.take_flags(flags, kept)

            step.columnar = cstep
        elif not p_free and not s_free and o_free:
            # Forward expansion: (s, p) -> objects.  The classic
            # index-nested-loop step of the paper's flat queries.
            s_of, p_of = val_of(s_kind, s_val), val_of(p_kind, p_val)
            objects_for = graph.objects_for
            o_filter = sip.get(pattern[2].name) if sip else None

            if o_filter is None:
                def step(rows, append):
                    matches = 0
                    for row in rows:
                        objs = objects_for(s_of(row), p_of(row))
                        if objs:
                            matches += len(objs)
                            for o in objs:
                                append(row + (o,))
                    stats.pattern_matches += matches

                if fwd is not None:
                    # Hot shape: probe is one dict get per row inside a
                    # list comprehension; flatten and count in C.
                    def cstep(cb, _get=fwd.get, _e=()):
                        sets_ = [_get(s, _e)
                                 for s in cb.columns[s_val]]
                        new = []
                        new.extend(chain.from_iterable(sets_))
                        stats.pattern_matches += len(new)
                        return expand_columns(cb, list(map(len, sets_)),
                                              new)
                else:
                    def cstep(cb):
                        n = len(cb)
                        new = []
                        counts = []
                        add = counts.append
                        matches = 0
                        for s, p in zip(col_of(s_kind, s_val, cb, n),
                                        col_of(p_kind, p_val, cb, n)):
                            objs = objects_for(s, p)
                            k = len(objs)
                            add(k)
                            if k:
                                matches += k
                                new.extend(objs)
                        stats.pattern_matches += matches
                        return expand_columns(cb, counts, new)
            else:
                def step(rows, append):
                    matches = 0
                    dropped = 0
                    for row in rows:
                        objs = objects_for(s_of(row), p_of(row))
                        if objs:
                            matches += len(objs)
                            for o in objs:
                                if o in o_filter:
                                    append(row + (o,))
                                else:
                                    dropped += 1
                    stats.pattern_matches += matches
                    stats.sip_filtered_rows += dropped

                def cstep(cb):
                    n = len(cb)
                    new = []
                    counts = []
                    add = counts.append
                    matches = 0
                    for s, p in zip(col_of(s_kind, s_val, cb, n),
                                    col_of(p_kind, p_val, cb, n)):
                        objs = objects_for(s, p)
                        if objs:
                            matches += len(objs)
                            before = len(new)
                            new.extend(o for o in objs if o in o_filter)
                            add(len(new) - before)
                        else:
                            add(0)
                    stats.pattern_matches += matches
                    stats.sip_filtered_rows += matches - len(new)
                    return expand_columns(cb, counts, new)

            step.columnar = cstep
        elif not p_free and s_free and not o_free:
            # Backward expansion: (p, o) -> subjects.
            p_of, o_of = val_of(p_kind, p_val), val_of(o_kind, o_val)
            subjects_for = graph.subjects_for
            s_filter = sip.get(pattern[0].name) if sip else None

            if s_filter is None:
                def step(rows, append):
                    matches = 0
                    for row in rows:
                        subs = subjects_for(p_of(row), o_of(row))
                        if subs:
                            matches += len(subs)
                            for s in subs:
                                append(row + (s,))
                    stats.pattern_matches += matches

                if pos is not None and p_kind == "c" and o_kind == "b":
                    # The predicate is fixed, so its whole {o: subjects}
                    # map hoists out: one dict get per row.
                    def cstep(cb, _by_obj_get=(pos.get(p_val) or {}).get):
                        sets_ = [_by_obj_get(o, ())
                                 for o in cb.columns[o_val]]
                        new = []
                        new.extend(chain.from_iterable(sets_))
                        stats.pattern_matches += len(new)
                        return expand_columns(cb, list(map(len, sets_)),
                                              new)
                else:
                    def cstep(cb):
                        n = len(cb)
                        new = []
                        counts = []
                        add = counts.append
                        matches = 0
                        for p, o in zip(col_of(p_kind, p_val, cb, n),
                                        col_of(o_kind, o_val, cb, n)):
                            subs = subjects_for(p, o)
                            k = len(subs)
                            add(k)
                            if k:
                                matches += k
                                new.extend(subs)
                        stats.pattern_matches += matches
                        return expand_columns(cb, counts, new)
            else:
                def step(rows, append):
                    matches = 0
                    dropped = 0
                    for row in rows:
                        subs = subjects_for(p_of(row), o_of(row))
                        if subs:
                            matches += len(subs)
                            for s in subs:
                                if s in s_filter:
                                    append(row + (s,))
                                else:
                                    dropped += 1
                    stats.pattern_matches += matches
                    stats.sip_filtered_rows += dropped

                def cstep(cb):
                    n = len(cb)
                    new = []
                    counts = []
                    add = counts.append
                    matches = 0
                    for p, o in zip(col_of(p_kind, p_val, cb, n),
                                    col_of(o_kind, o_val, cb, n)):
                        subs = subjects_for(p, o)
                        if subs:
                            matches += len(subs)
                            before = len(new)
                            new.extend(s for s in subs if s in s_filter)
                            add(len(new) - before)
                        else:
                            add(0)
                    stats.pattern_matches += matches
                    stats.sip_filtered_rows += matches - len(new)
                    return expand_columns(cb, counts, new)

            step.columnar = cstep
        elif not p_free and s_free and o_free and p_kind == "c":
            # Predicate scan with a constant predicate: materialize the
            # (s, o) pairs once and reuse them for every input row (the
            # graph memoizes the materialization across queries).
            so_list = getattr(graph, "so_pairs_list", None)
            pairs = (so_list(p_val) if so_list is not None
                     else list(graph.so_pairs(p_val)))
            if slots[0][1] == slots[2][1]:  # ?x p ?x — one new column
                hits = [(s,) for s, o in pairs if s == o]
            else:
                hits = pairs
            dropped_per_row = 0
            if sip:
                # Filter the materialized pairs once at compile time; the
                # per-input-row drop count keeps the counter's meaning
                # (candidate bindings pruned) identical to the row-driven
                # shapes.
                s_filter = sip.get(pattern[0].name)
                o_filter = sip.get(pattern[2].name)
                if s_filter is not None or o_filter is not None:
                    kept = [extra for extra in hits
                            if (s_filter is None or extra[0] in s_filter)
                            and (o_filter is None or extra[-1] in o_filter)]
                    dropped_per_row = len(hits) - len(kept)
                    hits = kept

            def step(rows, append):
                matches = 0
                n_rows = 0
                for row in rows:
                    n_rows += 1
                    matches += len(pairs)
                    for extra in hits:
                        append(row + extra)
                stats.pattern_matches += matches
                if dropped_per_row:
                    stats.sip_filtered_rows += dropped_per_row * n_rows

            # Constant fan-out: every input row gains the same ``hits``
            # block, so the columnar step is pure replication — parents
            # repeated k times each, hit columns tiled n times.  The hit
            # columns are built only when this evaluator actually runs
            # the columnar plane; the row plane uses ``hits`` as-is.
            k_hits = len(hits)
            if self.vectorize:
                so_cols_fn = getattr(graph, "so_pair_columns", None)
                cached = (so_cols_fn(p_val)
                          if so_cols_fn is not None and hits is pairs
                          else None)
                if cached is not None:
                    hit_cols = list(cached)
                else:
                    hit_cols = [[h[j] for h in hits]
                                for j in range(len(hits[0]) if hits
                                               else n_new)]

                def cstep(cb):
                    n = len(cb)
                    stats.pattern_matches += len(pairs) * n
                    if dropped_per_row:
                        stats.sip_filtered_rows += dropped_per_row * n
                    out = [replicate(col, repeat(k_hits, n))
                           for col in cb.columns]
                    out.extend(col * n for col in hit_cols)
                    return ColumnBatch(out, None, k_hits * n)

                step.columnar = cstep
        else:
            # General shape (variable predicate, or repeated fresh
            # variables across positions): slot-interpreting loop.
            triples_ids = graph.triples_ids
            filters_by_slot = {}
            if sip:
                for name, k in new_pos.items():
                    flt = sip.get(name)
                    if flt is not None:
                        filters_by_slot[k] = flt

            def step(rows, append):
                matches = 0
                dropped = 0
                for row in rows:
                    s = None if s_free else (s_val if s_kind == "c"
                                             else row[s_val])
                    p = None if p_free else (p_val if p_kind == "c"
                                             else row[p_val])
                    o = None if o_free else (o_val if o_kind == "c"
                                             else row[o_val])
                    for matched in triples_ids(s, p, o):
                        matches += 1
                        extras = [None] * n_new
                        ok = True
                        for (kind, val), tid in zip(slots, matched):
                            if kind == "n":
                                prev = extras[val]
                                if prev is None:
                                    flt = filters_by_slot.get(val)
                                    if flt is not None and tid not in flt:
                                        dropped += 1
                                        ok = False
                                        break
                                    extras[val] = tid
                                elif prev != tid:
                                    # Repeated variable must agree.
                                    ok = False
                                    break
                        if ok:
                            append(row + tuple(extras))
                stats.pattern_matches += matches
                if dropped:
                    stats.sip_filtered_rows += dropped

        return schema, step

    def _guarded_append(self, out: List[tuple]):
        """The row sink for pattern matching.

        The plain ``list.append`` on the hot path; when a row budget or a
        deadline is armed, a wrapper that trips the safety valve *while*
        rows are being produced — an exploding cross product is abandoned
        mid-pattern instead of materialized and then rejected.
        """
        limit = self.max_rows
        deadline = self.deadline
        cancel = self.cancel
        if limit is None and deadline is None and cancel is None:
            return out.append
        raw_append = out.append

        def append(row):
            raw_append(row)
            n = len(out)
            if limit is not None and n > limit:
                raise RowBudgetExceeded(
                    "intermediate result exceeds max_rows=%d "
                    "(tripped mid-pattern)" % limit)
            if not (n & 1023):
                if cancel is not None:
                    cancel.raise_if_cancelled()
                if deadline is not None \
                        and time.perf_counter() > deadline:
                    raise QueryTimeout(
                        "query exceeded its time budget after %d rows "
                        "of a pattern match" % n)

        return append

    def _check_valves(self, produced: int):
        """Batch-granular safety valves for the columnar plane.

        Where the row plane guards every ``append`` (amortizing the clock
        behind a 1024-row counter), a vectorized step produces a whole
        ColumnBatch in C-level bulk operations with no per-row hook — so
        the valves are checked once per batch instead, between steps.
        ``self.deadline`` is read here (not captured at compile time) so
        an armed/re-armed deadline takes effect at the next batch
        boundary.
        """
        if self.max_rows is not None and produced > self.max_rows:
            raise RowBudgetExceeded(
                "intermediate result exceeds max_rows=%d "
                "(tripped at a batch boundary)" % self.max_rows)
        if self.cancel is not None:
            self.cancel.raise_if_cancelled()
        if self.deadline is not None \
                and time.perf_counter() > self.deadline:
            raise QueryTimeout(
                "query exceeded its time budget after %d rows "
                "of a vectorized pattern match" % produced)

    # ------------------------------------------------------------------
    # Joins.  The build side (evaluated first) exports its join-key
    # id-sets sideways into the probe side's BGP leaves (semi-join
    # filters).  The probe of an inner Join inherits the enclosing scope
    # too; the auxiliary side of LeftJoin/Minus/FilterExists sees *only*
    # the operator's own exports — an enclosing join's filter is sound
    # for rows that must ultimately join it, but pruning inside an
    # OPTIONAL/MINUS/EXISTS auxiliary would flip match decisions (a
    # pruned optional row turns into a null-padded one) rather than
    # remove dead rows.
    def _eval_join(self, node: alg.Join, graph) -> SolutionTable:
        left = self.evaluate(node.left, graph)
        if not left.rows:
            return SolutionTable(left.variables)
        exports = self._sip_exports(left, node.right) \
            if self._use_sip(node) else None
        if exports:
            outer = self._sip
            self._sip = self._sip_merge(exports)
            try:
                right = self.evaluate(node.right, graph)
            finally:
                self._sip = outer
        else:
            right = self.evaluate(node.right, graph)
        if not right.rows:
            return SolutionTable(left.variables + tuple(
                v for v in right.variables if v not in left.index))
        self.stats.joins += 1
        return table_join(left, right, self.stats)

    def _eval_leftjoin(self, node: alg.LeftJoin, graph) -> SolutionTable:
        left = self.evaluate(node.left, graph)
        if not left.rows:
            return SolutionTable(left.variables)
        exports = self._sip_exports(left, node.right) \
            if self._use_sip(node) else None
        outer = self._sip
        self._sip = exports or {}
        try:
            right = self.evaluate(node.right, graph)
        finally:
            self._sip = outer
        self.stats.joins += 1
        accept = self._leftjoin_accept(node, _merge_plan(left, right)[0])
        return table_left_join(left, right, accept, self.stats)

    def _leftjoin_accept(self, node: alg.LeftJoin, out_vars):
        """The LeftJoin condition as a predicate on merged rows (``None``
        without one), evaluated lazily — terms decoded on access — and
        only on the compatible rows the probe kernel hands back."""
        condition = node.condition
        if condition is None:
            return None
        out_index = {v: i for i, v in enumerate(out_vars)}
        decode = self.dictionary.decode

        def accept(merged_row) -> bool:
            try:
                return ebv(condition.evaluate(
                    RowView(out_index, merged_row, decode)))
            except ExpressionError:
                return False

        return accept

    def _eval_union(self, node: alg.Union, graph) -> SolutionTable:
        return table_union(self.evaluate(node.left, graph),
                           self.evaluate(node.right, graph))

    def _eval_filter(self, node: alg.Filter, graph) -> SolutionTable:
        table = self.evaluate(node.pattern, graph)
        condition = node.condition
        index = table.index
        decode = self.dictionary.decode
        rows = []
        for row in table.rows:
            try:
                if ebv(condition.evaluate(RowView(index, row, decode))):
                    rows.append(row)
            except ExpressionError:
                continue  # errors eliminate the solution
        return SolutionTable(table.variables, rows)

    def _sip_without(self, var: str) -> Dict:
        """The active scope minus one variable (Extend overwrites it, so a
        leaf filter below would act on the wrong value)."""
        return {v: s for v, s in self._sip.items() if v != var}

    def _eval_extend(self, node: alg.Extend, graph) -> SolutionTable:
        if self._sip and node.var in self._sip:
            outer = self._sip
            self._sip = self._sip_without(node.var)
            try:
                return self._eval_extend(node, graph)
            finally:
                self._sip = outer
        table = self.evaluate(node.pattern, graph)
        index = table.index
        decode = self.dictionary.decode
        encode = self.dictionary.encode
        target = index.get(node.var)
        rows = []
        for row in table.rows:
            try:
                value = node.expression.evaluate(RowView(index, row, decode))
                tid = encode(value)
            except ExpressionError:
                # SPARQL Extend error semantics: leave the variable as it
                # was — unbound if fresh, the existing binding otherwise.
                rows.append(row + (None,) if target is None else row)
                continue
            if target is None:
                rows.append(row + (tid,))
            else:
                patched = list(row)
                patched[target] = tid
                rows.append(tuple(patched))
        variables = table.variables if target is not None \
            else table.variables + (node.var,)
        return SolutionTable(variables, rows)

    def _fast_group_count(self, node: alg.Group,
                          graph) -> Optional[SolutionTable]:
        """Index-backed ``GROUP BY`` counting — no rows are produced.

        Applies to ``Group(BGP)`` over a *single* triple pattern with a
        constant predicate and distinct subject/object variables, grouped
        by one of them, where every aggregate is a COUNT over the
        pattern's variables (or ``COUNT(*)``).  On a set-semantics triple
        store each such count equals the group's row count, which the
        SPO/POS indexes answer directly (:meth:`Graph.count_objects_for` /
        :meth:`Graph.count_subjects_for`): the whole aggregation runs in
        one index sweep with zero solution rows, zero hashing, and zero
        term decoding.  Group order matches the row-producing path (the
        first-seen order of the ``so_pairs`` scan), so the result is
        identical — not merely bag-equal — to the general path's.

        This is a *streaming-plane* rewrite (used by :meth:`_stream_group`
        only): the materialized ``Group`` deliberately keeps producing the
        full input table so it remains the differential oracle and the
        perf baseline the ``aggregation`` benchmark section measures
        against.

        Returns ``None`` when the shape does not apply.
        """
        pattern = node.pattern
        if not isinstance(pattern, alg.BGP) or len(pattern.triples) != 1:
            return None
        if len(node.group_vars) != 1:
            return None
        s_term, p_term, o_term = pattern.triples[0]
        if isinstance(p_term, Variable) or not isinstance(s_term, Variable) \
                or not isinstance(o_term, Variable):
            return None
        s_name, o_name = s_term.name, o_term.name
        if s_name == o_name:
            return None
        gvar = node.group_vars[0]
        if gvar not in (s_name, o_name):
            return None
        for aggregate in node.aggregates:
            if aggregate.function != "count":
                return None
            expr = aggregate.expression
            if expr is None:  # COUNT(*): counts the group's rows
                if aggregate.distinct:
                    return None
                continue
            if type(expr) is not VarExpr or expr.name not in (s_name, o_name):
                return None
            if aggregate.distinct and expr.name == gvar:
                # COUNT(DISTINCT ?g) GROUP BY ?g is 1, not the row count.
                return None
        if not hasattr(graph, "count_objects_for") \
                or not hasattr(graph, "count_subjects_for"):
            return None

        self.stats.bgp_count += 1
        out_vars = tuple(node.group_vars) + tuple(a.alias
                                                  for a in node.aggregates)
        pid = self.dictionary.lookup(p_term)
        out_rows: List[tuple] = []
        if pid is not None:
            encode = self.dictionary.encode
            decode = self.dictionary.decode
            n_aggs = len(node.aggregates)
            having = node.having
            out_index = {v: i for i, v in enumerate(out_vars)}
            group_on_subject = gvar == s_name
            if group_on_subject and hasattr(graph, "subject_group_counts"):
                # Subject-keyed groups: one allocation-free index sweep
                # (a set-membership test per triple, an O(1) SPO count
                # per group).
                group_counts = graph.subject_group_counts(pid)
            elif not group_on_subject \
                    and hasattr(graph, "object_group_counts"):
                # Object-keyed groups read straight off the POS index:
                # O(groups), no per-triple work at all.
                group_counts = graph.object_group_counts(pid)
            else:
                # Union views: one sweep over the deduplicated (s, o)
                # pairs, counting per first-seen group — still no
                # solution rows, hashing, or decoding.
                count_objects = graph.count_objects_for
                count_subjects = graph.count_subjects_for

                def sweep():
                    seen = set()
                    for s, o in graph.so_pairs(pid):
                        gid = s if group_on_subject else o
                        if gid in seen:
                            continue
                        seen.add(gid)
                        yield gid, (count_objects(gid, pid)
                                    if group_on_subject
                                    else count_subjects(pid, gid))

                group_counts = sweep()
            built = 0
            count_ids: Dict[int, int] = {}  # count value -> term id
            max_rows = self.max_rows
            deadline = self.deadline
            cancel = self.cancel
            for gid, count in group_counts:
                built += 1
                # Same safety valves as row production elsewhere: a graph
                # with an enormous group count is abandoned mid-sweep, not
                # after the result is built.
                if not (built & 1023):
                    if cancel is not None:
                        cancel.raise_if_cancelled()
                    if deadline is not None \
                            and time.perf_counter() > deadline:
                        raise QueryTimeout(
                            "query exceeded its time budget after %d "
                            "groups of an index-backed aggregation" % built)
                tid = count_ids.get(count)
                if tid is None:
                    tid = encode(Literal(count))
                    count_ids[count] = tid
                out_row = (gid,) + (tid,) * n_aggs
                if having is not None \
                        and not _passes_having(having, out_index,
                                               out_row, decode):
                    continue
                out_rows.append(out_row)
                if max_rows is not None and len(out_rows) > max_rows:
                    raise RowBudgetExceeded(
                        "intermediate result exceeds max_rows=%d "
                        "(tripped mid-aggregation)" % max_rows)
            self.stats.groups_built += built
        return SolutionTable(out_vars, out_rows)

    def _wcoj_group_aggregate(self, node: alg.Group,
                              graph) -> Optional[SolutionTable]:
        """Aggregate pushdown through the generic-join decomposition.

        ``Group`` over a wcoj-planned cyclic BGP folds aggregate states
        *inside* the join's last elimination level: the compiled wcoj
        steps run depth-first exactly as in :meth:`_eval_bgp`, but the
        final step's ``append`` routes each completed binding straight
        into its group's accumulator (the same compiled folds the
        streaming hash aggregation uses, so every finished cell is
        bit-identical) — no batch of join rows is ever built, and
        ``accumulator_rows`` stays at zero.  Group order is the
        first-seen order of the depth-first enumeration, which is the
        row order every executor produces from the same steps, so the
        emitted rows match the general path exactly.

        Applies when no sideways-information-passing scope is active and
        the (possibly ``Project``-wrapped) input is a BGP the engine's
        wcoj gate accepts; returns ``None`` otherwise.
        """
        if self._sip:
            return None
        pattern = node.pattern
        while isinstance(pattern, alg.Project):
            pattern = pattern.pattern
        if not isinstance(pattern, alg.BGP) or not pattern.triples:
            return None
        order = self._wcoj_order(pattern, graph)
        if not order:
            return None
        schema, _schemas, steps = self._bgp_steps(
            pattern.triples, graph, self._bgp_intersect(pattern), order)
        index = {v: i for i, v in enumerate(schema)}
        positions = []
        for v in node.group_vars:
            p = index.get(v)
            if p is None:
                return None  # key unbound by the BGP: general path
            positions.append(p)
        self.stats.bgp_count += 1
        decode = self.dictionary.decode
        encode = self.dictionary.encode
        specs = [_compile_aggregate(a, index, decode)
                 for a in node.aggregates]
        groups: Dict = {}
        if steps is not None:
            get = groups.get
            scalar = positions[0] if len(positions) == 1 else None
            cancel = self.cancel
            deadline = self.deadline
            folded = [0]

            def fold_leaf(row):
                if scalar is not None:
                    key = row[scalar]
                else:
                    key = tuple(row[p] for p in positions)
                states = get(key)
                if states is None:
                    groups[key] = states = [new() for new, _, _ in specs]
                for (_, fold, _), state in zip(specs, states):
                    fold(state, row)
                n = folded[0] = folded[0] + 1
                if not (n & 1023):
                    if cancel is not None:
                        cancel.raise_if_cancelled()
                    if deadline is not None \
                            and time.perf_counter() > deadline:
                        raise QueryTimeout(
                            "query exceeded its time budget after %d "
                            "bindings of an aggregated generic join" % n)

            rows: List[tuple] = [()]
            for step in steps[:-1]:
                out: List[tuple] = []
                step(rows, self._guarded_append(out))
                rows = out
                if not rows:
                    break
            if rows:
                steps[-1](rows, fold_leaf)
        if not node.group_vars and not groups:
            # Implicit single group over empty input: COUNT is 0.
            groups[()] = [new() for new, _, _ in specs]
        self.stats.groups_built += len(groups)
        out_vars = tuple(node.group_vars) + tuple(a.alias
                                                  for a in node.aggregates)
        out_index = {v: i for i, v in enumerate(out_vars)}
        having = node.having
        out_rows: List[tuple] = []
        for key, states in groups.items():
            cells = [key] if len(positions) == 1 else list(key)
            for (_, _, finish), state in zip(specs, states):
                value = finish(state)
                cells.append(None if value is None else encode(value))
            out_row = tuple(cells)
            if having is not None \
                    and not _passes_having(having, out_index,
                                           out_row, decode):
                continue
            out_rows.append(out_row)
        return SolutionTable(out_vars, out_rows)

    def _sip_for_group(self, node: alg.Group) -> Dict:
        """Restrict the active scope to the Group's grouping variables.

        Pruning a grouping key removes whole groups that could not join
        anyway; pruning anything else would corrupt surviving groups'
        aggregates, so other filters are suspended below a Group."""
        return {v: s for v, s in self._sip.items() if v in node.group_vars}

    def _eval_group(self, node: alg.Group, graph) -> SolutionTable:
        if self._sip:
            allowed = self._sip_for_group(node)
            if len(allowed) != len(self._sip):
                outer = self._sip
                self._sip = allowed
                try:
                    return self._eval_group(node, graph)
                finally:
                    self._sip = outer
        table = self.evaluate(node.pattern, graph)
        group_vars = node.group_vars
        index = table.index
        decode = self.dictionary.decode
        encode = self.dictionary.encode
        groups: Dict[Tuple, list] = {}
        if group_vars:
            positions = [index.get(v) for v in group_vars]
            if len(positions) == 1 and positions[0] is not None:
                # Scalar keys: no per-row tuple construction.
                p0 = positions[0]
                scalar_groups: Dict = {}
                for row in table.rows:
                    scalar_groups.setdefault(row[p0], []).append(row)
                groups = {(k,): v for k, v in scalar_groups.items()}
            else:
                for row in table.rows:
                    key = tuple(None if p is None else row[p]
                                for p in positions)
                    groups.setdefault(key, []).append(row)
        else:
            # Implicit single group; COUNT over an empty pattern is 0.
            groups[()] = table.rows
        self.stats.groups_built += len(groups)

        out_vars = tuple(group_vars) + tuple(a.alias
                                             for a in node.aggregates)
        out_index = {v: i for i, v in enumerate(out_vars)}
        out_rows = []
        for key, members in groups.items():
            views = None  # RowViews built lazily: only complex expressions
            cells: List[Optional[int]] = list(key)
            for aggregate in node.aggregates:
                value = _aggregate_columnar(aggregate, members, index, decode)
                if value is _SLOW:
                    if views is None:
                        views = [RowView(index, row, decode)
                                 for row in members]
                    value = _apply_aggregate(aggregate, views)
                cells.append(None if value is None else encode(value))
            out_row = tuple(cells)
            if node.having is not None \
                    and not _passes_having(node.having, out_index,
                                           out_row, decode):
                continue
            out_rows.append(out_row)
        return SolutionTable(out_vars, out_rows)

    def _eval_project(self, node: alg.Project, graph) -> SolutionTable:
        table = self.evaluate(node.pattern, graph)
        if node.variables is None:
            # SELECT *: drop synthetic aggregate helper variables.
            keep = [v for v in table.variables if not v.startswith("__agg_")]
            if len(keep) == len(table.variables):
                return table
            return table_project(table, keep)
        return table_project(table, node.variables)

    def _eval_distinct(self, node: alg.Distinct, graph) -> SolutionTable:
        return table_distinct(self.evaluate(node.pattern, graph))

    def _order_key(self, index: Dict[str, int], keys):
        """One composite, direction-aware sort key for ``ORDER BY``.

        Builds a single ``row -> tuple`` function covering every sort key
        (descending components wrapped in :class:`_Desc`), so a multi-key
        ORDER BY is one stable sort instead of one full re-sort per key.
        Keys naming variables absent from the schema are skipped (unbound
        everywhere — a stable no-op, as before).  Decoded key values are
        memoized per term id: a column with many repeated terms pays one
        decode per distinct term, not one per row.
        """
        decode = self.dictionary.decode
        # One memo per key: maps term id -> finished key component
        # (direction wrapper included, so ids repeat their component
        # without re-decoding or re-wrapping).
        specs = [(index[var], direction == "desc", {})
                 for var, direction in keys if var in index]

        def key(row):
            parts = []
            for pos, desc, cache in specs:
                tid = row[pos]
                part = cache.get(tid)
                if part is None:
                    part = _sort_key(None if tid is None else decode(tid))
                    if desc:
                        part = _Desc(part)
                    cache[tid] = part
                parts.append(part)
            return tuple(parts)

        return key

    def _eval_orderby(self, node: alg.OrderBy, graph) -> SolutionTable:
        table = self.evaluate(node.pattern, graph)
        rows = sorted(table.rows, key=self._order_key(table.index, node.keys))
        return SolutionTable(table.variables, rows)

    def _eval_topk(self, node: alg.TopK, graph) -> SolutionTable:
        """Bounded sort, materialized mode: one heap pass instead of a
        full sort + slice.  ``heapq.nsmallest`` is documented equivalent to
        ``sorted(rows, key=key)[:n]``, so stability (ties keep input
        order) matches :meth:`_eval_orderby` exactly.

        Sideways filters are suspended below any row-bound operator: a
        window selects *which* rows survive, so pruning its input would
        change the selection, not just skip dead rows."""
        outer = self._sip
        self._sip = {}
        try:
            table = self.evaluate(node.pattern, graph)
        finally:
            self._sip = outer
        keep = node.offset + node.limit
        rows = heapq.nsmallest(keep, table.rows,
                               key=self._order_key(table.index, node.keys))
        return SolutionTable(table.variables, rows[node.offset:])

    def _eval_slice(self, node: alg.Slice, graph) -> SolutionTable:
        outer = self._sip
        self._sip = {}  # same suspension rationale as _eval_topk
        try:
            table = self.evaluate(node.pattern, graph)
        finally:
            self._sip = outer
        start = node.offset
        end = None if node.limit is None else start + node.limit
        return SolutionTable(table.variables, table.rows[start:end])

    def _eval_graphpattern(self, node: alg.GraphPattern, graph
                           ) -> SolutionTable:
        target = self.dataset.graph(node.graph_uri)
        return self.evaluate(node.pattern, target)

    def _eval_inlinedata(self, node: alg.InlineData, graph) -> SolutionTable:
        encode = self.dictionary.encode
        rows = [tuple(None if value is None else encode(value)
                      for value in row)
                for row in node.rows]
        return SolutionTable(node.variables, rows)

    def _eval_minus(self, node: alg.Minus, graph) -> SolutionTable:
        left = self.evaluate(node.left, graph)
        if not left.rows:
            return SolutionTable(left.variables)
        # SIP into the right side: a right row whose key misses every left
        # row's value for an everywhere-bound shared variable is
        # incompatible with all of them, so it can exclude nothing.
        exports = self._sip_exports(left, node.right) \
            if self._use_sip(node) else None
        outer = self._sip
        self._sip = exports or {}
        try:
            right = self.evaluate(node.right, graph)
        finally:
            self._sip = outer
        return table_minus(left, right, self.stats)

    def _eval_filterexists(self, node: alg.FilterExists, graph
                           ) -> SolutionTable:
        table = self.evaluate(node.pattern, graph)
        if not table.rows:
            return table
        # SIP into the existence group: a group row incompatible with
        # every pattern row flips no exists-flag (sound for EXISTS and
        # NOT EXISTS alike, because the exports reflect the actual
        # pattern rows).
        exports = self._sip_exports(table, node.group) \
            if self._use_sip(node) else None
        outer = self._sip
        self._sip = exports or {}
        try:
            inner = self.evaluate(node.group, graph)
        finally:
            self._sip = outer
        _, shared, _ = _merge_plan(table, inner)
        index = ProbeIndex(inner.rows, shared, self.stats)
        return SolutionTable(table.variables,
                             index.semijoin(table.rows, node.negated))

    # ==================================================================
    # Streaming execution — the pipelined batch-iterator plane
    # ==================================================================
    #
    # ``stream`` mirrors ``evaluate`` but returns a lazily-pulled
    # :class:`TableStream`.  Operators with a ``_stream_`` form pipeline
    # their input; anything else (Minus, full OrderBy) is a pipeline
    # breaker: its subtree is materialized via ``evaluate`` and emitted
    # as a single batch.  ``Group`` streams too — a hash aggregation that
    # folds its child's batches into per-group accumulators and emits one
    # final batch.  Schemas are computed statically, so constructing a
    # stream never pulls a row; breakers embedded in a subtree do their
    # work when the subtree's stream is *constructed* (the build side of
    # a join must exist before the first probe).

    def evaluate_query_stream(self, query: alg.Query,
                              default_graph_uri: Optional[str] = None,
                              hint: Optional[int] = None) -> TableStream:
        """Streaming counterpart of :meth:`evaluate_query`.

        ``hint`` caps the root batch size — cursors pulling small pages
        pass a small one so each pull stays proportional to the page.
        """
        graph = self._resolve_graphs(query.from_graphs, default_graph_uri)
        self.dictionary = graph.dictionary
        # Stream operators compile eagerly (only row production defers),
        # so synopsis builds they trigger are visible once the stream is
        # constructed.
        before = _synopses_built(graph)
        try:
            return self.stream(query.pattern, graph, hint)
        finally:
            self.stats.synopsis_builds += _synopses_built(graph) - before

    def stream(self, node: alg.AlgebraNode, graph,
               hint: Optional[int] = None) -> TableStream:
        """Evaluate ``node`` to a stream of row batches.

        ``hint`` is a *batch-size* hint from a bounded consumer (``Slice``
        passes ``offset + limit`` down): producers emit batches no larger
        than it so early exit is row-accurate.  It never changes results —
        only how much is in flight per pull.
        """
        if self.cancel is not None:
            self.cancel.raise_if_cancelled()
        if self.deadline is not None \
                and time.perf_counter() > self.deadline:
            raise QueryTimeout("query exceeded its time budget at %r" % node)
        method = getattr(self, "_stream_%s" % type(node).__name__.lower(),
                         None)
        if method is not None:
            return method(node, graph, hint)
        # Pipeline breaker: materialize the subtree, emit one batch.
        table = self.evaluate(node, graph)
        batches = iter((table.rows,)) if table.rows else iter(())
        return TableStream(table.variables, self._meter(batches))

    def _cap(self, hint: Optional[int]) -> int:
        if hint is None or hint <= 0:
            return STREAM_BATCH_ROWS
        return min(STREAM_BATCH_ROWS, hint)

    def _meter(self, batches):
        """Instrument one operator's output stream.

        Counts rows crossing the boundary (``rows_pulled``), tracks the
        largest batch (``peak_batch_rows``), and arms the safety valves:
        the per-operator row budget and the wall-clock deadline are
        checked on every batch, so runaway production is abandoned while
        streaming, not after.
        """
        stats = self.stats
        max_rows = self.max_rows
        produced = 0
        for batch in batches:
            n = len(batch)
            if not n:
                continue
            produced += n
            stats.rows_pulled += n
            if type(batch) is ColumnBatch:
                stats.vector_batches += 1
            if n > stats.peak_batch_rows:
                stats.peak_batch_rows = n
            if max_rows is not None and produced > max_rows:
                raise RowBudgetExceeded(
                    "intermediate result exceeds max_rows=%d "
                    "(tripped while streaming)" % max_rows)
            if self.cancel is not None:
                self.cancel.raise_if_cancelled()
            if self.deadline is not None \
                    and time.perf_counter() > self.deadline:
                raise QueryTimeout(
                    "query exceeded its time budget after %d streamed rows"
                    % produced)
            yield batch

    def _rows(self, batch):
        """Row view of a batch — the columnar plane's escape hatch.

        A cold operator (complex expression, OrderBy, a join probe) calls
        this on whatever its child produced: row batches pass through
        untouched; a ColumnBatch is transposed back to row tuples, counted
        as a ``row_fallback`` so the pure-id acceptance gate
        (``row_fallbacks == 0``) can prove no hidden transpositions.
        """
        if type(batch) is ColumnBatch:
            self.stats.row_fallbacks += 1
            return batch.to_rows()
        return batch

    # -- producers -----------------------------------------------------

    def _bgp_steps(self, patterns, graph, intersect: bool = False,
                   eliminate=None):
        """Compile an ordered pattern list into per-level match steps.

        Returns ``(final_schema, per_level_schemas, steps)``; ``steps`` is
        ``None`` when some constant term is unknown (the BGP is empty, but
        the schema still names every variable, exactly like the
        materialized path's schema completion).

        With ``intersect=True`` (the planner's ``'intersect'`` strategy,
        or ``multiway=True``), the compiler binds a variable that occurs
        in two or more remaining patterns through a k-way galloping
        intersection of the graph's sorted runs instead of
        expand-then-filter: patterns whose only free position is that
        variable are satisfied by the intersection itself and drop out of
        the plan.  Both executors drive the same steps, so the two
        columnar planes keep one row order per strategy.

        With ``eliminate`` (a variable elimination order from the
        cost-based planner or a forced ``wcoj=True`` engine), the
        generic-join compiler takes over entirely — one intersection
        level per variable (:meth:`_wcoj_steps`); if it cannot cover the
        BGP the normal compilers below apply.
        """
        if eliminate:
            planned = self._wcoj_steps(patterns, graph, eliminate)
            if planned is not None:
                return planned
        schema: List[str] = []
        schemas: List[List[str]] = []
        steps = []
        alive = True
        remaining = list(patterns)
        runs_ok = intersect and hasattr(graph, "objects_run")
        while remaining:
            if alive and runs_ok and len(remaining) > 1:
                planned = self._intersection_plan(remaining, schema, graph)
                if planned is not None:
                    var, step, remaining = planned
                    schema = schema + [var]
                    steps.append(step)
                    schemas.append(list(schema))
                    continue
            pattern = remaining.pop(0)
            schema, step = self._pattern_plan(pattern, schema, graph)
            if step is None:
                alive = False
            elif alive:
                steps.append(step)
            schemas.append(list(schema))
        return schema, schemas, steps if alive else None

    def _intersection_plan(self, remaining, schema: List[str], graph):
        """Try to bind the head pattern's next variable by intersection.

        Examines each new variable of ``remaining[0]`` (subject position
        first) and collects, per remaining pattern, the sorted run that
        constrains it (:func:`~.optimizer.run_signature`): ``(s, p)``
        object runs, ``(p, o)`` subject runs, and ``p`` subject-presence
        runs.  With two or more *distinct* runs the variable's candidates
        are their galloping intersection — the leapfrog step of
        worst-case-optimal join evaluation — and every pattern the
        intersection fully satisfies is dropped from the plan.  Returns
        ``(var, step, remaining_patterns)`` or ``None`` when no variable
        qualifies (the caller falls back to a nested-loop step).
        """
        pattern = remaining[0]
        bound = set(schema)
        candidates: List[str] = []
        for term in (pattern[0], pattern[2]):
            if isinstance(term, Variable) and term.name not in bound \
                    and term.name not in candidates:
                candidates.append(term.name)
        if not candidates:
            return None
        index = {v: i for i, v in enumerate(schema)}
        # Under 'auto', each step must also pass the planner's statistics
        # gate — a BGP annotated for one worthwhile step should not pay
        # for covering intersections elsewhere.  ``multiway=True`` forces
        # every structural opportunity (the differential suites use it).
        gate_stats = self._graph_stats(graph) if self.multiway == "auto" \
            else None
        for var in candidates:
            signatures = []
            seen = set()
            consumed = set()
            any_consumed = False
            for pos, q in enumerate(remaining):
                sig, consumes = run_signature(q, var, bound)
                if sig is None:
                    continue
                if sig not in seen:
                    seen.add(sig)
                    signatures.append(sig)
                if consumes:
                    consumed.add(pos)
                    any_consumed = True
            if len(signatures) < 2:
                continue
            if gate_stats is not None and not intersection_worthwhile(
                    {sig: run_width(sig, gate_stats) for sig in signatures},
                    any_consumed):
                continue
            # Resolve signatures into run sources; an unknown constant
            # means the whole BGP is empty — let the nested-loop path
            # discover that (schema completion included).
            resolved = self._resolve_run_signatures(signatures, index)
            if resolved is None:
                return None
            static_specs, row_specs = resolved
            step = self._intersection_step(var, static_specs, row_specs,
                                           graph)
            keep = [q for pos, q in enumerate(remaining)
                    if pos not in consumed]
            return var, step, keep
        return None

    def _resolve_run_signatures(self, signatures, index):
        """Resolve :func:`~.optimizer.run_signature` tuples into operand
        specs for :meth:`_intersection_step`: ``static_specs`` are
        ``(kind, pid, oid|None)`` constant-keyed runs, ``row_specs`` are
        ``(kind, pid, column)`` runs re-seeded from a bound row column.
        Returns ``None`` when a constant term is unknown to the
        dictionary — the caller falls back to the nested-loop compiler,
        which discovers the empty result with schema completion.
        """
        lookup = self.dictionary.lookup
        static_specs = []
        row_specs = []
        for sig in signatures:
            kind, predicate = sig[0], sig[1]
            pid = lookup(predicate)
            if pid is None:
                return None
            if kind == "psubjects":
                static_specs.append((kind, pid, None))
                continue
            other = sig[2]
            if isinstance(other, tuple):  # ("?", name): bound column
                row_specs.append((kind, pid, index[other[1]]))
            else:
                oid = lookup(other)
                if oid is None:
                    return None
                static_specs.append((kind, pid, oid))
        return static_specs, row_specs

    def _wcoj_steps(self, patterns, graph, eliminate):
        """Compile a generic-join (worst-case-optimal) plan.

        One step per variable of the elimination order: the step binds
        that variable for every input row through a k-way intersection of
        all the sorted runs that constrain it across the *whole*
        remaining BGP (:meth:`_intersection_step` — the leapfrog level),
        instead of the pattern-at-a-time expand-then-filter of the
        nested-loop plan.  On cyclic BGPs this caps each level's fan-out
        at the narrowest constraining run, which is what yields the
        AGM-style worst-case bound.  Patterns no level consumed become
        fully-bound containment filters at the end.  Returns the usual
        ``(schema, schemas, steps)`` triple, or ``None`` when the order
        does not cover the BGP (a variable outside it, an unconstrained
        level, an unknown constant) — the caller falls back to the
        nested-loop compiler.

        Candidates emerge from each level in ascending id order (see
        :meth:`_intersection_step`), so row order is deterministic and
        both executors produce identical batches from one compile.
        """
        stats = self.stats
        schema: List[str] = []
        schemas: List[List[str]] = []
        steps = []
        remaining = list(patterns)
        bound: set = set()
        for var in eliminate:
            index = {v: i for i, v in enumerate(schema)}
            signatures = []
            seen = set()
            consumed = set()
            sig_source: Dict[tuple, int] = {}
            for pos, q in enumerate(remaining):
                sig, consumes = run_signature(q, var, bound)
                if sig is None:
                    continue
                if sig not in seen:
                    seen.add(sig)
                    signatures.append(sig)
                if consumes:
                    consumed.add(pos)
                    sig_source.setdefault(sig, pos)
            if not signatures:
                return None
            if len(signatures) == 1 and signatures[0] in sig_source:
                # Degenerate level: a single constraining run from a
                # pattern whose only free position is the variable.
                # An index probe on that pattern is the same candidate
                # set without building (and memoizing) a sorted run per
                # input row.
                source = remaining[sig_source[signatures[0]]]
                new_schema, inner = self._pattern_plan(source, schema,
                                                       graph)
                if inner is None:
                    return None  # unknown constant: nested-loop reports
            else:
                resolved = self._resolve_run_signatures(signatures, index)
                if resolved is None:
                    return None
                static_specs, row_specs = resolved
                inner = self._intersection_step(var, static_specs,
                                                row_specs, graph)
                new_schema = schema + [var]

            def step(rows, append, _inner=inner):
                # One wcoj step per input row per level; the inner
                # intersection probes keep bumping intersect_steps.
                stats.wcoj_steps += len(rows)
                _inner(rows, append)

            steps.append(step)
            schema = new_schema
            schemas.append(list(schema))
            bound.add(var)
            remaining = [q for pos, q in enumerate(remaining)
                         if pos not in consumed]
        for q in remaining:
            for term in q:
                if isinstance(term, Variable) and term.name not in bound:
                    return None  # partial order: fall back
        for q in remaining:
            schema, check = self._pattern_plan(q, schema, graph)
            if check is None:
                return None  # unknown constant: nested-loop path reports
            steps.append(check)
            schemas.append(list(schema))
        return schema, schemas, steps

    def _intersection_step(self, var: str, static_specs, row_specs, graph):
        """Build the executable step for one intersection binding.

        Operand handling is leapfrog-style but asymmetric, which is what
        makes it fast in CPython: the narrowest operand becomes the
        sorted-run iteration seed and every other operand an O(1)
        membership probe (the graph's native index sets), so the work is
        ``O(min operand)`` with constant-time elimination — the same
        candidates the galloping :func:`~repro.rdf.graph.intersect_runs`
        would produce, at hash-probe instead of binary-search constants.
        *Static* operands (constant-keyed and predicate-subject runs) are
        merged once at compile time; *row-keyed* operands are re-seeded
        per input row.  Because every seed is sorted, candidates always
        emerge in ascending id order no matter which operand was
        smallest, keeping row order deterministic across executors and
        strategies.
        """
        stats = self.stats
        objects_for = graph.objects_for
        subjects_for = graph.subjects_for
        objects_run = graph.objects_run
        subjects_run = graph.subjects_run
        psubjects_run = graph.predicate_subjects_run

        def track(fetch, *args):
            before = graph.sorted_runs_built
            run = fetch(*args)
            built = graph.sorted_runs_built - before
            if built:
                stats.sorted_runs_built += built
            return run

        def dead_step(rows, append):
            # Some operand is statically empty: the step matches nothing,
            # ever, but the schema still gains the variable.
            return

        static_runs: List[tuple] = []
        static_members: List = []
        for kind, pid, other in static_specs:
            if kind == "psubjects":
                run = track(psubjects_run, pid)
                members = graph.predicate_subjects_set(pid)
            elif kind == "subjects":
                run = track(subjects_run, pid, other)
                members = subjects_for(pid, other)
            else:  # objects: constant subject `other`, predicate pid
                run = track(objects_run, other, pid)
                members = objects_for(other, pid)
            if not run:
                return dead_step
            static_runs.append(run)
            static_members.append(members)
        static_candidates = None
        static_set = None
        if static_runs:
            if len(static_runs) > 1:
                # Merge the static operands once at compile time: iterate
                # the narrowest sorted run, eliminate against the others'
                # membership sets.  Every per-input-row execution then
                # starts from the merged candidate list.
                stats.intersect_steps += 1
                seed_at = min(range(len(static_runs)),
                              key=lambda i: len(static_runs[i]))
                merged = static_runs[seed_at]
                for i, members in enumerate(static_members):
                    if i != seed_at:
                        merged = [tid for tid in merged if tid in members]
                if not merged:
                    return dead_step
                static_candidates = merged
            else:
                static_candidates = static_runs[0]

        sip_filter = self._sip.get(var) if self._sip else None

        if not row_specs:
            # Every operand is static: the intersection is already done.
            matched = static_candidates
            dropped = 0
            if sip_filter is not None:
                kept = [tid for tid in matched if tid in sip_filter]
                dropped = len(matched) - len(kept)
                matched = kept

            def static_step(rows, append):
                n_rows = 0
                for row in rows:
                    n_rows += 1
                    for tid in matched:
                        append(row + (tid,))
                # Count candidates before the SIP drop, exactly like the
                # nested-loop shapes, so pattern_matches means the same
                # thing under every strategy.
                stats.pattern_matches += (len(matched) + dropped) * n_rows
                stats.sip_filtered_rows += dropped * n_rows

            return static_step

        set_fetchers = []
        run_fetchers = []
        for kind, pid, col in row_specs:
            if kind == "subjects":
                set_fetchers.append(lambda row, _p=pid, _c=col:
                                    subjects_for(_p, row[_c]))
                run_fetchers.append(lambda row, _p=pid, _c=col:
                                    track(subjects_run, _p, row[_c]))
            else:  # objects keyed by a bound subject column
                set_fetchers.append(lambda row, _p=pid, _c=col:
                                    objects_for(row[_c], _p))
                run_fetchers.append(lambda row, _p=pid, _c=col:
                                    track(objects_run, row[_c], _p))
        n_row = len(set_fetchers)

        def finish(row, matched, append):
            # pattern_matches counts pre-filter candidates (same meaning
            # as the nested-loop shapes); SIP drops are tracked apart.
            # The specialized shapes below inline this and batch the
            # counter updates per step call — keep their accounting in
            # sync with any change here.
            stats.pattern_matches += len(matched)
            if sip_filter is not None:
                kept = [tid for tid in matched if tid in sip_filter]
                stats.sip_filtered_rows += len(matched) - len(kept)
                matched = kept
            for tid in matched:
                append(row + (tid,))

        if n_row == 1 and static_candidates is not None:
            # One static operand list, one row-keyed operand: the
            # dominant anchored shape (e.g. candidates ∩ (p, o_row)).
            get0, run0 = set_fetchers[0], run_fetchers[0]
            static_len = len(static_candidates)
            if static_set is None:
                static_set = frozenset(static_candidates)

            def step(rows, append):
                steps = 0
                candidates = 0
                for row in rows:
                    members = get0(row)
                    if not members:
                        continue
                    steps += 1
                    if static_len <= len(members):
                        matched = [tid for tid in static_candidates
                                   if tid in members]
                    else:
                        matched = [tid for tid in run0(row)
                                   if tid in static_set]
                    candidates += len(matched)
                    if sip_filter is not None:
                        kept = [tid for tid in matched if tid in sip_filter]
                        stats.sip_filtered_rows += len(matched) - len(kept)
                        matched = kept
                    for tid in matched:
                        append(row + (tid,))
                stats.intersect_steps += steps
                stats.pattern_matches += candidates

            return step

        if n_row == 2 and static_candidates is None:
            # Two row-keyed operands: the cyclic-join shape.
            get0, run0 = set_fetchers[0], run_fetchers[0]
            get1, run1 = set_fetchers[1], run_fetchers[1]

            def step(rows, append):
                steps = 0
                candidates = 0
                for row in rows:
                    first = get0(row)
                    if not first:
                        continue
                    second = get1(row)
                    if not second:
                        continue
                    steps += 1
                    if len(first) <= len(second):
                        matched = [tid for tid in run0(row)
                                   if tid in second]
                    else:
                        matched = [tid for tid in run1(row)
                                   if tid in first]
                    candidates += len(matched)
                    if sip_filter is not None:
                        kept = [tid for tid in matched if tid in sip_filter]
                        stats.sip_filtered_rows += len(matched) - len(kept)
                        matched = kept
                    for tid in matched:
                        append(row + (tid,))
                stats.intersect_steps += steps
                stats.pattern_matches += candidates

            return step

        if static_candidates is not None and static_set is None:
            static_set = frozenset(static_candidates)

        def step(rows, append):
            steps = 0
            for row in rows:
                row_sets = []
                dead = False
                for get_set in set_fetchers:
                    candidates = get_set(row)
                    if not candidates:
                        dead = True
                        break
                    row_sets.append(candidates)
                if dead:
                    continue
                steps += 1
                if static_candidates is not None and len(static_candidates) \
                        <= min(len(s) for s in row_sets):
                    seed = static_candidates
                    probes = row_sets
                else:
                    best = 0
                    best_len = len(row_sets[0])
                    for k in range(1, n_row):
                        if len(row_sets[k]) < best_len:
                            best = k
                            best_len = len(row_sets[k])
                    seed = run_fetchers[best](row)
                    probes = row_sets[:best] + row_sets[best + 1:]
                    if static_set is not None:
                        probes.append(static_set)
                if len(probes) == 1:
                    p0 = probes[0]
                    matched = [tid for tid in seed if tid in p0]
                elif len(probes) == 2:
                    p0, p1 = probes
                    matched = [tid for tid in seed
                               if tid in p0 and tid in p1]
                else:
                    matched = [tid for tid in seed
                               if all(tid in p for p in probes)]
                finish(row, matched, append)
            stats.intersect_steps += steps

        return step

    def _stream_bgp(self, node: alg.BGP, graph,
                    hint: Optional[int]) -> TableStream:
        self.stats.bgp_count += 1
        patterns = node.triples
        if not patterns:
            return TableStream((), self._meter(iter(([()],))))
        cap = self._cap(hint)
        intersect = self._bgp_intersect(node)
        eliminate = self._wcoj_order(node, graph)
        sip_active = self._sip_touches(patterns)
        if self.cache_bgps and not sip_active:
            cache_key = (id(graph), intersect, eliminate,
                         tuple(sorted(patterns, key=lambda t: repr(t))))
            cached = self._bgp_cache.get(cache_key)
            if cached is not None:
                # A fully-materialized table from an earlier (materialized)
                # evaluation of the same BGP: re-chunk it.  Streamed
                # results are never cached — they may be pulled partially.
                self.stats.bgp_cache_hits += 1
                return TableStream(cached.variables,
                                   self._meter(batched(cached.rows, cap)))
        if len(patterns) > 1 and not eliminate:
            if sip_active:
                patterns = self._order_for_sip(patterns, graph)
            elif self.optimize:
                patterns = order_patterns(patterns, self._graph_stats(graph))
        schema, _schemas, steps = self._bgp_steps(patterns, graph, intersect,
                                                  eliminate)
        if steps is None:
            return TableStream(schema, self._meter(iter(())))
        if self.vectorize and hint is None:
            # Columnar breadth-first expansion: same chunking discipline
            # and lexicographic row order as the row-mode branch below,
            # but each level's fan-out happens column-at-a-time (index
            # probes feeding ``list.extend`` plus parent-column
            # compression or replication) instead of building a tuple
            # per row.  A step
            # without a columnar form (an intersection step) detours
            # through row view for that level and transposes back.
            cap = STREAM_BATCH_ROWS
            first, rest = steps[0], steps[1:]
            n_rest = len(rest)
            check = self._check_valves
            widths = [len(s) for s in _schemas]
            stats = self.stats

            def run_step(index, step, cb):
                cstep = getattr(step, "columnar", None)
                if cstep is not None:
                    return cstep(cb)
                out: List[tuple] = []
                step(cb.to_rows(), out.append)
                stats.row_fallbacks += 1
                return ColumnBatch.from_rows(out, widths[index])

            def cexpand(cb, level):
                if level == n_rest:
                    n = len(cb)
                    if n <= cap:
                        yield cb
                    else:
                        for start in range(0, n, cap):
                            yield cb[start:start + cap]
                    return
                step = rest[level]
                for start in range(0, len(cb), cap):
                    out = run_step(level + 1, step, cb[start:start + cap])
                    check(len(out))
                    if len(out):
                        yield from cexpand(out, level + 1)

            def cbatches():
                seed = run_step(0, first, ColumnBatch([], None, 1))
                check(len(seed))
                if len(seed):
                    yield from cexpand(seed, 0)

            return TableStream(schema, self._meter(cbatches()))
        if hint is None:
            # No bound above: the consumer (a streaming Group, a join
            # build, a full drain) will pull everything, so per-row
            # depth-first granularity buys nothing and costs a generator
            # resume per row.  Expand breadth-first instead — the first
            # pattern materializes once, then each chunk of its rows runs
            # through the remaining patterns with the same tight
            # per-level loops as the materialized matcher.  The output
            # row order is identical either way (both enumerate leaves in
            # lexicographic probe order).
            cap = STREAM_BATCH_ROWS
            first, rest = steps[0], steps[1:]
            n_rest = len(rest)

            def expand(rows, level):
                # Chunk at *every* level, not just the seed: a <= cap
                # chunk with high fan-out would otherwise expand through
                # all remaining patterns into one table-sized batch.
                # Working set stays at one chunk's single-level fan-out;
                # depth-first recursion over chunks preserves the
                # lexicographic row order.
                if level == n_rest:
                    if len(rows) <= cap:
                        yield rows
                    else:
                        for start in range(0, len(rows), cap):
                            yield rows[start:start + cap]
                    return
                step = rest[level]
                for start in range(0, len(rows), cap):
                    out: List[tuple] = []
                    step(rows[start:start + cap],
                         self._guarded_append(out))
                    if out:
                        yield from expand(out, level + 1)

            def batches():
                seed: List[tuple] = []
                first(((),), self._guarded_append(seed))
                if seed:
                    yield from expand(seed, 0)

            return TableStream(schema, self._meter(batches()))
        last = len(steps) - 1

        def leaves(level, rows):
            # Depth-first index-nested-loop with per-row granularity: a
            # complete output row surfaces after touching only its own
            # chain of index probes, which is what lets LIMIT-bounded
            # consumers leave the remaining fan-out unexpanded.
            step = steps[level]
            if level == last:
                for row in rows:
                    out: List[tuple] = []
                    step((row,), out.append)
                    if out:
                        yield out
                return
            for row in rows:
                out = []
                step((row,), out.append)
                if out:
                    yield from leaves(level + 1, out)

        def batches():
            # Re-chunk leaf bursts to ``cap`` with a start pointer +
            # one compaction per burst (amortized O(1) per row — slicing
            # the buffer head off per yield would go quadratic).
            buf: List[tuple] = []
            start = 0
            for leaf in leaves(0, [()]):
                buf.extend(leaf)
                if len(buf) - start >= cap:
                    while len(buf) - start >= cap:
                        yield buf[start:start + cap]
                        start += cap
                    buf = buf[start:]
                    start = 0
            if buf:
                yield buf

        return TableStream(schema, self._meter(batches()))

    def _stream_inlinedata(self, node: alg.InlineData, graph,
                           hint: Optional[int]) -> TableStream:
        encode = self.dictionary.encode
        rows = [tuple(None if value is None else encode(value)
                      for value in row)
                for row in node.rows]
        return TableStream(node.variables,
                           self._meter(batched(rows, self._cap(hint))))

    # -- row-wise operators (fully pipelined) --------------------------

    def _stream_filter(self, node: alg.Filter, graph,
                       hint: Optional[int]) -> TableStream:
        # The hint survives only as a batch-size bound: a filter may need
        # many input rows per surviving row, so it caps nothing.
        inner = self.stream(node.pattern, graph, hint)
        condition = node.condition
        index = inner.index
        decode = self.dictionary.decode
        # On the vectorized plane, try compiling the condition into a
        # selection-vector scan (id comparisons, IN over IRIs, BOUND —
        # see :mod:`.vector`); conditions outside that subset keep
        # ``compiled is None`` and columnar input falls back to row view.
        compiled = compile_predicate(condition, index, self.dictionary) \
            if self.vectorize else None
        stats = self.stats
        to_rows = self._rows

        def batches():
            for batch in inner.batches:
                if type(batch) is ColumnBatch:
                    if compiled is not None:
                        flags, kept = compiled(batch)
                        stats.selection_vector_hits += 1
                        if kept:
                            yield batch.take_flags(flags, kept)
                        continue
                    batch = to_rows(batch)
                keep = []
                append = keep.append
                for row in batch:
                    try:
                        if ebv(condition.evaluate(RowView(index, row,
                                                          decode))):
                            append(row)
                    except ExpressionError:
                        continue  # errors eliminate the solution
                if keep:
                    yield keep

        return TableStream(inner.variables, self._meter(batches()))

    def _stream_extend(self, node: alg.Extend, graph,
                       hint: Optional[int]) -> TableStream:
        if self._sip and node.var in self._sip:
            scope = self._sip
            self._sip = self._sip_without(node.var)
            try:
                return self._stream_extend(node, graph, hint)
            finally:
                self._sip = scope
        inner = self.stream(node.pattern, graph, hint)
        index = inner.index
        decode = self.dictionary.decode
        encode = self.dictionary.encode
        target = index.get(node.var)
        expression = node.expression
        variables = inner.variables if target is not None \
            else inner.variables + (node.var,)

        def extend_row(row):
            try:
                value = expression.evaluate(RowView(index, row, decode))
                tid = encode(value)
            except ExpressionError:
                return row + (None,) if target is None else row
            if target is None:
                return row + (tid,)
            patched = list(row)
            patched[target] = tid
            return tuple(patched)

        def patch_column(cb, col, mask):
            cols = list(cb.columns)
            cols[target] = col
            masks = cb.masks
            if masks is not None or mask is not None:
                masks = [None] * len(cols) if masks is None else list(masks)
                masks[target] = mask
                if not any(m is not None for m in masks):
                    masks = None
            return ColumnBatch(cols, masks, len(cb))

        # Columnar forms for the two trivial expression shapes — a
        # variable copy (ids are stable under decode/encode, so the column
        # is shared outright) and a constant (one encode, tiled).  Any
        # other expression transposes to row view per batch.
        columnar = None
        expr_t = type(expression)
        if self.vectorize and expr_t is VarExpr:
            src = index.get(expression.name)

            def columnar(cb):
                n = len(cb)
                if src is None:
                    if target is not None:
                        return cb  # every row errors; rows keep old value
                    return cb.append_column([-1] * n,
                                            bytearray(b"\x01" * n))
                col, mask = cb.columns[src], cb.mask(src)
                if target is None:
                    return cb.append_column(col, mask)
                if mask is not None:
                    # Null source rows keep the *old* target value on the
                    # row plane — a per-row merge; use row view for it.
                    return None
                return patch_column(cb, col, None)
        elif self.vectorize and expr_t is ConstExpr:
            const_tid = encode(expression.term)

            def columnar(cb):
                col = [const_tid] * len(cb)
                if target is None:
                    return cb.append_column(col, None)
                return patch_column(cb, col, None)

        to_rows = self._rows

        def batches():
            for batch in inner.batches:
                if type(batch) is ColumnBatch:
                    if columnar is not None:
                        out = columnar(batch)
                        if out is not None:
                            yield out
                            continue
                    batch = to_rows(batch)
                yield [extend_row(row) for row in batch]

        return TableStream(variables, self._meter(batches()))

    def _stream_project(self, node: alg.Project, graph,
                        hint: Optional[int]) -> TableStream:
        inner = self.stream(node.pattern, graph, hint)
        if node.variables is None:
            # SELECT *: drop synthetic aggregate helper variables.
            keep = [v for v in inner.variables if not v.startswith("__agg_")]
            if len(keep) == len(inner.variables):
                return inner
            variables = keep
        else:
            variables = list(node.variables)
        positions = [inner.index.get(v) for v in variables]

        def batches():
            # Columnar projection is a column *selection* — no per-row
            # work at all, storage shared with the child batch.
            if None in positions:
                for batch in inner.batches:
                    if type(batch) is ColumnBatch:
                        yield batch.take(positions)
                        continue
                    yield [tuple([None if p is None else row[p]
                                  for p in positions]) for row in batch]
            elif len(positions) == 1:
                p0 = positions[0]
                for batch in inner.batches:
                    if type(batch) is ColumnBatch:
                        yield batch.take(positions)
                        continue
                    yield [(row[p0],) for row in batch]
            else:
                for batch in inner.batches:
                    if type(batch) is ColumnBatch:
                        yield batch.take(positions)
                        continue
                    yield [tuple([row[p] for p in positions])
                           for row in batch]

        return TableStream(variables, self._meter(batches()))

    def _stream_union(self, node: alg.Union, graph,
                      hint: Optional[int]) -> TableStream:
        left = self.stream(node.left, graph, hint)
        right = self.stream(node.right, graph, hint)
        out_vars = left.variables + tuple(v for v in right.variables
                                          if v not in left.index)
        pad = (None,) * (len(out_vars) - len(left.variables))
        rmap = [right.index.get(v) for v in out_vars]
        lmap = [left.index.get(v) for v in out_vars]

        def batches():
            # Columnar branch alignment reuses ``take``: identity plus
            # all-null pad columns on the left, a position remap (with
            # null columns for left-only variables) on the right.
            for batch in left.batches:
                if type(batch) is ColumnBatch:
                    yield batch.take(lmap) if pad else batch
                    continue
                yield [row + pad for row in batch] if pad else batch
            for batch in right.batches:
                if type(batch) is ColumnBatch:
                    yield batch.take(rmap)
                    continue
                yield [tuple(None if p is None else row[p] for p in rmap)
                       for row in batch]

        return TableStream(out_vars, self._meter(batches()))

    def _stream_distinct(self, node: alg.Distinct, graph,
                         hint: Optional[int]) -> TableStream:
        # A dedup typically consumes many duplicate rows per distinct row
        # it emits: inflate the child batch size so a bounded consumer
        # above (DISTINCT ... LIMIT k) doesn't drive the producer in
        # k-row micro-batches.
        child_hint = None if hint is None else max(hint * 16, 64)
        inner = self.stream(node.pattern, graph, child_hint)
        return TableStream(inner.variables,
                           self._meter(stream_distinct(inner.batches)))

    def _stream_graphpattern(self, node: alg.GraphPattern, graph,
                             hint: Optional[int]) -> TableStream:
        target = self.dataset.graph(node.graph_uri)
        return self.stream(node.pattern, target, hint)

    def _stream_slice(self, node: alg.Slice, graph,
                      hint: Optional[int]) -> TableStream:
        start = node.offset
        limit = node.limit
        need = None if limit is None else start + limit
        child_hint = hint if need is None \
            else (need if hint is None else min(hint, need))
        scope = self._sip
        self._sip = {}  # a window selects rows; pruning its input is unsound
        try:
            inner = self.stream(node.pattern, graph, child_hint)
        finally:
            self._sip = scope
        stats = self.stats

        def batches():
            if limit == 0:
                stats.early_exits += 1
                return
            seen = 0
            for batch in inner.batches:
                end = seen + len(batch)
                if end > start:
                    lo = max(0, start - seen)
                    hi = len(batch) if need is None \
                        else min(len(batch), need - seen)
                    piece = batch if lo == 0 and hi == len(batch) \
                        else batch[lo:hi]
                    if piece:
                        yield piece
                seen = end
                if need is not None and end >= need:
                    # The bound is satisfied: stop pulling.  Upstream
                    # producers past this point never run.
                    stats.early_exits += 1
                    close = getattr(inner.batches, "close", None)
                    if close is not None:
                        close()
                    return

        return TableStream(inner.variables, self._meter(batches()))

    # -- aggregation: streaming hash groups ----------------------------

    def _stream_group(self, node: alg.Group, graph,
                      hint: Optional[int]) -> TableStream:
        """Streaming hash aggregation: fold input batches into per-group
        accumulator states as they arrive, emit one final batch.

        ``Group`` is no longer a pipeline breaker: its input is *consumed*
        incrementally (the child BGP/join pipeline runs batch by batch and
        no input table is ever materialized); only the per-group states —
        one small accumulator per aggregate per group — are held.  For
        COUNT that state is an integer (or an id seen-set for DISTINCT);
        SUM/MIN/MAX/AVG fold decoded numeric values as they stream by;
        SAMPLE keeps the first value; GROUP_CONCAT appends lexical parts.
        The single-pattern COUNT shape short-circuits to the index-backed
        :meth:`_fast_group_count` and touches no rows at all.

        Group keys hash dense int-id tuples (scalar ids for the common
        one-variable GROUP BY), exactly like the materialized operator, so
        group order is the first-seen order of the input stream and every
        finished cell is bit-identical to :meth:`_eval_group`'s.
        """
        if self._sip:
            allowed = self._sip_for_group(node)
            if len(allowed) != len(self._sip):
                scope = self._sip
                self._sip = allowed
                try:
                    return self._stream_group(node, graph, hint)
                finally:
                    self._sip = scope
        pushed = self._wcoj_group_aggregate(node, graph)
        if pushed is not None:
            batches = iter((pushed.rows,)) if pushed.rows else iter(())
            return TableStream(pushed.variables, self._meter(batches))
        fast = self._fast_group_count(node, graph)
        if fast is not None:
            batches = iter((fast.rows,)) if fast.rows else iter(())
            return TableStream(fast.variables, self._meter(batches))
        inner = self.stream(node.pattern, graph, None)
        out_vars = tuple(node.group_vars) + tuple(a.alias
                                                  for a in node.aggregates)
        index = inner.index
        decode = self.dictionary.decode
        encode = self.dictionary.encode
        if len(node.aggregates) >= 2 and all(
                (a.expression is None and not a.distinct)
                or type(a.expression) is VarExpr
                for a in node.aggregates):
            # Several column aggregates over one group: appending one
            # member tuple — only the columns the aggregates read — and
            # batch-aggregating each column at emit (the materialized
            # operator's own :func:`_aggregate_columnar`) beats driving
            # N accumulators per row.  COUNT(DISTINCT *) is excluded: it
            # needs full solutions, so it stays on the accumulator path.
            return self._stream_group_members(node, inner, out_vars)
        specs = [_compile_aggregate(a, index, decode)
                 for a in node.aggregates]
        group_vars = node.group_vars
        positions = [index.get(v) for v in group_vars]
        having = node.having
        out_index = {v: i for i, v in enumerate(out_vars)}
        stats = self.stats

        # Scalar keys (the common one-variable GROUP BY) skip per-row
        # tuple construction; the single-aggregate shape skips the
        # state-list indirection.  Both mirror the materialized operator's
        # own fast paths, so the same queries stay fast on both planes.
        scalar = positions[0] if (len(positions) == 1
                                  and positions[0] is not None) else None
        if group_vars and scalar is None:
            def key_of(row):
                return tuple(None if p is None else row[p]
                             for p in positions)
        else:
            def key_of(row):  # implicit single group
                return ()

        # Columnar fold for the scalar-key single-COUNT shapes: the
        # accumulator loop walks the key column (and the counted column's
        # null mask) directly — no row tuple is ever built.  State shapes
        # are identical to the row folds', so mixed columnar/row input
        # streams share one ``groups`` dict.
        cfold = None
        if self.vectorize and scalar is not None and len(specs) == 1 \
                and node.aggregates[0].function == "count":
            agg0 = node.aggregates[0]
            expr0 = agg0.expression
            new0_c = specs[0][0]
            if expr0 is None and not agg0.distinct:
                # Counting needs no per-row state transition: Counter
                # tallies the key column in C and the Python loop runs
                # once per *distinct* key.
                def cfold(groups, get, cb):
                    for key, k in Counter(cb.columns[scalar]).items():
                        state = get(key)
                        if state is None:
                            groups[key] = state = new0_c()
                        state[0] += k
            elif type(expr0) is VarExpr and not agg0.distinct:
                vpos = index.get(expr0.name)

                def cfold(groups, get, cb):
                    vmask = None if vpos is None else cb.mask(vpos)
                    if vpos is not None and vmask is None:
                        for key, k in Counter(cb.columns[scalar]).items():
                            state = get(key)
                            if state is None:
                                groups[key] = state = new0_c()
                            state[0] += k
                        return
                    for key, null in zip(cb.columns[scalar],
                                         vmask if vmask is not None
                                         else repeat(1, len(cb))):
                        state = get(key)
                        if state is None:
                            groups[key] = state = new0_c()
                        if not null:
                            state[0] += 1
            elif type(expr0) is VarExpr and agg0.distinct:
                vpos = index.get(expr0.name)
                if vpos is not None:
                    def cfold(groups, get, cb):
                        vmask = cb.mask(vpos)
                        if vmask is None:
                            for key, tid in zip(cb.columns[scalar],
                                                cb.columns[vpos]):
                                state = get(key)
                                if state is None:
                                    groups[key] = state = set()
                                state.add(tid)
                            return
                        for key, tid, null in zip(cb.columns[scalar],
                                                  cb.columns[vpos], vmask):
                            state = get(key)
                            if state is None:
                                groups[key] = state = set()
                            if not null:
                                state.add(tid)
        to_rows_fb = self._rows

        def batches():
            groups: Dict = {}  # key -> aggregate state(s)
            get = groups.get
            folded = 0
            if len(specs) == 1:
                new0, fold0, _ = specs[0]
                for batch in inner.batches:
                    folded += len(batch)
                    if type(batch) is ColumnBatch:
                        if cfold is not None \
                                and batch.mask(scalar) is None:
                            cfold(groups, get, batch)
                            continue
                        batch = to_rows_fb(batch)
                    if scalar is not None:
                        for row in batch:
                            key = row[scalar]
                            state = get(key)
                            if state is None:
                                groups[key] = state = new0()
                            fold0(state, row)
                    else:
                        for row in batch:
                            key = key_of(row)
                            state = get(key)
                            if state is None:
                                groups[key] = state = new0()
                            fold0(state, row)
                finished = ((key, (state,))
                            for key, state in groups.items())
            else:
                folds = [fold for _, fold, _ in specs]
                if len(folds) == 2:
                    f0, f1 = folds

                    def fold_all(states, row):
                        f0(states[0], row)
                        f1(states[1], row)
                elif len(folds) == 3:
                    f0, f1, f2 = folds

                    def fold_all(states, row):
                        f0(states[0], row)
                        f1(states[1], row)
                        f2(states[2], row)
                else:
                    def fold_all(states, row):
                        i = 0
                        for fold in folds:
                            fold(states[i], row)
                            i += 1
                for batch in inner.batches:
                    folded += len(batch)
                    if type(batch) is ColumnBatch:
                        batch = to_rows_fb(batch)
                    for row in batch:
                        key = row[scalar] if scalar is not None \
                            else key_of(row)
                        states = get(key)
                        if states is None:
                            states = [new() for new, _, _ in specs]
                            groups[key] = states
                        fold_all(states, row)
                finished = groups.items()
            if not group_vars and not groups:
                # Implicit single group over empty input: COUNT is 0.
                groups[()] = [new() for new, _, _ in specs]
                finished = groups.items()
            stats.accumulator_rows += folded
            stats.groups_built += len(groups)
            out_rows: List[tuple] = []
            for key, states in finished:
                cells = [key] if scalar is not None else list(key)
                for (_, _, finish), state in zip(specs, states):
                    value = finish(state)
                    cells.append(None if value is None else encode(value))
                out_row = tuple(cells)
                if having is not None \
                        and not _passes_having(having, out_index,
                                               out_row, decode):
                    continue
                out_rows.append(out_row)
            if out_rows:
                yield out_rows

        return TableStream(out_vars, self._meter(batches()))

    def _stream_group_members(self, node: alg.Group, inner: TableStream,
                              out_vars) -> TableStream:
        """Member grouping for multi-aggregate column-only Groups.

        One ``list.append`` per input row while the child stream drains —
        of a *projected* member tuple holding only the columns the
        aggregates read, so wide input rows are never retained.  Each
        group's columns are then aggregated in one batch pass per
        aggregate — the same :func:`_aggregate_columnar` math the
        materialized operator runs, so cells are bit-identical.
        """
        index = inner.index
        decode = self.dictionary.decode
        encode = self.dictionary.encode
        group_vars = node.group_vars
        positions = [index.get(v) for v in group_vars]
        having = node.having
        out_index = {v: i for i, v in enumerate(out_vars)}
        stats = self.stats
        scalar = positions[0] if (len(positions) == 1
                                  and positions[0] is not None) else None
        # Project members down to the aggregated columns.  COUNT(*)
        # needs only multiplicity, so an all-COUNT(*) Group keeps empty
        # tuples; _aggregate_columnar reads the members through the
        # narrowed schema below.
        needed: List[str] = []
        for aggregate in node.aggregates:
            expr = aggregate.expression
            if expr is not None and expr.name in index \
                    and expr.name not in needed:
                needed.append(expr.name)
        member_pos = [index[v] for v in needed]
        member_index = {v: i for i, v in enumerate(needed)}
        if len(member_pos) == 1:
            mp0 = member_pos[0]

            def member_of(row):
                return (row[mp0],)
        else:
            def member_of(row):
                return tuple(row[p] for p in member_pos)

        to_rows_fb = self._rows

        def batches():
            groups: Dict = {}  # key -> projected member tuples
            get = groups.get
            folded = 0
            for batch in inner.batches:
                folded += len(batch)
                if type(batch) is ColumnBatch:
                    batch = to_rows_fb(batch)
                if scalar is not None:
                    for row in batch:
                        key = row[scalar]
                        members = get(key)
                        if members is None:
                            groups[key] = members = []
                        members.append(member_of(row))
                elif group_vars:
                    for row in batch:
                        key = tuple(None if p is None else row[p]
                                    for p in positions)
                        members = get(key)
                        if members is None:
                            groups[key] = members = []
                        members.append(member_of(row))
                else:
                    for row in batch:
                        members = get(())
                        if members is None:
                            groups[()] = members = []
                        members.append(member_of(row))
            if not group_vars and not groups:
                groups[()] = []  # implicit single group: COUNT is 0
            stats.accumulator_rows += folded
            stats.groups_built += len(groups)
            out_rows: List[tuple] = []
            for key, members in groups.items():
                cells = [key] if scalar is not None else list(key)
                for aggregate in node.aggregates:
                    value = _aggregate_columnar(aggregate, members,
                                                member_index, decode)
                    cells.append(None if value is None else encode(value))
                out_row = tuple(cells)
                if having is not None \
                        and not _passes_having(having, out_index,
                                               out_row, decode):
                    continue
                out_rows.append(out_row)
            if out_rows:
                yield out_rows

        return TableStream(out_vars, self._meter(batches()))

    # -- joins: build side materialized, probe side streamed -----------

    def _build_side(self, node: alg.AlgebraNode, graph) -> SolutionTable:
        """Materialize a join build side.

        Aggregate-bearing builds (the RDFFrames group-then-join shape)
        run through the *streaming* operators and drain into a table, so
        the build benefits from streaming hash aggregation and the
        index-backed COUNT fast path — the grouped subquery no longer
        materializes its pre-aggregation input just because it sits under
        a join.  Anything else stays on the materialized evaluator, whose
        row order for non-aggregate operators is the established oracle.
        """
        if _has_aggregate(node):
            return self.stream(node, graph, None).to_table()
        return self.evaluate(node, graph)

    def _stream_join(self, node: alg.Join, graph,
                     hint: Optional[int]) -> TableStream:
        left = self._build_side(node.left, graph)  # build side: breaker
        if not left.rows:
            return TableStream(left.variables, self._meter(iter(())))
        # SIP: the materialized build side exports its key sets into the
        # probe pipeline.  Stream *construction* compiles the BGP steps,
        # so the scope only needs to cover this call.
        exports = self._sip_exports(left, node.right) \
            if self._use_sip(node) else None
        if exports:
            outer = self._sip
            self._sip = self._sip_merge(exports)
            try:
                right = self.stream(node.right, graph, None)
            finally:
                self._sip = outer
        else:
            right = self.stream(node.right, graph, None)
        self.stats.joins += 1
        out_vars, shared, right_only = _merge_plan(left, right)
        index = ProbeIndex(left.rows, [(rp, lp) for lp, rp in shared],
                           self.stats)
        to_rows_fb = self._rows

        def batches():
            for batch in right.batches:
                if type(batch) is ColumnBatch:
                    batch = to_rows_fb(batch)
                out: List[tuple] = []
                probe_join(index, batch, shared, right_only, True,
                           out.append)
                if out:
                    yield out

        return TableStream(out_vars, self._meter(batches()))

    def _stream_leftjoin(self, node: alg.LeftJoin, graph,
                         hint: Optional[int]) -> TableStream:
        left = self.stream(node.left, graph, hint)
        # The optional side is built before any preserved-side row exists,
        # so this plane has no exports to thread into it; the enclosing
        # scope is suspended (an outer join's filter inside an OPTIONAL
        # would turn pruned extensions into null padding — wrong rows,
        # not fewer rows).
        outer = self._sip
        self._sip = {}
        try:
            right = self._build_side(node.right, graph)  # build: breaker
        finally:
            self._sip = outer
        self.stats.joins += 1
        out_vars, shared, right_only = _merge_plan(left, right)
        accept = self._leftjoin_accept(node, out_vars)
        index = ProbeIndex(right.rows, shared, self.stats)
        to_rows_fb = self._rows

        def batches():
            for batch in left.batches:
                if type(batch) is ColumnBatch:
                    batch = to_rows_fb(batch)
                out: List[tuple] = []
                probe_left_join(index, batch, shared, right_only, accept,
                                out.append)
                if out:
                    yield out

        return TableStream(out_vars, self._meter(batches()))

    def _stream_filterexists(self, node: alg.FilterExists, graph,
                             hint: Optional[int]) -> TableStream:
        # The existence group is a breaker either way; building it first
        # lets EXISTS export its key sets into the streamed pattern side:
        # a pattern row whose everywhere-bound shared variable misses the
        # group's value set has no compatible witness, so for EXISTS
        # (negated=False) it is sound to prune at the leaves.  NOT EXISTS
        # keeps exactly those rows, so it exports nothing.  The group
        # itself is evaluated under its own suspended scope, mirroring
        # the materialized plane's auxiliary-side rule.
        scope = self._sip
        self._sip = {}
        try:
            inner = self._build_side(node.group, graph)  # breaker
        finally:
            self._sip = scope
        exports = None
        if not node.negated and self._use_sip(node):
            exports = self._sip_exports(inner, node.pattern)
        if exports:
            self._sip = self._sip_merge(exports)
            try:
                outer = self.stream(node.pattern, graph, hint)
            finally:
                self._sip = scope
        else:
            outer = self.stream(node.pattern, graph, hint)
        _, shared, _ = _merge_plan(outer, inner)
        index = ProbeIndex(inner.rows, shared, self.stats)
        negated = node.negated
        to_rows_fb = self._rows

        def batches():
            for batch in outer.batches:
                if type(batch) is ColumnBatch:
                    batch = to_rows_fb(batch)
                keep = index.semijoin(batch, negated)
                if keep:
                    yield keep

        return TableStream(outer.variables, self._meter(batches()))

    # -- bounded sort --------------------------------------------------

    def _stream_topk(self, node: alg.TopK, graph,
                     hint: Optional[int]) -> TableStream:
        keep = node.offset + node.limit
        scope = self._sip
        self._sip = {}  # bounded sort: same suspension as _stream_slice
        try:
            if isinstance(node.pattern, alg.BGP) and node.pattern.triples:
                return self._stream_topk_bgp(node, graph, keep)
            inner = self.stream(node.pattern, graph, None)
        finally:
            self._sip = scope
        key = self._order_key(inner.index, node.keys)
        offset = node.offset

        def batches():
            rows = heapq.nsmallest(keep, inner.rows(), key=key)[offset:]
            if rows:
                yield rows

        return TableStream(inner.variables, self._meter(batches()))

    def _stream_topk_bgp(self, node: alg.TopK, graph,
                         keep: int) -> TableStream:
        """Bounded sort fused into BGP matching — threshold pruning.

        In the spirit of the threshold family of top-k algorithms (Fagin
        et al.), the sort bound flows *into* the join: patterns are
        matched breadth-first only until every ORDER BY variable is
        bound, then each partial row's sort key is compared against the
        current k-th-best complete row.  A partial that cannot beat it is
        dropped *before* its remaining patterns are expanded, so for
        ``ORDER BY ... LIMIT k`` over a high-fan-out BGP almost all of the
        join fan-out is never produced.  Ties are resolved exactly like a
        stable full sort: a later row never displaces an equal earlier
        one (the heap orders on ``(key, arrival)``).
        """
        stats = self.stats
        offset = node.offset
        pattern_vars = {term.name for triple in node.pattern.triples
                        for term in triple if isinstance(term, Variable)}
        wanted = [var for var, _ in node.keys if var in pattern_vars]
        if not wanted:
            # Every row ties on the (absent) keys: the stable top-k is
            # simply the first ``keep`` rows the BGP produces.
            inner = self._stream_bgp(node.pattern, graph, keep)

            def head_batches():
                taken: List[tuple] = []
                for batch in inner.batches:
                    taken.extend(batch)
                    if len(taken) >= keep:
                        stats.early_exits += 1
                        close = getattr(inner.batches, "close", None)
                        if close is not None:
                            close()
                        break
                rows = taken[offset:keep]
                if rows:
                    yield rows

            return TableStream(inner.variables, self._meter(head_batches()))

        self.stats.bgp_count += 1
        patterns = node.pattern.triples
        eliminate = self._wcoj_order(node.pattern, graph)
        if self.optimize and len(patterns) > 1 and not eliminate:
            patterns = order_patterns(patterns, self._graph_stats(graph))
        # Compile with the same strategy the materialized plane would use:
        # on a tie-heavy ORDER BY the window's k-subset depends on BGP
        # production order, so the planes must drive identical steps.
        schema, schemas, steps = self._bgp_steps(
            patterns, graph, self._bgp_intersect(node.pattern), eliminate)
        if steps is None:
            return TableStream(schema, self._meter(iter(())))
        # First pattern depth at which every sort variable is bound.
        prune_level = 0
        for var in wanted:
            for level, level_schema in enumerate(schemas):
                if var in level_schema:
                    prune_level = max(prune_level, level + 1)
                    break
        prune_level = min(prune_level, len(steps))

        partial_index = {v: i
                         for i, v in enumerate(schemas[prune_level - 1])}
        key_fn = self._order_key(partial_index, node.keys)
        head, tail = steps[:prune_level], steps[prune_level:]
        n_tail = len(tail)

        def finals(level, rows_in):
            if level == n_tail:
                for row in rows_in:
                    yield row
                return
            out: List[tuple] = []
            tail[level](rows_in, self._guarded_append(out))
            if out:
                yield from finals(level + 1, out)

        def batches():
            # The breadth-first head scan materializes the prune-level
            # partials, so it runs under the same mid-pattern safety
            # valves (max_rows, deadline) as the materialized BGP path.
            partials = [()]
            for step in head:
                out: List[tuple] = []
                step(partials, self._guarded_append(out))
                partials = out
                if not partials:
                    break
            heap: List[tuple] = []
            push, pushpop = heapq.heappush, heapq.heappushpop
            arrival = itertools.count()
            threshold = None
            pruned = False
            for partial in partials:
                kkey = key_fn(partial)
                if threshold is not None and not (kkey < threshold):
                    pruned = True
                    continue
                for frow in finals(0, (partial,)):
                    entry = (_Desc((kkey, next(arrival))), frow)
                    if len(heap) < keep:
                        push(heap, entry)
                        if len(heap) == keep:
                            threshold = heap[0][0].key[0]
                    else:
                        pushpop(heap, entry)
                        threshold = heap[0][0].key[0]
            if pruned:
                stats.early_exits += 1
            rows = [entry[1] for entry in sorted(heap)]
            rows.reverse()  # the max-heap sorts descending
            rows = rows[offset:]
            if rows:
                yield rows

        return TableStream(schema, self._meter(batches()))


# ----------------------------------------------------------------------
# Helpers (shared with the reference evaluator)
# ----------------------------------------------------------------------

#: A sideways filter re-orders a probe BGP only when it keeps at most
#: this fraction of the variable's values under the pattern's predicate.
#: Weaker filters still prune at the leaves, but in the plan-time order —
#: dragging a big scan to the front for a filter that keeps most of it
#: costs more than it saves.
SIP_REORDER_SELECTIVITY = 0.15

#: Above this filter size the per-member occurrence refinement is skipped
#: (the raw size ratio is used instead): probing huge sets would cost more
#: than the ordering decision is worth.
SIP_EFFECTIVE_PROBE_CAP = 512


class _SipAwareStats:
    """A :class:`GraphStatistics` view that discounts estimates for
    patterns binding sideways-filtered variables.

    A filter keeps at most its *effective* members of a variable's
    distinct values under a predicate — members that never occur in the
    pattern's position (e.g. Egyptian-born athletes against a
    ``starring`` scan) cannot match, so small filters are probed against
    the index to measure real selectivity.  A pattern whose filter keeps
    at most :data:`SIP_REORDER_SELECTIVITY` of the predicate's values has
    its estimate discounted accordingly; feeding these estimates to
    :func:`order_patterns` moves the filtered leaf to the front of the
    probe's join order.
    """

    def __init__(self, base: GraphStatistics, sip: Dict[str, set], graph):
        self._base = base
        self._sip = sip
        self._graph = graph
        self._effective: Dict[Tuple, int] = {}

    def _effective_count(self, values: set, p, subject_side: bool) -> int:
        """How many filter members actually occur under predicate ``p``
        in the filtered position."""
        key = (id(values), p, subject_side)
        count = self._effective.get(key)
        if count is None:
            if len(values) > SIP_EFFECTIVE_PROBE_CAP:
                count = len(values)
            else:
                graph = self._graph
                pid = graph.dictionary.lookup(p) \
                    if hasattr(graph, "dictionary") else None
                if pid is None:
                    count = len(values)
                elif subject_side:
                    count = sum(1 for v in values
                                if graph.objects_for(v, pid))
                else:
                    count = sum(1 for v in values
                                if graph.subjects_for(pid, v))
            self._effective[key] = count
        return count

    def estimate(self, pattern, bound) -> float:
        estimate = self._base.estimate(pattern, bound)
        s, p, o = pattern
        if isinstance(p, Variable):
            return estimate
        if isinstance(s, Variable) and s.name in self._sip \
                and s.name not in bound:
            universe = max(1, self._base.distinct_subjects(p))
            kept = self._effective_count(self._sip[s.name], p, True)
            if kept / universe <= SIP_REORDER_SELECTIVITY:
                estimate *= kept / universe
        if isinstance(o, Variable) and o.name in self._sip \
                and o.name not in bound:
            universe = max(1, self._base.distinct_objects(p))
            kept = self._effective_count(self._sip[o.name], p, False)
            if kept / universe <= SIP_REORDER_SELECTIVITY:
                estimate *= kept / universe
        return max(estimate, 0.001)


def _common_vars(left: alg.AlgebraNode, right: alg.AlgebraNode) -> List[str]:
    left_vars = set(left.in_scope())
    return [v for v in right.in_scope() if v in left_vars]


def _has_aggregate(node: alg.AlgebraNode) -> bool:
    """True when the subtree contains a ``Group`` (mirrors the planner's
    ``plan_has_aggregate`` without importing the plan layer)."""
    if isinstance(node, alg.Group):
        return True
    return any(_has_aggregate(child) for child in node.children())


#: Sentinel: the columnar aggregate fast path does not apply.
_SLOW = object()


def _passes_having(having, out_index, out_row, decode) -> bool:
    """SPARQL HAVING over one finished group row (grouping variables +
    aggregate aliases): errors eliminate the group, exactly like FILTER.
    The single definition keeps the materialized, streaming, and
    index-backed Group paths from diverging on error semantics."""
    try:
        return ebv(having.evaluate(RowView(out_index, out_row, decode)))
    except ExpressionError:
        return False


def _aggregate_columnar(aggregate: alg.Aggregate, rows, index, decode):
    """Aggregate directly over id columns when the aggregate expression is
    a bare variable (the dominant case: COUNT(?m), SUM(?y), ...).

    COUNT needs no decoding at all — id equality is term equality, so
    DISTINCT deduplicates on ids; the numeric aggregates decode only the
    (possibly deduplicated) column.  Returns ``_SLOW`` when the expression
    is complex and the caller must fall back to per-row views."""
    expr = aggregate.expression
    if expr is None:  # COUNT(*)
        if aggregate.function != "count":
            raise EvaluationError("only COUNT supports *")
        if aggregate.distinct:  # COUNT(DISTINCT *): distinct solutions
            return Literal(len(set(rows)))
        return Literal(len(rows))
    if type(expr) is not VarExpr:
        return _SLOW
    pos = index.get(expr.name)
    if pos is None:
        ids = []
    else:
        ids = [row[pos] for row in rows if row[pos] is not None]
    if aggregate.distinct:
        seen = set()
        unique = []
        for tid in ids:
            if tid not in seen:
                seen.add(tid)
                unique.append(tid)
        ids = unique
    if aggregate.function == "count":
        return Literal(len(ids))
    return _finish_aggregate(aggregate.function,
                             [decode(tid) for tid in ids],
                             aggregate.separator)


def _apply_aggregate(aggregate: alg.Aggregate, members):
    """Apply one aggregate over a group's members (dicts or RowViews)."""
    values = []
    if aggregate.expression is None:  # COUNT(*)
        if aggregate.function != "count":
            raise EvaluationError("only COUNT supports *")
        if aggregate.distinct:
            # COUNT(DISTINCT *): count distinct solutions.  Mappings are
            # keyed by their sorted (variable, term) items; sorting never
            # compares terms because dict keys are unique.
            return Literal(len({tuple(sorted(mu.items()))
                                for mu in members}))
        return Literal(len(members))
    for mu in members:
        try:
            values.append(aggregate.expression.evaluate(mu))
        except ExpressionError:
            continue
    if aggregate.distinct:
        seen = set()
        unique = []
        for value in values:
            if value not in seen:
                seen.add(value)
                unique.append(value)
        values = unique
    return _finish_aggregate(aggregate.function, values, aggregate.separator)


_COUNT_LITERALS: Dict[int, Literal] = {}


def _count_literal(n: int) -> Literal:
    """Memoized ``Literal(n)`` for aggregate counts.

    COUNT-heavy groupings finish thousands of groups whose counts are
    drawn from a few dozen distinct small ints; constructing (and later
    re-hashing, when the dictionary interns it) a fresh Literal per group
    is a measurable share of the drain.  Counts repeat across queries
    too, so the cache is module-level; it is bounded by the number of
    distinct counts ever produced, which grows like the log of the data.
    """
    lit = _COUNT_LITERALS.get(n)
    if lit is None:
        _COUNT_LITERALS[n] = lit = Literal(n)
    return lit


def _value_accumulator(function: str, separator: Optional[str]):
    """``(new_state, fold(state, term), finish(state))`` over term values.

    The per-group accumulator core of the streaming ``Group``: states are
    tiny mutable lists folded one value at a time.  Numeric folds replicate
    :func:`_finish_aggregate` exactly — same left-to-right addition order
    (so float sums are bit-identical), same poison rule (one non-numeric
    value makes the whole aggregate an error -> unbound), same datatype
    promotion flags.
    """
    if function == "sample":
        def new_state():
            return [None, False]

        def fold(state, value):
            if not state[1]:
                state[0] = value
                state[1] = True

        def finish(state):
            return state[0]
    elif function == "group_concat":
        new_state = list
        sep = " " if separator is None else separator

        def fold(state, value):
            state.append(value.lexical if isinstance(value, Literal)
                         else str(value))

        def finish(state):
            return Literal(sep.join(state))
    elif function in ("min", "max"):
        smaller = function == "min"

        def new_state():
            # [best, any_value_seen, poisoned]
            return [None, False, False]

        def fold(state, value):
            state[1] = True
            if state[2]:
                return
            if not (isinstance(value, Literal) and value.is_numeric):
                state[2] = True
                return
            number = value.value
            best = state[0]
            if best is None:
                state[0] = number
            elif (number < best) if smaller else (best < number):
                state[0] = number

        def finish(state):
            if state[2] or not state[1]:
                return None
            return Literal(state[0])
    elif function in ("sum", "avg"):
        def new_state():
            # [total, n, poisoned, saw_double, saw_non_integer]
            return [0, 0, False, False, False]

        def fold(state, value):
            if state[2]:
                return
            if not (isinstance(value, Literal) and value.is_numeric):
                state[2] = True
                return
            state[0] += value.value
            state[1] += 1
            if value.datatype == XSD_DOUBLE:
                state[3] = True
            elif value.datatype != XSD_INTEGER:
                state[4] = True

        if function == "sum":
            def finish(state):
                if state[2]:
                    return None
                if not state[1]:
                    return Literal(0)
                return _numeric_literal(state[0], state[3], state[4])
        else:
            def finish(state):
                if state[2] or not state[1]:
                    return None
                return _numeric_literal(state[0] / state[1], state[3], True)
    else:
        raise EvaluationError("unknown aggregate %r" % function)
    return new_state, fold, finish


def _compile_aggregate(aggregate: alg.Aggregate, index: Dict[str, int],
                       decode):
    """Compile one aggregate into ``(new_state, fold(state, row), finish)``.

    The row-level face of :func:`_value_accumulator`, specialized once per
    Group per aggregate on the input schema:

    * COUNT folds without decoding anything — plain integer bumps, or an
      id seen-set for ``COUNT(DISTINCT ?x)`` (id equality is term
      equality, the same dedup the materialized fast path uses);
    * bare-variable value aggregates read the id column, dedupe on ids
      when DISTINCT, and decode one term per folded value;
    * complex expressions evaluate through a lazy :class:`RowView` per
      row, with SPARQL error semantics (an erroring row contributes no
      value), and dedupe on term values when DISTINCT.

    ``finish`` returns a term (or ``None`` for unbound); results are
    bit-identical to the materialized operator's
    :func:`_aggregate_columnar` / :func:`_apply_aggregate` path.
    """
    function = aggregate.function
    expr = aggregate.expression
    if expr is None:  # COUNT(*)
        if function != "count":
            raise EvaluationError("only COUNT supports *")
        if aggregate.distinct:  # COUNT(DISTINCT *): distinct solutions
            new_state = set

            def fold(state, row):
                state.add(row)

            def finish(state):
                return _count_literal(len(state))
        else:
            def new_state():
                return [0]

            def fold(state, row):
                state[0] += 1

            def finish(state):
                return _count_literal(state[0])

        return new_state, fold, finish

    if type(expr) is VarExpr:
        pos = index.get(expr.name)
        if function == "count":
            if not aggregate.distinct:
                def new_state():
                    return [0]

                if pos is None:
                    def fold(state, row):
                        pass
                else:
                    def fold(state, row):
                        if row[pos] is not None:
                            state[0] += 1

                def finish(state):
                    return _count_literal(state[0])
            else:
                new_state = set
                if pos is None:
                    def fold(state, row):
                        pass
                else:
                    def fold(state, row):
                        tid = row[pos]
                        if tid is not None:
                            state.add(tid)

                def finish(state):
                    return _count_literal(len(state))
            return new_state, fold, finish

        # Value aggregates over an id column fold each decoded value into
        # the incremental :func:`_value_accumulator` state — O(1) per
        # group for the numerics (running totals, same left-to-right
        # addition order and poison/promotion flags as the materialized
        # path, so results match bit for bit).  SAMPLE keeps only the
        # first id; DISTINCT dedupes on ids before folding.
        if function == "sample":
            def new_state():
                return [None]

            if pos is None:
                def fold(state, row):
                    pass
            else:
                # First id, DISTINCT or not: dedup cannot change values[0].
                def fold(state, row):
                    if state[0] is None:
                        state[0] = row[pos]

            def finish(state):
                return None if state[0] is None else decode(state[0])

            return new_state, fold, finish
        value_new, value_fold, value_finish = _value_accumulator(
            function, aggregate.separator)
        if aggregate.distinct:
            def new_state():
                return (set(), value_new())

            if pos is None:
                def fold(state, row):
                    pass
            else:
                def fold(state, row):
                    tid = row[pos]
                    if tid is not None and tid not in state[0]:
                        state[0].add(tid)
                        value_fold(state[1], decode(tid))

            def finish(state):
                return value_finish(state[1])
        else:
            new_state = value_new
            if pos is None:
                def fold(state, row):
                    pass
            else:
                def fold(state, row):
                    tid = row[pos]
                    if tid is not None:
                        value_fold(state, decode(tid))

            finish = value_finish
        return new_state, fold, finish

    # Complex expression: per-row lazy evaluation, error rows skipped.
    expression = expr
    if function == "count":
        if aggregate.distinct:
            new_state = set

            def fold(state, row):
                try:
                    state.add(expression.evaluate(RowView(index, row,
                                                          decode)))
                except ExpressionError:
                    pass

            def finish(state):
                return _count_literal(len(state))
        else:
            def new_state():
                return [0]

            def fold(state, row):
                try:
                    expression.evaluate(RowView(index, row, decode))
                except ExpressionError:
                    return
                state[0] += 1

            def finish(state):
                return _count_literal(state[0])
        return new_state, fold, finish

    value_new, value_fold, value_finish = _value_accumulator(
        function, aggregate.separator)
    if aggregate.distinct:
        def new_state():
            return (set(), value_new())

        def fold(state, row):
            try:
                value = expression.evaluate(RowView(index, row, decode))
            except ExpressionError:
                return
            if value not in state[0]:
                state[0].add(value)
                value_fold(state[1], value)

        def finish(state):
            return value_finish(state[1])
    else:
        new_state = value_new

        def fold(state, row):
            try:
                value = expression.evaluate(RowView(index, row, decode))
            except ExpressionError:
                return
            value_fold(state, value)

        finish = value_finish
    return new_state, fold, finish


def _numeric_literal(number, saw_double: bool,
                     saw_non_integer: bool) -> Literal:
    """A SUM/AVG result literal with SPARQL's numeric type promotion.

    Integer inputs promote to ``xsd:decimal`` when the operation leaves
    the integers (AVG divides; a decimal operand infects a SUM); any
    ``xsd:double`` operand makes the result a double.  Earlier revisions
    let Python's float arithmetic turn every non-integer result into
    ``xsd:double``, so ``AVG`` over int/decimal columns silently changed
    datatype; the value itself was and is the same.
    """
    if saw_double:
        return Literal(float(number))
    if saw_non_integer or isinstance(number, float):
        lexical = repr(float(number))
        if "e" in lexical or "E" in lexical:
            # XSD decimal forbids exponent notation; expand to the exact
            # plain form of the shortest-round-trip float repr.
            lexical = format(Decimal(lexical), "f")
        if lexical.endswith(".0"):
            lexical = lexical[:-2]
        return Literal(lexical, datatype=XSD_DECIMAL)
    return Literal(number)


def _finish_aggregate(function: str, values, separator: Optional[str] = None):
    if function == "count":
        return Literal(len(values))
    if function == "sample":
        return values[0] if values else None
    if function == "group_concat":
        parts = [v.lexical if isinstance(v, Literal) else str(v) for v in values]
        return Literal((" " if separator is None else separator).join(parts))
    numbers = []
    saw_double = saw_non_integer = False
    for value in values:
        if isinstance(value, Literal) and value.is_numeric:
            numbers.append(value.value)
            if value.datatype == XSD_DOUBLE:
                saw_double = True
            elif value.datatype != XSD_INTEGER:
                saw_non_integer = True
        else:
            return None  # type error -> aggregate is an error -> unbound
    if function == "sum":
        if not numbers:
            return Literal(0)
        return _numeric_literal(sum(numbers), saw_double, saw_non_integer)
    if not numbers:
        return None
    if function == "min":
        return Literal(min(numbers))
    if function == "max":
        return Literal(max(numbers))
    if function == "avg":
        return _numeric_literal(sum(numbers) / len(numbers), saw_double,
                                True)
    raise EvaluationError("unknown aggregate %r" % function)


def _sort_key(value):
    """Total order for ORDER BY: unbound < numbers < strings/URIs."""
    if value is None:
        return (0, 0, "")
    if isinstance(value, Literal):
        if value.is_numeric:
            return (1, value.value, "")
        return (2, 0, str(value.lexical))
    return (2, 0, str(value))


class _Desc:
    """Inverts the comparison order of a wrapped sort key.

    Used for the DESC components of a composite ORDER BY key (strings have
    no arithmetic negation) and to turn ``heapq``'s min-heap into the
    max-heap the bounded top-k scan needs.  Equal keys stay equal, so
    sort stability is untouched.
    """

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return other.key == self.key
