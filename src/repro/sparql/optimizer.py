"""Join-order optimization for basic graph patterns.

The engine evaluates a BGP as an index-nested-loop join: triple patterns are
matched one at a time, with variables bound so far substituted into the next
pattern before it hits the indexes.  The order in which patterns are matched
dominates cost, so this module implements a greedy ordering: repeatedly pick
the remaining pattern with the smallest estimated cardinality given the
variables already bound, in the spirit of classic selectivity-based
optimizers (and of what Virtuoso does for the paper's flat queries).

It also hosts the statistics the planner's ``CostBasedJoinStrategy`` pass
consumes — :class:`GraphStatistics`, now sourced from the graph's
characteristic-sets and per-predicate synopses when the graph provides
them — and :func:`run_signature`, the shared definition of which triple
patterns can feed a sorted-run intersection step for a candidate variable.
The worst-case-optimal join machinery lives here too:
:func:`bgp_is_cyclic` detects cyclic BGPs via GYO reduction of the join
hypergraph, :func:`generic_join_order` picks a variable elimination order
by estimated run widths, and :func:`estimate_join` /
:func:`estimate_wcoj` are the cost models the planner compares.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..rdf.terms import TriplePattern, Variable, is_concrete


class GraphStatistics:
    """Per-predicate statistics for cardinality estimation.

    Profiles come from the graph's public, memoized
    ``predicate_profile(p) -> (triples, distinct_s, distinct_o)`` interface
    (:class:`~repro.rdf.graph.Graph` and its :class:`~repro.rdf.dataset.GraphUnion`
    aggregation both provide it), so the optimizer never reaches into
    private index structures and never re-scans a predicate it has already
    profiled.

    Statistics objects are scoped to a *single planning call* (one
    ``optimize_plan`` pipeline, one evaluator instance): their memos are
    cheap to rebuild and must not outlive the graph state they describe.
    As a second line of defence, the fallback memo for graph-likes without
    ``predicate_profile`` re-validates against the graph's size and drops
    itself when the graph mutated underneath — earlier revisions served
    stale triple counts forever.
    """

    def __init__(self, graph):
        self._graph = graph
        self._total = max(1, graph.count() if hasattr(graph, "count") else len(graph))
        # Mutation-counter snapshot: graphs (and unions, which sum member
        # versions) bump ``version`` on every mutation, so ``fresh()``
        # detects even an equal-size replace — including one inside a
        # union member, which a size check cannot see.
        self._version = getattr(graph, "version", None)
        # Local memo for graph-likes without predicate_profile (which is
        # itself memoized); order_patterns calls estimate O(n) per BGP.
        self._by_predicate: Dict = {}
        # Snapshot guarding the fallback memo: (version, size) of the
        # graph when the memo was filled.  Graph-likes without a version
        # counter degrade to the old size-only guard (an equal-size
        # replace slips through there — acceptable for estimates, and
        # planning-call scoping bounds the exposure to one plan).
        self._fallback_token: Optional[Tuple] = None

    def _graph_size(self) -> int:
        graph = self._graph
        if hasattr(graph, "count"):
            return graph.count()
        return len(graph)

    def fresh(self) -> bool:
        """Whether the graph state these statistics were built against is
        still current.  Graphs expose a monotone ``version`` mutation
        counter (a :class:`~repro.rdf.dataset.GraphUnion` sums its
        members', so member mutation is visible); graph-likes without one
        are always reported fresh and rely on the fallback size guard."""
        if self._version is None:
            return not hasattr(self._graph, "version")
        return getattr(self._graph, "version", None) == self._version

    def _predicate_stats(self, predicate) -> Tuple[int, int, int]:
        """(triples, distinct subjects, distinct objects) for a predicate.

        Sourced from the graph's per-predicate synopsis when available
        (exact for these three figures, and shared with the
        characteristic-sets build), else from ``predicate_profile``, else
        from one memoized full scan."""
        graph = self._graph
        if hasattr(graph, "predicate_synopsis"):
            pid = graph.dictionary.lookup(predicate)
            if pid is None:
                return (0, 0, 0)
            return graph.predicate_synopsis(pid)[:3]
        if hasattr(graph, "predicate_profile"):
            return graph.predicate_profile(predicate)
        # Graph-like object without the profile interface: one full scan,
        # memoized until the graph's version (or, lacking one, size)
        # changes.
        token = (getattr(graph, "version", None), self._graph_size())
        if token != self._fallback_token:
            self._by_predicate.clear()
            self._fallback_token = token
        cached = self._by_predicate.get(predicate)
        if cached is not None:
            return cached
        triples = 0
        seen_s: Set = set()
        seen_o: Set = set()
        for s, _, o in graph.triples(None, predicate, None):
            triples += 1
            seen_s.add(s)
            seen_o.add(o)
        stats = (triples, len(seen_s), len(seen_o))
        self._by_predicate[predicate] = stats
        return stats

    def subject_fanout(self, predicate) -> float:
        """Average objects per subject for a predicate: triples over
        distinct subjects.  This is the multiplicity a forward expansion
        ``(s bound, p) -> objects`` appends per input row — the quantity
        sideways information passing and intersection steps try to prune
        *before* it happens."""
        triples, distinct_s, _ = self._predicate_stats(predicate)
        return triples / max(1, distinct_s)

    def object_fanout(self, predicate) -> float:
        """Average subjects per object: the backward-expansion mirror of
        :meth:`subject_fanout`."""
        triples, _, distinct_o = self._predicate_stats(predicate)
        return triples / max(1, distinct_o)

    def _biased_fanout(self, predicate, slot: int, plain: float) -> float:
        """Edge-biased fan-out from the graph's synopsis (``slot`` 5 is
        subjects-per-object, 6 objects-per-subject), or ``plain`` when the
        graph keeps no synopsis or the sample is empty."""
        graph = self._graph
        if hasattr(graph, "predicate_synopsis"):
            pid = graph.dictionary.lookup(predicate)
            if pid is None:
                return 0.0
            syn = graph.predicate_synopsis(pid)
            if len(syn) > slot and syn[slot] > 0:
                return syn[slot]
        return plain

    def biased_subject_fanout(self, predicate) -> float:
        """Objects per subject when the subject is reached along a random
        triple (``E[deg^2]/E[deg]``) — the correct expansion multiplier
        for a forward hop *out of a join*, where heavy-tailed hubs are
        reached proportionally to their degree.  Falls back to the plain
        mean for graph-likes without a synopsis."""
        return self._biased_fanout(predicate, 6,
                                   self.subject_fanout(predicate))

    def biased_object_fanout(self, predicate) -> float:
        """Backward mirror of :meth:`biased_subject_fanout`."""
        return self._biased_fanout(predicate, 5,
                                   self.object_fanout(predicate))

    def predicate_cardinality(self, predicate) -> int:
        """Total triples for a predicate (0 when absent)."""
        return self._predicate_stats(predicate)[0]

    def distinct_subjects(self, predicate) -> int:
        """Distinct subjects carrying a predicate — the width of the
        ``p -> subjects`` sorted run."""
        return self._predicate_stats(predicate)[1]

    def distinct_objects(self, predicate) -> int:
        """Distinct objects of a predicate."""
        return self._predicate_stats(predicate)[2]

    def estimate(self, pattern: TriplePattern, bound: Set[str]) -> float:
        """Estimated number of matches for ``pattern`` when the variables in
        ``bound`` already have values."""
        s, p, o = pattern

        def is_fixed(term):
            return is_concrete(term) or (isinstance(term, Variable)
                                         and term.name in bound)

        if is_concrete(p):
            triples, distinct_s, distinct_o = self._predicate_stats(p)
            if triples == 0:
                return 0.0
            estimate = float(triples)
            if is_fixed(s):
                estimate /= max(1, distinct_s)
            if is_fixed(o):
                estimate /= max(1, distinct_o)
            return max(estimate, 0.001)
        # Variable predicate: discourage until everything else is bound.
        estimate = float(self._total)
        if is_fixed(s):
            estimate /= max(1.0, self._total ** 0.5)
        if is_fixed(o):
            estimate /= max(1.0, self._total ** 0.5)
        return max(estimate, 0.01)


def order_patterns(patterns: Sequence[TriplePattern],
                   stats: GraphStatistics) -> List[TriplePattern]:
    """Greedy selectivity ordering of a BGP's triple patterns.

    Picks the cheapest pattern first, adds its variables to the bound set,
    and repeats.  Patterns sharing variables with already-chosen ones are
    strongly preferred (their estimates shrink once variables are bound),
    which avoids Cartesian products.

    A pattern's estimate depends only on which of its subject/object slots
    are fixed, so estimates are memoized per ``(pattern, fixedness)``
    within one ordering call — the greedy loop re-examines every remaining
    pattern each round, but each distinct estimate is computed once
    instead of O(n²) times.  Cost ties are broken on the pattern's
    canonical text (term reprs), *not* its input position, so the chosen
    order — and therefore :func:`estimate_join` and the planner's
    strategy choice — is a pure function of the pattern *set* and the
    statistics, invariant under input-order permutations (self-join BGPs
    tie constantly: every pattern shares the predicate).
    """
    tie_key = [tuple(repr(t) for t in q) for q in patterns]
    remaining = list(range(len(patterns)))
    ordered: List[TriplePattern] = []
    bound: Set[str] = set()
    # (pattern index, s fixed?, o fixed?) -> base estimate.  Fixedness of
    # a slot is the only way ``bound`` enters the estimate, so this key
    # captures every distinct value ``stats.estimate`` can return for the
    # pattern during this call.
    memo: Dict[Tuple[int, bool, bool], float] = {}

    def fixed(term) -> bool:
        return is_concrete(term) or (isinstance(term, Variable)
                                     and term.name in bound)

    while remaining:
        best_index = None
        best_cost = None
        for index in remaining:
            pattern = patterns[index]
            key = (index, fixed(pattern[0]), fixed(pattern[2]))
            cost = memo.get(key)
            if cost is None:
                cost = stats.estimate(pattern, bound)
                memo[key] = cost
            # Disconnected patterns (no shared variable) imply a Cartesian
            # product with everything so far; penalize them heavily.
            if ordered and not _shares_variable(pattern, bound):
                cost *= 1e6
            if (best_cost is None or cost < best_cost
                    or (cost == best_cost
                        and tie_key[index] < tie_key[best_index])):
                best_cost = cost
                best_index = index
        remaining.remove(best_index)
        chosen = patterns[best_index]
        ordered.append(chosen)
        for term in chosen:
            if isinstance(term, Variable):
                bound.add(term.name)
    return ordered


def _shares_variable(pattern: TriplePattern, bound: Set[str]) -> bool:
    return any(isinstance(t, Variable) and t.name in bound for t in pattern)


# ----------------------------------------------------------------------
# Sorted-run signatures (shared by the JoinStrategy pass and the
# evaluator's multiway BGP compiler)
# ----------------------------------------------------------------------

def run_signature(pattern: TriplePattern, candidate: str,
                  bound: Set[str]):
    """Describe the sorted run that constrains variable ``candidate`` in
    ``pattern``, given the already-bound variable names.

    Returns ``(signature, consumed)``.  ``signature`` is a hashable key —
    two patterns with equal signatures denote the *same* run and therefore
    contribute only one operand to an intersection — or ``None`` when the
    pattern cannot contribute (variable predicate, candidate absent or
    repeated, or candidate in object position with a free subject, for
    which no run index exists).  ``consumed`` is True when the run is
    exactly the pattern's match set for the candidate (its only free
    position), so an intersection step satisfies the pattern completely
    and the pattern can be dropped from the plan.

    Signature shapes::

        ("subjects", p, term)        (p, o) -> subjects, o concrete
        ("subjects", p, ("?", v))    (p, o) -> subjects, o bound per row
        ("psubjects", p)             p -> subjects (candidate must *have* p)
        ("objects", p, term)         (s, p) -> objects, s concrete
        ("objects", p, ("?", v))     (s, p) -> objects, s bound per row
    """
    s, p, o = pattern
    if not is_concrete(p):
        return None, False
    s_is_cand = isinstance(s, Variable) and s.name == candidate
    o_is_cand = isinstance(o, Variable) and o.name == candidate
    if s_is_cand == o_is_cand:  # absent, or repeated across positions
        return None, False
    if s_is_cand:
        if is_concrete(o):
            return ("subjects", p, o), True
        if o.name in bound:
            return ("subjects", p, ("?", o.name)), True
        return ("psubjects", p), False
    if is_concrete(s):
        return ("objects", p, s), True
    if s.name in bound:
        return ("objects", p, ("?", s.name)), True
    return None, False


def run_width(signature, stats: GraphStatistics) -> float:
    """Expected length of the sorted run a signature denotes.

    ``psubjects`` runs span every subject of the predicate; the keyed runs
    are estimated by the predicate's average fan-out toward the candidate
    position.  The ``JoinStrategy`` pass compares these widths to decide
    whether intersection beats expand-then-filter for a step.
    """
    kind, predicate = signature[0], signature[1]
    if kind == "psubjects":
        return float(stats.distinct_subjects(predicate))
    if kind == "subjects":
        return stats.object_fanout(predicate)
    return stats.subject_fanout(predicate)


#: Minimum width of the widest operand before intersection is worth the
#: bookkeeping (skips micro graphs and unit-test fixtures).
INTERSECT_MIN_WIDE_RUN = 8

#: A predicate-subject run prunes a seed of width ``w`` only when it does
#: not simply *cover* the seed's population; beyond this width ratio it is
#: treated as covering (think ``psubj(starring)`` against "films of one
#: actor": every film has a cast) and contributes nothing.
PSUBJ_COVER_RATIO = 16


def intersection_worthwhile(widths: Dict, any_consumed: bool) -> bool:
    """The statistics gate one candidate intersection step must pass.

    ``widths`` maps distinct run signatures to their estimated widths
    (:func:`run_width`).  The evaluator iterates the narrowest operand
    and probes the rest, so a step pays off when (a) some operand is
    *consumed* — the intersection absorbs a whole pattern's
    expand-then-check work; presence-only (``psubjects``) operand sets
    tend to simply cover each other's populations — and (b) at least one
    *probe* operand is genuinely selective against the seed: keyed runs
    (constant- or row-bound) always are, a predicate-subject run only
    when its width stays within :data:`PSUBJ_COVER_RATIO` of the seed's
    (wider means it merely covers the seed's population).  The widest
    operand must also clear :data:`INTERSECT_MIN_WIDE_RUN` (something to
    prune).  Shared by the planner's ``JoinStrategy`` pass (to annotate)
    and the evaluator's multiway compiler (to skip non-worthwhile steps
    under ``multiway='auto'``).
    """
    if len(widths) < 2 or not any_consumed:
        return False
    by_width = sorted(widths.items(), key=lambda kv: kv[1])
    seed_width = by_width[0][1]
    if by_width[-1][1] < INTERSECT_MIN_WIDE_RUN:
        return False
    return any(sig[0] != "psubjects"
               or width <= PSUBJ_COVER_RATIO * seed_width
               for sig, width in by_width[1:])


# ----------------------------------------------------------------------
# Worst-case-optimal (generic) join planning: join-hypergraph cyclicity,
# variable elimination orders, and the cost models the
# ``CostBasedJoinStrategy`` pass compares.
# ----------------------------------------------------------------------

#: Total triples across a BGP's predicates below which generic join is
#: not attempted (micro graphs and unit fixtures keep nested-loop).
WCOJ_MIN_TRIPLES = 16

#: Constant-factor handicap on the generic-join estimate when the planner
#: compares it against the nested-loop/intersection plan
#: (``estimate_wcoj * WCOJ_COST_FACTOR <= cost_nl``).  A generic-join
#: level pays run set-up and per-candidate probe bookkeeping that a plain
#: index expansion does not, so its estimated candidate count must beat
#: nested-loop by this margin before the detour is worth it.  Calibrated
#: on the joins corpus: benign cyclic shapes with tiny fan-outs (the
#: costar triangle) sit near the boundary, while heavy-tailed shapes
#: (the collaborator graph's wedge blow-ups) clear it several times over
#: at benchmark scales.
WCOJ_COST_FACTOR = 1.5


def bgp_hyperedges(patterns: Sequence[TriplePattern]) -> List[frozenset]:
    """The BGP's join hypergraph as one vertex set per pattern, where
    vertices are variable names (subject/object positions; a variable
    predicate contributes its name too, so patterns exotic for WCOJ still
    shape the cyclicity test)."""
    edges = []
    for pattern in patterns:
        edge = frozenset(t.name for t in pattern if isinstance(t, Variable))
        if edge:
            edges.append(edge)
    return edges


def bgp_is_cyclic(patterns: Sequence[TriplePattern]) -> bool:
    """Whether the BGP's join hypergraph is cyclic (not alpha-acyclic).

    Runs GYO reduction: repeatedly delete hyperedges contained in another
    edge and "ear" vertices that appear in exactly one edge.  The
    hypergraph is acyclic iff the reduction erases everything; a cyclic
    core (triangle, 4-cycle, clique) survives, and those are exactly the
    shapes where binary join plans can blow up on intermediate results
    and generic join is worst-case optimal.
    """
    edges = bgp_hyperedges(patterns)
    changed = True
    while changed and edges:
        changed = False
        # Delete edges contained in another edge.
        for i, edge in enumerate(edges):
            if any(i != j and edge <= other for j, other in enumerate(edges)):
                edges.pop(i)
                changed = True
                break
        if changed:
            continue
        # Delete ear vertices (appearing in exactly one edge).
        counts: Dict[str, int] = {}
        for edge in edges:
            for v in edge:
                counts[v] = counts.get(v, 0) + 1
        ears = {v for v, n in counts.items() if n == 1}
        if ears:
            reduced = []
            for edge in edges:
                trimmed = frozenset(v for v in edge if v not in ears)
                if trimmed != edge:
                    changed = True
                if trimmed:
                    reduced.append(trimmed)
            edges = reduced
    return bool(edges)


def generic_join_eligible(patterns: Sequence[TriplePattern]) -> bool:
    """Structural preconditions for the generic-join executor: every
    pattern has a concrete predicate (so sorted runs exist), no pattern
    repeats one variable across subject and object (no run signature for
    those), and there is at least one variable to bind."""
    saw_var = False
    for s, p, o in patterns:
        if not is_concrete(p):
            return False
        s_var = isinstance(s, Variable)
        o_var = isinstance(o, Variable)
        if s_var and o_var and s.name == o.name:
            return False
        saw_var = saw_var or s_var or o_var
    return saw_var


def generic_join_order(patterns: Sequence[TriplePattern],
                       stats: GraphStatistics,
                       prefer: Sequence[str] = ()) -> Optional[List[str]]:
    """A variable elimination order for generic join over ``patterns``.

    Greedy: at each level pick the unbound variable with the narrowest
    estimated constraining run (:func:`run_width` over its
    :func:`run_signature` operands).  After the first level only
    variables with a *keyed* run (constant- or bound-variable-keyed) are
    considered while any exist, which keeps the enumeration connected.
    Variables named in ``prefer`` (e.g. GROUP BY keys, so aggregates can
    be pushed down the decomposition) win within a level whenever
    eligible.  Ties break on the variable name, so the order is a pure
    function of the pattern *set* and the statistics — independent of
    pattern input order and of ``PYTHONHASHSEED``.

    Returns ``None`` when the BGP is structurally ineligible
    (:func:`generic_join_eligible`) or some variable never acquires a
    constraining run.
    """
    if not generic_join_eligible(patterns):
        return None
    names = sorted({t.name for q in patterns for t in (q[0], q[2])
                    if isinstance(t, Variable)})
    prefer_left = set(prefer) & set(names)
    order: List[str] = []
    bound: Set[str] = set()
    while len(order) < len(names):
        ranked = []
        for name in names:
            if name in bound:
                continue
            signatures = set()
            for q in patterns:
                sig, _ = run_signature(q, name, bound)
                if sig is not None:
                    signatures.add(sig)
            if not signatures:
                continue
            width = min(run_width(sig, stats) for sig in signatures)
            keyed = any(sig[0] != "psubjects" for sig in signatures)
            ranked.append((name, keyed, width))
        if not ranked:
            return None
        pool = ranked
        if bound:
            keyed_pool = [r for r in pool if r[1]]
            if keyed_pool:
                pool = keyed_pool
        if prefer_left:
            preferred = [r for r in pool if r[0] in prefer_left]
            if preferred:
                pool = preferred
        pool.sort(key=lambda r: (r[2], r[0]))
        chosen = pool[0][0]
        order.append(chosen)
        bound.add(chosen)
        prefer_left.discard(chosen)
    return order


def estimate_join(patterns: Sequence[TriplePattern],
                  stats: GraphStatistics) -> Tuple[float, float]:
    """``(cost, est_rows)`` of the greedy nested-loop plan: cost is the
    sum of estimated intermediate-result sizes along the greedy order
    (the classic C_out objective), est_rows the final product.

    An expansion out of a bound variable endpoint uses the synopsis's
    *edge-biased* fan-out moment instead of the plain mean when the
    variable was itself reached through a pattern with the **same
    predicate**: its values then appear in the intermediate result once
    per incident edge, so heavy-tailed hubs are revisited proportionally
    to their degree and the naive mean badly underestimates the blow-up
    (the whole reason cyclic self-join queries are hard for
    pattern-at-a-time plans).  A variable bound through an unrelated
    predicate keeps the uniform figure — degree correlation across
    predicates is assumed away, per the usual independence convention.
    """
    ordered = order_patterns(list(patterns), stats)
    bound: Set[str] = set()
    # Variable name -> predicates of the patterns that have touched it;
    # membership marks the variable's multiplicity as degree-biased for
    # that predicate's expansions.
    touched: Dict[str, Set] = {}
    rows = 1.0
    cost = 0.0
    for q in ordered:
        est = stats.estimate(q, bound)
        s, p, o = q
        if is_concrete(p):
            if (isinstance(s, Variable) and s.name in bound
                    and isinstance(o, Variable) and o.name not in bound
                    and p in touched.get(s.name, ())):
                plain = stats.subject_fanout(p)
                if plain > 0:
                    est *= stats.biased_subject_fanout(p) / plain
            elif (isinstance(o, Variable) and o.name in bound
                    and isinstance(s, Variable) and s.name not in bound
                    and p in touched.get(o.name, ())):
                plain = stats.object_fanout(p)
                if plain > 0:
                    est *= stats.biased_object_fanout(p) / plain
        rows *= est
        cost += rows
        for t in (s, o):
            if isinstance(t, Variable):
                bound.add(t.name)
                if is_concrete(p):
                    touched.setdefault(t.name, set()).add(p)
    return cost, rows


def _run_universe(signature, stats: GraphStatistics) -> float:
    """Size of the candidate universe a run draws from: distinct subjects
    of the predicate for subject-position runs, distinct objects for
    object-position ones.  The independence denominator for intersection
    estimates."""
    kind, predicate = signature[0], signature[1]
    if kind == "objects":
        return float(stats.distinct_objects(predicate))
    return float(stats.distinct_subjects(predicate))


def estimate_wcoj(patterns: Sequence[TriplePattern],
                  order: Sequence[str],
                  stats: GraphStatistics) -> float:
    """Estimated cost of generic join along ``order``.

    Each level seeds from its narrowest constraining run and eliminates
    candidates against the rest, so the level's *work* is the live-prefix
    count times the narrowest width (candidates generated), while the
    *survivors* shrink by each additional run's independence selectivity
    ``width / universe`` (``|A ∩ B| ≈ |A|·|B| / U``).  Summing the
    candidate counts mirrors :func:`estimate_join`'s C_out convention
    closely enough for the planner to compare the two, and — unlike the
    earlier no-shrink upper bound — credits exactly the multiply-
    constrained levels where generic join beats expand-then-filter.
    The arithmetic is order-independent over the signature set, so the
    estimate is a pure function of the pattern set and statistics.
    """
    bound: Set[str] = set()
    rows = 1.0
    cost = 0.0
    for name in order:
        signatures = set()
        for q in patterns:
            sig, _ = run_signature(q, name, bound)
            if sig is not None:
                signatures.add(sig)
        pairs = [(run_width(sig, stats), _run_universe(sig, stats))
                 for sig in signatures]
        if not pairs:
            bound.add(name)
            continue
        seed = min(pairs)
        cost += rows * max(seed[0], 0.001)
        survivors = max(seed[0], 0.001)
        seed_taken = False
        for pair in pairs:
            if not seed_taken and pair == seed:
                seed_taken = True
                continue
            width, universe = pair
            survivors *= min(1.0, width / max(universe, 1.0))
        rows *= max(survivors, 0.001)
        bound.add(name)
    return cost
