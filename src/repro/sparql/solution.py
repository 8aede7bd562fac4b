"""Solution mappings and multisets — the semantic core of SPARQL evaluation.

Section 5.2 of the paper defines evaluation over *multisets of mappings*: a
mapping is a partial function from variables to RDF terms; two mappings are
compatible when they agree on every shared variable; joins merge compatible
mappings.  This module implements those definitions twice:

* The original *dict-based* representation: a mapping is a plain ``dict``
  from variable name (string, without the ``?``) to an RDF term; unbound
  variables are absent; a multiset is a list of such dicts (bag semantics).
  This representation is retained as the executable reference semantics —
  the :class:`~.reference.ReferenceEvaluator` runs on it, and the columnar
  operators are differential-tested against it.

* The *columnar* representation used by the production evaluator: a
  :class:`SolutionTable` with a fixed schema header (tuple of variable
  names) and positional rows of dense integer term ids (``None`` for
  unbound).  Joins hash ints instead of term objects, merges are tuple
  concatenation instead of dict copies, and terms are decoded only at the
  result boundary or inside expression evaluation (via :class:`RowView`).
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import itemgetter
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from ..rdf.terms import Node

Mapping = Dict[str, Node]
Multiset = List[Mapping]

#: One columnar solution row: term ids positionally aligned with the
#: table's schema, ``None`` for unbound.
Row = Tuple[Optional[int], ...]


def compatible(mu1: Mapping, mu2: Mapping) -> bool:
    """True when the two mappings agree on all shared variables."""
    if len(mu2) < len(mu1):
        mu1, mu2 = mu2, mu1
    for var, value in mu1.items():
        other = mu2.get(var)
        if other is not None and other != value:
            return False
    return True


def merge(mu1: Mapping, mu2: Mapping) -> Mapping:
    """The union of two compatible mappings (mu2 extends mu1)."""
    merged = dict(mu1)
    merged.update(mu2)
    return merged


def _always_bound(solutions: Multiset, candidates: Sequence[str]) -> List[str]:
    """The subset of ``candidates`` bound in every mapping of the multiset."""
    bound = list(candidates)
    for mu in solutions:
        bound = [v for v in bound if v in mu]
        if not bound:
            break
    return bound


def _agree(mu1: Mapping, mu2: Mapping, variables: Sequence[str]) -> bool:
    for var in variables:
        v1 = mu1.get(var)
        if v1 is None:
            continue
        v2 = mu2.get(var)
        if v2 is not None and v1 != v2:
            return False
    return True


def hash_join(left: Multiset, right: Multiset,
              common: Sequence[str]) -> Multiset:
    """Join two multisets of mappings on their shared variables.

    ``common`` is the set of variables that occur in *both* operands'
    in-scope variables.  Variables in ``common`` that are unbound in a
    particular mapping still join (SPARQL compatibility).  The join hashes
    on the shared variables that are bound in *every* row of both sides
    (typically the entity keys) and verifies the remaining shared variables
    within each bucket — avoiding the quadratic blow-up a naive
    compatibility join suffers on union/optional results whose shared
    variables are sparsely bound.
    """
    if not left or not right:
        return []
    common = list(common)
    if not common:
        return [merge(l, r) for l in left for r in right]
    if len(right) < len(left):
        # Build the hash table on the smaller side.
        left, right = right, left

    keys = _always_bound(right, _always_bound(left, common))
    residual = [v for v in common if v not in keys]
    if not keys:
        return _loose_join(left, right, common)

    index: Dict[Tuple, List[Mapping]] = {}
    for mu in left:
        index.setdefault(tuple(mu[v] for v in keys), []).append(mu)

    out: Multiset = []
    for mu in right:
        bucket = index.get(tuple(mu[v] for v in keys))
        if not bucket:
            continue
        if residual:
            for other in bucket:
                if _agree(mu, other, residual):
                    out.append(merge(other, mu))
        else:
            for other in bucket:
                out.append(merge(other, mu))
    return out


def _loose_join(left: Multiset, right: Multiset,
                common: Sequence[str]) -> Multiset:
    """Fallback when no shared variable is universally bound: partition on
    fully-bound keys and nested-loop the rest."""
    index: Dict[Tuple, List[Mapping]] = {}
    loose: List[Mapping] = []
    for mu in left:
        key = tuple(mu.get(v) for v in common)
        if None in key:
            loose.append(mu)
        else:
            index.setdefault(key, []).append(mu)
    out: Multiset = []
    for mu in right:
        key = tuple(mu.get(v) for v in common)
        if None in key:
            for other in left:
                if compatible(mu, other):
                    out.append(merge(other, mu))
            continue
        for other in index.get(key, ()):
            out.append(merge(other, mu))
        for other in loose:
            if compatible(mu, other):
                out.append(merge(other, mu))
    return out


def left_join(left: Multiset, right: Multiset,
              common: Sequence[str]) -> Multiset:
    """SPARQL LeftJoin: every left mapping survives; compatible right
    mappings extend it, otherwise the left mapping passes through alone.

    Uses the same always-bound hashing strategy as :func:`hash_join`.
    """
    if not right:
        return list(left)
    common = list(common)
    if not common:
        return [merge(l, r) for l in left for r in right]

    keys = _always_bound(right, _always_bound(left, common))
    residual = [v for v in common if v not in keys]
    if not keys:
        return _loose_left_join(left, right, common)

    index: Dict[Tuple, List[Mapping]] = {}
    for mu in right:
        index.setdefault(tuple(mu[v] for v in keys), []).append(mu)

    out: Multiset = []
    for mu in left:
        matched = False
        bucket = index.get(tuple(mu[v] for v in keys))
        if bucket:
            for other in bucket:
                if not residual or _agree(mu, other, residual):
                    out.append(merge(mu, other))
                    matched = True
        if not matched:
            out.append(mu)
    return out


def _loose_left_join(left: Multiset, right: Multiset,
                     common: Sequence[str]) -> Multiset:
    index: Dict[Tuple, List[Mapping]] = {}
    loose: List[Mapping] = []
    for mu in right:
        key = tuple(mu.get(v) for v in common)
        if None in key:
            loose.append(mu)
        else:
            index.setdefault(key, []).append(mu)
    out: Multiset = []
    for mu in left:
        key = tuple(mu.get(v) for v in common)
        matched = False
        if None in key:
            for other in right:
                if compatible(mu, other):
                    out.append(merge(mu, other))
                    matched = True
        else:
            for other in index.get(key, ()):
                out.append(merge(mu, other))
                matched = True
            for other in loose:
                if compatible(mu, other):
                    out.append(merge(mu, other))
                    matched = True
        if not matched:
            out.append(mu)
    return out


def minus(left: Multiset, right: Multiset,
          common: Sequence[str]) -> Multiset:
    """Mappings in ``left`` with no compatible mapping in ``right``
    sharing at least one bound variable — SPARQL MINUS semantics."""
    return [mu for mu in left
            if not any(compatible(mu, other)
                       and any(v in mu and v in other for v in common)
                       for other in right)]


def project(solutions: Multiset, variables: Sequence[str]) -> Multiset:
    """Restrict each mapping to the given variables (bag semantics kept)."""
    wanted = list(variables)
    out = []
    for mu in solutions:
        out.append({v: mu[v] for v in wanted if v in mu})
    return out


def distinct(solutions: Multiset,
             variables: Optional[Sequence[str]] = None) -> Multiset:
    """Collapse duplicate mappings to multiplicity one."""
    seen = set()
    out = []
    for mu in solutions:
        if variables is None:
            key = tuple(sorted(mu.items(), key=lambda kv: kv[0]))
        else:
            key = tuple(mu.get(v) for v in variables)
        if key not in seen:
            seen.add(key)
            out.append(mu)
    return out


def in_scope_variables(solutions: Multiset) -> List[str]:
    """All variables bound in at least one mapping, in first-seen order."""
    seen: List[str] = []
    seen_set = set()
    for mu in solutions:
        for var in mu:
            if var not in seen_set:
                seen_set.add(var)
                seen.append(var)
    return seen


# ======================================================================
# Columnar solution tables (dictionary-encoded data plane)
# ======================================================================

class SolutionTable:
    """A multiset of solution mappings in columnar form.

    ``variables`` is the fixed schema header; ``rows`` is a list of
    positionally-aligned tuples of dense integer term ids (``None`` for
    unbound).  Duplicates are preserved (bag semantics).  Operators never
    mutate input rows, so tables can be shared (e.g. by the BGP cache).
    """

    __slots__ = ("variables", "index", "rows")

    def __init__(self, variables: Sequence[str],
                 rows: Optional[List[Row]] = None):
        self.variables: Tuple[str, ...] = tuple(variables)
        self.index: Dict[str, int] = {v: i for i, v in
                                      enumerate(self.variables)}
        self.rows: List[Row] = rows if rows is not None else []

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self):
        return "SolutionTable(%d rows, vars=%s)" % (
            len(self.rows), list(self.variables))

    @staticmethod
    def unit() -> "SolutionTable":
        """The join identity: one empty solution."""
        return SolutionTable((), [()])


class ColumnBatch:
    """One batch of solution rows in columnar form.

    ``columns`` holds one flat list of dense term ids per schema
    variable; an unbound cell stores the sentinel ``-1`` and is flagged in
    the column's null mask.  ``masks`` is ``None`` when no column has a
    null, otherwise a list with one entry per column: ``None`` (no nulls
    in that column) or a ``bytearray`` whose byte ``1`` marks a null row.
    Term ids are dense non-negative integers, so ``-1`` can never collide
    with a real binding.

    Columns are deliberately plain lists rather than ``array('q')``:
    the ids referenced by a column already exist as interned int objects
    in the graph indexes, so a list column is just shared pointers —
    selection (``itertools.compress``), slicing, flattening and
    counting all run at C speed without re-boxing.  A typed-array layout
    was measured here and lost 1.5-2.5x on exactly those kernels because
    every element read materializes a fresh int object.

    A ``ColumnBatch`` is interchangeable with a row-batch everywhere:
    iterating it (or indexing a row) yields the exact ``None``-restored
    id-tuples the row representation uses, so any operator that has no
    columnar fast path transparently falls back to row view.  Vectorized
    operators instead work on whole columns: selection vectors are
    applied with :meth:`take_flags`, projections with :meth:`take` (which
    shares column storage — columns are never mutated in place).
    """

    __slots__ = ("columns", "masks", "length")

    def __init__(self, columns: List[list],
                 masks: Optional[List[Optional[bytearray]]] = None,
                 length: Optional[int] = None):
        self.columns = columns
        self.masks = masks
        self.length = len(columns[0]) if length is None else length

    @classmethod
    def from_rows(cls, rows: Sequence[Row], width: int) -> "ColumnBatch":
        """Transpose a row batch (id-tuples, ``None`` for unbound)."""
        n = len(rows)
        if width == 0:
            return cls([], None, n)
        if n == 0:
            return cls([[] for _ in range(width)], None, 0)
        columns: List[list] = []
        masks: Optional[List[Optional[bytearray]]] = None
        for j, col in enumerate(zip(*rows)):
            col = list(col)
            if None in col:
                # The column has nulls: patch them to the sentinel and
                # record their positions in the mask.
                mask = bytearray(n)
                for i, tid in enumerate(col):
                    if tid is None:
                        mask[i] = 1
                        col[i] = -1
                if masks is None:
                    masks = [None] * width
                masks[j] = mask
            columns.append(col)
        return cls(columns, masks, n)

    def to_rows(self) -> List[Row]:
        """Transpose back to the row-tuple representation."""
        if not self.columns:
            return [()] * self.length
        masks = self.masks
        if masks is None:
            return list(zip(*self.columns))
        cols: List[Sequence] = []
        for col, mask in zip(self.columns, masks):
            if mask is None:
                cols.append(col)
            else:
                cols.append([None if null else tid
                             for tid, null in zip(col, mask)])
        return list(zip(*cols))

    def __len__(self) -> int:
        return self.length

    def __iter__(self):
        return iter(self.to_rows())

    def __getitem__(self, item):
        if isinstance(item, slice):
            masks = self.masks
            if masks is not None:
                masks = [None if m is None else m[item] for m in masks]
                if not any(masks):
                    masks = None
            start, stop, _ = item.indices(self.length)
            return ColumnBatch([col[item] for col in self.columns], masks,
                               max(0, stop - start))
        masks = self.masks
        if masks is None:
            return tuple(col[item] for col in self.columns)
        return tuple(None if m is not None and m[item] else col[item]
                     for col, m in zip(self.columns, masks))

    @property
    def width(self) -> int:
        return len(self.columns)

    def column(self, pos: int) -> list:
        return self.columns[pos]

    def mask(self, pos: int) -> Optional[bytearray]:
        return None if self.masks is None else self.masks[pos]

    def take(self, positions: Sequence[Optional[int]]) -> "ColumnBatch":
        """Project to the given column positions (``None`` produces an
        all-null column).  Shares column storage — no data is copied."""
        n = self.length
        columns: List[list] = []
        masks: Optional[List[Optional[bytearray]]] = None
        for j, p in enumerate(positions):
            if p is None:
                columns.append([-1] * n)
                if masks is None:
                    masks = [None] * len(positions)
                masks[j] = bytearray(b"\x01" * n)
            else:
                columns.append(self.columns[p])
                m = self.mask(p)
                if m is not None:
                    if masks is None:
                        masks = [None] * len(positions)
                    masks[j] = m
        return ColumnBatch(columns, masks, n)

    def take_flags(self, flags: bytearray, kept: int) -> "ColumnBatch":
        """Apply a selection vector: keep row ``i`` when ``flags[i]``."""
        if kept == self.length:
            return self
        columns = [list(compress(col, flags)) for col in self.columns]
        masks = self.masks
        if masks is not None:
            masks = [None if m is None else bytearray(compress(m, flags))
                     for m in masks]
            if not any(any(m) for m in masks if m is not None):
                masks = None
        return ColumnBatch(columns, masks, kept)

    def append_column(self, col: list,
                      mask: Optional[bytearray] = None) -> "ColumnBatch":
        """A new batch with one extra column (storage shared)."""
        columns = self.columns + [col]
        masks = self.masks
        if masks is not None or mask is not None:
            masks = ([None] * len(self.columns) if masks is None
                     else list(masks)) + [mask]
        return ColumnBatch(columns, masks, self.length)

    def __repr__(self):
        return "ColumnBatch(%d rows x %d cols)" % (self.length,
                                                   len(self.columns))


class TableStream:
    """A lazily-produced :class:`SolutionTable`: a fixed schema header plus
    an iterator of *batches* — row-tuple lists, or :class:`ColumnBatch`
    objects on the vectorized plane (operators accept either kind).

    This is the unit of the pipelined executor: operators hand each other
    ``TableStream`` objects and pull batches on demand, so a bounded
    consumer (``Slice``, ``TopK``) stops upstream row production simply by
    not pulling.  The schema is computed statically at stream-construction
    time — no batch has to be pulled to know the columns.

    ``total_rows`` counts every row that has crossed this stream's batch
    boundary so far, maintained while batches are pulled — consumers that
    drain the stream (``to_table``, the result cursor) read the row count
    from here instead of re-measuring, which keeps it in lockstep with
    ``EvaluationStats.rows_pulled`` without a second pass.
    """

    __slots__ = ("variables", "index", "batches", "total_rows")

    def __init__(self, variables: Sequence[str], batches):
        self.variables: Tuple[str, ...] = tuple(variables)
        self.index: Dict[str, int] = {v: i for i, v in
                                      enumerate(self.variables)}
        self.total_rows = 0
        self.batches = self._count(batches)

    def _count(self, batches):
        try:
            for batch in batches:
                self.total_rows += len(batch)
                yield batch
        finally:
            # Propagate early-exit close() into the wrapped producer so
            # its cleanup (generator finalizers upstream) still runs.
            close = getattr(batches, "close", None)
            if close is not None:
                close()

    def rows(self):
        """Flatten the remaining batches into one row iterator."""
        for batch in self.batches:
            for row in batch:
                yield row

    def to_table(self) -> SolutionTable:
        """Drain the stream into a materialized table."""
        rows: List[Row] = []
        for batch in self.batches:
            if type(batch) is ColumnBatch:
                rows.extend(batch.to_rows())
            else:
                rows.extend(batch)
        return SolutionTable(self.variables, rows)

    def __repr__(self):
        return "TableStream(vars=%s)" % (list(self.variables),)


def batched(rows: Sequence[Row], cap: int):
    """Re-chunk a materialized row list into batches of at most ``cap``.

    Chunks are list slices (one shallow copy each); a list that already
    fits in one batch is yielded *as is* — consumers never mutate batches,
    so re-chunking a materialized table must not duplicate it."""
    if len(rows) <= cap:
        if rows:
            yield rows
        return
    for start in range(0, len(rows), cap):
        yield rows[start:start + cap]


def stream_distinct(batches, seen: Optional[set] = None):
    """Streaming dedup over an iterator of batches (row lists or
    :class:`ColumnBatch`).

    Yields each batch reduced to its first-seen rows, preserving order and
    pulling nothing beyond what the consumer asks for — the dedup behind
    both the executor's ``Distinct`` operator and
    :meth:`~repro.sparql.results.ResultSet.distinct`.  ``seen`` can be
    passed in to carry dedup state across several streams (e.g. paginated
    fetches); the key representation per row is identical for columnar
    and row batches — single-column rows dedup on the bare cell value,
    wider rows on the id-tuple — so one ``seen`` set is shared across
    batch kinds."""
    if seen is None:
        seen = set()
    add = seen.add
    for batch in batches:
        if type(batch) is ColumnBatch:
            if batch.width == 1:
                # Hot single-column shape: dedup on bare ids, no tuples,
                # and (unmasked) no selection vector either — the single
                # survivor column is built directly in one pass.
                mask = batch.mask(0)
                if mask is None:
                    fresh = []
                    append = fresh.append
                    for value in batch.columns[0]:
                        if value not in seen:
                            add(value)
                            append(value)
                    if fresh:
                        yield ColumnBatch([fresh], None, len(fresh))
                    continue
                cells = (None if null else tid
                         for tid, null in zip(batch.columns[0], mask))
                flags = bytearray(len(batch))
                kept = 0
                for i, value in enumerate(cells):
                    if value not in seen:
                        add(value)
                        flags[i] = 1
                        kept += 1
                if kept:
                    yield batch.take_flags(flags, kept)
                continue
            flags = bytearray(len(batch))
            kept = 0
            for i, row in enumerate(batch.to_rows()):
                if row not in seen:
                    add(row)
                    flags[i] = 1
                    kept += 1
            if kept:
                yield batch.take_flags(flags, kept)
            continue
        fresh = []
        append = fresh.append
        if batch and len(batch[0]) == 1:
            for row in batch:
                value = row[0]
                if value not in seen:
                    add(value)
                    append(row)
        else:
            for row in batch:
                if row not in seen:
                    add(row)
                    append(row)
        if fresh:
            yield fresh


class RowView:
    """A read-only dict-like view of one columnar row, decoding term ids
    lazily on access.  This is what expression evaluation sees: an unbound
    variable (``None`` cell or absent column) raises ``KeyError`` from
    ``[]``, exactly like the dict representation, so SPARQL error
    semantics are preserved without materializing a dict per row."""

    __slots__ = ("_index", "_row", "_decode")

    def __init__(self, index: Dict[str, int], row: Row,
                 decode: Callable[[int], Node]):
        self._index = index
        self._row = row
        self._decode = decode

    def __getitem__(self, name: str) -> Node:
        pos = self._index.get(name)
        if pos is None:
            raise KeyError(name)
        tid = self._row[pos]
        if tid is None:
            raise KeyError(name)
        return self._decode(tid)

    def __contains__(self, name: str) -> bool:
        pos = self._index.get(name)
        return pos is not None and self._row[pos] is not None

    def get(self, name: str, default=None):
        pos = self._index.get(name)
        if pos is None:
            return default
        tid = self._row[pos]
        if tid is None:
            return default
        return self._decode(tid)

    def keys(self):
        return [v for v, pos in self._index.items()
                if self._row[pos] is not None]

    def __iter__(self):
        return iter(self.keys())

    def __len__(self):
        return sum(1 for cell in self._row if cell is not None)


# -- schema plumbing ---------------------------------------------------

def _merge_plan(left: SolutionTable, right: SolutionTable):
    """Precompute the merged schema of a binary operator.

    Returns ``(out_vars, shared, right_only)`` where ``shared`` is a list
    of ``(left_pos, right_pos)`` pairs for variables in both schemas and
    ``right_only`` the right positions appended after the left columns.
    """
    shared: List[Tuple[int, int]] = []
    right_only: List[int] = []
    lindex = left.index
    for rpos, var in enumerate(right.variables):
        lpos = lindex.get(var)
        if lpos is None:
            right_only.append(rpos)
        else:
            shared.append((lpos, rpos))
    out_vars = left.variables + tuple(right.variables[rp]
                                      for rp in right_only)
    return out_vars, shared, right_only


def _fill(lrow: Row, rrow: Row, shared) -> Row:
    """``lrow`` with its unbound shared cells taken from ``rrow``."""
    merged = list(lrow)
    for lp, rp in shared:
        if merged[lp] is None:
            merged[lp] = rrow[rp]
    return tuple(merged)


# -- the probe kernel --------------------------------------------------

class _Tally:
    __slots__ = ("join_candidates",)

    def __init__(self):
        self.join_candidates = 0


def _buckets(keys: Iterable, rows: Sequence[Row]) -> Dict[object, List[Row]]:
    """Group ``rows`` by their ``keys`` (aligned), keeping row order."""
    table: Dict[object, List[Row]] = {}
    for key, row in zip(keys, rows):
        bucket = table.get(key)
        if bucket is None:
            table[key] = [row]
        else:
            bucket.append(row)
    return table


#: Plan-step marker: the partition shares no bound column with the probe,
#: so every one of its rows is compatible.
_WHOLE = object()


class ProbeIndex:
    """The hash probe behind every join-shaped operator.

    Join, LeftJoin, MINUS and FILTER (NOT) EXISTS, on the materialized and
    the streaming executor alike, find the build rows compatible with a
    probe row here.  ``pairs`` lists the shared columns as
    ``(probe_pos, build_pos)``.

    A row's *mask* is the subset of shared columns it binds.  The build
    rows are partitioned by mask once, at construction; almost always
    there is a single partition, whose mask is the set of columns bound in
    every build row.  A probe row with mask ``m`` is compatible with a
    build row with mask ``b`` exactly when the two agree on ``m & b``, so
    each partition answers a probe with one hash lookup keyed on those
    columns, and every row it hands back is compatible as it stands.  The
    dict for a (partition, key columns) pair is built on the first probe
    that needs it and cached, so there are usually one or two; only the
    full-key dict of a build side bound everywhere is built up front.  A
    partition hands back all its rows only when ``m & b`` is empty; then
    each of them is compatible, so that scan is output, not waste.

    Within a partition rows come back in build order; partitions in the
    order their first row was built.  ``stats.join_candidates`` (when a
    stats object is given) counts the rows handed back.
    """

    __slots__ = ("_key", "_wide", "_full", "_bpos", "_parts", "_plans",
                 "_dicts", "_fast", "stats")

    def __init__(self, build_rows: Sequence[Row], pairs, stats=None):
        n = len(pairs)
        self._wide = n != 1
        self._full = tuple(range(n))
        self._bpos = [bp for _, bp in pairs]
        self._key = itemgetter(*[pp for pp, _ in pairs]) if n else \
            (lambda row: ())
        self.stats = _Tally() if stats is None else stats
        self._plans: Dict[tuple, list] = {}
        self._dicts: Dict[tuple, dict] = {}
        # The common case — every shared column bound in every build row
        # — is one partition, and a fully bound probe is one lookup in
        # ``_fast``, built here from the keys the partitioning computes.
        self._fast: Optional[dict] = None
        build_key = itemgetter(*self._bpos) if n else (lambda row: ())
        keys = list(map(build_key, build_rows))
        if None not in (keys if n == 1 else chain.from_iterable(keys)):
            self._parts = [(self._full, build_rows)] if build_rows else []
            self._fast = self._dicts[(self._full, self._full)] = \
                _buckets(keys, build_rows)
        else:
            self._parts = list(
                _buckets(map(self._mask, keys), build_rows).items())

    def _mask(self, key) -> tuple:
        if key is None:
            return ()
        if self._wide and None in key:
            return tuple([i for i, v in enumerate(key) if v is not None])
        return self._full

    def _plan(self, mask: tuple) -> list:
        """Per partition: how a probe with ``mask`` looks it up —
        ``(_WHOLE, rows)``, or ``(getter, dict)`` where ``getter`` turns
        the probe key into the dict key (``None``: the key as it is)."""
        plan = []
        for pmask, rows in self._parts:
            cols = tuple([i for i in mask if i in pmask])
            if not cols:
                plan.append((_WHOLE, rows))
                continue
            table = self._dicts.get((pmask, cols))
            if table is None:
                build_key = itemgetter(*[self._bpos[i] for i in cols])
                table = self._dicts[(pmask, cols)] = _buckets(
                    map(build_key, rows), rows)
            plan.append((None if len(cols) == len(self._full)
                         else itemgetter(*cols), table))
        self._plans[mask] = plan
        return plan

    def _lookup(self, key, overlap: bool = False) -> Sequence[Row]:
        """The build rows compatible with a probe whose shared cells are
        ``key``; with ``overlap``, only those binding a shared column the
        probe binds too."""
        mask = self._mask(key)
        plan = self._plans.get(mask)
        if plan is None:
            plan = self._plan(mask)
        hits: Sequence[Row] = ()
        for getter, table in plan:
            if getter is _WHOLE:
                if overlap:
                    continue
                found = table
            else:
                found = table.get(key if getter is None else getter(key))
                if not found:
                    continue
            hits = found if not hits else hits + found
        return hits

    def probe(self, rows: Sequence[Row]) -> List[Sequence[Row]]:
        """For each probe row, in order, the build rows compatible with
        it."""
        keys = list(map(self._key, rows))
        fast = self._fast
        wide = self._wide
        if fast is not None and None not in (
                chain.from_iterable(keys) if wide else keys):
            hits = list(map(fast.get, keys, repeat((), len(keys))))
        else:
            lookup = self._lookup
            hits = [lookup(key) if fast is None or key is None
                    or (wide and None in key) else fast.get(key, ())
                    for key in keys]
        self.stats.join_candidates += sum(map(len, hits))
        return hits

    def semijoin(self, rows: Iterable[Row], anti: bool = False,
                 overlap: bool = False) -> List[Row]:
        """The probe rows with a compatible build row — FILTER EXISTS —
        or, with ``anti``, those without one — NOT EXISTS.  With
        ``overlap`` a build row only counts when it also binds a shared
        column the probe binds: ``anti`` plus ``overlap`` is MINUS.  Each
        probe with a match counts one candidate."""
        key_of = self._key
        lookup = self._lookup
        kept: List[Row] = []
        found = 0
        for row in rows:
            if lookup(key_of(row), overlap):
                found += 1
                if not anti:
                    kept.append(row)
            elif anti:
                kept.append(row)
        self.stats.join_candidates += found
        return kept


def probe_join(index: ProbeIndex, probe_rows: Sequence[Row], shared,
               right_only, build_left: bool, append) -> None:
    """Join each probe row with its matches in ``index`` and ``append``
    the merged rows (left columns first, then the right-only ones).
    ``build_left`` says which side the index was built on."""
    if build_left:
        for rrow, hits in zip(probe_rows, index.probe(probe_rows)):
            if hits:
                extra = tuple([rrow[rp] for rp in right_only])
                for lrow in hits:
                    append((lrow if None not in lrow
                            else _fill(lrow, rrow, shared)) + extra)
        return
    for lrow, hits in zip(probe_rows, index.probe(probe_rows)):
        if hits:
            bound = None not in lrow
            for rrow in hits:
                append((lrow if bound else _fill(lrow, rrow, shared))
                       + tuple([rrow[rp] for rp in right_only]))


def probe_left_join(index: ProbeIndex, left_rows: Sequence[Row], shared,
                    right_only, accept, append) -> None:
    """SPARQL LeftJoin of each left row against ``index`` (built on the
    right side): ``append`` every merged row ``accept`` admits (all of
    them when ``accept`` is ``None``), or the left row padded with
    ``None`` when none is admitted."""
    pad = (None,) * len(right_only)
    for lrow, hits in zip(left_rows, index.probe(left_rows)):
        if hits:
            bound = None not in lrow
            matched = False
            for rrow in hits:
                merged = (lrow if bound else _fill(lrow, rrow, shared)) \
                    + tuple([rrow[rp] for rp in right_only])
                if accept is None or accept(merged):
                    append(merged)
                    matched = True
            if matched:
                continue
        append(lrow + pad)


# -- operators ---------------------------------------------------------

def table_join(left: SolutionTable, right: SolutionTable,
               stats=None) -> SolutionTable:
    """Join two solution tables on their shared schema variables: a
    :class:`ProbeIndex` on the smaller side, probed with the larger."""
    out_vars, shared, right_only = _merge_plan(left, right)
    out = SolutionTable(out_vars)
    if not left.rows or not right.rows:
        return out
    if len(left.rows) <= len(right.rows):
        index = ProbeIndex(left.rows, [(rp, lp) for lp, rp in shared], stats)
        probe_join(index, right.rows, shared, right_only, True,
                   out.rows.append)
    else:
        index = ProbeIndex(right.rows, shared, stats)
        probe_join(index, left.rows, shared, right_only, False,
                   out.rows.append)
    return out


def table_left_join(left: SolutionTable, right: SolutionTable,
                    accept: Optional[Callable[[Row], bool]] = None,
                    stats=None) -> SolutionTable:
    """SPARQL LeftJoin on solution tables: every left row survives;
    compatible right rows extend it, otherwise the left row passes through
    padded with ``None``.

    ``accept``, when given, is the LeftJoin *condition* evaluated on each
    merged candidate row (in the output schema): the extension only counts
    as a match when ``accept`` returns True.  It is evaluated only on the
    compatible rows the :class:`ProbeIndex` hands back, never over the
    full cross product.
    """
    out_vars, shared, right_only = _merge_plan(left, right)
    out = SolutionTable(out_vars)
    probe_left_join(ProbeIndex(right.rows, shared, stats), left.rows,
                    shared, right_only, accept, out.rows.append)
    return out


def table_minus(left: SolutionTable, right: SolutionTable,
                stats=None) -> SolutionTable:
    """Rows of ``left`` with no compatible row in ``right`` sharing at
    least one *bound* variable — SPARQL MINUS semantics."""
    _, shared, _ = _merge_plan(left, right)
    if not shared or not right.rows:
        return SolutionTable(left.variables, list(left.rows))
    index = ProbeIndex(right.rows, shared, stats)
    return SolutionTable(left.variables,
                         index.semijoin(left.rows, anti=True, overlap=True))


def table_project(table: SolutionTable,
                  variables: Sequence[str]) -> SolutionTable:
    """Restrict the table to the given schema (bag semantics kept).
    Variables absent from the input schema become all-``None`` columns."""
    positions = [table.index.get(v) for v in variables]
    if None in positions:
        rows = [tuple([None if p is None else row[p] for p in positions])
                for row in table.rows]
    elif len(positions) == 1:
        p0 = positions[0]
        rows = [(row[p0],) for row in table.rows]
    else:
        rows = [tuple([row[p] for p in positions]) for row in table.rows]
    return SolutionTable(variables, rows)


def table_distinct(table: SolutionTable) -> SolutionTable:
    """Collapse duplicate rows to multiplicity one (the materialized face
    of :func:`stream_distinct`)."""
    rows: List[Row] = []
    for batch in stream_distinct(iter((table.rows,))):
        rows.extend(batch)
    return SolutionTable(table.variables, rows)


def table_union(left: SolutionTable, right: SolutionTable) -> SolutionTable:
    """Bag concatenation with schema alignment (SPARQL UNION)."""
    out_vars, _, right_only = _merge_plan(left, right)
    out = SolutionTable(out_vars)
    rows = out.rows
    pad = (None,) * len(right_only)
    for lrow in left.rows:
        rows.append(lrow + pad)
    rindex = right.index
    rmap = [rindex.get(v) for v in out_vars]
    for rrow in right.rows:
        rows.append(tuple(None if p is None else rrow[p] for p in rmap))
    return out


# -- conversion (tests / decode boundary) ------------------------------

def table_from_mappings(solutions: Multiset, dictionary,
                        variables: Optional[Sequence[str]] = None
                        ) -> SolutionTable:
    """Encode a dict-based multiset into a columnar table."""
    if variables is None:
        variables = in_scope_variables(solutions)
    encode = dictionary.encode
    rows = [tuple(encode(mu[v]) if v in mu else None for v in variables)
            for mu in solutions]
    return SolutionTable(variables, rows)


def table_to_mappings(table: SolutionTable, dictionary) -> Multiset:
    """Decode a columnar table back into a dict-based multiset."""
    decode = dictionary.decode
    out: Multiset = []
    variables = table.variables
    for row in table.rows:
        out.append({v: decode(tid) for v, tid in zip(variables, row)
                    if tid is not None})
    return out
