"""Column-at-a-time kernels for the vectorized data plane.

The streaming executor's hot operators exchange :class:`~.solution.
ColumnBatch` objects — one flat list of term ids per variable — and
this module supplies the pieces that make whole-column evaluation pay:

* :func:`compile_predicate` turns the id-comparison subset of FILTER
  conditions (``=``, ``!=``, ``IN``/``NOT IN`` against IRI constants,
  ``BOUND``/``!BOUND``, and ``&&``/``||`` combinations thereof) into a
  per-plan closure that scans a column and emits a *selection vector* (a
  byte flag per row) without decoding a single term.  Conditions outside
  that subset return ``None`` and the filter falls back to row view.
* :func:`replicate` / :func:`replicate_mask` expand a parent column
  through a per-row fan-out count — the columnar face of the pattern
  matcher's ``row + (o,)`` append, done with C-level ``itertools``
  plumbing instead of per-row tuple construction.
* :func:`expand_columns` is the full expansion step built on top: when
  every fan-out count is 0 or 1 (lookup-shaped joins, the common case in
  star and chain BGPs) it degenerates to a selection-vector compress —
  and to a zero-copy column share when nothing was dropped at all —
  falling back to :func:`replicate` only for real fan-out.

Soundness of the id-comparison subset: the term dictionary is injective,
so id equality *is* term equality; and for a comparison against an IRI
constant SPARQL's ``=``/``!=`` never raise a type error
(:func:`~.expressions._compare` defines them for any operand mix that
includes a URI), so "row dropped on expression error" and "row dropped on
id mismatch" coincide exactly.  Literal constants are *not* compiled:
two distinct ids can be value-equal (``1`` vs ``1.0``), which only the
row-view comparison handles.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Callable, Dict, Optional

from ..rdf.terms import URIRef
from .expressions import (AndExpr, CompareExpr, ConstExpr, Expression,
                          FunctionExpr, InExpr, NotExpr, OrExpr, VarExpr)
from .solution import ColumnBatch

__all__ = ["compile_predicate", "expand_columns", "predicate_compilable",
           "replicate", "replicate_mask"]


# ----------------------------------------------------------------------
# Column replication (BGP fan-out)
# ----------------------------------------------------------------------

def replicate(col: list, counts) -> list:
    """Repeat ``col[i]`` ``counts[i]`` times, concatenated.

    This is how a vectorized index-nested-loop step carries its parent
    columns through a fan-out: the per-row repetition runs entirely in C
    (``chain``/``map``/``repeat`` feeding ``list.extend``)."""
    out = []
    out.extend(chain.from_iterable(map(repeat, col, counts)))
    return out


def replicate_mask(mask: bytearray, counts) -> bytearray:
    """:func:`replicate` for a null mask column."""
    out = bytearray()
    out.extend(chain.from_iterable(map(repeat, mask, counts)))
    return out


def expand_columns(cb: ColumnBatch, counts, new: list) -> ColumnBatch:
    """Attach ``new`` as a fresh column of ``cb``, repeating each parent
    row ``counts[i]`` times.

    BGP batches are always fully bound, so masks never appear here.  When
    no count exceeds 1 the expansion is really a *selection*: the counts
    list doubles as the selection vector and the parent columns are
    compressed in C (or shared outright when every count is 1).  Only a
    genuine fan-out pays for :func:`replicate`.
    """
    kept = len(new)
    if kept <= cb.length and (not kept or max(counts) <= 1):
        base = cb.take_flags(bytearray(counts), kept)
        return ColumnBatch(list(base.columns) + [new], None, kept)
    out = [replicate(col, counts) for col in cb.columns]
    out.append(new)
    return ColumnBatch(out, None, kept)


# ----------------------------------------------------------------------
# Predicate compilation (FILTER -> selection vector)
# ----------------------------------------------------------------------

def _const_uri(expression: Expression):
    """The IRI term of a constant operand, else ``None``."""
    if type(expression) is ConstExpr and isinstance(expression.term, URIRef):
        return expression.term
    return None


def _var_const_sides(node: CompareExpr):
    """Normalize ``?x <op> <iri>`` / ``<iri> <op> ?x`` to (var, term)."""
    if type(node.left) is VarExpr:
        term = _const_uri(node.right)
        if term is not None:
            return node.left.name, term
    if type(node.right) is VarExpr:
        term = _const_uri(node.left)
        if term is not None:
            return node.right.name, term
    return None


def predicate_compilable(condition: Expression) -> bool:
    """Static (dictionary-free) check mirroring :func:`compile_predicate`.

    True when the condition is inside the id-comparison subset, i.e. the
    vectorized filter will run column-at-a-time instead of falling back
    to row view.  Used by the planner's ``vectorized`` annotation."""
    t = type(condition)
    if t is CompareExpr:
        return condition.op in ("=", "!=") \
            and _var_const_sides(condition) is not None
    if t is InExpr:
        return type(condition.operand) is VarExpr and all(
            _const_uri(option) is not None for option in condition.options)
    if t is FunctionExpr:
        return condition.name == "bound" and len(condition.args) == 1 \
            and type(condition.args[0]) is VarExpr
    if t is NotExpr:
        inner = condition.operand
        return type(inner) is FunctionExpr and inner.name == "bound" \
            and len(inner.args) == 1 and type(inner.args[0]) is VarExpr
    if t in (AndExpr, OrExpr):
        return predicate_compilable(condition.left) \
            and predicate_compilable(condition.right)
    return False


def compile_predicate(condition: Expression, index: Dict[str, int],
                      dictionary) -> Optional[Callable]:
    """Compile a FILTER condition into ``pred(batch) -> (flags, kept)``.

    ``flags`` is a ``bytearray`` selection vector over the
    :class:`~.solution.ColumnBatch` (byte ``1`` = row survives), ``kept``
    the number of survivors.  Returns ``None`` when the condition is
    outside the id-comparison subset — the caller then filters through
    the row-view path.

    A flag is set only when the condition evaluates to *true with no
    error* for that row, which is exactly the set FILTER keeps: false and
    error rows are dropped alike, so the compiled form never needs to
    distinguish them.
    """
    lookup = dictionary.lookup
    t = type(condition)

    if t is CompareExpr:
        sides = _var_const_sides(condition)
        if sides is None or condition.op not in ("=", "!="):
            return None
        name, term = sides
        pos = index.get(name)
        cid = lookup(term)  # None: the IRI names no term in this graph
        if condition.op == "=":
            if pos is None or cid is None:
                # Unbound-in-schema or unknown constant: `=` can never
                # hold (an error or a false comparison drops the row).
                return _none_pass()
            return _scan_eq(pos, cid)
        if pos is None:
            return _none_pass()  # unbound: comparison errors, row dropped
        return _scan_ne(pos, cid)

    if t is InExpr:
        if type(condition.operand) is not VarExpr:
            return None
        terms = []
        for option in condition.options:
            term = _const_uri(option)
            if term is None:
                return None
            terms.append(term)
        pos = index.get(condition.operand.name)
        if pos is None:
            return _none_pass()  # unbound operand always errors
        ids = {tid for tid in (lookup(term) for term in terms)
               if tid is not None}
        if condition.negated:
            return _scan_not_in(pos, ids)
        if not ids:
            return _none_pass()
        return _scan_in(pos, ids)

    if t is FunctionExpr:
        if condition.name != "bound" or len(condition.args) != 1 \
                or type(condition.args[0]) is not VarExpr:
            return None
        return _scan_bound(index.get(condition.args[0].name), False)

    if t is NotExpr:
        inner = condition.operand
        if type(inner) is FunctionExpr and inner.name == "bound" \
                and len(inner.args) == 1 and type(inner.args[0]) is VarExpr:
            return _scan_bound(index.get(inner.args[0].name), True)
        return None

    if t in (AndExpr, OrExpr):
        left = compile_predicate(condition.left, index, dictionary)
        if left is None:
            return None
        right = compile_predicate(condition.right, index, dictionary)
        if right is None:
            return None
        # With flags meaning "true and error-free", SPARQL's
        # error-tolerant && and || reduce to bitwise AND/OR: a FILTER
        # keeps a row iff the combination is true, which requires both
        # (either) operand flags set.
        return _combine(left, right, t is AndExpr)

    return None


def _none_pass():
    def pred(batch):
        return bytearray(len(batch)), 0
    return pred


def _scan_eq(pos: int, cid: int):
    def pred(batch):
        flags = bytearray(len(batch))
        kept = 0
        i = 0
        for tid in batch.columns[pos]:
            if tid == cid:
                flags[i] = 1
                kept += 1
            i += 1
        # Null cells hold the -1 sentinel and can never equal a real id.
        return flags, kept
    return pred


def _scan_ne(pos: int, cid: Optional[int]):
    # cid None (IRI unknown to the dictionary): every *bound* value
    # differs from it, and IRI != is total, so bound-ness alone decides.
    def pred(batch):
        n = len(batch)
        col = batch.columns[pos]
        mask = batch.mask(pos)
        flags = bytearray(n)
        kept = 0
        if cid is None:
            if mask is None:
                return bytearray(b"\x01" * n), n
            for i, null in enumerate(mask):
                if not null:
                    flags[i] = 1
                    kept += 1
            return flags, kept
        i = 0
        for tid in col:
            if tid != cid:
                flags[i] = 1
                kept += 1
            i += 1
        if mask is not None:
            for i, null in enumerate(mask):
                if null and flags[i]:
                    flags[i] = 0
                    kept -= 1
        return flags, kept
    return pred


def _scan_in(pos: int, ids: set):
    def pred(batch):
        flags = bytearray(len(batch))
        kept = 0
        i = 0
        for tid in batch.columns[pos]:
            if tid in ids:
                flags[i] = 1
                kept += 1
            i += 1
        return flags, kept
    return pred


def _scan_not_in(pos: int, ids: set):
    def pred(batch):
        n = len(batch)
        col = batch.columns[pos]
        mask = batch.mask(pos)
        flags = bytearray(n)
        kept = 0
        i = 0
        for tid in col:
            if tid not in ids:
                flags[i] = 1
                kept += 1
            i += 1
        if mask is not None:
            for i, null in enumerate(mask):
                if null and flags[i]:
                    flags[i] = 0
                    kept -= 1
        return flags, kept
    return pred


def _scan_bound(pos: Optional[int], negate: bool):
    def pred(batch):
        n = len(batch)
        if pos is None:
            bound_flags = bytearray(n)  # variable absent: never bound
        else:
            mask = batch.mask(pos)
            if mask is None:
                bound_flags = bytearray(b"\x01" * n)
            else:
                bound_flags = bytearray(0 if null else 1 for null in mask)
        if negate:
            bound_flags = bytearray(0 if f else 1 for f in bound_flags)
        return bound_flags, sum(bound_flags)
    return pred


def _combine(left: Callable, right: Callable, conjunction: bool):
    def pred(batch):
        lflags, lkept = left(batch)
        if conjunction and not lkept:
            return lflags, 0
        rflags, _ = right(batch)
        kept = 0
        if conjunction:
            for i, f in enumerate(lflags):
                if f and rflags[i]:
                    kept += 1
                else:
                    lflags[i] = 0
        else:
            for i, f in enumerate(rflags):
                if f:
                    lflags[i] = 1
            kept = sum(lflags)
        return lflags, kept
    return pred
