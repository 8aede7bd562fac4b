"""Shared dataframe machinery for the client-side baselines.

The "+ pandas" baselines of Section 6.3 perform relational processing in
the dataframe library instead of the RDF engine.  To return results
*identical* to the SPARQL strategies (the paper verifies this), the joins
must use SPARQL's compatible-mapping semantics: an unbound value (``None``)
is compatible with anything, and the join matches on *all* shared columns.
"""

from __future__ import annotations

from typing import List, Optional

from ..dataframe import DataFrame
from ..rdf.terms import Node, URIRef
from ..sparql.results import term_to_python


def terms_to_python_frame(frame: DataFrame) -> DataFrame:
    """Convert a dataframe of RDF terms to one of natural Python values."""
    data = {}
    for column in frame.columns:
        data[column] = [term_to_python(v) if isinstance(v, Node) or v is None
                        else v for v in frame.column(column)]
    return DataFrame(data, columns=frame.columns)


def triples_to_frame(triples) -> DataFrame:
    """A (s, p, o) dataframe of raw RDF terms from a triple iterator."""
    s_col, p_col, o_col = [], [], []
    for s, p, o in triples:
        s_col.append(s)
        p_col.append(p)
        o_col.append(o)
    return DataFrame({"s": s_col, "p": p_col, "o": o_col},
                     columns=["s", "p", "o"])


def predicate_table(spo: DataFrame, predicate, subject_col: str,
                    object_col: str) -> DataFrame:
    """Extract one predicate's (subject, object) pairs from an SPO frame —
    the client-side equivalent of a navigation step."""
    predicates = spo.column("p")
    mask = [p == predicate for p in predicates]
    filtered = spo.filter_mask(mask)
    return DataFrame({subject_col: filtered.column("s"),
                      object_col: filtered.column("o")},
                     columns=[subject_col, object_col])


def compatible_merge(left: DataFrame, right: DataFrame,
                     how: str = "inner",
                     anchor: Optional[str] = None) -> DataFrame:
    """Join on *all* shared columns with SPARQL compatibility semantics.

    ``None`` in a shared column is unbound: it matches any value, and the
    output row takes the bound side's value.  ``anchor`` names a shared
    column that is never ``None`` on either side (used to build the hash
    index); when omitted, the first shared column with no ``None`` on the
    right is chosen.
    """
    common = [c for c in left.columns if c in set(right.columns)]
    if not common:
        raise ValueError("no shared columns to join on")
    if anchor is None:
        for candidate in common:
            if all(v is not None for v in right.column(candidate)) and \
               all(v is not None for v in left.column(candidate)):
                anchor = candidate
                break
    if anchor is None:
        raise ValueError("no fully-bound shared column to anchor the join")

    index = {}
    right_rows = list(right.iter_dicts())
    for position, row in enumerate(right_rows):
        index.setdefault(row[anchor], []).append(position)

    out_columns = list(left.columns)
    for column in right.columns:
        if column not in out_columns:
            out_columns.append(column)

    rows = []
    for left_row in left.iter_dicts():
        matched = False
        for position in index.get(left_row[anchor], ()):
            right_row = right_rows[position]
            ok = True
            for column in common:
                lv, rv = left_row[column], right_row[column]
                if lv is not None and rv is not None and lv != rv:
                    ok = False
                    break
            if ok:
                matched = True
                merged = dict(right_row)
                for column, value in left_row.items():
                    if value is not None:
                        merged[column] = value
                    elif column not in merged:
                        merged[column] = None
                rows.append(merged)
        if not matched and how == "left":
            rows.append(dict(left_row))
    return DataFrame.from_dicts(rows, columns=out_columns)


def is_uri_mask(values) -> List[bool]:
    return [isinstance(v, URIRef) for v in values]
