"""The join probe kernel (:class:`repro.sparql.solution.ProbeIndex`).

Every join-shaped operator — Join, LeftJoin, MINUS, FILTER (NOT) EXISTS,
on the materialized and the streaming executor — finds its compatible
build rows through one kernel.  This suite pins three things:

* the kernel itself: ``probe`` hands back exactly the compatible build
  rows and ``semijoin`` answers EXISTS, NOT EXISTS and MINUS, against a
  brute-force compatibility scan on rows with arbitrary unbound cells;
* bag identity across the reference, materialized, streaming and
  vectorized planes on hand-made graphs whose join keys are only partly
  bound (a UNION branch leaving the key unbound, a build side binding it
  in only some rows, EXISTS/NOT EXISTS and MINUS on such sides);
* a work bound: on every case study (pipeline and expert SPARQL) and
  every join-corpus query, on both executors, each operator's
  ``join_candidates`` stays within a small constant of its input plus
  output rows — no probe degenerates into a scan of the build side.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.data import DBPEDIA_URI, build_dataset
from repro.rdf import Graph, Literal, URIRef
from repro.sparql import Engine
from repro.sparql import evaluator as evaluator_module
from repro.sparql import solution as solution_module
from repro.sparql.solution import ProbeIndex
from repro.workload import CASE_STUDIES, JOIN_QUERIES

# -- the kernel against a brute-force scan -----------------------------

WIDTH = 3
_cells = st.one_of(st.none(), st.integers(min_value=0, max_value=2))
_rows = st.lists(st.tuples(*[_cells] * WIDTH), max_size=10)
_pairs = st.lists(st.tuples(st.integers(0, WIDTH - 1),
                            st.integers(0, WIDTH - 1)),
                  max_size=WIDTH, unique_by=(lambda p: p[0], lambda p: p[1]))


def compatible(probe, build, pairs):
    return all(probe[pp] is None or build[bp] is None
               or probe[pp] == build[bp] for pp, bp in pairs)


def overlaps(probe, build, pairs):
    return any(probe[pp] is not None and build[bp] is not None
               for pp, bp in pairs)


def match(index, probe):
    [hits] = index.probe([probe])
    return list(hits)


@settings(max_examples=200, deadline=None)
@given(_rows, _rows, _pairs)
def test_probe_hands_back_exactly_the_compatible_rows(build, probes, pairs):
    index = ProbeIndex(build, pairs)
    handed = 0
    for probe, hits in zip(probes, index.probe(probes)):
        want = [row for row in build if compatible(probe, row, pairs)]
        assert sorted(hits, key=repr) == sorted(want, key=repr)
        handed += len(hits)
    assert index.stats.join_candidates == handed


@settings(max_examples=200, deadline=None)
@given(_rows, _rows, _pairs)
def test_semijoin_answers_exists_not_exists_and_minus(build, probes, pairs):
    index = ProbeIndex(build, pairs)
    exists = [p for p in probes
              if any(compatible(p, row, pairs) for row in build)]
    assert index.semijoin(probes) == exists
    assert index.semijoin(probes, anti=True) == [
        p for p in probes if p not in exists]
    assert index.semijoin(probes, anti=True, overlap=True) == [
        p for p in probes
        if not any(compatible(p, row, pairs) and overlaps(p, row, pairs)
                   for row in build)]


def test_partitions_keep_build_order_and_count_candidates():
    # Key column 0 is bound in rows a, b, d and unbound in c: two
    # partitions, handed back in the order their first row was built.
    a, b, c, d = (1, 10), (2, 20), (None, 30), (1, 40)
    index = ProbeIndex([a, b, c, d], [(0, 0)])
    assert match(index, (1,)) == [a, d, c]
    assert match(index, (None,)) == [a, b, d, c]
    assert match(index, (3,)) == [c]
    assert index.stats.join_candidates == 3 + 4 + 1
    # Fully bound build side, fully bound probe: one partition, one dict.
    full = ProbeIndex([a, b, d], [(0, 0)])
    assert match(full, (1,)) == [a, d]
    assert match(full, (5,)) == []


# -- bag identity across the planes on partly-bound keys ---------------

def uri(name):
    return URIRef("http://x/" + name)


PFX = "PREFIX x: <http://x/>\n"


@pytest.fixture(scope="module")
def planes():
    g = Graph("http://g")
    for film, actor in [("m1", "a1"), ("m1", "a2"), ("m2", "a2"),
                        ("m3", "a3"), ("m4", "a4"), ("m4", "a1")]:
        g.add(uri(film), uri("starring"), uri(actor))
    for actor, place in [("a1", "usa"), ("a2", "france"), ("a3", "usa"),
                         ("a5", "peru")]:
        g.add(uri(actor), uri("born"), uri(place))
    for film, year in [("m1", 2000), ("m2", 2010), ("m3", 2012),
                       ("m5", 1999)]:
        g.add(uri(film), uri("year"), Literal(year))
    return {
        "reference": Engine(g, columnar=False),
        "materialized": Engine(g, streaming=False, vectorize=False),
        "streaming": Engine(g, streaming=True, vectorize=False),
        "vectorized": Engine(g, streaming=True, vectorize=True),
    }


def row_bag(result):
    """The result as a bag of mappings: unbound cells are absent, so a
    plane's SELECT * schema (which may or may not list a variable no
    surviving row binds) does not matter."""
    return sorted(tuple(sorted((var, repr(term))
                               for var, term in zip(result.variables, row)
                               if term is not None))
                  for row in result.rows)


PARTLY_BOUND = {
    # The movie_genre shape: a grouped build side joined with a UNION
    # whose second branch leaves the join key ?f unbound.
    "union_probe_unbound_key_join": """
        SELECT * WHERE {
            { SELECT ?f (COUNT(?a) AS ?n) WHERE { ?f x:starring ?a }
              GROUP BY ?f }
            { { ?f x:starring ?a } UNION { ?a x:born ?c } }
        }""",
    "union_build_unbound_key_join": """
        SELECT * WHERE {
            { { ?f x:starring ?a } UNION { ?a x:born ?c } }
            { SELECT ?f (COUNT(?a) AS ?n) WHERE { ?f x:starring ?a }
              GROUP BY ?f }
        }""",
    "union_unbound_key_leftjoin_condition": """
        SELECT * WHERE {
            { { ?f x:starring ?a } UNION { ?a x:born ?c } }
            OPTIONAL { ?f x:year ?y FILTER(?y > 2005) }
        }""",
    "leftjoin_build_binds_key_in_some_rows": """
        SELECT * WHERE {
            ?f x:starring ?a .
            OPTIONAL { { ?f x:year ?y } UNION { ?a x:born ?c } }
        }""",
    "leftjoin_partial_build_with_condition": """
        SELECT * WHERE {
            ?f x:starring ?a .
            OPTIONAL { { ?f x:year ?y } UNION { ?a x:born ?c }
                       FILTER(!BOUND(?y) || ?y < 2011) }
        }""",
    "join_build_binds_key_in_some_rows": """
        SELECT * WHERE {
            { { ?f x:year ?y } UNION { ?a x:born ?c } }
            ?f x:starring ?a .
        }""",
    "values_undef_join": """
        SELECT * WHERE {
            VALUES (?f ?a) { (x:m1 UNDEF) (UNDEF x:a2) (x:m4 x:a4)
                             (UNDEF UNDEF) (x:m9 UNDEF) }
            ?f x:starring ?a .
        }""",
    "exists_partly_bound": """
        SELECT * WHERE {
            { ?f x:starring ?a } UNION { ?a x:born ?c }
            FILTER EXISTS { { ?f x:year ?y } UNION { ?a x:born x:usa } }
        }""",
    "not_exists_partly_bound": """
        SELECT * WHERE {
            { ?f x:starring ?a } UNION { ?a x:born ?c }
            FILTER NOT EXISTS { { ?f x:year ?y } UNION { ?a x:born x:usa } }
        }""",
    "minus_partly_bound": """
        SELECT * WHERE {
            { ?f x:starring ?a } UNION { ?a x:born ?c }
            MINUS { { ?f x:year ?y } UNION { ?a x:born x:usa } }
        }""",
    "minus_no_shared_bound_variable": """
        SELECT * WHERE {
            { ?f x:starring ?a } UNION { ?a x:born ?c }
            MINUS { ?f x:year ?y }
        }""",
}


@pytest.mark.parametrize("key", sorted(PARTLY_BOUND))
def test_partly_bound_keys_agree_on_every_plane(planes, key):
    query = PFX + PARTLY_BOUND[key]
    want = row_bag(planes["reference"].query(query))
    assert want, "%s returns no rows on the fixture graph" % key
    for plane, engine in planes.items():
        assert row_bag(engine.query(query)) == want, plane


def test_minus_keeps_rows_sharing_no_bound_variable(planes):
    # Rows of the ?a/?c branch bind no variable of the MINUS side, so the
    # MINUS rule keeps them all; starring rows of films with a year go.
    query = PFX + PARTLY_BOUND["minus_no_shared_bound_variable"]
    for plane, engine in planes.items():
        result = engine.query(query)
        films = {row[result.variables.index("f")] for row in result.rows}
        assert films == {None, uri("m4")}, plane


# -- the work bound on the paper's workload and the join corpus --------

#: Each operator's candidates stay within this factor of its build rows
#: plus probe rows plus output rows.
WORK_FACTOR = 2


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(scale=0.05)


@pytest.fixture
def recorded(monkeypatch):
    """Record, per ProbeIndex, its build rows, probes, candidates handed
    back and rows emitted by the join kernels."""
    indexes = []

    class RecordingIndex(ProbeIndex):
        def __init__(self, build_rows, pairs, stats=None):
            super().__init__(build_rows, pairs, stats)
            self.built = len(build_rows)
            self.probes = self.handed = self.emitted = 0
            indexes.append(self)

        def probe(self, rows):
            hits = super().probe(rows)
            self.probes += len(rows)
            self.handed += sum(map(len, hits))
            return hits

        def semijoin(self, rows, anti=False, overlap=False):
            rows = list(rows)
            before = self.stats.join_candidates
            kept = super().semijoin(rows, anti, overlap)
            self.probes += len(rows)
            self.handed += self.stats.join_candidates - before
            self.emitted += len(kept)
            return kept

    def counting(kernel):
        def run(index, *args):
            *head, append = args

            def emit(row):
                index.emitted += 1
                append(row)
            kernel(index, *head, emit)
        return run

    join = counting(solution_module.probe_join)
    left_join = counting(solution_module.probe_left_join)
    for module in (solution_module, evaluator_module):
        monkeypatch.setattr(module, "ProbeIndex", RecordingIndex)
        monkeypatch.setattr(module, "probe_join", join)
        monkeypatch.setattr(module, "probe_left_join", left_join)
    return indexes


def assert_work_bound(engine, indexes, label):
    assert indexes, "%s ran no join-shaped operator" % label
    for index in indexes:
        assert index.handed <= WORK_FACTOR * (
            index.built + index.probes + index.emitted), (
            label, index.built, index.probes, index.emitted, index.handed)
    assert engine.last_stats.join_candidates == sum(
        index.handed for index in indexes), label


WORKLOAD = ([("pipeline", cs) for cs in CASE_STUDIES]
            + [("expert", cs) for cs in CASE_STUDIES]
            + [("corpus", q) for q in JOIN_QUERIES])


@pytest.mark.parametrize("streaming", [True, False],
                         ids=["streaming", "materialized"])
@pytest.mark.parametrize("kind,item", WORKLOAD,
                         ids=["%s-%s" % (k, i.key) for k, i in WORKLOAD])
def test_join_candidates_within_work_bound(dataset, recorded, streaming,
                                           kind, item):
    engine = Engine(dataset, streaming=streaming)
    if kind == "pipeline":
        result = engine.query_model(item.frame().query_model())
    elif kind == "expert":
        result = engine.query(item.expert_sparql)
    else:
        result = engine.query(item.sparql, default_graph_uri=DBPEDIA_URI)
    assert len(result), item.key
    if engine.last_stats.joins == 0:
        # kg_embedding and the single-BGP corpus shapes join nothing.
        assert engine.last_stats.join_candidates == 0
        return
    assert_work_bound(engine, recorded, "%s %s" % (kind, item.key))
