"""Reference answers for the case studies, from the reference evaluator.

``expected.json`` holds, for the benchmark's fixed dataset, each case
study's row count and order-insensitive row-bag digest, and the row-bag
digest of every query in the serving workload's read population (keyed by
a hash of its text).  They come from
``Engine(columnar=False)``, the dict-based evaluator the repository keeps
as its oracle, and the pipeline and the expert query must agree there.
"""

from __future__ import annotations

import json
import os

from . import common


def compute_expected() -> dict:
    from repro.client import EngineClient
    from repro.data import build_dataset
    from repro.sparql import Engine
    from repro.workload.case_studies import CASE_STUDIES

    dataset = build_dataset(scale=common.SCALE, seed=common.DATASET_SEED)
    client = EngineClient(Engine(dataset, columnar=False))
    out = {"scale": common.SCALE, "dataset_seed": common.DATASET_SEED,
           "evaluator": "Engine(columnar=False)", "case_studies": {}}
    for case in CASE_STUDIES:
        expert = client.execute(case.expert_sparql)
        pipeline = case.frame().execute(client)
        digest = common.frame_digest(expert)
        if common.frame_digest(pipeline) != digest \
                or len(pipeline) != len(expert):
            raise RuntimeError("%s: the pipeline and the expert query "
                               "disagree on the reference evaluator"
                               % case.key)
        out["case_studies"][case.key] = {"rows": len(expert),
                                         "digest": digest}
    from .serving import population, query_key, result_digest
    engine = client.engine
    out["serving"] = {query_key(text): result_digest(engine.query(text))
                      for _, text in population()[0]}
    return out


def write_expected() -> None:
    path = os.path.join(common.HERE, "expected.json")
    with open(path, "w") as handle:
        json.dump(compute_expected(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % path)
