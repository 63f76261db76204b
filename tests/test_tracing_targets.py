"""The benchmark's tracer wraps package functions by module attribute; a
rename or a dropped import would silently break ``bench/run.py --trace 1``."""

import importlib.util
from pathlib import Path

from cqstar.decomposition import gyo_join_tree
from cqstar.engine import QueryInstance, Relation, Structure, count_cq_via_ghd
from cqstar.hypergraph import Atom, Query, from_query

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = _load_tracing()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracing.TARGETS
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_traced_pipeline_reaches_acyclic_count():
    tracing = _load_tracing()
    rel = Relation.from_rows
    structure = Structure(
        ("a", "b", "c"),
        {
            "E1": rel("E1", ("c0", "c1"), [(0, 2), (1, 2)]),
            "E2": rel("E2", ("c0", "c1"), [(2, 0), (1, 1)]),
            "E3": rel("E3", ("c0", "c1"), [(0, 2)]),
        },
    )
    # a path, not a star, so the component's relation is built by joins
    atoms = (Atom("E1", ("y1", "z1")), Atom("E2", ("z1", "z2")), Atom("E3", ("z2", "y2")))
    inst = QueryInstance(Query("ans", ("y1", "y2"), atoms), structure)
    jt = gyo_join_tree(from_query(inst.query).hypergraph)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.op("probe") as counts:
        count = tracing.engine.count_cq_via_ghd(inst, jt).count
    assert count == count_cq_via_ghd(inst, jt).count == 2
    names = {span["name"] for span in tracer.spans}
    assert {"count_cq_via_ghd", "count_acyclic_qf", "verify", "natural_join"} <= names
    assert counts["cover_size"] == 2 and counts["bag_rows"] > 0
