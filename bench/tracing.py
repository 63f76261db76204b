"""Per-layer tracing for the benchmark, installed from outside the package.

Each traced function is replaced, in every module namespace where a caller
looks it up, by a wrapper that records a span: the op it belongs to, its
parent span, its layer, and its start and end. Spans stay in memory until
the run ends. A layer's self time is the span's duration minus the time of
its child spans, so nested calls (``ensure_valid`` calling ``verify``, the
pipeline calling ``natural_join``) are never counted twice.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import cqstar.cli as cli
import cqstar.decomposition as dec
import cqstar.engine as engine
import cqstar.hypergraph as hypergraph
import cqstar.starsize as starsize

# (module, attribute, layer). A function appears once per namespace that
# resolves it at call time: the CLI's imports, the engine's imports, the
# star-size module's imports, and the defining module (``dec.*`` and the
# library calls the benchmark makes through module attributes).
TARGETS = [
    (cli, "run_cli", "cli"),
    (cli, "parse_query", "parser"),
    (cli, "parse_facts", "parser"),
    (cli, "decomposition_from_json", "parser"),
    (cli, "from_query", "hypergraph"),
    (cli, "count_cq_via_ghd", "engine.pipeline"),
    (cli, "count_cq_via_fractional", "engine.pipeline"),
    (cli, "s_star_size", "starsize"),
    (dec, "gyo_join_tree", "decomposition.build"),
    (dec, "hinge_decompose", "decomposition.build"),
    (dec, "ghd_search", "decomposition.build"),
    (dec, "tree_decompose", "decomposition.build"),
    (dec, "verify", "decomposition.verify"),
    (dec, "ensure_valid", "decomposition.verify"),
    (engine, "atom_relation", "engine.bind"),
    (engine, "natural_join", "engine.join"),
    (engine, "project", "engine.project"),
    (engine, "semijoin", "engine.semijoin"),
    (engine, "count_acyclic_qf", "engine.acyclic_count"),
    (engine, "count_cq_via_ghd", "engine.pipeline"),
    (engine, "count_cq_via_fractional", "engine.pipeline"),
    (engine, "verify", "decomposition.verify"),
    (engine, "ensure_valid", "decomposition.verify"),
    (engine, "from_query", "hypergraph"),
    (engine, "s_components", "hypergraph"),
    (starsize, "s_star_size", "starsize"),
    (starsize, "max_is_brute", "starsize"),
    (starsize, "acyclic_is_and_cover", "starsize"),
    (starsize, "max_is_ghd_dp", "starsize"),
    (starsize, "max_is_hinge_fpt", "starsize"),
    (starsize, "approx_is", "starsize"),
    (starsize, "gyo_join_tree", "decomposition.build"),
    (starsize, "verify", "decomposition.verify"),
    (starsize, "ensure_valid", "decomposition.verify"),
    (starsize, "s_components", "hypergraph"),
    (hypergraph, "from_query", "hypergraph"),
    (hypergraph, "s_components", "hypergraph"),
    (hypergraph.Hypergraph, "induced", "hypergraph"),
]

LAYERS = sorted({layer for _, _, layer in TARGETS})


def _flatten(sizes) -> int:
    if isinstance(sizes, (list, tuple)):
        return sum(_flatten(s) for s in sizes)
    return sizes


class Tracer:
    """Span recorder for one traced run; ``op`` brackets each traced op."""

    def __init__(self):
        self.spans: list[dict] = []
        self.ops: list[dict] = []
        self._stack: list[dict] = []
        self._op: dict | None = None

    # -- recording -----------------------------------------------------------

    def _observe(self, name: str, args, result) -> None:
        """Counts taken at the span boundary, where the work happens."""
        counts = self._op["counts"]

        def add(key, value):
            counts[key] = counts.get(key, 0) + value

        if name == "verify":
            add("verify_calls", 1)
        elif name == "atom_relation":
            add("bind_rows", len(result))
        elif name == "natural_join":
            add("join_rows", len(result))
            counts["peak_join_rows"] = max(counts.get("peak_join_rows", 0), len(result))
        elif name == "parse_facts":
            add("facts", sum(len(r) for r in result.relations.values()))
        elif name in ("count_cq_via_ghd", "count_cq_via_fractional"):
            stats = result.stats
            counts["width"] = args[1].raw_width()
            counts["max_intermediate"] = max(counts.get("max_intermediate", 0), stats["max_intermediate"])
            add("bag_rows", _flatten(stats["bag_sizes"]))
            add("cover_size", sum(stats["cover_sizes"]))
        elif name == "s_star_size":
            counts["star_size"] = result[0]

    def wrap(self, fn, layer: str):
        name = fn.__qualname__
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = {
                "op": self._op["op"],
                "id": len(self.spans),
                "parent": parent["id"] if parent else None,
                "layer": layer,
                "name": name,
                "start": clock(),
                "child": 0.0,
            }
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                self._stack.pop()
                if parent is not None:
                    parent["child"] += span["end"] - span["start"]
            self._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__qualname__ = name
        return traced

    @contextmanager
    def op(self, op_id: str):
        self._op = {"op": op_id, "counts": {}}
        first = len(self.spans)
        start = time.perf_counter()
        try:
            yield self._op["counts"]
        finally:
            wall = time.perf_counter() - start
            top = sum(s["end"] - s["start"] for s in self.spans[first:] if s["parent"] is None)
            self._op.update(wall=wall, unattributed=wall - top)
            self.ops.append(self._op)
            self._op = None
            self._stack.clear()

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self):
        """Replace every target by its wrapper; restore the originals after."""
        wrappers: dict[int, object] = {}
        saved = []
        for owner, attr, layer in TARGETS:
            original = getattr(owner, attr)
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = wrappers[id(original)] = self.wrap(original, layer)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reporting --------------------------------------------------------------

    def layer_self_seconds(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            out[s["layer"]] += (s["end"] - s["start"]) - s["child"]
        return out

    def dump(self, path, header: dict) -> None:
        """Write the header, every op record and every span, one JSON per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for op in self.ops:
                fh.write(json.dumps({"kind": "op", **op}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"kind": "span", **s}) + "\n")

