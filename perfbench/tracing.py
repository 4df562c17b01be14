"""In-memory span recorder that wraps ifslab's public functions from outside.

Nothing in ``src/`` knows about tracing: :func:`install` replaces the listed
functions and methods with timing wrappers in every loaded ``ifslab`` module
that refers to them, and the returned callable puts the originals back.  A
span is (name, parent span, start, end, points), all in one run; the run id
is stored once per recorder and written with the spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np


def _npoints(x, kind: str) -> int:
    size = np.asarray(x).size
    return size if kind == "circle" else size // 2


def _points_of_map(self, x, *args, **kwargs) -> int:
    return _npoints(x, self.kind)


def _points_of_domain(self, points, *args, **kwargs) -> int:
    return _npoints(points, self.kind)


def _points_of_gridset(self, points, *args, **kwargs) -> int:
    return _npoints(points, self.domain.kind)


def _points_of_region(region, points, *args, **kwargs) -> int:
    return _npoints(points, region.domain.kind)


# (module, qualified name, point counter or None): the layer boundaries the
# per-layer table reads, plus the parents that give their spans context.
TARGETS = (
    ("cli", "main", None),
    ("maps", "parse_system", None),
    ("maps", "AffineSimilarity.eval", _points_of_map),
    ("maps", "Perturbed.eval", _points_of_map),
    ("maps", "Perturbed.jacobian", _points_of_map),
    ("maps", "CircleNorthSouth.eval", _points_of_map),
    ("maps", "CircleRotation.eval", _points_of_map),
    ("geometry", "Domain.point_cells", _points_of_domain),
    ("geometry", "GridSet.lookup", _points_of_gridset),
    ("geometry", "rasterize_disk", None),
    ("geometry", "local_density", None),
    ("geometry", "density_points", None),
    ("geometry", "hausdorff_distance", None),
    ("geometry", "nearest_point_distances", _points_of_region),
    ("geometry", "diameter", None),
    ("geometry", "read_pgm", None),
    ("geometry", "write_pgm", None),
    ("geometry", "write_points_csv", None),
    ("construction", "build_construction", None),
    ("construction", "check_absorbing", None),
    ("construction", "hutchinson_step", None),
    ("construction", "attractor", None),
    ("analysis", "minimality_test", None),
    ("analysis", "holder_constant", None),
    ("analysis", "contraction_factor", None),
    ("analysis", "empirical_distortion", None),
    ("analysis", "distortion_report", None),
    ("analysis", "ergodicity_probe", None),
    ("circle", "rational_substitution_experiment", None),
    ("packing", "read_instance", None),
    ("packing", "write_instance", None),
    ("packing", "verify_conditions", None),
    ("packing", "contradiction_bound", None),
    ("packing", "greedy_pack", None),
)

SPAN_COLUMNS = ("name", "parent", "start_ns", "end_ns", "points")


class Recorder:
    """Spans of one run, appended in start order; parent -1 marks a root."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, counter):
        name_idx = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            points = counter(*args, **kwargs) if counter is not None else 0
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name_idx, parent, start, end, points)

        return traced

    def rows(self) -> list[tuple[str, int, int, int, int]]:
        """Spans as (name, parent, start_ns, end_ns, points) tuples."""
        return [(self.names[s[0]],) + tuple(s[1:]) for s in self.spans]

    def write(self, path) -> None:
        doc = {
            "run_id": self.run_id,
            "columns": list(SPAN_COLUMNS),
            "spans": [list(r) for r in self.rows()],
        }
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
            f.write("\n")


def install(recorder: Recorder):
    """Wrap every target; returns a callable that restores the originals."""
    modules = [m for n, m in list(sys.modules.items()) if n == "ifslab" or n.startswith("ifslab.")]
    undo = []
    for mod_name, qualname, counter in TARGETS:
        mod = importlib.import_module(f"ifslab.{mod_name}")
        name = f"{mod_name}.{qualname}"
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(mod, cls_name)
            orig = owner.__dict__[attr]
            setattr(owner, attr, recorder.wrap(orig, name, counter))
            undo.append((owner, attr, orig))
            continue
        orig = getattr(mod, qualname)
        traced = recorder.wrap(orig, name, counter)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, traced)
                    undo.append((m, key, orig))

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore


def self_times(rows) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    child_ns = [0] * len(rows)
    for _, parent, start, end, _ in rows:
        if parent >= 0:
            child_ns[parent] += end - start
    return [end - start - child_ns[i] for i, (_, _, start, end, _) in enumerate(rows)]


def layer_table(rows) -> dict[str, dict]:
    """Per span name: calls, points, inclusive seconds (outermost spans of
    that name only, so recursion is not counted twice) and self seconds."""
    selfs = self_times(rows)
    table: dict[str, dict] = {}
    for i, (name, parent, start, end, points) in enumerate(rows):
        entry = table.setdefault(name, {"calls": 0, "points": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["points"] += points
        entry["self_s"] += selfs[i] / 1e9
        p = parent
        while p >= 0 and rows[p][0] != name:
            p = rows[p][1]
        if p < 0:
            entry["s"] += (end - start) / 1e9
    return table


_MAP_EVALS = tuple(f"maps.{q}" for _, q, c in TARGETS if q.endswith(".eval"))


def orbit_yield(rows) -> float:
    """Orbit points kept over map points evaluated inside minimality_test.

    Kept points are the orbits handed to nearest_point_distances; evaluated
    points count outermost map evaluations only, so a perturbed map's call
    into its base map is not counted twice.
    """
    inside = [False] * len(rows)
    kept = evaluated = 0
    for i, (name, parent, _, _, points) in enumerate(rows):
        inside[i] = name == "analysis.minimality_test" or (parent >= 0 and inside[parent])
        if not inside[i]:
            continue
        if name == "geometry.nearest_point_distances":
            kept += points
        elif name in _MAP_EVALS and rows[parent][0] not in _MAP_EVALS:
            evaluated += points
    return kept / evaluated if evaluated else 0.0
