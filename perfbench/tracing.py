"""Per-layer spans for the traced run.

Each public function listed in TRACED is wrapped under every name it is
looked up by: the attribute of its own module, re-exports such as
`toricover.intersection_number`, and imports by name such as
`chow.solve_region_vertices`.  A wrapper records one span per call; a span's
self time is its duration minus the time its child spans cover.  Aggregates
are kept exactly, raw spans up to SPAN_CAP, and both are written when the run
ends.  With tracing off nothing is installed.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

TRACED = {
    "linalg": ("det", "solve", "solve_unique", "rank", "nullspace_vector"),
    "polytope": ("from_halfspaces", "solve_region_vertices", "perturb",
                 "generic_normals_check", "construct_standard"),
    "chow": ("intersection_number", "polytope_of_divisor", "volume",
             "is_nef_certified", "presentation", "avoidance_certificate"),
    "covering": ("connected_components", "complement_points", "multiplicity",
                 "palais_coloring", "lebesgue_witness", "kkm_witness",
                 "complement_witness", "axes_witness", "kkm_lebesgue_witness",
                 "facet_touch_set"),
    "harness": ("random_low_multiplicity_cover", "random_small_set_family",
                "dilated_partition_cover", "shifted_brick_cover", "lattice_sample",
                "polytope_sample_cover"),
    "jsonio": ("cover_from_json", "cover_to_json", "point_cover_from_json",
               "polytope_from_json", "report_to_json"),
    "cli": ("main",),
}

COUNTS = (
    # name, unit, better; each is reported per traced item
    ("polytope.solve_region_vertices.subsets", "count/item", "lower"),
    ("polytope.solve_region_vertices.vertices", "count/item", "lower"),
    ("polytope.perturb.attempts", "count/item", "lower"),
    ("harness.lattice_sample.points_scanned", "count/item", "lower"),
    ("harness.lattice_sample.points_kept", "count/item", "lower"),
    ("covering.connected_components.points", "count/item", "lower"),
    ("cli.bytes_in", "bytes/item", "lower"),
    ("cli.bytes_out", "bytes/item", "lower"),
)

RATIOS = (
    # name, numerator count, base count
    ("polytope.solve_region_vertices.vertices_per_subset",
     "polytope.solve_region_vertices.vertices", "polytope.solve_region_vertices.subsets"),
    ("polytope.perturb.attempts_per_call",
     "polytope.perturb.attempts", "polytope.perturb.calls"),
    ("harness.lattice_sample.kept_per_scanned",
     "harness.lattice_sample.points_kept", "harness.lattice_sample.points_scanned"),
)

SPAN_CAP = 100_000


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for module, names in TRACED.items():
        for fn in names:
            specs.append((f"{module}.{fn}.calls", "calls/item", "lower"))
            specs.append((f"{module}.{fn}.self_ms", "ref_ms/item", "lower"))
    specs.extend(COUNTS)
    specs.extend((name, "ratio", "higher" if name.endswith(("subset", "scanned")) else "lower")
                 for name, _, _ in RATIOS)
    specs.append(("trace.overhead_ms", "ref_ms/item", "lower"))
    specs.append(("trace.overhead_pct", "%", "lower"))
    specs.append(("trace.spans", "spans/item", "lower"))
    return specs


def _scanned(p, resolution):
    """Grid points in the bounding box lattice_sample scans."""
    total = 1
    for i in range(p.dim):
        lo = min(v.coords[i] for v in p.vertices)
        hi = max(v.coords[i] for v in p.vertices)
        total *= max(0, math.floor(hi * resolution) - math.ceil(lo * resolution) + 1)
    return total


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{f}" for m, fns in TRACED.items() for f in fns]
        index = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.pending = [0.0] * len(self.names)
        self.self_ref = [0.0] * len(self.names)
        self.counts = {name: 0 for name, _, _ in COUNTS}
        self.stack = []
        self.spans = []
        self.span_total = 0
        self.item = -1
        self.installed = []
        self._perturb = index["polytope.perturb"]
        self._attempt = index["polytope.from_halfspaces"]

    # -- installation

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "toricover" or name.startswith("toricover.")]
        for qual in self.names:
            module_name, fn_name = qual.split(".")
            original = getattr(sys.modules["toricover." + module_name], fn_name)
            wrapper = self._wrap(self.names.index(qual), original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self.installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self.installed):
            setattr(module, attr, original)
        self.installed = []

    def _wrap(self, idx, fn):
        name = self.names[idx]
        stack, calls, pending = self.stack, self.calls, self.pending

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                pending[idx] += dur - frame[1]
                calls[idx] += 1
                if stack:
                    stack[-1][1] += dur
                if idx == self._attempt and parent == self._perturb:
                    self.counts["polytope.perturb.attempts"] += 1
                self.span_total += 1
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((idx, parent, self.item, start, end))
            self._count(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, args, result):
        """Counts read off a finished call's arguments and result."""
        counts = self.counts
        if name == "polytope.solve_region_vertices":
            normals = args[0]
            counts[name + ".subsets"] += math.comb(len(normals), len(normals[0]))
            counts[name + ".vertices"] += len(result)
        elif name == "harness.lattice_sample":
            counts[name + ".points_scanned"] += _scanned(*args[:2])
            counts[name + ".points_kept"] += len(result)
        elif name == "covering.connected_components":
            counts[name + ".points"] += len(args[0])

    def count(self, name, amount):
        self.counts[name] += amount

    def flush(self, ref_factor):
        """Move the raw self times gathered since the last call into
        reference time, with the factor of the group they belong to."""
        for i, raw in enumerate(self.pending):
            if raw:
                self.self_ref[i] += raw * ref_factor
                self.pending[i] = 0.0

    # -- results

    def metrics(self, items, traced_ref_s, untraced_ref_s):
        per = 1.0 / items
        out = {}
        totals = {}
        for i, name in enumerate(self.names):
            totals[name + ".calls"] = self.calls[i]
            out[name + ".calls"] = self.calls[i] * per
            out[name + ".self_ms"] = self.self_ref[i] * 1000 * per
        for name, _, _ in COUNTS:
            totals[name] = self.counts[name]
            out[name] = self.counts[name] * per
        for name, num, base in RATIOS:
            out[name] = totals[num] / totals[base] if totals[base] else 0.0
        out["trace.overhead_ms"] = (traced_ref_s - untraced_ref_s) * 1000 * per
        out["trace.overhead_pct"] = 100 * (traced_ref_s - untraced_ref_s) / untraced_ref_s
        out["trace.spans"] = self.span_total * per
        return out

    def write(self, path, header):
        """Spans as [function, parent function, item, start_us, dur_us]."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0][3] if self.spans else 0.0
        data = {
            **header,
            "functions": self.names,
            "spans_recorded": len(self.spans),
            "spans_dropped": self.span_total - len(self.spans),
            "spans": [
                [i, p, item, round((s - t0) * 1e6, 1), round((e - s) * 1e6, 1)]
                for i, p, item, s, e in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))
