"""The pvgap functions the traced run wraps, and the per-layer metrics
derived from their spans.

Callers bind most of these names at import (`from .gaps import
build_graph`), so each wrapper replaces the attribute of the module that
calls it, not the module that defines it.
"""

from __future__ import annotations

import hashlib
import inspect

import numpy as np

from tracer import Tracer, self_times

# span name -> per-layer metric of its summed self time
TIMED = {
    "mesh.load": "mesh.load_s",
    "mesh.save": "mesh.save_s",
    "mesh.components": "mesh.components_s",
    "mesh.cut": "mesh.cut_s",
    "mesh.boundary_loops": "mesh.boundary_loops_s",
    "scar.load_volume": "scar.load_volume_s",
    "scar.project": "scar.project_s",
    "regions.build_area": "regions.build_area_s",
    "regions.open": "regions.open_s",
    "geodesics.dt": "geodesics.dt_s",
    "geodesics.interset": "geodesics.interset_s",
    "geodesics.trace": "geodesics.trace_s",
    "gaps.build_graph": "gaps.build_graph_s",
    "gaps.min_gap_path": "gaps.min_gap_path_s",
    "gaps.solve": "gaps.solve_s",
    "sweep.run_case": "sweep.run_case_s",
    "sweep.write_report": "sweep.write_report_s",
    "sweep.annotate": "sweep.annotate_s",
    "cohort.load_reports": "cohort.load_reports_s",
    "cohort.aggregate": "cohort.aggregate_s",
    "cohort.write_csv": "cohort.write_csv_s",
}

# span name -> per-layer metric of its call count
CALLED = {
    "mesh.components": "mesh.components_calls",
    "geodesics.dt": "geodesics.dt_calls",
    "geodesics.interset": "geodesics.interset_calls",
    "geodesics.trace": "geodesics.trace_calls",
}

# (span name, counter) -> per-layer metric of the counter's sum
SUMMED = {
    ("mesh.load", "vertices"): "mesh.load_vertices",
    ("scar.project", "samples"): "scar.project_samples",
    ("regions.build_area", "vertices"): "regions.area_vertices",
    ("regions.open", "twin_pairs"): "regions.twin_pairs",
    ("geodesics.dt", "sources"): "geodesics.dt_sources",
    ("geodesics.dt", "vertices"): "geodesics.dt_vertex_work",
    ("gaps.build_graph", "patches"): "gaps.patches",
    ("gaps.solve", "pairs"): "gaps.dijkstra_runs",
}

SECONDS = [*TIMED.values(), "geodesics.dt_s_per_call"]
COUNTS = [*CALLED.values(), *SUMMED.values(),
          "geodesics.dt_calls.graph", "geodesics.dt_calls.path",
          "gaps.interset_used_ratio", "sweep.distinct_mask_ratio"]


def _vertices(args, kwargs, result):
    return {"vertices": result.n_vertices}


def _area_vertices(args, kwargs, result):
    return {"vertices": result.mesh.n_vertices}


def _twin_pairs(args, kwargs, result):
    return {"twin_pairs": len(result.side_a)}


def _dt(args, kwargs, result):
    return {"sources": int(result.sources.size),
            "vertices": result.mesh.n_vertices}


def _graph(args, kwargs, result):
    digest = hashlib.blake2b(np.packbits(result.scar_mask).tobytes(),
                             digest_size=16).hexdigest()
    return {"patches": result.n_patches, "geometries": len(result.geometry),
            "mask": (result.opened.mesh.name, digest)}


def _route(args, kwargs, result):
    return {"route_pairs": max(len(result.node_sequence) - 1, 0)}


def _solve(args, kwargs, result):
    start_w = kwargs["start_w"] if "start_w" in kwargs else args[1]
    return {"pairs": int(start_w.shape[1])}  # one Dijkstra per twin pair


def _project_counter(mip_project):
    sig = inspect.signature(mip_project)

    def counts(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        steps = 2 * int(round(bound.arguments["reach_mm"]
                              / bound.arguments["step_mm"])) + 1
        return {"samples": int(result.size) * steps}
    return counts


def replacements(tracer: Tracer):
    """(owner, attribute, wrapper) for every traced call site."""
    from pvgap import cli, cohort, gaps, geodesics, mesh, regions, scar, sweep

    table = [
        (cli, "load_mesh", "mesh.load", _vertices),
        (sweep, "save_mesh", "mesh.save", None),
        (gaps, "connected_components", "mesh.components", None),
        (regions, "connected_components", "mesh.components", None),
        (sweep, "connected_components", "mesh.components", None),
        (regions, "cut_mesh", "mesh.cut", None),
        (mesh.SurfaceMesh, "boundary_loops", "mesh.boundary_loops", None),
        (cli, "load_volume", "scar.load_volume", None),
        (cli, "mip_project", "scar.project",
         _project_counter(scar.mip_project)),
        (sweep, "build_search_area", "regions.build_area", _area_vertices),
        (sweep, "open_area", "regions.open", _twin_pairs),
        (gaps, "distance_transform", "geodesics.dt", _dt),
        (geodesics, "distance_transform", "geodesics.dt", _dt),
        (gaps, "min_interset_distance", "geodesics.interset", None),
        (gaps, "trace_path", "geodesics.trace", None),
        (geodesics, "trace_path", "geodesics.trace", None),
        (sweep, "build_graph", "gaps.build_graph", _graph),
        (sweep, "min_gap_path", "gaps.min_gap_path", _route),
        (gaps, "solve_gap_graph", "gaps.solve", _solve),
        (sweep, "run_case", "sweep.run_case", None),
        (sweep, "write_report", "sweep.write_report", None),
        (sweep, "write_annotated_mesh", "sweep.annotate", None),
        (sweep, "load_report", "cohort.load_reports", None),
        (cohort, "aggregate", "cohort.aggregate", None),
    ]
    table += [(cohort, attr, "cohort.write_csv", None)
              for attr in ("write_cohort_csv", "write_area_stats_csv",
                           "write_tests_csv", "write_histogram_csv",
                           "write_regional_csv")]
    return [(owner, attr, tracer.wrap(name, getattr(owner, attr), counts))
            for owner, attr, name, counts in table]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric name -> value for the spans of one traced pass."""
    spans = tracer.spans
    selfs = self_times(spans)
    out = {m: 0.0 for m in SECONDS}
    out.update({m: 0 for m in COUNTS})
    route_pairs = geometries = graph_calls = 0
    masks = set()
    for idx, (span, own) in enumerate(zip(spans, selfs)):
        name = span.name
        if name in TIMED:
            out[TIMED[name]] += own
        if name in CALLED:
            out[CALLED[name]] += 1
        for (sname, key), metric in SUMMED.items():
            if sname == name and key in span.counts:
                out[metric] += span.counts[key]
        if name == "geodesics.dt":
            for outer in tracer.ancestor_names(idx):
                if outer == "gaps.build_graph":
                    out["geodesics.dt_calls.graph"] += 1
                    break
                if outer == "gaps.min_gap_path":
                    out["geodesics.dt_calls.path"] += 1
                    break
        elif name == "gaps.build_graph" and span.counts:
            graph_calls += 1
            geometries += span.counts["geometries"]
            masks.add((span.case, span.counts["mask"]))
        elif name == "gaps.min_gap_path" and span.counts:
            route_pairs += span.counts["route_pairs"]
    out["geodesics.dt_s_per_call"] = _ratio(out["geodesics.dt_s"],
                                            out["geodesics.dt_calls"])
    out["gaps.interset_used_ratio"] = _ratio(route_pairs, geometries)
    out["sweep.distinct_mask_ratio"] = _ratio(len(masks), graph_calls)
    return out
