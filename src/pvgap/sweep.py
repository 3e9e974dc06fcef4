"""Threshold sweeps over search areas and report assembly.

A case run opens each configured area once, classifies scar at every
threshold factor, solves the minimum-gap encircling path per factor, and
summarizes the gap fraction curve by its normalized area under the curve.
The path is a function of the opened area and its scar mask alone, so a
factor whose opened-area mask equals an earlier factor's reuses that
factor's path instead of solving it again; the report is unchanged. The
patch fields of an area's distinct masks are computed in one batched
transform, and each mask's fields stop above a bound on that mask's route
cost (`gaps.patch_fields`): at or below it they are bit for bit those of
one whole transform per patch, which is all the route and its path read.
The routes of all its masks are then solved, and their links, which join
the pieces of each route into one loop, run in one more batched transform,
one field per distinct link source, each stopped by the same rule above
its farthest target's dist (`gaps.RouteBatch`); every link reads only
values that are exact.
Failures of one area (bad labels, unresolvable cuts, missing connectivity,
a solver that does not converge, a gap over a vertex with no intensity
sample) are recorded and do not abort the remaining areas.

Veins measured both independently and jointly with their ipsilateral
neighbor are combined conservatively: the final per-vein curve takes the
pointwise minimum of the two measurements and the summary is recomputed
from the combined curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AreaError, ConfigError, TopologyError, in_file, is_real
from .gaps import (EncirclingPath, RouteBatch, build_graph, min_gap_path,
                   patch_fields)
from .mesh import (CutMesh, SurfaceMesh, connected_components, read_json,
                   save_mesh, write_json)
from .regions import (RegionConfig, build_search_area, open_area,
                      veins_of_joint)
from .scar import THRESHOLD_FACTORS, threshold_mask

REPORT_FORMAT = "gap-report 1"


def rgm_nauc(factors, values) -> float:
    """Area under the gap-fraction curve over the factor range, normalized
    to [0, 1] by the range width (trapezoid rule)."""
    f = np.asarray(factors, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if f.ndim != 1 or f.shape != v.shape or len(f) < 2:
        raise ValueError("need matching factor/value arrays of length >= 2")
    for name, seq in (("factors", factors), ("values", values)):
        if not all(map(is_real, seq)):
            raise ValueError(f"{name} must be finite numbers")
    if not (np.diff(f) > 0).all():
        raise ValueError("threshold factors must be strictly ascending")
    # fsum keeps constant/linear curves exact at double precision
    steps = math.fsum((np.diff(f) * 0.5 * (v[1:] + v[:-1])).tolist())
    return steps / (f[-1] - f[0])


def check_factors(factors) -> tuple:
    """The factors as floats; ConfigError unless finite numbers, at least
    two and strictly ascending at the 6 significant digits a report keeps."""
    factors = tuple(factors)
    if not all(map(is_real, factors)):
        raise ConfigError("threshold factors must be finite numbers")
    factors = tuple(map(float, factors))
    shown = _round6(factors)
    if len(factors) < 2 or not all(a < b for a, b in zip(shown, shown[1:])):
        raise ConfigError("need at least 2 thresholds, strictly ascending "
                          "at 6 significant digits")
    return factors


def check_blood_pool(mean: float, sd: float) -> None:
    """ConfigError, naming the value, unless the blood-pool mean is a
    finite number and its SD a finite positive number."""
    for name, value in (("bp_mean", mean), ("bp_sd", sd)):
        if not is_real(value):
            raise ConfigError(f"blood pool {name} must be a finite number")
    if sd <= 0:
        raise ConfigError("blood pool bp_sd must be positive")


@dataclass(frozen=True)
class ThresholdResult:
    factor: float
    path: EncirclingPath


@dataclass(frozen=True)
class AreaResult:
    name: str
    strategy: str
    labels: tuple
    opened: CutMesh | None
    error: str | None
    results: tuple  # ThresholdResult per factor, factor-aligned
    nauc: float | None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class VeinSummary:
    """Final per-vein gap-fraction curve after combining strategies."""
    vein: str
    rgm: tuple  # factor-aligned, pointwise min over sources
    nauc: float
    sources: tuple  # contributing area names


@dataclass(frozen=True)
class CaseResult:
    mesh_name: str
    factors: tuple
    ref_factor: float
    bp_mean: float
    bp_sd: float
    areas: tuple  # AreaResult, config order
    veins: tuple  # VeinSummary, first-seen vein order


def _run_area(mesh, spec, masks):
    try:
        opened = open_area(build_search_area(mesh, spec))
        keys = []
        subs = {}  # opened-area mask bytes -> the mask, first factor first
        for _factor, mask in masks:
            sub = mask[opened.parent_vertex]
            keys.append(sub.tobytes())
            subs.setdefault(keys[-1], sub)
        labelings = [connected_components(opened.mesh, sub)
                     for sub in subs.values()]
        # the patch fields of every distinct mask run in one kernel call,
        # each stopped above its own mask's route cost
        batch = patch_fields(opened, labelings)
        graphs = [build_graph(opened, sub, lab, batch)
                  for sub, lab in zip(subs.values(), labelings)]
        # the route links of every distinct mask run in one kernel call
        routes = RouteBatch(graphs)
        paths = {key: min_gap_path(graph, routes)
                 for key, graph in zip(subs, graphs)}
        results = [ThresholdResult(factor=factor, path=paths[key])
                   for (factor, _mask), key in zip(masks, keys)]
        for r in results:
            for gap in r.path.gaps:
                unsampled = np.isneginf(
                    opened.mesh.intensity[gap.vertex_ids]).sum()
                if unsampled:
                    raise AreaError(f"a gap at factor {r.factor:g} crosses "
                                    f"{unsampled} vertices with no "
                                    "intensity sample")
        nauc = rgm_nauc([r.factor for r in results],
                        [r.path.rgm for r in results])
        return AreaResult(name=spec.name, strategy=spec.strategy,
                          labels=tuple(sorted(spec.labels)), opened=opened,
                          error=None, results=tuple(results), nauc=nauc)
    except (AreaError, TopologyError, RuntimeError) as exc:
        return AreaResult(name=spec.name, strategy=spec.strategy,
                          labels=tuple(sorted(spec.labels)), opened=None,
                          error=str(exc), results=(), nauc=None)


def _vein_summaries(factors, area_results) -> tuple:
    """Pointwise-minimum combination of independent and joint measurements,
    keyed by canonical vein names; other area names pass through as-is.
    Veins come in first-seen order, and each vein's sources by (strategy,
    name), which puts a paired independent area first."""
    groups = {}  # vein -> the ok area results that measure it
    for res in area_results:
        if res.ok:
            veins = veins_of_joint(res.name) if res.strategy == "joint" else ()
            for vein in veins or (res.name,):
                groups.setdefault(vein, []).append(res)
    out = []
    for vein, group in groups.items():
        group.sort(key=lambda r: (r.strategy, r.name))
        merged = tuple(map(min, zip(*([t.path.rgm for t in r.results]
                                      for r in group))))
        out.append(VeinSummary(vein=vein, rgm=merged,
                               nauc=rgm_nauc(factors, merged),
                               sources=tuple(r.name for r in group)))
    return tuple(out)


def check_intensity(values) -> None:
    """ConfigError unless some vertex has a finite intensity. A mesh that
    lies outside its volume projects every vertex to -inf, and would read
    as one whole-loop gap, not as a missing input."""
    if values is None:
        raise ConfigError("mesh carries no intensity values")
    if not np.isfinite(values).any():
        raise ConfigError("no vertex has a finite intensity; "
                          "does the mesh lie outside the volume?")


def run_case(mesh: SurfaceMesh, config: RegionConfig, bp_mean: float,
             bp_sd: float, factors=THRESHOLD_FACTORS,
             ref_factor: float | None = None,
             strategy: str = "both") -> CaseResult:
    """Measure every configured area of one annotated mesh.

    Raises TopologyError if the mesh is not an edge-manifold, consistently
    oriented surface without zero-length edges. A mesh that passed the
    check, as `load_mesh` checks it, carries its verdict and is not
    scanned again (`SurfaceMesh.check_topology`).
    """
    mesh.check_topology()
    check_intensity(mesh.intensity)
    check_blood_pool(bp_mean, bp_sd)
    factors = check_factors(factors)
    if ref_factor is None:
        ref_factor = 3.3 if 3.3 in factors else factors[0]
    elif not is_real(ref_factor):
        raise ConfigError("ref_factor must be a finite number")
    if ref_factor not in factors:
        raise ConfigError(f"reference factor {ref_factor} is not swept")
    if strategy not in ("independent", "joint", "both"):
        raise ConfigError("strategy must be independent, joint, or both")

    masks = [(k, threshold_mask(mesh.intensity, bp_mean, bp_sd, k))
             for k in factors]
    specs = [a for a in config.areas
             if strategy == "both" or a.strategy == strategy]
    if not specs:
        raise ConfigError(f"no area matches strategy {strategy!r}")

    area_results = tuple(_run_area(mesh, s, masks) for s in specs)

    return CaseResult(mesh_name=mesh.name, factors=factors,
                      ref_factor=float(ref_factor), bp_mean=float(bp_mean),
                      bp_sd=float(bp_sd), areas=area_results,
                      veins=_vein_summaries(factors, area_results))


# ----------------------------------------------------------------------
# report emission

def _round6(obj):
    """Round floats to 6 significant digits, recursively."""
    if isinstance(obj, float):
        return float(f"{obj:.6g}")
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    return obj


def case_report(case: CaseResult) -> dict:
    areas = {}
    for res in case.areas:
        entry = {"strategy": res.strategy, "labels": list(res.labels),
                 "status": "ok" if res.ok else "failed"}
        if not res.ok:
            entry["error"] = res.error
            areas[res.name] = entry
            continue
        per = []
        for tr in res.results:
            p = tr.path
            per.append({
                "factor": tr.factor,
                "rgm": p.rgm,
                "gap_length_mm": p.gap_length,
                "total_length_mm": p.total_length,
                "gap_count": p.gap_count,
                "gaps": [{"length_mm": g.length,
                          "midpoint_region": g.midpoint_region,
                          "regions": list(g.regions),
                          "wraps_seam": g.wraps_seam} for g in p.gaps],
            })
        counts = np.asarray([p["gap_count"] for p in per], dtype=np.float64)
        lens = np.asarray([p["gap_length_mm"] for p in per], dtype=np.float64)
        entry["per_threshold"] = per
        entry["rgm_nauc"] = res.nauc
        # summary across thresholds, sample standard deviation
        entry["gap_count_mean"] = float(counts.mean())
        entry["gap_count_sd"] = float(counts.std(ddof=1))
        entry["gap_length_mm_mean"] = float(lens.mean())
        entry["gap_length_mm_sd"] = float(lens.std(ddof=1))
        areas[res.name] = entry
    veins = {v.vein: {"rgm": list(v.rgm), "rgm_nauc": v.nauc,
                      "sources": list(v.sources)}
             for v in case.veins}
    return {
        "format": REPORT_FORMAT,
        "mesh_name": case.mesh_name,
        "thresholds": list(case.factors),
        "reference_threshold": case.ref_factor,
        "blood_pool": {"mean": case.bp_mean, "sd": case.bp_sd},
        "areas": areas,
        "veins": veins,
    }


def write_report(case: CaseResult, path) -> None:
    write_json(path, _round6(case_report(case)))


def load_report(path) -> dict:
    """A gap report. A file `read_json` refuses, or JSON that is not a
    report, raises ConfigError naming the file; an unreadable file raises
    its OSError."""
    with in_file(path):
        data = read_json(path)
        if not isinstance(data, dict) or data.get("format") != REPORT_FORMAT:
            raise ConfigError(f"not a {REPORT_FORMAT} file")
    return data


def annotated_mesh(mesh: SurfaceMesh, case: CaseResult) -> SurfaceMesh:
    """Copy of the mesh with scar masks, patch ids, and path marks.

    scar_<k>: 0/1 scar classification per swept factor. patch_id: connected
    scar patches of the whole mesh at the reference factor (-1 healthy).
    path_<AREA>: 0 off path, 1 on the encircling path, 2 on a gap (gap wins),
    at the reference factor.
    """
    pd = dict(mesh.point_data)
    ref_mask = None
    for k in case.factors:
        mask = threshold_mask(mesh.intensity, case.bp_mean, case.bp_sd, k)
        pd[f"scar_{k:g}"] = (mask.astype(np.int64), "int")
        if k == case.ref_factor:
            ref_mask = mask
    comp = connected_components(mesh, ref_mask)
    pd["patch_id"] = (comp.labels, "int")
    for res in case.areas:
        if not res.ok:
            continue
        to_orig = res.opened.parent_vertex
        marks = np.zeros(mesh.n_vertices, dtype=np.int64)
        ref = next(t for t in res.results if t.factor == case.ref_factor)
        for _kind, ids in ref.path.segment_ids:
            marks[to_orig[ids]] = 1
        for gap in ref.path.gaps:
            marks[to_orig[gap.vertex_ids]] = 2
        pd[f"path_{res.name}"] = (marks, "int")
    return SurfaceMesh(vertices=mesh.vertices, triangles=mesh.triangles,
                       intensity=mesh.intensity, region=mesh.region,
                       name=mesh.name, point_data=pd)


def write_annotated_mesh(mesh: SurfaceMesh, case: CaseResult, path) -> None:
    save_mesh(annotated_mesh(mesh, case), path)
