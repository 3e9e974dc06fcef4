"""Threshold sweeps over search areas and report assembly.

A case run opens each configured area once, classifies scar at every
threshold factor, solves the minimum-gap encircling path per factor, and
summarizes the gap fraction curve by its normalized area under the curve.
The path is a function of the opened area and its scar mask alone, so a
factor whose opened-area mask equals an earlier factor's reuses that
factor's path instead of solving it again; the report is unchanged. The
patch fields of an area's distinct masks are computed in one batched
transform, and each mask's fields stop above a bound on that mask's route
cost (`gaps.route_limits`): at or below it they are bit for bit those of
one whole transform per patch, which is all the route and its path read.
The route links of all its masks share one `PathCache`, so a link from a
vertex that an earlier link left from reads that link's transform where it
is exact.
Failures of one area (bad labels, unresolvable cuts, missing connectivity,
a solver that does not converge) are recorded and do not abort the
remaining areas.

Veins measured both independently and jointly with their ipsilateral
neighbor are combined conservatively: the final per-vein curve takes the
pointwise minimum of the two measurements and the summary is recomputed
from the combined curve.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import AreaError, ConfigError, TopologyError, is_real
from .gaps import EncirclingPath, build_graph, min_gap_path, route_limits
from .geodesics import FieldBatch, PathCache
from .mesh import SurfaceMesh, connected_components, save_mesh, write_atomic
from .regions import (OpenedArea, RegionConfig, build_search_area,
                      open_area, veins_of_joint)
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
    opened: OpenedArea | None
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
        area = build_search_area(mesh, spec)
        opened = open_area(area)
        sub_of_open = area.parent_vertex[opened.parent_vertex]
        keys = []
        subs = {}  # opened-area mask bytes -> the mask, first factor first
        for _factor, mask in masks:
            sub = mask[sub_of_open]
            keys.append(sub.tobytes())
            subs.setdefault(keys[-1], sub)
        labelings = [connected_components(opened.mesh, sub)
                     for sub in subs.values()]
        # the patch fields of every distinct mask run in one kernel call,
        # each stopped above its own mask's route cost
        batch = FieldBatch(opened.mesh,
                           [p for lab in labelings for p in lab.patches],
                           route_limits(opened, labelings))
        # route links from one vertex share their transforms across masks
        links = PathCache(opened.mesh)
        paths = {key: min_gap_path(build_graph(opened, sub, lab, batch),
                                   links)
                 for (key, sub), lab in zip(subs.items(), labelings)}
        results = [ThresholdResult(factor=factor, path=paths[key])
                   for (factor, _mask), key in zip(masks, keys)]
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
    keyed by canonical vein names; other area names pass through as-is."""
    by_name = {r.name: r for r in area_results if r.ok}
    curves = {}  # vein -> list of (area name, rgm tuple)

    def add(vein, res):
        curves.setdefault(vein, []).append(
            (res.name, tuple(t.path.rgm for t in res.results)))

    for res in area_results:
        if not res.ok:
            continue
        if res.strategy == "independent":
            add(res.name, res)
        else:
            veins = veins_of_joint(res.name)
            for v in (veins if veins else (res.name,)):
                add(v, res)
    # joint results already attached; make sure paired independents come
    # first in the source list for readability
    out = []
    for vein, entries in curves.items():
        entries = sorted(entries, key=lambda e: (by_name[e[0]].strategy, e[0]))
        merged = tuple(min(vals) for vals in zip(*(e[1] for e in entries)))
        out.append(VeinSummary(vein=vein, rgm=merged,
                               nauc=rgm_nauc(factors, merged),
                               sources=tuple(e[0] for e in entries)))
    return tuple(out)


def run_case(mesh: SurfaceMesh, config: RegionConfig, bp_mean: float,
             bp_sd: float, factors=THRESHOLD_FACTORS,
             ref_factor: float | None = None,
             strategy: str = "both") -> CaseResult:
    """Measure every configured area of one annotated mesh.

    Raises TopologyError if the mesh is not an edge-manifold, consistently
    oriented surface without zero-length edges.
    """
    mesh.check_topology()
    if mesh.intensity is None:
        raise ConfigError("mesh carries no intensity values")
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
    text = json.dumps(_round6(case_report(case)), indent=2, allow_nan=False)
    write_atomic(path, (text + "\n").encode("utf-8"))


def load_report(path) -> dict:
    """A gap report; the non-strict constants NaN and Infinity, which
    write_report never emits, are rejected."""
    def strict(name):
        raise ConfigError(f"{path}: {name} is not strict JSON")
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh, parse_constant=strict)
    if not isinstance(data, dict) or data.get("format") != REPORT_FORMAT:
        raise ConfigError(f"{path}: not a {REPORT_FORMAT} file")
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
        to_orig = res.opened.area.parent_vertex[res.opened.parent_vertex]
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
