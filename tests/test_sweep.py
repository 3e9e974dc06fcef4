"""Threshold sweeps, vein curve merging, reports, mesh annotation."""

import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from pvgap import geodesics, sweep
from pvgap.errors import ConfigError, TopologyError
from pvgap.gaps import build_graph, min_gap_path
from pvgap.mesh import SurfaceMesh, connected_components, load_mesh
from pvgap.regions import (AreaSpec, RegionConfig, build_search_area,
                           config_from_dict, config_to_dict)
from pvgap.scar import (THRESHOLD_FACTORS, ScalarVolume, mip_project,
                        threshold_mask)
from pvgap.sweep import (REPORT_FORMAT, AreaResult, CaseResult,
                         ThresholdResult, _round6, _vein_summaries,
                         annotated_mesh, case_report, load_report, rgm_nauc,
                         run_case, write_annotated_mesh, write_report)
from pvgap.synth import PhantomSpec, make_phantom, phantom_volume, plane_grid

FACTORS = tuple(THRESHOLD_FACTORS)


# --- normalized area under the curve ---

def test_nauc_worked_example():
    # hand trapezoid: (1.3*0.15 + 0.7*0.2 + 1*0.35 + 1*0.65) / 4
    got = rgm_nauc([2.0, 3.3, 4.0, 5.0, 6.0], [0.1, 0.2, 0.2, 0.5, 0.8])
    assert got == pytest.approx(0.33375, abs=1e-12)


def test_nauc_constant_curves_exact():
    for c in (0.0, 0.25, 1.0):
        assert rgm_nauc(FACTORS, [c] * len(FACTORS)) == c


def test_nauc_linear_curves():
    f = np.asarray(FACTORS)
    for a, b in ((0.1, 0.0), (-0.05, 0.9), (0.2, 0.05)):
        want = a * 0.5 * (f[0] + f[-1]) + b
        assert rgm_nauc(f, a * f + b) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("factors,values", [
    ([3.3], [0.1]),
    ([2.0, 3.3], [0.1]),
    ([3.3, 2.0], [0.1, 0.2]),
    ([2.0, 2.0], [0.1, 0.2]),
    ([[2.0, 3.3]], [[0.1, 0.2]]),
])
def test_nauc_validation(factors, values):
    with pytest.raises(ValueError):
        rgm_nauc(factors, values)


@pytest.mark.parametrize("factors,values,name", [
    ([2.0, 3.0], [0.1, math.nan], "values"),
    ([2.0, 3.0], [math.inf, 0.1], "values"),
    ([2.0, math.nan], [0.1, 0.2], "factors"),
])
def test_nauc_names_a_non_finite_input(factors, values, name):
    # a nan value once gave a nan area
    with pytest.raises(ValueError, match=name):
        rgm_nauc(factors, values)


# --- vein curve pairing ---

def _fake_area(name, strategy, rgms, error=None):
    results = tuple(ThresholdResult(factor=f, path=SimpleNamespace(rgm=r))
                    for f, r in zip((2.0, 3.3), rgms or ()))
    return AreaResult(name=name, strategy=strategy, labels=(1,),
                      opened=None, error=error, results=results,
                      nauc=None if error else 0.0)


def test_vein_summaries_pointwise_min():
    areas = (_fake_area("RSPV", "independent", (0.4, 0.6)),
             _fake_area("RightPVs", "joint", (0.5, 0.3)))
    out = {v.vein: v for v in _vein_summaries((2.0, 3.3), areas)}
    assert set(out) == {"RSPV", "RIPV"}
    assert out["RSPV"].rgm == (0.4, 0.3)
    assert out["RSPV"].sources == ("RSPV", "RightPVs")
    assert out["RSPV"].nauc == pytest.approx(0.35)
    # the joint area alone covers the vein with no independent twin
    assert out["RIPV"].rgm == (0.5, 0.3)
    assert out["RIPV"].sources == ("RightPVs",)


def test_vein_summaries_skip_failed_and_passthrough():
    areas = (_fake_area("LSPV", "independent", None, error="boom"),
             _fake_area("LIPV", "independent", (0.2, 0.2)),
             _fake_area("Custom", "joint", (0.9, 0.9)))
    out = {v.vein: v for v in _vein_summaries((2.0, 3.3), areas)}
    # failed area contributes nothing; non-canonical joint names pass through
    assert set(out) == {"LIPV", "Custom"}
    assert out["Custom"].sources == ("Custom",)


# --- full case sweeps ---

@pytest.fixture(scope="module")
def disk_case():
    spec = PhantomSpec(keep_fraction=0.5)
    mesh, config, truth = make_phantom(spec)
    case = run_case(mesh, config, spec.blood_pool_mean, spec.blood_pool_sd)
    return mesh, config, truth, case, spec


def test_run_case_structure(disk_case):
    mesh, _config, truth, case, _spec = disk_case
    assert case.mesh_name == mesh.name
    assert case.factors == FACTORS
    assert case.ref_factor == 3.3
    assert len(case.areas) == 1
    res = case.areas[0]
    assert res.ok and res.name == "LSPV"
    assert tuple(t.factor for t in res.results) == FACTORS
    curve = [t.path.rgm for t in res.results]
    assert res.nauc == rgm_nauc(FACTORS, curve)
    assert abs(curve[1] - truth.expected_rgm) < 0.1
    (vein,) = case.veins
    assert vein.vein == "LSPV" and vein.sources == ("LSPV",)
    assert vein.rgm == tuple(curve)


def test_run_case_checks_a_mesh_built_in_memory(disk_case):
    """A mesh built in memory carries no recorded check, so run_case checks
    it: a flipped triangle raises the orientation fault, also through a
    with_intensity copy, while a mesh that passed the check runs."""
    mesh, config, _truth, case, spec = disk_case
    flipped = mesh.triangles.copy()
    flipped[0] = flipped[0, ::-1]
    bad = SurfaceMesh(mesh.vertices, flipped, region=mesh.region)
    for candidate in (bad.with_intensity(mesh.intensity),
                      SurfaceMesh(mesh.vertices, flipped,
                                  intensity=mesh.intensity,
                                  region=mesh.region)):
        with pytest.raises(TopologyError, match="orientation"):
            run_case(candidate, config, spec.blood_pool_mean,
                     spec.blood_pool_sd)
    good = SurfaceMesh(mesh.vertices, mesh.triangles,
                       intensity=mesh.intensity, region=mesh.region,
                       name=mesh.name)
    good.check_topology()
    again = run_case(good, config, spec.blood_pool_mean, spec.blood_pool_sd)
    assert case_report(again) == case_report(case)


def test_run_case_validation(disk_case):
    mesh, config, _truth, _case, spec = disk_case
    mean, sd = spec.blood_pool_mean, spec.blood_pool_sd
    with pytest.raises(ConfigError):
        run_case(mesh, config, mean, sd, factors=(3.3,))
    with pytest.raises(ConfigError):
        run_case(mesh, config, mean, sd, factors=(4.0, 3.3))
    with pytest.raises(ConfigError):
        run_case(mesh, config, mean, sd, ref_factor=7.0)
    with pytest.raises(ConfigError):
        run_case(mesh, config, mean, sd, strategy="nonsense")
    with pytest.raises(ConfigError):
        run_case(mesh, config, mean, sd, strategy="joint")  # no joint areas
    with pytest.raises(ConfigError):
        run_case(plane_grid(4, 4), config, mean, sd)  # no intensity
    flipped = mesh.triangles.copy()
    flipped[0] = flipped[0, ::-1]
    with pytest.raises(TopologyError):
        run_case(SurfaceMesh(mesh.vertices, flipped, intensity=mesh.intensity,
                             region=mesh.region), config, mean, sd)
    for bad_mean, bad_sd in ((mean, math.nan), (mean, 0.0), (mean, -1.0),
                             (mean, math.inf), (math.nan, sd),
                             (-math.inf, sd)):
        with pytest.raises(ConfigError):
            run_case(mesh, config, bad_mean, bad_sd)
    for bad_factors in ((2.0, math.inf), (-math.inf, 2.0), (2.0, math.nan)):
        with pytest.raises(ConfigError):
            run_case(mesh, config, mean, sd, factors=bad_factors)


def test_run_case_refuses_bools_as_numbers(disk_case):
    # True once ran as SD 1.0 and as reference factor 1.0
    mesh, config, _truth, _case, spec = disk_case
    mean, sd = spec.blood_pool_mean, spec.blood_pool_sd
    with pytest.raises(ConfigError, match="bp_sd"):
        run_case(mesh, config, mean, True)
    with pytest.raises(ConfigError, match="bp_mean"):
        run_case(mesh, config, np.bool_(True), sd)
    with pytest.raises(ConfigError, match="ref_factor"):
        run_case(mesh, config, mean, sd, factors=(1.0, 2.0), ref_factor=True)


def test_factors_must_differ_at_report_precision(disk_case):
    """The report and the scar_<k> names keep 6 significant digits, so two
    factors that agree there would share a report value and an array."""
    mesh, config, _truth, _case, spec = disk_case
    assert sweep.check_factors([2, 3.3, 3.30001]) == (2.0, 3.3, 3.30001)
    for bad in ((2.0, 3.3, 3.3000001, 5.0), (1.0, 1.0000004)):
        with pytest.raises(ConfigError):
            sweep.check_factors(bad)
        with pytest.raises(ConfigError):
            run_case(mesh, config, spec.blood_pool_mean, spec.blood_pool_sd,
                     factors=bad)


def test_run_case_default_reference_without_33(disk_case):
    mesh, config, _truth, _case, spec = disk_case
    case = run_case(mesh, config, spec.blood_pool_mean, spec.blood_pool_sd,
                    factors=(2.0, 4.0))
    assert case.ref_factor == 2.0


def test_run_case_soft_area_failure(disk_case):
    mesh, _config, _truth, _case, spec = disk_case
    bad = AreaSpec(name="RIPV", labels=frozenset({25, 26}),
                   strategy="independent", cut_labels=(25, 26),
                   cut_vertices=None, vein_seeds=(0,))
    case = run_case(mesh, RegionConfig(areas=(bad,)),
                    spec.blood_pool_mean, spec.blood_pool_sd)
    res = case.areas[0]
    assert not res.ok
    assert res.error and res.results == ()
    assert case.veins == ()
    entry = case_report(case)["areas"]["RIPV"]
    assert entry["status"] == "failed"
    assert "error" in entry and "per_threshold" not in entry


def test_a_cut_that_skips_a_vertex_fails_its_area_only(disk_case):
    """A configured cut path with two consecutive vertices that share no
    edge fails its area at the cut; the annotated mesh marks only the
    other area's path."""
    mesh, config, _truth, _case, spec = disk_case
    area = build_search_area(mesh, config.areas[0])
    path = area.parent_vertex[np.asarray(area.cut_paths[0])].tolist()
    edges = {tuple(e) for e in np.sort(mesh.edges, axis=1).tolist()}
    i = next(i for i in range(1, len(path) - 1)
             if tuple(sorted(path[i - 1:i + 2:2])) not in edges)
    raw = config_to_dict(config)
    raw["areas"]["SKIP"] = {**raw["areas"]["LSPV"],
                            "cut": {"vertices": [path[:i] + path[i + 1:]]}}
    case = run_case(mesh, config_from_dict(raw), spec.blood_pool_mean,
                    spec.blood_pool_sd)
    good, bad = case.areas
    assert good.ok and not bad.ok
    a, b = (int(np.flatnonzero(area.parent_vertex == v)[0])
            for v in path[i - 1:i + 2:2])
    assert bad.error == (f"area SKIP: primary cut failed: cut path vertices "
                         f"{(a, b)} are not edge-connected")
    assert case_report(case)["areas"]["SKIP"]["status"] == "failed"
    marked = {k for k in annotated_mesh(mesh, case).point_data
              if k.startswith("path_")}
    assert marked == {"path_LSPV"}


# the keep-1 disk at 0.5 mm (a whole ring of scar); phantom_volume holds
# 105 x-columns, and a volume cut to fewer leaves some vertices unsampled
RING = PhantomSpec(keep_fraction=1.0, target_edge_mm=0.5)


def cropped_ring(columns):
    """(mesh without intensity, its volume cut to its first `columns`
    x-columns, config) of the RING phantom."""
    mesh, config, _truth = make_phantom(RING)
    bare = SurfaceMesh(mesh.vertices, mesh.triangles, region=mesh.region,
                       name=mesh.name)
    vol = phantom_volume(RING)
    cropped = ScalarVolume(values=vol.values[:, :, :columns],
                           spacing=vol.spacing, origin=vol.origin,
                           direction=vol.direction)
    return bare, cropped, config


def _ring_case(columns, unsampled):
    """The RING case measured through its volume cut to `columns`, which
    leaves the fraction `unsampled` of its vertices without a sample."""
    bare, cropped, config = cropped_ring(columns)
    intensity = mip_project(bare, cropped)
    assert np.isneginf(intensity).mean() == pytest.approx(unsampled,
                                                          abs=5e-4)
    case = run_case(bare.with_intensity(intensity), config,
                    RING.blood_pool_mean, RING.blood_pool_sd)
    (res,) = case.areas
    return res


def test_a_gap_over_unsampled_tissue_fails_its_area():
    # before this rule the area read status ok and RGM 0.299 at every
    # factor: its one gap, 23.51 mm, ran over 49 unsampled vertices of 54
    res = _ring_case(73, 0.299)
    assert not res.ok and res.results == ()
    assert res.error == ("a gap at factor 2 crosses 49 vertices with no "
                         "intensity sample")


def test_a_route_over_sampled_scar_keeps_its_area():
    # 15.3% of the vertices have no sample, but the route stays on sampled
    # scar, as the uncut volume's does
    res = _ring_case(84, 0.153)
    assert res.ok
    assert [t.path.rgm for t in res.results] == [0.0] * len(FACTORS)


# the keep-0.5 disk at 0.5 mm, whose label cut runs 12 mm in 0.5 mm steps
HOLED = PhantomSpec(keep_fraction=0.5, target_edge_mm=0.5, seed=3)
NOT_A_DISK = ("area LSPV: opened area is not a topological disk: V - E + F "
              "= 0, not 1 (a hole or handle that no cut opens)")


def holed_disk(mm):
    """(mesh, config) of the HOLED phantom with the triangle fan of its
    label cut's vertex `mm` from the vein rim removed, and an explicit cut
    from the next cut vertex to the rim: a cut from the hole to the vein."""
    mesh, config, _truth = make_phantom(HOLED)
    (spec,) = config.areas
    area = build_search_area(mesh, spec)
    cut = area.parent_vertex[np.asarray(area.cut_paths[0])]
    off = np.linalg.norm(mesh.vertices[cut] - mesh.vertices[cut[-1]], axis=1)
    (i,) = np.flatnonzero(off == mm)
    keep = ~(mesh.triangles == cut[i]).any(axis=1)
    holed = SurfaceMesh(mesh.vertices, mesh.triangles[keep],
                        intensity=mesh.intensity, region=mesh.region,
                        name=mesh.name)
    spec = dataclasses.replace(spec, cut_labels=None, cut_vertices=(
        tuple(int(v) for v in cut[i + 1:]),))
    return holed, RegionConfig(areas=(spec,))


@pytest.mark.parametrize("mm", [6.0, 3.0])
def test_a_cut_from_a_hole_fails_its_area(mm):
    """Before the disk check the area read status ok at every factor, with
    RGM 0.8914 on a 6.24 mm loop round the hole 6.0 mm from the rim, and
    RGM 0.0 on a 2.79 mm loop round the hole 3.0 mm from it, in the band.
    The cut joins the vein to a loop that is not a vein's, as the cut rule
    asks, but the opened area keeps the outer loop as a second one."""
    mesh, config = holed_disk(mm)
    (res,) = run_case(mesh, config, HOLED.blood_pool_mean,
                      HOLED.blood_pool_sd).areas
    assert not res.ok and res.results == ()
    assert res.error == NOT_A_DISK


def test_joint_case_covers_both_veins():
    spec = PhantomSpec(base_shape="two-hole-plate", keep_fraction=0.7)
    mesh, config, _ = make_phantom(spec)
    case = run_case(mesh, config, spec.blood_pool_mean, spec.blood_pool_sd,
                    factors=(2.0, 3.3, 4.0))
    res = case.areas[0]
    assert res.strategy == "joint" and res.name == "RightPVs"
    veins = {v.vein: v for v in case.veins}
    assert set(veins) == {"RSPV", "RIPV"}
    for v in veins.values():
        assert v.sources == ("RightPVs",)
        assert v.rgm == tuple(t.path.rgm for t in res.results)


@pytest.mark.parametrize("error", [RuntimeError, TopologyError])
def test_run_case_internal_error_fails_one_area(disk_case, monkeypatch,
                                                error):
    mesh, config, _truth, case, spec = disk_case
    (lspv,) = config.areas
    other = dataclasses.replace(lspv, name="LSPV_COPY")
    real = sweep.build_graph

    def flaky(opened, mask, patches, batch):
        if opened.mesh.name.endswith(":LSPV"):
            raise error("distance transform failed to converge")
        return real(opened, mask, patches, batch)

    monkeypatch.setattr(sweep, "build_graph", flaky)
    got = run_case(mesh, RegionConfig(areas=(lspv, other)),
                   spec.blood_pool_mean, spec.blood_pool_sd)
    bad, good = got.areas
    assert not bad.ok and "converge" in bad.error
    assert good.ok
    assert good.nauc == case.areas[0].nauc
    assert [v.vein for v in got.veins] == ["LSPV_COPY"]


# --- one solve per distinct opened-area mask ---

def _count_build_graph(monkeypatch):
    calls = []
    real = sweep.build_graph

    def counting(opened, mask, patches, batch):
        calls.append(mask.copy())
        return real(opened, mask, patches, batch)

    monkeypatch.setattr(sweep, "build_graph", counting)
    return calls


def _open_masks(res, mesh, spec, factors):
    """Each factor's scar mask on the area's opened mesh."""
    to_mesh = res.opened.parent_vertex
    return [threshold_mask(mesh.intensity, spec.blood_pool_mean,
                           spec.blood_pool_sd, k)[to_mesh]
            for k in factors]


def _assert_paths_match_fresh_solves(res, masks):
    for tr, mask in zip(res.results, masks):
        want = min_gap_path(build_graph(res.opened, mask))
        got = tr.path
        assert got.rgm == want.rgm
        assert got.gap_length == want.gap_length
        assert got.total_length == want.total_length
        assert got.gap_count == want.gap_count
        assert len(got.segment_ids) == len(want.segment_ids)
        for (kind, ids), (want_kind, want_ids) in zip(got.segment_ids,
                                                      want.segment_ids):
            assert kind == want_kind
            assert np.array_equal(ids, want_ids)


def _distinct(masks):
    return len({tuple(np.flatnonzero(m).tolist()) for m in masks})


def test_sweep_solves_each_distinct_mask_once(disk_case, monkeypatch):
    mesh, config, _truth, _case, spec = disk_case
    calls = _count_build_graph(monkeypatch)
    (res,) = run_case(mesh, config, spec.blood_pool_mean,
                      spec.blood_pool_sd).areas
    masks = _open_masks(res, mesh, spec, FACTORS)
    # the sharp phantom's scar sits above every factor: the masks repeat
    assert _distinct(masks) < len(FACTORS)
    assert len(calls) == _distinct(masks)
    _assert_paths_match_fresh_solves(res, masks)


@pytest.mark.parametrize("where", [0.0, 0.5, 1.0])
def test_sweep_tells_masks_apart_by_every_vertex(disk_case, monkeypatch,
                                                 where):
    # one opened-area vertex is scar at the lowest factor only, so that
    # factor's mask differs from the others in that vertex alone; it is
    # picked off the cut, where the opened mesh holds one copy of it
    mesh, config, _truth, case, spec = disk_case
    opened = case.areas[0].opened
    to_mesh = opened.parent_vertex
    single = np.flatnonzero(np.bincount(to_mesh)[to_mesh] == 1)
    vertex = to_mesh[single[int(where * (len(single) - 1))]]
    intensity = np.array(mesh.intensity)
    assert intensity[vertex] <= spec.blood_pool_mean + 2.0 * spec.blood_pool_sd
    intensity[vertex] = spec.blood_pool_mean + 3.0 * spec.blood_pool_sd
    bumped = SurfaceMesh(mesh.vertices, mesh.triangles, intensity=intensity,
                         region=mesh.region, name=mesh.name)
    calls = _count_build_graph(monkeypatch)
    (res,) = run_case(bumped, config, spec.blood_pool_mean,
                      spec.blood_pool_sd).areas
    masks = _open_masks(res, bumped, spec, FACTORS)
    assert _distinct(masks) == 2
    assert len(calls) == 2
    _assert_paths_match_fresh_solves(res, masks)


def test_tapered_sweep_solves_every_factor(monkeypatch):
    spec = PhantomSpec(keep_fraction=0.5, taper=(2.5, 8.0))
    mesh, config, _ = make_phantom(spec)
    calls = _count_build_graph(monkeypatch)
    (res,) = run_case(mesh, config, spec.blood_pool_mean,
                      spec.blood_pool_sd).areas
    masks = _open_masks(res, mesh, spec, FACTORS)
    assert _distinct(masks) == len(FACTORS)
    assert len(calls) == len(FACTORS)
    for call, mask in zip(calls, masks):
        assert np.array_equal(call, mask)
    _assert_paths_match_fresh_solves(res, masks)


def test_batched_graphs_equal_one_mask_graphs(monkeypatch):
    spec = PhantomSpec(keep_fraction=0.5, taper=(2.5, 8.0), patchiness=2)
    mesh, config, _ = make_phantom(spec)
    graphs = []
    real = sweep.build_graph

    def keeping(opened, mask, patches, batch):
        graphs.append(real(opened, mask, patches, batch))
        return graphs[-1]

    monkeypatch.setattr(sweep, "build_graph", keeping)
    (res,) = run_case(mesh, config, spec.blood_pool_mean,
                      spec.blood_pool_sd).areas
    assert len(graphs) == len(FACTORS)
    assert max(g.n_patches for g in graphs) >= 2
    for graph in graphs:
        want = build_graph(res.opened, graph.scar_mask)
        assert np.array_equal(graph.patches.labels, want.patches.labels)
        for name in ("weights", "start_w", "end_w"):
            assert (getattr(graph, name).tobytes()
                    == getattr(want, name).tobytes())


def test_route_links_share_transforms_across_masks(monkeypatch):
    # projected from its volume, a coarse sharp disk has graded scar
    # borders, so its masks differ by a few vertices and the routes of
    # several masks hold the same links, as on large-projected; the links
    # of every mask run in one point-to-point transform, with one field
    # per distinct link source
    spec = PhantomSpec(keep_fraction=0.5)
    mesh, config, _ = make_phantom(spec)
    mesh = SurfaceMesh(mesh.vertices, mesh.triangles,
                       intensity=mip_project(mesh, phantom_volume(spec)),
                       region=mesh.region, name=mesh.name)
    bounded = []
    real_sweep = geodesics._sweep

    def sweep_(mesh, srcs, targets=None, limit=None):
        if targets is not None:
            bounded.append({int(src[0]): set(map(int, dsts))
                            for src, dsts in zip(srcs, targets)})
        return real_sweep(mesh, srcs, targets, limit)

    monkeypatch.setattr(geodesics, "_sweep", sweep_)
    (res,) = run_case(mesh, config, spec.blood_pool_mean,
                      spec.blood_pool_sd).areas
    masks = _open_masks(res, mesh, spec, FACTORS)
    assert _distinct(masks) > 1
    # every mask has a patch, so no no-scar loop runs a transform
    assert all(tr.path.node_sequence for tr in res.results)
    links = {(int(ids[0]), int(ids[-1])) for tr in res.results
             for kind, ids in tr.path.segment_ids if kind == "link"}
    want = {}
    for src, dst in links:
        if src != dst:
            want.setdefault(src, set()).add(dst)
    assert len(links) >= 2
    assert bounded == [want]
    _assert_paths_match_fresh_solves(res, masks)


# --- report emission ---

def test_round6():
    assert _round6(0.123456789) == 0.123457
    assert _round6(1234567.0) == 1234570.0
    assert _round6(7) == 7 and isinstance(_round6(7), int)
    assert _round6(True) is True
    assert _round6({"a": (0.1000000001, "x")}) == {"a": [0.1, "x"]}


def test_case_report_schema(disk_case):
    _mesh, _config, _truth, case, spec = disk_case
    report = case_report(case)
    assert set(report) == {"format", "mesh_name", "thresholds",
                           "reference_threshold", "blood_pool", "areas",
                           "veins"}
    assert report["format"] == REPORT_FORMAT
    assert report["thresholds"] == list(FACTORS)
    assert report["reference_threshold"] == 3.3
    assert report["blood_pool"] == {"mean": spec.blood_pool_mean,
                                    "sd": spec.blood_pool_sd}
    entry = report["areas"]["LSPV"]
    assert set(entry) == {"strategy", "labels", "status", "per_threshold",
                          "rgm_nauc", "gap_count_mean", "gap_count_sd",
                          "gap_length_mm_mean", "gap_length_mm_sd"}
    per = entry["per_threshold"]
    assert [p["factor"] for p in per] == list(FACTORS)
    for p in per:
        assert set(p) == {"factor", "rgm", "gap_length_mm",
                          "total_length_mm", "gap_count", "gaps"}
        assert p["gap_count"] == len(p["gaps"])
        for g in p["gaps"]:
            assert set(g) == {"length_mm", "midpoint_region", "regions",
                              "wraps_seam"}
    counts = [p["gap_count"] for p in per]
    assert entry["gap_count_mean"] == pytest.approx(np.mean(counts))
    assert entry["gap_count_sd"] == pytest.approx(np.std(counts, ddof=1))
    vein = report["veins"]["LSPV"]
    assert vein["rgm"] == [p["rgm"] for p in per]
    assert vein["sources"] == ["LSPV"]


def test_write_and_load_report(disk_case, tmp_path):
    _mesh, _config, _truth, case, _spec = disk_case
    path = tmp_path / "report.json"
    write_report(case, path)
    on_disk = json.loads(path.read_text())
    assert on_disk == _round6(case_report(case))
    assert load_report(path) == on_disk
    (tmp_path / "other.json").write_text(json.dumps({"format": "nope"}))
    (tmp_path / "syntax.json").write_text('{"format": "gap-report 1",\n}')
    (tmp_path / "bytes.json").write_bytes(b'{"format": "\xff"}')
    for name in ("other.json", "syntax.json", "bytes.json"):
        with pytest.raises(ConfigError) as info:
            load_report(tmp_path / name)
        assert str(info.value).count(str(tmp_path / name)) == 1
    # reports are strict JSON: a NaN is refused before anything is written
    bad = CaseResult(mesh_name="m", factors=(2.0, 3.3), ref_factor=3.3,
                     bp_mean=100.0, bp_sd=math.nan, areas=(), veins=())
    with pytest.raises(ValueError):
        write_report(bad, tmp_path / "nan.json")
    assert not (tmp_path / "nan.json").exists()
    assert not (tmp_path / "nan.json.tmp").exists()


# --- annotation ---

def test_annotated_mesh_marks(disk_case):
    mesh, _config, _truth, case, spec = disk_case
    out = annotated_mesh(mesh, case)
    keys = set(out.point_data)
    assert {"scar_2", "scar_3.3", "scar_4", "scar_5", "scar_6",
            "patch_id", "path_LSPV"} <= keys
    ref_mask = threshold_mask(mesh.intensity, spec.blood_pool_mean,
                              spec.blood_pool_sd, 3.3)
    scar, _kind = out.point_data["scar_3.3"]
    assert np.array_equal(scar.astype(bool), ref_mask)
    patch, _kind = out.point_data["patch_id"]
    assert np.array_equal(patch >= 0, ref_mask)
    comp = connected_components(mesh, ref_mask)
    assert np.array_equal(patch, comp.labels)
    marks, _kind = out.point_data["path_LSPV"]
    assert set(np.unique(marks)) == {0, 1, 2}
    # gap marks trace the counted gap polylines back onto the source mesh
    ref = next(t for t in case.areas[0].results if t.factor == 3.3)
    n_gap_ids = len({int(v) for g in ref.path.gaps
                     for v in g.vertex_ids.tolist()})
    assert 0 < (marks == 2).sum() <= n_gap_ids


def test_annotated_mesh_round_trip(disk_case, tmp_path):
    mesh, _config, _truth, case, _spec = disk_case
    path = tmp_path / "annotated.vtk"
    write_annotated_mesh(mesh, case, path)
    back = load_mesh(path)
    for key, (arr, kind) in annotated_mesh(mesh, case).point_data.items():
        got, got_kind = back.point_data[key]
        assert got_kind == kind
        assert np.array_equal(got, arr)
