"""Patch fields stopped at their mask's route cost give the routes, paths
and reports of whole fields.

The oracle is the patch graph as it was built from whole fields: one lone
`distance_transform` per patch, every pair's `min_interset_distance` and
the whole rim rows, with no limit.
"""

import json

import numpy as np
import pytest

from pvgap import sweep
from pvgap.gaps import (GapGraph, _graph_arrays, _patch_rims, build_graph,
                        min_gap_path, patch_fields, route_limit,
                        solve_gap_graph)
from pvgap.geodesics import (LIMIT_CADENCE, FieldBatch, distance_transform,
                             min_interset_distance, trace_path)
from pvgap.mesh import SurfaceMesh, connected_components
from pvgap.regions import build_search_area, open_area
from pvgap.scar import THRESHOLD_FACTORS, mip_project, threshold_mask
from pvgap.sweep import case_report, run_case
from pvgap.synth import PhantomSpec, make_phantom, phantom_volume

PHANTOMS = {
    "disk": PhantomSpec(keep_fraction=0.75, patchiness=2),
    "disk-keep1": PhantomSpec(keep_fraction=1.0),
    "disk-keep0": PhantomSpec(keep_fraction=0.0),
    "dome": PhantomSpec(base_shape="dome-with-hole", keep_fraction=0.5,
                        patchiness=1),
    "plate": PhantomSpec(base_shape="two-hole-plate", keep_fraction=0.75,
                         patchiness=2),
    "tapered-patchy": PhantomSpec(keep_fraction=0.75, patchiness=4,
                                  taper=(2.5, 9.0)),
    "projected": PhantomSpec(keep_fraction=0.5),
}


def _phantom(name):
    spec = PHANTOMS[name]
    mesh, config, _truth = make_phantom(spec)
    if name == "projected":
        mesh = SurfaceMesh(mesh.vertices, mesh.triangles,
                           intensity=mip_project(mesh, phantom_volume(spec)),
                           region=mesh.region, name=mesh.name)
    return mesh, config, spec


def _whole_graph(opened, mask, patches=None, batch=None):
    """The unbounded patch graph, from lone whole transforms; it takes
    `build_graph`'s arguments as `sweep._run_area` passes them and ignores
    the labeling and the batch."""
    mesh = opened.mesh
    patches = connected_components(mesh, mask)
    fields = tuple(distance_transform(mesh, p) for p in patches.patches)
    n = patches.count
    weights = np.zeros((n, n))
    geometry = {}
    for i in range(n):
        for j in range(i + 1, n):
            isd = min_interset_distance(fields[i], fields[j])
            geometry[(i, j)] = isd
            weights[i, j] = weights[j, i] = isd.distance
    rim = [np.stack([f.dist[side] for f in fields]) if n
           else np.zeros((0, len(side)))
           for side in (opened.side_a, opened.side_b)]
    return GapGraph(opened=opened, scar_mask=mask, patches=patches,
                    fields=fields, weights=weights, geometry=geometry,
                    start_w=rim[0], end_w=rim[1], limit=np.inf)


def _graphs_and_case(monkeypatch, mesh, config, spec):
    graphs = []
    real = sweep.build_graph

    def keeping(opened, mask, patches, batch):
        graphs.append(real(opened, mask, patches, batch))
        return graphs[-1]

    monkeypatch.setattr(sweep, "build_graph", keeping)
    case = run_case(mesh, config, spec.blood_pool_mean, spec.blood_pool_sd)
    monkeypatch.setattr(sweep, "build_graph", real)
    return graphs, case


def _assert_same_path(got, want):
    for name in ("total_length", "gap_length", "rgm", "gap_count",
                 "non_gap_length", "node_sequence", "crossing_pair"):
        assert getattr(got, name) == getattr(want, name), name
    assert len(got.gaps) == len(want.gaps)
    for g, w in zip(got.gaps, want.gaps):
        assert g.length == w.length
        assert np.array_equal(g.vertex_ids, w.vertex_ids)
        assert g.points.tobytes() == w.points.tobytes()
        assert (g.midpoint_region, g.regions, g.wraps_seam) == (
            w.midpoint_region, w.regions, w.wraps_seam)
    assert len(got.segment_ids) == len(want.segment_ids)
    for (kind, ids), (want_kind, want_ids) in zip(got.segment_ids,
                                                  want.segment_ids):
        assert kind == want_kind
        assert np.array_equal(ids, want_ids)


@pytest.mark.parametrize("name", sorted(PHANTOMS))
def test_bounded_fields_give_the_whole_fields_paths(name, monkeypatch):
    mesh, config, spec = _phantom(name)
    graphs, case = _graphs_and_case(monkeypatch, mesh, config, spec)
    (res,) = case.areas
    assert res.ok
    opened = res.opened
    to_mesh = opened.parent_vertex
    by_mask = {g.scar_mask.tobytes(): g for g in graphs}
    for tr in res.results:
        mask = threshold_mask(mesh.intensity, spec.blood_pool_mean,
                              spec.blood_pool_sd, tr.factor)[to_mesh]
        graph = by_mask[mask.tobytes()]
        whole = _whole_graph(opened, mask)
        _assert_same_path(tr.path, min_gap_path(whole))
        # the graph is the whole one with every entry above its limit cut
        limit = route_limit(whole.weights, whole.start_w, whole.end_w)
        assert graph.limit == limit
        for attr in ("weights", "start_w", "end_w"):
            want = getattr(whole, attr).copy()
            want[want > limit] = np.inf
            assert getattr(graph, attr).tobytes() == want.tobytes(), attr
        assert sorted(graph.geometry) == [
            key for key in sorted(whole.geometry)
            if whole.weights[key] <= limit]
        if graph.n_patches:
            assert (solve_gap_graph(graph.weights, graph.start_w,
                                    graph.end_w)
                    == solve_gap_graph(whole.weights, whole.start_w,
                                       whole.end_w))
        # each batch row is the lone transform's at or below the limit; a
        # patch of several masks may come from a mask with a larger one
        for field, lone in zip(graph.fields, whole.fields):
            assert field.limit >= limit
            assert (np.minimum(field.dist, limit).tobytes()
                    == np.minimum(lone.dist, limit).tobytes())

    # the whole report, against one built from whole fields
    monkeypatch.setattr(sweep, "build_graph", _whole_graph)
    want = run_case(mesh, config, spec.blood_pool_mean, spec.blood_pool_sd)
    assert (json.dumps(case_report(case), allow_nan=False)
            == json.dumps(case_report(want), allow_nan=False))

    limits = [g.limit for g in graphs]
    if name == "disk-keep1":
        # the kept ring crosses the cut: C* = 0, so only sources are exact
        assert 0.0 in limits
    if name == "disk-keep0":
        assert all(g.n_patches == 0 for g in graphs)
        assert limits == [np.inf] * len(graphs)
    if name in ("tapered-patchy", "projected"):
        # not vacuous: fields stopped early
        assert any(not np.array_equal(
            f.dist, distance_transform(opened.mesh, f.sources).dist)
            for g in graphs for f in g.fields)
    if name == "tapered-patchy":
        # and pairs were cut
        assert any(len(g.geometry) < g.n_patches * (g.n_patches - 1) // 2
                   for g in graphs)


def _tapered_masks():
    mesh, config, spec = _phantom("tapered-patchy")
    opened = open_area(build_search_area(mesh, config.areas[0]))
    labelings = [connected_components(opened.mesh, threshold_mask(
        opened.mesh.intensity, spec.blood_pool_mean, spec.blood_pool_sd, k))
        for k in THRESHOLD_FACTORS[:3]]
    return opened, labelings


def test_a_masks_fields_are_the_same_batched_or_alone():
    opened, labelings = _tapered_masks()
    mesh = opened.mesh
    patches = [p for lab in labelings for p in lab.patches]
    held = [p.tobytes() for p in patches]
    batched = patch_fields(opened, labelings)
    shared = 0
    for lab in labelings:
        alone = patch_fields(opened, [lab])
        for p in lab.patches:
            got = distance_transform(mesh, p, batched)
            want = distance_transform(mesh, p, alone)
            assert np.isfinite(want.limit)
            if held.count(p.tobytes()) == 1:
                assert got.dist.tobytes() == want.dist.tobytes()
                assert (got.sweeps, got.limit) == (want.sweeps, want.limit)
                continue
            # a patch of several masks: the batch gives the field of the
            # mask with the largest limit, exact at or below this one's
            shared += 1
            assert got.limit >= want.limit
            assert (np.minimum(got.dist, want.limit).tobytes()
                    == np.minimum(want.dist, want.limit).tobytes())
    assert shared > 0


def test_limit_hook_runs_at_its_cadence_and_drops_only_above():
    opened, (lab, *_rest) = _tapered_masks()
    mesh = opened.mesh
    whole = [distance_transform(mesh, p) for p in lab.patches]
    bound = float(np.median(whole[0].dist))
    calls = []

    def limit(dist):
        calls.append(dist.shape)
        return np.full(len(dist), bound)

    batch = FieldBatch(mesh, lab.patches, limit)
    fields = [distance_transform(mesh, p, batch) for p in lab.patches]
    longest = max(f.sweeps for f in fields)
    # every LIMIT_CADENCE sweeps while any field runs, then once at the end
    assert len(calls) == longest // LIMIT_CADENCE + 1
    assert calls[0] == (lab.count, mesh.n_vertices)
    stopped = 0
    for field, lone in zip(fields, whole):
        assert field.limit == bound
        assert (np.minimum(field.dist, bound).tobytes()
                == np.minimum(lone.dist, bound).tobytes())
        stopped += not np.array_equal(field.dist, lone.dist)
        # an unfinished value is never traced
        above = np.flatnonzero(field.dist > bound)
        if above.size:
            with pytest.raises(ValueError, match="above the field's limit"):
                trace_path(field, int(above[0]))
        below = np.flatnonzero(lone.dist <= bound)
        v = int(below[np.argmax(lone.dist[below])])
        assert np.array_equal(trace_path(field, v).vertex_ids,
                              trace_path(lone, v).vertex_ids)
    assert stopped > 0


def test_a_whole_field_has_no_limit():
    opened, (lab, *_rest) = _tapered_masks()
    field = distance_transform(opened.mesh, lab.patches[0])
    assert field.limit == np.inf
    graph = build_graph(opened, np.zeros(opened.mesh.n_vertices, dtype=bool))
    assert graph.n_patches == 0 and graph.limit == np.inf


def test_a_mask_over_the_whole_area_has_no_rim_and_no_gap():
    """A patch whose vertices have no neighbour outside it takes all of
    them as its rim (`_patch_rims`); the hook still equals `route_limit` of each
    labeling's rows bit for bit, in a batch with a labeling of several
    patches, and an all-scar case reads RGM 0 at every factor."""
    opened, (lab, *_rest) = _tapered_masks()
    mesh = opened.mesh
    whole = connected_components(mesh, np.ones(mesh.n_vertices, dtype=bool))
    assert whole.count == 1
    assert _patch_rims(mesh, whole)[0].tobytes() == whole.patches[0].tobytes()
    want, rows = [], []
    for labeling in (whole, lab):
        part = np.stack([distance_transform(mesh, p).dist
                         for p in labeling.patches])
        limit = route_limit(*_graph_arrays(part, labeling.patches, opened))
        want += [limit] * labeling.count
        rows.append(part)
    hook = patch_fields(opened, [whole, lab])._limit
    assert hook(np.concatenate(rows)).tobytes() == np.array(want).tobytes()
    assert want[0] == 0.0 and 0.0 < want[1] < np.inf

    mesh, config, spec = _phantom("disk")
    scar = mesh.with_intensity(np.full(mesh.n_vertices, 1e6))
    (res,) = run_case(scar, config, spec.blood_pool_mean,
                      spec.blood_pool_sd).areas
    assert res.ok and [t.path.rgm for t in res.results] == [0.0] * len(
        THRESHOLD_FACTORS)
