"""Patch graph construction, routing, and encircling path assembly."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from pvgap.errors import AreaError, TopologyError
from pvgap.gaps import (RouteBatch, _links, build_graph, min_gap_path,
                        solve_gap_graph)
from pvgap.geodesics import (FieldBatch, distance_transform, geodesic_path,
                             trace_path)
from pvgap.mesh import SurfaceMesh, connected_components
from pvgap.regions import build_search_area, open_area
from pvgap.scar import threshold_mask
from pvgap.sweep import run_case
from pvgap.synth import TWO_PI, PhantomSpec, make_phantom, plane_grid


def _opened_with_mask(spec, factor=3.3):
    mesh, config, truth = make_phantom(spec)
    area = build_search_area(mesh, config.areas[0])
    opened = open_area(area)
    mask = threshold_mask(opened.mesh.intensity, spec.blood_pool_mean,
                          spec.blood_pool_sd, factor)
    return opened, mask, truth


# --- pure graph solve ---

def _enumerate_best(weights, start_w, end_w):
    """Reference solve: try every simple patch sequence, every twin pair.

    Costs accumulate left to right, matching the incremental solver, so
    agreement can be asserted with exact float equality.
    """
    n = weights.shape[0]
    best = None
    for k in range(start_w.shape[1]):
        for r in range(1, n + 1):
            for seq in itertools.permutations(range(n), r):
                cost = float(start_w[seq[0], k])
                if not math.isfinite(cost):
                    continue
                feasible = True
                for a, b in zip(seq, seq[1:]):
                    w = float(weights[a, b])
                    if not math.isfinite(w):
                        feasible = False
                        break
                    cost = cost + w
                if not feasible:
                    continue
                tail = float(end_w[seq[-1], k])
                if not math.isfinite(tail):
                    continue
                cand = (cost + tail, k, seq)
                if best is None or cand < best:
                    best = cand
    return best


def _random_instance(rng, n, n_pairs, p_inf):
    w = rng.uniform(0.5, 8.0, size=(n, n))
    w = np.triu(w, 1)
    w = w + w.T
    drop = np.triu(rng.random((n, n)) < p_inf, 1)
    w[drop | drop.T] = np.inf
    start = rng.uniform(0.1, 6.0, size=(n, n_pairs))
    end = rng.uniform(0.1, 6.0, size=(n, n_pairs))
    start[rng.random(start.shape) < p_inf] = np.inf
    end[rng.random(end.shape) < p_inf] = np.inf
    return w, start, end


def test_solver_matches_enumeration():
    rng = np.random.default_rng(42)
    solved = 0
    for trial in range(40):
        n = int(rng.integers(1, 7))
        n_pairs = int(rng.integers(1, 5))
        w, start, end = _random_instance(rng, n, n_pairs,
                                         p_inf=float(rng.uniform(0.0, 0.5)))
        want = _enumerate_best(w, start, end)
        if want is None:
            with pytest.raises(AreaError):
                solve_gap_graph(w, start, end)
            continue
        got = solve_gap_graph(w, start, end)
        assert got[0] == want[0]  # exact: identical accumulation order
        assert got[1] == want[1]
        assert got[2] == want[2]
        solved += 1
    assert solved >= 30


def test_solver_all_unreachable():
    w = np.zeros((2, 2))
    start = np.full((2, 1), np.inf)
    end = np.full((2, 1), np.inf)
    with pytest.raises(AreaError):
        solve_gap_graph(w, start, end)


def test_solver_tie_prefers_smaller_pair_then_sequence():
    # one patch, two identical twin pairs: pair 0 wins
    w = np.zeros((1, 1))
    start = np.array([[1.0, 1.0]])
    end = np.array([[2.0, 2.0]])
    assert solve_gap_graph(w, start, end) == (3.0, 0, (0,))
    # two patches give equal-cost single-hop routes: sequence (0,) wins
    w = np.full((2, 2), np.inf)
    np.fill_diagonal(w, 0.0)
    start = np.array([[1.0], [1.0]])
    end = np.array([[2.0], [2.0]])
    assert solve_gap_graph(w, start, end) == (3.0, 0, (0,))
    # costlier pair 0 loses to pair 1
    w = np.zeros((1, 1))
    start = np.array([[5.0, 1.0]])
    end = np.array([[5.0, 1.0]])
    assert solve_gap_graph(w, start, end) == (2.0, 1, (0,))


def test_solver_skips_a_route_whose_cost_overflows():
    # a pair whose only route sums to +inf has no route, as when each
    # pair was searched alone
    w = np.zeros((1, 1))
    start = np.array([[1e308, 4.0]])
    end = np.array([[1e308, 5.0]])
    assert solve_gap_graph(w, start, end) == (9.0, 1, (0,))
    with pytest.raises(AreaError):
        solve_gap_graph(w, start[:, :1], end[:, :1])


# --- graph construction on an opened area ---

def test_build_graph_structure():
    spec = PhantomSpec(keep_fraction=0.75, patchiness=2, seed=3)
    opened, mask, _ = _opened_with_mask(spec)
    graph = build_graph(opened, mask)
    n = graph.n_patches
    assert n >= 2
    assert graph.weights.shape == (n, n)
    assert np.allclose(np.diag(graph.weights), 0.0)
    assert np.array_equal(graph.weights, graph.weights.T)
    n_pairs = len(opened.side_a)
    assert graph.start_w.shape == (n, n_pairs)
    assert graph.end_w.shape == (n, n_pairs)
    for (i, j), isd in graph.geometry.items():
        assert i < j
        assert graph.weights[i, j] == isd.distance
        # stored polyline starts on patch i and ends on patch j
        assert graph.patches.labels[isd.path.vertex_ids[0]] == i
        assert graph.patches.labels[isd.path.vertex_ids[-1]] == j
    # start weights vanish exactly on patches containing a side_a vertex
    for k, v in enumerate(opened.side_a):
        lab = graph.patches.labels[v]
        if lab >= 0:
            assert graph.start_w[lab, k] == 0.0


def test_build_graph_rejects_bad_mask():
    opened, mask, _ = _opened_with_mask(PhantomSpec(keep_fraction=0.5))
    with pytest.raises(ValueError):
        build_graph(opened, mask[:-1])


def test_build_graph_takes_a_labeling_and_a_batch_of_several_masks():
    spec = PhantomSpec(keep_fraction=0.75, patchiness=2, seed=3)
    opened, mask, _ = _opened_with_mask(spec)
    mesh = opened.mesh
    labeling = connected_components(mesh, mask)
    assert labeling.count >= 2
    # another mask: one scar vertex fewer, and its patches
    other = mask.copy()
    other[labeling.patches[-1][0]] = False
    other_labeling = connected_components(mesh, other)
    batch = FieldBatch(mesh, [*labeling.patches, *other_labeling.patches])
    for m, lab in ((mask, labeling), (other, other_labeling)):
        graph = build_graph(opened, m, lab, batch)
        want = build_graph(opened, m)
        assert graph.patches is lab
        for name in ("weights", "start_w", "end_w"):
            assert (getattr(graph, name).tobytes()
                    == getattr(want, name).tobytes())
    # an equal but distinct mesh is still another mesh
    twin = SurfaceMesh(mesh.vertices, mesh.triangles)
    with pytest.raises(ValueError, match="another mesh"):
        build_graph(opened, mask, labeling,
                    FieldBatch(twin, labeling.patches))
    # a batch of another mask's patches lacks one of this mask's
    with pytest.raises(ValueError, match="not in the field batch"):
        build_graph(opened, mask, labeling,
                    FieldBatch(mesh, other_labeling.patches))
    # a labeling of another mask
    with pytest.raises(ValueError, match="label the scar mask"):
        build_graph(opened, other, labeling, batch)
    with pytest.raises(ValueError, match="label the scar mask"):
        build_graph(opened, mask, other_labeling)


# --- assembled encircling paths ---

def _assert_same_route(got, want):
    assert got.rgm == want.rgm and got.total_length == want.total_length
    assert got.node_sequence == want.node_sequence
    assert got.crossing_pair == want.crossing_pair
    assert len(got.segment_ids) == len(want.segment_ids)
    for (kind, ids), (want_kind, want_ids) in zip(got.segment_ids,
                                                  want.segment_ids):
        assert kind == want_kind and np.array_equal(ids, want_ids)


def test_route_batch_assembles_each_graph_like_a_lone_route():
    spec = PhantomSpec(keep_fraction=0.75, patchiness=2, seed=3)
    opened, mask, _ = _opened_with_mask(spec)
    other = mask.copy()
    other[connected_components(opened.mesh, mask).patches[-1][0]] = False
    graphs = [build_graph(opened, m)
              for m in (mask, other, np.zeros_like(mask))]
    routes = RouteBatch(graphs)
    for graph in graphs:
        _assert_same_route(min_gap_path(graph, routes), min_gap_path(graph))
    # a graph without patches is a route of the batch like any other
    _assert_same_route(routes.path(graphs[2]), min_gap_path(graphs[2]))
    # a graph outside the batch is not its route
    with pytest.raises(ValueError, match="not a route of the batch"):
        min_gap_path(build_graph(opened, mask), routes)
    # an equal but distinct opened mesh is another mesh
    twin, twin_mask, _ = _opened_with_mask(spec)
    with pytest.raises(ValueError, match="different meshes"):
        RouteBatch([graphs[0], build_graph(twin, twin_mask)])


def test_single_gap_phantom_geometry():
    spec = PhantomSpec(keep_fraction=0.5)
    opened, mask, truth = _opened_with_mask(spec)
    path = min_gap_path(build_graph(opened, mask))
    assert path.gap_count == 1
    # the cut runs through the kept arc, splitting it into two patches;
    # the one counted gap is the inter-patch hop across the removed arc
    assert len(path.node_sequence) == 2
    # closure identity between the reported ratio and its parts
    assert path.gap_length == pytest.approx(path.rgm * path.total_length,
                                            rel=1e-12)
    assert path.total_length == pytest.approx(
        path.gap_length + path.non_gap_length, rel=1e-12)
    assert abs(path.rgm - truth.expected_rgm) < 0.1
    # removed arc is centered on angle zero: sectors 1 and 4
    gap = path.gaps[0]
    assert gap.midpoint_region in (1, 4)
    assert not gap.wraps_seam
    assert gap.length == pytest.approx(path.gap_length, rel=1e-12)
    # crossing sits on scar (kept arc holds the seam): stubs have zero
    # length and are no gaps
    assert bool(mask[path.crossing_pair[0]])


def test_healthy_crossing_merges_stubs_across_seam():
    # removed arc centered on the seam angle pi: the crossing is healthy
    spec = PhantomSpec(removed_intervals=((0.5 * math.pi, math.pi),))
    opened, mask, _ = _opened_with_mask(spec)
    path = min_gap_path(build_graph(opened, mask))
    assert not bool(mask[path.crossing_pair[0]])
    assert path.gap_count == 1
    gap = path.gaps[0]
    assert gap.wraps_seam
    # the merged wrap gap spans both sides of the seam
    assert 2 in gap.regions and 3 in gap.regions
    assert gap.length == pytest.approx(path.gap_length, rel=1e-12)


def test_no_scar_loop_matches_per_pair_brute_force():
    # the loop's batch guesses the last twin pair (the vein end of a label
    # cut); the reversed cut makes that the outer end, so that other pairs
    # must be tried and the winner is not the guess
    disk = PhantomSpec(keep_fraction=0.0)
    dome = PhantomSpec(base_shape="dome-with-hole", keep_fraction=0.0)
    mesh, config, _ = make_phantom(disk)
    area = build_search_area(mesh, config.areas[0])
    cut = area.parent_vertex[np.asarray(area.cut_paths[0])][::-1]
    reversed_cut = dataclasses.replace(
        config.areas[0], cut_labels=None,
        cut_vertices=(tuple(int(v) for v in cut),))
    guessed = []
    for spec, area_spec in ((disk, None), (dome, None),
                            (disk, reversed_cut)):
        mesh, config, _ = make_phantom(spec)
        opened = open_area(build_search_area(
            mesh, area_spec or config.areas[0]))
        mask = np.zeros(opened.mesh.n_vertices, dtype=bool)
        path = min_gap_path(build_graph(opened, mask))
        assert path.rgm == 1.0
        assert path.gap_count == 1
        assert path.non_gap_length == 0.0
        assert path.gaps[0].wraps_seam
        best = None
        for k in range(len(opened.side_a)):
            field = distance_transform(opened.mesh, [int(opened.side_a[k])])
            d = float(field.dist[opened.side_b[k]])
            if math.isfinite(d) and (best is None or (d, k) < best):
                best = (d, k)
        a, b = int(opened.side_a[best[1]]), int(opened.side_b[best[1]])
        assert path.crossing_pair == (a, b)
        loop = geodesic_path(opened.mesh, a, b)
        assert loop.distance == best[0]
        assert path.segment_ids[-1][1].tolist() == \
            loop.path.vertex_ids.tolist()
        assert path.total_length == pytest.approx(best[0], rel=1e-9)
        guessed.append(best[1] == len(opened.side_a) - 1)
    assert not all(guessed)


def test_route_links_match_whole_mesh_traces():
    # each link is stopped at its target; its polyline and length must be
    # those traced from the whole-mesh transform of its source
    spec = PhantomSpec(keep_fraction=0.6, patchiness=3, seed=5)
    opened, mask, _ = _opened_with_mask(spec)
    path = min_gap_path(build_graph(opened, mask))
    links = [ids for kind, ids in path.segment_ids if kind == "link"]
    assert len(links) >= 3
    non_gap = 0.0
    for ids in links:
        field = distance_transform(opened.mesh, [int(ids[0])])
        ref = trace_path(field, int(ids[-1]))
        assert ids.tolist() == ref.vertex_ids[::-1].tolist()
        non_gap += ref.length
    assert path.non_gap_length == non_gap


def test_link_to_an_unreachable_vertex_raises():
    grid = plane_grid(4, 4)
    mesh = SurfaceMesh(
        np.concatenate([grid.vertices, grid.vertices + [9.0, 0.0, 0.0]]),
        np.concatenate([grid.triangles, grid.triangles + 16]))
    with pytest.raises(TopologyError,
                       match="^vertex 20 is unreachable from the sources$"):
        _links(mesh, [(3, 4), (3, 20)])
    (point,) = _links(mesh, [(3, 3)])
    assert point.vertex_ids.tolist() == [3] and point.length == 0.0
    assert np.array_equal(point.points, mesh.vertices[[3]])


@pytest.mark.parametrize("spec, scar_crossing", [
    (PhantomSpec(keep_fraction=0.6, patchiness=3, seed=5), None),
    (PhantomSpec(keep_fraction=0.75, patchiness=4, taper=(2.5, 9.0)), None),
    (PhantomSpec(base_shape="two-hole-plate", keep_fraction=0.75,
                 patchiness=2), None),
    (PhantomSpec(keep_fraction=0.5), True),
    (PhantomSpec(removed_intervals=((0.5 * math.pi, math.pi),)), False),
    (PhantomSpec(keep_fraction=0.0), False),
], ids=["patchy", "tapered", "plate", "scar-crossing", "healthy-crossing",
        "no-patch"])
def test_encircling_path_is_one_connected_loop(spec, scar_crossing):
    mesh, config, _ = make_phantom(spec)
    opened = open_area(build_search_area(mesh, config.areas[0]))
    for factor in (2.0, 3.3, 5.0):
        mask = threshold_mask(opened.mesh.intensity, spec.blood_pool_mean,
                              spec.blood_pool_sd, factor)
        graph = build_graph(opened, mask)
        path = min_gap_path(graph)
        kinds = [kind for kind, _ids in path.segment_ids]
        seq = path.node_sequence
        assert kinds == (["stub"] + ["link", "gap"] * (len(seq) - 1)
                         + ["link", "stub"])
        # each gap leaves the patch it follows for the next one
        gaps = [ids for kind, ids in path.segment_ids if kind == "gap"]
        for ids, a, b in zip(gaps, seq, seq[1:]):
            assert graph.patches.labels[ids[[0, -1]]].tolist() == [a, b]
        if scar_crossing is not None:
            assert bool(mask[path.crossing_pair[0]]) == scar_crossing
        pieces = [ids.tolist() for _kind, ids in path.segment_ids]
        assert pieces[0][0] == path.crossing_pair[0]
        assert pieces[-1][-1] == path.crossing_pair[1]
        for prev, nxt in zip(pieces, pieces[1:]):
            assert nxt[0] == prev[-1]
        assert path.gap_length + path.non_gap_length == pytest.approx(
            path.total_length, rel=1e-12)


def test_full_scar_ring_has_no_gaps():
    spec = PhantomSpec(keep_fraction=1.0)
    opened, mask, _ = _opened_with_mask(spec)
    path = min_gap_path(build_graph(opened, mask))
    assert path.gap_count == 0
    assert path.gaps == ()
    assert path.rgm == pytest.approx(0.0, abs=1e-12)
    assert path.gap_length == 0.0


def test_patchy_phantom_counts_and_ratio():
    spec = PhantomSpec(keep_fraction=0.6, patchiness=3, seed=5)
    opened, mask, truth = _opened_with_mask(spec)
    path = min_gap_path(build_graph(opened, mask))
    # lumping short arcs is allowed, splitting is not
    assert 1 <= path.gap_count <= truth.designed_gap_count
    assert abs(path.rgm - truth.expected_rgm) < 0.12
    assert sum(g.length for g in path.gaps) == pytest.approx(
        path.gap_length, rel=1e-12)
    assert sum(g.length for g in path.gaps) <= path.gap_length + 1e-9
    # interior gap polylines realize the inter-patch weights they route
    graph = build_graph(opened, mask)
    _cost, _k, seq = solve_gap_graph(graph.weights, graph.start_w,
                                     graph.end_w)
    for a, b in zip(seq, seq[1:]):
        lo, hi = (a, b) if a < b else (b, a)
        isd = graph.geometry[(lo, hi)]
        # traced vertex polylines can only overshoot the field distance
        assert isd.distance - 1e-9 <= isd.path.length <= 1.1 * isd.distance


# the keep-0.5, patchiness-2, seed-3 disk at 0.5 mm lists gaps of 1.153,
# 43.396 and 1.173 mm at every default factor, with RGM 0.5812
METRES_SPEC = PhantomSpec(keep_fraction=0.5, patchiness=2, seed=3,
                          target_edge_mm=0.5)
METRES_GAPS = (1.153e-3, 43.396e-3, 1.173e-3)


def in_metres(mesh):
    """The mesh with its coordinates in metres rather than mm."""
    return SurfaceMesh(1e-3 * mesh.vertices, mesh.triangles,
                       intensity=mesh.intensity, region=mesh.region,
                       name=mesh.name)


def test_a_mesh_in_metres_lists_every_gap():
    # a floor of 0.1 mesh units on a gap's length listed none of the three
    # in metres, while the gap length and RGM still held them
    mesh, config, _truth = make_phantom(METRES_SPEC)
    case = run_case(in_metres(mesh), config, METRES_SPEC.blood_pool_mean,
                    METRES_SPEC.blood_pool_sd)
    (res,) = case.areas
    assert [t.factor for t in res.results] == [2.0, 3.3, 4.0, 5.0, 6.0]
    for tr in res.results:
        path = tr.path
        assert path.gap_count == 3
        assert [g.length for g in path.gaps] == pytest.approx(
            METRES_GAPS, abs=5e-7)
        assert path.rgm == pytest.approx(0.5812, abs=5e-5)
        assert sum(g.length for g in path.gaps) == pytest.approx(
            path.gap_length, rel=1e-12)


def test_graph_nesting_raises_ratio_with_threshold():
    spec = PhantomSpec(keep_fraction=0.5, taper=(2.5, 8.0))
    opened, _mask, _ = _opened_with_mask(spec)
    prev = -1.0
    for factor in (2.0, 3.3, 4.0, 5.0, 6.0):
        mask = threshold_mask(opened.mesh.intensity, spec.blood_pool_mean,
                              spec.blood_pool_sd, factor)
        path = min_gap_path(build_graph(opened, mask))
        assert path.rgm >= prev - 1e-12
        prev = path.rgm


@pytest.fixture(scope="module")
def planted():
    """The keep-0 disk at 0.5 mm edge with six scar vertices near its outer
    boundary, off the area's shortest encircling loop, and that loop."""
    spec = PhantomSpec(keep_fraction=0.0, target_edge_mm=0.5)
    mesh, config, _truth = make_phantom(spec)
    v = mesh.vertices
    outer = max(mesh.boundary_loops(),
                key=lambda loop: np.hypot(*v[loop, :2].T).mean())
    near = np.min(np.linalg.norm(v[:, None] - v[outer][None], axis=2), axis=1)
    angle = np.arctan2(v[:, 1], v[:, 0])
    planted = np.flatnonzero(~mesh.boundary_vertex_mask & (near <= 1.2)
                             & (np.abs(angle) < 0.05))
    intensity = mesh.intensity.copy()
    intensity[planted] = 1000.0
    case = run_case(mesh.with_intensity(intensity), config,
                    spec.blood_pool_mean, spec.blood_pool_sd)
    (res,) = case.areas
    opened = res.opened
    loop = min_gap_path(build_graph(opened,
                                    np.zeros(opened.mesh.n_vertices, bool)))
    return planted, res, loop


def test_planted_case_holds_six_scar_vertices_off_the_loop(planted):
    vertices, res, loop = planted
    assert len(vertices) == 6 and res.ok
    assert loop.rgm == 1.0 and loop.gap_length == pytest.approx(64.25,
                                                                abs=0.01)
    to_parent = res.opened.parent_vertex
    (gap,) = loop.gaps
    assert not set(vertices) & set(to_parent[gap.vertex_ids])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1")
def test_no_route_reports_more_gap_than_the_scar_free_loop(planted):
    # the solve has no direct rim-to-rim edge, so the route detours through
    # the planted patch: node sequence (0,), gap 85.37 mm, RGM 0.983
    _vertices, res, loop = planted
    for tr in res.results:
        assert tr.path.gap_length <= loop.gap_length, tr.factor
