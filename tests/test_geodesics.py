"""Surface distance fields: triangle-update accuracy, tracing, set-to-set
queries.

The first-order front propagation is exact on edges it relaxes, so every
field value is sandwiched between the true geodesic distance and the
edge-only shortest path. Accuracy probes follow the contract points: sphere
pole-to-pole and grid corner-to-corner within 2%. Near-source values carry
the scheme's inherent front-curvature error and are not asserted tightly.
"""

import math

import numpy as np
import pytest
from scipy.sparse import csgraph

from pvgap import geodesics
from pvgap.errors import TopologyError
from pvgap.geodesics import (_corner_tables, _proposals, _sweep,
                             DistanceField, FieldBatch, distance_transform,
                             geodesic_path, min_interset_distance, trace_path)
from pvgap.mesh import SurfaceMesh, connected_components
from pvgap.regions import build_search_area, open_area
from pvgap.scar import threshold_mask
from pvgap.synth import PhantomSpec, icosphere, make_phantom, plane_grid


def _edge_dijkstra(mesh, sources):
    """Edge-walk upper bound on the surface distance."""
    dist = csgraph.dijkstra(mesh.adjacency, indices=list(sources))
    return dist.min(axis=0)


def _reference_pred(field):
    """The steepest-descent rule evaluated for every vertex at once: a lexsort
    of all directed edges by head, then dist[tail] + |edge|, then tail.
    pred[v] is the chosen lower neighbour, -1 where none is lower."""
    mesh, dist = field.mesh, field.dist
    e, w = mesh.edges, mesh.edge_lengths
    tails = np.concatenate([e[:, 0], e[:, 1]])
    heads = np.concatenate([e[:, 1], e[:, 0]])
    ww = np.concatenate([w, w])
    ok = np.isfinite(dist[tails]) & (dist[tails] < dist[heads])
    tails, heads, ww = tails[ok], heads[ok], ww[ok]
    order = np.lexsort((tails, dist[tails] + ww, heads))
    heads_s = heads[order]
    first = np.ones(len(heads_s), dtype=bool)
    first[1:] = heads_s[1:] != heads_s[:-1]
    pred = np.full(mesh.n_vertices, -1, dtype=np.int64)
    pred[heads_s[first]] = tails[order][first]
    return pred


def _jittered_grid():
    rng = np.random.default_rng(4)
    grid = plane_grid(19, 14, spacing=1.0)
    # jittered vertices give obtuse corners, where edge relaxations take over
    jitter = rng.uniform(-0.3, 0.3, size=grid.vertices.shape) * [1, 1, 0]
    return grid, SurfaceMesh(grid.vertices + jitter, grid.triangles)


def _reference_transform(mesh, sources):
    """(dist, widest) of the kernel's update written out plainly: every sweep
    evaluates every corner of every triangle with the previous sweep's
    values, until a sweep lowers nothing. widest is the largest spread of
    the values one sweep lowered.

    The kernel expands only the pending vertices within its bucket width
    (tab["delta"]) of the lowest one, so wherever widest exceeds that width
    its schedule and sweep count differ from these. Both schedules stop at a
    fixed point of the same update; that they reach the same bits is what
    the test below checks, case by case, as the bench replay did."""
    t = mesh.triangles
    p = mesh.vertices[t]
    corners = []
    for r in range(3):
        c, a, b = r, (r + 1) % 3, (r + 2) % 3
        ea = p[:, a] - p[:, c]
        eb = p[:, b] - p[:, c]
        la = np.linalg.norm(ea, axis=1)
        lb = np.linalg.norm(eb, axis=1)
        cos = np.clip(np.einsum("ij,ij->i", ea, eb) / (la * lb), -1, 1)
        corners.append((t[:, c], t[:, a], t[:, b], la, lb, cos,
                        1.0 - cos * cos, np.einsum("ij,ij->i", ea - eb,
                                                   ea - eb)))
    dist = np.full(mesh.n_vertices, np.inf)
    dist[sources] = 0.0
    widest = 0.0
    while True:
        best = dist.copy()
        for C, A, B, la, lb, cos, sin2, csq in corners:
            dA, dB = dist[A], dist[B]
            np.minimum.at(best, C, dA + la)
            np.minimum.at(best, C, dB + lb)
            sw = dB < dA
            lo, hi = np.where(sw, dB, dA), np.where(sw, dA, dB)
            near, far = np.where(sw, lb, la), np.where(sw, la, lb)
            with np.errstate(invalid="ignore", divide="ignore"):
                u = hi - lo
                Bq = 2.0 * near * u * (far * cos - near)
                Cq = near * near * (u * u - far * far * sin2)
                disc = Bq * Bq - 4.0 * csq * Cq
                ok = disc >= 0.0
                tt = (-Bq + np.sqrt(np.where(ok, disc, 0.0))) / (2.0 * csq)
                valid = (ok & np.isfinite(dA) & np.isfinite(dB) & (u < tt)
                         & (far * cos * tt < near * (tt - u))
                         & np.where(cos > 0.0,
                                    near * (tt - u) * cos < far * tt,
                                    cos == 0.0))
            np.minimum.at(best, C[valid], lo[valid] + tt[valid])
        lowered = best[best < dist]
        if not lowered.size:
            return dist, widest
        widest = max(widest, lowered.max() - lowered.min())
        dist = best


def _tapered_patchy_sources():
    """Opened search area of a small tapered, patchy disk phantom and the
    source sets of its whole-mesh transforms at factor 3.3: the cut rim of
    the no-scar loop, then every scar patch."""
    spec = PhantomSpec(target_edge_mm=0.5, keep_fraction=0.75, patchiness=4,
                       taper=(2.5, 9.0))
    mesh, config, _truth = make_phantom(spec)
    area = build_search_area(mesh, config.areas[0])
    opened = open_area(area)
    mask = threshold_mask(mesh.intensity, spec.blood_pool_mean,
                          spec.blood_pool_sd, 3.3)
    mask = mask[area.parent_vertex[opened.parent_vertex]]
    patches = connected_components(opened.mesh, mask).patches
    return opened.mesh, [opened.side_a, *patches]


def _two_grids():
    """Two 5x5 plane grids side by side, not connected: vertices 0-24 and
    25-49."""
    grid = plane_grid(5, 5)
    return SurfaceMesh(
        np.concatenate([grid.vertices, grid.vertices + [10.0, 0.0, 0.0]]),
        np.concatenate([grid.triangles, grid.triangles + grid.n_vertices]))


@pytest.fixture(scope="module")
def sphere5_field():
    mesh = icosphere(subdivisions=5, radius=25.0)
    north = int(np.argmax(mesh.vertices[:, 2]))
    return mesh, north, distance_transform(mesh, [north])


def test_sphere_pole_to_pole_within_2_percent(sphere5_field):
    mesh, north, field = sphere5_field
    south = int(np.argmin(mesh.vertices[:, 2]))
    true = math.pi * 25.0
    assert abs(field.dist[south] - true) / true < 0.02


def test_sphere_far_field_envelope(sphere5_field):
    # relative error decays away from the source; beyond 20 mm it stays
    # under the 2% contract (near-source values are inherently worse)
    mesh, north, field = sphere5_field
    p = mesh.vertices / 25.0
    ang = np.arccos(np.clip(p @ p[north], -1.0, 1.0))
    true = 25.0 * ang
    far = true > 20.0
    rel = np.abs(field.dist[far] - true[far]) / true[far]
    assert rel.max() < 0.02


def test_plane_corner_to_corner_within_2_percent():
    n = 61
    mesh = plane_grid(n, n, spacing=1.0)
    corners = [0, n - 1, n * n - n, n * n - 1]
    diag = math.hypot(n - 1.0, n - 1.0)
    # both diagonals: one aligned with the triangulation, one adverse
    for a, b in ((0, 3), (1, 2)):
        field = distance_transform(mesh, [corners[a]])
        err = abs(field.dist[corners[b]] - diag) / diag
        assert err < 0.02


def test_plane_beats_edge_walk():
    # the triangle update must cut across faces; edge walks overestimate
    # the adverse diagonal by ~41% on a right-triangulated grid
    n = 61
    mesh = plane_grid(n, n, spacing=1.0)
    src, dst = n - 1, n * n - n  # adverse diagonal
    field = distance_transform(mesh, [src])
    edge = _edge_dijkstra(mesh, [src])
    true = math.hypot(n - 1.0, n - 1.0)
    assert abs(field.dist[dst] - true) / true < 0.02
    assert edge[dst] / true > 1.3


def test_sandwich_bounds_random_sources():
    # dist is never below the straight-line bound nor above the edge walk,
    # and tracing a path yields a length >= the field value
    rng = np.random.default_rng(21)
    mesh = icosphere(subdivisions=3, radius=10.0)
    for _ in range(10):
        src = int(rng.integers(0, mesh.n_vertices))
        field = distance_transform(mesh, [src])
        edge = _edge_dijkstra(mesh, [src])
        assert np.all(field.dist <= edge + 1e-9)
        chord = np.linalg.norm(mesh.vertices - mesh.vertices[src], axis=1)
        assert np.all(field.dist >= chord - 1e-9)
        dst = int(rng.integers(0, mesh.n_vertices))
        tp = trace_path(field, dst)
        assert tp.length >= field.dist[dst] - 1e-9
        assert tp.vertex_ids[0] == dst and tp.vertex_ids[-1] == src


def test_sources_and_validation():
    mesh = plane_grid(5, 5)
    field = distance_transform(mesh, [3, 7, 7])
    assert field.dist[3] == 0.0 and field.dist[7] == 0.0
    assert np.all(np.isfinite(field.dist))
    with pytest.raises(TopologyError):
        distance_transform(mesh, [])
    with pytest.raises(TopologyError):
        distance_transform(mesh, [999])
    # a scar mask or float ids would silently become other vertices
    mask = np.zeros(mesh.n_vertices, dtype=bool)
    mask[[3, 7]] = True
    for bad in (mask, [1.7, 3.2], np.array([3.0])):
        with pytest.raises(ValueError):
            distance_transform(mesh, bad)
    assert np.array_equal(distance_transform(mesh, np.uint8([7, 3])).sources,
                          [3, 7])


def test_trace_path_descends_monotonically():
    mesh = plane_grid(9, 9)
    field = distance_transform(mesh, [0])
    tp = trace_path(field, 80)
    d = field.dist[tp.vertex_ids]
    assert np.all(np.diff(d) < 0)
    assert d[-1] == 0.0
    # polyline length equals sum of segment norms
    seg = np.diff(tp.points, axis=0)
    assert tp.length == pytest.approx(np.linalg.norm(seg, axis=1).sum())


def test_trace_path_rejects_out_of_range_start():
    mesh = plane_grid(5, 5)
    field = distance_transform(mesh, [0])
    for start in (-1, mesh.n_vertices, 10**9):
        with pytest.raises(TopologyError, match="out of range"):
            trace_path(field, start)
    for start in (6.9, np.float64(6.0), True):
        with pytest.raises(ValueError):
            trace_path(field, start)
    assert trace_path(field, np.int32(6)).vertex_ids[0] == 6


@pytest.mark.parametrize("case", ["sphere-one-source", "jittered-boundary"])
def test_trace_path_follows_the_reference_chain(case):
    # every vertex's trace is the chain of the all-edges reference rule,
    # tie-break included: on the sphere dozens of vertices have two equally
    # low neighbours
    if case == "sphere-one-source":
        mesh, sources = icosphere(subdivisions=3, radius=10.0), [5]
    else:
        mesh = _jittered_grid()[1]
        sources = np.flatnonzero(mesh.boundary_vertex_mask)
    field = distance_transform(mesh, sources)
    pred = _reference_pred(field)
    for v in range(mesh.n_vertices):
        chain = [v]
        while pred[chain[-1]] >= 0:
            chain.append(int(pred[chain[-1]]))
        tp = trace_path(field, v)
        assert tp.vertex_ids.tolist() == chain
        assert field.dist[chain[-1]] == 0.0


def test_min_interset_distance_symmetric_and_oriented():
    mesh = plane_grid(12, 8)
    set_a = [0, 1, 2]
    set_b = [93, 94, 95]
    f_a = distance_transform(mesh, set_a)
    f_b = distance_transform(mesh, set_b)
    r_ab = min_interset_distance(f_a, f_b)
    r_ba = min_interset_distance(f_b, f_a)
    assert r_ab.distance == pytest.approx(r_ba.distance, rel=1e-12)
    # the path is oriented from the first argument's side
    assert r_ab.endpoint_a in set_a and r_ab.endpoint_b in set_b
    assert r_ab.path.vertex_ids[0] == r_ab.endpoint_a
    assert r_ab.path.vertex_ids[-1] == r_ab.endpoint_b


def test_min_interset_distance_rejects_mismatched_fields():
    # an equal but distinct mesh is still another mesh
    mesh = icosphere(subdivisions=2, radius=5.0)
    other = icosphere(subdivisions=2, radius=5.0)
    fa = distance_transform(mesh, [0])
    with pytest.raises(ValueError, match="same mesh"):
        min_interset_distance(fa, distance_transform(other, [11]))
    assert min_interset_distance(
        fa, distance_transform(mesh, [11])).endpoint_b == 11


def test_matches_the_whole_mesh_reference_bit_for_bit():
    # the phantom's fields are the classes where a wider bucket drifted by
    # an ulp: multi-source scar patches and a 25-vertex rim
    grid, jittered = _jittered_grid()
    cases = [(icosphere(subdivisions=3, radius=10.0), [5]),
             (grid, [0, 100, 265]),
             (jittered, [7]),
             (jittered, np.flatnonzero(jittered.boundary_vertex_mask))]
    opened, source_sets = _tapered_patchy_sources()
    assert len(source_sets[0]) >= 20 and len(source_sets) > 3
    cases += [(opened, sources) for sources in source_sets]
    bucketed = []
    for mesh, sources in cases:
        field = distance_transform(mesh, sources)
        dist, widest = _reference_transform(mesh, sources)
        assert field.dist.tobytes() == dist.tobytes()
        assert distance_transform(mesh, sources).sweeps == field.sweeps
        bucketed.append(widest > _corner_tables(mesh)["delta"])
    # not vacuous: on every phantom field the buckets held vertices back
    assert all(bucketed[-len(source_sets):])


def _batch_case(case):
    """(mesh, source sets) of one batch. On the tapered phantom: its rim and
    patch fields, a lone far vertex and every other vertex, whose sweep
    counts differ over tenfold, with a repeated set among them. On two
    unconnected grids: fields that reach one component only or both."""
    if case == "two-components":
        return _two_grids(), [[0], [30], [3, 40], [0], [24, 25]]
    opened, source_sets = _tapered_patchy_sources()
    far = int(np.argmax(distance_transform(opened, source_sets[0]).dist))
    return opened, [*source_sets, [far], np.arange(0, opened.n_vertices, 2),
                    source_sets[1]]


@pytest.mark.parametrize("case", ["tapered-phantom", "two-components"])
def test_batch_equals_lone_transforms_bit_for_bit(case):
    mesh, source_sets = _batch_case(case)
    lone = [distance_transform(mesh, s) for s in source_sets]
    sweeps = [f.sweeps for f in lone]
    if case == "tapered-phantom":
        assert max(sweeps) > 10 * min(sweeps)
    else:
        assert np.isinf(lone[0].dist[25:]).all()
        assert np.isfinite(lone[2].dist).all()
    order = np.random.default_rng(2).permutation(len(source_sets))
    assert not np.array_equal(order, np.arange(len(order)))
    for perm in (np.arange(len(order)), order):
        batch = FieldBatch(mesh, [source_sets[i] for i in perm])
        for i in perm:
            field = distance_transform(mesh, source_sets[i], batch)
            assert field.mesh is mesh
            assert np.array_equal(field.sources, lone[i].sources)
            assert field.dist.tobytes() == lone[i].dist.tobytes()
            assert field.sweeps == lone[i].sweeps
            assert not field.dist.flags.writeable
    # one kernel call: the fields are rows of one buffer
    buffer = distance_transform(mesh, source_sets[0], batch).dist.base
    assert buffer is not None
    assert all(distance_transform(mesh, s, batch).dist.base is buffer
               for s in source_sets)


def test_batch_checks_every_source_set_like_a_lone_transform():
    mesh = plane_grid(5, 5)
    mask = np.zeros(mesh.n_vertices, dtype=bool)
    mask[[3, 7]] = True
    for bad in ([], [999], [-1, 3], [1.7, 3.2], np.array([3.0]), mask):
        with pytest.raises((TopologyError, ValueError)) as want:
            distance_transform(mesh, bad)
        for sets in ([bad], [[3, 7], bad], [bad, [3, 7]]):
            with pytest.raises(want.type) as got:
                FieldBatch(mesh, sets)
            assert str(got.value) == str(want.value)


def test_batch_gives_only_its_own_fields_on_its_own_mesh():
    mesh = plane_grid(5, 5)
    batch = FieldBatch(mesh, [[3, 7], [0]])
    with pytest.raises(ValueError, match="not in the field batch"):
        distance_transform(mesh, [3], batch)
    twin = SurfaceMesh(mesh.vertices, mesh.triangles)
    with pytest.raises(ValueError, match="another mesh"):
        distance_transform(twin, [0], batch)
    # a set is found whatever the order or repeats it is given in
    field = distance_transform(mesh, np.array([7, 3, 7]), batch)
    assert field.dist.tobytes() == distance_transform(mesh, [3, 7]).dist.tobytes()
    # an empty batch is valid and holds nothing
    with pytest.raises(ValueError, match="not in the field batch"):
        distance_transform(mesh, [0], FieldBatch(mesh, []))


@pytest.mark.parametrize("case", ["sphere-one-source", "plane-sources"])
def test_result_is_a_fixed_point_of_every_corner(case):
    # every corner's edge relaxations and triangle update, evaluated with the
    # final distances, must propose nothing lower: a sweep that skipped a
    # triangle it should have revisited leaves a proposal behind
    if case == "sphere-one-source":
        mesh, sources = icosphere(subdivisions=3, radius=10.0), [5]
    else:
        mesh, sources = plane_grid(23, 17, spacing=0.8), [0, 200, 390]
    field = distance_transform(mesh, sources)
    tab = _corner_tables(mesh)
    every_corner = np.arange(3 * mesh.n_triangles)
    targets, values = _proposals(tab, field.dist, every_corner, 0)
    assert targets.size == 0, values.min()
    # the check is not vacuous: a raised vertex gets a proposal at once
    raised = field.dist.copy()
    far = int(np.argmax(raised))
    raised[far] += 1.0
    targets, values = _proposals(tab, raised, every_corner, 0)
    assert far in targets
    assert values[targets == far].min() == pytest.approx(field.dist[far])


def test_determinism_same_inputs_same_bits():
    mesh = icosphere(subdivisions=2, radius=5.0)
    f1 = distance_transform(mesh, [0, 11])
    f2 = distance_transform(mesh, [0, 11])
    assert np.array_equal(f1.dist, f2.dist)
    for v in range(mesh.n_vertices):
        assert np.array_equal(trace_path(f1, v).vertex_ids,
                              trace_path(f2, v).vertex_ids)
    assert f1.sweeps >= 1 and f1.sweeps == f2.sweeps


@pytest.mark.parametrize("case", ["sphere", "jittered-grid"])
def test_bounded_transform_is_exact_below_its_target(case):
    # a transform pruned at dist[target] must give the full transform's bits
    # wherever either is below that bound, hence the same target distance and
    # the same descent, vertex for vertex
    if case == "sphere":
        mesh = icosphere(subdivisions=3, radius=10.0)
    else:
        mesh = _jittered_grid()[1]
    rng = np.random.default_rng(6)
    pruned = 0
    for src in range(0, mesh.n_vertices, 7):
        field = distance_transform(mesh, [src])
        for dst in rng.integers(0, mesh.n_vertices, size=6):
            dst = int(dst)
            if dst == src:
                continue
            bound = field.dist[dst]
            bounded = _sweep(mesh, [np.asarray([src])], [dst])[0][0]
            assert (np.minimum(bounded, bound).tobytes()
                    == np.minimum(field.dist, bound).tobytes()), (src, dst)
            pruned += not np.array_equal(bounded, field.dist)
            isd = geodesic_path(mesh, src, dst)
            assert isd.distance == bound
            assert (isd.endpoint_a, isd.endpoint_b) == (src, dst)
            ref = trace_path(field, dst)
            assert np.array_equal(isd.path.vertex_ids, ref.vertex_ids[::-1])
            assert isd.path.length == ref.length
    # the bound does stop transforms early
    assert pruned > 0


def _triangle_schedule(mesh, sources, target=None):
    """(dist, sweeps) of `_sweep`'s bucket schedule as it stood when each
    sweep evaluated every corner of every triangle touching an expanded
    vertex, written out for one field. `_sweep` evaluates only the corners
    with an expanded support; the others propose nothing, so both scatter
    the same proposals in every sweep."""
    tab = _corner_tables(mesh)
    m, ptr, delta = mesh.n_triangles, tab["ptr"], tab["delta"]
    tri = np.argsort(mesh.triangles.ravel(), kind="stable") // 3
    dist = np.full(mesh.n_vertices, np.inf)
    dist[sources] = 0.0
    pending = np.unique(sources)
    sweeps = 0
    while pending.size:
        sweeps += 1
        d = dist[pending]
        near = d <= d.min() + delta
        tris = np.unique(np.concatenate(
            [tri[ptr[v]:ptr[v + 1]] for v in pending[near]]))
        tgt, val = _proposals(tab, dist,
                              np.concatenate([tris, tris + m, tris + 2 * m]),
                              0)
        np.minimum.at(dist, tgt, val)
        pending = np.union1d(pending[~near], tgt)
        if target is not None:
            pending = pending[dist[pending] < dist[target]]
    return dist, sweeps


@pytest.mark.parametrize("case", ["tapered-phantom", "two-components",
                                  "bounded-jittered-grid"])
def test_sweep_keeps_the_triangle_schedule(case):
    # whole rows and sweep counts, so a bounded transform's values above
    # its target are locked too: the Jacobi reference checks bits only
    if case == "bounded-jittered-grid":
        mesh = _jittered_grid()[1]
        rng = np.random.default_rng(8)
        pairs = rng.integers(0, mesh.n_vertices, size=(12, 2))
        source_sets = [[src] for src in pairs[:, 0]]
        targets = pairs[:, 1]
    else:
        mesh, source_sets = _batch_case(case)
        targets = [None] * len(source_sets)
    srcs = [np.unique(np.asarray(s, dtype=np.int64)) for s in source_sets]
    dist, sweeps = _sweep(mesh, srcs, None if targets[0] is None else targets)
    for src, target, row, count in zip(srcs, targets, dist, sweeps):
        want, want_sweeps = _triangle_schedule(mesh, src, target)
        assert row.tobytes() == want.tobytes()
        assert count == want_sweeps
    if case == "bounded-jittered-grid":
        # not vacuous: the bounds leave vertices unreached
        assert np.isinf(dist).any()


def test_descent_that_stops_above_zero_raises():
    # a hand-built field whose only local minimum off the source, at the
    # centre, holds 1.0: descending into it cannot reach a source
    mesh = plane_grid(7, 7)
    centre = 24
    dist = np.linalg.norm(mesh.vertices - mesh.vertices[centre], axis=1) + 1.0
    dist[0] = 0.0
    field = DistanceField(mesh=mesh, sources=np.array([0]), dist=dist,
                          sweeps=1)
    assert trace_path(field, 1).vertex_ids.tolist() == [1, 0]
    with pytest.raises(RuntimeError, match="did not reach a source"):
        trace_path(field, centre + 1)


def test_geodesic_path_validation_and_edge_cases(monkeypatch):
    mesh = _two_grids()
    for bad in (6.9, np.float64(6.0), True):
        with pytest.raises(ValueError):
            geodesic_path(mesh, bad, 3)
        with pytest.raises(ValueError):
            geodesic_path(mesh, 3, bad)
    for bad in (-1, mesh.n_vertices):
        with pytest.raises(TopologyError, match="out of range"):
            geodesic_path(mesh, bad, 3)
        with pytest.raises(TopologyError, match="out of range"):
            geodesic_path(mesh, 3, bad)
    # a target on the other component is unreachable
    far = geodesic_path(mesh, 0, 30)
    assert far.distance == np.inf
    assert (far.endpoint_a, far.endpoint_b) == (-1, -1)
    assert far.path.vertex_ids.size == 0
    assert geodesic_path(mesh, np.int32(0), np.uint8(24)).distance > 0.0

    def no_sweep(*args):
        raise AssertionError("a point path needs no transform")

    monkeypatch.setattr(geodesics, "_sweep", no_sweep)
    point = geodesic_path(mesh, 7, np.int32(7))
    assert point.distance == 0.0 and point.path.length == 0.0
    assert (point.endpoint_a, point.endpoint_b) == (7, 7)
    assert point.path.vertex_ids.tolist() == [7]
    assert np.array_equal(point.path.points, mesh.vertices[[7]])
