"""Surface distance fields: triangle-update accuracy, tracing, set-to-set
queries.

The first-order front propagation is exact on edges it relaxes, so every
field value is sandwiched between the true geodesic distance and the
edge-only shortest path. Accuracy probes follow the contract points: sphere
pole-to-pole and grid corner-to-corner within 2%. Near-source values carry
the scheme's inherent front-curvature error and are not asserted tightly.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csgraph, csr_matrix

from pvgap import geodesics
from pvgap.errors import TopologyError
from pvgap.geodesics import (LIMIT_CADENCE, _corner_tables, _proposals,
                             _sweep, _target_batch, DistanceField,
                             FieldBatch, distance_transform,
                             geodesic_path, geodesic_paths,
                             min_interset_distance, trace_path)
from pvgap.mesh import SurfaceMesh, connected_components
from pvgap.regions import build_search_area, open_area
from pvgap.scar import threshold_mask
from pvgap.synth import PhantomSpec, icosphere, make_phantom, plane_grid


def _csr(mesh):
    """mesh.adjacency as a scipy matrix, for scipy's graph routines."""
    adj, n = mesh.adjacency, mesh.n_vertices
    return csr_matrix((adj.data, adj.indices, adj.indptr), shape=(n, n))


def _edge_dijkstra(mesh, sources):
    """Edge-walk upper bound on the surface distance."""
    dist = csgraph.dijkstra(_csr(mesh), indices=list(sources))
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


def _plain_triangle_update(dA, dB, la, lb, cos, sin2, csq):
    """(value, valid) of the Kimmel-Sethian update of corners whose supports
    hold dA and dB, written out plainly with np.where and no pre-selection:
    every corner is evaluated, and value is meaningful where valid only."""
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
        return lo + tt, valid


def _corner_vertices(mesh):
    """(C, A, B) in the corner order of `_corner_tables`: corner q = r*m + t
    is vertex r of triangle t, and its supports A and B are the triangle's
    next two vertices."""
    t = mesh.triangles
    return t.T.ravel(), t[:, [1, 2, 0]].T.ravel(), t[:, [2, 0, 1]].T.ravel()


def _corner_proposals(mesh, dist, q):
    """`_proposals` of one field's corners q, their vertices and values
    gathered by corner id."""
    C, A, B = (ids.take(q) for ids in _corner_vertices(mesh))
    return _proposals(_corner_tables(mesh), q, C, dist.take(A),
                      dist.take(B), dist.take(C))


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
            tri, valid = _plain_triangle_update(dA, dB, la, lb, cos, sin2,
                                                csq)
            np.minimum.at(best, C[valid], tri[valid])
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
    mask = mask[opened.parent_vertex]
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
    assert r_ab.path.vertex_ids[0] in set_a
    assert r_ab.path.vertex_ids[-1] in set_b


@pytest.mark.parametrize("far_set", [(26, 22), (38, 10)])
def test_min_interset_distance_ties_on_the_far_set_go_to_the_smaller_id(
        far_set):
    # vertex 24 is the centre of a 7x7 grid; each far set holds the two
    # vertices two edges from it along one axis, at one distance
    mesh = plane_grid(7, 7)
    near = distance_transform(mesh, [24])
    far = distance_transform(mesh, list(far_set))
    small, large = sorted(far_set)
    assert near.dist[small] == near.dist[large]
    got = min_interset_distance(near, far)
    assert got.distance == near.dist[small]
    assert got.path.vertex_ids[0] == 24 and got.path.vertex_ids[-1] == small


def test_min_interset_distance_rejects_mismatched_fields():
    # an equal but distinct mesh is still another mesh
    mesh = icosphere(subdivisions=2, radius=5.0)
    other = icosphere(subdivisions=2, radius=5.0)
    fa = distance_transform(mesh, [0])
    with pytest.raises(ValueError, match="same mesh"):
        min_interset_distance(fa, distance_transform(other, [11]))
    assert min_interset_distance(
        fa, distance_transform(mesh, [11])).path.vertex_ids[-1] == 11


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


def test_corner_tables_in_blocks_equal_one_block_bit_for_bit(monkeypatch):
    # every corner's geometry is computed on its own, so the block size,
    # here one that leaves a short last block, cannot change a bit
    grid, jittered = _jittered_grid()
    opened, _ = _tapered_patchy_sources()
    for mesh in (jittered, opened):
        assert 3 * mesh.n_triangles % 7
        tables = []
        for block in (3 * mesh.n_triangles, 7):
            monkeypatch.setattr(geodesics, "_CORNER_BLOCK", block)
            geodesics._TABLES.pop(mesh, None)
            tables.append(_corner_tables(mesh))
        whole, blocked = tables
        assert list(blocked) == list(whole)
        for key, value in whole.items():
            assert np.asarray(blocked[key]).tobytes() \
                == np.asarray(value).tobytes(), key


class _Reads(dict):
    """A dict that records the keys read from it."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_corner_tables_hold_only_what_the_kernel_reads():
    # the tables of the 0.26 mm tapered disk (18k vertices) hold at most
    # 64 B per corner, as traced by tracemalloc, which numpy reports its
    # buffers to
    mesh, _config, _truth = make_phantom(PhantomSpec(
        target_edge_mm=0.26, keep_fraction=0.75, patchiness=4,
        taper=(2.5, 9.0)))
    # the adjacency is cached on the mesh, and the first median imports
    # numpy.ma: neither is the tables'
    mesh.adjacency
    _corner_tables(plane_grid(3, 3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tab = _corner_tables(mesh)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    corners = 3 * mesh.n_triangles
    assert held <= 64 * corners, held / corners
    # lb of corner q is la of corner q - m (mod 3m), so both lie in one
    # buffer (the law on their bits is test_laws'
    # test_column_lengths_equal_row_norms)
    m = mesh.n_triangles
    assert tab["la"].base is tab["lb"].base is not None
    assert tab["lb"][m:].tobytes() == tab["la"][:-m].tobytes()
    # every table is read by the kernel: a transform reads them all
    reads = _Reads(tab)
    geodesics._TABLES[mesh] = reads
    distance_transform(mesh, [0])
    assert reads.read == set(tab)


@pytest.mark.parametrize("adjacency", ["cached", "built"])
def test_corner_tables_build_frees_as_it_goes(adjacency):
    # on the 0.26 mm tapered disk, the build's traced peak lies at most
    # 16 B per corner above what it keeps, whether it finds the adjacency
    # cached on the mesh or builds it for delta
    mesh, _config, _truth = make_phantom(PhantomSpec(
        target_edge_mm=0.26, keep_fraction=0.75, patchiness=4,
        taper=(2.5, 9.0)))
    if adjacency == "cached":
        mesh.adjacency
    # the first median imports numpy.ma, which is not the tables'
    _corner_tables(plane_grid(3, 3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _corner_tables(mesh)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    corners = 3 * mesh.n_triangles
    assert peak - held <= 16 * corners, (peak - held) / corners
    # not vacuous: the tables, 60 B per corner, were built in the call
    assert held - before >= 60 * corners


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
    every_corner = np.arange(3 * mesh.n_triangles)
    targets, values = _corner_proposals(mesh, field.dist, every_corner)
    assert targets.size == 0, values.min()
    # the check is not vacuous: a raised vertex gets a proposal at once
    raised = field.dist.copy()
    far = int(np.argmax(raised))
    raised[far] += 1.0
    targets, values = _corner_proposals(mesh, raised, every_corner)
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


@pytest.mark.parametrize("case", ["sphere", "jittered-grid", "two-fields"])
def test_bounded_transform_is_exact_below_its_target(case):
    # a transform bounded by its target's dist must give the full
    # transform's bits wherever either is below the target's final dist,
    # hence the same target distance and the same descent, vertex for
    # vertex; two-fields also runs each bounded transform next to another
    # in a K = 2 batch, which takes the kernel's offset path rather than
    # its one-field path
    if case == "sphere":
        mesh = icosphere(subdivisions=3, radius=10.0)
    else:
        mesh = _jittered_grid()[1]
    n = mesh.n_vertices
    rng = np.random.default_rng(6)
    pruned = 0
    for src in range(0, n, 7):
        field = distance_transform(mesh, [src])
        for dst in rng.integers(0, n, size=6):
            dst = int(dst)
            if dst == src:
                continue
            bound = field.dist[dst]
            bounded = _sweep(mesh, *_target_batch(n, [(src, [dst])]))[0][0]
            if case == "two-fields":
                # the second field runs to dst from another source
                src2 = (src + 3 * dst) % n
                pair = _sweep(mesh, *_target_batch(
                    n, [(src, [dst]), (src2, [dst])]))[0]
                alone = _sweep(mesh, *_target_batch(n, [(src2, [dst])]))[0][0]
                cut = alone[dst]
                assert (np.minimum(pair[1], cut).tobytes()
                        == np.minimum(alone, cut).tobytes()), (src2, dst)
                bounded = pair[0]
            assert (np.minimum(bounded, bound).tobytes()
                    == np.minimum(field.dist, bound).tobytes()), (src, dst)
            pruned += not np.array_equal(bounded, field.dist)
            isd = geodesic_path(mesh, src, dst)
            assert isd.distance == bound
            assert isd.path.vertex_ids[[0, -1]].tolist() == [src, dst]
            ref = trace_path(field, dst)
            assert np.array_equal(isd.path.vertex_ids, ref.vertex_ids[::-1])
            assert isd.path.length == ref.length
    # the bound does stop transforms early
    assert pruned > 0


def _triangle_schedule(mesh, sources, targets=None):
    """(dist, sweeps) of `_sweep`'s bucket schedule as it stood when each
    sweep evaluated every corner of every triangle touching an expanded
    vertex, written out for one field. `_sweep` evaluates only the corners
    with an expanded support; the others propose nothing, so both scatter
    the same proposals in every sweep. With targets, the field is bounded
    as `_target_batch`'s hook bounds it: every LIMIT_CADENCE sweeps the
    bound becomes the farthest target's dist, and after every sweep the
    pending vertices strictly above the last bound are dropped."""
    tab = _corner_tables(mesh)
    m, ptr, delta = mesh.n_triangles, tab["ptr"], tab["delta"]
    tri = np.argsort(mesh.triangles.ravel(), kind="stable") // 3
    dist = np.full(mesh.n_vertices, np.inf)
    dist[sources] = 0.0
    pending = np.unique(sources)
    sweeps = 0
    bound = np.inf
    while pending.size:
        sweeps += 1
        d = dist[pending]
        near = d <= d.min() + delta
        tris = np.unique(np.concatenate(
            [tri[ptr[v]:ptr[v + 1]] for v in pending[near]]))
        tgt, val = _corner_proposals(
            mesh, dist, np.concatenate([tris, tris + m, tris + 2 * m]))
        np.minimum.at(dist, tgt, val)
        pending = np.union1d(pending[~near], tgt)
        if targets is not None:
            if sweeps % LIMIT_CADENCE == 0:
                bound = dist[targets].max()
            pending = pending[dist[pending] <= bound]
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
        # two fields in three stop at the farthest of several targets
        extra = rng.integers(0, mesh.n_vertices, size=(12, 2))
        targets = [[dst, *more[:k % 3]]
                   for k, (dst, more) in enumerate(zip(pairs[:, 1], extra))]
    else:
        mesh, source_sets = _batch_case(case)
        targets = [None] * len(source_sets)
    srcs = [np.unique(np.asarray(s, dtype=np.int64)) for s in source_sets]
    limit = None
    if targets[0] is not None:
        limit = _target_batch(mesh.n_vertices,
                              zip(pairs[:, 0].tolist(), targets))[1]
    dist, sweeps = _sweep(mesh, srcs, limit)
    for src, dsts, row, count in zip(srcs, targets, dist, sweeps):
        want, want_sweeps = _triangle_schedule(mesh, src, dsts)
        assert row.tobytes() == want.tobytes()
        assert count == want_sweeps
    if case == "bounded-jittered-grid":
        # not vacuous: the bounds leave vertices unreached
        assert np.isinf(dist).any()


def _edge_rim(mesh, src):
    """The rim of source set src, scanned edge by edge: its vertices with
    a neighbour outside it, or all of them where none has one."""
    inside = np.zeros(mesh.n_vertices, dtype=bool)
    inside[src] = True
    ends = mesh.edges
    across = np.zeros(mesh.n_vertices, dtype=bool)
    across[ends[inside[ends[:, 0]] != inside[ends[:, 1]]]] = True
    return src[across[src]] if across[src].any() else src


def _first_front_case(case):
    """(mesh, source sets) whose first fronts are checked."""
    if case == "tapered-patches":
        return _tapered_patchy_sources()
    if case == "whole-component":
        # the first grid's vertices, all of a component: none has a
        # neighbour outside, so the whole set is its rim
        return _two_grids(), [np.arange(25), [30], [3, 4, 8, 9, 40]]
    if case == "unreferenced-vertex":
        # vertex 35 of a raw mesh lies in no triangle: it has no edge,
        # alone its whole set is its rim, and beside a grid block it is
        # not on the rim
        grid = plane_grid(7, 5)
        mesh = SurfaceMesh(np.vstack([grid.vertices, [[3.0, 9.0, 0.0]]]),
                           grid.triangles)
        return mesh, [[35], [8, 9, 10, 15, 16, 17, 22, 23, 24, 35], [0, 35]]
    # `geodesic_paths`' fields: one vertex each, its own rim
    mesh = _jittered_grid()[1]
    return mesh, [[int(v)] for v in (0, 17, 100, 265)]


@pytest.mark.parametrize("case", ["tapered-patches", "whole-component",
                                  "unreferenced-vertex", "single-vertex"])
def test_first_sweep_expands_the_rims_only(case, monkeypatch):
    # an interior source, all of whose neighbours are sources, proposes
    # nothing, so each field's first front is its rim: the first sweep
    # reads the incidences of the rims alone, and the rows and sweep
    # counts are those of the triangle schedule, which starts from every
    # source
    mesh, source_sets = _first_front_case(case)
    srcs = [np.unique(np.asarray(s, dtype=np.int64)) for s in source_sets]
    rims = geodesics.source_rims(mesh, srcs)
    want = [_edge_rim(mesh, src) for src in srcs]
    assert [r.tobytes() for r in rims] == [w.tobytes() for w in want]
    if case == "single-vertex":
        assert [r.tobytes() for r in rims] == [s.tobytes() for s in srcs]
    reads = []
    front = geodesics._front

    def spy(tab, dist, pos, *rest):
        reads.append(len(pos))
        return front(tab, dist, pos, *rest)

    monkeypatch.setattr(geodesics, "_front", spy)
    dist, sweeps = _sweep(mesh, srcs)
    valence = np.diff(_corner_tables(mesh)["ptr"])
    assert reads[0] == sum(valence[r].sum() for r in rims)
    for src, row, count in zip(srcs, dist, sweeps):
        want_row, want_sweeps = _triangle_schedule(mesh, src)
        assert row.tobytes() == want_row.tobytes()
        assert count == want_sweeps
    if case == "tapered-patches":
        # not vacuous: the patches have interior sources
        assert reads[0] < sum(valence[s].sum() for s in srcs)


def _relabelled(mesh, rng):
    """(copy of mesh with its vertices and triangles permuted and each
    triangle's corners rotated, orientation kept; the copy's id of each
    vertex of mesh)."""
    n, m = mesh.n_vertices, mesh.n_triangles
    order = rng.permutation(n)  # the copy's vertex i is vertex order[i]
    new_id = np.empty(n, dtype=np.int64)
    new_id[order] = np.arange(n)
    tris = new_id[mesh.triangles[rng.permutation(m)]]
    turn = (np.arange(3) + rng.integers(0, 3, size=(m, 1))) % 3
    tris = np.take_along_axis(tris, turn, axis=1)
    return SurfaceMesh(mesh.vertices[order], tris), new_id


@pytest.mark.parametrize("case", ["plane", "icosphere", "relabelled"])
def test_incidence_tables_name_the_two_corners_of_each_incidence(case):
    # incidence j of the CSR is vertex x of a triangle (pv, x, nx) in its
    # vertex order: x is support A of corner qa[j] and support B of corner
    # qb[j]; pv = qbA[j] is vertex C of qa[j] and support A of qb[j]; nx =
    # qaB[j] is support B of qa[j] and vertex C of qb[j]. The relabelled
    # copy rotates each triangle's corners, so its x sits at every position
    if case == "plane":
        mesh = plane_grid(7, 5)
    elif case == "icosphere":
        mesh = icosphere(subdivisions=2)
    else:
        mesh = _relabelled(_jittered_grid()[1], np.random.default_rng(3))[0]
    tab = _corner_tables(mesh)
    C, A, B = _corner_vertices(mesh)
    qa, qb, pv, nx = tab["qa"], tab["qb"], tab["qbA"], tab["qaB"]
    x = np.repeat(np.arange(mesh.n_vertices), np.diff(tab["ptr"]))
    assert x.size == qa.size == qb.size == 3 * mesh.n_triangles
    assert np.array_equal(A[qa], x) and np.array_equal(B[qb], x)
    assert np.array_equal(pv, C[qa]) and np.array_equal(pv, A[qb])
    assert np.array_equal(nx, B[qa]) and np.array_equal(nx, C[qb])
    # (pv, x, nx) is the triangle of both corners, in its vertex order
    m = mesh.n_triangles
    assert np.array_equal(qa % m, qb % m)
    rows = mesh.triangles[qa % m]
    r = (rows == x[:, None]).argmax(axis=1)
    j = np.arange(x.size)
    assert np.array_equal(rows[j, (r + 1) % 3], nx)
    assert np.array_equal(rows[j, (r + 2) % 3], pv)


def test_sweep_gives_the_same_bits_in_any_vertex_order():
    # each kernel step is elementwise, a min-scatter or a set operation and
    # delta is a median of edge lengths, so a relabelled mesh gives the
    # same rows, mapped back, and the same sweep counts
    opened, source_sets = _tapered_patchy_sources()
    moved, new_id = _relabelled(opened, np.random.default_rng(5))
    assert not np.array_equal(new_id, np.arange(opened.n_vertices))
    rim, patches = source_sets[0], source_sets[1:]
    bound = float(np.median(_sweep(opened, patches)[0]))
    src = patches[0][:1]
    mid = int(np.argsort(distance_transform(opened, src).dist)[
        opened.n_vertices // 2])
    n = opened.n_vertices

    def batch(srcs, limit=None):
        # (srcs, limit) on the mesh that gives vertex v of opened id ids[v]
        return lambda ids: ([np.unique(ids[s]) for s in srcs], limit)

    cases = {"patch batch": batch(patches),
             "limited patch batch": batch(
                 patches, lambda rows: np.full(len(rows), bound)),
             "bounded K = 1": lambda ids: _target_batch(
                 n, [(int(ids[src[0]]), [int(ids[mid])])]),
             "whole K = 1": batch([rim])}
    for name, case in cases.items():
        srcs, limit = case(np.arange(n))
        dist, sweeps = _sweep(opened, srcs, limit)
        got, got_sweeps = _sweep(moved, *case(new_id))
        assert got[:, new_id].tobytes() == dist.tobytes(), name
        assert got_sweeps.tolist() == sweeps.tolist(), name
        # not vacuous: a bound leaves vertices unreached, on this connected
        # mesh where a whole transform reaches every vertex
        assert np.isinf(dist).any() == (limit is not None), name


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
    assert far.path.vertex_ids.size == 0
    assert geodesic_path(mesh, np.int32(0), np.uint8(24)).distance > 0.0

    def no_sweep(*args):
        raise AssertionError("a point path needs no transform")

    monkeypatch.setattr(geodesics, "_sweep", no_sweep)
    point = geodesic_path(mesh, 7, np.int32(7))
    assert point.distance == 0.0 and point.path.length == 0.0
    assert point.path.vertex_ids.tolist() == [7]
    assert np.array_equal(point.path.points, mesh.vertices[[7]])


# --- point-to-point transforms with several targets per source ---

def _counted_sweeps(monkeypatch):
    """(sources, targets) of every point-to-point batch from now on, one
    source and a list of targets per field, as `_target_batch` is given
    them."""
    calls = []

    def counting(n, fields):
        fields = list(fields)
        calls.append(([int(src) for src, _dsts in fields],
                      [sorted(map(int, dsts)) for _src, dsts in fields]))
        return _target_batch(n, fields)

    monkeypatch.setattr(geodesics, "_target_batch", counting)
    return calls


def _assert_same_path(got, want):
    assert got.distance == want.distance
    assert np.array_equal(got.path.vertex_ids, want.path.vertex_ids)
    assert got.path.points.tobytes() == want.path.points.tobytes()


def _fields_of(pairs):
    """The (sources, targets) of the fields `geodesic_paths` runs for
    pairs: one per distinct source, first seen first."""
    fields = {}
    for src, dst in pairs:
        if src != dst:
            fields.setdefault(src, set()).add(dst)
    return list(fields), [sorted(dsts) for dsts in fields.values()]


def _path_mesh(case):
    if case == "sphere":
        return icosphere(subdivisions=3, radius=10.0)
    return _jittered_grid()[1]


# The path_cache tests check that the paths read from one batched field
# per source equal the lone paths, as the per-source cache of transforms
# that the batch replaced had to.

@pytest.mark.parametrize("case", ["sphere", "jittered-grid"])
def test_path_cache_gives_the_lone_paths(case, monkeypatch):
    # one field from src holds targets at every rank of distance from it,
    # so most are read below a cap that a farther target set
    mesh = _path_mesh(case)
    n = mesh.n_vertices
    src = 5
    by_dist = np.argsort(distance_transform(mesh, [src]).dist, kind="stable")
    near, mid, between, far = (int(by_dist[n * k // 10]) for k in (2, 5, 7, 9))
    pairs = [(src, dst) for dst in (mid, mid, near, far, between, mid)]
    lone = [geodesic_path(mesh, a, b) for a, b in pairs]
    calls = _counted_sweeps(monkeypatch)
    for got, want in zip(geodesic_paths(mesh, pairs), lone):
        _assert_same_path(got, want)
    assert calls == [([src], [sorted((near, mid, between, far))])]


@pytest.mark.parametrize("case", ["sphere", "jittered-grid"])
def test_path_cache_reads_equal_lone_paths_in_any_order(case, monkeypatch):
    # random pairs give sources with several targets; repeated pairs and
    # both orders of the batch give the same paths
    mesh = _path_mesh(case)
    n = mesh.n_vertices
    rng = np.random.default_rng(11)
    pairs = [(int(a), int(b)) for a in rng.integers(0, n, size=6)
             for b in rng.integers(0, n, size=8)]
    pairs += pairs[:3]
    lone = [geodesic_path(mesh, a, b) for a, b in pairs]
    calls = _counted_sweeps(monkeypatch)
    for order in (1, -1):
        got = geodesic_paths(mesh, pairs[::order])
        assert len(got) == len(pairs)
        for isd, want in zip(got, lone[::order]):
            _assert_same_path(isd, want)
    assert calls == [_fields_of(pairs), _fields_of(pairs[::-1])]
    # not vacuous: sources with several targets
    assert max(map(len, calls[0][1])) >= 4


def test_path_cache_with_an_unreachable_target(monkeypatch):
    mesh = _two_grids()
    pairs = [(0, 30), (0, 24), (7, 7), (0, 40), (7, 24), (0, 3), (0, 30)]
    lone = [geodesic_path(mesh, a, b) for a, b in pairs]
    calls = _counted_sweeps(monkeypatch)
    for isd, want in zip(geodesic_paths(mesh, pairs), lone):
        _assert_same_path(isd, want)
    # an unreachable target never stops its field; a point path needs none
    assert calls == [([0, 7], [[3, 24, 30, 40], [24]])]
    for far in (lone[0], lone[3]):
        assert far.distance == np.inf and far.path.vertex_ids.size == 0


def test_path_cache_point_path_and_mesh_check(monkeypatch):
    mesh = _two_grids()
    calls = _counted_sweeps(monkeypatch)
    point = geodesic_paths(mesh, [(7, 7)])[0]
    assert point.distance == 0.0 and point.path.length == 0.0
    assert point.path.vertex_ids.tolist() == [7]
    assert np.array_equal(point.path.points, mesh.vertices[[7]])
    assert geodesic_paths(mesh, [(7, 7), (30, 30)])[1].distance == 0.0
    assert geodesic_paths(mesh, []) == []
    # every pair is checked against this mesh before any transform runs
    for bad in ((0, mesh.n_vertices), (mesh.n_vertices, 7)):
        with pytest.raises(TopologyError, match="out of range"):
            geodesic_paths(mesh, [(0, 24), bad])
    assert calls == []
