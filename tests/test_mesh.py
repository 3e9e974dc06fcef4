"""Mesh core: topology queries, labeling, edge paths, cutting, file IO.

Derived behaviors are checked against independent oracles: scipy's CSR
matrix for the adjacency, breadth-first flood fill and scipy's component
labeling for patches, scipy's shortest path for edge routes, and a re-glue
pass (identify twins again) for cutting.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csgraph, csr_matrix

from pvgap import mesh as mesh_module
from pvgap.cli import main
from pvgap.errors import ConfigError, MeshFormatError, TopologyError
from pvgap.mesh import (SurfaceMesh, connected_components, cut_mesh,
                        edge_path, load_mesh, read_json, save_mesh,
                        write_atomic)
from pvgap.synth import SHAPES, PhantomSpec, make_phantom, plane_grid


def _strip(n=6, m=4):
    return plane_grid(n, m)


def _csr(mesh):
    """mesh.adjacency as a scipy matrix, for scipy's graph routines."""
    adj, n = mesh.adjacency, mesh.n_vertices
    return csr_matrix((adj.data, adj.indices, adj.indptr), shape=(n, n))


def _directed_edges(mesh):
    """(3m, 2) half-edges (a, b), (b, c), (c, a) of the triangles, in the
    mesh's half-edge numbering."""
    return np.stack(mesh._half_edge_ends(), axis=1)


def test_basic_counts_and_edges():
    mesh = _strip(3, 3)
    assert mesh.n_vertices == 9
    assert mesh.n_triangles == 8
    # 12 axis edges (6 horizontal + 6 vertical) plus one diagonal per quad
    assert len(mesh.edges) == 16
    assert np.all(mesh.edge_lengths > 0)


def test_boundary_and_interior():
    mesh = _strip(4, 4)
    b = mesh.boundary_vertex_mask
    # the grid rim: everything except the 4 interior vertices
    assert b.sum() == 12
    inner = np.flatnonzero(~b)
    assert len(inner) == 4
    loops = mesh.boundary_loops()
    assert len(loops) == 1
    assert len(loops[0]) == 12


def test_boundary_loops_split_at_a_pinch_vertex():
    # bowtie: two triangles that share only vertex 0
    verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [-1, 0, 0], [-1, -1, 0]]
    mesh = SurfaceMesh(verts, [[0, 1, 2], [0, 3, 4]])
    loops = mesh.boundary_loops()
    assert [loop.tolist() for loop in loops] == [[0, 1, 2], [0, 3, 4]]
    half_edges = {tuple(e) for e in _directed_edges(mesh).tolist()}
    for loop in loops:
        for a, b in zip(loop.tolist(), np.roll(loop, -1).tolist()):
            assert (a, b) in half_edges and (b, a) not in half_edges


def _flipped_triangle():
    grid = plane_grid(3, 3)
    tris = grid.triangles.copy()
    tris[0] = tris[0, ::-1]
    return grid.vertices, tris


def _edge_with_three_triangles():
    grid = plane_grid(3, 3)
    a, b = grid.edges[np.flatnonzero(~grid.boundary_vertex_mask[grid.edges]
                                     .all(axis=1))[0]]
    verts = np.vstack([grid.vertices, [[0.5, 0.5, 1.0]]])
    return verts, np.vstack([grid.triangles, [[a, b, 9]]])


def _zero_length_edge():
    grid = plane_grid(3, 3)
    a, b = grid.edges[0]
    verts = grid.vertices.copy()
    verts[b] = verts[a]
    return verts, grid.triangles


@pytest.mark.parametrize("make,why", [
    (_flipped_triangle, "orientation"),
    (_edge_with_three_triangles, "non-manifold"),
    (_zero_length_edge, "zero-length"),
])
def test_load_mesh_rejects_bad_topology(make, why, tmp_path):
    verts, tris = make()
    path = tmp_path / "bad.vtk"
    save_mesh(SurfaceMesh(verts, tris, intensity=np.zeros(len(verts))), path)
    with pytest.raises(TopologyError, match=why) as exc:
        load_mesh(path)
    assert "np." not in str(exc.value)
    report = tmp_path / "r.json"
    assert main(["quantify", "--mesh", str(path), "--bp-mean", "100",
                 "--bp-sd", "10", "--out", str(report)]) == 1
    assert not report.exists()


def _two_orientation_faults():
    """Triangle (0, 4, 3) of a 3x3 grid flipped: its half-edges (3, 4) and
    (4, 0) each repeat a neighbour's. The least directed key is (3, 4)'s,
    but edge {0, 4} comes first in undirected order."""
    grid = plane_grid(3, 3)
    tris = grid.triangles.copy()
    assert tris[4].tolist() == [0, 4, 3]
    tris[4] = tris[4, ::-1]
    return grid.vertices, tris


def _unique_rule(mesh):
    """(edges, counts) by the rule the one-sort table replaced: np.unique of
    the undirected keys, with counts."""
    n = mesh.n_vertices
    t, h = _directed_edges(mesh).T
    keys, counts = np.unique(np.minimum(t, h) * n + np.maximum(t, h),
                             return_counts=True)
    return np.stack(np.divmod(keys, n), axis=1), counts


def _searchsorted_rule(mesh, tails, heads):
    """The half-edge lookup the one-sort table replaced: the first
    half-edge with directed key tail*n + head in a stable sort of those
    keys, found by searchsorted; -1 if none."""
    n = mesh.n_vertices
    keys = _directed_edges(mesh)[:, 0] * n + _directed_edges(mesh)[:, 1]
    order = np.argsort(keys, kind="stable")
    query = np.asarray(tails) * n + np.asarray(heads)
    h = order[np.minimum(np.searchsorted(keys, query, sorter=order),
                         len(keys) - 1)]
    return np.where(keys[h] == query, h, -1)


def _directed_rule_fault(mesh):
    """The first repeated directed key in sorted order, the orientation
    fault the unique-based check named, as (tail, head); None if none."""
    keys = np.sort(_directed_edges(mesh)[:, 0] * mesh.n_vertices
                   + _directed_edges(mesh)[:, 1])
    twice = np.flatnonzero(keys[1:] == keys[:-1])
    return divmod(int(keys[twice[0]]), mesh.n_vertices) if len(twice) \
        else None


def assert_one_sort_tables(mesh):
    """edges, counts, opposite and the half-edge lookup of fresh copies of
    mesh equal the replaced rules byte for byte, whether the edge table
    sorts as a local or reads the order `opposite` cached."""
    edges, counts = _unique_rule(mesh)
    de = _directed_edges(mesh)
    rng = np.random.default_rng(0)
    stray = rng.integers(0, mesh.n_vertices, (2, 200))
    tails = np.concatenate([de[:, 0], de[:, 1], stray[0]])
    heads = np.concatenate([de[:, 1], de[:, 0], stray[1]])
    for walked in (False, True):
        fresh = SurfaceMesh(mesh.vertices, mesh.triangles)
        if walked:
            assert fresh.opposite is not None  # caches the order first
        assert fresh.edges.dtype == edges.dtype
        assert fresh.edges.tobytes() == edges.tobytes()
        got = fresh._edge_table[1]
        assert got.dtype == counts.dtype and got.tobytes() == counts.tobytes()
        want = _searchsorted_rule(mesh, de[:, 1], de[:, 0])
        assert fresh.opposite.dtype == want.dtype
        assert fresh.opposite.tobytes() == want.tobytes()
        assert np.array_equal(fresh._half_edges(tails, heads),
                              _searchsorted_rule(mesh, tails, heads))


def _relabelled(mesh, seed=0):
    """mesh with its vertices renumbered at random and each triangle's
    corners rotated by a random amount, so its orientation is kept."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.n_vertices)  # new id of each old vertex
    verts = np.empty_like(mesh.vertices)
    verts[perm] = mesh.vertices
    shift = rng.integers(0, 3, mesh.n_triangles)
    cols = (np.arange(3) + shift[:, None]) % 3
    tris = perm[np.take_along_axis(mesh.triangles, cols, axis=1)]
    return SurfaceMesh(verts, tris)


def _bowtie():
    verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [-1, 0, 0], [-1, -1, 0]]
    return SurfaceMesh(verts, [[0, 1, 2], [0, 3, 4]])


def _joint_cut_meshes():
    """Both meshes cut_mesh makes of the plate's joint area: after the
    primary cut, and after the inter-vein cut as well."""
    from pvgap.regions import build_search_area
    mesh, config, _ = make_phantom(PhantomSpec(base_shape="two-hole-plate"))
    area = build_search_area(mesh, config.areas[0])
    first = cut_mesh(area.mesh, area.cut_paths[0]).mesh
    return [first, cut_mesh(first, area.cut_paths[1]).mesh]


def _strict_sub_area():
    """The disk's area with its vertices numbered in reverse and its outer
    ring given a foreign label: its submesh drops that ring, now the
    lowest ids, so submesh ids are not the disk's, and the area still
    opens."""
    import dataclasses
    from pvgap.regions import build_search_area, open_area
    mesh, config, _ = make_phantom(PhantomSpec())
    spec = config.areas[0]
    last = mesh.n_vertices - 1
    outer, = [loop for loop in mesh.boundary_loops()
              if spec.vein_seeds[0] not in loop]
    region = mesh.region.copy()
    region[outer] = 9
    mesh = SurfaceMesh(mesh.vertices[::-1], last - mesh.triangles,
                       intensity=mesh.intensity[::-1], region=region[::-1])
    spec = dataclasses.replace(
        spec, vein_seeds=tuple(last - v for v in spec.vein_seeds))
    area = build_search_area(mesh, spec)
    assert area.parent_vertex[0] == len(outer)
    return [area.mesh, open_area(area).mesh]


@pytest.mark.parametrize("meshes", [
    lambda: [_relabelled(make_phantom(PhantomSpec(patchiness=2))[0])],
    lambda: [_bowtie()],
    _joint_cut_meshes,
    _strict_sub_area,
    lambda: [SurfaceMesh(*_two_orientation_faults()),
             SurfaceMesh(*_flipped_triangle())],
], ids=["relabelled", "bowtie", "joint-cuts", "strict-sub-area",
        "flipped"])
def test_one_sort_tables_equal_unique_and_searchsorted(meshes):
    for mesh in meshes():
        assert_one_sort_tables(mesh)


@pytest.mark.parametrize("make,message", [
    (_flipped_triangle,
     "inconsistent orientation: directed edge (0, 4) appears twice"),
    (_edge_with_three_triangles,
     "non-manifold edge (0, 4) shared by more than 2 triangles"),
    (_zero_length_edge, "zero-length edge (0, 1)"),
    (_two_orientation_faults,
     "inconsistent orientation: directed edge (3, 4) appears twice"),
])
def test_check_topology_names_the_edge_the_unique_rules_named(make, message):
    """The messages are those of the check by np.unique and a sort of the
    directed keys, on the three bad fixtures and on two orientation
    faults."""
    mesh = SurfaceMesh(*make())
    with pytest.raises(TopologyError) as exc:
        mesh.check_topology()
    assert str(exc.value) == message
    if "orientation" in message:
        assert f"edge {_directed_rule_fault(mesh)} " in message


def test_orientation_fault_is_the_least_directed_key():
    """Of two orientation faults, the report names the least directed key,
    (3, 4), not the fault whose edge comes first in undirected order,
    {0, 4}: a report in undirected order would name (4, 0)."""
    mesh = SurfaceMesh(*_two_orientation_faults())
    n = mesh.n_vertices
    keys = _directed_edges(mesh)[:, 0] * n + _directed_edges(mesh)[:, 1]
    held, count = np.unique(keys, return_counts=True)
    faults = [divmod(int(k), n) for k in held[count == 2]]
    assert sorted(faults) == [(3, 4), (4, 0)]
    by_edge = min(faults, key=lambda e: (min(e), max(e)))
    assert by_edge == (4, 0)
    with pytest.raises(TopologyError, match=r"edge \(3, 4\) appears"):
        mesh.check_topology()


def test_check_topology_records_its_verdict():
    """A passed check is recorded: a second call, and a with_intensity copy
    made after the check, read no table; a refused mesh raises the same
    error again."""
    grid = plane_grid(4, 3)
    grid.check_topology()
    copy = grid.with_intensity(np.zeros(grid.n_vertices))
    fresh = SurfaceMesh(grid.vertices, grid.triangles)
    reads = []
    cached = SurfaceMesh._edge_table

    def read(self):
        reads.append(self)
        return cached.__get__(self, SurfaceMesh)
    with pytest.MonkeyPatch.context() as mp:
        # a property overrides the instance's cached table on every read
        mp.setattr(SurfaceMesh, "_edge_table", property(read))
        grid.check_topology()
        copy.check_topology()
        assert reads == []
        fresh.check_topology()
        assert reads and all(r is fresh for r in reads)
    bad = SurfaceMesh(*_flipped_triangle())
    for _ in range(2):
        with pytest.raises(TopologyError, match="orientation"):
            bad.check_topology()


def test_constructor_leaves_caller_arrays_writeable():
    grid = plane_grid(3, 3)
    verts, tris = grid.vertices.copy(), grid.triangles.copy()
    values, labels = np.zeros(9), np.zeros(9, dtype=np.int64)
    extra = np.ones(9)
    SurfaceMesh(verts, tris, intensity=values, region=labels,
                point_data={"extra": (extra, "float")})
    values[2] = np.nan
    with pytest.raises(MeshFormatError):
        SurfaceMesh(verts, tris, intensity=values, region=labels)
    for arr in (verts, tris, values, labels, extra):
        assert arr.flags.writeable


def test_triangle_attribute_validation():
    with pytest.raises(TopologyError):
        SurfaceMesh(vertices=np.zeros((3, 3)), triangles=[[0, 1, 5]])
    with pytest.raises(MeshFormatError):
        SurfaceMesh(vertices=np.zeros((3, 3)), triangles=[[0, 1, 2]],
                    intensity=[1.0, 2.0])


def test_non_finite_values_rejected():
    grid = plane_grid(3, 3)
    for bad in (np.nan, np.inf):
        v = grid.vertices.copy()
        v[4, 2] = bad
        with pytest.raises(MeshFormatError):
            SurfaceMesh(v, grid.triangles)
    for bad in (np.nan, np.inf):
        values = np.zeros(9)
        values[2] = bad
        with pytest.raises(MeshFormatError):
            SurfaceMesh(grid.vertices, grid.triangles, intensity=values)
    # -inf marks a vertex without an in-volume sample and stays legal
    values = np.zeros(9)
    values[2] = -np.inf
    ok = SurfaceMesh(grid.vertices, grid.triangles, intensity=values)
    assert ok.intensity[2] == -np.inf


def _bfs_components(mesh, mask):
    """Independent oracle: plain breadth-first flood fill over masked
    vertices, first-seen ordering."""
    labels = {}
    order = 0
    adj = mesh.adjacency
    for start in np.flatnonzero(mask):
        start = int(start)
        if start in labels:
            continue
        labels[start] = order
        queue = [start]
        while queue:
            v = queue.pop(0)
            lo, hi = adj.indptr[v], adj.indptr[v + 1]
            for u in adj.indices[lo:hi].tolist():
                if mask[u] and u not in labels:
                    labels[u] = order
                    queue.append(u)
        order += 1
    return labels


def test_connected_components_against_bfs_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        mesh = _strip(7, 5)
        mask = rng.random(mesh.n_vertices) < rng.uniform(0.2, 0.8)
        got = connected_components(mesh, mask)
        want = _bfs_components(mesh, mask)
        n_want = len(set(want.values())) if want else 0
        assert got.count == n_want
        for v in range(mesh.n_vertices):
            if mask[v]:
                assert got.labels[v] == want[v]
            else:
                assert got.labels[v] == -1
        # patches are sorted id lists partitioning the mask
        together = np.concatenate([p for p in got.patches]) if n_want else \
            np.empty(0, dtype=np.int64)
        assert sorted(together.tolist()) == np.flatnonzero(mask).tolist()
        # patch k holds exactly the vertices labelled k, ascending, and
        # patches are ordered by their smallest vertex
        for k, patch in enumerate(got.patches):
            assert patch.tolist() == np.flatnonzero(got.labels == k).tolist()
        smallest = [int(p[0]) for p in got.patches]
        assert smallest == sorted(smallest)


@pytest.mark.parametrize("shape", SHAPES)
def test_adjacency_is_scipys_sorted_csr_byte_for_byte(shape):
    mesh = make_phantom(PhantomSpec(base_shape=shape))[0]
    e, w, n = mesh.edges, mesh.edge_lengths, mesh.n_vertices
    want = csr_matrix((np.concatenate([w, w]),
                       (np.concatenate([e[:, 0], e[:, 1]]),
                        np.concatenate([e[:, 1], e[:, 0]]))), shape=(n, n))
    want.sort_indices()
    got = mesh.adjacency
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
        assert not a.flags.writeable


def _relabeled(mesh, perm):
    """mesh with vertex v renumbered perm[v]."""
    return mesh.derive(np.argsort(perm), perm[mesh.triangles])


def _scipy_labels(mesh, mask):
    """Patch ids by scipy's component labeling of the masked subgraph,
    renumbered by each patch's smallest vertex."""
    keep = np.flatnonzero(mask)
    adj = _csr(mesh)[keep][:, keep]
    _, raw = csgraph.connected_components(adj, directed=False)
    _, first, inverse = np.unique(raw, return_index=True,
                                  return_inverse=True)
    labels = np.full(mesh.n_vertices, -1, dtype=np.int64)
    labels[keep] = np.argsort(np.argsort(first))[inverse]
    return labels


def _bit_reversed_path(bits=6):
    """A two-row grid whose first row, a path, is numbered in bit-reversed
    order: each hooking round then only joins neighbouring pairs of trees,
    so labeling its first row takes `bits` rounds."""
    n = 2 ** bits
    grid = plane_grid(n, 2)
    perm = np.arange(2 * n)
    perm[:n] = [int(format(j, f"0{bits}b")[::-1], 2) for j in range(n)]
    mask = np.zeros(2 * n, dtype=bool)
    mask[perm[:n]] = True
    return _relabeled(grid, perm), mask


def test_connected_components_match_scipy():
    rng = np.random.default_rng(5)
    disk = make_phantom(PhantomSpec())[0]
    cases = [_bit_reversed_path()]
    for _ in range(6):
        mesh = _relabeled(disk, rng.permutation(disk.n_vertices))
        cases.append((mesh, rng.random(mesh.n_vertices)
                      < rng.uniform(0.3, 0.7)))
    for mesh, mask in cases:
        got = connected_components(mesh, mask)
        want = _scipy_labels(mesh, mask)
        assert got.labels.tolist() == want.tolist()
        assert got.count == want.max() + 1
    assert connected_components(*cases[0]).count == 1


def test_connected_components_takes_only_bool_masks():
    mesh = _strip()
    n = mesh.n_vertices
    for bad in (np.full(n, 0.5), np.ones(n, dtype=np.int64), [1] * n):
        with pytest.raises(ValueError, match="mask"):
            connected_components(mesh, bad)
    assert connected_components(mesh, [True] * n).count == 1


def test_connected_components_empty_mask():
    mesh = _strip()
    got = connected_components(mesh, np.zeros(mesh.n_vertices, dtype=bool))
    assert got.count == 0
    assert np.all(got.labels == -1)


def test_edge_path_against_scipy_oracle():
    rng = np.random.default_rng(7)
    mesh = _strip(8, 6)
    adj = _csr(mesh)
    dist_all = csgraph.dijkstra(adj)
    for _ in range(30):
        src = rng.integers(0, mesh.n_vertices)
        dst = rng.integers(0, mesh.n_vertices)
        if src == dst:
            continue
        path = edge_path(mesh, [src], [dst])
        assert path[0] == src and path[-1] == dst
        # consecutive vertices share an edge; total length is optimal
        length = 0.0
        for a, b in zip(path[:-1], path[1:]):
            w = adj[a, b]
            assert w > 0
            length += w
        assert length == pytest.approx(dist_all[src, dst], rel=1e-12)


def test_edge_path_set_to_set_and_overlap():
    mesh = _strip(5, 5)
    path = edge_path(mesh, [0, 1], [1, 2])
    # overlapping sets: the shared vertex is the whole path
    assert path.tolist() == [1]
    with pytest.raises(TopologyError):
        edge_path(mesh, [], [3])


def test_edge_path_checks_its_ids():
    mesh = _strip(5, 5)
    for bad in ([0.5], [True], np.array([1.0])):
        with pytest.raises(ValueError, match="integers"):
            edge_path(mesh, bad, [3])
        with pytest.raises(ValueError, match="integers"):
            edge_path(mesh, [3], bad)
    for bad in ([-1], [mesh.n_vertices], [2, 10**12]):
        with pytest.raises(TopologyError, match="out of range"):
            edge_path(mesh, bad, [3])
        with pytest.raises(TopologyError, match="out of range"):
            edge_path(mesh, [3], bad)
    assert edge_path(mesh, np.array([0], dtype=np.uint8), [2]).tolist() \
        == [0, 1, 2]


def _cut_fixture():
    # 5x4 grid cut along the middle column, rim to rim
    mesh = plane_grid(5, 4)
    col = [2 + 5 * j for j in range(4)]
    return mesh, np.asarray(col, dtype=np.int64)


def test_cut_mesh_duplicates_every_path_vertex():
    mesh, path = _cut_fixture()
    cut = cut_mesh(mesh, path)
    assert cut.mesh.n_vertices == mesh.n_vertices + len(path)
    assert cut.mesh.n_triangles == mesh.n_triangles
    assert len(cut.side_a) == len(cut.side_b) == len(path)
    # twins coincide in space yet never share an edge or a triangle
    va = cut.mesh.vertices[cut.side_a]
    vb = cut.mesh.vertices[cut.side_b]
    assert np.array_equal(va, vb)
    edges = {tuple(e) for e in cut.mesh.edges.tolist()}
    twin_of = dict(zip(cut.side_a.tolist(), cut.side_b.tolist()))
    for a, b in twin_of.items():
        assert (min(a, b), max(a, b)) not in edges


def test_cut_mesh_seam_separates_sides():
    mesh, path = _cut_fixture()
    cut = cut_mesh(mesh, path)
    # no edge may join a side_a vertex to a side_b vertex (incl. endpoints),
    # otherwise paths could pivot around the seam
    sa = set(cut.side_a.tolist())
    sb = set(cut.side_b.tolist())
    for a, b in cut.mesh.edges.tolist():
        assert not (a in sa and b in sb)
        assert not (a in sb and b in sa)


def test_cut_mesh_reglue_oracle():
    # identifying twins again must reproduce the original triangulation
    mesh, path = _cut_fixture()
    cut = cut_mesh(mesh, path)
    glued = cut.parent_vertex[cut.mesh.triangles]
    orig = {tuple(sorted(t)) for t in mesh.triangles.tolist()}
    back = {tuple(sorted(t)) for t in glued.tolist()}
    assert orig == back
    # attributes copied to twins
    mesh2 = SurfaceMesh(vertices=mesh.vertices, triangles=mesh.triangles,
                        intensity=np.arange(mesh.n_vertices, dtype=float),
                        region=np.arange(mesh.n_vertices) % 4)
    cut2 = cut_mesh(mesh2, path)
    assert np.array_equal(cut2.mesh.intensity,
                          mesh2.intensity[cut2.parent_vertex])
    assert np.array_equal(cut2.mesh.region,
                          mesh2.region[cut2.parent_vertex])


def test_derive_takes_every_attribute_along_the_parent_map():
    grid = plane_grid(3, 3)
    n = grid.n_vertices
    mesh = SurfaceMesh(grid.vertices, grid.triangles,
                       intensity=np.arange(n) * 1.5, region=np.arange(n) % 3,
                       name="source",
                       point_data={"tag": (np.arange(n) * 2, "int")})
    # the lower-left quad, vertices reordered, plus a loose copy of vertex 4
    parent = [4, 0, 1, 3, 4]
    tris = [[1, 2, 0], [1, 0, 3]]
    out = mesh.derive(parent, tris)
    assert out.name == "source"
    assert out.triangles.tolist() == tris
    assert np.array_equal(out.vertices, mesh.vertices[parent])
    assert np.array_equal(out.intensity, mesh.intensity[parent])
    assert np.array_equal(out.region, mesh.region[parent])
    assert out.point_data["tag"][1] == "int"
    assert np.array_equal(out.point_data["tag"][0],
                          mesh.point_data["tag"][0][parent])
    assert mesh.derive(parent, tris, name="other").name == "other"
    bare = SurfaceMesh(grid.vertices, grid.triangles).derive(parent, tris)
    assert bare.intensity is None and bare.region is None
    assert bare.point_data == {}


def test_with_intensity_shares_arrays_and_derived_connectivity():
    grid = plane_grid(4, 3)
    n = grid.n_vertices
    mesh = SurfaceMesh(grid.vertices, grid.triangles, region=np.arange(n),
                       name="src", point_data={"tag": (np.ones(n), "float")})
    mesh.check_topology()
    adjacency = mesh.adjacency
    out = mesh.with_intensity(np.arange(n) * 0.5)
    assert out.intensity.tolist() == (np.arange(n) * 0.5).tolist()
    assert not out.intensity.flags.writeable
    assert mesh.intensity is None and out.name == "src"
    for a, b in ((out.vertices, mesh.vertices), (out.triangles, mesh.triangles),
                 (out.region, mesh.region)):
        assert a is b
    assert out.adjacency is adjacency and out.edges is mesh.edges
    assert out.point_data == mesh.point_data
    assert out.point_data is not mesh.point_data
    # the new values pass the constructor's checks
    with pytest.raises(MeshFormatError, match="NaN"):
        mesh.with_intensity(np.full(n, np.nan))
    with pytest.raises(MeshFormatError, match="length"):
        mesh.with_intensity(np.zeros(n - 1))


def test_cut_mesh_carries_every_attribute_to_its_parent_vertex():
    mesh, path = _cut_fixture()
    n = mesh.n_vertices
    mesh = SurfaceMesh(mesh.vertices, mesh.triangles,
                       intensity=np.linspace(-3.0, 7.0, n),
                       region=np.arange(n) % 5, name="labelled grid",
                       point_data={"wall": (np.arange(n) * 0.25, "float"),
                                   "tag": (np.arange(n) * 7 % 11, "int")})
    cut = cut_mesh(mesh, path)
    parent = cut.parent_vertex
    assert parent.tolist() == list(range(n)) + path.tolist()
    out = cut.mesh
    assert out.name == mesh.name
    assert np.array_equal(out.vertices, mesh.vertices[parent])
    assert np.array_equal(out.intensity, mesh.intensity[parent])
    assert np.array_equal(out.region, mesh.region[parent])
    assert list(out.point_data) == ["wall", "tag"]
    for key, (arr, kind) in mesh.point_data.items():
        got, got_kind = out.point_data[key]
        assert got_kind == kind and got.dtype == arr.dtype
        assert np.array_equal(got, arr[parent])


def test_cut_mesh_splits_annulus_into_disk():
    # cutting a ring along a radial path removes the inner/outer split:
    # boundary loop count drops from 2 to 1
    from pvgap.synth import PhantomSpec, make_phantom
    mesh, config, _ = make_phantom(PhantomSpec())
    from pvgap.regions import build_search_area
    area = build_search_area(mesh, config.areas[0])
    assert len(area.mesh.boundary_loops()) == 2
    cut = cut_mesh(area.mesh, area.cut_paths[0])
    assert len(cut.mesh.boundary_loops()) == 1


def test_cut_mesh_rejects_bad_paths():
    mesh, path = _cut_fixture()
    with pytest.raises(TopologyError):
        cut_mesh(mesh, path[:2])  # too short
    with pytest.raises(TopologyError):
        cut_mesh(mesh, [2, 7, 7, 12])  # repeated vertex
    with pytest.raises(TopologyError):
        cut_mesh(mesh, [0, 1, 2])  # runs along the rim, not across
    interior_only = [6, 7, 8]
    with pytest.raises(TopologyError):
        cut_mesh(mesh, interior_only)  # endpoints must be on the rim


def test_mesh_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    mesh = plane_grid(6, 5)
    mesh = SurfaceMesh(
        vertices=mesh.vertices + rng.normal(0, 0.01, mesh.vertices.shape),
        triangles=mesh.triangles,
        intensity=rng.normal(100, 15, mesh.n_vertices),
        region=rng.integers(0, 28, mesh.n_vertices),
        name="round trip probe",
        point_data={"extra": (rng.integers(0, 5, mesh.n_vertices), "int")})
    path = tmp_path / "m.vtk"
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert back.name == "round trip probe"
    assert np.array_equal(back.triangles, mesh.triangles)
    # 9 significant digits survive a write/read cycle bit-exactly after
    # the first cycle (values already quantized)
    save_mesh(back, tmp_path / "m2.vtk")
    assert (tmp_path / "m.vtk").read_bytes() == \
        (tmp_path / "m2.vtk").read_bytes()
    assert np.array_equal(back.region, mesh.region)
    assert "extra" in back.point_data


def test_load_mesh_rejects_garbage(tmp_path):
    p = tmp_path / "bad.vtk"
    p.write_text("not a polydata file\n")
    with pytest.raises(MeshFormatError):
        load_mesh(p)
    p2 = tmp_path / "trunc.vtk"
    p2.write_text("# vtk DataFile Version 3.0\nx\nASCII\nDATASET POLYDATA\n"
                  "POINTS 5 float\n0 0 0\n1 0 0\n")
    with pytest.raises(MeshFormatError):
        load_mesh(p2)
    p3 = tmp_path / "nan.vtk"
    save_mesh(plane_grid(3, 3), p3)
    lines = p3.read_text().splitlines()
    lines[5] = "nan 0 0"
    p3.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshFormatError):
        load_mesh(p3)
    # malformed count fields: a parse error, not a crash or a value error
    mesh = plane_grid(3, 3)
    good = tmp_path / "good.vtk"
    save_mesh(SurfaceMesh(mesh.vertices, mesh.triangles,
                          intensity=np.zeros(9)), good)
    text = good.read_text()
    for old, new in (("POINTS 9 float", "POINTS x float"),
                     ("POINTS 9 float", "POINTS -9 float"),
                     ("POLYGONS 8 32", "POLYGONS x 32"),
                     ("POLYGONS 8 32", "POLYGONS 8 1e3"),
                     ("POINT_DATA 9", "POINT_DATA"),
                     ("POINT_DATA 9", "POINT_DATA nine"),
                     ("SCALARS intensity float 1",
                      "SCALARS intensity float one"),
                     # region labels are integers, never truncated floats
                     ("SCALARS intensity float 1",
                      "SCALARS region float 1")):
        assert old in text
        bad = tmp_path / "count.vtk"
        bad.write_text(text.replace(old, new))
        with pytest.raises(MeshFormatError) as info:
            load_mesh(bad)
        # parser and constructor errors alike name the file, once
        assert str(info.value).count(str(bad)) == 1
        assert main(["quantify", "--mesh", str(bad), "--bp-mean", "100",
                     "--bp-sd", "10",
                     "--out", str(tmp_path / "r.json")]) == 2
        assert not (tmp_path / "r.json").exists()


def _swap_points_and_polygons(text):
    head, rest = text.split("POINTS", 1)
    points, rest = rest.split("POLYGONS", 1)
    polygons, tail = rest.split("POINT_DATA", 1)
    return f"{head}POLYGONS{polygons}POINTS{points}POINT_DATA{tail}"


@pytest.mark.parametrize("edit, message", [
    (lambda t: t.replace("# vtk DataFile", "# vtk Data File"),
     "missing polydata header line"),
    (lambda t: t.replace("\nASCII\n", "\nBINARY\n"),
     "only ASCII encoding is supported"),
    (lambda t: t.replace("DATASET POLYDATA", "DATASET UNSTRUCTURED_GRID"),
     "expected DATASET POLYDATA"),
    (_swap_points_and_polygons, "malformed POLYGONS section"),
    (lambda t: t.replace("POLYGONS 8 32", "POLYGONS 8 33"),
     "POLYGONS size 33 != 4*8; only triangles are supported"),
    (lambda t: t.replace("POLYGONS 8 32\n3 ", "POLYGONS 8 32\n4 "),
     "non-triangle cell present"),
    (lambda t: t.replace("POINT_DATA 9", "POINT_DATA 8"),
     "POINT_DATA count 8 != 9"),
    (lambda t: t.replace("intensity float 1", "intensity float 3"),
     "multi-component scalars unsupported"),
    (lambda t: t.replace("LOOKUP_TABLE default", "LOOKUP default"),
     "SCALARS without LOOKUP_TABLE"),
    (lambda t: t.replace("intensity float 1", "intensity char 1"),
     "unsupported scalar type char"),
    (lambda t: t + "CELL_DATA 8\n", "unsupported section 'CELL_DATA'"),
], ids=["header", "encoding", "dataset", "polygons-first", "polygons-size",
        "quad", "point-data-count", "components", "lookup-table",
        "scalar-type", "section"])
def test_load_mesh_names_each_refusal(edit, message, tmp_path):
    grid = plane_grid(3, 3)
    good = tmp_path / "good.vtk"
    save_mesh(SurfaceMesh(grid.vertices, grid.triangles,
                          intensity=np.zeros(9)), good)
    text = good.read_text()
    bad = tmp_path / "bad.vtk"
    bad.write_text(edit(text))
    assert bad.read_text() != text
    with pytest.raises(MeshFormatError) as info:
        load_mesh(bad)
    assert str(info.value) == f"{bad}: {message}"
    assert main(["quantify", "--mesh", str(bad), "--bp-mean", "100",
                 "--bp-sd", "10", "--out", str(tmp_path / "r.json")]) == 2
    assert not (tmp_path / "r.json").exists()


def _golden_mesh(name="golden"):
    return SurfaceMesh(vertices=[[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 1 / 3]],
                       triangles=[[0, 1, 2], [0, 2, 3]],
                       intensity=[1.5, -np.inf, 100.123456789, 1e-7],
                       region=[1, 2, 3, 4], name=name,
                       point_data={"lbl": ([0, -1, 7, 12], "int"),
                                   "w": ([0.1, 2.5e10, -3.0, 2 / 3], "float")})


GOLDEN = (
    "# vtk DataFile Version 3.0\ngolden\nASCII\nDATASET POLYDATA\n"
    "POINTS 4 float\n0 0 0\n1 0 0\n1 1 0\n0 1 0.333333333\n"
    "POLYGONS 2 8\n3 0 1 2\n3 0 2 3\n"
    "POINT_DATA 4\n"
    "SCALARS intensity float 1\nLOOKUP_TABLE default\n"
    "1.5\n-inf\n100.123457\n1e-07\n"
    "SCALARS region int 1\nLOOKUP_TABLE default\n1\n2\n3\n4\n"
    "SCALARS lbl int 1\nLOOKUP_TABLE default\n0\n-1\n7\n12\n"
    "SCALARS w float 1\nLOOKUP_TABLE default\n0.1\n2.5e+10\n-3\n0.666666667\n")


def _same_mesh(a, b):
    assert a.name == b.name
    for got, want in ((a.vertices, b.vertices), (a.triangles, b.triangles),
                      (a.intensity, b.intensity), (a.region, b.region)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert list(a.point_data) == list(b.point_data)
    for key, (arr, kind) in a.point_data.items():
        other, other_kind = b.point_data[key]
        assert kind == other_kind and arr.tobytes() == other.tobytes()


def test_save_mesh_golden_bytes(tmp_path):
    save_mesh(_golden_mesh(), tmp_path / "g.vtk")
    assert (tmp_path / "g.vtk").read_bytes() == GOLDEN.encode("ascii")


def test_load_mesh_reads_the_body_as_one_token_stream(tmp_path):
    (tmp_path / "g.vtk").write_text(GOLDEN)
    want = load_mesh(tmp_path / "g.vtk")
    # the same tokens, wrapped differently: section fields on their own
    # lines, 9 floats on one line, a cell split across lines, tabs, an
    # omitted component count and no final line break
    rewrapped = (
        "# vtk DataFile Version 3.0\ngolden\nASCII\nDATASET POLYDATA\n\n"
        "POINTS\n4\nfloat\n0 0 0 1 0 0 1 1 0\n0 1 0.333333333 POLYGONS 2\t8\n"
        "3 0 1\n2   3 0\n2 3\n"
        "POINT_DATA 4 SCALARS intensity float\n1 LOOKUP_TABLE default 1.5 -inf\n"
        "100.123457 1e-07\nSCALARS region int LOOKUP_TABLE default\n1 2 3 4\n"
        "SCALARS lbl int 1\nLOOKUP_TABLE default 0 -1 7 12 SCALARS w float 1 "
        "LOOKUP_TABLE\ndefault\n0.1 2.5e+10 -3 0.666666667")
    (tmp_path / "r.vtk").write_text(rewrapped)
    got = load_mesh(tmp_path / "r.vtk")
    _same_mesh(got, want)
    save_mesh(got, tmp_path / "again.vtk")
    assert (tmp_path / "again.vtk").read_text() == GOLDEN


def _rewrapped_variants():
    """(name, text) of the golden file, wrapped in other ways and broken in
    ways that each give one loader error."""
    lines = GOLDEN.splitlines(keepends=True)
    head = "".join(lines[:4])
    return [("golden", GOLDEN),
            ("one-line body", head + " ".join(GOLDEN[len(head):].split())),
            ("separators", head + "\x1c\t".join(GOLDEN[len(head):].split())
             + "\x1f"),
            ("truncated", GOLDEN[:GOLDEN.index("3 0 2 3")]),
            ("bad value", GOLDEN.replace("100.123457", "100.1.23457")),
            ("bad value, then truncated", GOLDEN[:GOLDEN.index("1 1 0")]
             .replace("1 0 0", "1 x 0")),
            ("index beyond int64", GOLDEN.replace("3 0 2 3",
                                                 "3 0 2 99999999999999999999"))]


def _load_outcome(path):
    try:
        mesh = load_mesh(path)
    except MeshFormatError as exc:
        return str(exc)
    save_mesh(mesh, path.with_suffix(".out"))
    return path.with_suffix(".out").read_bytes()


def test_load_mesh_reads_the_same_in_any_chunk_size(tmp_path, monkeypatch):
    # the body is split a chunk at a time, cut at whitespace: a chunk
    # boundary inside a section, a token or a run of separators changes no
    # value and no error, and too few tokens is still reported before a
    # bad value
    want = {}
    for name, text in _rewrapped_variants():
        (tmp_path / "f.vtk").write_text(text)
        want[name] = _load_outcome(tmp_path / "f.vtk")
    assert want["one-line body"] == want["separators"] == GOLDEN.encode()
    path = str(tmp_path / "f.vtk")
    assert want["truncated"] == f"{path}: unexpected end of file"
    assert want["bad value, then truncated"] == want["truncated"]
    assert want["bad value"] == f"{path}: bad numeric value"
    assert want["index beyond int64"] == want["bad value"]
    for chunk in (1, 2, 3, 5, 8, 13, 64):
        monkeypatch.setattr(mesh_module, "_TOKEN_CHUNK", chunk)
        for name, text in _rewrapped_variants():
            (tmp_path / "f.vtk").write_text(text)
            assert _load_outcome(tmp_path / "f.vtk") == want[name], \
                (chunk, name)


def test_save_mesh_writes_the_same_bytes_in_any_block_size(tmp_path,
                                                           monkeypatch):
    mesh = _golden_mesh()
    grid = plane_grid(6, 5)
    grid = SurfaceMesh(grid.vertices * np.pi, grid.triangles,
                       intensity=np.linspace(-1.0, 1.0, grid.n_vertices))
    want = []
    for m in (mesh, grid):
        save_mesh(m, tmp_path / "whole.vtk")
        want.append((tmp_path / "whole.vtk").read_bytes())
    assert want[0] == GOLDEN.encode("ascii")
    for block in (1, 2, 7):
        monkeypatch.setattr(mesh_module, "_SAVE_BLOCK", block)
        for m, data in zip((mesh, grid), want):
            save_mesh(m, tmp_path / "blocked.vtk")
            assert (tmp_path / "blocked.vtk").read_bytes() == data


def _traced_save_peak(mesh, path):
    """The traced peak of save_mesh(mesh, path) above what was allocated
    before it, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        save_mesh(mesh, path)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_save_mesh_peak_does_not_grow_with_the_mesh(tmp_path):
    # the text is formatted, encoded and written one block of rows at a
    # time, so the writer's peak is about one block's, whatever the mesh:
    # the 0.13 mm disk (72k vertices, a 5.0 MB file) may peak at most
    # 64 KiB above the 0.26 mm disk (18k)
    save_mesh(_golden_mesh(), tmp_path / "warm.vtk")
    peaks, sizes = [], []
    for edge in (0.26, 0.13):
        mesh, _config, _truth = make_phantom(PhantomSpec(
            target_edge_mm=edge, keep_fraction=0.75))
        path = tmp_path / f"disk-{edge}.vtk"
        peaks.append(_traced_save_peak(mesh, path))
        sizes.append(path.stat().st_size)
    assert sizes[1] > 3 * sizes[0]
    assert peaks[1] <= peaks[0] + 64 * 1024, peaks


def test_load_mesh_rejects_a_bare_lookup_table(tmp_path):
    # without a table name the first value would be taken for it
    lut = "LOOKUP_TABLE default\n"
    parts = GOLDEN.split(lut)
    for i in range(1, len(parts)):
        bad = tmp_path / f"bare{i}.vtk"
        bad.write_text(lut.join(parts[:i]) + "LOOKUP_TABLE\n"
                       + lut.join(parts[i:]))
        with pytest.raises(MeshFormatError):
            load_mesh(bad)


@pytest.mark.parametrize("name", ["two\nlines", "trailing\n", "cr\rname",
                                  "form\x0cfeed"])
def test_save_mesh_rejects_a_name_with_a_line_break(name, tmp_path):
    with pytest.raises(MeshFormatError):
        save_mesh(_golden_mesh(name), tmp_path / "out" / "m.vtk")
    assert not (tmp_path / "out").exists()


def test_save_mesh_rejects_a_non_ascii_name(tmp_path):
    with pytest.raises(MeshFormatError, match="ASCII"):
        save_mesh(_golden_mesh("L\u00dcPV"), tmp_path / "out" / "m.vtk")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["path_Left PV", "path_L\u00dcPV", "",
                                 "tab\tkey", "nul\x00key"])
def test_save_mesh_rejects_a_point_data_key_that_is_not_a_token(key,
                                                                  tmp_path):
    # the loader splits the body on whitespace: such a key would write a
    # file it rejects, or fail to encode halfway
    mesh = _golden_mesh()
    bad = SurfaceMesh(mesh.vertices, mesh.triangles, point_data={
        "ok": (np.zeros(mesh.n_vertices), "float"),
        key: (np.zeros(mesh.n_vertices, dtype=np.int64), "int")})
    with pytest.raises(MeshFormatError, match="point-data name"):
        save_mesh(bad, tmp_path / "out" / "m.vtk")
    assert not (tmp_path / "out").exists()


def test_write_atomic_creates_the_directory_and_cleans_up(tmp_path):
    target = tmp_path / "new" / "dir" / "out.bin"
    write_atomic(target, [b"pay", b"load"])
    assert target.read_bytes() == b"payload"
    assert [p.name for p in target.parent.iterdir()] == ["out.bin"]
    # a directory in the way fails the rename; the temp file goes
    taken = tmp_path / "taken"
    taken.mkdir()
    with pytest.raises(OSError):
        write_atomic(taken, [b"payload"])
    assert taken.is_dir()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new", "taken"]


def test_write_atomic_keeps_the_target_when_its_chunks_raise(tmp_path):
    # the chunks are written as they come, so a failure part-way has
    # already written some of them: the temp file goes and the target stays
    target = tmp_path / "out.vtk"
    target.write_bytes(b"old contents\n")

    def chunks():
        yield b"new "
        yield b"contents"
        raise MeshFormatError("failed part-way")

    with pytest.raises(MeshFormatError, match="part-way"):
        write_atomic(target, chunks())
    assert target.read_bytes() == b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.vtk"]
    # the same with no target yet: nothing is published
    with pytest.raises(MeshFormatError, match="part-way"):
        write_atomic(tmp_path / "new.vtk", chunks())
    assert [p.name for p in tmp_path.iterdir()] == ["out.vtk"]


def test_load_mesh_rejects_an_index_beyond_int64(tmp_path):
    bad = tmp_path / "big.vtk"
    bad.write_text(GOLDEN.replace("3 0 1 2", "3 0 1 99999999999999999999"))
    with pytest.raises(MeshFormatError):
        load_mesh(bad)


LONG_ZEROS = "0" * 5000  # past the 4300 digits int() reads from a string


@pytest.mark.parametrize("token, value", [
    (LONG_ZEROS + "9223372036854775807", 2**63 - 1),
    ("+" + LONG_ZEROS + "9223372036854775807", 2**63 - 1),
    ("-" + LONG_ZEROS + "9223372036854775808", -2**63)],
    ids=["maximum", "plus-maximum", "minimum"])
def test_load_mesh_reads_int64_extremes_behind_leading_zeros(token, value,
                                                             tmp_path):
    # np.fromstring reads a value beyond int64 as one of its extremes, so
    # a token read as one is checked against its spelling
    path = tmp_path / "extreme.vtk"
    path.write_text(GOLDEN.replace("\n0\n-1\n7\n", f"\n0\n{token}\n7\n"))
    labels, _kind = load_mesh(path).point_data["lbl"]
    assert labels.tolist() == [0, value, 7, 12]


def test_load_mesh_refuses_one_past_int64_behind_leading_zeros(tmp_path):
    path = tmp_path / "past.vtk"
    path.write_text(GOLDEN.replace(
        "\n0\n-1\n7\n", f"\n0\n{LONG_ZEROS}9223372036854775808\n7\n"))
    with pytest.raises(MeshFormatError, match="bad numeric value$"):
        load_mesh(path)


@pytest.mark.parametrize("old, new", [
    ("\n1 1 0\n", "\n1 1_0 0\n"), ("\n100.123457\n", "\n100.123_457\n"),
    ("default\n1\n2\n", "default\n1_0\n2\n")],
    ids=["coordinate", "intensity", "region"])
def test_load_mesh_refuses_a_number_spelled_with_underscore(old, new,
                                                             tmp_path):
    # Python's int() and float() read 1_0 as 10, but no VTK writer emits it
    assert GOLDEN.count(old) == 1
    bad = tmp_path / "underscore.vtk"
    bad.write_text(GOLDEN.replace(old, new))
    with pytest.raises(MeshFormatError, match="bad numeric value$"):
        load_mesh(bad)
    assert main(["quantify", "--mesh", str(bad), "--bp-mean", "100",
                 "--bp-sd", "10", "--out", str(tmp_path / "r.json")]) == 2
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("keyword, extra", [
    ("POINTS", "POINTS 4 float\n9 9 9\n8 8 8\n7 7 7\n6 6 6\n"),
    ("POLYGONS", "POLYGONS 2 8\n3 0 2 1\n3 0 3 2\n"),
    ("POINT_DATA", "POINT_DATA 4\n"),
    ("POINTS", "points 4 float\n9 9 9\n8 8 8\n7 7 7\n6 6 6\n"),
    ("'w'", "SCALARS w float 1\nLOOKUP_TABLE default\n1\n1\n1\n1\n"),
    ("'intensity'",
     "SCALARS intensity float 1\nLOOKUP_TABLE default\n7\n7\n7\n7\n"),
    ("'region'", "SCALARS region int 1\nLOOKUP_TABLE default\n0\n0\n0\n0\n"),
], ids=["points", "polygons", "point-data", "points-lower-case", "scalars",
        "intensity", "region"])
def test_load_mesh_refuses_a_repeated_section_or_array(keyword, extra,
                                                       tmp_path):
    # the second copy used to overwrite the first without a word: two
    # intensity arrays loaded the second, so scar came from other values
    bad = tmp_path / "twice.vtk"
    bad.write_text(GOLDEN + extra)
    with pytest.raises(MeshFormatError) as info:
        load_mesh(bad)
    assert str(info.value).startswith(f"{bad}: repeated ")
    assert keyword.strip("'").upper() in str(info.value).upper()
    out = tmp_path / "r.json"
    assert main(["quantify", "--mesh", str(bad), "--bp-mean", "100",
                 "--bp-sd", "10", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("key", ["intensity", "region"])
def test_surface_mesh_refuses_point_data_named_like_an_attribute(key):
    # save_mesh wrote such a mesh as two arrays of one name, and load_mesh
    # gave back the point-data copy in place of the attribute
    mesh = _golden_mesh()
    with pytest.raises(MeshFormatError, match=f"'{key}'"):
        SurfaceMesh(mesh.vertices, mesh.triangles, intensity=mesh.intensity,
                    region=mesh.region,
                    point_data={key: (np.arange(mesh.n_vertices), "int")})


def test_surface_mesh_takes_ids_as_integers_and_coordinates_as_numbers():
    v = np.zeros((3, 3))
    # 0.9, 1.2, 2.7 once truncated to the triangle 0, 1, 2
    with pytest.raises(MeshFormatError,
                       match="^triangles must be an integer array, got "
                             "dtype float64$"):
        SurfaceMesh(v, np.array([[0.9, 1.2, 2.7]]))
    for bad, dtype in ((v > 0.0, "bool"), (v.astype(str), "<U32")):
        with pytest.raises(MeshFormatError,
                           match=f"^vertices must be a numeric array, got "
                                 f"dtype {dtype}$"):
            SurfaceMesh(bad, [[0, 1, 2]])
    # integer ids and coordinates of any width pass, and an empty triangle
    # list of any dtype
    mesh = SurfaceMesh(np.arange(9, dtype=np.int32).reshape(3, 3),
                       np.array([[0, 1, 2]], dtype=np.uint8))
    assert mesh.vertices.dtype == np.float64
    assert mesh.triangles.tolist() == [[0, 1, 2]]
    for empty in ([], np.empty((0, 3)), np.empty(0, dtype=bool)):
        assert SurfaceMesh(v, empty).triangles.shape == (0, 3)


def test_loader_errors_name_a_short_relative_path(tmp_path, monkeypatch):
    # each name occurs inside its message ("missing ...", "duplicate ..."),
    # which once kept the JSON reader from naming the file at all
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m").write_text("# vtk DataFile Version 3.0\nm\nASCII\n"
                                "DATASET POLYDATA\n")
    with pytest.raises(MeshFormatError,
                       match="^m: missing POINTS or POLYGONS section$"):
        load_mesh("m")
    (tmp_path / "c").write_text('{"a": 1, "a": 2}')
    with pytest.raises(ConfigError, match='^c: duplicate key "a"$'):
        read_json("c")
