"""Mesh core: topology queries, labeling, edge paths, cutting, file IO.

Derived behaviors are checked against independent oracles: scipy's CSR
matrix for the adjacency, breadth-first flood fill and scipy's component
labeling for patches, scipy's shortest path for edge routes, and a re-glue
pass (identify twins again) for cutting.
"""

import numpy as np
import pytest
from scipy.sparse import csgraph, csr_matrix

from pvgap.cli import main
from pvgap.errors import MeshFormatError, TopologyError
from pvgap.mesh import (SurfaceMesh, connected_components, cut_mesh,
                        edge_path, load_mesh, save_mesh, write_atomic)
from pvgap.synth import SHAPES, PhantomSpec, make_phantom, plane_grid


def _strip(n=6, m=4):
    return plane_grid(n, m)


def _csr(mesh):
    """mesh.adjacency as a scipy matrix, for scipy's graph routines."""
    adj, n = mesh.adjacency, mesh.n_vertices
    return csr_matrix((adj.data, adj.indices, adj.indptr), shape=(n, n))


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
    half_edges = {tuple(e) for e in mesh.directed_edges.tolist()}
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
    values = np.zeros(9)
    values[2] = np.nan
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
        with pytest.raises(MeshFormatError):
            load_mesh(bad)
        assert main(["quantify", "--mesh", str(bad), "--bp-mean", "100",
                     "--bp-sd", "10",
                     "--out", str(tmp_path / "r.json")]) == 2
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
    write_atomic(target, b"payload")
    assert target.read_bytes() == b"payload"
    assert [p.name for p in target.parent.iterdir()] == ["out.bin"]
    # a directory in the way fails the rename; the temp file goes
    taken = tmp_path / "taken"
    taken.mkdir()
    with pytest.raises(OSError):
        write_atomic(taken, b"payload")
    assert taken.is_dir()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new", "taken"]


def test_load_mesh_rejects_an_index_beyond_int64(tmp_path):
    bad = tmp_path / "big.vtk"
    bad.write_text(GOLDEN.replace("3 0 1 2", "3 0 1 99999999999999999999"))
    with pytest.raises(MeshFormatError):
        load_mesh(bad)
