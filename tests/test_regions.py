"""Region configs and search areas: validation, extraction, opening."""

import dataclasses
import json

import numpy as np
import pytest
from scipy.sparse import csgraph, csr_matrix

from pvgap import regions
from pvgap.errors import AreaError, ConfigError, TopologyError
from pvgap.mesh import SurfaceMesh
from pvgap.regions import (MAX_LABEL, AreaSpec, _cut_from_labels,
                           build_search_area, config_from_dict,
                           config_to_dict, default_config, load_config,
                           open_area, save_config, veins_of_joint)
from pvgap.synth import SHAPES, PhantomSpec, make_phantom, plane_grid


def _area_dict(**over):
    base = {"labels": [1, 2], "strategy": "independent",
            "cut": {"labels": [1, 2]}, "vein_seeds": [0]}
    base.update(over)
    return {"areas": {"A": base}}


def test_config_round_trip():
    cfg = config_from_dict(_area_dict())
    (spec,) = cfg.areas
    assert spec.name == "A"
    assert spec.labels == frozenset({1, 2})
    assert spec.n_veins == 1
    back = config_from_dict(config_to_dict(cfg))
    assert back.areas == (spec,)


@pytest.mark.parametrize("bad", [
    {"labels": []},
    {"labels": [1, 1]},
    {"labels": [28]},
    {"labels": [-1, 2]},
    {"strategy": "mixed"},
    {"cut": {"labels": [1, 1]}},
    {"cut": {"labels": [1, 5]}},          # pair outside the label set
    {"cut": {}},
    {"cut": {"labels": [1, 2], "vertices": [[0, 1, 2]]}},  # both forms
    {"vein_seeds": []},
    {"vein_seeds": [0, 0]},
    {"extra_key": 1},
])
def test_config_rejects_invalid_areas(bad, tmp_path):
    with pytest.raises(ConfigError):
        config_from_dict(_area_dict(**bad))
    # read from a file, the error names the file once
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(_area_dict(**bad)))
    with pytest.raises(ConfigError) as info:
        load_config(p)
    assert str(info.value).count(str(p)) == 1


@pytest.mark.parametrize("key, value, ints", [
    ("labels", [True, 2], [1, 2]),
    ("cut", {"labels": [True, 2]}, {"labels": [1, 2]}),
    ("cut", {"vertices": [[True, False, 5]]}, {"vertices": [[1, 0, 5]]}),
    ("vein_seeds", [True], [1]),
])
def test_config_refuses_json_booleans_as_integers(key, value, ints):
    # bool is an int subclass; the same entry with integers loads
    config_from_dict(_area_dict(**{key: ints}))
    with pytest.raises(ConfigError):
        config_from_dict(_area_dict(**{key: value}))


@pytest.mark.parametrize("name", ["Left PV", "L\u00dcPV", "", "A\tB",
                                  "LSPV\n", "x/../../../escaped", "a\\b"])
def test_config_rejects_area_names_that_are_not_tokens(name):
    # the name becomes the annotated mesh's array name path_<name>, and the
    # cohort table hist_<name>.csv, so it holds no path separator either
    data = {"areas": {name: _area_dict()["areas"]["A"]}}
    with pytest.raises(ConfigError, match="name"):
        config_from_dict(data)
    data["areas"]["Left-PV_2"] = data["areas"].pop(name)
    assert [a.name for a in config_from_dict(data).areas] == ["Left-PV_2"]


def test_joint_needs_two_seeds():
    with pytest.raises(ConfigError):
        config_from_dict(_area_dict(strategy="joint", vein_seeds=[0]))
    cfg = config_from_dict(_area_dict(strategy="joint", vein_seeds=[0, 5]))
    (spec,) = cfg.areas
    assert spec.name == "A" and spec.n_veins == 2


def test_underscore_keys_ignored(tmp_path):
    data = _area_dict()
    data["_comment"] = "ignored"
    data["areas"]["_template"] = {"anything": "goes"}
    data["areas"]["A"]["_note"] = "also ignored"
    cfg = config_from_dict(data)
    assert [a.name for a in cfg.areas] == ["A"]
    p = tmp_path / "c.json"
    p.write_text(json.dumps(data))
    assert [a.name for a in load_config(p).areas] == ["A"]


def test_config_file_round_trip(tmp_path):
    cfg = config_from_dict(_area_dict())
    save_config(cfg, tmp_path / "c.json")
    back = load_config(tmp_path / "c.json")
    assert back == cfg


def test_default_config_structure():
    areas = {a.name: a for a in default_config().areas}
    assert {"RSPV", "RIPV", "LSPV", "LIPV", "RightPVs", "LeftPVs"} == set(areas)
    for vein in ("RSPV", "RIPV", "LSPV", "LIPV"):
        assert areas[vein].strategy == "independent"
    for joint in ("RightPVs", "LeftPVs"):
        spec = areas[joint]
        assert spec.strategy == "joint"
        # the joint area covers both of its veins' labels
        for vein in veins_of_joint(joint):
            assert areas[vein].labels <= spec.labels


def test_build_search_area_independent():
    mesh, config, _ = make_phantom(PhantomSpec())
    spec = config.areas[0]
    area = build_search_area(mesh, spec)
    assert area.name == spec.name
    assert len(area.vein_loops) == 1
    assert len(area.cut_paths) == 1
    # the cut runs from the outer rim to the vein rim
    cut = area.cut_paths[0]
    vein = set(area.vein_loops[0].tolist())
    assert cut[-1] in vein and cut[0] not in vein
    # submesh vertices map back into the parent
    assert np.array_equal(
        area.mesh.vertices, mesh.vertices[area.parent_vertex])


def test_build_search_area_joint():
    mesh, config, _ = make_phantom(
        PhantomSpec(base_shape="two-hole-plate"))
    area = build_search_area(mesh, config.areas[0])
    assert len(area.vein_loops) == 2
    assert len(area.cut_paths) == 2
    # the two cuts never touch (vertex-disjoint)
    assert not set(area.cut_paths[0]) & set(area.cut_paths[1])


def test_build_search_area_missing_labels():
    mesh, config, _ = make_phantom(PhantomSpec())
    spec = config.areas[0]
    bad = AreaSpec(name=spec.name, labels=frozenset({25, 26}),
                   strategy=spec.strategy, cut_labels=(25, 26),
                   cut_vertices=None, vein_seeds=spec.vein_seeds)
    with pytest.raises(AreaError):
        build_search_area(mesh, bad)


def test_open_area_independent_becomes_disk():
    mesh, config, _ = make_phantom(PhantomSpec())
    area = build_search_area(mesh, config.areas[0])
    opened = open_area(area)
    assert len(opened.mesh.boundary_loops()) == 1
    m = len(opened.side_a)
    assert m == len(area.cut_paths[0])
    # twin pairs coincide in space
    assert np.allclose(opened.mesh.vertices[opened.side_a],
                       opened.mesh.vertices[opened.side_b])
    # parent chain maps opened ids to original mesh coordinates
    assert np.allclose(opened.mesh.vertices,
                       mesh.vertices[opened.parent_vertex])


def test_open_area_joint_two_cuts_make_disk():
    mesh, config, _ = make_phantom(PhantomSpec(base_shape="two-hole-plate"))
    area = build_search_area(mesh, config.areas[0])
    # pair of pants: 3 boundary loops before cutting, disk after both cuts
    assert len(area.mesh.boundary_loops()) == 3
    opened = open_area(area)
    assert len(opened.mesh.boundary_loops()) == 1
    # side arrays of the primary cut survive the second cut
    assert len(opened.side_a) == len(area.cut_paths[0])


@pytest.mark.parametrize("shape", ["disk-with-hole", "two-hole-plate"])
def test_open_area_maps_each_vertex_to_the_case_mesh(shape):
    # the case mesh holds a piece outside the area first, so the ids of the
    # area's submesh are not those of the case mesh
    phantom, config, _ = make_phantom(PhantomSpec(base_shape=shape))
    extra = plane_grid(3, 3)
    k = extra.n_vertices
    mesh = SurfaceMesh(
        np.concatenate([extra.vertices - [100.0, 0.0, 0.0],
                        phantom.vertices]),
        np.concatenate([extra.triangles, phantom.triangles + k]),
        intensity=np.concatenate([np.full(k, -1.0), phantom.intensity]),
        region=np.concatenate([np.full(k, MAX_LABEL), phantom.region]))
    (spec,) = config.areas
    spec = dataclasses.replace(
        spec, vein_seeds=tuple(s + k for s in spec.vein_seeds))
    opened = open_area(build_search_area(mesh, spec))
    to_mesh = opened.parent_vertex
    assert np.array_equal(np.unique(to_mesh), np.arange(k, mesh.n_vertices))
    assert opened.mesh.vertices.tobytes() == mesh.vertices[to_mesh].tobytes()
    assert np.array_equal(opened.mesh.intensity, mesh.intensity[to_mesh])
    assert np.array_equal(opened.mesh.region, mesh.region[to_mesh])
    assert not to_mesh.flags.writeable


def _cut_raising(monkeypatch, error):
    def cut_mesh(mesh, path):
        raise error("bad cut")
    monkeypatch.setattr(regions, "cut_mesh", cut_mesh)
    mesh, config, _ = make_phantom(PhantomSpec())
    return build_search_area(mesh, config.areas[0])


def test_open_area_fails_the_area_when_a_cut_cannot_open_it(monkeypatch):
    area = _cut_raising(monkeypatch, TopologyError)
    with pytest.raises(AreaError,
                       match="^area LSPV: primary cut failed: bad cut$"):
        open_area(area)


def test_open_area_lets_a_bug_in_the_cut_through(monkeypatch):
    area = _cut_raising(monkeypatch, IndexError)
    with pytest.raises(IndexError, match="bad cut"):
        open_area(area)


def test_open_area_flood_cannot_cross_seam():
    mesh, config, _ = make_phantom(PhantomSpec())
    opened = open_area(build_search_area(mesh, config.areas[0]))
    # breadth-first growth from side_a with side_b removed must never
    # reach any side_b vertex through the seam
    blocked = set(opened.side_b.tolist())
    seen = set(opened.side_a.tolist())
    frontier = list(seen)
    adj = opened.mesh.adjacency
    while frontier:
        nxt = []
        for v in frontier:
            lo, hi = adj.indptr[v], adj.indptr[v + 1]
            for u in adj.indices[lo:hi].tolist():
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    # everything except the duplicates is reachable; the seam itself holds
    assert not (blocked & set(opened.side_a.tolist()))
    direct = {tuple(sorted(e)) for e in opened.mesh.edges.tolist()}
    for a, b in zip(opened.side_a.tolist(), opened.side_b.tolist()):
        assert (min(a, b), max(a, b)) not in direct


def test_explicit_cut_vertices():
    mesh, config, _ = make_phantom(PhantomSpec())
    spec = config.areas[0]
    derived = build_search_area(mesh, spec)
    # feed the derived cut back as an explicit vertex path (parent ids)
    explicit_path = derived.parent_vertex[np.asarray(derived.cut_paths[0])]
    explicit = AreaSpec(name=spec.name, labels=spec.labels,
                        strategy=spec.strategy, cut_labels=None,
                        cut_vertices=(tuple(int(v) for v in explicit_path),),
                        vein_seeds=spec.vein_seeds)
    area = build_search_area(mesh, explicit)
    assert np.array_equal(area.cut_paths[0], derived.cut_paths[0])


def test_search_area_carries_every_attribute_to_its_parent_vertex():
    mesh, config, _ = make_phantom(PhantomSpec())
    n = mesh.n_vertices
    mesh = SurfaceMesh(mesh.vertices, mesh.triangles,
                       intensity=mesh.intensity, region=mesh.region,
                       name=mesh.name,
                       point_data={"wall": (np.arange(n) * 0.5, "float"),
                                   "tag": (np.arange(n) % 13, "int")})
    spec = config.areas[0]
    area = build_search_area(mesh, spec)
    parent = area.parent_vertex
    sub = area.mesh
    assert sub.name == f"{mesh.name}:{spec.name}"
    assert np.array_equal(sub.intensity, mesh.intensity[parent])
    assert np.array_equal(sub.region, mesh.region[parent])
    assert list(sub.point_data) == ["wall", "tag"]
    for key, (arr, kind) in mesh.point_data.items():
        got, got_kind = sub.point_data[key]
        assert got_kind == kind and got.dtype == arr.dtype
        assert np.array_equal(got, arr[parent])
    # the opened area keeps them too, through its own parent map
    opened = open_area(area)
    to_mesh = opened.parent_vertex
    assert np.array_equal(opened.mesh.intensity, mesh.intensity[to_mesh])
    assert np.array_equal(opened.mesh.point_data["tag"][0],
                          mesh.point_data["tag"][0][to_mesh])


@pytest.mark.parametrize("which", ["minus_one", "count", "huge"])
def test_ids_outside_the_mesh_are_outside_the_area(which):
    # the config loader refuses negative ids, so the spec is built directly
    mesh, config, _ = make_phantom(PhantomSpec())
    bad = {"minus_one": -1, "count": mesh.n_vertices, "huge": 10**9}[which]
    spec = config.areas[0]
    with pytest.raises(AreaError, match=f"vein seed {bad} lies outside"):
        build_search_area(mesh, dataclasses.replace(spec, vein_seeds=(bad,)))
    derived = build_search_area(mesh, spec)
    path = derived.parent_vertex[np.asarray(derived.cut_paths[0])].tolist()
    path[1] = bad
    explicit = dataclasses.replace(spec, cut_labels=None,
                                   cut_vertices=(tuple(path),))
    with pytest.raises(AreaError,
                       match=f"cut vertex {bad} outside the area"):
        build_search_area(mesh, explicit)


def _interface(region, vein_rows=(), nx=7, ny=5):
    """A plane grid labelled row-major by `region` (nx per row), the spec
    cutting along the (1, 2) interface and a vein rim on the given rows."""
    grid = plane_grid(nx, ny)
    sub = SurfaceMesh(grid.vertices, grid.triangles,
                      region=np.asarray(region).reshape(-1))
    spec = AreaSpec(name="A", labels=frozenset({1, 2}),
                    strategy="independent", cut_labels=(1, 2),
                    cut_vertices=None, vein_seeds=(0,))
    vein = np.zeros(nx * ny, dtype=bool)
    for row in vein_rows:
        vein[row * nx:(row + 1) * nx] = True
    return sub, spec, vein


def _columns(split, nx=7, ny=5):
    """Label 1 left of column `split`, label 2 from it on."""
    return np.where(np.arange(nx) < split, 1, 2)[None, :].repeat(ny, axis=0)


def test_cut_from_labels_orients_a_straight_interface():
    # label 1 meets label 2 along column 2: the chain runs up that column
    column = [2 + 7 * row for row in range(5)]
    sub, spec, vein = _interface(_columns(3), vein_rows=[4])
    assert list(_cut_from_labels(sub, spec, vein)) == column
    # with the vein rim at the bottom the chain starts at the top instead
    sub, spec, vein = _interface(_columns(3), vein_rows=[0])
    assert list(_cut_from_labels(sub, spec, vein)) == column[::-1]


@pytest.mark.parametrize("shape", SHAPES)
def test_cut_from_labels_walks_the_chain_in_depth_first_order(shape):
    # oracle: scipy's depth-first order over the interface's own edges,
    # from the end the cut starts at
    mesh, config, _ = make_phantom(PhantomSpec(base_shape=shape))
    spec = config.areas[0]
    area = build_search_area(mesh, spec)
    sub, cut = area.mesh, list(area.cut_paths[0])
    first, second = spec.cut_labels
    e, lab = sub.edges, sub.region[sub.edges]
    on = np.zeros(sub.n_vertices, dtype=bool)
    on[e[(lab[:, 0] == first) & (lab[:, 1] == second), 0]] = True
    on[e[(lab[:, 1] == first) & (lab[:, 0] == second), 1]] = True
    link = e[on[e[:, 0]] & on[e[:, 1]]]
    n = sub.n_vertices
    g = csr_matrix((np.ones(len(link)), (link[:, 0], link[:, 1])),
                   shape=(n, n))
    want = csgraph.depth_first_order(g, cut[0], directed=False,
                                     return_predecessors=False)
    assert cut == want.tolist()
    assert len(cut) == on.sum() > 3


def test_cut_from_labels_refuses_a_short_interface():
    sub, spec, vein = _interface(_columns(3, ny=2), vein_rows=[1], ny=2)
    with pytest.raises(AreaError, match="fewer than 3 vertices"):
        _cut_from_labels(sub, spec, vein)


def test_cut_from_labels_refuses_a_branching_interface():
    # label 2 also covers the top row left of column 2, so row 3 joins the
    # column-2 chain: a T
    region = _columns(3)
    region[4, :2] = 2
    sub, spec, vein = _interface(region, vein_rows=[0])
    with pytest.raises(AreaError, match="not a simple chain"):
        _cut_from_labels(sub, spec, vein)


def test_cut_from_labels_refuses_a_chain_plus_a_cycle():
    # an interior island of label 2 rings itself with interface vertices
    # that form a cycle apart from the column-4 chain
    region = _columns(5)
    region[2, 1] = 2
    sub, spec, vein = _interface(region, vein_rows=[4])
    with pytest.raises(AreaError, match="not a single chain"):
        _cut_from_labels(sub, spec, vein)


def test_cut_from_labels_needs_one_end_on_the_vein_rim():
    """The (1, 2) interface runs up column 2 from the outer loop to the
    outer loop of a 9 x 5 grid with a hole round vertex 24 (row 2, column
    6). The area fails whether the vein is the outer loop, which holds both
    ends, or the hole, which holds neither: `build_search_area` checks the
    ends of every cut, derived or explicit."""
    grid, spec, _vein = _interface(_columns(3, nx=9), nx=9)
    keep = ~(grid.triangles == 24).any(axis=1)
    holed = SurfaceMesh(grid.vertices, grid.triangles[keep],
                        region=grid.region)
    assert len(holed.boundary_loops()) == 2
    for seed in (0, 23):  # a corner; a vertex of the hole
        with pytest.raises(AreaError, match="^area A: primary cut must join "
                           "a vein rim to a boundary loop that is not a "
                           "vein's$"):
            build_search_area(holed, dataclasses.replace(
                spec, vein_seeds=(seed,)))


def _explicit(spec, *paths):
    return dataclasses.replace(spec, cut_labels=None, cut_vertices=tuple(
        tuple(int(v) for v in p) for p in paths))


def test_an_explicit_cut_must_join_the_loops_it_opens():
    """Before this rule an explicit cut was checked only by `cut_mesh`,
    whose ends may lie on any boundary. A primary cut that stops short of
    the vein loop, a joint area's primary cut between its two vein loops,
    or an inter-vein cut that stops short of one, now fails its area."""
    mesh, config, _ = make_phantom(PhantomSpec())
    (spec,) = config.areas
    area = build_search_area(mesh, spec)
    cut = area.parent_vertex[np.asarray(area.cut_paths[0])]
    assert build_search_area(mesh, _explicit(spec, cut)).cut_paths == (
        area.cut_paths)
    with pytest.raises(AreaError, match="primary cut must join"):
        build_search_area(mesh, _explicit(spec, cut[:-1]))

    mesh, config, _ = make_phantom(PhantomSpec(base_shape="two-hole-plate"))
    (spec,) = config.areas
    area = build_search_area(mesh, spec)
    primary, iv = (area.parent_vertex[np.asarray(p)]
                   for p in area.cut_paths)
    assert build_search_area(mesh, _explicit(spec, primary, iv)).cut_paths \
        == area.cut_paths
    with pytest.raises(AreaError, match="^area RightPVs: inter-vein cut "
                       "must join the two vein rims$"):
        build_search_area(mesh, _explicit(spec, primary, iv[:-1]))
    with pytest.raises(AreaError, match="primary cut must join"):
        build_search_area(mesh, _explicit(spec, iv, primary))
