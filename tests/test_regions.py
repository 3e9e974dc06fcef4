"""Region configs and search areas: validation, extraction, opening."""

import dataclasses
import json

import numpy as np
import pytest

from pvgap.errors import AreaError, ConfigError
from pvgap.mesh import SurfaceMesh
from pvgap.regions import (AreaSpec, _cut_from_labels, build_search_area,
                           config_from_dict, config_to_dict, default_config,
                           load_config, open_area, save_config,
                           veins_of_joint)
from pvgap.synth import PhantomSpec, make_phantom, plane_grid


def _area_dict(**over):
    base = {"labels": [1, 2], "strategy": "independent",
            "cut": {"labels": [1, 2]}, "vein_seeds": [0]}
    base.update(over)
    return {"areas": {"A": base}}


def test_config_round_trip():
    cfg = config_from_dict(_area_dict())
    assert cfg.names() == ("A",)
    spec = cfg.area("A")
    assert spec.labels == frozenset({1, 2})
    assert spec.n_veins == 1
    back = config_from_dict(config_to_dict(cfg))
    assert back.area("A") == spec


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
def test_config_rejects_invalid_areas(bad):
    with pytest.raises(ConfigError):
        config_from_dict(_area_dict(**bad))


@pytest.mark.parametrize("name", ["Left PV", "L\u00dcPV", "", "A\tB",
                                  "LSPV\n"])
def test_config_rejects_area_names_that_are_not_tokens(name):
    # the name becomes the annotated mesh's array name path_<name>
    data = {"areas": {name: _area_dict()["areas"]["A"]}}
    with pytest.raises(ConfigError, match="name"):
        config_from_dict(data)
    data["areas"]["Left-PV_2"] = data["areas"].pop(name)
    assert config_from_dict(data).names() == ("Left-PV_2",)


def test_joint_needs_two_seeds():
    with pytest.raises(ConfigError):
        config_from_dict(_area_dict(strategy="joint", vein_seeds=[0]))
    cfg = config_from_dict(_area_dict(strategy="joint", vein_seeds=[0, 5]))
    assert cfg.area("A").n_veins == 2


def test_underscore_keys_ignored(tmp_path):
    data = _area_dict()
    data["_comment"] = "ignored"
    data["areas"]["_template"] = {"anything": "goes"}
    data["areas"]["A"]["_note"] = "also ignored"
    cfg = config_from_dict(data)
    assert cfg.names() == ("A",)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(data))
    assert load_config(p).names() == ("A",)


def test_config_file_round_trip(tmp_path):
    cfg = config_from_dict(_area_dict())
    save_config(cfg, tmp_path / "c.json")
    back = load_config(tmp_path / "c.json")
    assert back == cfg


def test_default_config_structure():
    cfg = default_config()
    names = set(cfg.names())
    assert {"RSPV", "RIPV", "LSPV", "LIPV", "RightPVs", "LeftPVs"} == names
    for vein in ("RSPV", "RIPV", "LSPV", "LIPV"):
        assert cfg.area(vein).strategy == "independent"
    for joint in ("RightPVs", "LeftPVs"):
        spec = cfg.area(joint)
        assert spec.strategy == "joint"
        # the joint area covers both of its veins' labels
        for vein in veins_of_joint(joint):
            assert cfg.area(vein).labels <= spec.labels


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
    orig = area.parent_vertex[opened.parent_vertex]
    assert np.allclose(opened.mesh.vertices, mesh.vertices[orig])


def test_open_area_joint_two_cuts_make_disk():
    mesh, config, _ = make_phantom(PhantomSpec(base_shape="two-hole-plate"))
    area = build_search_area(mesh, config.areas[0])
    # pair of pants: 3 boundary loops before cutting, disk after both cuts
    assert len(area.mesh.boundary_loops()) == 3
    opened = open_area(area)
    assert len(opened.mesh.boundary_loops()) == 1
    # side arrays of the primary cut survive the second cut
    assert len(opened.side_a) == len(area.cut_paths[0])


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
    # the opened area keeps them too, through both parent maps
    opened = open_area(area)
    to_mesh = parent[opened.parent_vertex]
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
    sub, spec, vein = _interface(_columns(3), vein_rows=[0, 4])
    with pytest.raises(AreaError, match="must join the vein rim"):
        _cut_from_labels(sub, spec, vein)
    sub, spec, vein = _interface(_columns(3), vein_rows=[])
    with pytest.raises(AreaError, match="must join the vein rim"):
        _cut_from_labels(sub, spec, vein)
