"""Region configs and search areas: validation, extraction, opening."""

import json

import numpy as np
import pytest

from pvgap.errors import AreaError, ConfigError
from pvgap.regions import (AreaSpec, build_search_area, config_from_dict,
                           config_to_dict, default_config, load_config,
                           open_area, save_config, veins_of_joint)
from pvgap.synth import PhantomSpec, make_phantom


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
