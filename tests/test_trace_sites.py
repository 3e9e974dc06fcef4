"""The call sites the benchmark's traced run wraps must exist.

perfbench/layers.py names pvgap functions by owner and attribute; a rename
in pvgap would otherwise only show up as a failing traced benchmark run.
"""

from pathlib import Path

import numpy as np

from pvgap import scar
from pvgap.gaps import build_graph, min_gap_path
from pvgap.geodesics import distance_transform
from pvgap.mesh import load_mesh, save_mesh
from pvgap.regions import build_search_area, open_area
from pvgap.scar import threshold_mask
from pvgap.synth import PhantomSpec, make_phantom, phantom_volume, plane_grid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_call_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import replacements
    from tracer import Tracer

    sites = replacements(Tracer())
    assert sites
    for owner, attr, wrapper in sites:
        # the traced run swaps vars(owner)[attr], so the name must be the
        # owner's own attribute, not an inherited one
        assert callable(vars(owner).get(attr)), (owner, attr)
        assert wrapper.__wrapped__ is vars(owner)[attr]


def test_dt_counter_reads_a_real_field(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import _dt

    mesh = plane_grid(6, 5)
    field = distance_transform(mesh, [4, 2, 4])
    assert _dt((mesh, [4, 2, 4]), {}, field) == {"sources": 2,
                                                 "vertices": 30}


def test_graph_counters_read_a_real_graph(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import _graph, _route, _solve

    spec = PhantomSpec(keep_fraction=0.75, patchiness=2, seed=3)
    mesh, config, _truth = make_phantom(spec)
    opened = open_area(build_search_area(mesh, config.areas[0]))
    mask = threshold_mask(opened.mesh.intensity, spec.blood_pool_mean,
                          spec.blood_pool_sd, 3.3)
    graph = build_graph(opened, mask)
    n = graph.n_patches
    assert n >= 2
    counts = _graph((opened, mask), {}, graph)
    assert counts["patches"] == n
    # the graph's edges are the pairs at or below its limit only
    kept = int(np.triu(graph.weights <= graph.limit, 1).sum())
    assert 0 < kept < n * (n - 1) // 2
    assert counts["geometries"] == kept
    assert counts["mask"][0] == opened.mesh.name

    path = min_gap_path(graph)
    assert len(path.node_sequence) >= 1
    assert _route((graph,), {}, path) == {
        "route_pairs": len(path.node_sequence) - 1}

    # the route solve is called positionally, but a keyword call counts too
    pairs = {"pairs": len(opened.side_a)}
    assert _solve((graph.weights, graph.start_w, graph.end_w), {},
                  None) == pairs
    assert _solve((graph.weights,), {"start_w": graph.start_w,
                                     "end_w": graph.end_w}, None) == pairs


def test_mesh_and_area_counters_read_real_results(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import _area_vertices, _twin_pairs, _vertices

    mesh, config, _truth = make_phantom(PhantomSpec())
    save_mesh(mesh, tmp_path / "mesh.vtk")
    loaded = load_mesh(tmp_path / "mesh.vtk")
    assert _vertices((tmp_path / "mesh.vtk",), {}, loaded) == {
        "vertices": mesh.n_vertices}
    area = build_search_area(mesh, config.areas[0])
    assert _area_vertices((mesh, config.areas[0]), {}, area) == {
        "vertices": area.mesh.n_vertices}
    opened = open_area(area)
    assert _twin_pairs((area,), {}, opened) == {
        "twin_pairs": len(area.cut_paths[0])}


def test_project_counter_reads_the_signature_of_mip_project(monkeypatch):
    """The counter binds each call to `mip_project`'s own signature, so a
    renamed or dropped reach_mm or step_mm fails here, not only in the
    traced run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import _project_counter

    spec = PhantomSpec()
    mesh, _config, _truth = make_phantom(spec)
    volume = phantom_volume(spec)
    counts = _project_counter(scar.mip_project)
    values = scar.mip_project(mesh, volume)
    steps = 2 * round(scar.MIP_REACH_MM / scar.MIP_STEP_MM) + 1
    assert counts((mesh, volume), {}, values) == {
        "samples": mesh.n_vertices * steps}
    values = scar.mip_project(mesh, volume, 1.0, step_mm=0.25)
    assert counts((mesh, volume, 1.0), {"step_mm": 0.25}, values) == {
        "samples": mesh.n_vertices * 9}
