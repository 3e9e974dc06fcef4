"""One input rule at every public entry point.

Each row calls a public callable with one bad value: a non-finite number,
a bool taken for a number, a float where an integer or a bool mask belongs,
or a value of the wrong type. The call must raise the error type that
callable raises for bad input, naming the parameter, and must neither
return a result nor emit a warning.
"""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from pvgap import (ConfigError, MeshFormatError, PhantomSpec, ScalarVolume,
                   SurfaceMesh, VolumeFormatError, blood_pool_stats,
                   histogram, make_phantom, mip_project, rgm_nauc, run_case,
                   threshold_mask, welch_t_test)
from pvgap.gaps import build_graph
from pvgap.geodesics import distance_transform, geodesic_path, trace_path
from pvgap.mesh import connected_components, edge_path
from pvgap.regions import build_search_area, open_area
from pvgap.synth import icosphere

NAN, INF = math.nan, math.inf
VOLUME = {"values": np.zeros((2, 2, 2)), "spacing": (1.0, 1.0, 1.0),
          "origin": (0.0, 0.0, 0.0), "direction": np.eye(3)}


@pytest.fixture(scope="module")
def ctx():
    mesh, config, _truth = make_phantom(
        PhantomSpec(keep_fraction=0.5, target_edge_mm=2.0))
    return SimpleNamespace(
        mesh=mesh, config=config, volume=ScalarVolume(**VOLUME),
        opened=open_area(build_search_area(mesh, config.areas[0])))


# each callable with valid arguments, a keyword overriding one of them
CALLS = {
    "ScalarVolume": lambda c, **kw: ScalarVolume(**{**VOLUME, **kw}),
    "threshold_mask": lambda c, **kw: threshold_mask(
        c.mesh.intensity, **{"mean": 100.0, "sd": 10.0, "factor": 2.0, **kw}),
    "blood_pool_stats": lambda c, **kw: blood_pool_stats(c.volume, **kw),
    "build_graph": lambda c, **kw: build_graph(c.opened, **kw),
    "PhantomSpec": lambda c, **kw: PhantomSpec(**kw),
    "icosphere": lambda c, **kw: icosphere(**kw),
    "histogram": lambda c, **kw: histogram(**{"values": [0.1], **kw}),
    "mip_project": lambda c, **kw: mip_project(c.mesh, c.volume, **kw),
    "run_case": lambda c, **kw: run_case(
        c.mesh, c.config, **{"bp_mean": 100.0, "bp_sd": 10.0, **kw}),
    "rgm_nauc": lambda c, **kw: rgm_nauc(
        **{"factors": [2.0, 3.0], "values": [0.1, 0.2], **kw}),
    "welch_t_test": lambda c, **kw: welch_t_test(
        **{"sample_a": [1.0, 2.0, 3.0], "sample_b": [1.0, 2.0, 4.0], **kw}),
    "SurfaceMesh": lambda c, **kw: SurfaceMesh(
        c.mesh.vertices, c.mesh.triangles, **kw),
    "edge_path": lambda c, **kw: edge_path(
        c.mesh, **{"sources": [0], "targets": [1], **kw}),
    "connected_components": lambda c, **kw: connected_components(c.mesh,
                                                                 **kw),
    "geodesic_path": lambda c, **kw: geodesic_path(
        c.mesh, **{"src": 0, "dst": 1, **kw}),
    "trace_path": lambda c, **kw: trace_path(
        distance_transform(c.mesh, [0]), **kw),
}


def _per_vertex(value):
    """A float array over the vertices of the mesh the callable reads."""
    return lambda mesh: np.full(mesh.n_vertices, value)


# (callable, parameter, bad value, expected error, what the message names);
# a callable bad value is built on the mesh the callable reads
ROWS = [
    ("ScalarVolume", "spacing", (NAN, 1.0, 1.0), VolumeFormatError,
     "spacing"),
    ("ScalarVolume", "spacing", (True, 1.0, 1.0), VolumeFormatError,
     "spacing"),
    ("ScalarVolume", "origin", (INF, 0.0, 0.0), VolumeFormatError, "origin"),
    ("threshold_mask", "mean", NAN, ValueError, "mean"),
    ("threshold_mask", "factor", True, ValueError, "factor"),
    ("blood_pool_stats", "mask", np.full((2, 2, 2), 0.5), ValueError, "mask"),
    ("build_graph", "scar_mask", _per_vertex(0.5), ValueError, "scar_mask"),
    ("PhantomSpec", "keep_fraction", True, ValueError, "keep_fraction"),
    ("PhantomSpec", "target_edge_mm", True, ValueError, "target_edge_mm"),
    ("PhantomSpec", "taper", (True, 2.0), ValueError, "taper"),
    ("PhantomSpec", "blood_pool_mean", "100", ValueError, "blood_pool_mean"),
    ("PhantomSpec", "removed_intervals", ((0.0, NAN),), ValueError,
     "removed_intervals"),
    ("PhantomSpec", "removed_intervals", ((INF, 1.0),), ValueError,
     "removed_intervals"),
    ("PhantomSpec", "removed_intervals", (0.0, 1.0), ValueError,
     "removed_intervals"),
    ("PhantomSpec", "removed_intervals", ((1.0, "a"),), ValueError,
     "removed_intervals"),
    ("PhantomSpec", "patchiness", 1.5, ValueError, "patchiness"),
    ("PhantomSpec", "patchiness", True, ValueError, "patchiness"),
    ("icosphere", "radius", True, ValueError, "radius"),
    ("icosphere", "subdivisions", -1, ValueError, "subdivisions"),
    ("histogram", "bin_width", True, ValueError, "bin_width"),
    ("histogram", "bin_width", 0.0, ValueError, "bin_width"),
    ("histogram", "values", [0.1, NAN], ValueError, "values"),
    ("mip_project", "step_mm", True, ValueError, "step_mm"),
    ("mip_project", "reach_mm", NAN, ValueError, "reach_mm"),
    ("mip_project", "reach_mm", INF, ValueError, "reach_mm"),
    ("run_case", "factors", (True, 3.3), ConfigError, "factors"),
    ("run_case", "bp_mean", True, ConfigError, "bp_mean"),
    ("run_case", "bp_sd", True, ConfigError, "bp_sd"),
    ("run_case", "ref_factor", True, ConfigError, "ref_factor"),
    ("rgm_nauc", "factors", [False, True], ValueError, "factors"),
    ("rgm_nauc", "values", [0.1, NAN], ValueError, "values"),
    ("welch_t_test", "sample_a", [1.0, 2.0, NAN], ValueError, "sample_a"),
    ("welch_t_test", "sample_b", [1.0, 2.0, INF], ValueError, "sample_b"),
    ("SurfaceMesh", "region", _per_vertex(1.5), MeshFormatError, "region"),
    ("SurfaceMesh", "point_data",
     lambda mesh: {"tag": (np.full(mesh.n_vertices, 1.5), "int")},
     MeshFormatError, "tag"),
    ("edge_path", "sources", [0.5], ValueError, "source"),
    ("connected_components", "mask", _per_vertex(0.5), ValueError, "mask"),
    ("geodesic_path", "src", 1.0, ValueError, "source"),
    ("trace_path", "start", True, ValueError, "start"),
]


@pytest.mark.parametrize("name, param, bad, error, named", ROWS,
                         ids=[f"{r[0]}-{r[1]}-{i}"
                              for i, r in enumerate(ROWS)])
def test_public_callable_refuses_a_bad_value(ctx, name, param, bad, error,
                                             named):
    if callable(bad):
        bad = bad(ctx.opened.mesh if name == "build_graph" else ctx.mesh)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=named):
            CALLS[name](ctx, **{param: bad})
