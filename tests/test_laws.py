"""Laws of the method checked on generated inputs.

Each law is checked on inputs that hypothesis draws, with a fixed seed
(`derandomize=True`), no deadline, a bounded number of examples and no
example database, so tier-1 stays deterministic and writes nothing.
"""

import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pvgap.errors import AreaError, MeshFormatError  # noqa: E402
from pvgap.gaps import (_graph_arrays, build_graph, route_limit,  # noqa: E402
                        solve_gap_graph)
from pvgap.geodesics import distance_transform  # noqa: E402
from pvgap.mesh import (SurfaceMesh, load_mesh, read_json,  # noqa: E402
                        save_mesh, write_json)
from pvgap.regions import build_search_area, open_area  # noqa: E402
from pvgap.synth import PhantomSpec, make_phantom, plane_grid  # noqa: E402
from test_gaps import _enumerate_best  # noqa: E402

LAW = settings(derandomize=True, deadline=None, database=None,
               max_examples=25)


@pytest.fixture(scope="module")
def opened():
    """A small opened disk: 1365 vertices, 13 twin pairs."""
    mesh, config, _truth = make_phantom(
        PhantomSpec(keep_fraction=0.5, target_edge_mm=1.0))
    return open_area(build_search_area(mesh, config.areas[0]))


# scar blobs: (centre vertex as a fraction of the vertex count, radius mm)
BLOBS = st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                           st.floats(0.3, 4.0)), max_size=6)


@LAW
@given(blobs=BLOBS)
def test_bounded_patch_fields_equal_whole_fields_below_the_limit(opened,
                                                                 blobs):
    """Patch fields stopped at their mask's route bound hold the bits of
    whole `distance_transform` fields at every value at or below
    `graph.limit`, and the limit is that of the whole fields' entries.
    Before, only seven fixed phantoms checked this
    (`test_route_limit.py`)."""
    mesh = opened.mesh
    mask = np.zeros(mesh.n_vertices, dtype=bool)
    for where, radius in blobs:
        centre = mesh.vertices[int(where * mesh.n_vertices)]
        mask |= np.linalg.norm(mesh.vertices - centre, axis=1) <= radius
    graph = build_graph(opened, mask)
    lone = [distance_transform(mesh, p) for p in graph.patches.patches]
    rows = (np.stack([f.dist for f in lone]) if lone
            else np.zeros((0, mesh.n_vertices)))
    limit = graph.limit
    assert limit == route_limit(*_graph_arrays(rows, graph.patches.patches,
                                               opened))
    for field, whole in zip(graph.fields, lone):
        assert field.limit >= limit
        assert (np.minimum(field.dist, limit).tobytes()
                == np.minimum(whole.dist, limit).tobytes())


@LAW
@given(blobs=BLOBS.filter(bool),
       levels=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=5,
                       max_size=6, unique=True))
def test_route_cost_never_rises_as_the_mask_grows(opened, blobs, levels):
    """A graded level, the largest of one tent per blob, thresholded at
    falling levels gives nested masks. The route cost C* of each mask is at
    most that of the mask inside it, up to the solver's relative margin of
    1e-9: a route of the smaller mask is one of the larger, and its entries
    can only fall. Each mask holds the blob centres, where the level is 1,
    so it has patches; a mask without them has no route of the solve
    (ROADMAP item 1). When this was added, the 25 draws held 109 nested
    pairs, and no cost rose."""
    mesh = opened.mesh
    level = np.zeros(mesh.n_vertices)
    for where, radius in blobs:
        centre = mesh.vertices[int(where * mesh.n_vertices)]
        level = np.maximum(level, 1.0 - np.linalg.norm(
            mesh.vertices - centre, axis=1) / radius)
    costs = []
    for t in sorted(levels, reverse=True):
        graph = build_graph(opened, level >= t)
        costs.append(solve_gap_graph(graph.weights, graph.start_w,
                                     graph.end_w)[0])
    for inner, outer in zip(costs, costs[1:]):
        assert outer <= inner * (1.0 + 1e-9)


# route table entries: few distinct values, so equal-cost routes abound
ENTRY = st.sampled_from([0.0, 1.0, 2.0, 3.0, math.inf])


@st.composite
def route_tables(draw):
    """(weights, start_w, end_w) over 1-5 patches and 1-3 twin pairs:
    weights symmetric with a zero diagonal, as `_graph_arrays` builds
    them."""
    def table(rows, cols):
        entries = draw(st.lists(ENTRY, min_size=rows * cols,
                                max_size=rows * cols))
        return np.reshape(entries, (rows, cols))

    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    upper = np.triu(table(n, n), 1)
    return upper + upper.T, table(n, k), table(n, k)


@LAW
@given(tables=route_tables())
@example(tables=(np.zeros((2, 2)), np.full((2, 1), math.inf),
                 np.ones((2, 1))))
def test_route_solve_equals_enumeration_ties_included(tables):
    """`solve_gap_graph` gives the (cost, pair index, patch sequence) of
    an exhaustive search over every twin pair and simple patch sequence,
    or AreaError where that search finds no route. Integer entries make
    equal-cost routes common, so the tie rule (smaller pair, then the
    lexicographically smaller sequence) is checked too; the continuous
    weights of `test_gaps.test_solver_matches_enumeration` never tie.
    With hypothesis 6.155.2, 12 of the 26 tables checked (25 drawn, one
    explicit) have more than one best route and 3 have none. On 3,000 such
    random tables before this law was added there were 0 mismatches."""
    want = _enumerate_best(*tables)
    if want is None:
        with pytest.raises(AreaError):
            solve_gap_graph(*tables)
    else:
        assert solve_gap_graph(*tables) == want


FINITE = st.floats(allow_nan=False, allow_infinity=False)
TOKENS = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7e),
                 min_size=1, max_size=8).filter(
                     lambda k: k not in ("intensity", "region"))


@st.composite
def meshes(draw):
    """A plane grid, its vertices jittered well within their spacing so no
    edge can round to zero length, with intensity (±inf included), region
    and point data of both kinds."""
    nx, ny = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    grid = plane_grid(nx, ny)
    n = grid.n_vertices
    jitter = draw(st.lists(st.floats(-0.3, 0.3), min_size=3 * n,
                           max_size=3 * n))
    scale = draw(st.floats(1e-3, 1e6))
    vertices = (grid.vertices + np.reshape(jitter, (n, 3))) * scale
    intensity = draw(st.lists(st.floats(allow_nan=False), min_size=n,
                              max_size=n))
    region = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n,
                           max_size=n))
    keys = draw(st.lists(TOKENS, max_size=3, unique=True))
    point_data = {}
    for key in keys:
        if draw(st.booleans()):
            values = draw(st.lists(st.floats(), min_size=n, max_size=n))
            point_data[key] = (np.array(values), "float")
        else:
            values = draw(st.lists(st.integers(-2**63, 2**63 - 1),
                                   min_size=n, max_size=n))
            point_data[key] = (np.array(values, dtype=np.int64), "int")
    return SurfaceMesh(vertices, grid.triangles, intensity=intensity,
                       region=np.array(region, dtype=np.int64),
                       name=draw(TOKENS), point_data=point_data)


def _as_written(values):
    """values as one write and read give them: 9 significant digits."""
    return np.array([float("%.9g" % v) for v in values])


@LAW
@given(mesh=meshes(), reserved=st.sampled_from(["intensity", "region"]))
def test_mesh_file_round_trip(tmp_path_factory, mesh, reserved):
    """save_mesh -> load_mesh keeps connectivity, names and integers
    exactly and floats as %.9g writes them; a second round trip is bit for
    bit the first, file and mesh. A point-data key that names a mesh
    attribute is refused."""
    path = tmp_path_factory.mktemp("mesh") / "m.vtk"
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert back.name == mesh.name
    assert back.triangles.tobytes() == mesh.triangles.tobytes()
    assert back.region.tobytes() == mesh.region.tobytes()
    assert back.vertices.tobytes() == _as_written(
        mesh.vertices.ravel()).reshape(-1, 3).tobytes()
    assert back.intensity.tobytes() == _as_written(mesh.intensity).tobytes()
    assert list(back.point_data) == list(mesh.point_data)
    for key, (arr, kind) in mesh.point_data.items():
        got, got_kind = back.point_data[key]
        assert got_kind == kind
        want = arr if kind == "int" else _as_written(arr)
        assert got.tobytes() == want.tobytes()
    again = path.with_name("again.vtk")
    save_mesh(back, again)
    assert again.read_bytes() == path.read_bytes()
    twice = load_mesh(again)
    for attr in ("vertices", "triangles", "intensity", "region"):
        assert getattr(twice, attr).tobytes() == getattr(back, attr).tobytes()
    with pytest.raises(MeshFormatError, match=reserved):
        SurfaceMesh(mesh.vertices, mesh.triangles, point_data={
            reserved: (np.zeros(mesh.n_vertices, dtype=np.int64), "int")})


STRICT_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | FINITE | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


@LAW
@given(value=STRICT_JSON)
def test_json_round_trip_is_the_identity(tmp_path_factory, value):
    """write_json -> read_json gives back the value it wrote, with every
    type kept (a bool stays a bool, -0.0 stays -0.0)."""
    path = tmp_path_factory.mktemp("json") / "v.json"
    write_json(path, value)
    back = read_json(path)
    assert back == value
    assert json.dumps(back) == json.dumps(value)
