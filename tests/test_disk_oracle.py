"""The kernel's distance fields against the exact distance on the planar
disk.

The disk phantom lies in the plane z = 0, and both of its boundary loops
are strictly convex polygons (104 / 204 / 388 vertices per loop at 1.0 /
0.5 / 0.26 mm edges). So the uncut mesh covers a convex polygon minus a
convex polygonal hole, and the exact shortest path from p to q in it is
the straight segment when that clears the hole's interior, and otherwise
the shorter of the two chains from p to q around the convex hull of the
hole and {p, q}: the single-obstacle case of shortest paths through a
visibility graph (de Berg et al., Computational Geometry, ch. 15). That is
the geodesic of the mesh's own domain, so the oracle measures the
kernel's error alone, with none from polygonizing the rim.

The draws are fixed: on the keep-0 disk, `np.random.default_rng(0)` picks
4 source vertices, and for each of them 400 target vertices; the pairs
whose exact distance exceeds 5 mm are compared (about 1,500 per mesh,
pairs that wrap the hole included).
"""

import functools

import numpy as np
import pytest
from scipy.sparse import csgraph, csr_matrix

from pvgap.geodesics import distance_transform
from pvgap.synth import PhantomSpec, make_phantom

SOURCES, TARGETS, FAR_MM = 4, 400, 5.0


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _clears(hole, p, q):
    """Per target q, whether the segment from p to q misses the open
    hole: some edge line of the hole has p and q on its outer side, or the
    line through p and q has the whole hole on one side. Touching the hole
    is clearing it."""
    step = np.roll(hole, -1, axis=0) - hole
    side_p = _cross(step, p - hole)
    side_q = _cross(step[:, None], q[None] - hole[:, None])
    by_edge = ((side_p[:, None] <= 0) & (side_q <= 0)).any(axis=0)
    line = _cross((q - p)[None], hole[:, None] - p)
    return by_edge | (line >= 0).all(axis=0) | (line <= 0).all(axis=0)


def disk_oracle(hole, p, q):
    """Exact distances from point p to each point of q, both (x, y) and in
    the domain outside the convex polygon hole (counter-clockwise), which
    lies in a convex outer polygon holding p and q.

    A path that wraps the hole leaves p along a tangent to the hole, runs
    along its boundary and arrives at q along a tangent. Going
    counter-clockwise round the hole, it keeps the hole on its left: seen
    from p, it leaves by the hole vertex of least angle, and seen from q,
    it arrives by the one of greatest angle; clockwise the other way about.
    A point on the hole's boundary sees its own vertex at angle 0, between
    the two tangents, so it leaves along an edge of the hole.
    """
    step = np.roll(hole, -1, axis=0) - hole
    cum = np.concatenate([[0.0], np.cumsum(np.hypot(*step.T))])
    perimeter, cum = cum[-1], cum[:-1]
    centre = hole.mean(axis=0)

    def angles(x):  # (k, n): each hole vertex's angle seen from each x
        ahead, rel = centre - x, hole[None] - x[:, None]
        return np.arctan2(_cross(ahead[:, None], rel),
                          (ahead[:, None] * rel).sum(axis=-1))

    seen_p, seen_q = angles(p[None])[0], angles(q)

    def leg(x, j):
        return np.hypot(*(hole[j] - x).T)

    a, b = int(np.argmin(seen_p)), seen_q.argmax(axis=1)
    ccw = leg(p, a) + (cum[b] - cum[a]) % perimeter + leg(q, b)
    a, b = int(np.argmax(seen_p)), seen_q.argmin(axis=1)
    cw = leg(p, a) + (cum[a] - cum[b]) % perimeter + leg(q, b)
    return np.where(_clears(hole, p, q), np.hypot(*(q - p).T),
                    np.minimum(ccw, cw))


@functools.cache
def _disk(edge_mm):
    """(mesh, inner loop, hole) of the keep-0 disk: hole is the (x, y) of
    the inner loop's vertices, turned counter-clockwise."""
    mesh, _config, _truth = make_phantom(
        PhantomSpec(keep_fraction=0.0, target_edge_mm=edge_mm))
    v = mesh.vertices
    assert not v[:, 2].any()
    inner = min(mesh.boundary_loops(),
                key=lambda loop: np.hypot(*v[loop, :2].T).mean())
    if _cross(v[inner, :2], np.roll(v[inner, :2], -1, axis=0)).sum() < 0:
        inner = inner[::-1]
    return mesh, inner, v[inner, :2]


def _visibility_distances(hole, p, q):
    """The same distances by Dijkstra over the visibility graph of p, the
    targets and the hole's vertices: no chord of a convex polygon clears
    it, so its edges are its only links among its own vertices."""
    n, m = len(hole), len(q)
    pts = np.concatenate([hole, p[None], q])
    rows, cols = [np.arange(n)], [(np.arange(n) + 1) % n]
    for i in range(n, n + m + 1):
        seen = np.flatnonzero(_clears(hole, pts[i], hole))
        rows += [np.full(len(seen), i)]
        cols += [seen]
    direct = np.flatnonzero(_clears(hole, p, q))
    rows += [np.full(len(direct), n)]
    cols += [n + 1 + direct]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    graph = csr_matrix((np.hypot(*(pts[rows] - pts[cols]).T), (rows, cols)),
                       shape=(n + m + 1,) * 2)
    return csgraph.dijkstra(graph, directed=False, indices=n)[n + 1:]


@functools.cache
def _errors(edge_mm):
    """field / exact - 1 over the drawn pairs of the keep-0 disk."""
    mesh, _inner, hole = _disk(edge_mm)
    rng = np.random.default_rng(0)
    errors = []
    for src in rng.choice(mesh.n_vertices, SOURCES, replace=False):
        tgt = rng.choice(mesh.n_vertices, TARGETS, replace=False)
        exact = disk_oracle(hole, mesh.vertices[src, :2],
                            mesh.vertices[tgt, :2])
        field = distance_transform(mesh, [int(src)]).dist[tgt]
        far = exact > FAR_MM
        errors.append(field[far] / exact[far] - 1.0)
    return np.concatenate(errors)


def test_the_oracle_equals_a_visibility_graph_search():
    """The closed form against Dijkstra on the visibility graph of the
    1.0 mm disk's hole, from a hole vertex and 3 drawn sources to every
    tenth hole vertex and 200 drawn targets: equal up to rounding."""
    mesh, inner, hole = _disk(1.0)
    rng = np.random.default_rng(1)
    picks = rng.choice(mesh.n_vertices, 3, replace=False)
    for src in [inner[0], *picks]:
        tgt = np.concatenate([inner[::10], rng.choice(mesh.n_vertices, 200,
                                                      replace=False)])
        p, q = mesh.vertices[src, :2], mesh.vertices[tgt, :2]
        np.testing.assert_allclose(disk_oracle(hole, p, q),
                                   _visibility_distances(hole, p, q),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("edge_mm", [1.0, 0.5])
def test_the_field_is_never_below_the_exact_distance(edge_mm):
    """Each triangle update and edge relaxation proposes the length of a
    path in the domain, so no field value reads below the exact distance,
    up to a relative 1e-12 for rounding. An update that cuts a corner must
    keep this. When this law was added the least field / exact was
    exactly 1 at 1.0 and 0.5 mm edges, and 1 + 8.9e-16 at 0.26 mm."""
    errors = _errors(edge_mm)
    assert len(errors) > 1400
    assert errors.min() >= -1e-12


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 13")
def test_the_field_is_within_two_percent_on_average():
    """README holds distances within 2% on meshes without obtuse corners;
    16.7% of the disk's corners are obtuse, and the kernel rejects the
    triangle update there for edge relaxations. When this law was added,
    field / exact - 1 over the drawn pairs was on average 4.68 / 6.54 /
    6.85% at 1.0 / 0.5 / 0.26 mm edges (95th percentile 13.9 / 22.1 /
    19.6%, max 45.2 / 45.1 / 45.1%): the error does not fall with the
    edge. This checks 0.5 mm."""
    mean = float(_errors(0.5).mean())
    assert mean <= 0.02, f"mean error {mean:.2%}"
