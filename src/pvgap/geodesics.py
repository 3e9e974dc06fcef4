"""Geodesic distance fields over triangle meshes.

Distances are propagated with the Kimmel & Sethian (1998) planar wavefront
update on triangles and plain edge relaxations as fallback; the triangle
update rejects itself at obtuse corners, where the edge relaxation takes
over. Plain edge-Dijkstra alone overestimates surface distance by several
percent on structured meshes, which would bias every downstream gap ratio,
so the triangle update is not optional.

The solver sweeps a bucketed wavefront, as in Delta-stepping (Meyer &
Sanders, J. Algorithms 2003). A vertex whose dist improved is pending until
it is expanded. Each sweep expands the pending vertices within delta of the
lowest pending dist (top): from the current values it evaluates every
corner that has an expanded vertex as a support, and the vertices that
improved join the pending set. delta is four median edge lengths of the
mesh, fixed per mesh in `_corner_tables`. Deferring the far side of a
spread-out front cuts the repeated improvements of the earlier schedule,
which expanded every improved vertex at every sweep (from one source on the
18k-vertex tapered benchmark disk, each vertex improved 3.9 times on
average).

Delta-stepping relaxes only the edges out of expanded vertices; the sweep
applies that rule to corners, exactly. Of the corners of the triangles
touching an expanded vertex, it skips those (C = x; supports y, z) where
x is expanded and neither y nor z is. Each of y and z is then
- not pending: it was expanded after its last change, and that sweep
  evaluated this corner. So its edge relaxation, and if both are not
  pending the triangle update at the later of their expansions, was made
  from today's values and min-scattered, and dist[x] has only fallen since;
- pending but deferred: its dist is above top + delta, which is at least
  dist[x], so neither its edge relaxation nor the triangle update, which
  needs both supports below dist[x], can lower x;
- dropped by a bounded transform: its dist is at least dist[target],
  which is above dist[x];
- unreached: its dist is inf.
A proposal that reads a support of the other three kinds is not below
dist[x]. So a skipped corner proposes nothing lower, and each sweep
scatters the same proposals as a sweep over every corner of those
triangles: the same rows, pending sets and sweep counts, by construction.
The edge relaxations from a non-expanded support of an evaluated corner
must stay, though: a deferred support can lower a far vertex in the same
sweep.

The transform still ends at a fixed point of the update operator. Values
only decrease, a vertex that changes becomes pending, and a pending vertex
is expanded in a later sweep. So once nothing is pending, every corner was
last evaluated from its final values and proposes nothing lower. Which
fixed point is reached, to the last bit, depends on the order of updates.
That this schedule gives the earlier one's bits was checked, not proved: by
replaying every transform of the benchmark workloads and by the reference
test. Twice this delta already moved two vertices of one field by an ulp.
Accuracy contract: within 2% of analytic geodesics on well-shaped
plane/sphere meshes (asserted in the test suite).

A `FieldBatch` runs the transforms of K source sets in one batch, and
every transform is such a batch (a lone `distance_transform` and
`geodesic_path` run K = 1). The batch state is flat over K*n vertices
(vertex v of field k is k*n + v). Each field keeps its own pending set, its
own bucket bound (the minimum over its own pending vertices) and its own
sweep count; every other step is elementwise, reading and writing only the
field's own values. So a field's bits are those of
the same transform run alone, by construction rather than by replay: the
batch only shares the per-sweep numpy call overhead, which dominates on
fronts of a few dozen vertices.

A point-to-point transform (`geodesic_path`) runs the same sweeps but,
after each one, drops the pending vertices whose dist is not below the
current dist[target], so it stops once the lowest pending dist passes the
target's. This is exact below that bound: every proposal is at
least its support's value (an edge relaxation adds a length, a valid
triangle update is never below its farther support), so a dropped vertex
can never lower anything below the bound, and the descent from the target
reads only values below it. The values above the bound are left unfinished,
so such a transform yields its target's distance and path, never a field.

Corners follow the half-edge numbering of `SurfaceMesh`: with m triangles,
corner q = r*m + t is vertex r of triangle t, and the triangle's next two
vertices are its supports A and B. Every per-corner table is one flat array
of length 3m in this order. Vertex v's incidences are ptr[v]:ptr[v + 1] of
a CSR over `triangles.ravel()`; for each, qa and qb hold the corner of that
triangle where v is support A or B.

A field holds distances only. Polylines are traced from them on demand by
steepest descent along edges: from vertex v, step to the neighbour u with
dist[u] < dist[v] that minimises dist[u] + |uv|, ties to the smaller
index, until no neighbour is lower. Each step lowers dist strictly, so the
walk cannot cycle.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import TopologyError
from .mesh import SurfaceMesh

_TABLES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _corner_tables(mesh: SurfaceMesh) -> dict:
    """Flat per-corner geometry of the wavefront update, the sweeps' bucket
    width delta and the vertex -> triangle incidence CSR: ptr, and for each
    incidence the corners qa and qb where its vertex is support A or B."""
    cached = _TABLES.get(mesh)
    if cached is not None:
        return cached
    t = mesh.triangles
    v = mesh.vertices
    C = t.T.ravel()
    A = t[:, [1, 2, 0]].T.ravel()
    B = t[:, [2, 0, 1]].T.ravel()
    ea = v[A] - v[C]
    eb = v[B] - v[C]
    la = np.linalg.norm(ea, axis=1)
    lb = np.linalg.norm(eb, axis=1)
    cos = np.einsum("ij,ij->i", ea, eb) / (la * lb)
    np.clip(cos, -1.0, 1.0, out=cos)
    m = mesh.n_triangles
    corners = t.ravel()
    ptr = np.zeros(mesh.n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(corners, minlength=mesh.n_vertices), out=ptr[1:])
    # incidence j of the CSR is vertex r of triangle tri; that vertex is
    # support A of the triangle's corner r - 1 and support B of corner r + 1
    tri, r = np.divmod(np.argsort(corners, kind="stable"), 3)
    out = {"C": C, "A": A, "B": B, "la": la, "lb": lb, "cos": cos,
           "sin2": 1.0 - cos * cos,
           "csq": np.einsum("ij,ij->i", ea - eb, ea - eb),
           "ptr": ptr, "qa": (r + 2) % 3 * m + tri,
           "qb": (r + 1) % 3 * m + tri,
           "delta": 4.0 * np.median(mesh.adjacency.data)}
    _TABLES[mesh] = out
    return out


def _proposals(tab: dict, dist: np.ndarray, q: np.ndarray, base):
    """(targets, values) of the updates at corners q that lower dist; a
    target vertex may repeat. base offsets each corner's vertex ids into
    its field's part of a flat batch (see `_sweep`), as do the targets."""
    C = tab["C"][q] + base
    la = tab["la"][q]
    lb = tab["lb"][q]
    dA = dist[tab["A"][q] + base]
    dB = dist[tab["B"][q] + base]
    dC = dist[C]
    # a valid triangle update is never below its farther support (t > u,
    # and u = dhi - dlo rounded to nearest), so only corners whose supports
    # are both closer than C need it; both are then finite, too
    idx = np.flatnonzero(np.maximum(dA, dB) < dC)
    dlo = dA[idx]
    dhi = dB[idx]
    llo = la[idx]
    lhi = lb[idx]
    sw = dhi < dlo
    dlo2 = np.where(sw, dhi, dlo)
    dhi2 = np.where(sw, dlo, dhi)
    b = np.where(sw, lhi, llo)  # edge to the earlier support
    a = np.where(sw, llo, lhi)  # edge to the later support
    u = dhi2 - dlo2
    cos = tab["cos"][q[idx]]
    sin2 = tab["sin2"][q[idx]]
    csq = tab["csq"][q[idx]]
    Bq = 2.0 * b * u * (a * cos - b)
    Cq = b * b * (u * u - a * a * sin2)
    disc = Bq * Bq - 4.0 * csq * Cq
    ok = disc >= 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        t = (-Bq + np.sqrt(np.where(ok, disc, 0.0))) / (2.0 * csq)
        valid = ok & (u < t)
        valid &= a * cos * t < b * (t - u)
        # front must leave through the opposite edge; obtuse corners
        # (cos < 0) are rejected and fall back to edge updates
        valid &= np.where(cos > 0.0, b * (t - u) * cos < a * t, cos == 0.0)
    idx = idx[valid]
    # edge relaxations from unreached supports give inf and drop out here
    targets = np.concatenate([C, C, C[idx]])
    values = np.concatenate([dA + la, dB + lb, dlo2[valid] + t[valid]])
    lower = values < np.concatenate([dC, dC, dC[idx]])
    return targets[lower], values[lower]


@dataclass(frozen=True)
class DistanceField:
    """Geodesic distance transform from a source vertex set.

    dist is 0 exactly on sources, +inf on unreachable vertices, and
    1-Lipschitz along edges. sweeps counts the buckets the transform
    expanded, the last one included (it found nothing to lower). It depends
    on the mesh and the sources only, not on the other fields of a batch,
    but differs from the count of the earlier schedule, which expanded
    every improved vertex at every sweep.
    """
    mesh: SurfaceMesh
    sources: np.ndarray
    dist: np.ndarray
    sweeps: int


@dataclass(frozen=True)
class TracedPath:
    """Vertex-restricted polyline traced down a distance field by the
    steepest-descent rule of the module docstring."""
    vertex_ids: np.ndarray
    points: np.ndarray
    length: float


@dataclass(frozen=True)
class InterSetDistance:
    """Minimum geodesic distance between two vertex sets.

    path runs from endpoint_a (in set a) to endpoint_b (in set b).
    distance is +inf (with empty path, endpoints -1) when unreachable.
    """
    distance: float
    endpoint_a: int
    endpoint_b: int
    path: TracedPath


def _sweep(mesh: SurfaceMesh, srcs, targets=None):
    """(dist, sweeps) of the transforms from each array of checked source
    ids in srcs: dist has one row and sweeps one count per field. With
    targets, one vertex per field, field k is exact only below its final
    dist[targets[k]]."""
    n = mesh.n_vertices
    tab = _corner_tables(mesh)
    ptr, qa, qb, delta = tab["ptr"], tab["qa"], tab["qb"], tab["delta"]

    # field k's vertex v is k*n + v
    k = len(srcs)
    pending = np.concatenate([s + f * n for f, s in enumerate(srcs)])
    dist = np.full(k * n, np.inf)
    dist[pending] = 0.0
    queued = np.zeros(k * n, dtype=bool)  # improved and not yet expanded
    queued[pending] = True
    act = np.zeros(k * n, dtype=bool)  # expanded in this sweep
    if targets is not None:
        targets = np.asarray(targets, dtype=np.int64) + np.arange(k) * n
    sweeps = np.zeros(k, dtype=np.int64)
    max_sweeps = 6 * n + 64
    it = 0
    while pending.size:
        it += 1
        if it > max_sweeps:
            raise RuntimeError("distance transform failed to converge")
        # expand each field's pending vertices within delta of its lowest;
        # a field sweeps while it has any, so a field's last live sweep is
        # its own count
        field = pending // n
        d = dist[pending]
        top = np.full(k, np.inf)
        np.minimum.at(top, field, d)
        sweeps[top < np.inf] = it
        keep = d <= (top + delta)[field]
        active = pending[keep]
        queued[active] = False
        field = field[keep]
        vert = active - field * n
        lo = ptr[vert]
        cnt = ptr[vert + 1] - lo
        ends = np.cumsum(cnt)
        pos = np.repeat(lo + cnt - ends, cnt) + np.arange(ends[-1])
        base = np.repeat(field * n, cnt)
        # each corner with an expanded support, once: where the vertex is
        # support A, or support B while A was not expanded; the other
        # corners propose nothing (module docstring)
        q_b = qb[pos]
        act[active] = True
        fresh = ~act[tab["A"][q_b] + base]
        act[active] = False
        tgt, val = _proposals(tab, dist, np.concatenate([qa[pos], q_b[fresh]]),
                              np.concatenate([base, base[fresh]]))
        # every proposal is below its target's dist as it stood before this
        # sweep, so each target improves to the least of its proposals:
        # scattering them straight into dist is exact
        np.minimum.at(dist, tgt, val)
        queued[tgt] = True
        pending = np.flatnonzero(queued)
        if targets is not None:
            far = dist[pending] >= dist[targets[pending // n]]
            queued[pending[far]] = False
            pending = pending[~far]
    return dist.reshape(k, n), sweeps


def _source_ids(mesh: SurfaceMesh, sources) -> np.ndarray:
    """sources as sorted unique checked vertex ids of mesh."""
    src = np.asarray(sources)
    if src.size == 0:
        raise TopologyError("distance_transform requires a nonempty source set")
    if src.dtype.kind not in "iu":
        raise ValueError(f"vertex ids must be integers, got dtype {src.dtype}")
    src = np.unique(src.astype(np.int64))
    if src.min() < 0 or src.max() >= mesh.n_vertices:
        raise TopologyError("source vertex out of range")
    src.flags.writeable = False
    return src


def _fields(mesh: SurfaceMesh, srcs) -> tuple:
    """The DistanceFields of checked source id arrays srcs, one batch."""
    dist, sweeps = _sweep(mesh, srcs)
    dist.flags.writeable = False
    return tuple(DistanceField(mesh=mesh, sources=src, dist=row,
                               sweeps=int(count))
                 for src, row, count in zip(srcs, dist, sweeps))


class FieldBatch:
    """The transforms of several source sets on one mesh, run in one batch.

    Each set is checked here, with `distance_transform`'s errors. The batch
    runs when `distance_transform` first asks it for one of its fields, so
    the kernel's time falls inside that call; each field equals the lone
    transform of its set bit for bit, its sweeps included. The fields share
    one buffer, which lives as long as the batch.
    """

    def __init__(self, mesh: SurfaceMesh, source_sets):
        self.mesh = mesh
        self._srcs = [_source_ids(mesh, s) for s in source_sets]
        self._row = {src.tobytes(): k for k, src in enumerate(self._srcs)}
        self._fields = None

    def field(self, src: np.ndarray) -> DistanceField:
        """The field of checked source ids src; ValueError unless src is
        one of the batch's sets."""
        k = self._row.get(src.tobytes())
        if k is None:
            raise ValueError("source set is not in the field batch")
        if self._fields is None:
            self._fields = _fields(self.mesh, self._srcs)
        return self._fields[k]


def distance_transform(mesh: SurfaceMesh, sources,
                       batch: FieldBatch | None = None) -> DistanceField:
    """Geodesic distance from a set of source vertices.

    batch, a `FieldBatch` on mesh that holds this source set, supplies the
    field from its one kernel call; ValueError if it is on another mesh or
    does not hold the set.
    """
    src = _source_ids(mesh, sources)
    if batch is None:
        return _fields(mesh, [src])[0]
    if batch.mesh is not mesh:
        raise ValueError("field batch is on another mesh")
    return batch.field(src)


def polyline_length(points: np.ndarray) -> float:
    """Sum of the segment lengths of a polyline; 0.0 for a single point."""
    return float(np.linalg.norm(np.diff(points, axis=0), axis=1).sum())


def _vertex(mesh: SurfaceMesh, v, what: str) -> int:
    """v as a checked vertex id of mesh."""
    if np.asarray(v).dtype.kind not in "iu":
        raise ValueError(f"{what} vertex must be an integer, got {v!r}")
    v = int(v)
    if not 0 <= v < mesh.n_vertices:
        raise TopologyError(f"{what} vertex out of range")
    return v


def _descend(mesh: SurfaceMesh, dist: np.ndarray, start: int) -> TracedPath:
    """Steepest-descent polyline from a reached vertex to a source."""
    # the scalar steps read Python numbers through memoryviews, which is
    # much faster than indexing numpy arrays and copies nothing
    adj = mesh.adjacency  # sorted indices, edge lengths as data
    indptr, indices, data = (memoryview(adj.indptr), memoryview(adj.indices),
                             memoryview(adj.data))
    d = memoryview(dist)
    v = start
    ids = [v]
    while True:
        dv = d[v]
        best = float("inf")
        nxt = -1
        for j in range(indptr[v], indptr[v + 1]):
            u = indices[j]
            du = d[u]
            # the first strict minimum over sorted indices: ties to the
            # smaller index
            if du < dv and du + data[j] < best:
                best = du + data[j]
                nxt = u
        if nxt < 0:
            break
        v = nxt
        ids.append(v)
    if dist[ids[-1]] != 0.0:
        raise RuntimeError("steepest descent did not reach a source")
    ids_arr = np.asarray(ids, dtype=np.int64)
    pts = mesh.vertices[ids_arr]
    return TracedPath(vertex_ids=ids_arr, points=pts,
                      length=polyline_length(pts))


def trace_path(field: DistanceField, start: int) -> TracedPath:
    """Polyline from `start` down steepest descent to a source vertex."""
    start = _vertex(field.mesh, start, "start")
    if not np.isfinite(field.dist[start]):
        raise TopologyError(f"vertex {start} is unreachable from the sources")
    return _descend(field.mesh, field.dist, start)


def _best_at(dist: np.ndarray, where: np.ndarray):
    """(value, vertex) minimizing dist over `where`, tie to smaller vertex."""
    vals = dist[where]
    order = np.lexsort((where, vals))
    j = order[0]
    return float(vals[j]), int(where[j])


def _reverse(path: TracedPath) -> TracedPath:
    return TracedPath(vertex_ids=path.vertex_ids[::-1],
                      points=path.points[::-1], length=path.length)


def _unreachable() -> InterSetDistance:
    empty = TracedPath(vertex_ids=np.empty(0, dtype=np.int64),
                       points=np.empty((0, 3)), length=np.inf)
    return InterSetDistance(distance=np.inf, endpoint_a=-1, endpoint_b=-1,
                            path=empty)


def geodesic_path(mesh: SurfaceMesh, src: int, dst: int) -> InterSetDistance:
    """Geodesic distance from vertex src to vertex dst and its src -> dst
    polyline, by a transform from src that stops at dst.

    Distance and path equal those of `distance_transform(mesh, [src])`
    traced from dst; an unreachable dst gives the +inf result of
    `InterSetDistance`.
    """
    src = _vertex(mesh, src, "source")
    dst = _vertex(mesh, dst, "target")
    if src == dst:
        point = TracedPath(vertex_ids=np.asarray([src], dtype=np.int64),
                           points=mesh.vertices[[src]], length=0.0)
        return InterSetDistance(distance=0.0, endpoint_a=src, endpoint_b=dst,
                                path=point)
    dist = _sweep(mesh, [np.asarray([src], dtype=np.int64)], [dst])[0][0]
    if not np.isfinite(dist[dst]):
        return _unreachable()
    path = _reverse(_descend(mesh, dist, dst))  # now runs src -> dst
    return InterSetDistance(distance=float(dist[dst]), endpoint_a=src,
                            endpoint_b=dst, path=path)


def min_interset_distance(field_a: DistanceField,
                          field_b: DistanceField) -> InterSetDistance:
    """Minimum geodesic distance between the source sets of two fields on
    one mesh, with its polyline.

    Evaluated in both directions and symmetrized (the transforms are not
    exactly symmetric vertex-for-vertex); direction a->b wins exact ties.
    Endpoint ties resolve to the smaller vertex index on the far set.
    """
    if field_a.mesh is not field_b.mesh:
        raise ValueError("min_interset_distance needs two fields on the "
                         "same mesh")
    d_ab, end_b = _best_at(field_a.dist, field_b.sources)
    d_ba, end_a = _best_at(field_b.dist, field_a.sources)
    dist = min(d_ab, d_ba)
    if not np.isfinite(dist):
        return _unreachable()
    if d_ab <= d_ba:
        path = _reverse(trace_path(field_a, end_b))  # now runs a -> b
        return InterSetDistance(distance=d_ab,
                                endpoint_a=int(path.vertex_ids[0]),
                                endpoint_b=end_b, path=path)
    path = trace_path(field_b, end_a)  # runs a -> b already
    return InterSetDistance(distance=d_ba, endpoint_a=end_a,
                            endpoint_b=int(path.vertex_ids[-1]), path=path)
