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
- dropped by a bounded transform: its dist was at or above its field's
  cap (dist[target], or just above the limit) when it was dropped, and
  the cap never rises; x is still pending, so dist[x] is below the cap;
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

A batch may instead carry a limit hook (`FieldBatch`): every
LIMIT_CADENCE sweeps it maps the current rows to one bound per field, and
from then on each sweep drops the pending vertices strictly above their
field's bound. That is the same drop rule: the cap is dist[target] for a
point-to-point transform and the next float above the bound for a limit.
The patch fields of one scar mask use `gaps.route_limits`: their bound is
U(1 + 1e-9), where U is the least start + patch-to-patch + end cost over
the patch graph those rows give (`gaps.route_limit`). Exactness:
- Values only fall, so U from current values is never below the final
  route cost C*; the margin absorbs the solver's other summation order.
  The bounds therefore never rise, and stay at or above C*.
- By the argument above, with the last bound in place of the target's
  dist, every value at or below that bound is bit-equal to the whole
  field's. That includes C* = 0, so only values strictly above it drop.
- A route that reads an entry above the bound costs more than C*, so the
  solve finds the same cost, twin pair and sequence, ties included. Its
  stubs and pairs lie at or below C*, so the path is traced from exact
  values only.
- A field's sweeps do not depend on the other fields of its batch, so a
  mask's bound at sweep `it` is the same batched or alone, and so are its
  fields' bits and sweep counts.
Each field records the hook's bound on the final rows as its `limit`. It
is at most the last bound used, so the field is exact at or below it.

A `PathCache` keeps, per source vertex, the bounded transform with the
largest bound run from it so far, so that later targets from the same
source can read it. It serves a target dst from the kept row in two cases,
both exact by the argument above: dst is the run's own target, which is
the lone call's own result; or the kept dist[dst] lies strictly below the
bound, where the row is exact, and the descent from dst reads only values
below dist[dst]. Otherwise the kept dist[dst] is at or above the bound, so
dst's distance is too, and a new transform to dst runs; its bound is at
least the kept one, and it replaces that.

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
from .mesh import SurfaceMesh, checked_ids

_TABLES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

LIMIT_CADENCE = 8  # sweeps between two calls of a batch's limit hook


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
    on the mesh and the sources only (with a limit hook, on the fields of
    the same mask too), not on the other fields of a batch, but differs
    from the count of the earlier schedule, which expanded every improved
    vertex at every sweep.

    limit is +inf for a whole field. A field of a `FieldBatch` with a limit
    hook is exact at or below its limit only; above it the values may be
    unfinished, and `trace_path` refuses to start there.
    """
    mesh: SurfaceMesh
    sources: np.ndarray
    dist: np.ndarray
    sweeps: int
    limit: float = np.inf


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


def _sweep(mesh: SurfaceMesh, srcs, targets=None, limit=None):
    """(dist, sweeps) of the transforms from each array of checked source
    ids in srcs: dist has one row and sweeps one count per field. With
    targets, one vertex per field, field k is exact only below its final
    dist[targets[k]]. With limit, a hook that maps the current (K, n) rows
    to one upper bound per field and is called every LIMIT_CADENCE sweeps,
    field k is exact at or below the last bound it returned for k (module
    docstring). At most one of targets and limit is given."""
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
    # a pending vertex at or above its field's cap is dropped
    cap = None if targets is None and limit is None else np.full(k, np.inf)
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
        if cap is None:
            continue
        if targets is not None:
            cap = dist[targets]
        elif it % LIMIT_CADENCE == 0:
            # drop only what lies strictly above the bound
            cap = np.nextafter(limit(dist.reshape(k, n)), np.inf)
        far = dist[pending] >= cap[pending // n]
        queued[pending[far]] = False
        pending = pending[~far]
    return dist.reshape(k, n), sweeps


def _fields(mesh: SurfaceMesh, srcs, limit=None) -> tuple:
    """The DistanceFields of checked source id arrays srcs, one batch,
    bounded by the limit hook if one is given."""
    dist, sweeps = _sweep(mesh, srcs, limit=limit)
    # the hook on the final rows: never above the last bound the sweeps
    # used, since values only fell, and it depends on each field's group
    # alone, not on when the batch's other fields finished
    limits = np.full(len(srcs), np.inf) if limit is None else limit(dist)
    dist.flags.writeable = False
    return tuple(DistanceField(mesh=mesh, sources=src, dist=row,
                               sweeps=int(count), limit=float(bound))
                 for src, row, count, bound in zip(srcs, dist, sweeps, limits))


class FieldBatch:
    """The transforms of several source sets on one mesh, run in one batch.

    Each set is checked here, with `distance_transform`'s errors. The batch
    runs when `distance_transform` first asks it for one of its fields, so
    the kernel's time falls inside that call. Without limit, each field
    equals the lone transform of its set bit for bit, its sweeps included.
    limit, a hook as `_sweep` takes it, stops each field above the bound it
    gives: a field then equals the lone transform at or below its recorded
    `DistanceField.limit`. A set held more than once, as a patch that
    several masks share, gives the field with the largest limit, the first
    of equals. The fields share one buffer, which lives as long as the
    batch.
    """

    def __init__(self, mesh: SurfaceMesh, source_sets, limit=None):
        self.mesh = mesh
        self._srcs = [checked_ids(mesh, s, "source") for s in source_sets]
        self._rows = {}  # source set bytes -> its rows
        for k, src in enumerate(self._srcs):
            self._rows.setdefault(src.tobytes(), []).append(k)
        self._limit = limit
        self._fields = None

    def field(self, src: np.ndarray) -> DistanceField:
        """The field of checked source ids src; ValueError unless src is
        one of the batch's sets."""
        rows = self._rows.get(src.tobytes())
        if rows is None:
            raise ValueError("source set is not in the field batch")
        if self._fields is None:
            self._fields = _fields(self.mesh, self._srcs, self._limit)
        return max((self._fields[k] for k in rows), key=lambda f: f.limit)


def distance_transform(mesh: SurfaceMesh, sources,
                       batch: FieldBatch | None = None) -> DistanceField:
    """Geodesic distance from a set of source vertices.

    batch, a `FieldBatch` on mesh that holds this source set, supplies the
    field from its one kernel call; ValueError if it is on another mesh or
    does not hold the set.
    """
    src = checked_ids(mesh, sources, "source")
    if batch is None:
        return _fields(mesh, [src])[0]
    if batch.mesh is not mesh:
        raise ValueError("field batch is on another mesh")
    return batch.field(src)


def polyline_length(points: np.ndarray) -> float:
    """Sum of the segment lengths of a polyline; 0.0 for a single point."""
    return float(np.linalg.norm(np.diff(points, axis=0), axis=1).sum())


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
    """Polyline from `start` down steepest descent to a source vertex;
    ValueError if start lies above the field's limit, where its value may
    be unfinished."""
    start = checked_ids(field.mesh, start, "start").item()
    if field.dist[start] > field.limit:
        raise ValueError(f"vertex {start} lies above the field's limit")
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


class PathCache:
    """The bounded transforms `geodesic_path` ran on one mesh, kept per
    source vertex: for each source, the dist row of the run with the
    largest bound (its target's final dist) so far, its target and that
    bound. A later call from the same source reads the kept row where it
    is exact (module docstring). The rows live as long as the cache.
    """

    def __init__(self, mesh: SurfaceMesh):
        self.mesh = mesh
        self._runs = {}  # source -> (dist row, target, bound)

    def exact_at(self, src: int, dst: int):
        """A kept dist row from src that is exact at dst and below its
        dist[dst], or None."""
        run = self._runs.get(src)
        if run is not None:
            dist, target, bound = run
            if dst == target or dist[dst] < bound:
                return dist
        return None

    def keep(self, src: int, dst: int, dist: np.ndarray) -> None:
        """Keep the run from src to dst unless the kept one reaches
        further."""
        run = self._runs.get(src)
        if run is None or dist[dst] >= run[2]:
            self._runs[src] = (dist, dst, dist[dst])


def geodesic_path(mesh: SurfaceMesh, src: int, dst: int,
                  paths: PathCache | None = None) -> InterSetDistance:
    """Geodesic distance from vertex src to vertex dst and its src -> dst
    polyline, by a transform from src that stops at dst.

    Distance and path equal those of `distance_transform(mesh, [src])`
    traced from dst; an unreachable dst gives the +inf result of
    `InterSetDistance`. paths, a `PathCache` on mesh, supplies a kept
    transform from src where one is exact at dst and keeps the one this
    call runs; ValueError if it is on another mesh.
    """
    src = checked_ids(mesh, src, "source").item()
    dst = checked_ids(mesh, dst, "target").item()
    if paths is not None and paths.mesh is not mesh:
        raise ValueError("path cache is on another mesh")
    if src == dst:
        point = TracedPath(vertex_ids=np.asarray([src], dtype=np.int64),
                           points=mesh.vertices[[src]], length=0.0)
        return InterSetDistance(distance=0.0, endpoint_a=src, endpoint_b=dst,
                                path=point)
    dist = None if paths is None else paths.exact_at(src, dst)
    if dist is None:
        dist = _sweep(mesh, [np.asarray([src], dtype=np.int64)], [dst])[0][0]
        if paths is not None:
            paths.keep(src, dst, dist)
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
