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
- dropped by a bounded transform: its dist was above its field's bound
  when it was dropped, and the bound never rises; x is still pending, so
  dist[x] is at or below the bound;
- unreached: its dist is inf.
A proposal that reads a support of the other three kinds is not below
dist[x]. So a skipped corner proposes nothing lower, and each sweep
scatters the same proposals as a sweep over every corner of those
triangles: the same rows, pending sets and sweep counts, by construction.
The edge relaxations from a non-expanded support of an evaluated corner
must stay, though: a deferred support can lower a far vertex in the same
sweep.

A field's first front is its rim (`source_rims`), not all of its sources,
as Sethian's fast marching starts its narrow band from the boundary of
the known set (PNAS 1996): the sources with a mesh neighbour outside the
set or, where no source has one (a set of whole components or of vertices
of no triangle), the whole set, so that every field has a first sweep.
Every source still starts at 0.0. An interior source, all of whose
neighbours are sources, proposes nothing: each corner it lies in has a
source as its vertex C, itself or a neighbour, so dist 0 at C, and is
dropped behind the front; and as nothing lowers a 0, it never becomes
pending later. Expanding it did keep one kind of corner off other lists:
for a rim vertex x in a triangle (pv, x, nx) with pv interior, the corner
(C = nx; A = pv, B = x) was pv's qa corner, and x skipped it as a qb
corner of an expanded pv. Now pv is not expanded, and x reads it once
through its qb arm; its C is a neighbour of pv, a source, so it is
dropped too. So the first sweep scatters the same proposals. Its bucket
is the same, as every source and so the field's lowest pending value is
0.0, and it leaves the same pending set: every later sweep, every row and
every sweep count are the same, by construction. Most sources of the
benchmark's patch batches are interior: the 10 patch fields of the 38k
disk hold 15,692 sources and 3,219 rim vertices, and expanding every
source in one sweep used to set the kernel's memory high-water mark.

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
every transform is such a batch (a lone `distance_transform` runs K = 1,
`geodesic_paths` one field per distinct source). The batch state is flat
over K*n vertices (vertex v of field k is k*n + v). Each field keeps its
own pending set, its own bucket bound (the minimum over its own pending
vertices), its own cap and its own sweep count; every other step is
elementwise, reading and writing only the field's own values. So a
field's bits are those of the same transform run alone, by construction rather than by replay: the
batch only shares the per-sweep numpy call overhead, which dominates on
fronts of a few dozen vertices. A lone field (K = 1: a lone transform,
or a point-to-point one from one source) skips the batch bookkeeping: its
bucket minimum and cap are single values and its vertex ids need no
offset. That is what the batch arithmetic gives for one field, whose
offset is 0.

The pending set is kept as an index list, so that a sweep costs in
proportion to its front rather than to K*n: the vertices the sweep
deferred, then its improved targets that were not pending yet, each once.
Its order cannot change a bit. The list is only ever used as a set (the
expanded vertices are marked, the dropped ones unmarked) or to scatter a
minimum, and a minimum does not depend on the order it is taken in; the
values are never NaN, since a triangle update is made only from finite
supports and an edge relaxation from an unreached one is +inf.

Elements are selected by index, which numpy does faster than by mask: a
boolean subscript is `compress`, a gather `take`, and the ordered supports
of a triangle update are `np.minimum` and `np.maximum`. Each keeps the bits:
compress, take and nonzero only move data; a min or max equals its np.where
pick on values that are neither NaN nor -0.0, and no dist is (sources are
+0.0, every proposal adds a positive length or t > u >= 0); the clamp
`maximum(disc, 0)` differs from the masked disc only in the sign of a zero,
which moves t only when Bq = 0, and then t = +-0 fails u < t either way.

A batch may carry a limit hook (`FieldBatch`, `_sweep`): every
LIMIT_CADENCE sweeps it maps the current rows to one bound per field, and
from then on each sweep drops the pending vertices strictly above their
field's bound. Each hook takes its bound from current values, which only
fall, so the bounds never rise. The three hooks:
- route bound, of the patch fields of one scar mask (`gaps.patch_fields`):
  `gaps.route_limit` on the patch graphs that the rows of its masks give,
  U(1 + 1e-9), where U, the least start + patch-to-patch + end cost over a
  graph, is never below the final route cost C*; the margin absorbs the
  solver's other summation order;
- farthest target, of a point-to-point field (`geodesic_paths`,
  `_target_batch`): the largest current dist among its targets, so a
  target at +inf keeps its field whole;
- guessed loop, of the two fields of an area without scar
  (`gaps._plan_loop`): the current length of one guessed loop.
Every proposal is at least its support's value (an edge relaxation adds a
length, a valid triangle update is never below its farther support), so a
vertex dropped above a bound never lowers anything to or below a later
one: every value at or below a field's last bound, C* = 0 included, is
bit-equal to the whole field's. What each caller reads lies there:
- a target's dist is at most the bound, and the descent from it reads
  only lower values. So each target's distance and path are those of the
  whole field, whatever other targets share it, and `geodesic_paths` runs
  every pair it is given in one batch, one field per distinct source; such
  a transform yields its targets' distances and paths, never a field;
- a route that reads an entry above the bound costs more than C*, so the
  solve finds the same cost, twin pair and sequence, ties included, and
  traces its path from stubs and pairs at or below C*;
- the guessed loop's row is exact at or below its length.
A field's bound reads its own row (a route bound, its mask's rows) and no
other field of its batch, so the field's bits and sweep counts are the
same batched or alone. One hook is the exception: the guessed loop bounds
its batch partner, the lower-bound field from all side_a rims, by the
guess field's value at the guessed pair's side_b twin, so that field's
bits and sweep counts depend on the guess it runs with. A `FieldBatch`
field records the hook's bound on the final rows as its `limit`, at most
the last bound used.

Corners follow the half-edge numbering of `SurfaceMesh`: with m triangles,
corner q = r*m + t is vertex r of triangle t, and the triangle's next two
vertices, vertex C of corners q + m and q + 2m (mod 3m), are its supports A
and B. `_corner_tables` keeps only what a sweep reads, each per-corner table
one flat array of length 3m in corner order:
- la and lb, the lengths of the edges from C to A and to B: the edge
  relaxations and the triangle update;
- cos, the cosine of the angle at C, and csq, the squared length of the
  edge AB: the triangle update;
- ptr, a CSR over `triangles.ravel()` whose ptr[v]:ptr[v + 1] are vertex
  v's incidences, and for each incidence qa and qb, the corners of that
  triangle where v is support A or B, qbA, the support A of corner qb, and
  qaB, the support B of corner qa: they take a sweep from an expanded
  vertex to its corners and their vertices (below);
- delta, the bucket width.
Nothing else is kept. The corners' vertex ids are not: a sweep reaches
them per incidence. lb has no buffer of its own: corner q's support B is
vertex C of corner q - m (mod 3m), and its vertex C is that corner's
support A, so lb of corner q is la of corner q - m, an edge vector negated
exactly, whose squares, their sum and its root are the same bits. So la
and lb are two views of one buffer L of 4m values, la = L[m:] and lb =
L[:3m], with L[:m] a copy of L[3m:]. Nor is sin^2 of the angle kept:
`_proposals` computes 1.0 - cos * cos from the cos it gathers, the same
expression on the same operand as a table of it would hold, so the same
bits. The tables hold 60 B per corner, about 350 B per vertex of the
benchmark disks (13.5 MB at 38k vertices).

A sweep reads the corners of an expanded vertex x per incidence, not per
corner. Incidence j places x in a triangle (pv, x, nx), in the triangle's
vertex order, with pv = qbA[j] and nx = qaB[j]. Its corner qa[j] has C = pv
and supports A = x, B = nx; its corner qb[j] has C = nx and supports A =
pv, B = x, and is evaluated only where pv was not expanded, as it is
otherwise the qa corner of one of pv's incidences. So an incidence reads
dist at pv and nx only: dist[x] is already in the pending list, and no
vertex id is gathered by corner id. A corner with dist[C] <= min(dist[A],
dist[B]) lies behind the front and is dropped before its geometry is
gathered. That keeps every bit: an edge relaxation adds a positive length
to its support, so it is never below that support, and the triangle update
runs only where both supports are below dist[C]; so such a corner proposes
nothing below dist[C], and only a proposal below dist[C] is kept. The
corners that are kept stay in order, the qa corners of the sweep first, so
each sweep scatters the same proposals in the same order. About a third of
the corners a benchmark workload evaluates lie behind the front.

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

LIMIT_CADENCE = 8  # sweeps between two refreshes of any field's bound
# corners per block of `_corner_tables`' geometry: a block gathers its
# corners' vertex ids and coordinates into about fifteen arrays of 32 kB
# each, which over all 3m corners at once would be 1.8 MB each at 38k
# vertices
_CORNER_BLOCK = 4096


def _corner_geometry(mesh: SurfaceMesh) -> tuple:
    """(L, cos, csq) of `_corner_tables`: la is L[m:] and lb is L[:3m]. The
    ring of vertex ids and the coordinate copies it reads are dropped when
    it returns."""
    t = mesh.triangles
    m = mesh.n_triangles
    m3 = 3 * m
    # vertex C of corner q is ring[q], and its supports A and B, vertex C
    # of corners q + m and q + 2m (mod 3m), are ring[q + m] and ring[q + 2m]
    ring = t[:, [0, 1, 2, 0, 1]].T.ravel()
    # la is L[m:] and lb is L[:3m]: lb of corner q is la of corner q - m
    # (mod 3m), so L[:m] repeats L[3m:] (module docstring)
    L = np.empty(4 * m)
    la = L[m:]
    cos, csq = np.empty(m3), np.empty(m3)
    x, y, z = mesh.vertices.T.copy()  # one contiguous array per coordinate
    # each corner's geometry is computed on its own, so blocks give the
    # same bits as one pass over all corners. Each sum of three products
    # is taken in a fixed order, so that the tables do not depend on how
    # numpy reduces a row: a length adds (x + y) + z, as
    # np.linalg.norm(axis=1) does; a dot product adds (x + z) + y, the
    # order of np.einsum("ij,ij->i") over rows on numpy 2.4.6, so that the
    # tables keep the bits that einsum gave them (the x, y, z order
    # differs from it in 27% of the workload meshes' cos and 21% of csq).
    for lo in range(0, m3, _CORNER_BLOCK):
        hi = min(lo + _CORNER_BLOCK, m3)
        s = slice(lo, hi)
        c, a, b = ring[s], ring[lo + m:hi + m], ring[lo + 2 * m:hi + 2 * m]
        cx, cy, cz = x[c], y[c], z[c]
        ax, ay, az = x[a] - cx, y[a] - cy, z[a] - cz
        bx, by, bz = x[b] - cx, y[b] - cy, z[b] - cz
        la[s] = np.sqrt((ax * ax + ay * ay) + az * az)
        # the same bits as la of corner q - m, whose edge vector is the
        # exact negation of this one
        lb = np.sqrt((bx * bx + by * by) + bz * bz)
        cos[s] = ((ax * bx + az * bz) + ay * by) / (la[s] * lb)
        ax -= bx
        ay -= by
        az -= bz
        csq[s] = (ax * ax + az * az) + ay * ay
    L[:m] = L[m3:]
    np.clip(cos, -1.0, 1.0, out=cos)
    return L, cos, csq


def _corner_tables(mesh: SurfaceMesh) -> dict:
    """Flat per-corner geometry of the wavefront update (la, lb, cos and
    csq; lb is a view of la's buffer), the sweeps' bucket width delta and
    the vertex -> triangle incidence CSR: ptr, and for each incidence the
    corners qa and qb where its vertex is support A or B, qbA, support A of
    corner qb, and qaB, support B of corner qa (module docstring). The
    geometry is computed one contiguous coordinate column at a time, each
    sum of three products in a fixed order: la and lb are
    np.linalg.norm(axis=1) of the corner's edge vectors, bit for bit.

    The build frees as it goes, in this order: delta first, which builds
    and caches `mesh.adjacency` (if it is not yet) before any table
    exists; then the geometry (`_corner_geometry`), whose ring of vertex
    ids and coordinate copies are dropped once it is done; then the CSR,
    in place: the argsort buffer becomes the triangle of each incidence,
    its remainder buffer becomes qb, and one more buffer serves as the
    index of qbA and of qaB before it becomes qa. So the traced peak lies
    about one buffer of 8 B per corner above the 60 B per corner that the
    tables keep, whether the adjacency was cached beforehand or not."""
    cached = _TABLES.get(mesh)
    if cached is not None:
        return cached
    delta = 4.0 * np.median(mesh.adjacency.data)
    L, cos, csq = _corner_geometry(mesh)
    m = mesh.n_triangles
    corners = mesh.triangles.ravel()
    ptr = np.zeros(mesh.n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(corners, minlength=mesh.n_vertices), out=ptr[1:])
    # incidence j of the CSR is vertex r of triangle tri, corners[3 tri + r];
    # that vertex is support A of the triangle's corner r - 1 (qa) and
    # support B of its corner r + 1 (qb). Corner qa's vertex C, vertex
    # r + 2 of the triangle, is qb's support A (qbA), and qb's vertex C,
    # vertex r + 1, is qa's support B (qaB)
    tri = np.argsort(corners, kind="stable")
    qb = tri % 3  # r
    tri -= qb  # 3 tri
    qa = qb + 2
    qa %= 3
    qa += tri
    qbA = corners.take(qa)
    np.add(qb, 1, out=qa)
    qa %= 3
    qa += tri
    qaB = corners.take(qa)
    tri //= 3
    np.add(qb, 2, out=qa)
    qa %= 3
    qa *= m
    qa += tri
    qb += 1
    qb %= 3
    qb *= m
    qb += tri
    out = {"la": L[m:], "lb": L[:3 * m], "cos": cos, "csq": csq,
           "ptr": ptr, "qa": qa, "qb": qb, "qbA": qbA, "qaB": qaB,
           "delta": delta}
    _TABLES[mesh] = out
    return out


def _front(tab: dict, dist: np.ndarray, pos: np.ndarray, base, dx, act):
    """(q, C, dA, dB, dC) of the corners ahead of the front among those of
    CSR incidences pos, for `_proposals`: incidence j, vertex x of a
    triangle (pv, x, nx) in its vertex order, has corner qa[j] (C = pv;
    A = x, B = nx) and corner qb[j] (C = nx; A = pv, B = x), the latter
    only where pv is not marked in act. dx holds dist[x] per incidence;
    base, if given, offsets pv and nx into their field's part of a flat
    batch (see `_sweep`). A corner is kept where dC > min(dA, dB), qa
    corners first, each arm in incidence order (module docstring)."""
    pv = tab["qbA"].take(pos)
    nx = tab["qaB"].take(pos)
    if base is not None:
        pv += base
        nx += base
    # both arms laid end to end: vertex C and dist at C, A and B
    C = np.concatenate([pv, nx])
    dC = dist.take(C)
    half = len(pos)
    dA = np.concatenate([dx, dC[:half]])
    dB = np.concatenate([dC[half:], dx])
    keep = np.minimum(dA, dB) < dC
    keep[half:] &= ~act.take(pv)
    i = keep.nonzero()[0]
    q = np.concatenate([tab["qa"].take(pos), tab["qb"].take(pos)])
    return q.take(i), C.take(i), dA.take(i), dB.take(i), dC.take(i)


def _proposals(tab: dict, q: np.ndarray, C: np.ndarray, dA: np.ndarray,
               dB: np.ndarray, dC: np.ndarray):
    """(targets, values): for each corner q whose least update (edge
    relaxation from A or B, triangle update) lowers dC, its vertex C and
    that value; a target vertex may repeat. C, dA, dB and dC hold each
    corner's vertex C, offset into its field's part of a flat batch (see
    `_sweep`), and the current dist at its C, A and B."""
    la = tab["la"].take(q)
    lb = tab["lb"].take(q)
    # the corner's three updates all propose a value for its vertex C, so
    # only their least counts; edge relaxations from unreached supports give
    # inf and drop out below
    best = np.minimum(dA + la, dB + lb)
    # a valid triangle update is never below its farther support (t > u,
    # and u = dhi - dlo rounded to nearest), so only corners whose supports
    # are both closer than C need it; both are then finite, too, and so is
    # every operand below (csq > 0 on a checked mesh)
    idx = (np.maximum(dA, dB) < dC).nonzero()[0]
    qi = q.take(idx)
    dlo = dA.take(idx)
    dhi = dB.take(idx)
    llo = la.take(idx)
    lhi = lb.take(idx)
    sw = dhi < dlo
    dlo2 = np.minimum(dlo, dhi)
    dhi2 = np.maximum(dlo, dhi)
    b = np.where(sw, lhi, llo)  # edge to the earlier support
    a = np.where(sw, llo, lhi)  # edge to the later support
    u = dhi2 - dlo2
    cos = tab["cos"].take(qi)
    sin2 = 1.0 - cos * cos
    csq = tab["csq"].take(qi)
    Bq = 2.0 * b * u * (a * cos - b)
    Cq = b * b * (u * u - a * a * sin2)
    disc = Bq * Bq - 4.0 * csq * Cq
    ok = disc >= 0.0
    t = (-Bq + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * csq)
    valid = ok & (u < t)
    valid &= a * cos * t < b * (t - u)
    # front must leave through the opposite edge; obtuse corners
    # (cos < 0) are rejected and fall back to edge updates
    valid &= ((cos > 0.0) & (b * (t - u) * cos < a * t)) | (cos == 0.0)
    idx = idx.compress(valid)
    best[idx] = np.minimum(best.take(idx),
                           dlo2.compress(valid) + t.compress(valid))
    lower = best < dC
    return C.compress(lower), best.compress(lower)


@dataclass(frozen=True)
class DistanceField:
    """Geodesic distance transform from a source vertex set.

    dist is 0 exactly on sources, +inf on unreachable vertices, and
    1-Lipschitz along edges. sweeps counts the buckets the transform
    expanded, the last one included (it found nothing to lower). It depends
    on the mesh and the sources only (with a limit hook, on the fields of
    the same mask too), not on the other fields of a batch; the one
    exception is `gaps._plan_loop`'s lower-bound field, which its hook
    bounds by the guessed loop's field, at that loop's side_b twin.

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

    def reversed(self) -> TracedPath:
        """The same polyline run the other way; length is kept as traced,
        not summed again in the new order."""
        return TracedPath(vertex_ids=self.vertex_ids[::-1],
                          points=self.points[::-1], length=self.length)


@dataclass(frozen=True)
class InterSetDistance:
    """Minimum geodesic distance between two vertex sets, and a path that
    runs from a vertex of set a to one of set b. distance is +inf, with an
    empty path, when unreachable.
    """
    distance: float
    path: TracedPath


def _row_entries(ptr: np.ndarray, rows: np.ndarray) -> tuple:
    """(pos, cnt): the entries of a CSR with row pointers ptr that lie in
    the given rows, row after row, and each row's count of them."""
    lo = ptr.take(rows)
    cnt = ptr.take(rows + 1) - lo
    ends = np.cumsum(cnt)
    return np.repeat(lo + cnt - ends, cnt) + np.arange(ends[-1]), cnt


def source_rims(mesh: SurfaceMesh, srcs) -> list:
    """The rim of each array of checked source ids in srcs, as a sorted
    array: its sources with a mesh neighbour outside the set, or the whole
    set where no source has one, as in a set of whole components or of
    vertices of no triangle. Every field's first front in `_sweep`; all
    sets' adjacency rows are gathered at once."""
    n = mesh.n_vertices
    size = [len(s) for s in srcs]
    base = np.repeat(np.arange(len(srcs)) * n, size)
    flat = np.concatenate(srcs) + base
    inside = np.zeros(len(srcs) * n, dtype=bool)
    inside[flat] = True
    indptr, indices, _lengths = mesh.adjacency
    pos, cnt = _row_entries(indptr, flat - base)
    out = ~inside.take(indices.take(pos) + base.repeat(cnt))
    # marked by scattering each outside neighbour to its source, so that a
    # source with an empty row, a vertex of no triangle, stays unmarked
    edge = np.zeros(flat.size, dtype=bool)
    edge[np.arange(flat.size).repeat(cnt).compress(out)] = True
    return [s.compress(e) if e.any() else s
            for s, e in zip(srcs, np.split(edge, np.cumsum(size)[:-1]))]


def _sweep(mesh: SurfaceMesh, srcs, limit=None):
    """(dist, sweeps) of the transforms from each array of checked source
    ids in srcs: dist has one row and sweeps one count per field. With
    limit, a hook that maps the current (K, n) rows to one upper bound per
    field and is called every LIMIT_CADENCE sweeps, field k is exact at or
    below the last bound it returned for k (module docstring)."""
    n = mesh.n_vertices
    tab = _corner_tables(mesh)
    ptr, delta = tab["ptr"], tab["delta"]

    # field k's vertex v is k*n + v; a lone field needs no offsets and has
    # one bucket minimum
    k = len(srcs)
    one = k == 1
    dist = np.full(k * n, np.inf)
    dist[np.concatenate([s + f * n for f, s in enumerate(srcs)])] = 0.0
    # each field's first front is its rim: an interior source proposes
    # nothing (module docstring)
    pending = np.concatenate([r + f * n
                              for f, r in enumerate(source_rims(mesh, srcs))])
    queued = np.zeros(k * n, dtype=bool)  # marks the pending list
    queued[pending] = True
    act = np.zeros(k * n, dtype=bool)  # expanded in this sweep
    slot = np.empty(k * n, dtype=np.int32)  # de-duplicates a sweep's targets
    # a pending vertex at or above its field's cap is dropped
    cap = np.full(k, np.inf)
    sweeps = np.zeros(k, dtype=np.int64)
    max_sweeps = 6 * n + 64
    it = 0
    d = dist.take(pending)
    while pending.size:
        it += 1
        if it > max_sweeps:
            raise RuntimeError("distance transform failed to converge")
        # expand each field's pending vertices within delta of its lowest;
        # a field sweeps while it has any, so a field's last live sweep is
        # its own count
        if one:
            sweeps[0] = it
            keep = d <= d.min() + delta
            vert = active = pending.compress(keep)
        else:
            field = pending // n
            top = np.full(k, np.inf)
            np.minimum.at(top, field, d)
            sweeps[top < np.inf] = it
            keep = d <= (top + delta).take(field)
            active = pending.compress(keep)
            field = field.compress(keep)
            vert = active - field * n
        pending = pending.compress(~keep)
        queued[active] = False
        pos, cnt = _row_entries(ptr, vert)
        # each corner with an expanded support, once: where the vertex is
        # support A, or support B while A was not expanded, and only those
        # ahead of the front; the other corners propose nothing (module
        # docstring)
        act[active] = True
        tgt, val = _proposals(tab, *_front(
            tab, dist, pos, None if one else np.repeat(field * n, cnt),
            np.repeat(d.compress(keep), cnt), act))
        act[active] = False
        # every proposal is below its target's dist as it stood before this
        # sweep, so each target improves to the least of its proposals:
        # scattering them straight into dist is exact
        np.minimum.at(dist, tgt, val)
        # the improved targets not yet pending join the list, once each
        tgt = tgt.compress(~queued.take(tgt))
        j = np.arange(tgt.size, dtype=np.int32)
        slot[tgt] = j
        tgt = tgt.compress(slot.take(tgt) == j)
        queued[tgt] = True
        pending = np.concatenate([pending, tgt])
        d = dist.take(pending)
        if limit is None:
            continue
        if it % LIMIT_CADENCE == 0:
            # drop only what lies strictly above the bound
            cap = np.nextafter(limit(dist.reshape(k, n)), np.inf)
        far = d >= (cap if one else cap.take(pending // n))
        queued[pending.compress(far)] = False
        near = ~far
        pending = pending.compress(near)
        d = d.compress(near)
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
    """(value, vertex) minimizing dist over `where`, tie to smaller vertex:
    `where` is ascending, as a field's checked `sources` are, so the first
    minimum is the smallest vertex."""
    vals = dist[where]
    j = int(np.argmin(vals))
    return float(vals[j]), int(where[j])


def _unreachable() -> InterSetDistance:
    return InterSetDistance(distance=np.inf, path=TracedPath(
        vertex_ids=np.empty(0, dtype=np.int64), points=np.empty((0, 3)),
        length=np.inf))


def _path(mesh: SurfaceMesh, dist, src: int, dst: int) -> InterSetDistance:
    """The src -> dst result of a dist row from src that is exact at dst
    and below it; dist is not read when src == dst."""
    if src == dst:
        point = TracedPath(vertex_ids=np.asarray([src], dtype=np.int64),
                           points=mesh.vertices[[src]], length=0.0)
        return InterSetDistance(distance=0.0, path=point)
    if not np.isfinite(dist[dst]):
        return _unreachable()
    return InterSetDistance(distance=float(dist[dst]),
                            path=_descend(mesh, dist, dst).reversed())


def _target_batch(n: int, fields) -> tuple:
    """(srcs, limit) of a point-to-point batch on a mesh of n vertices: one
    field per (source id, non-empty target ids) item of fields, and the
    hook that bounds each field at the current dist of its farthest
    target."""
    fields = list(fields)
    heads = np.cumsum([0] + [len(dsts) for _src, dsts in fields[:-1]])
    flat = np.concatenate([np.fromiter(dsts, dtype=np.int64) + f * n
                           for f, (_src, dsts) in enumerate(fields)])
    srcs = [np.asarray([src], dtype=np.int64) for src, _dsts in fields]
    return srcs, lambda rows: np.maximum.reduceat(rows.ravel().take(flat),
                                                  heads)


def geodesic_paths(mesh: SurfaceMesh, pairs) -> list:
    """Geodesic distance and src -> dst polyline of each (src, dst) vertex
    pair, as a list of `InterSetDistance`.

    One batched transform runs, with one field per distinct source of the
    pairs whose src differs from dst; each field is bounded by the current
    dist of the farthest of its targets (`_target_batch`, module
    docstring). Each result equals that of
    `distance_transform(mesh, [src])` traced from dst, bit for bit; an
    unreachable dst gives the +inf result of `InterSetDistance`.
    """
    pairs = [(checked_ids(mesh, src, "source").item(),
              checked_ids(mesh, dst, "target").item()) for src, dst in pairs]
    targets = {}  # source -> {target: None}, each once, first seen first
    for src, dst in pairs:
        if src != dst:
            targets.setdefault(src, {})[dst] = None
    rows = {}
    if targets:
        srcs, limit = _target_batch(mesh.n_vertices, targets.items())
        rows = dict(zip(targets, _sweep(mesh, srcs, limit)[0]))
    done = {(src, dst): _path(mesh, rows.get(src), src, dst)
            for src, dst in dict.fromkeys(pairs)}
    return [done[pair] for pair in pairs]


def geodesic_path(mesh: SurfaceMesh, src: int, dst: int) -> InterSetDistance:
    """Geodesic distance from vertex src to vertex dst and its src -> dst
    polyline: the one-pair case of `geodesic_paths`."""
    return geodesic_paths(mesh, [(src, dst)])[0]


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
    if not np.isfinite(min(d_ab, d_ba)):
        return _unreachable()
    if d_ab <= d_ba:
        return InterSetDistance(distance=d_ab,
                                path=trace_path(field_a, end_b).reversed())
    return InterSetDistance(distance=d_ba, path=trace_path(field_b, end_a))
