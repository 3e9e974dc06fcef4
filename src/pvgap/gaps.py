"""Minimum-gap encircling paths around opened search areas.

The opened area is a topological disk whose primary-cut rims are twin
copies of the same physical line; a closed loop around the vein(s)
corresponds to a path from a cut vertex on one rim to its twin on the
other. Scar patches cost nothing to traverse, healthy tissue costs its
geodesic length, so the search runs on a small graph: one node per scar
patch plus artificial start/end nodes for the two rims. Edge weights are
minimum geodesic distances between patches; start/end attach to one twin
pair at a time, and one search over (pair, patch) states covers all pairs.

The solved node sequence is then re-expanded into an explicit encircling
polyline: gap segments (healthy traverses, traced from the patch fields for
the route's pairs alone), in-patch links (unconstrained geodesics between
consecutive gap extremes), and the two rim stubs, which are physically one
gap wrapping across the seam whenever the crossing vertex itself is not
scar. Every healthy traverse with an edge is a gap, however short, so no
length unit changes the gap count. All reported lengths are re-measured
from the polylines, so ratios are internally consistent even where the
solver's field values differ at solver accuracy.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import AreaError, TopologyError
from .geodesics import (FieldBatch, TracedPath, distance_transform,
                        geodesic_path, geodesic_paths, min_interset_distance,
                        source_rims, trace_path)
from .mesh import CutMesh, PatchLabeling, checked_mask, connected_components


@dataclass(frozen=True)
class GapGraph:
    """Patch graph of one opened area at one threshold.

    limit is `route_limit` of the entries: the route cost C* with a relative
    margin of 1e-9, or +inf when no route exists. Every entry above it is
    +inf, and geometry lists the edges (i, j), i < j, at or below it. A
    route that reads such an entry costs more than C*, so the solve returns
    the same cost, pair and sequence as on the whole entries, ties included,
    and the graph, numbers only, is a function of the opened area and the
    mask alone, whether the patch fields were whole or bounded (`_sweep`).
    """
    opened: CutMesh
    scar_mask: np.ndarray
    patches: PatchLabeling
    fields: tuple  # one DistanceField per patch
    weights: np.ndarray  # (n, n) min geodesic distance between patches
    geometry: tuple  # named so for perfbench/layers.py (ROADMAP item 4)
    start_w: np.ndarray  # (n, n_pairs) patch distance at side_a twin
    end_w: np.ndarray  # (n, n_pairs) patch distance at side_b twin
    limit: float

    @property
    def n_patches(self) -> int:
        return self.patches.count


def _graph_arrays(rows: np.ndarray, patches, opened: CutMesh):
    """(weights, start_w, end_w) of the patch fields' rows, unbounded:
    weights[i, j] is the least of row i over patch j and of row j over
    patch i, as `min_interset_distance` symmetrizes them."""
    n = len(patches)
    if n:
        cuts = np.cumsum([0] + [len(p) for p in patches[:-1]])
        near = np.minimum.reduceat(rows[:, np.concatenate(patches)], cuts,
                                   axis=1)
    else:
        near = np.zeros((0, 0))
    return (np.minimum(near, near.T), rows[:, opened.side_a],
            rows[:, opened.side_b])


def route_limit(weights: np.ndarray, start_w: np.ndarray,
                end_w: np.ndarray) -> np.ndarray:
    """An upper bound on the route cost C* of each graph on the leading
    axes, a 0-d array for one graph: U = min over twin pairs k and patches
    i, j of start_w[..., i, k] + D[..., i, j] + end_w[..., j, k], with D
    the all-pairs shortest paths over weights, times 1 + 1e-9 to absorb the
    solver's other summation order; +inf where U is, and where there is no
    patch or no twin pair. Padding nodes, with +inf weights off the
    diagonal, 0 on it and +inf start and end entries, change no bit.

    Entries only fall while their fields are computed, so U from current
    values is never below the final C*; from final values it equals C* up
    to that summation order.
    """
    if not weights.shape[-1] or not start_w.shape[-1]:
        return np.full(weights.shape[:-2], np.inf)
    d = np.array(weights, dtype=np.float64)
    for m in range(d.shape[-1]):  # Floyd-Warshall on the patch nodes
        np.minimum(d, d[..., :, m, None] + d[..., None, m, :], out=d)
    u = ((start_w[..., :, None, :] + d[..., :, :, None]).min(axis=-3)
         + end_w).min(axis=(-2, -1))
    return np.where(np.isfinite(u), u * (1.0 + 1e-9), np.inf)


def patch_fields(opened: CutMesh, labelings) -> FieldBatch:
    """The `FieldBatch` on opened.mesh of every patch of each labeling, in
    order, with a limit hook that bounds each field by `route_limit` of its
    own labeling's rows, bit for bit.

    The hook is planned once per batch: for every pair of a field row and
    another patch of its labeling, the flat indices of that patch's
    boundary, its rim by the rule that starts the kernel's first fronts
    (`geodesics.source_rims`, one call for all patches). Each call takes
    them all at once, reduces each pair's run to its minimum, and passes
    the labelings' graphs to `route_limit`, the one bound, stacked in a
    (labelings, p, p) array padded with +inf off the diagonal and 0 on it.
    A boundary gives the whole patch's minimum: a finite value that is not
    a source lies strictly above a support in one of its triangles (an
    edge relaxation adds a positive length, a triangle update exceeds its
    nearer support, and values only fall), so a strictly falling chain of
    neighbours leads from any vertex of another patch to a vertex on its
    boundary. A patch's own row is 0 on it, the diagonal.
    """
    mesh = opened.mesh
    n = mesh.n_vertices
    labs = [lab for lab in labelings if lab.count]
    counts = [lab.count for lab in labs]
    p = max(counts, default=0)
    patches = [patch for lab in labs for patch in lab.patches]
    all_rims = source_rims(mesh, patches) if patches else []
    flat, size, pos, slot = [], [], [], []
    row = 0
    for s, lab in enumerate(labs):
        rims = all_rims[row:row + lab.count]
        for i in range(lab.count):
            slot.append(s * p + i)
            for j, rim in enumerate(rims):
                if j != i:
                    flat.append((row + i) * n + rim)
                    size.append(len(rim))
                    pos.append(slot[-1] * p + j)
        row += lab.count
    flat = np.concatenate(flat) if flat else np.zeros(0, dtype=np.int64)
    cuts = np.cumsum([0] + size[:-1])
    pos = np.asarray(pos, dtype=np.int64)
    slot = np.asarray(slot, dtype=np.int64)
    twins = np.concatenate([opened.side_a, opened.side_b])
    pairs = len(opened.side_a)
    blank = np.full((len(labs), p, p), np.inf)
    blank[:, np.arange(p), np.arange(p)] = 0.0

    def limits(dist: np.ndarray) -> np.ndarray:
        d = blank.copy()
        if flat.size:
            d.ravel()[pos] = np.minimum.reduceat(dist.take(flat), cuts)
        w = np.full((len(labs) * p, 2 * pairs), np.inf)
        w[slot] = dist.take(twins, axis=1)
        w = w.reshape(len(labs), p, 2 * pairs)
        return route_limit(np.minimum(d, d.transpose(0, 2, 1)),
                           w[:, :, :pairs], w[:, :, pairs:]).repeat(counts)
    return FieldBatch(mesh, patches, limits)


def build_graph(opened: CutMesh, scar_mask: np.ndarray,
                patches: PatchLabeling | None = None,
                batch: FieldBatch | None = None) -> GapGraph:
    """Patch graph of an opened area for one scar mask.

    patches, for a caller that labelled the mask already, is taken as its
    labeling `connected_components(opened.mesh, scar_mask)`: ValueError
    unless it labels exactly the mask's vertices, but a different partition
    of them is not detected. batch, a `FieldBatch` on opened.mesh holding
    every patch, supplies the patch fields, as `patch_fields` of several
    masks' labelings does for a caller that batches their transforms
    (ValueError if it is on another mesh or lacks a patch); by default it
    is `patch_fields(opened, [patches])`. Whole or bounded fields give the
    same graph (`GapGraph`).
    """
    mesh = opened.mesh
    scar_mask = checked_mask(scar_mask, "scar_mask")
    if scar_mask.shape != (mesh.n_vertices,):
        raise ValueError("scar mask must cover the opened mesh")
    if patches is None:
        patches = connected_components(mesh, scar_mask)
    elif not np.array_equal(patches.labels >= 0, scar_mask):
        raise ValueError("patch labeling does not label the scar mask")
    if batch is None:
        batch = patch_fields(opened, [patches])
    fields = tuple(distance_transform(mesh, p, batch)
                   for p in patches.patches)
    rows = np.stack([f.dist for f in fields]) if fields \
        else np.zeros((0, mesh.n_vertices))
    weights, start_w, end_w = _graph_arrays(rows, patches.patches, opened)
    limit = float(route_limit(weights, start_w, end_w))
    # the entries at or below the limit are exact in bounded fields too
    for w in (weights, start_w, end_w):
        w[w > limit] = np.inf
    kept = zip(*np.nonzero(np.triu(weights <= limit, 1)))
    geometry = tuple((int(i), int(j)) for i, j in kept)
    return GapGraph(opened=opened, scar_mask=scar_mask, patches=patches,
                    fields=fields, weights=weights, geometry=geometry,
                    start_w=start_w, end_w=end_w, limit=limit)


def solve_gap_graph(weights: np.ndarray, start_w: np.ndarray,
                    end_w: np.ndarray):
    """Best (cost, pair index, patch sequence) over all twin pairs.

    Pure graph solve, one lexicographic Dijkstra: a state is a twin pair k
    and a patch i, or pair k's end node n, and the heap orders entries by
    (cost, k, sequence). Pairs share no state and weights are non-negative,
    so each pair's states pop in the order of a search of its own, and the
    first end state popped is the least (cost, k, sequence) over all pairs:
    ties prefer the smaller pair index, then the lexicographically smaller
    sequence. No direct start-end edge, so every route visits at least one
    patch.
    """
    n = len(weights)
    heap = [(float(start_w[i, k]), int(k), (int(i),), int(i))
            for k, i in zip(*np.nonzero(np.isfinite(start_w.T)))]
    heapq.heapify(heap)
    settled = set()
    while heap:
        d, k, seq, node = heapq.heappop(heap)
        if node == n:
            if np.isfinite(d):
                return d, k, seq
            break  # every later route's cost overflows too
        if (k, node) in settled:
            continue
        settled.add((k, node))
        if np.isfinite(end_w[node, k]):
            heapq.heappush(heap, (d + float(end_w[node, k]), k, seq, n))
        w = weights[node]
        for j in range(n):
            if (k, j) not in settled and j != node and np.isfinite(w[j]):
                heapq.heappush(heap, (d + float(w[j]), k, seq + (j,), j))
    raise AreaError("no route between the cut rims touches any patch")


@dataclass(frozen=True)
class GapSegment:
    """One healthy traverse of the encircling path."""
    length: float
    vertex_ids: np.ndarray  # opened-mesh ids along the polyline
    points: np.ndarray
    midpoint_region: int
    regions: tuple  # sorted region labels the polyline touches
    wraps_seam: bool


@dataclass(frozen=True)
class EncirclingPath:
    """Fully assembled encircling path of one area at one threshold."""
    total_length: float
    gap_length: float
    rgm: float
    gaps: tuple  # GapSegment per healthy traverse of positive length
    non_gap_length: float
    node_sequence: tuple
    crossing_pair: tuple  # (side_a id, side_b id) of the seam crossing
    segment_ids: tuple  # (kind, vertex ids) in loop order, for annotation

    @property
    def gap_count(self) -> int:
        return len(self.gaps)


def _gap_segment(mesh, path: TracedPath, wraps: bool) -> GapSegment:
    # an opened area is cut from a labelled submesh, so it has regions
    ids, points = path.vertex_ids, path.points
    regions = tuple(sorted(set(int(v) for v in mesh.region[ids])))
    steps = np.linalg.norm(np.diff(points, axis=0), axis=1)
    length = float(steps.sum())  # `polyline_length`'s expression
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    half = 0.5 * length
    seg = int(np.searchsorted(cum, half, side="right") - 1)
    seg = min(seg, len(steps) - 1)
    # nearer endpoint of the half-way segment
    mid = seg if half - cum[seg] <= cum[seg + 1] - half else seg + 1
    return GapSegment(length=length, vertex_ids=ids, points=points,
                      midpoint_region=int(mesh.region[ids[mid]]),
                      regions=regions, wraps_seam=wraps)


def _links(mesh, pairs) -> list:
    """Unconstrained geodesic polyline src -> dst of each (src, dst) pair,
    from one batched transform (`geodesic_paths`)."""
    out = []
    for (_src, dst), isd in zip(pairs, geodesic_paths(mesh, pairs)):
        if not np.isfinite(isd.distance):
            raise TopologyError(f"vertex {dst} is unreachable from the "
                                "sources")
        out.append(isd.path)
    return out


@dataclass(frozen=True)
class _RoutePlan:
    """A solved route, before its links run.

    pieces, each oriented along the loop, are the stub from the side_a twin
    to the first patch, the route's gaps and the stub from the last patch
    to the side_b twin; a link joins the end of each piece to the start of
    the next, two vertices of one patch. A route without patches
    (`_plan_loop`) has two stubs and one link, the side_a twin itself.
    """
    graph: GapGraph
    pair_index: int
    node_sequence: tuple
    pieces: tuple  # (kind, TracedPath) in loop order

    @property
    def links(self) -> list:
        return [(int(prev.vertex_ids[-1]), int(nxt.vertex_ids[0]))
                for (_, prev), (_, nxt) in zip(self.pieces, self.pieces[1:])]


def _plan_loop(graph: GapGraph) -> _RoutePlan:
    """No scar anywhere: the route is the shortest encircling loop itself,
    a_k -> b_k, after a stub that is the side_a twin a_k alone; the seam is
    healthy, so `_finish_route` makes the two stubs one gap.

    The loop of one guessed twin pair j, the last (the vein end of a label
    cut), runs in one `FieldBatch` with the field from all side_a rims,
    whose value at b_k is a lower bound on pair k's loop. The batch's hook
    bounds both fields by the guess's current value at b_j, so they stop at
    the guess's length instead of covering the area; the guess's row is
    exact at or below it, so its distance and path are those of
    `geodesic_path(a_j, b_j)`, and so is every lower bound that does not
    exceed it. The guess is the first candidate; exact point-to-point loops
    of the other pairs are then evaluated in bound order, ties in pair
    order, until the bound passes the best exact length. A pair whose
    bound is unfinished lies above the guess and cannot win, so the least
    (length, pair index) and its path do not depend on j.
    """
    opened = graph.opened
    mesh = opened.mesh
    side_a, side_b = opened.side_a, opened.side_b
    j = len(side_a) - 1
    a_j, b_j = int(side_a[j]), int(side_b[j])
    batch = FieldBatch(mesh, [[a_j], side_a],
                       lambda dist: np.full(2, dist[0, b_j]))
    guess = distance_transform(mesh, [a_j], batch)
    lb = distance_transform(mesh, side_a, batch).dist[side_b]
    best = None  # (length, pair index, path)
    if np.isfinite(guess.dist[b_j]):
        best = (float(guess.dist[b_j]), j, trace_path(guess, b_j).reversed())
    for k in np.argsort(lb, kind="stable"):
        k = int(k)
        if k == j or not np.isfinite(lb[k]):
            continue
        if best is not None and lb[k] > best[0]:
            break
        loop = geodesic_path(mesh, side_a[k], side_b[k])
        d = loop.distance
        if np.isfinite(d) and (best is None or (d, k) < best[:2]):
            best = (d, k, loop.path)
    if best is None:
        raise AreaError("cut rims are not connected in the opened area")
    _d, k, loop = best
    twin = TracedPath(vertex_ids=loop.vertex_ids[:1], points=loop.points[:1],
                      length=0.0)
    return _RoutePlan(graph=graph, pair_index=k, node_sequence=(),
                      pieces=(("stub", twin), ("stub", loop)))


def _plan_route(graph: GapGraph) -> _RoutePlan:
    """Solve the route, trace its stubs and gaps and orient its pieces."""
    if not graph.n_patches:
        return _plan_loop(graph)
    k, seq = solve_gap_graph(graph.weights, graph.start_w, graph.end_w)[1:]
    opened = graph.opened
    stub_a = trace_path(graph.fields[seq[0]], int(opened.side_a[k]))
    stub_b = trace_path(graph.fields[seq[-1]],
                        int(opened.side_b[k])).reversed()
    route = []  # traced lo -> hi: the direction breaks the trace's ties
    for prev, nxt in zip(seq, seq[1:]):
        lo, hi = sorted((prev, nxt))
        gap = min_interset_distance(graph.fields[lo], graph.fields[hi]).path
        route.append(gap.reversed() if prev > nxt else gap)
    return _RoutePlan(graph=graph, pair_index=k, node_sequence=seq,
                      pieces=(("stub", stub_a), *[("gap", g) for g in route],
                              ("stub", stub_b)))


def _finish_route(plan: _RoutePlan, links: list) -> EncirclingPath:
    """The encircling polyline of a planned route, given the polylines of
    its links."""
    graph = plan.graph
    opened = graph.opened
    mesh = opened.mesh
    p_a = int(opened.side_a[plan.pair_index])
    p_b = int(opened.side_b[plan.pair_index])
    stub_a, stub_b = plan.pieces[0][1], plan.pieces[-1][1]
    route = [g for _kind, g in plan.pieces[1:-1]]
    segments = [("stub", stub_a.vertex_ids)]  # (kind, ids), loop order
    non_gap = 0.0
    for link, (kind, piece) in zip(links, plan.pieces[1:]):
        non_gap += link.length
        segments += [("link", link.vertex_ids), (kind, piece.vertex_ids)]

    gaps_open = [_gap_segment(mesh, g, wraps=False) for g in route]
    stub_gap = stub_a.length + stub_b.length
    if graph.scar_mask[p_a]:
        # the seam point is scar: each rim stub is its own gap, unless it
        # has no edge, as when its twin lies in the patch that it joins
        first, last = ([_gap_segment(mesh, s, wraps=False)] if s.length > 0
                       else [] for s in (stub_a, stub_b))
        gaps = [*first, *gaps_open, *last]
    else:
        # healthy seam point: the two stubs are one gap wrapping the seam
        # (twins share coordinates)
        wrap = TracedPath(
            vertex_ids=np.concatenate([stub_b.vertex_ids,
                                       stub_a.vertex_ids[1:]]),
            points=np.concatenate([stub_b.points, stub_a.points[1:]]),
            length=stub_gap)
        gaps = [_gap_segment(mesh, wrap, wraps=True), *gaps_open]

    gap_length = stub_gap + float(sum(g.length for g in gaps_open))
    total = gap_length + non_gap
    if total <= 0.0:
        raise AreaError("degenerate encircling path of zero length")
    return EncirclingPath(total_length=total, gap_length=gap_length,
                          rgm=gap_length / total, gaps=tuple(gaps),
                          non_gap_length=non_gap,
                          node_sequence=plan.node_sequence,
                          crossing_pair=(p_a, p_b),
                          segment_ids=tuple(segments))


class RouteBatch:
    """The encircling paths of several patch graphs of one opened area,
    assembled together: the route links of every graph run in one kernel
    call (`geodesic_paths`), one field per distinct link source.

    The batch plans every graph's route (`_plan_route`), runs their links
    and assembles the paths when `min_gap_path` first asks it for one, so
    that work falls inside that call. Each path is bit for bit the one that
    a lone transform per link gives: a link reads only its own target's
    distance and the values below it. The one link of a graph without
    patches is a point, which needs no transform.
    """

    def __init__(self, graphs):
        self._graphs = list(graphs)
        if len({id(g.opened.mesh) for g in self._graphs}) > 1:
            raise ValueError("route batch graphs are on different meshes")
        self._paths = None  # id(graph) -> EncirclingPath

    def path(self, graph: GapGraph) -> EncirclingPath:
        """The path of graph; ValueError unless it is one of the batch's
        graphs."""
        if not any(g is graph for g in self._graphs):
            raise ValueError("graph is not a route of the batch")
        if self._paths is None:
            plans = [_plan_route(g) for g in self._graphs]
            links = iter(_links(graph.opened.mesh,
                                [pair for plan in plans
                                 for pair in plan.links]))
            self._paths = {id(plan.graph): _finish_route(
                plan, [next(links) for _pair in plan.links])
                for plan in plans}
        return self._paths[id(graph)]


def min_gap_path(graph: GapGraph,
                 routes: RouteBatch | None = None) -> EncirclingPath:
    """Best encircling path of an opened area for one scar mask: the least
    route through the mask's patches, or the shortest encircling loop when
    the mask has none. routes, a `RouteBatch` that holds graph, assembles
    it with the routes of the area's other masks; by default graph forms a
    batch of its own."""
    if routes is None:
        routes = RouteBatch([graph])
    return routes.path(graph)
