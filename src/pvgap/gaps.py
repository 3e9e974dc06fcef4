"""Minimum-gap encircling paths around opened search areas.

The opened area is a topological disk whose primary-cut rims are twin
copies of the same physical line; a closed loop around the vein(s)
corresponds to a path from a cut vertex on one rim to its twin on the
other. Scar patches cost nothing to traverse, healthy tissue costs its
geodesic length, so the search runs on a small graph: one node per scar
patch plus artificial start/end nodes for the two rims. Edge weights are
minimum geodesic distances between patches; start/end attach to a single
twin pair at a time and the solver sweeps all pairs.

The solved node sequence is then re-expanded into an explicit encircling
polyline: gap segments (healthy traverses, from the distance-field trace),
in-patch links (unconstrained geodesics between consecutive gap extremes),
and the two rim stubs, which are physically one gap wrapping across the
seam whenever the crossing vertex itself is not scar. All reported lengths
are re-measured from the polylines, so ratios are internally consistent
even where the solver's field values differ at solver accuracy.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import AreaError, TopologyError
from .geodesics import (DistanceField, FieldBatch, PathCache,
                        distance_transform, geodesic_path,
                        min_interset_distance, polyline_length, trace_path)
from .mesh import PatchLabeling, checked_mask, connected_components
from .regions import OpenedArea

EPS_GAP = 0.1  # mm; shorter healthy traverses are not counted as gaps


@dataclass(frozen=True)
class GapGraph:
    """Patch graph of one opened area at one threshold.

    limit is `route_limit` of the graph's entries: the route cost C* with a
    relative margin of 1e-9, or +inf when no route exists. Every entry above
    it is +inf, and geometry holds only the pairs at or below it. A route
    that reads such an entry costs more than C*, so the solve returns the
    same cost, pair and sequence as on the whole entries, ties included,
    and the graph is a function of the opened area and the mask alone,
    whether the patch fields were whole or stopped at a limit (`_sweep`).
    """
    opened: OpenedArea
    scar_mask: np.ndarray
    patches: PatchLabeling
    fields: tuple  # one DistanceField per patch
    weights: np.ndarray  # (n, n) min geodesic distance between patches
    geometry: dict  # (i, j) i<j -> InterSetDistance, weights[i, j] <= limit
    start_w: np.ndarray  # (n, n_pairs) patch distance at side_a twin
    end_w: np.ndarray  # (n, n_pairs) patch distance at side_b twin
    limit: float

    @property
    def n_patches(self) -> int:
        return self.patches.count


def _graph_arrays(rows: np.ndarray, patches, opened: OpenedArea):
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
                end_w: np.ndarray) -> float:
    """An upper bound on the graph's route cost C*: U = min over twin pairs
    k and patches i, j of start_w[i, k] + D[i, j] + end_w[j, k], with D the
    all-pairs shortest paths over weights, times 1 + 1e-9 to absorb the
    solver's other summation order; +inf when U is.

    Entries only fall while their fields are computed, so U from current
    values is never below the final C*; from final values it equals C* up
    to that summation order.
    """
    if not weights.size or not start_w.shape[1]:
        return np.inf
    d = np.array(weights, dtype=np.float64)
    for m in range(len(d)):  # Floyd-Warshall on the patch nodes
        np.minimum(d, d[:, m, None] + d[None, m, :], out=d)
    u = float(((start_w[:, None, :] + d[:, :, None]).min(axis=0)
               + end_w).min())
    return u * (1.0 + 1e-9) if np.isfinite(u) else np.inf


def route_limits(opened: OpenedArea, labelings):
    """The limit hook of a `FieldBatch` that holds the patch fields of each
    labeling in turn: each field's bound is `route_limit` of its own
    labeling's rows."""
    def limits(dist: np.ndarray) -> np.ndarray:
        out = np.empty(len(dist))
        lo = 0
        for lab in labelings:
            hi = lo + lab.count
            out[lo:hi] = route_limit(*_graph_arrays(dist[lo:hi], lab.patches,
                                                    opened))
            lo = hi
        return out
    return limits


def build_graph(opened: OpenedArea, scar_mask: np.ndarray,
                patches: PatchLabeling | None = None,
                batch: FieldBatch | None = None) -> GapGraph:
    """Patch graph of an opened area for one scar mask.

    patches, for a caller that labelled the mask already, is taken as its
    labeling `connected_components(opened.mesh, scar_mask)`: ValueError
    unless it labels exactly the mask's vertices, but a different partition
    of them is not detected. batch, a `FieldBatch` on opened.mesh holding
    every patch, supplies the patch fields, as for a caller that batches
    the transforms of several masks (ValueError if it is on another mesh or
    lacks a patch); by default the mask's own patches form the batch, with
    the `route_limits` hook. Whole or bounded fields give the same graph
    (`GapGraph`).
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
        batch = FieldBatch(mesh, patches.patches,
                           route_limits(opened, [patches]))
    fields = tuple(distance_transform(mesh, p, batch)
                   for p in patches.patches)
    rows = np.stack([f.dist for f in fields]) if fields \
        else np.zeros((0, mesh.n_vertices))
    weights, start_w, end_w = _graph_arrays(rows, patches.patches, opened)
    limit = route_limit(weights, start_w, end_w)
    # the entries at or below the limit are exact in bounded fields too
    for w in (weights, start_w, end_w):
        w[w > limit] = np.inf
    kept = zip(*np.nonzero(np.triu(weights <= limit, 1)))
    geometry = {(int(i), int(j)): min_interset_distance(fields[i], fields[j])
                for i, j in kept}
    return GapGraph(opened=opened, scar_mask=scar_mask, patches=patches,
                    fields=fields, weights=weights, geometry=geometry,
                    start_w=start_w, end_w=end_w, limit=limit)


def _dijkstra_lex(weights: np.ndarray, start: np.ndarray, end: np.ndarray):
    """Min-cost start->patches->end route; ties prefer the lexicographically
    smallest patch sequence. Returns (cost, sequence) or (inf, ())."""
    n = len(start)
    target = n  # artificial end node
    settled = set()
    heap = []
    for i in range(n):
        if np.isfinite(start[i]):
            heapq.heappush(heap, (float(start[i]), (i,), i))
    while heap:
        d, seq, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            return d, seq
        if np.isfinite(end[node]):
            heapq.heappush(heap, (d + float(end[node]), seq, target))
        w = weights[node]
        for j in range(n):
            if j not in settled and j != node and np.isfinite(w[j]):
                heapq.heappush(heap, (d + float(w[j]), seq + (j,), j))
    return np.inf, ()


def solve_gap_graph(weights: np.ndarray, start_w: np.ndarray,
                    end_w: np.ndarray):
    """Best (cost, pair index, patch sequence) over all twin pairs.

    Pure graph solve; no direct start-end edge, so every route visits at
    least one patch. Ties prefer the smaller pair index, then the
    lexicographically smaller sequence.
    """
    n_pairs = start_w.shape[1]
    best = None
    for k in range(n_pairs):
        d, seq = _dijkstra_lex(weights, start_w[:, k], end_w[:, k])
        if not np.isfinite(d):
            continue
        cand = (d, k, seq)
        if best is None or cand < best:
            best = cand
    if best is None:
        raise AreaError("no route between the cut rims touches any patch")
    return best


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
    gap_count: int
    gaps: tuple
    non_gap_length: float
    node_sequence: tuple
    crossing_pair: tuple  # (side_a id, side_b id) of the seam crossing
    segment_ids: tuple  # (kind, vertex ids) in loop order, for annotation


def _polyline(field: DistanceField, start: int, reverse: bool = False):
    tp = trace_path(field, start)
    ids, pts = tp.vertex_ids, tp.points
    if reverse:
        ids, pts = ids[::-1], pts[::-1]
    return ids, pts, tp.length


def _gap_segment(mesh, ids: np.ndarray, points: np.ndarray,
                 wraps: bool) -> GapSegment:
    length = polyline_length(points)
    if mesh.region is not None:
        labels = mesh.region[ids]
        regions = tuple(sorted(set(int(v) for v in labels)))
        if len(ids) == 1:
            mid = 0
        else:
            steps = np.linalg.norm(np.diff(points, axis=0), axis=1)
            cum = np.concatenate([[0.0], np.cumsum(steps)])
            half = 0.5 * length
            seg = int(np.searchsorted(cum, half, side="right") - 1)
            seg = min(seg, len(steps) - 1)
            # nearer endpoint of the half-way segment
            mid = seg if half - cum[seg] <= cum[seg + 1] - half else seg + 1
        midpoint_region = int(mesh.region[ids[mid]])
    else:
        regions = ()
        midpoint_region = -1
    return GapSegment(length=length, vertex_ids=ids, points=points,
                      midpoint_region=midpoint_region, regions=regions,
                      wraps_seam=wraps)


def _link(mesh, src: int, dst: int, paths: PathCache | None = None):
    """Unconstrained geodesic polyline src -> dst."""
    isd = geodesic_path(mesh, src, dst, paths)
    if not np.isfinite(isd.distance):
        raise TopologyError(f"vertex {dst} is unreachable from the sources")
    return isd.path.vertex_ids, isd.path.points, isd.path.length


def assemble_geometry(graph: GapGraph, pair_index: int, node_seq: tuple,
                      paths: PathCache | None = None) -> EncirclingPath:
    """Expand a solved route into the explicit encircling polyline.

    paths, a `PathCache` on the opened mesh, keeps the links' transforms
    for later links from the same vertex, as for a caller that assembles
    several routes of one area; the path is the same with or without it.
    """
    opened = graph.opened
    mesh = opened.mesh
    p_a = int(opened.side_a[pair_index])
    p_b = int(opened.side_b[pair_index])
    crossing_scar = bool(graph.scar_mask[p_a])

    gaps_open = []  # interior gap segments, loop order
    segments = []  # (kind, ids) incl. stubs/links, loop order
    non_gap = 0.0

    first, last = node_seq[0], node_seq[-1]
    a_ids, a_pts, a_len = _polyline(graph.fields[first], p_a)  # p_a -> patch
    b_ids, b_pts, b_len = _polyline(graph.fields[last], p_b, reverse=True)

    segments.append(("stub", a_ids))
    arrival = int(a_ids[-1])
    for prev, nxt in zip(node_seq, node_seq[1:]):
        lo, hi = (prev, nxt) if prev < nxt else (nxt, prev)
        isd = graph.geometry[(lo, hi)]
        ids, pts = isd.path.vertex_ids, isd.path.points
        if prev > nxt:  # stored geometry runs lo -> hi
            ids, pts = ids[::-1], pts[::-1]
        link_ids, _link_pts, link_len = _link(mesh, arrival, int(ids[0]),
                                              paths)
        non_gap += link_len
        segments.append(("link", link_ids))
        segments.append(("gap", ids))
        gaps_open.append(_gap_segment(mesh, ids, pts, wraps=False))
        arrival = int(ids[-1])
    link_ids, _link_pts, link_len = _link(mesh, arrival, int(b_ids[0]),
                                          paths)
    non_gap += link_len
    segments.append(("link", link_ids))
    segments.append(("stub", b_ids))

    gap_records = []
    if crossing_scar:
        # the seam point is scar: each rim stub is its own gap
        if a_len > 0.0:
            gap_records.append(_gap_segment(mesh, a_ids, a_pts, wraps=False))
        gap_records.extend(gaps_open)
        if b_len > 0.0:
            gap_records.append(_gap_segment(mesh, b_ids, b_pts, wraps=False))
    else:
        # healthy seam point: the two stubs are one gap wrapping the seam
        ids = np.concatenate([b_ids, a_ids[1:]])
        pts = np.concatenate([b_pts, a_pts[1:]])  # twins share coordinates
        gap_records.append(_gap_segment(mesh, ids, pts, wraps=True))
        gap_records.extend(gaps_open)

    stub_gap = a_len + b_len
    interior_gap = float(sum(g.length for g in gaps_open))
    gap_length = stub_gap + interior_gap
    total = gap_length + non_gap
    if total <= 0.0:
        raise AreaError("degenerate encircling path of zero length")
    counted = tuple(g for g in gap_records if g.length > EPS_GAP)
    return EncirclingPath(total_length=total, gap_length=gap_length,
                          rgm=gap_length / total,
                          gap_count=len(counted), gaps=counted,
                          non_gap_length=non_gap, node_sequence=node_seq,
                          crossing_pair=(p_a, p_b),
                          segment_ids=tuple(segments))


def _no_patch_loop(opened: OpenedArea) -> EncirclingPath:
    """No scar anywhere: the gap is the shortest encircling loop itself.

    A single transform from all side_a rims gives a lower bound per twin
    pair; exact point-to-point loops are then evaluated in bound order until
    the bound passes the best exact length.
    """
    mesh = opened.mesh
    combo = distance_transform(mesh, opened.side_a)
    lb = combo.dist[opened.side_b]
    order = np.lexsort((np.arange(len(lb)), lb))
    best = None  # (length, pair index, path)
    for k in order:
        k = int(k)
        if not np.isfinite(lb[k]):
            continue
        if best is not None and lb[k] > best[0]:
            break
        loop = geodesic_path(mesh, opened.side_a[k], opened.side_b[k])
        d = loop.distance
        if np.isfinite(d) and (best is None or (d, k) < best[:2]):
            best = (d, k, loop.path)
    if best is None:
        raise AreaError("cut rims are not connected in the opened area")
    _d, k, path = best
    p_a, p_b = int(opened.side_a[k]), int(opened.side_b[k])
    ids, pts, length = path.vertex_ids, path.points, path.length
    gap = _gap_segment(mesh, ids, pts, wraps=True)
    return EncirclingPath(total_length=length, gap_length=length, rgm=1.0,
                          gap_count=1, gaps=(gap,), non_gap_length=0.0,
                          node_sequence=(), crossing_pair=(p_a, p_b),
                          segment_ids=(("gap", ids),))


def min_gap_path(graph: GapGraph,
                 paths: PathCache | None = None) -> EncirclingPath:
    """Best encircling path of an opened area for one scar mask; paths is
    passed to `assemble_geometry`."""
    if graph.n_patches == 0:
        return _no_patch_loop(graph.opened)
    _cost, k, seq = solve_gap_graph(graph.weights, graph.start_w,
                                    graph.end_w)
    return assemble_geometry(graph, k, seq, paths)
