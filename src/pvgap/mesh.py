"""Triangle surface meshes.

Provides the mesh container used across the pipeline, legacy ASCII polydata
reading/writing, topology queries (components, boundary loops, edge paths)
and seam cutting with vertex duplication. Every file is written atomically,
and every JSON file is read and written by `read_json` and `write_json`.

Conventions: coordinates are millimetres, float64. Triangles are consistently
oriented (counter-clockwise seen from outside); orientation is validated on
load together with edge-manifoldness. All containers are treated as immutable
after construction (they lock their own copies of the arrays passed in).

Topology lives in one numbering of half-edges. With m triangles, half-edge
h = r*m + t is edge r of triangle t: (t[0], t[1]), (t[1], t[2]) or (t[2], t[0])
for r = 0, 1, 2. The next half-edge around the same triangle is (h + m) % 3m.
A directed edge (a, b) of a mesh with n vertices has the int64 key a*n + b,
its undirected key is min(a, b)*n + max(a, b), and its reversed half-edge is
`SurfaceMesh.opposite[h]` (-1 on a boundary).

Every topology table comes from one sort per mesh: a stable argsort of the
3m half-edges by undirected key (`SurfaceMesh._sort_half_edges`). A run of
equal keys in that order is one edge. The run keys and lengths are `edges`
and their triangle counts; the two half-edges of a run of two are each
other's `opposite`, unless they share a tail, which is the orientation
fault `check_topology` reports; `cut_mesh` finds a path's half-edges by
searching the run keys.

Derived tables are cached on the mesh, so each is built once, but only
those a later stage reads. The sorted order is cached only on a mesh whose
half-edges are walked: `opposite` caches it, and `boundary_vertex_mask`,
`boundary_loops` and `cut_mesh` read `opposite`. That is a search-area
submesh (and a joint area's mesh between its two cuts), dropped once the
area is open. The submesh reads `opposite` before its edge table, which
then reads the cached order (`regions._extract_submesh`). Elsewhere the
edge table sorts as a local. Half-edge tails and heads are built from
`triangles` where they are read (`_half_edge_ends`), so no stage caches
their (3m, 2) table. A case mesh and an opened mesh, which
live to the end of a case, thus cache neither (1.8 and 3.6 MB at 38k
vertices). The edge table carries the orientation verdict, so a case mesh
is sorted once, and `check_topology` records its verdict on the mesh.

A seam cut and a search-area submesh are derived meshes, built only by
`SurfaceMesh.derive(parent, triangles)`: vertex i is the source's vertex
parent[i], with its coordinates, intensity, region and point data.

Graph queries need only numpy. `SurfaceMesh.adjacency` is a compressed
sparse row (CSR) triple of plain arrays, the layout scipy.sparse.csr_matrix
uses; component labeling hooks each patch onto its smallest vertex; edge
paths run a heap Dijkstra over the CSR rows.
"""

from __future__ import annotations

import copy
import heapq
import json
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (AttributeLengthError, ConfigError, MeshFormatError,
                     TopologyError, in_file)

# Writer emits 9 significant digits; one load/save round trip is idempotent.
_FMT = "%.9g"
# The four header lines of a polydata file, split where str.splitlines()
# splits ASCII text (read_text has already turned \r\n and \r into \n).
_HEADER = re.compile(r"(?:[^\n\v\f\x1c-\x1e]*[\n\v\f\x1c-\x1e]){4}")
# An array name is one body token: printable ASCII without whitespace.
_TOKEN = re.compile(r"[!-~]+")
# Whitespace as str.split() sees it (within ASCII the two agree).
_SPACE = re.compile(r"\s")
# The body is split into tokens about this many characters at a time: one
# chunk's tokens are a few thousand Python strings, where those of a whole
# 38k-vertex mesh (452k tokens) took ~30 MB.
_TOKEN_CHUNK = 1 << 16
# Rows formatted by one `%` call when writing a mesh: the call holds one
# Python number per value of its rows. Reading casts tokens to an array
# this many at a time.
_SAVE_BLOCK = 4096
_INT64 = np.iinfo(np.int64)


def is_token(name: str) -> bool:
    """True if name can name a SCALARS array: nonempty printable ASCII
    without whitespace."""
    return _TOKEN.fullmatch(name) is not None


def _lock(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Adjacency(NamedTuple):
    """Symmetric vertex adjacency in CSR form, read-only arrays.

    The neighbours of vertex v are indices[indptr[v]:indptr[v + 1]],
    ascending, and data holds the Euclidean lengths of those edges. The
    arrays and dtypes (int32 indptr and indices, float64 data) are those of
    scipy's `csr_matrix((data, indices, indptr))` after `sort_indices()`.
    """
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


# dtype kinds of the arrays `_typed` accepts; a bool is never a number
_KINDS = {"a numeric": "iuf", "an integer": "iu"}


def _typed(arr, kind: str, label: str) -> np.ndarray:
    """np.asarray(arr) if its dtype is of `kind` (a `_KINDS` key) or it is
    empty; otherwise MeshFormatError naming label and the dtype."""
    a = np.asarray(arr)
    if a.size and a.dtype.kind not in _KINDS[kind]:
        raise MeshFormatError(f"{label} must be {kind} array, got dtype "
                              f"{a.dtype}")
    return a


class SurfaceMesh:
    """Edge-manifold oriented triangle mesh with optional per-vertex scalars.

    Parameters
    ----------
    vertices : (n, 3) float array, mm.
    triangles : (m, 3) int array of vertex indices.
    intensity : optional (n,) float array (projected image intensity).
    region : optional (n,) int array (parcellation labels).
    name : dataset name (goes into the file header title line).
    point_data : optional dict of extra named per-vertex arrays; values are
        (array, kind) with kind "float" or "int". The keys "intensity" and
        "region" name the attributes above in a file, so point_data may not
        hold them (MeshFormatError).

    An int array of another dtype (float or bool), or vertices that are not
    numbers (bool or str), are a MeshFormatError naming the array and its
    dtype, never truncated or parsed; an empty triangle list may have any
    dtype.
    """

    def __init__(self, vertices, triangles, intensity=None, region=None,
                 name: str = "surface", point_data=None):
        v = np.array(_typed(vertices, "a numeric", "vertices"),
                     dtype=np.float64, order="C")
        t = np.array(_typed(triangles, "an integer", "triangles"),
                     dtype=np.int64, order="C")
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshFormatError("vertices must be an (n, 3) array")
        if not np.isfinite(v).all():
            raise MeshFormatError("vertex coordinates must be finite")
        if t.size == 0:
            t = t.reshape(0, 3)
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshFormatError("triangles must be an (m, 3) array")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise TopologyError("triangle references a vertex out of range")
        if t.size and ((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2])
                       | (t[:, 0] == t[:, 2])).any():
            raise TopologyError("degenerate triangle (repeated vertex index)")
        self.vertices = _lock(v)
        self.triangles = _lock(t)
        self.name = str(name)
        self.intensity = self._checked_intensity(intensity)
        self.region = self._checked(region, np.int64, "region")
        self.point_data = {}
        for key, (arr, kind) in (point_data or {}).items():
            if key in ("intensity", "region"):
                raise MeshFormatError(f"point_data key {key!r} is reserved "
                                      f"for the mesh's {key}")
            dt = np.int64 if kind == "int" else np.float64
            label = f"point_data[{key!r}]"
            self.point_data[key] = (self._checked(arr, dt, label), kind)

    def _checked(self, arr, dtype, label):
        if arr is None:
            return None
        a = _typed(arr, "an integer", label) if dtype is np.int64 \
            else np.asarray(arr)
        out = np.array(a, dtype=dtype, order="C")
        if out.shape != (len(self.vertices),):
            raise AttributeLengthError(
                f"{label} has length {out.shape}, expected ({len(self.vertices)},)")
        return _lock(out)

    def _checked_intensity(self, intensity):
        out = self._checked(intensity, np.float64, "intensity")
        # -inf is legal: it marks a vertex with no in-volume sample; +inf
        # would be scar at every factor
        if out is not None and np.isnan(out).any():
            raise MeshFormatError("intensity contains NaN")
        if out is not None and (out == np.inf).any():
            raise MeshFormatError("intensity is +inf at vertex "
                                  f"{int(np.argmax(out == np.inf))}")
        return out

    def with_intensity(self, intensity) -> SurfaceMesh:
        """This mesh with `intensity` in place of its own. Every other array
        and the connectivity derived so far are shared, not rebuilt."""
        out = copy.copy(self)
        out.intensity = self._checked_intensity(intensity)
        out.point_data = dict(self.point_data)
        return out

    def derive(self, parent, triangles, name=None) -> SurfaceMesh:
        """The mesh on `triangles` whose vertex i is this mesh's vertex
        parent[i], with intensity, region and every point-data array taken
        along `parent`; it keeps this mesh's name unless `name` is given."""
        p = np.asarray(parent, dtype=np.int64)
        return SurfaceMesh(
            self.vertices[p], triangles,
            intensity=None if self.intensity is None else self.intensity[p],
            region=None if self.region is None else self.region[p],
            name=self.name if name is None else name,
            point_data={k: (a[p], kind) for k, (a, kind)
                        in self.point_data.items()})

    # ------------------------------------------------------------------
    # derived connectivity (cached)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def _half_edge_ends(self) -> tuple:
        """(tails, heads) of the 3m half-edges in their numbering, built
        from `triangles` and not cached, for the half-edges (a, b), (b, c)
        and (c, a) of each triangle (a, b, c). The head of half-edge h is
        the tail of the next, (h + m) % 3m."""
        tails = self.triangles.T.ravel()
        m = self.n_triangles
        return tails, np.concatenate((tails[m:], tails[:m]))

    def _key(self, tails, heads) -> np.ndarray:
        return tails * self.n_vertices + heads

    def _undirected_key(self, tails, heads) -> np.ndarray:
        keys = np.minimum(tails, heads)
        keys *= self.n_vertices
        keys += np.maximum(tails, heads)
        return keys

    def _tails_and_keys(self) -> tuple:
        """(tails, keys): the tail and the undirected key of each half-edge;
        the heads are dropped, as `_half_edge_ends` derives them."""
        tails, heads = self._half_edge_ends()
        return tails, self._undirected_key(tails, heads)

    def _sort_half_edges(self, keys) -> np.ndarray:
        """The stable argsort of `keys`, the 3m half-edges' undirected keys:
        the one sort of the mesh's topology (module docstring)."""
        return np.argsort(keys, kind="stable")

    @cached_property
    def _order(self) -> np.ndarray:
        """The sorted order of the half-edges, cached: read only on a mesh
        whose half-edges are walked (module docstring)."""
        return _lock(self._sort_half_edges(self._tails_and_keys()[1]))

    @cached_property
    def _edge_table(self) -> tuple:
        """(edges, counts, flipped) from the sorted order of the half-edges:
        the cached one if `opposite` has cached it, else one sorted here and
        dropped. Each run of equal undirected keys is one edge, and its
        length is the number of triangles using it: the keys and counts of
        np.unique. flipped is the least directed key tail*n + head among the
        runs of two whose half-edges share a tail, -1 if there is none."""
        tails, keys = self._tails_and_keys()
        order = vars(self).get("_order")
        if order is None:
            order = self._sort_half_edges(keys)
        # the peak is the sum of these 3m-long locals: each goes when done
        keys = keys.take(order)
        runs, counts = _runs(keys)
        del keys
        flipped = _flipped(order, counts, tails, self.n_vertices)
        edges = np.empty((len(runs), 2), dtype=runs.dtype)
        np.divmod(runs, self.n_vertices, out=(edges[:, 0], edges[:, 1]))
        return _lock(edges), _lock(counts), flipped

    @cached_property
    def edges(self) -> np.ndarray:
        """(k, 2) unique undirected edges, each sorted, lexicographic order."""
        return self._edge_table[0]

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        """(k,) Euclidean length of each edge of `edges`, computed one
        coordinate column at a time as sqrt((dx*dx + dy*dy) + dz*dz): the
        order in which np.linalg.norm(d, axis=1) sums a row, so its bits."""
        tail, head = self.edges.T
        dx, dy, dz = (col[tail] - col[head] for col in self.vertices.T)
        return _lock(np.sqrt((dx * dx + dy * dy) + dz * dz))

    def _half_edges(self, tails, heads) -> np.ndarray:
        """Half-edge index of each directed edge tail -> head, -1 if none.

        The undirected key is searched among the run keys (`edges`), and of
        the first two half-edges of its run the one whose tail is the asked
        tail is taken; a run holds at most two on a mesh `check_topology`
        accepts. Reads the cached order (`_order`)."""
        tails, heads = np.asarray(tails), np.asarray(heads)
        edges, counts, _flipped = self._edge_table
        runs = self._key(edges[:, 0], edges[:, 1])
        query = self._undirected_key(tails, heads)
        r = np.minimum(np.searchsorted(runs, query), len(runs) - 1)
        start = (np.cumsum(counts) - counts).take(r)
        order, m, t = self._order, self.n_triangles, self.triangles
        h = order.take(start)
        other = order.take(start + (counts.take(r) > 1))
        h = np.where(t[h % m, h // m] == tails, h, other)
        return np.where((runs.take(r) == query) & (t[h % m, h // m] == tails),
                        h, -1)

    @cached_property
    def opposite(self) -> np.ndarray:
        """(3m,) reversed half-edge of each half-edge, -1 on the boundary:
        the two half-edges of a run of two with different tails are each
        other's. Caches the sorted order (`_order`). On a mesh that
        `check_topology` refuses, a run of three or more half-edges gives
        -1 throughout, where a lookup by directed key would pair some."""
        order, counts = self._order, self._edge_table[1]
        first, second, twin = _runs_of_two(order, counts,
                                           self.triangles.T.ravel())
        first, second = first.compress(twin), second.compress(twin)
        opp = np.full(len(order), -1, dtype=np.int64)
        opp[first] = second
        opp[second] = first
        return _lock(opp)

    @cached_property
    def boundary_vertex_mask(self) -> np.ndarray:
        border = self.opposite < 0
        mask = np.zeros(self.n_vertices, dtype=bool)
        for ends in self._half_edge_ends():
            mask[ends.compress(border)] = True
        return _lock(mask)

    @cached_property
    def adjacency(self) -> Adjacency:
        """Symmetric vertex adjacency with Euclidean edge lengths as data,
        as a locked CSR `Adjacency` triple: each undirected edge gives two
        entries, put in row-major order by a stable sort of row * n + col."""
        e, w = self.edges, self.edge_lengths
        n = self.n_vertices
        rows = np.concatenate([e[:, 0], e[:, 1]])
        cols = np.concatenate([e[:, 1], e[:, 0]])
        order = np.argsort(self._key(rows, cols), kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return Adjacency(_lock(indptr), _lock(cols[order].astype(np.int32)),
                         _lock(np.concatenate([w, w])[order]))

    def neighbors(self, v: int) -> np.ndarray:
        a = self.adjacency
        return a.indices[a.indptr[v]:a.indptr[v + 1]]

    # ------------------------------------------------------------------
    # validation

    def check_topology(self) -> None:
        """Raise TopologyError on non-manifold edges, inconsistent orientation
        or zero-length edges.

        All three are read off the edge table. The non-manifold edge named
        is the least undirected one with more than two half-edges; the
        flipped edge named is the least directed key among the runs of two
        half-edges that share a tail. The verdict is recorded on the mesh,
        whose arrays are read-only: a second call reads it, and so does a
        `with_intensity` copy made after the check."""
        fault = self._topology_fault
        if fault:
            raise TopologyError(fault)

    @cached_property
    def _topology_fault(self) -> str:
        """check_topology's message, "" if the mesh passes."""
        edges, counts, flipped = self._edge_table
        if (counts > 2).any():
            e = edges[int(np.argmax(counts > 2))]
            return (f"non-manifold edge {tuple(e.tolist())} "
                    "shared by more than 2 triangles")
        if flipped >= 0:
            e = divmod(flipped, self.n_vertices)
            return f"inconsistent orientation: directed edge {e} appears twice"
        if self.n_triangles and self.edge_lengths.min() <= 0.0:
            e = self.edges[int(np.argmin(self.edge_lengths))]
            return f"zero-length edge {tuple(e.tolist())}"
        return ""

    # ------------------------------------------------------------------
    # boundary loops

    def boundary_loops(self) -> list[np.ndarray]:
        """Closed boundary loops as vertex index arrays.

        Loops follow triangle orientation, walking fans so that pinch vertices
        are handled per surface corner. Each loop starts at its smallest
        (tail, head) boundary edge; loops are ordered by that key.
        """
        tails, heads = self._half_edge_ends()
        opp = self.opposite
        m = self.n_triangles
        h3 = 3 * m
        border = np.flatnonzero(opp < 0)
        border = border[np.argsort(self._key(tails[border], heads[border]),
                                   kind="stable")]
        # successor of a boundary half-edge (u, v): turn around v across
        # interior spokes until the next boundary half-edge leaving v
        succ = (border + m) % h3
        for _ in range(h3 + 1):
            inner = opp[succ] >= 0
            if not inner.any():
                break
            succ[inner] = (opp[succ[inner]] + m) % h3
        else:
            raise TopologyError("a boundary fan does not end on a boundary")
        pending = dict(zip(border.tolist(), succ.tolist()))  # in key order
        loops = []
        while pending:
            loop = [next(iter(pending))]
            while (h := pending.pop(loop[-1], None)) != loop[0]:
                if h is None:
                    raise TopologyError("boundary half-edges do not form loops")
                loop.append(h)
            loops.append(tails[loop])
        return loops


def _runs(keys) -> tuple:
    """(run keys, run lengths) of the runs of equal values in sorted keys:
    the values and counts of np.unique."""
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    return keys.take(starts), np.diff(starts, append=len(keys))


def _runs_of_two(order, counts, tails) -> tuple:
    """(first, second, twin) of the runs of two half-edges in the sorted
    order of a mesh's half-edges, runs `counts` long: their half-edges in
    that order, and whether their tails differ."""
    start = np.cumsum(counts)
    start -= counts
    start = start.compress(counts == 2)
    first, second = order.take(start), order.take(start + 1)
    return first, second, tails.take(first) != tails.take(second)


def _flipped(order, counts, tails, n) -> int:
    """The least directed key tail*n + head among the runs of two
    half-edges that share a tail, -1 if there is none; the head of
    half-edge h is the tail of (h + m) % 3m."""
    first, _second, twin = _runs_of_two(order, counts, tails)
    bad = first.compress(~twin)
    if not len(bad):
        return -1
    heads = tails.take((bad + len(tails) // 3) % len(tails))
    return int((tails.take(bad) * n + heads).min())


# ----------------------------------------------------------------------
# connected components of a vertex mask

@dataclass(frozen=True)
class PatchLabeling:
    """Connected components of a masked vertex set.

    labels[v] is the patch id or -1 outside the mask. Patch ids are contiguous
    and ordered by the smallest vertex index contained in each patch.
    """
    labels: np.ndarray
    count: int
    patches: tuple  # tuple of sorted vertex index arrays


def checked_mask(mask, what: str = "mask") -> np.ndarray:
    """mask as a bool array: ValueError for any other dtype, as a float or
    int mask would count every nonzero value in; `what` names it."""
    mask = np.asarray(mask)
    if mask.dtype != bool:
        raise ValueError(f"{what} must be a bool array, got dtype "
                         f"{mask.dtype}")
    return mask


def connected_components(mesh: SurfaceMesh, mask) -> PatchLabeling:
    """Patches of the bool vertex mask (see `checked_mask`)."""
    mask = checked_mask(mask)
    if mask.shape != (mesh.n_vertices,):
        raise AttributeLengthError("mask length does not match vertex count")
    labels = np.full(mesh.n_vertices, -1, dtype=np.int64)
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        return PatchLabeling(_lock(labels), 0, ())
    # node k is vertex idx[k]; both numberings have the same order
    node = np.cumsum(mask) - 1
    e = mesh.edges
    e = node[e[mask[e[:, 0]] & mask[e[:, 1]]]]
    a, b = e[:, 0], e[:, 1]
    # Min-label hooking: every node points at a smaller node of its patch
    # or at itself (a root). Each round hooks the larger root of every edge
    # between two trees onto the smaller one, then jumps pointers until all
    # nodes point at roots. A tree with an edge to another tree either
    # hooks or has a neighbour hook onto it, so the trees at least halve
    # per round; at the end each patch's root is its smallest node.
    root = np.arange(len(idx))
    while True:
        ra, rb = root[a], root[b]
        live = ra != rb
        if not live.any():
            break
        a, b, ra, rb = a[live], b[live], ra[live], rb[live]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(up := root[root], root):
            root = up
    # roots ascend with their patch's smallest vertex, as patch ids must
    _, patch = np.unique(root, return_inverse=True)
    labels[idx] = patch
    members = idx[np.argsort(patch, kind="stable")]  # ascending per patch
    patches = tuple(np.split(members, np.cumsum(np.bincount(patch))[:-1]))
    return PatchLabeling(_lock(labels), len(patches), patches)


def checked_ids(mesh: SurfaceMesh, ids, what: str) -> np.ndarray:
    """ids as sorted unique read-only int64 vertex ids of mesh. Raises
    TopologyError if ids is empty or holds an id out of range, ValueError
    if its dtype is not integer (bool included); `what` names the set."""
    a = np.asarray(ids)
    if a.size == 0:
        raise TopologyError(f"{what} set is empty")
    if a.dtype.kind not in "iu":
        raise ValueError(f"{what} vertex ids must be integers, "
                         f"got dtype {a.dtype}")
    a = np.unique(a.astype(np.int64))
    if a[0] < 0 or a[-1] >= mesh.n_vertices:
        raise TopologyError(f"{what} vertex out of range")
    return _lock(a)


# ----------------------------------------------------------------------
# shortest edge path (deterministic Dijkstra)

def edge_path(mesh: SurfaceMesh, sources, targets) -> np.ndarray:
    """Shortest path along mesh edges from a source set to a target set.

    Euclidean edge weights; ties broken by smaller vertex index at each
    expansion. Returns the ordered vertex index path (source first).
    Both sets are checked by `checked_ids`. Raises TopologyError if no
    target is reachable.
    """
    src = checked_ids(mesh, sources, "source")
    dst = checked_ids(mesh, targets, "target")
    common = np.intersect1d(src, dst)
    if len(common):
        return np.asarray([common[0]], dtype=np.int64)
    target_mask = np.zeros(mesh.n_vertices, dtype=bool)
    target_mask[dst] = True
    dist = np.full(mesh.n_vertices, np.inf)
    pred = np.full(mesh.n_vertices, -1, dtype=np.int64)
    dist[src] = 0.0
    heap = [(0.0, int(v)) for v in src]
    heapq.heapify(heap)
    adj = mesh.adjacency
    done = np.zeros(mesh.n_vertices, dtype=bool)
    while heap:
        d, v = heapq.heappop(heap)
        if done[v] or d > dist[v]:
            continue
        done[v] = True
        if target_mask[v]:
            path = [v]
            while pred[path[-1]] >= 0:
                path.append(int(pred[path[-1]]))
            return np.asarray(path[::-1], dtype=np.int64)
        lo, hi = adj.indptr[v], adj.indptr[v + 1]
        for u, w in zip(adj.indices[lo:hi].tolist(), adj.data[lo:hi].tolist()):
            nd = d + w
            if nd < dist[u]:
                dist[u] = nd
                pred[u] = v
                heapq.heappush(heap, (nd, u))
    raise TopologyError("no edge path between the given sets")


# ----------------------------------------------------------------------
# seam cutting

@dataclass(frozen=True)
class CutMesh:
    """Mesh cut open along a vertex path.

    mesh : the opened mesh (same triangle count, duplicated seam vertices).
    parent_vertex : per-vertex index into the mesh the cut was applied to;
        for an opened search area (`regions.open_area`), into the mesh the
        area was extracted from, not its submesh.
    side_a : all cut-path vertices, original copies, in path order.
    side_b : their duplicates, same order; side_a[i] and side_b[i] have
        identical coordinates and share no triangle.
    """
    mesh: SurfaceMesh
    parent_vertex: np.ndarray
    side_a: np.ndarray
    side_b: np.ndarray


def cut_mesh(mesh: SurfaceMesh, path) -> CutMesh:
    """Open `mesh` along an edge-connected simple vertex path.

    Path endpoints must lie on mesh boundary, all other path vertices in the
    mesh interior. Every path vertex is duplicated; triangles on the right
    of the directed path get the duplicates, so after cutting no edge (and
    no shared vertex) connects the two seam copies.
    """
    path = np.asarray(path, dtype=np.int64)
    if len(path) < 3:
        raise TopologyError("cut path needs at least one interior vertex")
    if len(np.unique(path)) != len(path):
        raise TopologyError("cut path revisits a vertex")
    bmask = mesh.boundary_vertex_mask
    if not (bmask[path[0]] and bmask[path[-1]]):
        raise TopologyError("cut path endpoints must lie on a mesh boundary")
    if bmask[path[1:-1]].any():
        raise TopologyError("cut path touches a boundary at an interior vertex")
    last = len(path) - 1
    found = mesh._half_edges(np.concatenate([path[:-1], path[1:]]),
                             np.concatenate([path[1:], path[:-1]]))
    fwd, rev = found[:last], found[last:]  # (v, next) and (next, v)
    # each path edge has an interior end, so both of its half-edges exist
    # or neither does
    bad = np.flatnonzero(fwd < 0)
    if len(bad):
        ab = (int(path[bad[0]]), int(path[bad[0] + 1]))
        raise TopologyError(f"cut path vertices {ab} are not edge-connected")

    # Every path vertex is duplicated, endpoints included: the endpoint fans
    # open at the mesh boundary, so the path edge splits them in two exactly
    # like the two spokes split an interior fan. Leaving endpoints single
    # would pinch the seam there and let paths slip around its ends.
    n, m = mesh.n_vertices, mesh.n_triangles
    heads, opp = mesh._half_edge_ends()[1], mesh.opposite
    fan_size = np.bincount(mesh.triangles.ravel(), minlength=n)
    right = []  # half-edges (x, v) of the triangles right of the path at v
    for i, v in enumerate(path.tolist()):
        prv = int(path[i - 1]) if i else -1
        # Sweep the fan of v over the right side of the path: forward from
        # the triangle holding (next, v) to the one holding (v, prev), or to
        # the boundary at the first vertex; at the last vertex backward from
        # the triangle holding (v, prev) to the boundary.
        h = int(rev[i]) if i < last else (int(rev[i - 1]) + 2 * m) % (3 * m)
        for _ in range(fan_size[v]):
            right.append(h)
            if i < last:
                h = (h + m) % (3 * m)  # (v, x) in the same triangle
                if heads[h] == prv or opp[h] < 0:
                    break
                h = int(opp[h])
            elif opp[h] < 0:
                break
            else:
                h = (int(opp[h]) + 2 * m) % (3 * m)
        else:
            raise TopologyError(f"cut does not separate the fan at vertex {v}")

    n_new = n + len(path)
    parent = np.concatenate([np.arange(n, dtype=np.int64), path])
    side_a = path.copy()
    side_b = np.arange(n, n_new, dtype=np.int64)
    dup = np.zeros(n, dtype=np.int64)
    dup[side_a] = side_b
    right = np.asarray(right, dtype=np.int64)
    tris = mesh.triangles.copy()
    tris[right % m, (right // m + 1) % 3] = dup[heads[right]]
    out = mesh.derive(parent, tris)

    # post: the seam is really open (no edge joins side 1 to side 2)
    side = np.zeros(n_new, dtype=np.int8)
    side[side_a], side[side_b] = 1, 2
    tails, heads = out._half_edge_ends()
    if (side[tails] * side[heads] == 2).any():
        raise TopologyError("cut failed: an edge still crosses the seam")
    return CutMesh(mesh=out, parent_vertex=_lock(parent),
                   side_a=_lock(side_a), side_b=_lock(side_b))


# ----------------------------------------------------------------------
# legacy ASCII polydata I/O

def load_mesh(path) -> SurfaceMesh:
    """Read a legacy ASCII polydata file written by save_mesh (or compatible).

    After the four header lines the body is one whitespace token stream, as
    in VTK's own reader: POINTS / POLYGONS with triangle cells, then
    optional POINT_DATA with SCALARS arrays, each with a named LOOKUP_TABLE.
    'intensity' (float) and 'region' (int) are mapped to the corresponding
    mesh attributes; other scalars land in point_data. A second POINTS,
    POLYGONS or POINT_DATA section, or a second SCALARS array of one name,
    is a MeshFormatError: it would overwrite the first. The stream is split
    a chunk at a time (`_token_chunks`), so a large body is never held as
    one list of tokens. Numbers are cast _SAVE_BLOCK tokens at a time. An
    integer is an optional sign and decimal digits, within int64
    (`_parse_ints`); a float is what Python's float() reads, without `_`
    (`_parse_floats`). Any other token is a MeshFormatError, `bad numeric
    value`. Every error the file's content raises names the file.
    """
    path = Path(path)
    with in_file(path):
        return _read_mesh(path)


def _read_mesh(path: Path) -> SurfaceMesh:
    try:
        text = path.read_text(encoding="ascii")
    except UnicodeDecodeError as e:
        raise MeshFormatError("not an ASCII polydata file") from e
    head = _HEADER.match(text)
    if head is None:
        raise MeshFormatError("truncated header")
    lines = head[0].splitlines()
    if not lines[0].startswith("# vtk DataFile"):
        raise MeshFormatError("missing polydata header line")
    name = lines[1].strip()
    if lines[2].strip().upper() != "ASCII":
        raise MeshFormatError("only ASCII encoding is supported")
    if lines[3].split() != ["DATASET", "POLYDATA"]:
        raise MeshFormatError("expected DATASET POLYDATA")
    tokens = chain.from_iterable(_token_chunks(text, head.end()))

    def take(count, dtype=None):
        """The next `count` tokens: a list, or one array cast to dtype
        (np.int64 or np.float64), each block parsed once. Too few tokens is
        reported before a bad value, as in one whole read."""
        out = [] if dtype is None else np.empty(count, dtype=dtype)
        parse = _parse_ints if dtype is np.int64 else _parse_floats
        bad = False
        for lo in range(0, count, _SAVE_BLOCK):
            size = min(_SAVE_BLOCK, count - lo)
            piece = list(islice(tokens, size))
            if len(piece) < size:
                raise MeshFormatError("unexpected end of file")
            if dtype is None:
                out += piece
            elif not bad:
                try:
                    out[lo:lo + size] = parse(piece)
                except ValueError:
                    bad = True
        if bad:
            raise MeshFormatError("bad numeric value")
        return out

    def parse_count(token):
        if not token.isdigit():
            raise MeshFormatError(f"bad count {token!r}")
        return int(token)

    verts = tris = None
    n_points = 0
    scalars = {}
    seen = set()
    for key in tokens:
        key = key.upper()
        if key in ("POINTS", "POLYGONS", "POINT_DATA"):
            if key in seen:
                raise MeshFormatError(f"repeated {key} section")
            seen.add(key)
        if key == "POINTS":
            n_points = parse_count(take(2)[0])  # the value type is ignored
            verts = take(3 * n_points, np.float64).reshape(n_points, 3)
        elif key == "POLYGONS":
            if verts is None:
                raise MeshFormatError("malformed POLYGONS section")
            m, total = map(parse_count, take(2))
            if total != 4 * m:
                raise MeshFormatError(
                    f"POLYGONS size {total} != 4*{m}; only triangles are "
                    "supported")
            arr = take(total, np.int64).reshape(m, 4)
            if (arr[:, 0] != 3).any():
                raise MeshFormatError("non-triangle cell present")
            tris = arr[:, 1:]
        elif key == "POINT_DATA":
            count = parse_count(take(1)[0])
            if count != n_points:
                raise AttributeLengthError(
                    f"POINT_DATA count {count} != {n_points}")
        elif key == "SCALARS":
            sname, stype, lut = take(3)
            if sname in scalars:
                raise MeshFormatError(f"repeated SCALARS array {sname!r}")
            if lut != "LOOKUP_TABLE":  # the optional component count
                if parse_count(lut) != 1:
                    raise MeshFormatError("multi-component scalars "
                                          "unsupported")
                lut = take(1)[0]
            if lut != "LOOKUP_TABLE":
                raise MeshFormatError("SCALARS without LOOKUP_TABLE")
            take(1)  # the table name
            stype = stype.lower()
            if stype in ("int", "long", "short", "vtkidtype"):
                scalars[sname] = (take(n_points, np.int64), "int")
            elif stype in ("float", "double"):
                scalars[sname] = (take(n_points, np.float64), "float")
            else:
                raise MeshFormatError(f"unsupported scalar type {stype}")
        else:
            raise MeshFormatError(f"unsupported section {key!r}")

    if verts is None or tris is None:
        raise MeshFormatError("missing POINTS or POLYGONS section")
    intensity = scalars.pop("intensity", (None, None))[0]
    region_arr = scalars.pop("region", (None, None))[0]
    mesh = SurfaceMesh(verts, tris, intensity=intensity, region=region_arr,
                       name=name, point_data=scalars)
    mesh.check_topology()
    return mesh


def _parse_ints(piece: list) -> np.ndarray:
    """The int64 values of a nonempty list of tokens, each an optional sign
    and decimal digits within int64; ValueError if any token is not.

    One np.fromstring parse reads the block, and every way it can misread
    a token shows:
    - a token it cannot read to its end (`1.5`, `0x1F`, `1_000`) makes it
      raise ValueError; an older numpy (1.24) instead warns
      (DeprecationWarning) and returns the values read so far;
    - a lone sign takes in the token after it, so fewer values come back;
      as the last token it reads 0;
    - a value beyond int64 saturates at int64's minimum or maximum, so
      each token read as one of those is checked to spell it: its sign and
      its digits, leading zeros stripped, as str() gives the value.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            out = np.fromstring(" ".join(piece), dtype=np.int64, sep=" ")
        except DeprecationWarning as e:
            raise ValueError(str(e)) from e
    if out.size != len(piece) or piece[-1] in ("+", "-"):
        raise ValueError("a lone sign")
    for i in np.flatnonzero((out == _INT64.min) | (out == _INT64.max)):
        token = piece[i]
        sign = "-" if token[0] == "-" else ""
        digits = token[1:] if token[0] in "+-" else token
        if sign + digits.lstrip("0") != str(out[i]):
            raise ValueError(f"{token!r} is beyond int64")
    return out


def _parse_floats(piece: list) -> np.ndarray:
    """The float64 values of a list of tokens, each read as Python's
    float() reads it but without `_`; ValueError if any token is not."""
    if "_" in "".join(piece):
        raise ValueError("`_` in a number")
    return np.array(piece, dtype=np.float64)


def _token_chunks(text: str, start: int):
    """str.split() of text[start:], as successive lists of the tokens of
    about _TOKEN_CHUNK characters each, every cut made at whitespace."""
    while start < len(text):
        cut = _SPACE.search(text, start + _TOKEN_CHUNK)
        end = cut.start() if cut else len(text)
        yield text[start:end].split()
        start = end


def _block(values: np.ndarray, row: str):
    """One line per row of `values`, yielded as one string per _SAVE_BLOCK
    rows, each rendered by one `%` call."""
    line = row + "\n"
    for lo in range(0, len(values), _SAVE_BLOCK):
        rows = values[lo:lo + _SAVE_BLOCK]
        yield (line * len(rows)) % tuple(rows.ravel().tolist())


def save_mesh(mesh: SurfaceMesh, path) -> None:
    """Write legacy ASCII polydata with LF endings and 9 significant digits.

    Writing is atomic (see `write_atomic`), one block of rows at a time:
    the file's text is never held whole.
    Raises MeshFormatError, before anything is written, if the name is not
    one line of ASCII (the title is one header line) or a point-data key is
    not a token (see `is_token`).
    """
    title = mesh.name if mesh.name else "surface"
    if not title.isascii() or title.splitlines() != [title]:
        raise MeshFormatError(f"mesh name {title!r} is not one line of ASCII")
    bad = [key for key in mesh.point_data if not is_token(key)]
    if bad:
        raise MeshFormatError(f"point-data name {bad[0]!r} is not printable "
                              "ASCII without whitespace")
    write_atomic(path, (text.encode("ascii")
                        for text in _mesh_text(mesh, title)))


def _mesh_text(mesh: SurfaceMesh, title: str):
    """The text of `save_mesh`'s file: its section lines and row blocks."""
    yield (f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET POLYDATA\n"
           f"POINTS {mesh.n_vertices} float\n")
    yield from _block(mesh.vertices, " ".join([_FMT] * 3))
    yield f"POLYGONS {mesh.n_triangles} {4 * mesh.n_triangles}\n"
    yield from _block(mesh.triangles, "3 %d %d %d")
    arrays = []
    if mesh.intensity is not None:
        arrays.append(("intensity", mesh.intensity, "float"))
    if mesh.region is not None:
        arrays.append(("region", mesh.region, "int"))
    for key, (arr, kind) in mesh.point_data.items():
        arrays.append((key, arr, kind))
    if arrays:
        yield f"POINT_DATA {mesh.n_vertices}\n"
    for key, arr, kind in arrays:
        vtype, row = ("int", "%d") if kind == "int" else ("float", _FMT)
        yield f"SCALARS {key} {vtype} 1\nLOOKUP_TABLE default\n"
        yield from _block(arr, row)


def write_atomic(path, chunks) -> None:
    """Publish the bytes of `chunks`, an iterable of bytes-like objects,
    at `path` whole or not at all: write each chunk as it comes to
    `<name>.tmp` beside the target, creating the directory, then rename it
    over the target. On any error, one the iterable raises included, the
    temp file is removed and the error re-raised."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_json(path):
    """The strict JSON value in file `path`: UTF-8 text without the
    constants NaN and Infinity, which `write_json` never emits, and without
    a key held twice by one object, whose first value `json.load` would
    drop. Text that is not such JSON raises ConfigError naming the file;
    an unreadable file raises its OSError."""
    def strict(name):
        raise ConfigError(f"{name} is not strict JSON")

    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"duplicate key {json.dumps(key)}")
            obj[key] = value
        return obj
    with in_file(path), open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=strict,
                             object_pairs_hook=unique)
        except ValueError as exc:  # a syntax error or bytes that are not UTF-8
            raise ConfigError(str(exc)) from None


def write_json(path, obj) -> None:
    """Publish `obj` at `path` as strict JSON with a two-space indent and a
    final newline (see `write_atomic`). A NaN or infinite float raises
    ValueError before anything is written."""
    text = json.dumps(obj, indent=2, allow_nan=False)
    write_atomic(path, [(text + "\n").encode("utf-8")])
