"""Triangle surface meshes.

Provides the mesh container used across the pipeline, legacy ASCII polydata
reading/writing, topology queries (components, boundary loops, edge paths)
and seam cutting with vertex duplication.

Conventions: coordinates are millimetres, float64. Triangles are consistently
oriented (counter-clockwise seen from outside); orientation is validated on
load together with edge-manifoldness. All containers are treated as immutable
after construction (they lock their own copies of the arrays passed in).

Topology lives in one numbering of half-edges. With m triangles, half-edge
h = r*m + t is edge r of triangle t: (t[0], t[1]), (t[1], t[2]) or (t[2], t[0])
for r = 0, 1, 2. The next half-edge around the same triangle is (h + m) % 3m.
A directed edge (a, b) of a mesh with n vertices has the int64 key a*n + b,
and its reversed half-edge is `SurfaceMesh.opposite[h]` (-1 on a boundary).

A seam cut and a search-area submesh are derived meshes, built only by
`SurfaceMesh.derive(parent, triangles)`: vertex i is the source's vertex
parent[i], with its coordinates, intensity, region and point data.

Graph queries need only numpy. `SurfaceMesh.adjacency` is a compressed
sparse row (CSR) triple of plain arrays, the layout scipy.sparse.csr_matrix
uses; component labeling hooks each patch onto its smallest vertex; edge
paths run a heap Dijkstra over the CSR rows.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import AttributeLengthError, MeshFormatError, TopologyError

# Writer emits 9 significant digits; one load/save round trip is idempotent.
_FMT = "%.9g"
# The four header lines of a polydata file, split where str.splitlines()
# splits ASCII text (read_text has already turned \r\n and \r into \n).
_HEADER = re.compile(r"(?:[^\n\v\f\x1c-\x1e]*[\n\v\f\x1c-\x1e]){4}")
# An array name is one body token: printable ASCII without whitespace.
_TOKEN = re.compile(r"[!-~]+")


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
        (array, kind) with kind "float" or "int".

    An int array of another dtype (float or bool) is a MeshFormatError
    naming it, never truncated.
    """

    def __init__(self, vertices, triangles, intensity=None, region=None,
                 name: str = "surface", point_data=None):
        v = np.array(vertices, dtype=np.float64, order="C")
        t = np.array(triangles, dtype=np.int64, order="C")
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
        self.intensity = self._checked(intensity, np.float64, "intensity")
        # -inf is legal: it marks a vertex with no in-volume sample
        if self.intensity is not None and np.isnan(self.intensity).any():
            raise MeshFormatError("intensity contains NaN")
        self.region = self._checked(region, np.int64, "region")
        self.point_data = {}
        for key, (arr, kind) in (point_data or {}).items():
            dt = np.int64 if kind == "int" else np.float64
            label = f"point_data[{key!r}]"
            self.point_data[key] = (self._checked(arr, dt, label), kind)

    def _checked(self, arr, dtype, label):
        if arr is None:
            return None
        a = np.asarray(arr)
        if dtype is np.int64 and a.dtype.kind not in "iu":
            raise MeshFormatError(f"{label} must be an integer array, got "
                                  f"dtype {a.dtype}")
        out = np.array(a, dtype=dtype, order="C")
        if out.shape != (len(self.vertices),):
            raise AttributeLengthError(
                f"{label} has length {out.shape}, expected ({len(self.vertices)},)")
        return _lock(out)

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

    @cached_property
    def directed_edges(self) -> np.ndarray:
        """(3m, 2) directed edges (a,b),(b,c),(c,a) per triangle."""
        t = self.triangles
        return _lock(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]))

    def _key(self, tails, heads) -> np.ndarray:
        return tails * self.n_vertices + heads

    @cached_property
    def _edge_table(self) -> tuple:
        """Unique undirected edges and the number of triangles using each."""
        de = self.directed_edges
        keys, counts = np.unique(
            self._key(de.min(axis=1), de.max(axis=1)), return_counts=True)
        edges = np.stack(np.divmod(keys, self.n_vertices), axis=1)
        return _lock(edges), _lock(counts)

    @cached_property
    def edges(self) -> np.ndarray:
        """(k, 2) unique undirected edges, each sorted, lexicographic order."""
        return self._edge_table[0]

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        d = self.vertices[self.edges[:, 0]] - self.vertices[self.edges[:, 1]]
        return _lock(np.linalg.norm(d, axis=1))

    def _half_edges(self, tails, heads) -> np.ndarray:
        """Half-edge index of each directed edge tail -> head, -1 if none."""
        de = self.directed_edges
        keys = self._key(de[:, 0], de[:, 1])
        order = np.argsort(keys, kind="stable")
        query = self._key(np.asarray(tails), np.asarray(heads))
        h = order[np.minimum(np.searchsorted(keys, query, sorter=order),
                             len(keys) - 1)]
        return np.where(keys[h] == query, h, -1)

    @cached_property
    def opposite(self) -> np.ndarray:
        """(3m,) reversed half-edge of each half-edge, -1 on the boundary."""
        de = self.directed_edges
        return _lock(self._half_edges(de[:, 1], de[:, 0]))

    @cached_property
    def boundary_vertex_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_vertices, dtype=bool)
        mask[self.directed_edges[self.opposite < 0].ravel()] = True
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
        or zero-length edges."""
        counts = self._edge_table[1]
        if (counts > 2).any():
            e = self.edges[int(np.argmax(counts > 2))]
            raise TopologyError(f"non-manifold edge {tuple(e.tolist())} "
                                "shared by more than 2 triangles")
        de = self.directed_edges
        keys = np.sort(self._key(de[:, 0], de[:, 1]))
        twice = np.flatnonzero(keys[1:] == keys[:-1])
        if len(twice):
            e = divmod(int(keys[twice[0]]), self.n_vertices)
            raise TopologyError(
                f"inconsistent orientation: directed edge {e} appears twice")
        if self.n_triangles and self.edge_lengths.min() <= 0.0:
            e = self.edges[int(np.argmin(self.edge_lengths))]
            raise TopologyError(f"zero-length edge {tuple(e.tolist())}")

    # ------------------------------------------------------------------
    # boundary loops

    def boundary_loops(self) -> list[np.ndarray]:
        """Closed boundary loops as vertex index arrays.

        Loops follow triangle orientation, walking fans so that pinch vertices
        are handled per surface corner. Each loop starts at its smallest
        (tail, head) boundary edge; loops are ordered by that key.
        """
        de, opp = self.directed_edges, self.opposite
        m = self.n_triangles
        h3 = 3 * m
        border = np.flatnonzero(opp < 0)
        border = border[np.argsort(self._key(de[border, 0], de[border, 1]),
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
            loops.append(de[loop, 0])
        return loops


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
    parent_vertex : per-vertex index into the mesh the cut was applied to.
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
    bad = np.flatnonzero((fwd < 0) | (rev < 0))
    if len(bad):
        i = int(bad[0])
        ab = (int(path[i]), int(path[i + 1]))
        if fwd[i] < 0 and rev[i] < 0:
            raise TopologyError(f"cut path vertices {ab} are not edge-connected")
        raise TopologyError(f"cut path edge {ab} lies on a boundary")

    # Every path vertex is duplicated, endpoints included: the endpoint fans
    # open at the mesh boundary, so the path edge splits them in two exactly
    # like the two spokes split an interior fan. Leaving endpoints single
    # would pinch the seam there and let paths slip around its ends.
    n, m = mesh.n_vertices, mesh.n_triangles
    de, opp = mesh.directed_edges, mesh.opposite
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
                if de[h, 1] == prv or opp[h] < 0:
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
    tris[right % m, (right // m + 1) % 3] = dup[de[right, 1]]
    out = mesh.derive(parent, tris)

    # post: the seam is really open (no edge joins side 1 to side 2)
    side = np.zeros(n_new, dtype=np.int8)
    side[side_a], side[side_b] = 1, 2
    de = out.directed_edges
    if (side[de[:, 0]] * side[de[:, 1]] == 2).any():
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
    mesh attributes; other scalars land in point_data.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="ascii")
    except UnicodeDecodeError as e:
        raise MeshFormatError(f"{path}: not an ASCII polydata file") from e
    head = _HEADER.match(text)
    if head is None:
        raise MeshFormatError(f"{path}: truncated header")
    lines = head[0].splitlines()
    if not lines[0].startswith("# vtk DataFile"):
        raise MeshFormatError(f"{path}: missing polydata header line")
    name = lines[1].strip()
    if lines[2].strip().upper() != "ASCII":
        raise MeshFormatError(f"{path}: only ASCII encoding is supported")
    if lines[3].split() != ["DATASET", "POLYDATA"]:
        raise MeshFormatError(f"{path}: expected DATASET POLYDATA")
    tokens = text[head.end():].split()
    pos = 0

    def take(count, dtype=None):
        """The next `count` tokens: a list, or one array cast to dtype."""
        nonlocal pos
        if pos + count > len(tokens):
            raise MeshFormatError(f"{path}: unexpected end of file")
        block = tokens[pos:pos + count]
        pos += count
        if dtype is None:
            return block
        try:
            return np.array(block, dtype=dtype)
        except (ValueError, OverflowError):
            raise MeshFormatError(f"{path}: bad numeric value") from None

    def parse_count(token):
        if not token.isdigit():
            raise MeshFormatError(f"{path}: bad count {token!r}")
        return int(token)

    verts = tris = None
    n_points = 0
    scalars = {}
    while pos < len(tokens):
        key = take(1)[0].upper()
        if key == "POINTS":
            n_points = parse_count(take(2)[0])  # the value type is ignored
            verts = take(3 * n_points, np.float64).reshape(n_points, 3)
        elif key == "POLYGONS":
            if verts is None:
                raise MeshFormatError(f"{path}: malformed POLYGONS section")
            m, total = map(parse_count, take(2))
            if total != 4 * m:
                raise MeshFormatError(
                    f"{path}: POLYGONS size {total} != 4*{m}; only triangles "
                    "are supported")
            arr = take(total, np.int64).reshape(m, 4)
            if (arr[:, 0] != 3).any():
                raise MeshFormatError(f"{path}: non-triangle cell present")
            tris = arr[:, 1:]
        elif key == "POINT_DATA":
            count = parse_count(take(1)[0])
            if count != n_points:
                raise AttributeLengthError(
                    f"{path}: POINT_DATA count {count} != {n_points}")
        elif key == "SCALARS":
            sname, stype, lut = take(3)
            if lut != "LOOKUP_TABLE":  # the optional component count
                if parse_count(lut) != 1:
                    raise MeshFormatError(
                        f"{path}: multi-component scalars unsupported")
                lut = take(1)[0]
            if lut != "LOOKUP_TABLE":
                raise MeshFormatError(f"{path}: SCALARS without LOOKUP_TABLE")
            take(1)  # the table name
            stype = stype.lower()
            if stype in ("int", "long", "short", "vtkidtype"):
                scalars[sname] = (take(n_points, np.int64), "int")
            elif stype in ("float", "double"):
                scalars[sname] = (take(n_points, np.float64), "float")
            else:
                raise MeshFormatError(f"{path}: unsupported scalar type {stype}")
        else:
            raise MeshFormatError(f"{path}: unsupported section {key!r}")

    if verts is None or tris is None:
        raise MeshFormatError(f"{path}: missing POINTS or POLYGONS section")
    intensity = scalars.pop("intensity", (None, None))[0]
    region_arr = scalars.pop("region", (None, None))[0]
    mesh = SurfaceMesh(verts, tris, intensity=intensity, region=region_arr,
                       name=name, point_data=scalars)
    mesh.check_topology()
    return mesh


def _block(values: np.ndarray, row: str) -> str:
    """One line per row of `values`, all rendered by a single `%` call."""
    return ((row + "\n") * len(values)) % tuple(values.ravel().tolist())


def save_mesh(mesh: SurfaceMesh, path) -> None:
    """Write legacy ASCII polydata with LF endings and 9 significant digits.

    Writing is atomic (see `write_atomic`).
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
    out = [f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET POLYDATA\n"
           f"POINTS {mesh.n_vertices} float\n",
           _block(mesh.vertices, " ".join([_FMT] * 3)),
           f"POLYGONS {mesh.n_triangles} {4 * mesh.n_triangles}\n",
           _block(mesh.triangles, "3 %d %d %d")]
    arrays = []
    if mesh.intensity is not None:
        arrays.append(("intensity", mesh.intensity, "float"))
    if mesh.region is not None:
        arrays.append(("region", mesh.region, "int"))
    for key, (arr, kind) in mesh.point_data.items():
        arrays.append((key, arr, kind))
    if arrays:
        out.append(f"POINT_DATA {mesh.n_vertices}\n")
        for key, arr, kind in arrays:
            vtype, row = ("int", "%d") if kind == "int" else ("float", _FMT)
            out += [f"SCALARS {key} {vtype} 1\nLOOKUP_TABLE default\n",
                    _block(arr, row)]
    write_atomic(path, "".join(out).encode("ascii"))


def write_atomic(path, data: bytes) -> None:
    """Publish `data` at `path` whole or not at all: write `<name>.tmp`
    beside it, creating the directory, then rename it over the target. On
    any error the temp file is removed and the error re-raised."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(data)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
