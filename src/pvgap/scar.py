"""Scalar image volumes and scar projection onto mesh vertices.

Late-enhancement intensity lives in a regular scalar volume; the mesh is a
wall segmentation. Each vertex samples the volume along its outward normal
within a fixed reach on both sides and keeps the maximum (a normal-line
maximum-intensity projection), so the projected value is robust to small
registration offsets between wall and image. Samples are trilinear, a
numpy eight-corner sum with the arithmetic of an order-1
`scipy.ndimage.map_coordinates` (see `_sample_trilinear`), so projection
needs no scipy. A projection pads the volume once by one edge-replicated
plane past each top face, so a sample's eight corners sit at fixed
offsets from one flat index and no upper corner needs a clamp; the
float32 copy lives only as long as the call. Vertices are sampled in
fixed blocks that bound the other temporaries. Sample points outside the
volume are skipped; a vertex with no in-volume sample projects to -inf,
which no threshold can classify as scar. Its tissue is unknown, not
healthy, so an area fails when a gap of its route at any factor crosses
such a vertex (`sweep.run_case`). Voxel values must be finite.

Scar masks come from blood-pool statistics: a vertex is scar at factor k
when its projection strictly exceeds mean + k * sd. Masks are nested by
construction: raising k can only shrink them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import TopologyError, VolumeFormatError, in_file, is_real
from .mesh import SurfaceMesh, checked_mask, write_atomic

THRESHOLD_FACTORS = (2.0, 3.3, 4.0, 5.0, 6.0)

MIP_REACH_MM = 3.0
MIP_STEP_MM = 0.2
# vertices sampled per block: the temporaries of one block (31 samples per
# vertex) stay within ~130 kB each, so they are served from cache and a
# freed block's memory is reused by the next; 512 to 1024 read fastest
_MIP_BLOCK = 512

_MAGIC = "scalar-volume 1"
_FMT = "%.9g"


@dataclass(frozen=True)
class ScalarVolume:
    """Regular float32 volume.

    values is indexed [iz, iy, ix]; world = origin + direction @ (index *
    spacing) with x the fastest-varying storage axis. direction is a
    rotation (orthonormal, rows are world axes). Every voxel value must be
    finite: a nan or inf voxel would turn every sample that reads it, even
    at weight 0, into nan or inf.
    """
    values: np.ndarray
    spacing: tuple
    origin: tuple
    direction: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float32)
        if vals.ndim != 3 or min(vals.shape) < 2:
            raise VolumeFormatError("volume needs at least 2 voxels per axis")
        bad = ~np.isfinite(vals)
        if bad.any():
            iz, iy, ix = np.argwhere(bad)[0]
            raise VolumeFormatError(
                f"values must be finite: voxel [iz, iy, ix] = [{iz}, {iy},"
                f" {ix}] holds {vals[iz, iy, ix]} (non-finite voxels:"
                f" {bad.sum()})")
        d = np.asarray(self.direction, dtype=np.float64)
        if d.shape != (3, 3) or not np.allclose(d @ d.T, np.eye(3), atol=1e-6):
            raise VolumeFormatError("direction must be a 3x3 rotation")
        sp, og = tuple(self.spacing), tuple(self.origin)
        for name, vec in (("spacing", sp), ("origin", og)):
            if len(vec) != 3 or not all(map(is_real, vec)):
                raise VolumeFormatError(f"{name} must be 3 finite numbers")
        if any(s <= 0 for s in sp):
            raise VolumeFormatError("spacing must be positive")
        vals.flags.writeable = False
        d.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "spacing", tuple(map(float, sp)))
        object.__setattr__(self, "origin", tuple(map(float, og)))
        object.__setattr__(self, "direction", d)

    @property
    def dims(self) -> tuple:
        nz, ny, nx = self.values.shape
        return (nx, ny, nz)


def load_volume(path) -> ScalarVolume:
    """The scalar volume in file path; every VolumeFormatError names the
    file, and an unreadable file raises its OSError."""
    with in_file(path):
        return _read_volume(path)


def _read_volume(path) -> ScalarVolume:
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0 or raw[:nl].decode("ascii", "replace") != _MAGIC:
        raise VolumeFormatError("not a scalar volume file")
    fields = {}
    pos = nl + 1
    while True:
        nl = raw.find(b"\n", pos)
        if nl < 0:
            raise VolumeFormatError("missing data section")
        line = raw[pos:nl].decode("ascii", "replace").strip()
        pos = nl + 1
        if line == "data":
            break
        key, _, rest = line.partition(" ")
        if not rest or key in fields:
            raise VolumeFormatError(f"bad header line {line!r}")
        fields[key] = rest
    required = {"dims", "spacing", "origin", "direction", "dtype", "order"}
    missing = required - fields.keys()
    extra = fields.keys() - required
    if missing or extra:
        raise VolumeFormatError("header keys mismatch"
                                f" (missing {sorted(missing)},"
                                f" unknown {sorted(extra)})")
    if fields["dtype"] != "float32":
        raise VolumeFormatError(f"unsupported dtype {fields['dtype']}")
    if fields["order"] != "x-fastest":
        raise VolumeFormatError(f"unsupported order {fields['order']}")
    for key in ("dims", "spacing", "origin", "direction"):
        # int() and float() read 0_5 as 5; no volume writer emits it
        if "_" in fields[key]:
            raise VolumeFormatError(f"bad {key} value {fields[key]!r}")
    try:
        nx, ny, nz = (int(v) for v in fields["dims"].split())
        spacing = tuple(float(v) for v in fields["spacing"].split())
        origin = tuple(float(v) for v in fields["origin"].split())
        dirv = [float(v) for v in fields["direction"].split()]
    except ValueError as exc:
        raise VolumeFormatError(f"bad header value: {exc}") from exc
    if len(spacing) != 3 or len(origin) != 3 or len(dirv) != 9:
        raise VolumeFormatError("bad header vector length")
    if min(nx, ny, nz) < 1:
        raise VolumeFormatError(f"dims {nx} {ny} {nz} must be positive")
    count = nx * ny * nz
    if len(raw) - pos != 4 * count:
        raise VolumeFormatError(f"expected {4 * count} data bytes,"
                                f" found {len(raw) - pos}")
    # a view of the file's bytes: the payload is not copied
    vals = np.frombuffer(raw, dtype="<f4", offset=pos).reshape(nz, ny, nx)
    return ScalarVolume(values=vals, spacing=spacing, origin=origin,
                        direction=np.asarray(dirv).reshape(3, 3))


def save_volume(volume: ScalarVolume, path) -> None:
    nx, ny, nz = volume.dims
    lines = [_MAGIC,
             f"dims {nx} {ny} {nz}",
             "spacing " + " ".join(_FMT % s for s in volume.spacing),
             "origin " + " ".join(_FMT % o for o in volume.origin),
             "direction " + " ".join(_FMT % v
                                     for v in volume.direction.ravel()),
             "dtype float32",
             "order x-fastest",
             "data"]
    # the values are float32 and C-contiguous (`ScalarVolume`), so on a
    # little-endian host the payload is a view, not a copy
    write_atomic(path, ["\n".join(lines + [""]).encode("ascii"),
                        np.ascontiguousarray(volume.values, dtype="<f4")])


def vertex_normals(mesh: SurfaceMesh) -> np.ndarray:
    """Area-weighted vertex normals.

    Raw triangle cross products are summed per vertex, so larger triangles
    weigh more: one `np.bincount` per axis over corner 0 of every triangle,
    then corner 1, then corner 2, the order in which `np.add.at` would add
    them, so the sums keep its bits. Vertices whose sum cancels out (folded
    fans) fall back to the average of already-resolved neighbor normals;
    a TopologyError names the first vertex that cannot be resolved.
    """
    # rows x, y, z; the cross product is np.cross's arithmetic
    xyz = np.ascontiguousarray(mesh.vertices.T)
    corners = np.ascontiguousarray(mesh.triangles.T)
    p0 = xyz[:, corners[0]]
    ax, ay, az = xyz[:, corners[1]] - p0
    bx, by, bz = xyz[:, corners[2]] - p0
    cross = (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)
    acc = np.stack([np.bincount(corners.ravel(), weights=np.tile(c, 3),
                                minlength=mesh.n_vertices)
                    for c in cross], axis=1)
    norms = np.linalg.norm(acc, axis=1)
    good = norms > 1e-12
    out = np.zeros_like(acc)
    out[good] = acc[good] / norms[good, None]
    todo = np.nonzero(~good)[0]
    for _round in range(mesh.n_vertices):
        if todo.size == 0:
            break
        still = []
        for v in todo:
            nb = mesh.neighbors(int(v))
            mean = out[nb].sum(axis=0)
            norm = np.linalg.norm(mean)
            if norm > 1e-12:
                out[v] = mean / norm
            else:
                still.append(v)
        if len(still) == len(todo):
            raise TopologyError("cannot resolve the degenerate normal of"
                                f" vertex {int(still[0])}")
        todo = np.asarray(still, dtype=np.int64)
    out.flags.writeable = False
    return out


def _padded_grid(volume: ScalarVolume) -> np.ndarray:
    """The volume's values with one edge-replicated plane past each top
    face, flattened: a float32 copy of (nz + 1) * (ny + 1) * (nx + 1)."""
    return np.pad(volume.values, ((0, 1),) * 3, mode="edge").ravel()


def _sample_trilinear(volume: ScalarVolume, pts: np.ndarray, grid=None):
    """Values and validity of world-space points; invalid = outside grid.

    The arithmetic is that of `scipy.ndimage.map_coordinates(order=1,
    mode="nearest", prefilter=False)`, to the bit: per axis the fraction is
    x = c - floor(c) with weights w0 = 1 - x and w1 = 1 - w0, each corner
    term is ((v * wz) * wy) * wx in float64, and the eight terms are summed
    from 0.0 in z, y, x corner order, x fastest. The corners are read from
    `_padded_grid`'s copy (grid, built here unless given) at eight fixed
    offsets from one base index per sample. A sample on a top face
    (c = n - 1, w1 = 0) reads the padding plane there, which holds the face
    voxel that mode "nearest" reads when it clamps the upper corner to
    n - 1.
    """
    flat = _padded_grid(volume) if grid is None else grid
    pts = np.asarray(pts, dtype=np.float64)
    # one axis at a time: a broadcast along rows of 3 costs 3x as much
    rel = np.empty((len(pts), 3))
    for a, o in enumerate(volume.origin):
        np.subtract(pts[:, a], o, out=rel[:, a])
    rel = rel @ volume.direction
    # z, y, x index coordinates
    idx = [rel[:, a] / volume.spacing[a] for a in (2, 1, 0)]
    shape = volume.values.shape
    strides = ((shape[1] + 1) * (shape[2] + 1), shape[2] + 1, 1)
    corners = [dz * strides[0] + dy * strides[1] + dx
               for dz, dy, dx in itertools.product((0, 1), repeat=3)]
    valid = np.ones(len(pts), dtype=bool)
    base = np.zeros(len(pts), dtype=np.intp)
    weights = []
    for c, n, stride in zip(idx, shape, strides):
        valid &= (c >= 0.0) & (c <= n - 1)
        # an invalid sample is read at the nearest in-grid point, so its
        # weights stay in [0, 1] however far out it lies
        c = np.clip(c, 0, n - 1)
        lo = np.floor(c)
        w0 = 1.0 - (c - lo)
        base += lo.astype(np.intp) * stride
        weights.append((w0, 1.0 - w0))
    voxel = np.empty(len(pts), dtype=flat.dtype)
    term = np.empty(len(pts))
    out = np.zeros(len(pts))
    for off, (wz, wy, wx) in zip(corners, itertools.product(*weights)):
        # every index is in range, so "wrap" never wraps; unlike the
        # default "raise" it writes straight into out, and it reads
        # faster than "clip"
        np.take(flat[off:], base, out=voxel, mode="wrap")
        np.multiply(voxel, wz, out=term)
        term *= wy
        term *= wx
        out += term
    return out, valid


def mip_project(mesh: SurfaceMesh, volume: ScalarVolume,
                reach_mm: float = MIP_REACH_MM,
                step_mm: float = MIP_STEP_MM) -> np.ndarray:
    """Per-vertex maximum intensity along the normal, within +-reach."""
    for name, value in (("reach_mm", reach_mm), ("step_mm", step_mm)):
        if not is_real(value):
            raise ValueError(f"{name} must be a finite number")
    if reach_mm <= 0.0 or step_mm <= 0.0 or step_mm > reach_mm:
        raise ValueError("need 0 < step_mm <= reach_mm")
    normals = vertex_normals(mesh)
    grid = _padded_grid(volume)
    k = int(round(reach_mm / step_mm))
    offsets = step_mm * np.arange(-k, k + 1)
    proj = np.empty(mesh.n_vertices)
    # every sample is computed on its own, so blocks give the same bits
    for lo in range(0, mesh.n_vertices, _MIP_BLOCK):
        hi = lo + _MIP_BLOCK
        # vertex + offset * normal, filled one axis at a time
        verts, norms = mesh.vertices[lo:hi], normals[lo:hi]
        pts = np.empty((len(verts), len(offsets), 3))
        for a in range(3):
            np.multiply(offsets, norms[:, a, None], out=pts[..., a])
            pts[..., a] += verts[:, a, None]
        vals, valid = _sample_trilinear(volume, pts.reshape(-1, 3), grid)
        vals[~valid] = -np.inf
        proj[lo:hi] = vals.reshape(-1, len(offsets)).max(axis=1)
    proj.flags.writeable = False
    return proj


def blood_pool_stats(volume: ScalarVolume, mask: np.ndarray) -> tuple:
    """(mean, sd) of the volume's intensity over the blood-pool mask, a
    nonempty boolean array of the volume's shape; population sd (the pool
    is the whole reference region, not a sample from it)."""
    mask = checked_mask(mask, "blood-pool mask")
    if mask.shape != volume.values.shape:
        raise ValueError("blood-pool mask shape must match the volume")
    if not mask.any():
        raise ValueError("blood-pool mask is empty")
    vals = volume.values[mask].astype(np.float64)
    return float(vals.mean()), float(vals.std(ddof=0))


def threshold_mask(projected: np.ndarray, mean: float, sd: float,
                   factor: float) -> np.ndarray:
    """Scar classification: projection strictly above mean + factor * sd;
    ValueError, naming it, unless each of these three is a finite number."""
    for name, value in (("mean", mean), ("sd", sd), ("factor", factor)):
        if not is_real(value):
            raise ValueError(f"{name} must be a finite number")
    return np.asarray(projected) > mean + factor * sd
