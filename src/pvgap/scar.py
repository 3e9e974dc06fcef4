"""Scalar image volumes and scar projection onto mesh vertices.

Late-enhancement intensity lives in a regular scalar volume; the mesh is a
wall segmentation. Each vertex samples the volume along its outward normal
within a fixed reach on both sides and keeps the maximum (a normal-line
maximum-intensity projection), so the projected value is robust to small
registration offsets between wall and image. Samples are trilinear, an
order-1 `scipy.ndimage.map_coordinates` imported on the first projection.
Sample points outside the volume are skipped; a vertex with no in-volume
sample projects to -inf, which no threshold can classify as scar.

Scar masks come from blood-pool statistics: a vertex is scar at factor k
when its projection strictly exceeds mean + k * sd. Masks are nested by
construction: raising k can only shrink them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import TopologyError, VolumeFormatError, is_real
from .mesh import SurfaceMesh, checked_mask, write_atomic

THRESHOLD_FACTORS = (2.0, 3.3, 4.0, 5.0, 6.0)

MIP_REACH_MM = 3.0
MIP_STEP_MM = 0.2
# vertices sampled per block: the samples of one block take a few MB, where
# those of a 38k-vertex mesh at once took ~80 MB of temporaries
_MIP_BLOCK = 4096

_MAGIC = "scalar-volume 1"
_FMT = "%.9g"


@dataclass(frozen=True)
class ScalarVolume:
    """Regular float32 volume.

    values is indexed [iz, iy, ix]; world = origin + direction @ (index *
    spacing) with x the fastest-varying storage axis. direction is a
    rotation (orthonormal, rows are world axes).
    """
    values: np.ndarray
    spacing: tuple
    origin: tuple
    direction: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float32)
        if vals.ndim != 3 or min(vals.shape) < 2:
            raise VolumeFormatError("volume needs at least 2 voxels per axis")
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
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0 or raw[:nl].decode("ascii", "replace") != _MAGIC:
        raise VolumeFormatError(f"{path}: not a scalar volume file")
    fields = {}
    pos = nl + 1
    while True:
        nl = raw.find(b"\n", pos)
        if nl < 0:
            raise VolumeFormatError(f"{path}: missing data section")
        line = raw[pos:nl].decode("ascii", "replace").strip()
        pos = nl + 1
        if line == "data":
            break
        key, _, rest = line.partition(" ")
        if not rest or key in fields:
            raise VolumeFormatError(f"{path}: bad header line {line!r}")
        fields[key] = rest
    required = {"dims", "spacing", "origin", "direction", "dtype", "order"}
    missing = required - fields.keys()
    extra = fields.keys() - required
    if missing or extra:
        raise VolumeFormatError(f"{path}: header keys mismatch"
                                f" (missing {sorted(missing)},"
                                f" unknown {sorted(extra)})")
    if fields["dtype"] != "float32":
        raise VolumeFormatError(f"{path}: unsupported dtype {fields['dtype']}")
    if fields["order"] != "x-fastest":
        raise VolumeFormatError(f"{path}: unsupported order {fields['order']}")
    try:
        nx, ny, nz = (int(v) for v in fields["dims"].split())
        spacing = tuple(float(v) for v in fields["spacing"].split())
        origin = tuple(float(v) for v in fields["origin"].split())
        dirv = [float(v) for v in fields["direction"].split()]
    except ValueError as exc:
        raise VolumeFormatError(f"{path}: bad header value: {exc}") from exc
    if len(spacing) != 3 or len(origin) != 3 or len(dirv) != 9:
        raise VolumeFormatError(f"{path}: bad header vector length")
    if min(nx, ny, nz) < 1:
        raise VolumeFormatError(f"{path}: dims {nx} {ny} {nz} must be positive")
    count = nx * ny * nz
    payload = raw[pos:]
    if len(payload) != 4 * count:
        raise VolumeFormatError(f"{path}: expected {4 * count} data bytes,"
                                f" found {len(payload)}")
    vals = np.frombuffer(payload, dtype="<f4").reshape(nz, ny, nx)
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
    payload = volume.values.astype("<f4").tobytes()
    write_atomic(path, "\n".join(lines).encode("ascii") + b"\n" + payload)


def vertex_normals(mesh: SurfaceMesh) -> np.ndarray:
    """Area-weighted vertex normals.

    Raw triangle cross products are summed per vertex, so larger triangles
    weigh more. Vertices whose sum cancels out (folded fans) fall back to
    the average of already-resolved neighbor normals.
    """
    p = mesh.vertices[mesh.triangles]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    acc = np.zeros((mesh.n_vertices, 3))
    for c in range(3):
        np.add.at(acc, mesh.triangles[:, c], cross)
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
            raise TopologyError("cannot resolve degenerate vertex normals")
        todo = np.asarray(still, dtype=np.int64)
    out.flags.writeable = False
    return out


def _sample_trilinear(volume: ScalarVolume, pts: np.ndarray):
    """Values and validity of world-space points; invalid = outside grid."""
    # imported here: it loads scipy.special, and only projection needs it
    from scipy import ndimage
    rel = (pts - np.asarray(volume.origin)) @ volume.direction
    idx = rel / np.asarray(volume.spacing)
    nx, ny, nz = volume.dims
    hi = np.asarray([nx - 1, ny - 1, nz - 1], dtype=np.float64)
    valid = (idx >= 0.0).all(axis=1) & (idx <= hi).all(axis=1)
    out = ndimage.map_coordinates(volume.values, idx[:, ::-1].T, order=1,
                                  mode="nearest", prefilter=False,
                                  output=np.float64)
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
    k = int(round(reach_mm / step_mm))
    offsets = step_mm * np.arange(-k, k + 1)
    proj = np.empty(mesh.n_vertices)
    # every sample is computed on its own, so blocks give the same bits
    for lo in range(0, mesh.n_vertices, _MIP_BLOCK):
        hi = lo + _MIP_BLOCK
        pts = (mesh.vertices[lo:hi, None, :]
               + offsets[None, :, None] * normals[lo:hi, None, :])
        vals, valid = _sample_trilinear(volume, pts.reshape(-1, 3))
        vals = np.where(valid, vals, -np.inf).reshape(-1, len(offsets))
        proj[lo:hi] = vals.max(axis=1)
    proj.flags.writeable = False
    return proj


def blood_pool_stats(volume: ScalarVolume,
                     mask: np.ndarray | None = None) -> tuple:
    """(mean, sd) of blood-pool intensity; population sd (the pool is the
    whole reference region, not a sample from it)."""
    vals = volume.values
    if mask is not None:
        mask = checked_mask(mask, "blood-pool mask")
        if mask.shape != vals.shape:
            raise ValueError("blood-pool mask shape must match the volume")
        if not mask.any():
            raise ValueError("blood-pool mask is empty")
        vals = vals[mask]
    vals = vals.astype(np.float64)
    return float(vals.mean()), float(vals.std(ddof=0))


def threshold_mask(projected: np.ndarray, mean: float, sd: float,
                   factor: float) -> np.ndarray:
    """Scar classification: projection strictly above mean + factor * sd;
    ValueError, naming it, unless each of these three is a finite number."""
    for name, value in (("mean", mean), ("sd", sd), ("factor", factor)):
        if not is_real(value):
            raise ValueError(f"{name} must be a finite number")
    return np.asarray(projected) > mean + factor * sd
