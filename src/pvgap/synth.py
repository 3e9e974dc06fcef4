"""Synthetic ablation phantoms with analytically known gap geometry.

Each phantom is a triangle mesh carrying intensity and region labels plus a
matching region config, built so the true gap fraction of the encircling
lesion is known in closed form. The scar is a band at a fixed offset from
the vein rim; gaps are angular sectors where the band is left unablated.
Healthy tissue reads HEALTHY_SD and scar SCAR_SD blood-pool SDs off the mean.
With a taper, a scar vertex's level runs linearly from edge_sd at the ends
of its kept arc to center_sd at the arc's middle; the kept arc is the one
whose start is the last at or before the vertex's angle, and a vertex that
lies within rounding outside that arc gets edge_sd.

The vein hole of the disk and dome phantoms is an oval (limacon) with its
wide side at angle 0 and the opening cut on the narrow side at angle pi.
Gaps are removed around angle 0, so gap arc length grows faster than the
removed angle fraction; expected values account for that. A symmetric
circular hole would not separate nominal fractions cleanly: measured ratios
shift toward the band detours and the mid fractions collapse together.

Meshes are bitwise reproducible: coordinates and intensities are quantized
to 9 significant digits, matching the mesh writer's precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import is_count, is_real
from .mesh import _FMT, SurfaceMesh, _block
from .regions import AreaSpec, RegionConfig
from .scar import ScalarVolume

TWO_PI = 2.0 * math.pi

SHAPES = ("disk-with-hole", "dome-with-hole", "two-hole-plate")

HOLE_RADIUS = 10.0  # mean vein radius of the oval hole, mm
OVALITY = 0.3  # oval eccentricity of the hole rim
RIM_MARGIN = 8.0  # tissue kept beyond the scar band, mm
DOME_RADIUS = 25.0  # sphere radius of the dome phantom, mm

PLATE_HALF_X = 28.0
PLATE_HALF_Y = 16.0
PLATE_HOLE_R = 6.0
PLATE_HOLE_X = 7.5  # hole centers at (+-PLATE_HOLE_X, 0)

HEALTHY_SD = -8.0  # healthy intensity, in blood-pool SDs off the mean
SCAR_SD = 16.0  # scar intensity, in blood-pool SDs off the mean


def _is_arc(arc) -> bool:
    """A (start, width) pair of finite numbers, width >= 0."""
    try:
        start, width = arc
    except (TypeError, ValueError):
        return False
    return is_real(start) and is_real(width) and width >= 0.0


@dataclass(frozen=True)
class PhantomSpec:
    """Recipe for one phantom mesh."""
    base_shape: str = "disk-with-hole"
    target_edge_mm: float = 1.0
    band_inner_mm: float = 2.0  # scar band offset range from the vein rim
    band_outer_mm: float = 4.0
    keep_fraction: float = 1.0  # angular fraction of the band left as scar
    removed_intervals: tuple | None = None  # explicit (start, width) radians
    patchiness: int = 0  # extra seeded slit gaps
    taper: tuple | None = None  # (edge_sd, center_sd) graded scar intensity
    seed: int = 0
    blood_pool_mean: float = 100.0
    blood_pool_sd: float = 10.0

    def __post_init__(self):
        if self.base_shape not in SHAPES:
            raise ValueError(f"base_shape must be one of {SHAPES}")
        for name in ("target_edge_mm", "band_inner_mm", "band_outer_mm",
                     "keep_fraction", "blood_pool_mean", "blood_pool_sd"):
            if not is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number")
        if not 0.0 <= self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must lie in [0, 1]")
        if not 0.0 < self.band_inner_mm < self.band_outer_mm:
            raise ValueError("need 0 < band_inner_mm < band_outer_mm")
        if self.target_edge_mm <= 0.0:
            raise ValueError("target_edge_mm must be positive")
        for name in ("patchiness", "seed"):
            if not is_count(getattr(self, name)):
                raise ValueError(f"{name} must be an integer >= 0")
        if self.removed_intervals is not None:
            try:
                ok = all(map(_is_arc, self.removed_intervals))
            except TypeError:  # not iterable
                ok = False
            if not ok:
                raise ValueError("removed_intervals must hold finite "
                                 "(start, width) pairs, width >= 0")
        if self.taper is not None:
            if len(self.taper) != 2:
                raise ValueError("taper must be (edge_sd, center_sd)")
            if not all(is_real(v) and v > 0.0 for v in self.taper):
                raise ValueError("taper SDs must be finite positive numbers")
        if self.blood_pool_sd <= 0.0:
            raise ValueError("blood_pool_sd must be positive")


@dataclass(frozen=True)
class PhantomTruth:
    """Ground truth of a generated phantom."""
    expected_rgm: float  # removed fraction of the band centerline length
    removed_arcs: tuple  # merged (start, width) arcs, radians
    designed_gap_count: int
    seed_vertices: tuple


def _quantize9(a: np.ndarray) -> np.ndarray:
    """The values a save_mesh/load_mesh round trip gives back."""
    text = _block(a.ravel(), _FMT)
    return np.array(text.split(), dtype=np.float64).reshape(a.shape)


def _merge_arcs(arcs) -> tuple:
    """Normalize (start, width) arcs: sort, merge overlaps, join across 0."""
    cleaned = []
    for s, w in arcs:
        if w <= 0.0:
            continue
        if w >= TWO_PI:
            return ((0.0, TWO_PI),)
        cleaned.append((s % TWO_PI, w))
    if not cleaned:
        return ()
    segs = []
    for s, w in cleaned:  # unfold wrap-around into linear [0, 2pi] pieces
        if s + w <= TWO_PI:
            segs.append([s, s + w])
        else:
            segs.append([s, TWO_PI])
            segs.append([0.0, s + w - TWO_PI])
    segs.sort()
    merged = [segs[0]]
    for s, e in segs[1:]:
        if s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    if len(merged) > 1 and merged[0][0] == 0.0 and merged[-1][1] >= TWO_PI:
        s0, e0 = merged.pop(0)
        merged[-1][1] = TWO_PI + e0  # rejoin across the 0/2pi seam
    total = sum(e - s for s, e in merged)
    if total >= TWO_PI:
        return ((0.0, TWO_PI),)
    return tuple((s % TWO_PI, e - s) for s, e in merged)


def _removed_mask(theta: np.ndarray, arcs) -> np.ndarray:
    out = np.zeros(theta.shape, dtype=bool)
    for s, w in arcs:
        out |= ((theta - s) % TWO_PI) < w
    return out


def _kept_arcs(removed) -> tuple:
    """Complement of the removed arcs on the circle."""
    if not removed:
        return ((0.0, TWO_PI),)
    ends = sorted((s % TWO_PI, ((s + w) % TWO_PI)) for s, w in removed)
    if len(removed) == 1 and removed[0][1] >= TWO_PI:
        return ()
    kept = []
    for i, (_, e) in enumerate(ends):
        nxt_start = ends[(i + 1) % len(ends)][0]
        width = (nxt_start - e) % TWO_PI
        if width > 0.0:
            kept.append((e, width))
    return tuple(kept)


def _slit_width(spec: PhantomSpec) -> float:
    r_ref = 9.0 if spec.base_shape == "two-hole-plate" else HOLE_RADIUS + 3.0
    return 2.5 * spec.target_edge_mm / r_ref


def removal_arcs(spec: PhantomSpec) -> tuple:
    """Merged removed arcs, including seeded patchiness slits."""
    if spec.removed_intervals is not None:
        base = list(spec.removed_intervals)
    else:
        alpha = math.pi * (1.0 - spec.keep_fraction)
        base = [] if alpha == 0.0 else [(TWO_PI - alpha, 2.0 * alpha)]
    arcs = _merge_arcs(base)
    if spec.patchiness == 0:
        return arcs
    rng = np.random.default_rng(spec.seed)
    slit = _slit_width(spec)
    centers = []
    probes = np.linspace(-0.5, 0.5, 5)
    for _ in range(spec.patchiness):
        for _attempt in range(200):
            c = float(rng.uniform(0.0, TWO_PI))
            pts = (c + probes * slit) % TWO_PI
            if _removed_mask(pts, arcs).any():
                continue
            if any(abs((c - o + math.pi) % TWO_PI - math.pi) < 2.0 * slit
                   for o in centers):
                continue
            centers.append(c)
            break
        else:
            raise ValueError("could not place a patchiness slit; lower"
                               " patchiness or keep more of the band")
    arcs = _merge_arcs(list(arcs) + [(c - slit / 2.0, slit) for c in centers])
    return arcs


def _rim_radius(theta):
    return HOLE_RADIUS * (1.0 + OVALITY * np.cos(theta))


def _centerline_samples(spec: PhantomSpec):
    """(theta, weight) samples of the band centerline, weight = ds."""
    mid = 0.5 * (spec.band_inner_mm + spec.band_outer_mm)
    if spec.base_shape in ("disk-with-hole", "dome-with-hole"):
        theta = np.linspace(0.0, TWO_PI, 40001)[:-1]
        r = _rim_radius(theta) + mid
        dr = -HOLE_RADIUS * OVALITY * np.sin(theta)
        if spec.base_shape == "disk-with-hole":
            w = np.sqrt(r * r + dr * dr)
        else:
            phi = r / DOME_RADIUS
            w = DOME_RADIUS * np.sqrt((dr / DOME_RADIUS) ** 2
                                      + np.sin(phi) ** 2)
        return theta, w
    # plate: centerline is two arcs of radius PLATE_HOLE_R + mid, one about
    # each hole center, clipped where the other hole is closer
    rad = PLATE_HOLE_R + mid
    span = 2.0 * PLATE_HOLE_X
    cos_lim = 0.5 * span / rad  # beyond this the other center is closer
    psi0 = math.acos(min(1.0, cos_lim))
    thetas = []
    for cx in (-PLATE_HOLE_X, PLATE_HOLE_X):
        lo, hi = (psi0, TWO_PI - psi0) if cx < 0 else (-math.pi + psi0,
                                                       math.pi - psi0)
        psi = np.linspace(lo, hi, 20001)
        x = cx + rad * np.cos(psi)
        y = rad * np.sin(psi)
        thetas.append(np.arctan2(y, x) % TWO_PI)
    theta = np.concatenate(thetas)
    return theta, np.ones(theta.shape)


def expected_rgm(spec: PhantomSpec) -> float:
    """Removed fraction of the band centerline arc length."""
    arcs = removal_arcs(spec)
    if not arcs:
        return 0.0
    if arcs[0][1] >= TWO_PI:
        return 1.0
    theta, w = _centerline_samples(spec)
    removed = _removed_mask(theta, arcs)
    return float((w * removed).sum() / w.sum())


def _quad_triangles(idx_a, idx_b, idx_c, idx_d) -> np.ndarray:
    """Split quads (a b d c) into (a, b, d) and (a, d, c)."""
    t1 = np.stack([idx_a, idx_b, idx_d], axis=1)
    t2 = np.stack([idx_a, idx_d, idx_c], axis=1)
    return np.concatenate([t1, t2])


def _sector_labels(theta: np.ndarray) -> np.ndarray:
    return (np.floor(theta / (0.5 * math.pi)).astype(np.int64) % 4) + 1


def _build_ring_phantom(spec: PhantomSpec):
    """Shared lattice for the disk and dome shapes."""
    edge = spec.target_edge_mm
    width = spec.band_outer_mm + RIM_MARGIN
    n_s = max(2, int(round(width / edge)) + 1)
    r_mid = HOLE_RADIUS + 0.5 * width
    n_t = max(16, 4 * math.ceil(TWO_PI * r_mid / (4.0 * edge)))
    svals = np.linspace(0.0, width, n_s)
    theta = TWO_PI * np.arange(n_t) / n_t

    tt = np.tile(theta, n_s)
    ss = np.repeat(svals, n_t)
    r = _rim_radius(tt) + ss
    if spec.base_shape == "disk-with-hole":
        pts = np.stack([r * np.cos(tt), r * np.sin(tt),
                        np.zeros(r.shape)], axis=1)
    else:
        phi = r / DOME_RADIUS
        pts = DOME_RADIUS * np.stack([np.sin(phi) * np.cos(tt),
                                      np.sin(phi) * np.sin(tt),
                                      np.cos(phi)], axis=1)

    jj = np.repeat(np.arange(n_s - 1), n_t)
    ii = np.tile(np.arange(n_t), n_s - 1)
    nxt = (ii + 1) % n_t
    tris = _quad_triangles(jj * n_t + ii, (jj + 1) * n_t + ii,
                           jj * n_t + nxt, (jj + 1) * n_t + nxt)

    seed = n_t // 4  # on the hole rim at angle pi/2
    area = AreaSpec(name="LSPV", labels=frozenset((1, 2, 3, 4)),
                    strategy="independent", cut_labels=(3, 2),
                    cut_vertices=None, vein_seeds=(seed,))
    return _finish(spec, pts, tris, tt, ss, _sector_labels(tt), area)


def _finish(spec: PhantomSpec, pts, tris, theta, s_off, region,
            area: AreaSpec):
    """(mesh, config, truth) of a lattice with per-vertex angle and band
    offset, quantized as a save_mesh/load_mesh round trip gives them;
    ValueError if the recipe keeps part of the band but no vertex lies in
    it, where the truth would describe scar the mesh does not have."""
    arcs = removal_arcs(spec)
    if _kept_arcs(arcs) and not _kept_band(spec, theta, s_off, arcs).any():
        raise ValueError(f"no vertex lies in the kept scar band at "
                         f"target_edge_mm {spec.target_edge_mm:g}; use a "
                         f"finer edge")
    mesh = SurfaceMesh(vertices=_quantize9(pts), triangles=tris,
                       intensity=_quantize9(_surface_levels(spec, theta,
                                                            s_off)),
                       region=region, name=_phantom_name(spec))
    truth = PhantomTruth(expected_rgm=expected_rgm(spec), removed_arcs=arcs,
                         designed_gap_count=len(arcs),
                         seed_vertices=area.vein_seeds)
    return mesh, RegionConfig(areas=(area,)), truth


def _build_plate_phantom(spec: PhantomSpec):
    edge = spec.target_edge_mm
    nx = int(round(2.0 * PLATE_HALF_X / edge)) + 1
    ny = int(round(2.0 * PLATE_HALF_Y / edge)) + 1
    xs = np.linspace(-PLATE_HALF_X, PLATE_HALF_X, nx)
    ys = np.linspace(-PLATE_HALF_Y, PLATE_HALF_Y, ny)
    xx = np.tile(xs, ny)
    yy = np.repeat(ys, nx)
    d1 = np.hypot(xx + PLATE_HOLE_X, yy)
    d2 = np.hypot(xx - PLATE_HOLE_X, yy)
    keep = np.minimum(d1, d2) >= PLATE_HOLE_R

    iy = np.repeat(np.arange(ny - 1), nx - 1)
    ix = np.tile(np.arange(nx - 1), ny - 1)
    a = iy * nx + ix
    b = a + 1
    c = a + nx
    d = c + 1
    tris = _quad_triangles(a, b, c, d)
    tris = tris[keep[tris].all(axis=1)]

    used = np.unique(tris)
    remap = np.full(nx * ny, -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    tris = remap[tris]
    xx, yy = xx[used], yy[used]
    d1, d2 = d1[used], d2[used]
    pts = np.stack([xx, yy, np.zeros(xx.shape)], axis=1)

    left = xx <= -PLATE_HOLE_X
    upper = yy >= 0.0
    region = np.where(left, np.where(upper, 1, 2), np.where(upper, 3, 4))
    seeds = (int(np.argmin(np.abs(d1 - PLATE_HOLE_R))),
             int(np.argmin(np.abs(d2 - PLATE_HOLE_R))))
    area = AreaSpec(name="RightPVs", labels=frozenset((1, 2, 3, 4)),
                    strategy="joint", cut_labels=(1, 2), cut_vertices=None,
                    vein_seeds=seeds)
    return _finish(spec, pts, tris, np.arctan2(yy, xx) % TWO_PI,
                   np.minimum(d1, d2) - PLATE_HOLE_R,
                   region.astype(np.int64), area)


def _phantom_name(spec: PhantomSpec) -> str:
    """Parameter-qualified name so cohorts of phantoms have distinct ids."""
    return (f"synthetic {spec.base_shape} keep{spec.keep_fraction:g} "
            f"p{spec.patchiness} s{spec.seed}")


def make_phantom(spec: PhantomSpec):
    """Build (mesh, region config, ground truth) for a phantom recipe."""
    if spec.base_shape == "two-hole-plate":
        return _build_plate_phantom(spec)
    return _build_ring_phantom(spec)


def _kept_band(spec: PhantomSpec, theta: np.ndarray, s_off: np.ndarray,
               arcs) -> np.ndarray:
    """Whether each point at angle theta and band offset s_off lies in the
    scar band outside the removed arcs."""
    return (s_off >= spec.band_inner_mm - 1e-9) \
        & (s_off <= spec.band_outer_mm + 1e-9) & ~_removed_mask(theta, arcs)


def _surface_levels(spec: PhantomSpec, theta: np.ndarray,
                    s_off: np.ndarray) -> np.ndarray:
    """Intensity of the phantom surface pattern at angle theta and band
    offset s_off: scar in the band outside the removed arcs, else healthy."""
    mean, sd = spec.blood_pool_mean, spec.blood_pool_sd
    arcs = removal_arcs(spec)
    scar = _kept_band(spec, theta, s_off, arcs)
    out = np.full(theta.shape, mean + HEALTHY_SD * sd)
    if not scar.any():
        return out
    if spec.taper is None:
        out[scar] = mean + SCAR_SD * sd
        return out
    lo, hi = spec.taper
    t = theta[scar]
    if not arcs:  # a whole ring has no ends to ramp from
        x = np.ones(t.shape)
    else:
        starts, widths = np.array(sorted(_kept_arcs(arcs))).T
        k = np.searchsorted(starts, t, side="right") - 1  # -1 wraps
        d = (t - starts[k]) % TWO_PI
        half = widths[k] / 2.0
        x = np.maximum(1.0 - np.abs(d - half) / half, 0.0)
    out[scar] = mean + (lo + (hi - lo) * x) * sd
    return out


def _pool_checkerboard(spec: PhantomSpec, shape) -> np.ndarray:
    """Blood-pool filler with exact mean and near-exact population sd."""
    iz, iy, ix = np.indices(shape)
    hi = (ix + iy + iz) % 2 == 0
    return np.where(hi, spec.blood_pool_mean + spec.blood_pool_sd,
                    spec.blood_pool_mean - spec.blood_pool_sd)


def phantom_volume(spec: PhantomSpec) -> ScalarVolume:
    """Image volume whose wall slab carries the phantom's scar pattern.

    Projecting it onto the matching phantom mesh reproduces the surface
    intensity up to interpolation at scar borders. Voxels away from the
    wall hold alternating blood-pool values around the configured mean.
    """
    half_wall = 1.0
    dome = spec.base_shape == "dome-with-hole"
    if dome:
        ext = DOME_RADIUS * math.sin(1.0) + 4.0
        xs = ys = np.arange(-ext, ext + 0.25, 0.5)
        zs = np.arange((DOME_RADIUS - 4.0) * math.cos(1.0),
                       DOME_RADIUS + 4.0 + 0.25, 0.5)
    else:
        if spec.base_shape == "disk-with-hole":
            ext_x = ext_y = HOLE_RADIUS * (1 + OVALITY) \
                + spec.band_outer_mm + RIM_MARGIN + 1.0
        else:
            ext_x = PLATE_HALF_X + 1.0
            ext_y = PLATE_HALF_Y + 1.0
        xs = np.arange(-ext_x, ext_x + 0.25, 0.5)
        ys = np.arange(-ext_y, ext_y + 0.25, 0.5)
        zs = np.arange(-3.0, 3.5, 1.0)
    gz, gy, gx = np.meshgrid(zs, ys, xs, indexing="ij")  # x fastest
    theta = np.arctan2(gy, gx) % TWO_PI
    s_hi = spec.band_outer_mm + RIM_MARGIN + 0.5
    if dome:
        rho = np.sqrt(gx * gx + gy * gy + gz * gz)
        with np.errstate(invalid="ignore"):
            phi = np.arccos(np.clip(gz / np.maximum(rho, 1e-12), -1.0, 1.0))
        s_off = DOME_RADIUS * phi - _rim_radius(theta)
        shell = np.abs(rho - DOME_RADIUS)
    elif spec.base_shape == "disk-with-hole":
        s_off = np.hypot(gx, gy) - _rim_radius(theta)
        shell = np.abs(gz)
    else:
        s_off = np.minimum(np.hypot(gx + PLATE_HOLE_X, gy),
                           np.hypot(gx - PLATE_HOLE_X, gy)) - PLATE_HOLE_R
        shell = np.abs(gz)
        s_hi = np.inf  # the plate extends to the volume border
    wall = (shell <= half_wall) & (s_off >= -0.5) & (s_off <= s_hi)

    vals = _pool_checkerboard(spec, gx.shape)
    vals[wall] = _surface_levels(spec, theta[wall], s_off[wall])
    return ScalarVolume(values=vals, spacing=(0.5, 0.5, 0.5 if dome else 1.0),
                        origin=(float(xs[0]), float(ys[0]), float(zs[0])),
                        direction=np.eye(3))


def plane_grid(nx: int, ny: int, spacing: float = 1.0) -> SurfaceMesh:
    """Flat rectangular test grid in the z=0 plane."""
    xs = spacing * np.arange(nx)
    ys = spacing * np.arange(ny)
    pts = np.stack([np.tile(xs, ny), np.repeat(ys, nx),
                    np.zeros(nx * ny)], axis=1)
    iy = np.repeat(np.arange(ny - 1), nx - 1)
    ix = np.tile(np.arange(nx - 1), ny - 1)
    a = iy * nx + ix
    tris = _quad_triangles(a, a + 1, a + nx, a + nx + 1)
    return SurfaceMesh(vertices=pts, triangles=tris, name="plane grid")


def icosphere(subdivisions: int = 3, radius: float = 1.0) -> SurfaceMesh:
    """Sphere mesh by repeated midpoint subdivision of an icosahedron.

    Raises ValueError unless subdivisions is an integer >= 0 and radius is
    finite and positive.
    """
    if not is_count(subdivisions):
        raise ValueError("subdivisions must be an integer >= 0")
    if not (is_real(radius) and radius > 0.0):
        raise ValueError("radius must be a finite positive number")
    g = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [(-1, g, 0), (1, g, 0), (-1, -g, 0), (1, -g, 0),
             (0, -1, g), (0, 1, g), (0, -1, -g), (0, 1, -g),
             (g, 0, -1), (g, 0, 1), (-g, 0, -1), (-g, 0, 1)]
    verts = [np.asarray(v, dtype=float) for v in verts]
    tris = [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)]
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in cache:
                cache[key] = len(verts)
                verts.append(0.5 * (verts[i] + verts[j]))
            return cache[key]

        nxt = []
        for i, j, k in tris:
            ij, jk, ki = midpoint(i, j), midpoint(j, k), midpoint(k, i)
            nxt += [(i, ij, ki), (j, jk, ij), (k, ki, jk), (ij, jk, ki)]
        tris = nxt
    pts = np.asarray(verts)
    pts = radius * pts / np.linalg.norm(pts, axis=1)[:, None]
    return SurfaceMesh(vertices=pts, triangles=np.asarray(tris, dtype=np.int64),
                       name=f"icosphere s{subdivisions}")
