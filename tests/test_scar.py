"""Scar classification: volume IO, trilinear sampling, projection,
thresholds.

The trilinear sampler is checked against a direct eight-corner expansion
written out by hand, and against the exact-reproduction property on
linear fields. Threshold masks must be strictly above the cutoff and
nested across ascending factors.
"""

import itertools

import numpy as np
import pytest

from pvgap import scar
from pvgap.cli import main
from pvgap.errors import VolumeFormatError
from pvgap.mesh import save_mesh
from pvgap.scar import (THRESHOLD_FACTORS, ScalarVolume, _sample_trilinear,
                        blood_pool_stats, load_volume, mip_project,
                        save_volume, threshold_mask, vertex_normals)
from pvgap.synth import PhantomSpec, icosphere, make_phantom, phantom_volume, \
    plane_grid


def _volume(values, spacing=(1, 1, 1), origin=(0, 0, 0)):
    return ScalarVolume(values=np.asarray(values, dtype=np.float32),
                        spacing=spacing, origin=origin,
                        direction=np.eye(3))


def _eight_corners(vals, idx):
    """Trilinear values of vals[z, y, x] at fractional (x, y, z) indices,
    one weighted corner at a time; the dims-1 face uses the last cell."""
    nz, ny, nx = vals.shape
    out = []
    for x, y, z in idx:
        i, j, k = min(int(x), nx - 2), min(int(y), ny - 2), min(int(z), nz - 2)
        fx, fy, fz = x - i, y - j, z - k
        acc = 0.0
        for dz, wz in ((0, 1.0 - fz), (1, fz)):
            for dy, wy in ((0, 1.0 - fy), (1, fy)):
                for dx, wx in ((0, 1.0 - fx), (1, fx)):
                    acc += wx * wy * wz * float(vals[k + dz, j + dy, i + dx])
        out.append(acc)
    return np.array(out)


def test_trilinear_hand_oracle():
    # values v[z][y][x] = distinctive primes; sample at (0.25, 0.5, 0.75)
    vals = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    vals = vals * vals + 1.0  # 1, 2, 5, 10, 17, 26, 37, 50
    vol = _volume(vals)
    x, y, z = 0.25, 0.5, 0.75
    c000, c100 = 1.0, 2.0
    c010, c110 = 5.0, 10.0
    c001, c101 = 17.0, 26.0
    c011, c111 = 37.0, 50.0
    want = (c000 * (1 - x) * (1 - y) * (1 - z) + c100 * x * (1 - y) * (1 - z)
            + c010 * (1 - x) * y * (1 - z) + c110 * x * y * (1 - z)
            + c001 * (1 - x) * (1 - y) * z + c101 * x * (1 - y) * z
            + c011 * (1 - x) * y * z + c111 * x * y * z)
    got, ok = _sample_trilinear(vol, np.array([[x, y, z]]))
    assert ok[0]
    assert got[0] == pytest.approx(want, rel=1e-6)

    # many points in a non-cubic, rotated volume with anisotropic spacing;
    # signed-permutation axes and dyadic spacing and origin keep the
    # index <-> world round trip exact, so face points land on the faces
    rng = np.random.default_rng(17)
    nx, ny, nz = 7, 5, 4
    vals = rng.uniform(50.0, 150.0, (nz, ny, nx)).astype(np.float32)
    rot = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    spacing, origin = np.array([0.5, 1.25, 2.0]), np.array([-3.5, 2.25, 5.0])
    vol = ScalarVolume(values=vals, spacing=tuple(spacing),
                       origin=tuple(origin), direction=rot)
    hi = np.array([nx - 1, ny - 1, nz - 1], dtype=np.float64)
    inside, outside = [rng.uniform(0.0, hi, (200, 3))], []
    for axis in range(3):
        for face, beyond in ((0.0, -1e-9), (hi[axis], hi[axis] + 1e-9)):
            on, off = rng.uniform(0.0, hi, (2, 10, 3))
            on[:, axis], off[:, axis] = face, beyond
            inside.append(on)
            outside.append(off)
    inside.append(np.array(list(itertools.product(*zip(np.zeros(3), hi)))))
    inside, outside = np.vstack(inside), np.vstack(outside)
    world = origin + (np.vstack([inside, outside]) * spacing) @ rot.T
    got, ok = _sample_trilinear(vol, world)
    assert ok.tolist() == [True] * len(inside) + [False] * len(outside)
    np.testing.assert_allclose(got[:len(inside)], _eight_corners(vals, inside),
                               rtol=1e-12, atol=0.0)


def test_trilinear_reproduces_linear_fields():
    # trilinear interpolation is exact on a + bx + cy + dz
    nx, ny, nz = 6, 5, 4
    xs, ys, zs = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                             indexing="ij")
    lin = 2.0 + 0.5 * xs - 1.25 * ys + 3.0 * zs
    vol = _volume(np.transpose(lin, (2, 1, 0)))
    rng = np.random.default_rng(5)
    pts = rng.uniform([0, 0, 0], [nx - 1, ny - 1, nz - 1], size=(50, 3))
    got, ok = _sample_trilinear(vol, pts)
    want = 2.0 + 0.5 * pts[:, 0] - 1.25 * pts[:, 1] + 3.0 * pts[:, 2]
    assert ok.all()
    assert np.allclose(got, want, rtol=1e-5)


def test_trilinear_outside_marked_invalid():
    vol = _volume(np.zeros((2, 2, 2)))
    got, ok = _sample_trilinear(vol, np.array([[1.5, 0.5, 0.5],
                                               [-0.1, 0.0, 0.0],
                                               [0.5, 0.5, 0.5]]))
    assert ok.tolist() == [False, False, True]


def test_volume_respects_origin_spacing_direction():
    vals = np.zeros((2, 2, 2), dtype=np.float32)
    vals[1, 1, 1] = 8.0
    # 90 degree rotation about z: world x -> grid y
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    vol = ScalarVolume(values=vals, spacing=(2.0, 2.0, 2.0),
                       origin=(10.0, 20.0, 30.0), direction=rot)
    # grid point (1,1,1) sits at origin + direction @ (2,2,2)
    world = np.array([10.0, 20.0, 30.0]) + rot @ np.array([2.0, 2.0, 2.0])
    got, ok = _sample_trilinear(vol, world[None, :])
    assert ok[0] and got[0] == pytest.approx(8.0)


def test_volume_file_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    vol = _volume(rng.normal(100, 20, (4, 5, 6)).astype(np.float32),
                  spacing=(0.7, 0.8, 1.1), origin=(-3, 2, 5))
    p = tmp_path / "v.svol"
    save_volume(vol, p)
    back = load_volume(p)
    assert np.array_equal(back.values, vol.values)
    assert back.spacing == pytest.approx(vol.spacing)
    assert back.origin == pytest.approx(vol.origin)
    save_volume(back, tmp_path / "v2.svol")
    assert p.read_bytes() == (tmp_path / "v2.svol").read_bytes()


def test_volume_loader_rejects_corruption(tmp_path):
    vol = _volume(np.zeros((2, 2, 2)))
    p = tmp_path / "v.svol"
    save_volume(vol, p)
    raw = bytearray(p.read_bytes())
    (tmp_path / "trunc.svol").write_bytes(raw[:-4])  # payload short
    with pytest.raises(VolumeFormatError):
        load_volume(tmp_path / "trunc.svol")
    (tmp_path / "junk.svol").write_bytes(b"garbage\n" + bytes(raw))
    with pytest.raises(VolumeFormatError):
        load_volume(tmp_path / "junk.svol")
    # dims whose product matches the payload but are not all positive
    save_volume(_volume(np.zeros((4, 2, 2))), p)
    raw = p.read_bytes()
    assert b"dims 2 2 4\n" in raw
    save_mesh(plane_grid(3, 3), tmp_path / "m.vtk")
    for dims in (b"-2 -2 4", b"-4 2 -2"):
        (tmp_path / "neg.svol").write_bytes(raw.replace(b"2 2 4", dims, 1))
        with pytest.raises(VolumeFormatError):
            load_volume(tmp_path / "neg.svol")
        # a format error, so exit 2
        assert main(["project", "--mesh", str(tmp_path / "m.vtk"),
                     "--volume", str(tmp_path / "neg.svol"),
                     "--out", str(tmp_path / "out.vtk")]) == 2
        assert not (tmp_path / "out.vtk").exists()


def test_vertex_normals_plane_and_sphere():
    plane = plane_grid(6, 6)
    n = vertex_normals(plane)
    assert np.allclose(np.abs(n[:, 2]), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(n, axis=1), 1.0)
    sphere = icosphere(subdivisions=3, radius=5.0)
    n = vertex_normals(sphere)
    radial = sphere.vertices / 5.0
    align = np.abs(np.sum(n * radial, axis=1))
    assert align.min() > 0.99


def test_mip_takes_maximum_along_normal():
    # a bright sheet 2 mm above the plane must win over the dimmer wall
    nz, ny, nx = 9, 8, 8
    vals = np.full((nz, ny, nx), 10.0, dtype=np.float32)
    vals[4, :, :] = 50.0   # wall plane z=0 is slab index 4
    vals[6, :, :] = 90.0   # sheet at z=+2
    vol = _volume(vals, origin=(0, 0, -4))
    mesh = plane_grid(6, 6)
    mesh = type(mesh)(vertices=mesh.vertices + [1.0, 1.0, 0.0],
                      triangles=mesh.triangles)
    proj = mip_project(mesh, vol)
    assert np.all(proj == 90.0)


def test_mip_all_outside_is_minus_inf():
    vol = _volume(np.ones((3, 3, 3)))
    mesh = plane_grid(3, 3)
    far = type(mesh)(vertices=mesh.vertices + [100.0, 100.0, 100.0],
                     triangles=mesh.triangles)
    proj = mip_project(far, vol)
    assert np.all(np.isneginf(proj))
    # -inf can never be classified as scar
    assert not threshold_mask(proj, 0.0, 1.0, 2.0).any()


def test_mip_blocks_give_the_bits_of_one_block(monkeypatch):
    # the projection samples its vertices in blocks to bound its memory;
    # blocks of 7 vertices, with a short last one, give the same bits
    spec = PhantomSpec(base_shape="two-hole-plate", keep_fraction=0.6)
    mesh, _, _ = make_phantom(spec)
    vol = phantom_volume(spec)
    monkeypatch.setattr(scar, "_MIP_BLOCK", mesh.n_vertices)
    whole = mip_project(mesh, vol)
    monkeypatch.setattr(scar, "_MIP_BLOCK", 7)
    assert mesh.n_vertices % 7
    assert whole.tobytes() == mip_project(mesh, vol).tobytes()


def test_blood_pool_stats_population_sd():
    vals = np.array([[[1.0, 3.0], [5.0, 7.0]],
                     [[1.0, 3.0], [5.0, 7.0]]], dtype=np.float32)
    vol = _volume(vals)
    mean, sd = blood_pool_stats(vol)
    assert mean == pytest.approx(4.0)
    assert sd == pytest.approx(np.sqrt(5.0))  # ddof=0
    mask = vals > 2.0
    mean2, sd2 = blood_pool_stats(vol, mask)
    assert mean2 == pytest.approx(5.0)
    with pytest.raises(ValueError):
        blood_pool_stats(vol, np.zeros_like(vals, dtype=bool))


def test_threshold_strictly_above():
    proj = np.array([119.99, 120.0, 120.01])
    mask = threshold_mask(proj, 100.0, 10.0, 2.0)  # cutoff 120 exactly
    assert mask.tolist() == [False, False, True]


def test_threshold_masks_nest():
    rng = np.random.default_rng(31)
    proj = rng.normal(130, 40, 500)
    masks = [threshold_mask(proj, 100, 10, k) for k in THRESHOLD_FACTORS]
    for lo, hi in zip(masks, masks[1:]):
        assert not (hi & ~lo).any()  # mask(k+1) subset of mask(k)


def test_phantom_volume_projection_recovers_scar():
    # project the phantom volume back onto its mesh: thresholding the
    # projection agrees with the designed mask away from the band border
    spec = PhantomSpec(base_shape="two-hole-plate", keep_fraction=0.6)
    mesh, _, _ = make_phantom(spec)
    vol = phantom_volume(spec)
    proj = mip_project(mesh, vol)
    want = threshold_mask(mesh.intensity, spec.blood_pool_mean,
                          spec.blood_pool_sd, 3.3)
    got = threshold_mask(proj, spec.blood_pool_mean, spec.blood_pool_sd, 3.3)
    agree = (want == got).mean()
    assert agree > 0.95
    mean, sd = blood_pool_stats(vol, np.isfinite(vol.values)
                                & (np.abs(vol.values - 100.0) < 50.0))
    assert mean == pytest.approx(100.0, abs=0.5)
