"""Workload definitions and the phantom inputs written for each case.

The phantom recipe of every case is fixed, including its slit seed, so
every seed of a workload asks for the same amount of work: moving the
patchiness slits changes the patch count from 5 to 6 and the number of
distance transforms with it. The benchmark's --seed instead picks a random
rigid motion (rotation and translation) applied to the mesh and, for
projected cases, to the volume's origin and direction. The method is
invariant to rigid motion, so the measured curve and the ground truth
stay those of the recipe while the input files differ per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# numpy and pvgap are imported inside the functions: importing them is part
# of the set-up time that run.py measures after importing this module.

PHANTOM_SEED = 0  # slit layout; gives 6 patches at all five thresholds
BLOOD_POOL = (100.0, 10.0)  # PhantomSpec defaults: mean, sd


@dataclass(frozen=True)
class Case:
    name: str
    shape: str
    edge_mm: float
    keep: float
    patchiness: int = 0
    taper: tuple | None = None
    projected: bool = False  # intensity comes from --volume, mesh is annotated


@dataclass(frozen=True)
class Workload:
    cases: tuple
    cohort: bool  # run `pvgap cohort` over the pass's reports


WORKLOADS = {
    "tapered-patchy": Workload(cases=(
        Case("disk-tapered-p4", "disk-with-hole", 0.26, 0.75, patchiness=4,
             taper=(2.5, 9.0)),
    ), cohort=False),
    "cohort-sharp": Workload(cases=(
        Case("disk-keep1", "disk-with-hole", 0.5, 1.0),
        Case("disk-keep0.5", "disk-with-hole", 0.5, 0.5),
        Case("disk-keep0", "disk-with-hole", 0.5, 0.0),
        Case("disk-keep0.75-p2", "disk-with-hole", 0.5, 0.75, patchiness=2),
        Case("dome-keep0.5-p1", "dome-with-hole", 0.5, 0.5, patchiness=1),
        Case("dome-keep0.25", "dome-with-hole", 0.5, 0.25),
        Case("plate-keep0.5", "two-hole-plate", 0.5, 0.5),
        Case("plate-keep0.75-p2", "two-hole-plate", 0.5, 0.75, patchiness=2),
    ), cohort=True),
    "large-projected": Workload(cases=(
        Case("disk-large-projected", "disk-with-hole", 0.18, 0.5,
             projected=True),
    ), cohort=False),
}


@dataclass(frozen=True)
class Prepared:
    """Input files of one case and what its report must show."""
    case: Case
    argv: tuple  # `pvgap quantify` arguments without --out/--annotated-mesh
    expected_rgm: float
    n_areas: int
    n_vertices: int


def rigid_motion(seed: int):
    """Seeded proper rotation (3, 3) and translation (3,) in mm."""
    import numpy as np
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q, rng.uniform(-50.0, 50.0, size=3)


def prepare(case: Case, seed: int, out_dir: Path) -> Prepared:
    """Generate the case's phantom, move it by the seed's rigid motion and
    write mesh, region config and (projected cases) volume to out_dir."""
    import numpy as np
    from pvgap.mesh import SurfaceMesh, save_mesh
    from pvgap.regions import save_config
    from pvgap.scar import ScalarVolume, save_volume
    from pvgap.synth import PhantomSpec, make_phantom, phantom_volume

    spec = PhantomSpec(base_shape=case.shape, target_edge_mm=case.edge_mm,
                       keep_fraction=case.keep, patchiness=case.patchiness,
                       taper=case.taper, seed=PHANTOM_SEED,
                       blood_pool_mean=BLOOD_POOL[0],
                       blood_pool_sd=BLOOD_POOL[1])
    mesh, config, truth = make_phantom(spec)
    rot, shift = rigid_motion(seed)
    moved = SurfaceMesh(vertices=mesh.vertices @ rot.T + shift,
                        triangles=mesh.triangles,
                        intensity=None if case.projected else mesh.intensity,
                        region=mesh.region, name=mesh.name)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_mesh(moved, out_dir / "mesh.vtk")
    save_config(config, out_dir / "regions.cfg")
    argv = ["quantify", "--mesh", str(out_dir / "mesh.vtk"),
            "--config", str(out_dir / "regions.cfg"),
            "--bp-mean", repr(BLOOD_POOL[0]), "--bp-sd", repr(BLOOD_POOL[1])]
    if case.projected:
        vol = phantom_volume(spec)
        save_volume(ScalarVolume(values=vol.values, spacing=vol.spacing,
                                 origin=rot @ np.asarray(vol.origin) + shift,
                                 direction=rot @ vol.direction),
                    out_dir / "volume.vol")
        argv += ["--volume", str(out_dir / "volume.vol")]
    return Prepared(case=case, argv=tuple(argv),
                    expected_rgm=truth.expected_rgm,
                    n_areas=len(config.areas), n_vertices=mesh.n_vertices)
