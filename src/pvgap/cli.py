"""Command-line front end: project, quantify, synth, cohort.

Exit codes: 0 success, 1 argument or validation problem, 2 file I/O or
format problem, 3 every search area failed. Soft per-area failures are
reported on stderr and in the report without failing the run. Identical
invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import cohort as cohort_mod
from . import sweep
from .errors import (AreaError, ConfigError, MeshFormatError, TopologyError,
                     VolumeFormatError)
from .mesh import SurfaceMesh, load_mesh, save_mesh, write_atomic
from .regions import default_config, load_config, save_config
from .scar import (THRESHOLD_FACTORS, blood_pool_stats, load_volume,
                   mip_project, save_volume)
from .synth import SHAPES, PhantomSpec, make_phantom, phantom_volume


def _err(msg: str) -> None:
    print(f"pvgap: {msg}", file=sys.stderr)


def _parse_thresholds(text: str) -> tuple:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"--thresholds: cannot parse {text!r}") from None
    try:
        return sweep.check_factors(vals)
    except ConfigError as e:
        raise ConfigError(f"--thresholds: {e}") from None


def _with_intensity(mesh: SurfaceMesh, values) -> SurfaceMesh:
    return SurfaceMesh(vertices=mesh.vertices, triangles=mesh.triangles,
                       intensity=values, region=mesh.region, name=mesh.name,
                       point_data=mesh.point_data)


def _load_intensity_source(args) -> tuple:
    """(mesh, volume): the per-vertex intensity is the embedded attribute or
    a projection from --volume, never both; volume is None without it."""
    mesh = load_mesh(args.mesh)
    if args.volume is not None:
        if mesh.intensity is not None:
            raise ConfigError("mesh already carries intensity values; "
                              "drop --volume or strip the attribute")
        volume = load_volume(args.volume)
        return _with_intensity(mesh, mip_project(mesh, volume)), volume
    if mesh.intensity is None:
        raise ConfigError("mesh has no intensity attribute; supply --volume")
    return mesh, None


def _check_blood_pool_source(args) -> None:
    """Refuse a missing or ambiguous blood-pool source; reads no file."""
    if args.bp_mask is not None:
        if args.bp_mean is not None or args.bp_sd is not None:
            raise ConfigError("--bp-mask excludes --bp-mean/--bp-sd")
        if args.volume is None:
            raise ConfigError("--bp-mask needs --volume to sample from")
    elif args.bp_mean is None or args.bp_sd is None:
        raise ConfigError("supply --bp-mean and --bp-sd, or --bp-mask")


def _blood_pool(args, volume) -> tuple:
    """(mean, sd) of the source `_check_blood_pool_source` accepted."""
    if args.bp_mask is not None:
        mask_vol = load_volume(args.bp_mask)
        if mask_vol.values.shape != volume.values.shape:
            raise ConfigError("--bp-mask grid does not match --volume")
        return blood_pool_stats(volume, mask_vol.values > 0.5)
    return float(args.bp_mean), float(args.bp_sd)


def cmd_project(args) -> int:
    mesh = load_mesh(args.mesh)
    volume = load_volume(args.volume)
    projected = mip_project(mesh, volume)
    save_mesh(_with_intensity(mesh, projected), args.out)
    if args.verbose:
        _err(f"projected {mesh.n_vertices} vertices -> {args.out}")
    return 0


def cmd_quantify(args) -> int:
    factors = _parse_thresholds(args.thresholds)
    ref = args.ref_threshold
    if ref is not None and ref not in factors:
        raise ConfigError("--ref-threshold must be one of --thresholds")
    _check_blood_pool_source(args)
    if args.bp_mask is None:
        sweep.check_blood_pool(args.bp_mean, args.bp_sd)
    mesh, volume = _load_intensity_source(args)
    bp_mean, bp_sd = _blood_pool(args, volume)
    config = load_config(args.config) if args.config else default_config()
    case = sweep.run_case(mesh, config, bp_mean, bp_sd, factors=factors,
                          ref_factor=ref, strategy=args.strategy)
    for res in case.areas:
        if not res.ok:
            _err(f"area {res.name}: {res.error}")
        elif args.verbose:
            _err(f"area {res.name}: rgm_nauc {res.nauc:.4f}")
    sweep.write_report(case, args.out)
    if args.annotated_mesh:
        sweep.write_annotated_mesh(mesh, case, args.annotated_mesh)
    if all(not res.ok for res in case.areas):
        _err("all areas failed")
        return 3
    return 0


def _parse_taper(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError("--taper: expected EDGE_SD,CENTER_SD")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"--taper: cannot parse {text!r}") from None


def cmd_synth(args) -> int:
    spec = PhantomSpec(base_shape=args.shape, target_edge_mm=args.edge,
                       keep_fraction=args.keep, patchiness=args.patchiness,
                       taper=_parse_taper(args.taper) if args.taper else None,
                       seed=args.seed)
    mesh, config, truth = make_phantom(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_mesh(mesh, out / "mesh.vtk")
    save_config(config, out / "regions.cfg")
    sidecar = {
        "mesh_name": mesh.name,
        "expected_rgm": truth.expected_rgm,
        "designed_gap_count": truth.designed_gap_count,
        "removed_arcs": [[s, w] for s, w in truth.removed_arcs],
        "blood_pool": {"mean": spec.blood_pool_mean,
                       "sd": spec.blood_pool_sd},
        "seed": spec.seed,
    }
    write_atomic(out / "truth.json",
                 (json.dumps(sidecar, indent=2) + "\n").encode("utf-8"))
    if args.volume:
        save_volume(phantom_volume(spec), args.volume)
    if args.verbose:
        _err(f"phantom {mesh.name!r}: {mesh.n_vertices} vertices, "
             f"expected rgm {truth.expected_rgm:.4f}")
    return 0


def cmd_cohort(args) -> int:
    src = Path(args.reports)
    paths = sorted(src.glob("*.json")) if src.is_dir() else [src]
    if not paths:
        raise ConfigError(f"no report files found under {src}")
    table = cohort_mod.aggregate(sweep.load_report(p) for p in paths)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cohort_mod.write_cohort_csv(table, out / "cohort.csv")
    cohort_mod.write_area_stats_csv(table, out / "area_stats.csv")
    cohort_mod.write_tests_csv(table, out / "tests.csv")
    for area in table.areas:
        cohort_mod.write_histogram_csv(table, area, out / f"hist_{area}.csv")
    for strategy in ("independent", "joint"):
        if any(table.strategy[a] == strategy for a in table.areas):
            cohort_mod.write_regional_csv(table,
                                          out / f"regions_{strategy}.csv",
                                          strategy)
    if args.verbose:
        _err(f"aggregated {table.n_cases} cases over "
             f"{len(table.areas)} areas -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvgap",
        description="Quantify incomplete ablation patterns around pulmonary "
                    "veins on labeled surface meshes.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="progress diagnostics on stderr")
    # the flag is also accepted after the subcommand; SUPPRESS keeps a
    # root-level -v from being overwritten by the subparser default
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("-v", "--verbose", action="store_true",
                        default=argparse.SUPPRESS,
                        help="progress diagnostics on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", parents=[shared],
                       help="sample a scalar volume onto mesh vertices "
                            "(maximum intensity along vertex normals)")
    p.add_argument("--mesh", required=True)
    p.add_argument("--volume", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_project)

    q = sub.add_parser("quantify", parents=[shared],
                       help="measure gaps per search area across thresholds")
    q.add_argument("--mesh", required=True)
    q.add_argument("--volume", help="project intensity from this volume "
                                    "instead of the mesh attribute")
    q.add_argument("--config", help="region config JSON "
                                    "(default: packaged atlas grouping)")
    q.add_argument("--thresholds",
                   default=",".join(f"{k:g}" for k in THRESHOLD_FACTORS),
                   help="comma-separated SD factors, ascending")
    q.add_argument("--bp-mean", type=float, help="blood pool mean intensity")
    q.add_argument("--bp-sd", type=float, help="blood pool SD")
    q.add_argument("--bp-mask", help="volume file; voxels > 0.5 define the "
                                     "blood pool (needs --volume)")
    q.add_argument("--strategy", default="both",
                   choices=("independent", "joint", "both"))
    q.add_argument("--ref-threshold", type=float,
                   help="factor used for patch ids, path marks, and "
                        "regional gap assignment (default 3.3 if swept)")
    q.add_argument("--out", required=True, help="report JSON path")
    q.add_argument("--annotated-mesh",
                   help="also write the mesh with scar/patch/path marks")
    q.set_defaults(func=cmd_quantify)

    s = sub.add_parser("synth", parents=[shared], help="generate a deterministic phantom")
    s.add_argument("--shape", default="disk-with-hole", choices=SHAPES)
    s.add_argument("--keep", type=float, default=1.0,
                   help="kept fraction of the encircling scar band")
    s.add_argument("--patchiness", type=int, default=0,
                   help="extra slits splitting the kept band")
    s.add_argument("--edge", type=float, default=1.0,
                   help="target edge length, mm")
    s.add_argument("--taper", help="EDGE_SD,CENTER_SD graded intensity")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True,
                   help="output directory (mesh.vtk, regions.cfg, "
                        "truth.json)")
    s.add_argument("--volume", help="also write the matching scalar volume")
    s.set_defaults(func=cmd_synth)

    c = sub.add_parser("cohort", parents=[shared], help="aggregate reports into CSV tables")
    c.add_argument("--reports", required=True,
                   help="report file or directory of *.json reports")
    c.add_argument("--out", required=True, help="output directory")
    c.set_defaults(func=cmd_cohort)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ConfigError, TopologyError, AreaError, ValueError) as exc:
        _err(str(exc))
        return 1
    except (MeshFormatError, VolumeFormatError, OSError) as exc:
        _err(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
