"""End-to-end command line runs, in process, with exit code contracts."""

import csv
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pvgap import ConfigError, load_config, load_report, save_config
from pvgap.cli import main
from pvgap.mesh import SurfaceMesh, load_mesh, save_mesh
from pvgap.scar import ScalarVolume, load_volume, save_volume
from pvgap.synth import TWO_PI, PhantomSpec, expected_rgm
from test_gaps import METRES_GAPS, METRES_SPEC, in_metres
from test_sweep import HOLED, NOT_A_DISK, cropped_ring, holed_disk

THRESH = "2,3.3,4"
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One phantom (keep 0.5) with volume, plus a baseline report."""
    root = tmp_path_factory.mktemp("cli")
    ph = root / "ph"
    assert main(["synth", "--keep", "0.5", "--out", str(ph),
                 "--volume", str(ph / "volume.vol")]) == 0
    assert main(["quantify", "--mesh", str(ph / "mesh.vtk"),
                 "--config", str(ph / "regions.cfg"),
                 "--bp-mean", "100", "--bp-sd", "10",
                 "--thresholds", THRESH,
                 "--out", str(root / "report.json")]) == 0
    return root


def _report(path):
    return json.loads(path.read_text())


def _bare_mesh(workdir, path, shift=0.0):
    """Write the phantom mesh without its intensity, moved `shift` mm along
    each axis, to path: a run with --volume projects the intensity."""
    mesh = load_mesh(workdir / "ph" / "mesh.vtk")
    save_mesh(SurfaceMesh(vertices=mesh.vertices + shift,
                          triangles=mesh.triangles, region=mesh.region,
                          name=mesh.name), path)
    return path


def test_synth_outputs(workdir):
    ph = workdir / "ph"
    assert (ph / "mesh.vtk").exists()
    assert (ph / "regions.cfg").exists()
    truth = _report(ph / "truth.json")
    assert set(truth) == {"mesh_name", "expected_rgm", "designed_gap_count",
                          "removed_arcs", "blood_pool", "seed"}
    assert truth["mesh_name"].startswith("synthetic disk-with-hole")
    assert truth["designed_gap_count"] == 1
    assert truth["expected_rgm"] == pytest.approx(
        expected_rgm(PhantomSpec(keep_fraction=0.5)))
    (arc,) = truth["removed_arcs"]
    assert arc == pytest.approx([1.5 * math.pi, math.pi])
    assert truth["blood_pool"] == {"mean": 100.0, "sd": 10.0}
    mesh = load_mesh(ph / "mesh.vtk")
    assert mesh.intensity is not None and mesh.region is not None


def test_quantify_report_matches_truth(workdir):
    report = _report(workdir / "report.json")
    truth = _report(workdir / "ph" / "truth.json")
    assert report["format"] == "gap-report 1"
    assert report["mesh_name"] == truth["mesh_name"]
    assert report["thresholds"] == [2.0, 3.3, 4.0]
    assert report["reference_threshold"] == 3.3
    entry = report["areas"]["LSPV"]
    assert entry["status"] == "ok"
    at_ref = [p for p in entry["per_threshold"] if p["factor"] == 3.3]
    assert abs(at_ref[0]["rgm"] - truth["expected_rgm"]) < 0.1


def test_quantify_lists_every_gap_of_a_mesh_in_metres(tmp_path):
    # the METRES_SPEC disk, written in metres: its three gaps are listed at
    # every factor, with the same RGM as in mm
    spec = METRES_SPEC
    ph = tmp_path / "ph"
    assert main(["synth", "--keep", str(spec.keep_fraction), "--patchiness",
                 str(spec.patchiness), "--seed", str(spec.seed), "--edge",
                 str(spec.target_edge_mm), "--out", str(ph)]) == 0
    save_mesh(in_metres(load_mesh(ph / "mesh.vtk")), ph / "metres.vtk")
    out = tmp_path / "report.json"
    assert main(["quantify", "--mesh", str(ph / "metres.vtk"),
                 "--config", str(ph / "regions.cfg"),
                 "--bp-mean", str(spec.blood_pool_mean),
                 "--bp-sd", str(spec.blood_pool_sd), "--out", str(out)]) == 0
    per = _report(out)["areas"]["LSPV"]["per_threshold"]
    assert [p["factor"] for p in per] == [2.0, 3.3, 4.0, 5.0, 6.0]
    for p in per:
        assert p["gap_count"] == 3
        assert [g["length_mm"] for g in p["gaps"]] == pytest.approx(
            METRES_GAPS, abs=5e-7)
        assert p["rgm"] == pytest.approx(0.5812, abs=5e-5)


def _fresh_process(*argv):
    """What `pvgap argv` run in a new process prints: its exit code and
    the scipy modules it loaded."""
    code = ("import sys; from pvgap.cli import main; rc = main(sys.argv[1:]); "
            "print(rc, sorted(m for m in sys.modules if m.startswith('scipy')))")
    run = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                         capture_output=True, text=True, check=True)
    return run.stdout.strip()


def test_quantify_without_a_volume_loads_no_scipy(workdir, tmp_path):
    # pvgap imports no scipy; a fresh process shows what a quantify run
    # loads, with or without a volume to project
    ph, out = workdir / "ph", tmp_path / "report.json"
    assert _fresh_process(
        "quantify", "--mesh", ph / "mesh.vtk", "--config", ph / "regions.cfg",
        "--bp-mean", "100", "--bp-sd", "10", "--thresholds", THRESH,
        "--out", out) == "0 []"
    assert out.read_bytes() == (workdir / "report.json").read_bytes()
    bare = _bare_mesh(workdir, tmp_path / "bare.vtk")
    assert _fresh_process("project", "--mesh", bare, "--volume",
                          ph / "volume.vol", "--out",
                          tmp_path / "projected.vtk") == "0 []"
    assert _fresh_process(
        "quantify", "--mesh", bare, "--volume", ph / "volume.vol",
        "--config", ph / "regions.cfg", "--bp-mean", "100", "--bp-sd", "10",
        "--thresholds", THRESH, "--out", tmp_path / "projected.json",
        "--annotated-mesh", tmp_path / "annotated.vtk") == "0 []"
    # the same outputs as an in-process run
    assert main(["project", "--mesh", str(bare), "--volume",
                 str(ph / "volume.vol"), "--out",
                 str(tmp_path / "again.vtk")]) == 0
    assert (tmp_path / "again.vtk").read_bytes() \
        == (tmp_path / "projected.vtk").read_bytes()


def test_reruns_are_byte_identical(workdir, tmp_path):
    ph = workdir / "ph"
    again = tmp_path / "again.json"
    assert main(["quantify", "--mesh", str(ph / "mesh.vtk"),
                 "--config", str(ph / "regions.cfg"),
                 "--bp-mean", "100", "--bp-sd", "10",
                 "--thresholds", THRESH, "--out", str(again)]) == 0
    assert again.read_bytes() == (workdir / "report.json").read_bytes()
    twin = tmp_path / "twin"
    assert main(["synth", "--keep", "0.5", "--out", str(twin)]) == 0
    assert (twin / "mesh.vtk").read_bytes() \
        == (ph / "mesh.vtk").read_bytes()
    assert (twin / "truth.json").read_bytes() \
        == (ph / "truth.json").read_bytes()


def test_quantify_sorts_each_mesh_once(workdir, tmp_path, monkeypatch):
    """One quantify sorts the half-edges of the case mesh once: load_mesh's
    check records its verdict, which the projected copy shares and
    run_case reads. The area's submesh and opened mesh sort once each."""
    ph = workdir / "ph"
    bare_path = _bare_mesh(workdir, tmp_path / "bare.vtk")
    sorts = []
    real = SurfaceMesh._sort_half_edges

    def counting(self, keys):
        sorts.append(self)
        return real(self, keys)
    monkeypatch.setattr(SurfaceMesh, "_sort_half_edges", counting)
    assert main(["quantify", "--mesh", str(bare_path),
                 "--volume", str(ph / "volume.vol"),
                 "--config", str(ph / "regions.cfg"),
                 "--bp-mean", "100", "--bp-sd", "10",
                 "--thresholds", THRESH,
                 "--out", str(tmp_path / "r.json")]) == 0
    case = sorts[0].name
    assert [m.name for m in sorts] == [case, f"{case}:LSPV", f"{case}:LSPV"]
    assert len({id(m) for m in sorts}) == 3


def test_project_then_quantify_from_volume(workdir, tmp_path):
    ph = workdir / "ph"
    bare_path = _bare_mesh(workdir, tmp_path / "bare.vtk")
    projected = tmp_path / "projected.vtk"
    assert main(["project", "--mesh", str(bare_path),
                 "--volume", str(ph / "volume.vol"),
                 "--out", str(projected)]) == 0
    assert load_mesh(projected).intensity is not None
    out = tmp_path / "report.json"
    assert main(["quantify", "--mesh", str(bare_path),
                 "--volume", str(ph / "volume.vol"),
                 "--config", str(ph / "regions.cfg"),
                 "--bp-mean", "100", "--bp-sd", "10",
                 "--thresholds", THRESH, "--out", str(out)]) == 0
    got = _report(out)["areas"]["LSPV"]["per_threshold"][1]["rgm"]
    want = _report(workdir / "report.json")
    want = want["areas"]["LSPV"]["per_threshold"][1]["rgm"]
    assert abs(got - want) < 0.05


def test_blood_pool_from_mask_volume(workdir, tmp_path, monkeypatch):
    from pvgap import cli
    ph = workdir / "ph"
    vol = load_volume(ph / "volume.vol")
    mask = ((vol.values >= 85.0) & (vol.values <= 115.0)).astype(float)
    mask_path = tmp_path / "mask.vol"
    save_volume(ScalarVolume(values=mask, origin=vol.origin,
                             spacing=vol.spacing, direction=vol.direction),
                mask_path)
    bare_path = _bare_mesh(workdir, tmp_path / "bare.vtk")
    out = tmp_path / "report.json"
    loaded = []

    def counting_load(path):
        loaded.append(path)
        return load_volume(path)
    monkeypatch.setattr(cli, "load_volume", counting_load)
    assert main(["quantify", "--mesh", str(bare_path),
                 "--volume", str(ph / "volume.vol"),
                 "--bp-mask", str(mask_path),
                 "--config", str(ph / "regions.cfg"),
                 "--thresholds", THRESH, "--out", str(out)]) == 0
    # the volume feeds both projection and pool statistics: read once
    assert loaded == [str(ph / "volume.vol"), str(mask_path)]
    report = _report(out)
    # the pool voxels alternate 90/110, nearly balanced
    assert report["blood_pool"]["mean"] == pytest.approx(100.0, abs=0.05)
    assert report["blood_pool"]["sd"] == pytest.approx(10.0, abs=0.05)
    # scar and healthy levels sit far from every threshold, so the
    # measured ratio matches the explicit-stats run
    got = report["areas"]["LSPV"]["per_threshold"][1]["rgm"]
    want = _report(workdir / "report.json")
    want = want["areas"]["LSPV"]["per_threshold"][1]["rgm"]
    assert abs(got - want) < 0.05


def test_a_bp_mask_on_another_grid_exits_1_without_a_report(
        workdir, tmp_path, capsys):
    # the same dims, but shifted: voxel (i, j, k) of the mask is not the
    # volume's voxel (i, j, k)
    ph = workdir / "ph"
    vol = load_volume(ph / "volume.vol")
    mask_path = tmp_path / "mask.vol"
    save_volume(ScalarVolume(values=np.ones_like(vol.values),
                             origin=tuple(o + 40.0 for o in vol.origin),
                             spacing=vol.spacing, direction=vol.direction),
                mask_path)
    out = tmp_path / "report.json"
    assert main(["quantify", "--mesh",
                 str(_bare_mesh(workdir, tmp_path / "bare.vtk")),
                 "--volume", str(ph / "volume.vol"),
                 "--bp-mask", str(mask_path),
                 "--config", str(ph / "regions.cfg"),
                 "--thresholds", THRESH, "--out", str(out)]) == 1
    assert "--bp-mask" in capsys.readouterr().err
    assert not out.exists()


def test_a_bp_mask_off_the_grid_by_1e_4_mm_exits_1_without_a_report(
        workdir, tmp_path, capsys):
    # README allows 1e-6 mm; at x = -26 mm numpy's default relative
    # tolerance alone would let 2.6e-4 mm through
    ph = workdir / "ph"
    vol = load_volume(ph / "volume.vol")
    ox, oy, oz = vol.origin
    assert abs(ox) >= 10.0
    mask_path = tmp_path / "mask.vol"
    save_volume(ScalarVolume(values=np.ones_like(vol.values),
                             origin=(ox + 1e-4, oy, oz),
                             spacing=vol.spacing, direction=vol.direction),
                mask_path)
    assert load_volume(mask_path).origin[0] != ox
    out = tmp_path / "report.json"
    assert main(["quantify", "--mesh",
                 str(_bare_mesh(workdir, tmp_path / "bare.vtk")),
                 "--volume", str(ph / "volume.vol"),
                 "--bp-mask", str(mask_path),
                 "--config", str(ph / "regions.cfg"),
                 "--thresholds", THRESH, "--out", str(out)]) == 1
    assert "--bp-mask grid does not match --volume" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["project", "quantify"])
def test_a_mesh_outside_the_volume_exits_1_and_writes_nothing(
        command, workdir, tmp_path, capsys):
    # no vertex samples a voxel, so every projected intensity is -inf: not
    # a mesh without scar
    ph = workdir / "ph"
    far = _bare_mesh(workdir, tmp_path / "far.vtk", shift=1000.0)
    volume = ["--volume", str(ph / "volume.vol")]
    out = ["--out", str(tmp_path / "out")]
    argv = {"project": ["project", "--mesh", str(far), *volume, *out],
            "quantify": ["quantify", "--mesh", str(far), *volume, *out,
                         "--config", str(ph / "regions.cfg"),
                         "--bp-mean", "100", "--bp-sd", "10",
                         "--annotated-mesh", str(tmp_path / "marked.vtk")]}
    assert main(argv[command]) == 1
    assert "finite intensity" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [far]


# each row turns a valid config or report into one that is not strict JSON,
# by a key the reader would otherwise ignore; None is a file that is missing
STRICT_JSON_ROWS = [
    ("not UTF-8", b'"_note": "\xff", ', 1),
    ("syntax", b'"_note": 1,, ', 1),
    ("NaN", b'"_note": NaN, ', 1),
    ("Infinity", b'"_note": -Infinity, ', 1),
    ("unreadable", None, 2),
]


@pytest.mark.parametrize("reader", ["load_config", "load_report"])
@pytest.mark.parametrize("insert, code", [r[1:] for r in STRICT_JSON_ROWS],
                         ids=[r[0] for r in STRICT_JSON_ROWS])
def test_json_readers_refuse_what_is_not_strict_json(
        reader, insert, code, workdir, tmp_path, capsys):
    ph = workdir / "ph"
    good = {"load_config": ph / "regions.cfg",
            "load_report": workdir / "report.json"}[reader]
    path = tmp_path / "in.json"
    if insert is not None:
        head, brace, rest = good.read_bytes().partition(b"{")
        path.write_bytes(head + brace + insert + rest)
    load = {"load_config": load_config, "load_report": load_report}[reader]
    with pytest.raises(ConfigError if code == 1 else OSError) as info:
        load(path)
    assert str(info.value).count(str(path)) == 1
    argv = {"load_config": ["quantify", "--mesh", str(ph / "mesh.vtk"),
                            "--config", str(path), "--bp-mean", "100",
                            "--bp-sd", "10", "--thresholds", THRESH,
                            "--out", str(tmp_path / "out")],
            "load_report": ["cohort", "--reports", str(path),
                            "--out", str(tmp_path / "out")]}[reader]
    assert main(argv) == code
    assert capsys.readouterr().err.count(str(path)) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("reader", ["load_config", "load_report"])
def test_an_area_listed_twice_is_refused(reader, workdir, tmp_path, capsys):
    # json.load keeps the last value of a key an object holds twice, so
    # one of the two areas would be dropped without a word
    ph = workdir / "ph"
    good = {"load_config": ph / "regions.cfg",
            "load_report": workdir / "report.json"}[reader]
    name, area = next(iter(json.loads(good.read_text())["areas"].items()))
    head, areas, rest = good.read_text().partition('"areas": {')
    path = tmp_path / "in.json"
    path.write_text(f"{head}{areas}{json.dumps(name)}: {json.dumps(area)}, "
                    f"{rest}")
    load = {"load_config": load_config, "load_report": load_report}[reader]
    with pytest.raises(ConfigError, match=f'duplicate key "{name}"') as info:
        load(path)
    assert str(info.value).count(str(path)) == 1
    argv = {"load_config": ["quantify", "--mesh", str(ph / "mesh.vtk"),
                            "--config", str(path), "--bp-mean", "100",
                            "--bp-sd", "10", "--thresholds", THRESH,
                            "--out", str(tmp_path / "out")],
            "load_report": ["cohort", "--reports", str(path),
                            "--out", str(tmp_path / "out")]}[reader]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(path) in err and f'"{name}"' in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("synth_args, golden", [
    # six scar patches that change at every default factor, so each factor
    # runs new whole-mesh patch fields
    (["--keep", "0.75", "--patchiness", "4", "--edge", "0.5",
      "--taper", "2.5,9"], "tapered_patchy_report.json"),
    # no patch: the loop is a multi-source whole field plus bounded
    # single-source transforms
    (["--keep", "0", "--edge", "0.5"], "disk_keep0_report.json"),
    # one patch, whose route link runs the whole loop
    (["--keep", "1", "--edge", "0.5"], "disk_keep1_report.json"),
], ids=["tapered-patchy", "disk-keep0", "disk-keep1"])
def test_report_matches_the_golden_file(synth_args, golden, tmp_path):
    # the expected reports were written by earlier kernel schedules, and any
    # change that moves a report byte (an ulp that flips a rounding, a
    # different path) fails here
    ph = tmp_path / "ph"
    assert main(["synth"] + synth_args + ["--out", str(ph)]) == 0
    out = tmp_path / "report.json"
    assert main(["quantify", "--mesh", str(ph / "mesh.vtk"),
                 "--config", str(ph / "regions.cfg"),
                 "--bp-mean", "100", "--bp-sd", "10", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_annotated_mesh_output(workdir, tmp_path):
    ph = workdir / "ph"
    out = tmp_path / "report.json"
    marked = tmp_path / "marked.vtk"
    assert main(["quantify", "--mesh", str(ph / "mesh.vtk"),
                 "--config", str(ph / "regions.cfg"),
                 "--bp-mean", "100", "--bp-sd", "10",
                 "--thresholds", THRESH, "--out", str(out),
                 "--annotated-mesh", str(marked)]) == 0
    back = load_mesh(marked)
    assert {"scar_2", "scar_3.3", "scar_4", "patch_id",
            "path_LSPV"} <= set(back.point_data)


@pytest.mark.parametrize("name", ["Left PV", "L\u00dcPV"])
def test_area_name_that_is_not_a_token_exits_1(name, workdir, tmp_path,
                                                capsys):
    # refused with the config, before any report or annotated mesh exists
    ph = workdir / "ph"
    cfg = json.loads((ph / "regions.cfg").read_text())
    cfg["areas"] = {name: area for area in cfg["areas"].values()}
    bad = tmp_path / "regions.cfg"
    bad.write_text(json.dumps(cfg), encoding="utf-8")
    out, marked = tmp_path / "r.json", tmp_path / "marked.vtk"
    assert main(["quantify", "--mesh", str(ph / "mesh.vtk"),
                 "--config", str(bad), "--bp-mean", "100", "--bp-sd", "10",
                 "--thresholds", THRESH, "--out", str(out),
                 "--annotated-mesh", str(marked)]) == 1
    assert "name" in capsys.readouterr().err
    assert not out.exists() and not marked.exists()


@pytest.mark.parametrize("name", ["x/../../../escaped", "a\\b"])
def test_area_name_with_a_path_separator_exits_1(name, workdir, tmp_path,
                                                 capsys):
    # the name would make `cohort` write hist_<name>.csv outside --out:
    # quantify refuses it with the config, cohort with the report
    ph = workdir / "ph"
    cfg = json.loads((ph / "regions.cfg").read_text())
    cfg["areas"] = {name: area for area in cfg["areas"].values()}
    bad = tmp_path / "regions.cfg"
    bad.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "r.json"
    assert main(["quantify", "--mesh", str(ph / "mesh.vtk"),
                 "--config", str(bad), "--bp-mean", "100", "--bp-sd", "10",
                 "--thresholds", THRESH, "--out", str(out)]) == 1
    assert "name must be" in capsys.readouterr().err
    assert not out.exists()
    report = _report(workdir / "report.json")
    report["areas"] = {name: area for area in report["areas"].values()}
    reports = tmp_path / "a" / "b" / "reports"
    reports.mkdir(parents=True)
    (reports / "case.json").write_text(json.dumps(report))
    before = sorted(tmp_path.rglob("*"))
    tables = reports.parent / "tables"
    assert main(["cohort", "--reports", str(reports),
                 "--out", str(tables)]) == 1
    assert f"{report['mesh_name']!r}: area {name!r} name must be" \
        in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_verbose_flag_both_positions(workdir, tmp_path, capsys):
    ph = workdir / "ph"
    args = ["quantify", "--mesh", str(ph / "mesh.vtk"),
            "--config", str(ph / "regions.cfg"),
            "--bp-mean", "100", "--bp-sd", "10", "--thresholds", THRESH,
            "--out", str(tmp_path / "r.json")]
    assert main(["-v"] + args) == 0
    first = capsys.readouterr().err
    assert first.startswith("pvgap: ") and "LSPV" in first
    assert main(args + ["-v"]) == 0
    assert capsys.readouterr().err == first


# --- failure modes ---

def test_argument_errors_exit_1(workdir, tmp_path, capsys, recwarn):
    ph = workdir / "ph"
    base = ["quantify", "--mesh", str(ph / "mesh.vtk"),
            "--config", str(ph / "regions.cfg"),
            "--out", str(tmp_path / "r.json")]
    bp = ["--bp-mean", "100", "--bp-sd", "10"]
    # unknown flag (argparse) and help both go through SystemExit
    assert main(["quantify", "--nonsense"]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()
    # descending thresholds name the offending flag
    assert main(base + bp + ["--thresholds", "4,3.3,2"]) == 1
    assert "--thresholds" in capsys.readouterr().err
    assert main(base + bp + ["--thresholds", "3.3"]) == 1
    # factors equal at the report's 6 significant digits
    assert main(base + bp + ["--thresholds", "2,3.3,3.3000001,5"]) == 1
    assert "--thresholds" in capsys.readouterr().err
    assert main(base + bp + ["--thresholds", "2,x"]) == 1
    # non-finite thresholds are refused before the mesh is read
    capsys.readouterr()
    assert main(base + bp + ["--thresholds=2,inf"]) == 1
    assert "--thresholds" in capsys.readouterr().err
    assert main(["quantify", "--mesh", str(tmp_path / "nope.vtk"),
                 "--out", str(tmp_path / "r.json"), *bp,
                 "--thresholds=2,inf"]) == 1
    # blood pool must come from exactly one source; refused before the mesh
    # is read
    assert main(base + ["--thresholds", THRESH]) == 1
    assert main(base + bp + ["--bp-mask", str(ph / "volume.vol"),
                             "--thresholds", THRESH]) == 1
    nope = ["quantify", "--mesh", str(tmp_path / "nope.vtk"),
            "--out", str(tmp_path / "r.json"), "--thresholds", THRESH]
    capsys.readouterr()
    for source in ([], ["--bp-mean", "100"], [*bp, "--bp-mask", "m.vol"],
                   ["--bp-mask", "m.vol"]):
        assert main(nope + source) == 1
        assert "--bp-" in capsys.readouterr().err
    # blood-pool SD must be finite and positive
    for sd in ("nan", "0", "-1"):
        assert main(base + ["--bp-mean", "100", "--bp-sd", sd,
                            "--thresholds", THRESH]) == 1
    # reference threshold must be swept; refused before the mesh is read
    assert main(base + bp + ["--thresholds", THRESH,
                             "--ref-threshold", "5"]) == 1
    capsys.readouterr()
    assert main(["quantify", "--mesh", str(tmp_path / "nope.vtk"),
                 "--out", str(tmp_path / "r.json"), *bp,
                 "--thresholds", THRESH, "--ref-threshold", "5"]) == 1
    assert "--ref-threshold" in capsys.readouterr().err
    # the mesh already carries intensity; projecting over it is refused
    assert main(base + bp + ["--volume", str(ph / "volume.vol"),
                             "--thresholds", THRESH]) == 1
    # no joint areas exist in the phantom config
    assert main(base + bp + ["--thresholds", THRESH,
                             "--strategy", "joint"]) == 1
    assert not (tmp_path / "r.json").exists()
    assert len(recwarn) == 0


def test_impossible_slit_layout_exits_1_without_a_traceback(tmp_path,
                                                           capsys):
    # keep 0 removes the whole band, so no patchiness slit can be placed
    out = tmp_path / "D"
    assert main(["synth", "--keep", "0", "--patchiness", "1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pvgap: could not place a patchiness slit")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("args, field", [
    (["--edge", "inf"], "target_edge_mm"),
    (["--edge", "nan"], "target_edge_mm"),
    (["--taper", "nan,9"], "taper"),
    (["--taper", "0,9"], "taper"),
    (["--edge", "5"], "kept scar band"),
])
def test_synth_refuses_a_meaningless_spec(args, field, tmp_path, capsys):
    out = tmp_path / "D"
    assert main(["synth", "--keep", "0.5", "--out", str(out)] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("pvgap: ") and field in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_io_errors_exit_2(workdir, tmp_path, capsys):
    ph = workdir / "ph"
    bp = ["--bp-mean", "100", "--bp-sd", "10"]
    missing = str(tmp_path / "nope.vtk")
    assert main(["quantify", "--mesh", missing, "--out",
                 str(tmp_path / "r.json")] + bp) == 2
    garbage = tmp_path / "garbage.vtk"
    garbage.write_text("not a mesh\n")
    assert main(["quantify", "--mesh", str(garbage), "--out",
                 str(tmp_path / "r.json")] + bp) == 2
    assert main(["cohort", "--reports", str(tmp_path / "void.json"),
                 "--out", str(tmp_path / "c")]) == 2
    assert main(["quantify", "--mesh", str(ph / "mesh.vtk"), "--config",
                 str(tmp_path / "none.cfg"), "--out",
                 str(tmp_path / "r.json")] + bp) == 2
    assert "none.cfg" in capsys.readouterr().err
    # a config that is not JSON is a configuration error, not an I/O one
    broken = tmp_path / "broken.cfg"
    broken.write_text("{")
    assert main(["quantify", "--mesh", str(ph / "mesh.vtk"), "--config",
                 str(broken), "--out", str(tmp_path / "r.json")] + bp) == 1
    assert not (tmp_path / "r.json").exists()
    capsys.readouterr()


@pytest.mark.parametrize("field, values", [("spacing", "nan 0.5 1"),
                                           ("origin", "inf 0 0")])
def test_non_finite_volume_geometry_exits_2_without_a_report(
        field, values, workdir, tmp_path, capsys):
    # a nan spacing once projected every vertex to -inf: rgm_nauc 1.0
    ph = workdir / "ph"
    bare = _bare_mesh(workdir, tmp_path / "bare.vtk")
    head, sep, payload = (ph / "volume.vol").read_bytes().partition(
        b"\ndata\n")
    lines = [f"{field} {values}".encode() if ln.startswith(field.encode())
             else ln for ln in head.split(b"\n")]
    volume = tmp_path / "bad.vol"
    volume.write_bytes(b"\n".join(lines) + sep + payload)
    out = tmp_path / "report.json"
    assert main(["quantify", "--mesh", str(bare), "--volume", str(volume),
                 "--config", str(ph / "regions.cfg"),
                 "--bp-mean", "100", "--bp-sd", "10",
                 "--thresholds", THRESH, "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, bad", [("project", math.nan),
                                          ("quantify", math.inf),
                                          ("bp-mask", -math.inf)])
def test_a_non_finite_voxel_exits_2_and_writes_nothing(
        command, bad, workdir, tmp_path, capsys):
    # a nan or inf voxel was refused only once a sample read it, with a
    # message naming neither the file nor the voxel
    ph = workdir / "ph"
    vol = load_volume(ph / "volume.vol")
    vals = vol.values.copy()
    vals[0, 0, 0] = bad
    volume = tmp_path / "bad.vol"
    save_volume(vol, volume)
    raw = volume.read_bytes()
    head = raw[:len(raw) - vals.nbytes]
    volume.write_bytes(head + vals.astype("<f4").tobytes())
    bare = _bare_mesh(workdir, tmp_path / "bare.vtk")
    out = ["--out", str(tmp_path / "out")]
    quantify = ["quantify", "--mesh", str(bare), *out,
                "--config", str(ph / "regions.cfg"),
                "--annotated-mesh", str(tmp_path / "marked.vtk")]
    argv = {"project": ["project", "--mesh", str(bare),
                        "--volume", str(volume), *out],
            "quantify": [*quantify, "--volume", str(volume),
                         "--bp-mean", "100", "--bp-sd", "10"],
            "bp-mask": [*quantify, "--volume", str(ph / "volume.vol"),
                        "--bp-mask", str(volume)]}
    assert main(argv[command]) == 2
    assert (f"{volume}: values must be finite: voxel [iz, iy, ix]"
            f" = [0, 0, 0] holds {bad}") in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [volume, bare]


@pytest.mark.parametrize("token", ["inf", "Infinity"])
def test_a_plus_inf_intensity_exits_2_without_a_report(token, workdir,
                                                       tmp_path, capsys):
    # +inf is scar at every factor: the keep-0 phantom with every second
    # vertex at +inf read rgm_nauc 0.728 with status ok
    ph = workdir / "ph"
    mesh = load_mesh(ph / "mesh.vtk")
    marked = mesh.intensity.copy()
    marked[7] = -math.inf
    path = tmp_path / "mesh.vtk"
    save_mesh(mesh.with_intensity(marked), path)
    text = path.read_text()
    assert text.count("\n-inf\n") == 1
    assert load_mesh(path).intensity[7] == -math.inf
    path.write_text(text.replace("\n-inf\n", f"\n{token}\n"))
    out = tmp_path / "report.json"
    assert main(["quantify", "--mesh", str(path),
                 "--config", str(ph / "regions.cfg"),
                 "--bp-mean", "100", "--bp-sd", "10",
                 "--thresholds", THRESH, "--out", str(out)]) == 2
    assert f"{path}: intensity is +inf at vertex 7" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bp", [("100", "nan"), ("100", "0"),
                                ("inf", "10")])
def test_blood_pool_values_are_refused_before_the_mesh_is_read(
        bp, tmp_path, capsys):
    mean, sd = bp
    assert main(["quantify", "--mesh", str(tmp_path / "missing.vtk"),
                 "--out", str(tmp_path / "r.json"), "--bp-mean", mean,
                 "--bp-sd", sd]) == 1
    assert "blood pool" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("flag", ["--out", "--annotated-mesh"])
def test_output_onto_a_directory_exits_2_and_leaves_no_temp_file(
        flag, workdir, tmp_path, capsys):
    ph = workdir / "ph"
    target = tmp_path / "taken"
    target.mkdir()
    outputs = {"--out": str(tmp_path / "r.json"),
               "--annotated-mesh": str(tmp_path / "marked.vtk"), flag:
               str(target)}
    assert main(["quantify", "--mesh", str(ph / "mesh.vtk"),
                 "--config", str(ph / "regions.cfg"),
                 "--bp-mean", "100", "--bp-sd", "10", "--thresholds", THRESH,
                 *(a for item in outputs.items() for a in item)]) == 2
    capsys.readouterr()
    assert target.is_dir() and not any(target.iterdir())
    assert not list(tmp_path.glob("*.tmp"))


def test_all_areas_failed_exit_3(workdir, tmp_path, capsys):
    ph = workdir / "ph"
    cfg = {"areas": {"GHOST": {"labels": [25, 26],
                               "strategy": "independent",
                               "cut": {"labels": [25, 26]},
                               "vein_seeds": [0]}}}
    cfg_path = tmp_path / "ghost.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    code = main(["quantify", "--mesh", str(ph / "mesh.vtk"),
                 "--config", str(cfg_path),
                 "--bp-mean", "100", "--bp-sd", "10",
                 "--thresholds", THRESH, "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "GHOST" in err and "all areas failed" in err
    # the report is still written, carrying the failure
    report = _report(out)
    assert report["areas"]["GHOST"]["status"] == "failed"


def test_a_gap_over_unsampled_tissue_exits_3_with_the_reason(tmp_path,
                                                             capsys):
    # the keep-1 ring's volume cut to 73 of its 105 x-columns leaves 29.9%
    # of the vertices unsampled, and the route's one gap crosses 49 of them
    bare, cropped, _config = cropped_ring(73)
    ph = tmp_path / "ph"
    assert main(["synth", "--keep", "1", "--edge", "0.5",
                 "--out", str(ph)]) == 0
    save_mesh(bare, ph / "bare.vtk")
    save_volume(cropped, ph / "cropped.vol")
    out = tmp_path / "r.json"
    code = main(["quantify", "--mesh", str(ph / "bare.vtk"),
                 "--volume", str(ph / "cropped.vol"),
                 "--config", str(ph / "regions.cfg"),
                 "--bp-mean", "100", "--bp-sd", "10", "--out", str(out)])
    assert code == 3
    assert "all areas failed" in capsys.readouterr().err
    entry = _report(out)["areas"]["LSPV"]
    assert entry["status"] == "failed"
    assert entry["error"] == ("a gap at factor 2 crosses 49 vertices with "
                              "no intensity sample")


@pytest.mark.parametrize("mm", [6.0, 3.0])
def test_a_cut_from_a_hole_exits_3_with_the_reason(mm, tmp_path, capsys):
    # before the disk check both read status ok (`test_sweep`'s twin)
    mesh, config = holed_disk(mm)
    save_mesh(mesh, tmp_path / "holed.vtk")
    save_config(config, tmp_path / "holed.json")
    out = tmp_path / "r.json"
    code = main(["quantify", "--mesh", str(tmp_path / "holed.vtk"),
                 "--config", str(tmp_path / "holed.json"),
                 "--bp-mean", str(HOLED.blood_pool_mean),
                 "--bp-sd", str(HOLED.blood_pool_sd), "--out", str(out)])
    assert code == 3
    assert "all areas failed" in capsys.readouterr().err
    entry = _report(out)["areas"]["LSPV"]
    assert (entry["status"], entry["error"]) == ("failed", NOT_A_DISK)


# --- cohort aggregation over real reports ---

@pytest.fixture(scope="module")
def cohort_dir(workdir, tmp_path_factory):
    root = tmp_path_factory.mktemp("cohort")
    reports = root / "reports"
    reports.mkdir()
    (reports / "a.json").write_bytes((workdir / "report.json").read_bytes())
    ph = root / "ph2"
    assert main(["synth", "--keep", "0.75", "--seed", "1",
                 "--out", str(ph)]) == 0
    assert main(["quantify", "--mesh", str(ph / "mesh.vtk"),
                 "--config", str(ph / "regions.cfg"),
                 "--bp-mean", "100", "--bp-sd", "10",
                 "--thresholds", THRESH,
                 "--out", str(reports / "b.json")]) == 0
    out = root / "tables"
    assert main(["cohort", "--reports", str(reports),
                 "--out", str(out)]) == 0
    return reports, out


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_cohort_tables_match_reports(cohort_dir):
    reports, out = cohort_dir
    naucs = {}
    for p in sorted(reports.glob("*.json")):
        rep = _report(p)
        naucs[rep["mesh_name"]] = rep["areas"]["LSPV"]["rgm_nauc"]
    rows = _read_csv(out / "cohort.csv")
    assert rows[0][:2] == ["case_id", "LSPV_rgm_nauc"]
    assert len(rows) == 3
    got = {r[0]: float(r[1]) for r in rows[1:]}
    assert got == pytest.approx(naucs)
    stats = _read_csv(out / "area_stats.csv")
    by_area = {r[0]: r for r in stats[1:]}
    vals = list(naucs.values())
    assert float(by_area["LSPV"][3]) == pytest.approx(
        statistics.mean(vals), rel=1e-5)
    assert float(by_area["LSPV"][4]) == pytest.approx(
        statistics.stdev(vals), rel=1e-5)
    hist = _read_csv(out / "hist_LSPV.csv")
    assert sum(int(r[2]) for r in hist[1:]) == 2
    # a single search area leaves nothing to test against
    assert _read_csv(out / "tests.csv") == [["area", "metric", "t",
                                             "df", "p"]]
    assert (out / "regions_independent.csv").exists()
    assert not (out / "regions_joint.csv").exists()


def test_cohort_tables_match_the_golden_files(tmp_path):
    # the tables are what `pvgap cohort` wrote from the reports beside them:
    # two independent areas (LIPV failed in one case), one joint area and
    # one that failed in every case, so the tables hold Welch statistics,
    # both regional maps and empty cells
    golden = DATA / "cohort"
    out = tmp_path / "tables"
    assert main(["cohort", "--reports", str(golden / "reports"),
                 "--out", str(out)]) == 0
    names = sorted(p.name for p in (golden / "tables").iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() \
            == (golden / "tables" / name).read_bytes(), name


def _two_area_cases(report, naucs):
    """Copies of a real report whose LSPV entry is cloned as areas A and B,
    one case per (A, B) pair of rgm_nauc values; None marks a failed area."""
    lspv = report["areas"]["LSPV"]
    cases = []
    for i, pair in enumerate(naucs):
        areas = {}
        for name, nauc in zip("AB", pair):
            if nauc is None:
                areas[name] = {"strategy": lspv["strategy"],
                               "labels": lspv["labels"], "status": "failed",
                               "error": "no scar"}
            else:
                areas[name] = dict(lspv, rgm_nauc=nauc)
        cases.append(dict(report, mesh_name=f"case{i}", areas=areas))
    return cases


@pytest.mark.parametrize("naucs", [
    [(0.2, 0.4)],                   # one case: each sample has one value
    [(0.2, None), (0.3, None)],     # B failed everywhere: A has no peer
    [(0.2, 0.4), (0.2, 0.4)],       # constant samples, unequal means
], ids=["one-case", "peer-failed", "zero-variance"])
def test_cohort_writes_every_table_when_welch_is_undefined(
        workdir, tmp_path, naucs):
    reports = tmp_path / "reports"
    reports.mkdir()
    for case in _two_area_cases(_report(workdir / "report.json"), naucs):
        (reports / f"{case['mesh_name']}.json").write_text(json.dumps(case))
    out = tmp_path / "tables"
    assert main(["cohort", "--reports", str(reports),
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "area_stats.csv", "cohort.csv", "hist_A.csv", "hist_B.csv",
        "regions_independent.csv", "tests.csv"]
    assert _read_csv(out / "tests.csv") == [
        ["area", "metric", "t", "df", "p"],
        ["A", "rgm_nauc", "", "", ""], ["B", "rgm_nauc", "", "", ""]]


def test_cohort_rejects_malformed_reports(cohort_dir, tmp_path, capsys):
    reports, _out = cohort_dir
    good = json.loads((reports / "a.json").read_text())
    unreferenced = {k: v for k, v in good.items()
                    if k != "reference_threshold"}
    not_finite = ('{"format": "gap-report 1", "mesh_name": "x", '
                  '"reference_threshold": NaN, "areas": {}}')
    syntax = '{"format": "gap-report 1",\n}'
    for name, text, why in (("missing", json.dumps(unreferenced),
                             "lacks the key 'reference_threshold'"),
                            ("nan", not_finite, "NaN is not strict JSON"),
                            ("syntax", syntax, f"{tmp_path / 'syntax.json'}: "
                             "Expecting property name")):
        src = tmp_path / f"{name}.json"
        src.write_text(text)
        out = tmp_path / f"t_{name}"
        assert main(["cohort", "--reports", str(src),
                     "--out", str(out)]) == 1
        assert not out.exists()
        assert why in capsys.readouterr().err


def test_cohort_refuses_a_bad_report_value_before_any_table(
        cohort_dir, tmp_path, capsys):
    # values that the histogram, the statistics or the regional map took
    # as numbers: refused while the reports are read, so no table is written
    reports, _out = cohort_dir
    good = json.loads((reports / "a.json").read_text())
    for field, bad in (("rgm_nauc", 1.5), ("rgm_nauc", True),
                       ("gap_count_mean", "3"), ("status", "done")):
        report = json.loads(json.dumps(good))
        report["areas"]["LSPV"][field] = bad
        src = tmp_path / f"bad_{field}"
        src.mkdir(exist_ok=True)
        (src / "a.json").write_text(json.dumps(report))
        out = tmp_path / f"t_{field}"
        assert main(["cohort", "--reports", str(src),
                     "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{good['mesh_name']!r}" in err and f"'LSPV' {field}" in err


def test_cohort_rejects_duplicate_cases(cohort_dir, tmp_path, capsys):
    reports, _out = cohort_dir
    dup = tmp_path / "dup"
    dup.mkdir()
    for name in ("a.json", "a_copy.json"):
        (dup / name).write_bytes((reports / "a.json").read_bytes())
    assert main(["cohort", "--reports", str(dup),
                 "--out", str(tmp_path / "t")]) == 1
    assert "duplicate" in capsys.readouterr().err
