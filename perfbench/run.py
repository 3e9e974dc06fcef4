"""Benchmark of `pvgap quantify` and `pvgap cohort` on phantom workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; pvgap is imported from ./src. The
seed picks the rigid motion applied to the workload's phantoms (see
workloads.py). Passes over the workload's cases repeat until S seconds of
passes have run, at least one. Every pass calls `pvgap.cli.main` in this
process, one case at a time, then `cohort` where the workload has one.

--trace 0 prints the end-to-end metrics. --trace 1 runs untraced passes for
S seconds, then two passes with span wrappers installed, and prints the
per-layer metrics; their counts must agree between the two traced passes.
Every time is scaled to a reference machine speed sampled while it was
taken (speed.py); the summary lines, and with --trace 1 the metrics
unscaled.wall_s and speed.snippet_ms, give the unscaled pass time and the
sampled speed.
Every pass is checked: exit codes 0, reports and other outputs
byte-identical to the reference, RGM at the lowest factor within 0.10 of
the phantom's ground truth. The reference is the output digests stored by
an earlier correct run of the same workload, seed and code in this
checkout (.perfbench_work/digests/), or else this run's first pass, whose
digests are then stored. The last stdout line is one JSON object with keys
correct, attempted, failed and metrics; attempted and failed count area
measurements plus cohort runs. Scratch files go to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
RGM_BOUND = 0.10  # acceptance criterion 01
LOW_FACTOR = 2.0  # lowest default threshold factor; all kept band is scar
SETUP_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def pin_environment() -> None:
    """One thread everywhere; must run before numpy is imported."""
    os.environ.pop("PVGAP_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment() -> dict:
    """Host and version facts printed with every result."""
    import numpy
    import scipy
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit, "code_sha256": code_digest()}


def code_digest() -> str:
    """Digest of what decides the outputs: pvgap's sources and data, and
    the input generator."""
    code = hashlib.sha256()
    paths = [p for p in sorted((ROOT / "src" / "pvgap").rglob("*"))
             if p.is_file() and p.suffix in (".py", ".json")]
    for path in [*paths, HERE / "workloads.py"]:
        code.update(path.relative_to(ROOT).as_posix().encode())
        code.update(path.read_bytes())
    return code.hexdigest()[:16]


@dataclass
class Pass:
    wall: tuple  # (start, end) perf_counter window of the pass
    quantify: list  # (start, end) window per quantify call, case order
    codes: dict  # case name (or "cohort") -> exit code
    outputs: dict  # path relative to the pass dir -> sha256


def run_pass(workload, prepared, pass_dir: Path, tracer=None) -> Pass:
    """Quantify every case, then run cohort if the workload has one; outputs
    go to pass_dir and are digested after the timed window."""
    from pvgap.cli import main

    def call(case, argv):
        if tracer is None:
            return main(argv)
        tracer.case = case
        with tracer.span("cli." + argv[0]):
            return main(argv)

    quantify, codes = [], {}
    t0 = time.perf_counter()
    for prep in prepared:
        name = prep.case.name
        argv = [*prep.argv, "--out", str(pass_dir / "reports" / f"{name}.json")]
        if prep.case.projected:
            argv += ["--annotated-mesh",
                     str(pass_dir / "annotated" / f"{name}.vtk")]
        t = time.perf_counter()
        codes[name] = call(name, argv)
        quantify.append((t, time.perf_counter()))
    if workload.cohort:
        codes["cohort"] = call("cohort", [
            "cohort", "--reports", str(pass_dir / "reports"),
            "--out", str(pass_dir / "cohort")])
    wall = (t0, time.perf_counter())
    outputs = {p.relative_to(pass_dir).as_posix(): _digest(p)
               for p in sorted(pass_dir.rglob("*")) if p.is_file()}
    return Pass(wall=wall, quantify=quantify, codes=codes, outputs=outputs)


@dataclass
class Tally:
    """Outcome of every checked pass of one run."""
    attempted: int = 0  # area measurements plus cohort runs
    failed: int = 0
    areas: int = 0
    areas_failed: int = 0
    rgm_abs_err: float = 0.0


def _case_problems(prep, pas: Pass, pass_dir: Path, ref: dict):
    """Problems of one case in one pass, and its worst RGM error."""
    name = prep.case.name
    if pas.codes[name] != 0:
        return [f"{name}: quantify exited {pas.codes[name]}"], None
    problems = []
    outs = [f"reports/{name}.json"]
    if prep.case.projected:
        outs.append(f"annotated/{name}.vtk")
    for out in outs:
        if out not in pas.outputs:
            problems.append(f"{name}: {out} missing")
        elif ref.setdefault(out, pas.outputs[out]) != pas.outputs[out]:
            problems.append(f"{name}: {out} differs from the reference")
    if outs[0] not in pas.outputs:
        return problems, None
    report = json.loads((pass_dir / outs[0]).read_text(encoding="utf-8"))
    worst = None
    for area, entry in report["areas"].items():
        if entry["status"] != "ok":
            problems.append(f"{name}: area {area} failed: {entry['error']}")
            continue
        at_low = [p["rgm"] for p in entry["per_threshold"]
                  if p["factor"] == LOW_FACTOR]
        if len(at_low) != 1:
            problems.append(f"{name}: area {area} lacks factor {LOW_FACTOR}")
            continue
        err = abs(at_low[0] - prep.expected_rgm)
        worst = err if worst is None else max(worst, err)
        if err > RGM_BOUND:
            problems.append(f"{name}: area {area} rgm {at_low[0]} is "
                            f"{err:.4f} off the truth {prep.expected_rgm:.4f}")
    return problems, worst


def check_pass(workload, prepared, pas: Pass, pass_dir: Path, ref: dict,
               tally: Tally) -> list:
    """Fold one pass into the tally and return its problems. `ref` maps
    output paths to reference digests; outputs not in it yet are added."""
    found = []
    for prep in prepared:
        problems, worst = _case_problems(prep, pas, pass_dir, ref)
        tally.attempted += prep.n_areas
        tally.areas += prep.n_areas
        if problems:
            tally.failed += prep.n_areas
            tally.areas_failed += prep.n_areas
            found += problems
        if worst is not None:
            tally.rgm_abs_err = max(tally.rgm_abs_err, worst)
    if workload.cohort:
        problems = []
        if pas.codes["cohort"] != 0:
            problems.append(f"cohort exited {pas.codes['cohort']}")
        tables = {k: v for k, v in pas.outputs.items()
                  if k.startswith("cohort/")}
        if "cohort/cohort.csv" not in tables:
            problems.append("cohort wrote no cohort.csv")
        else:
            rows = (pass_dir / "cohort/cohort.csv").read_text().splitlines()
            if len(rows) != 1 + len(prepared):
                problems.append(f"cohort.csv has {len(rows) - 1} cases, "
                                f"expected {len(prepared)}")
        for out, digest in tables.items():
            if ref.setdefault(out, digest) != digest:
                problems.append(f"cohort: {out} differs from the reference")
        tally.attempted += 1
        if problems:
            tally.failed += 1
            found += problems
    return found


def measure(args, run_dir: Path) -> tuple[bool, Tally, dict, list]:
    """Import pvgap, start the speed probe and run the workload.

    Returns (correct, tally, metrics, summary lines).
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import pvgap.cli  # noqa: F401
    import workloads
    imported = (t0, time.perf_counter())
    from speed import SpeedProbe
    probe = SpeedProbe()
    probe.start()
    try:
        return _measure(args, run_dir, probe, imported,
                        workloads.WORKLOADS[args.workload])
    finally:
        probe.stop()


def _measure(args, run_dir, probe, imported, workload):
    import workloads
    from tracer import median_n
    inputs = []  # the set-up's input generation, SETUP_REPEATS times
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        prepared = [workloads.prepare(case, args.seed,
                                      run_dir / "inputs" / case.name)
                    for case in workload.cases]
        inputs.append((t, time.perf_counter()))
    stored = (WORK / "digests"
              / f"{args.workload}-s{args.seed}-{code_digest()}.json")
    earlier = stored.exists()
    ref = json.loads(stored.read_text(encoding="utf-8")) if earlier else {}
    tally, problems = Tally(), []

    def one_pass(index, tracer=None):
        pass_dir = run_dir / f"pass{index}"
        pas = run_pass(workload, prepared, pass_dir, tracer)
        problems.extend(check_pass(workload, prepared, pas, pass_dir, ref,
                                   tally))
        shutil.rmtree(pass_dir)
        return pas

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(one_pass(len(passes)))
    wall, n_wall = median_n(probe.scaled(*p.wall) for p in passes)
    quantify, n_quantify = median_n(probe.scaled(*w) for p in passes
                                    for w in p.quantify)
    import_s = probe.scaled(*imported)
    setup_s = import_s + statistics.median(probe.scaled(*w) for w in inputs)
    raw_wall = statistics.median(p.wall[1] - p.wall[0] for p in passes)
    snippet_ms = statistics.median(d for _s, _t, d in probe.samples) * 1e3
    lines = [
        f"wall_s {wall:.4f} s (median of {n_wall} passes; "
        f"unscaled {raw_wall:.4f} s)",
        f"quantify_s {quantify:.4f} s (median of {n_quantify} calls)",
        f"setup_s {setup_s:.4f} s (import {import_s:.4f} s + median of "
        f"{len(inputs)} input generations)",
        f"speed samples {len(probe.samples)}, median snippet "
        f"{snippet_ms:.4f} ms",
    ]

    if args.trace:
        import layers
        from tracer import Tracer, patched
        traced = []
        for i in range(2):
            tracer = Tracer()
            with patched(layers.replacements(tracer)):
                pas = one_pass(len(passes) + i, tracer)
            traced.append((pas, tracer, layers.layer_metrics(tracer)))
        first, second = traced[0][2], traced[1][2]
        for name in layers.COUNTS:
            if first[name] != second[name]:
                problems.append(f"count {name} differs between traced "
                                f"passes: {first[name]} vs {second[name]}")
        metrics = {}
        # self times scale like their pass's wall time, see speed.py
        factors = [probe.scaled(*t[0].wall) / (t[0].wall[1] - t[0].wall[0])
                   for t in traced]
        for name in layers.SECONDS:
            value = statistics.median(f * t[2][name]
                                      for f, t in zip(factors, traced))
            metrics[name] = {"value": value, "unit": "s"}
        for name in layers.COUNTS:
            unit = "ratio" if name.endswith("_ratio") else "count"
            metrics[name] = {"value": first[name], "unit": unit}
        traced_wall = statistics.median(probe.scaled(*t[0].wall)
                                        for t in traced)
        overhead = traced_wall - wall
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["unscaled.wall_s"] = {"value": raw_wall, "unit": "s"}
        metrics["speed.snippet_ms"] = {"value": snippet_ms, "unit": "ms"}
        lines.append(f"trace.overhead_s {overhead:.4f} s (median of 2 traced"
                     f" passes minus median of {n_wall} untraced)")
        WORK.mkdir(exist_ok=True)
        spans = [{"pass": i, "name": s.name, "start": s.start, "end": s.end,
                  "parent": s.parent, "case": s.case,
                  "counts": {k: v for k, v in s.counts.items() if k != "mask"}}
                 for i, (_pas, tracer, _m) in enumerate(traced)
                 for s in tracer.spans]
        spans_path = WORK / f"spans-{args.workload}-s{args.seed}.json"
        spans_path.write_text(json.dumps(spans) + "\n", encoding="utf-8")
        lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "quantify_s": {"value": quantify, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fail_frac = tally.areas_failed / tally.areas
    lines += [
        f"peak_rss_mb {peak:.1f} MB (whole process)",
        f"rgm_abs_err {tally.rgm_abs_err:.6f} (max over {len(prepared)} "
        f"cases at factor {LOW_FACTOR}; bound {RGM_BOUND})",
        f"area_fail_frac {fail_frac:.4f} ({tally.areas_failed} of "
        f"{tally.areas} area measurements failed)",
    ]
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
        metrics["rgm_abs_err"] = {"value": tally.rgm_abs_err, "unit": "ratio"}
        metrics["area_ok_frac"] = {"value": 1.0 - fail_frac, "unit": "ratio"}
    correct = not problems and tally.failed == 0
    if earlier:
        lines.append(f"outputs compared with {stored.relative_to(ROOT)}, "
                     "stored by an earlier run")
    elif correct:
        stored.parent.mkdir(parents=True, exist_ok=True)
        tmp = stored.with_suffix(".tmp")
        tmp.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
        tmp.replace(stored)
        lines.append(f"no earlier run of this seed and code: output digests "
                     f"stored in {stored.relative_to(ROOT)}")
    lines += [f"problem: {p}" for p in problems]
    return correct, tally, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_environment()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "pvgap").is_dir():
        print(f"perfbench: no pvgap sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        correct, tally, metrics, lines = measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env = environment()
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print("  " + line)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
