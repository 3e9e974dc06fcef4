"""Every package module uses each name it imports, and the method's layers
import only downward.

Names in annotations count: `from __future__ import annotations` defers
their evaluation, but they still parse as expressions.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pvgap"


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0]
                         for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_the_scan_sees_names_in_code_and_annotations():
    assert _unused_imports(
        "from __future__ import annotations\n"
        "import numpy as np\nimport os.path\nfrom a import B, C as D, E\n"
        "def f(x: B) -> D:\n    return np.zeros(os.path.sep)\n") == ["E"]


def test_every_module_uses_its_imports():
    unused = {p.name: _unused_imports(p.read_text(encoding="utf-8"))
              for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    assert {k: v for k, v in unused.items() if v} == {}


# module -> the package modules it may not import: the mesh layer sits on
# `errors` alone; search areas, scar and the kernel know nothing of the
# patch graph, phantoms, cohorts, sweeps or the command line; the patch
# graph and the kernel know nothing of search areas or sweeps; a sweep
# reaches the kernel only through the patch graph; and the cohort tables
# read reports, never the method that wrote them
MODULES = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
ABOVE_AREAS = {"gaps", "synth", "cohort", "sweep", "cli"}
BELOW = {"mesh": MODULES - {"mesh", "errors"},
         "regions": ABOVE_AREAS, "scar": ABOVE_AREAS,
         "geodesics": ABOVE_AREAS | {"regions", "sweep"},
         "gaps": {"regions", "sweep"}, "sweep": {"geodesics"},
         "cohort": {"geodesics", "gaps", "scar", "synth", "sweep", "cli"}}


def _package_imports(source: str) -> set:
    """The pvgap modules that source imports, relatively or by name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names
                    if a.name.startswith("pvgap.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "pvgap" and not module.startswith("pvgap."):
                    continue
                module = module.partition(".")[2]
            if module:
                out.add(module.partition(".")[0])
            else:  # from . import x
                out |= {a.name for a in node.names}
    return out


def test_the_layer_scan_sees_every_form_of_package_import():
    assert _package_imports(
        "import numpy\nimport pvgap.mesh\nfrom .gaps import a\n"
        "from . import regions\nfrom pvgap import sweep\n"
        "from pvgap.scar import b\nfrom numpy import c\n") == {
            "mesh", "gaps", "regions", "sweep", "scar"}


def test_layers_import_only_downward():
    found = {name: _package_imports((SRC / f"{name}.py").read_text(
        encoding="utf-8")) & banned for name, banned in BELOW.items()}
    assert {k: v for k, v in found.items() if v} == {}
