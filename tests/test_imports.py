"""Every package module uses each name it imports.

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
