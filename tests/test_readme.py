"""README's Python API section runs as written and names exactly the
exports, so the docs and `pvgap.__all__` cannot drift apart."""

import re
from pathlib import Path

import pvgap

README = Path(__file__).resolve().parents[1] / "README.md"


def _api_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]


def test_readme_python_example_runs_verbatim():
    code = re.search(r"```python\n(.*?)```", _api_section(), re.S)[1]
    exec(compile(code, str(README), "exec"), {})


def test_readme_lists_exactly_the_exported_names():
    # the bullet list that follows the mention of pvgap.__all__
    bullets = _api_section().split("(`pvgap.__all__`):", 1)[1] \
        .split("\n\n")[1]
    listed = re.findall(r"`(\w+)`", bullets)
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(pvgap.__all__)
    for name in listed:
        assert getattr(pvgap, name) is not None
