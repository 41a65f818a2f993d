"""The declared dependencies match what the package imports."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports():
    """Top-level name -> first file importing it, for every absolute
    import under ``src/repro`` that is neither stdlib nor the package."""
    found = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top == "repro" or top in sys.stdlib_module_names:
                    continue
                found.setdefault(top, str(path.relative_to(ROOT)))
    return found


def _declared():
    """Distribution names in ``[project].dependencies`` (every one of
    them is imported under its own name today)."""
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    )["project"]
    return {
        re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0].lower()
        for spec in project.get("dependencies", [])
    }


def test_every_third_party_import_is_declared():
    imported = _third_party_imports()
    assert imported, "the package imports no third-party module?"
    missing = {
        top: path
        for top, path in imported.items()
        if top.lower() not in _declared()
    }
    assert not missing, (
        f"imported but not declared in pyproject.toml: {missing}"
    )
