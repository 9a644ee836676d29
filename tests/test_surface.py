"""The public surface: every public module-level function or class of
``splitlab`` has a caller in the package or the bench, so none exists
only for its tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "splitlab"

# Public names that may go unnamed outside their definition, with why.
ALLOWED = {
    "harness.epoch_attack_curve": "ROADMAP direction 2(iii) gives it a caller",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _lines_outside_all(source: str) -> list[str]:
    """The source's lines without those of any ``__all__`` assignment."""
    lines = source.splitlines()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            lines[node.lineno - 1 : node.end_lineno] = [""] * (
                node.end_lineno - node.lineno + 1)
    return lines


def test_every_public_name_has_a_caller():
    files = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    texts = {path: _lines_outside_all(path.read_text()) for path in files}
    unnamed = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                continue
            word = re.compile(rf"\b{node.name}\b")
            named = any(word.search(line)
                        for other, lines in texts.items()
                        for lineno, line in enumerate(lines, 1)
                        if not (other == path and lineno == node.lineno))
            if not named:
                unnamed.append(f"{_module_name(path)}.{node.name}")
    assert sorted(unnamed) == sorted(ALLOWED)
