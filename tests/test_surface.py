"""Guard against dead surface in the package.

Every module-level function or class in ``src/pipecraft``, every method
other than a dunder, and every annotated class attribute (a dataclass or
NamedTuple field included) must be read by a program: in another place of
``src/pipecraft`` (``__init__.py`` re-exports do not count), in ``bench/`` or
in ``demos/``. A function or class is read where its name appears as a whole
word; a method or attribute only where it is read as an attribute
(``.name``), so a string that merely contains the word does not count. A
name that only tests read is a test helper living in production code; delete
it or move it into the tests.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pipecraft"

# Kept although no program names them, each for the reason given.
ALLOWED = {
    "HttpModelClient": "wire client for the remote operator models of ROADMAP item 4",
}


def _definitions(path: Path):
    """(name, reader pattern, first line, last line) of each module-level
    function and class, of each non-dunder method and of each annotated
    class attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name, rf"\b{re.escape(node.name)}\b", node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, kinds[:2]) and not (
                    child.name.startswith("__") and child.name.endswith("__")
                ):
                    name = child.name
                elif isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
                    name = child.target.id
                else:
                    continue
                yield name, rf"\.{re.escape(name)}\b", child.lineno, child.end_lineno


def _reader_files() -> list[Path]:
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    return sorted(modules) + sorted((ROOT / "bench").rglob("*.py")) + sorted(
        (ROOT / "demos").rglob("*.py")
    )


def unread() -> dict[str, str]:
    """Each definition no program names, mapped to where it is defined."""
    sources = {path: path.read_text(encoding="utf-8").splitlines() for path in _reader_files()}
    found = {}
    for module in sorted(PACKAGE.glob("*.py")):
        for name, pattern, first, last in _definitions(module):
            reader = re.compile(pattern)
            if not any(
                reader.search(line)
                for path, lines in sources.items()
                for number, line in enumerate(lines, start=1)
                if not (path == module and first <= number <= last)
            ):
                found[name] = f"{module.name}:{first}"
    return found


def test_every_definition_has_a_reader():
    dead = {name: where for name, where in unread().items() if name not in ALLOWED}
    assert dead == {}, "defined but named by no program"


def test_allowlist_holds_only_unread_definitions():
    assert set(ALLOWED) <= set(unread())



def compact_json_calls(path: Path) -> list[int]:
    """Lines of ``path`` that pass ``separators=(",", ":")`` to a call."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            for keyword in node.keywords if keyword.arg == "separators"
            and ast.unparse(keyword.value) == "(',', ':')"]


def test_compact_json_is_written_only_by_the_canonical_form():
    """``corpus.canonical_json`` is the package's one compact sorted JSON
    form, read by sample lines, the config digest and the model-reply memo;
    a second definition elsewhere could drift from it."""
    found = {path.name: compact_json_calls(path) for path in PACKAGE.glob("*.py")}
    assert len(found.pop("corpus.py")) == 1
    assert {name: lines for name, lines in found.items() if lines} == {}
