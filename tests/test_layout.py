"""Every public function, class and method of the package has a caller, and
every third-party module outside the package is a declared dependency.

A definition counts as used when its name appears in `src/`, `demos/` or
`perfbench/` outside its own definition: as a name, an attribute, or a
string constant (the benchmark's tracer wraps functions by name). Imports do
not count. Matching is by name alone, so a method shares its uses with every
same-named attribute; the check can miss dead code, never invent it.

Names that only the tests call are listed in ALLOWED with the reason they
stay.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prepromo"
SEARCHED = ("src", "demos", "perfbench")

ALLOWED: dict[str, str] = {}


def definitions():
    """(qualified name, bare name, path, first line, last line) of every
    public module-level function or class and every public method."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name, path, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield (f"{path.stem}.{node.name}.{item.name}", item.name,
                               path, item.lineno, item.end_lineno)


def references():
    """name -> [(path, line)] of every use in the searched trees."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and node.value.isidentifier()):
                    name = node.value
                else:
                    continue
                uses.setdefault(name, []).append((path, node.lineno))
    return uses


def unreferenced():
    uses = references()
    out = []
    for qualified, name, path, first, last in definitions():
        outside = [(p, line) for p, line in uses.get(name, [])
                   if p != path or not first <= line <= last]
        if not outside:
            out.append(qualified)
    return out


def test_every_public_definition_has_a_caller():
    dead = [name for name in unreferenced() if name not in ALLOWED]
    assert not dead, ("public definitions that nothing in src/, demos/ or "
                      f"perfbench/ uses: {dead}")


def test_allowlist_names_only_unreferenced_definitions():
    assert sorted(ALLOWED) == sorted(n for n in unreferenced() if n in ALLOWED)


def test_benchmark_probes_wrap_and_restore(monkeypatch):
    """The benchmark's tracer finds every function it wraps under its name,
    and closing it puts back the identical objects. A refactor that renames
    or moves a traced function fails here, in the fast suite."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    def current(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, full=True)
        probes = list(tracer._restore)
        assert probes
        for owner, attr, raw in probes:
            assert current(owner, attr) is not raw, f"{owner.__name__}.{attr} not wrapped"
    finally:
        tracer.close()
    for owner, attr, raw in probes:
        assert current(owner, attr) is raw, f"{owner.__name__}.{attr} not restored"


def test_imports_outside_the_package_are_declared_dependencies():
    """`pip install -e .[dev]` gives the tests, the benchmark and the demos
    every third-party module they import: each is named in `dependencies`
    or in the `dev` extra of pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"] + project["optional-dependencies"]["dev"]}
    trees = [ROOT / top for top in ("tests", "perfbench", "demos")]
    local = {PACKAGE.name} | {path.stem for tree in trees for path in tree.rglob("*.py")}
    imported = set()
    for tree in trees:
        for path in tree.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - local
    assert {"numpy", "pytest"} <= third_party
    assert not third_party - declared, f"undeclared: {sorted(third_party - declared)}"
