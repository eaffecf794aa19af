"""Every public function, class and method of the package has a caller.

A definition counts as used when its name appears in `src/`, `demos/` or
`perfbench/` outside its own definition: as a name, an attribute, or a
string constant (the benchmark's tracer wraps functions by name). Imports do
not count. Matching is by name alone, so a method shares its uses with every
same-named attribute; the check can miss dead code, never invent it.

Names that only the tests call are listed in ALLOWED with the reason they
stay.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prepromo"
SEARCHED = ("src", "demos", "perfbench")

ALLOWED = {
    "data.PromotionCalendar.day_of": "the test oracles place timestamps on the calendar with it",
}


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
