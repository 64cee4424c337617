"""The public API stays no larger than what the package's callers use.

Every public top-level function and class of ``src/nctwist``, and every
public method of such a class, must be referenced outside its own
definition by the package itself, the demos, the benchmark, the README or
the acceptance checklist.  A name that only other tests reach is either
deleted or routed into a report.  Methods are matched by attribute name
alone, so a method shares its references with every same-named one.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nctwist"
CALLERS = (
    sorted((ROOT / "src").rglob("*.py"))
    + sorted((ROOT / "demos").glob("*.py"))
    + sorted((ROOT / "perfbench").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
)
DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def names_in(node: ast.AST) -> set[str]:
    """Names a statement reads, imports or lists as a string path.

    String constants count only when they are a name or dotted path, which
    is how the benchmark tracer names what it wraps; prose does not.
    """
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if DOTTED.fullmatch(sub.value):
                out.update(sub.value.split("."))
    return out


def statements(path: Path):
    """``(place, node)`` for each top-level statement and class-body member.

    A place is ``(path, i, j)``: statement ``i`` of the module and member
    ``j`` of its body when it is a class, else ``j = -1``.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    for i, stmt in enumerate(tree.body):
        if isinstance(stmt, ast.ClassDef):
            for node in stmt.bases + stmt.decorator_list:
                yield (path, i, -1), node
            for j, member in enumerate(stmt.body):
                yield (path, i, j), member
        else:
            yield (path, i, -1), stmt


def unreferenced() -> list[str]:
    # name -> the places that mention it
    places = defaultdict(set)
    for word in re.findall(r"\w+", (ROOT / "README.md").read_text()):
        places[word].add(("README.md", 0, -1))
    for path in CALLERS:
        for place, node in statements(path):
            for name in names_in(node):
                places[name].add(place)
    missing = []
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        for i, stmt in enumerate(tree.body):
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            # (qualified name, the place prefix of its own definition)
            defs = [(stmt.name, (module, i))]
            if isinstance(stmt, ast.ClassDef):
                defs += [
                    (f"{stmt.name}.{m.name}", (module, i, j))
                    for j, m in enumerate(stmt.body)
                    if isinstance(m, ast.FunctionDef)
                ]
            for qualname, own in defs:
                name = qualname.rsplit(".", 1)[-1]
                outside = [p for p in places[name] if p[: len(own)] != own]
                if not name.startswith("_") and not outside:
                    missing.append(f"{module.stem}.{qualname}")
    return missing


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unreferenced() == []
