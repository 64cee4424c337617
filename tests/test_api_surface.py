"""The public API stays no larger than what the package's callers use.

Every public top-level function and class of ``src/nctwist``, and every
public method of such a class, must be referenced outside its own
definition by the package itself, the demos, the benchmark, the README or
the acceptance checklist.  A name that only other tests reach is either
deleted or routed into a report.  Methods are matched by attribute name
alone, so a method shares its references with every same-named one.

Generator images are built in one place, ``TwistedGeometry.stacks``: outside
``algebra.py`` no module forms pi, pi o rho or a twisted commutator one
generator at a time.
"""

import ast
import builtins
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


# -- generator images are built in one place -----------------------------

GENERATOR_SETS = {"generators", "lean_generators"}
IMAGE_METHODS = {"pi", "pi_rho", "twisted_commutator", "rep"}
IMAGE_FUNCTIONS = {"display_twist_operator"}


def terminal_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def over_generators(comp: ast.AST) -> bool:
    """A comprehension with a loop over ``gens`` or a generator set."""
    for loop in comp.generators:
        it = loop.iter
        if isinstance(it, ast.Name) and it.id == "gens":
            return True
        if isinstance(it, ast.Call) and terminal_name(it) in GENERATOR_SETS:
            return True
    return False


def module_names(tree: ast.Module) -> set[str]:
    """Names a module binds at top level: its functions, classes and imports."""
    out = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            out.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            out.update((a.asname or a.name).split(".")[0] for a in stmt.names)
    return out


def per_element_images() -> list[str]:
    """``module.py:line callee`` of every per-element generator image, sorted.

    That is a comprehension over ``gens``, ``generators()`` or
    ``lean_generators(...)`` that calls ``.pi``, ``.pi_rho``,
    ``.twisted_commutator``, a representation (``.rep`` or a local value
    such as ``rep0`` or a bound method) or ``display_twist_operator``.
    ``algebra.py`` is exempt: it defines how a representation evaluates.
    """
    found = []
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == "algebra.py":
            continue
        tree = ast.parse(module.read_text(), filename=str(module))
        known = module_names(tree) | set(dir(builtins))
        comps = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        for comp in ast.walk(tree):
            if not isinstance(comp, comps) or not over_generators(comp):
                continue
            for call in ast.walk(comp):
                if not isinstance(call, ast.Call):
                    continue
                name = terminal_name(call)
                local = isinstance(call.func, ast.Name) and name not in known
                if (
                    local
                    or name in IMAGE_FUNCTIONS
                    or (isinstance(call.func, ast.Attribute) and name in IMAGE_METHODS)
                ):
                    found.append((module.name, comp.lineno, ast.unparse(call.func)))
                    break
    return [f"{m}:{line} {callee}" for m, line, callee in sorted(found)]


def test_generator_images_are_built_in_one_place():
    # TwistedGeometry.stacks is the one place that forms them, in batches
    assert per_element_images() == []
