"""The public API stays no larger than what the package's callers use.

Every public top-level function and class of ``src/nctwist``, and every
public method of such a class, must be referenced outside its own
definition by the package itself, the demos, the benchmark, the README's
code (its backtick spans and fenced blocks; its prose does not count) or
the acceptance checklist.  A name that only other tests reach is either
deleted or routed into a report.  Methods are matched by attribute name
alone, so a method shares its references with every same-named one.

Generator images are read in batches from representations: outside
``algebra.py`` no module forms pi, pi o rho or a twisted commutator one
generator at a time.  pi o rho is formed in one place,
``TwistedGeometry.__post_init__`` (and the regularity check, which moves
coordinates through rho): nowhere else is ``rho.apply`` turned into a
coordinate map or handed to a representation.  Generators and generator
pairs are walked in one place, ``matlin.pair_max``: outside ``matlin.py``
no loop over ``range`` calls the kernel.

An algebra's generator rows and star matrix are formed in one place,
``Algebra.generator_rows`` and ``Algebra.star_matrix``, which build them once:
outside ``algebra.py`` nothing calls ``coord_rows`` on a ``generators()``
call or ``linear_map`` on a ``.star``.

J conjugates a representation in one place, ``FiniteGeometry.conjugated``,
which conjugates its stack once: outside it no ``.conjugate(...)`` call takes
a ``.stack``, an ``.images(...)`` result or a concatenation of them.  The
opposite action is read as images of the conjugated representation.

A twisted geometry's generator stacks are built once: outside ``twist.py``
no twisted geometry is rebuilt from another's ``rho`` around a new D, which
``TwistedGeometry.with_dirac`` does without building pi o rho or the stacks
again.
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


FENCED = re.compile(r"^```.*?^```", re.S | re.M)


def readme_code(text: str) -> str:
    """The fenced code blocks and the backtick spans of a README text."""
    prose = FENCED.sub("", text)
    return "\n".join(FENCED.findall(text) + re.findall(r"`([^`\n]+)`", prose))


def unreferenced() -> list[str]:
    # name -> the places that mention it
    places = defaultdict(set)
    for word in re.findall(r"\w+", readme_code((ROOT / "README.md").read_text())):
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
IMAGE_METHODS = {"pi", "rep", "twisted_rep"}
IMAGE_FUNCTIONS = {"display_twist_rep"}


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
    ``lean_generators(...)`` that calls a representation (``.pi``,
    ``.rep``, ``.twisted_rep`` or a local value such as ``rep0`` or a bound
    method) or ``display_twist_rep``.
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
    # Representation.images forms them, in batches
    assert per_element_images() == []


# -- pi o rho is formed in one place --------------------------------------

PI_RHO_BUILDERS = {"TwistedGeometry.__post_init__", "check_regular"}


def functions(tree: ast.Module):
    """``(qualified name, node)`` of each top-level function and method;
    other top-level statements are ``<module>``."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for m in stmt.body:
                if isinstance(m, ast.FunctionDef):
                    yield f"{stmt.name}.{m.name}", m
        elif isinstance(stmt, ast.FunctionDef):
            yield stmt.name, stmt
        else:
            yield "<module>", stmt


def is_rho_apply(node: ast.AST) -> bool:
    """``rho.apply`` or ``<...>.rho.apply``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "apply"
        and terminal_name(node.value) == "rho"
    )


def pi_rho_sites() -> list[str]:
    """``file.py:line function`` of every pi o rho formed outside its builders.

    That is ``linear_map`` called on ``rho.apply``, or a representation (as
    in ``per_element_images``) called on ``rho.apply(...)``.  Algebra-level
    uses of the twist, such as multiplying or twisting twisted elements
    again, are not representations and are not flagged.
    """
    found = []
    for path in CALLERS:
        tree = ast.parse(path.read_text(), filename=str(path))
        known = module_names(tree) | set(dir(builtins))
        for qualname, node in functions(tree):
            if qualname in PI_RHO_BUILDERS:
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                name = terminal_name(call)
                rep = (isinstance(call.func, ast.Name) and name not in known) or (
                    isinstance(call.func, ast.Attribute) and name in IMAGE_METHODS
                )
                coordinate_map = name == "linear_map" and any(
                    is_rho_apply(a) for a in call.args
                )
                image = rep and any(
                    isinstance(a, ast.Call) and is_rho_apply(a.func) for a in call.args
                )
                if coordinate_map or image:
                    found.append((path.name, call.lineno, qualname))
    return [f"{m}:{line} {where}" for m, line, where in sorted(found)]


def test_pi_rho_is_formed_in_one_place():
    # TwistedGeometry builds twisted_rep once; everything else reads it
    assert pi_rho_sites() == []


# -- generator pairs are walked in one place -----------------------------

KERNEL_NAME = re.compile(r"pair_\w+|\w+_max")


def kernels() -> set[str]:
    """The pair walks: functions of ``matlin.py`` named ``pair_*`` or ``*_max``.

    They are read from the module so that a renamed kernel is still seen.
    """
    matlin = ast.parse((PACKAGE / "matlin.py").read_text())
    return {
        f.name
        for f in matlin.body
        if isinstance(f, ast.FunctionDef) and KERNEL_NAME.fullmatch(f.name)
    }


def kernel_callers(tree: ast.Module, found: set[str]) -> set[str]:
    """The kernels ``found`` and every function of ``tree`` that reaches one."""
    found = set(found)
    funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    grew = True
    while grew:
        grew = False
        for func in funcs:
            if func.name not in found and any(
                isinstance(call, ast.Call) and terminal_name(call) in found
                for call in ast.walk(func)
            ):
                found.add(func.name)
                grew = True
    return found


def over_range(node: ast.AST) -> bool:
    """A ``for`` statement or a comprehension with a loop over ``range(...)``."""
    if isinstance(node, ast.For):
        loops = [node]
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        loops = node.generators
    else:
        return False
    return any(
        isinstance(loop.iter, ast.Call) and terminal_name(loop.iter) == "range"
        for loop in loops
    )


def pair_loops() -> list[str]:
    """``module.py:lines callee`` of every range loop that calls a kernel, sorted.

    A kernel is a pair walk of ``matlin.py`` (``pair_max``, ``pair_residual``),
    called directly or through a function of the same module that calls one.
    ``matlin.py`` is exempt: ``pair_max`` is the walk.
    """
    found, walks = [], kernels()
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == "matlin.py":
            continue
        tree = ast.parse(module.read_text(), filename=str(module))
        callers = kernel_callers(tree, walks)
        for loop in ast.walk(tree):
            if not over_range(loop):
                continue
            for call in ast.walk(loop):
                if isinstance(call, ast.Call) and terminal_name(call) in callers:
                    lines = f"{loop.lineno}"
                    if loop.end_lineno != loop.lineno:
                        lines += f"-{loop.end_lineno}"
                    found.append((module.name, loop.lineno, lines, terminal_name(call)))
                    break
    return [f"{m}:{lines} {callee}" for m, _, lines, callee in sorted(found)]


def test_generator_pairs_are_walked_in_one_place():
    # matlin.pair_max is the one loop over generators and generator pairs
    assert pair_loops() == []


# -- J conjugates a representation in one place ---------------------------

CONJUGATOR = "FiniteGeometry.conjugated"
JOINS = {"concatenate", "stack", "vstack"}


def is_image_operand(node: ast.AST) -> bool:
    """A ``.stack``, an ``.images(...)`` result, or a concatenation of them."""
    if isinstance(node, ast.Attribute):
        return node.attr == "stack"
    if not isinstance(node, ast.Call):
        return False
    name = terminal_name(node)
    if name == "images":
        return True
    if name not in JOINS:
        return False
    parts = [e for a in node.args for e in getattr(a, "elts", [a])]
    return any(is_image_operand(p) for p in parts)


def stack_conjugations(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, function)`` of every ``.conjugate(...)`` call on an image
    operand in ``tree``, outside ``FiniteGeometry.conjugated``."""
    found = []
    for qualname, node in functions(tree):
        if qualname == CONJUGATOR:
            continue
        for call in ast.walk(node):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "conjugate"
                and any(is_image_operand(a) for a in call.args)
            ):
                found.append((call.lineno, qualname))
    return found


def stack_conjugation_sites() -> list[str]:
    """``file.py:line function`` of every stack or image batch that J conjugates
    outside ``FiniteGeometry.conjugated``."""
    found = []
    for path in CALLERS:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, line, q) for line, q in stack_conjugations(tree)]
    return [f"{m}:{line} {where}" for m, line, where in sorted(found)]


def test_stack_conjugations_are_seen():
    tree = ast.parse(
        "class FiniteGeometry:\n"
        "    def conjugated(self, rep):\n"
        "        return self.real_structure.conjugate(rep.stack)\n"
        "    def image_stacks(self, twisted, cs):\n"
        "        j, pi = self.real_structure, self.rep\n"
        "        return j.conjugate(np.concatenate([pi.images(cs), twisted.images(cs)]))\n"
        "def f(j, pi, cs, a_mat):\n"
        "    return j.conjugate(pi.images(cs)), j.conjugate(pi.stack), j.conjugate(a_mat)\n"
    )
    assert stack_conjugations(tree) == [(6, "FiniteGeometry.image_stacks"), (8, "f"), (8, "f")]


def test_j_conjugates_representations_in_one_place():
    # everything else reads images of FiniteGeometry.conjugated
    assert stack_conjugation_sites() == []


# -- a twisted geometry's generator stacks are built once ------------------


def new_dirac(node: ast.AST) -> bool:
    """A ``with_dirac(...)`` call, or a ``replace(...)`` call that sets ``dirac``."""
    if not isinstance(node, ast.Call):
        return False
    name = terminal_name(node)
    return name == "with_dirac" or (
        name == "replace" and any(k.arg == "dirac" for k in node.keywords)
    )


def rebuilt_twist_sites() -> list[str]:
    """``file.py:line function`` of every twisted geometry rebuilt around a new D.

    That is a ``TwistedGeometry`` call whose rho is ``<...>.rho`` and whose
    geometry is a ``new_dirac`` call or a name that the file binds to one.
    ``twist.py`` is exempt: ``TwistedGeometry.with_dirac`` lives there.
    """
    found = []
    for path in CALLERS:
        if path == PACKAGE / "twist.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        rebuilt = {
            target.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and new_dirac(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for qualname, node in functions(tree):
            for call in ast.walk(node):
                if not (isinstance(call, ast.Call) and terminal_name(call) == "TwistedGeometry"):
                    continue
                args = dict(zip(("geometry", "rho"), call.args))
                args.update((k.arg, k.value) for k in call.keywords)
                geom, rho = args.get("geometry"), args.get("rho")
                from_rho = isinstance(rho, ast.Attribute) and rho.attr == "rho"
                moved = new_dirac(geom) or (
                    isinstance(geom, ast.Name) and geom.id in rebuilt
                )
                if from_rho and moved:
                    found.append((path.name, call.lineno, qualname))
    return [f"{m}:{line} {where}" for m, line, where in sorted(found)]


def test_a_new_dirac_operator_keeps_the_twisted_build():
    # TwistedGeometry.with_dirac shares pi o rho and the generator stacks
    assert rebuilt_twist_sites() == []


# -- generator rows and the star matrix are formed in one place -------------


def coordinate_table_calls(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, function)`` of every ``coord_rows(...generators())`` and
    ``linear_map(<...>.star)`` call in ``tree``."""
    found = []
    for qualname, node in functions(tree):
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            name = terminal_name(call)
            rows = name == "coord_rows" and any(
                isinstance(a, ast.Call) and terminal_name(a) == "generators"
                for a in call.args
            )
            star = name == "linear_map" and any(
                isinstance(a, ast.Attribute) and a.attr == "star" for a in call.args
            )
            if rows or star:
                found.append((call.lineno, qualname))
    return found


def coordinate_table_sites() -> list[str]:
    """``file.py:line function`` of every generator-row or star-matrix build
    outside ``algebra.py``, where the algebra builds both once."""
    found = []
    for path in CALLERS:
        if path == PACKAGE / "algebra.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, line, q) for line, q in coordinate_table_calls(tree)]
    return [f"{m}:{line} {where}" for m, line, where in sorted(found)]


def test_coordinate_table_calls_are_seen():
    tree = ast.parse(
        "def f(alg):\n"
        "    cg = alg.coord_rows(alg.generators())\n"
        "    return cg @ alg.linear_map(alg.star)\n"
    )
    assert coordinate_table_calls(tree) == [(2, "f"), (3, "f")]


def test_generator_rows_and_the_star_matrix_are_formed_in_one_place():
    # everything else reads Algebra.generator_rows and Algebra.star_matrix
    assert coordinate_table_sites() == []
