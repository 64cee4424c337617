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
generator at a time.  rho on coordinates, R, is formed in one place,
``twist._coordinate_tables``, which ``TwistedGeometry.__post_init__`` reads
to build pi o rho and the regularity check reads to move coordinates:
nowhere else is ``rho.apply`` turned into a coordinate map or handed to a
representation.  Generators and generator
pairs are walked in one place, ``matlin.pair_max``: outside ``matlin.py``
no loop over ``range`` calls the kernel.  Sparse entries have one format,
``matlin.PairCoords``: outside it nothing splits keys into indices
(``divmod``, ``unravel_index``) or groups them (``distinct``), and no name
of the retired tuple form is left.  ``Algebra.products``' ``packed``
numbers (matrix, line) pairs, which are not entry keys, and may.

An algebra's generator rows and star matrix are formed in one place,
``Algebra.generator_rows`` and ``Algebra.star_matrix``, which build them once:
outside ``algebra.py`` nothing calls ``coord_rows`` on a ``generators()``
call or ``linear_map`` on a ``.star``.  The rows the pair checks walk are
selected in one place, ``Algebra.pair_rows``: nothing else subscripts
``generator_rows``.  ``mintwist._implementing_unitary`` (which splits the
complexification) reads all of ``generator_rows`` or ``generator_images``,
and no pair rows.  ``fluct.one_form_basis`` (a real span) reads the kept
pair ``stacks`` and neither ``generator_rows`` nor ``generator_images``:
the ``i`` multiples it adds stand in for the dropped rows.

J conjugates a representation in one place, ``FiniteGeometry.conjugated``,
which conjugates its stack once: outside it no ``.conjugate(...)`` call takes
a ``.stack``, an ``.images(...)`` result or a concatenation of them.  The
opposite action is read as images of the conjugated representation.

A twisted geometry's generator stacks are built once: outside ``twist.py``
no twisted geometry is rebuilt from another's ``rho`` around a new D, which
``TwistedGeometry.with_dirac`` does without building pi o rho or the stacks
again.

A verdict is decided in one place, ``report.py``: outside it nothing in
``src/nctwist`` names ``CheckRecord``, assigns or deletes a ``.passed``,
passes a ``passed=`` keyword or sets ``"passed"`` through ``setattr``.  A
verifier hands ``Report`` a residual and a bound, never a boolean.

The sign triple is measured for a report in one place,
``twist.measured_signs``, which fails an undecided sign on the report for
``twist.record_signs`` (``verify_twisted`` and the twisted standard model)
and for the fluctuation reports: in ``src/nctwist`` nothing else calls
``measure_ko_signs`` but ``fluct.py``, whose ``fluctuate`` reads eps' to
form D_A.

A table kept by value for the whole process (a module-level empty dict, or
a function under ``lru_cache``) keys its arrays by their exact bytes or
their blake2b digests, never by the builtin ``hash`` or ``id``: no code that
builds a key of one, followed through the package functions it calls,
calls either.  The keys of the dict tables, once verifications fill them,
hold only bytes, integers, None, tolerances and algebras.

The package reads no environment variable: nothing in ``src/nctwist``
names ``os.environ``, ``os.environb`` or ``getenv``, so a tolerance is set by
``--tol`` or the default and by nothing else.

No option without a caller: every parameter with a default, of a public
function or method or of a public class's ``__init__``, is passed, by
keyword or by position, by some call in the package, the demos, the
benchmark or the acceptance checklist.  An
option that no caller sets is a constant.  Calls are matched by the name
they call (``cls(...)`` inside a class calls that class), so a parameter
shares its callers with every same-named function.  ``tol`` is exempt:
every verifier takes one.
"""

import ast
import builtins
import re
from collections import defaultdict
from pathlib import Path

import numpy as np

from nctwist import mintwist, twist
from nctwist.algebra import Algebra
from nctwist.matlin import Tolerance
from nctwist.mintwist import twist_by_grading
from nctwist.samples import flip_toy, random_matrix_geometry
from nctwist.twist import Automorphism, TwistedGeometry, verify_twisted

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

PI_RHO_BUILDERS = {"_coordinate_tables"}


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


# -- sparse entries have one format ---------------------------------------

ENTRY_TYPE = "PairCoords"
# the packed lines of ``Algebra.products``: (matrix, line) pairs, not entry keys
NOT_ENTRY_KEYS = "packed"
KEY_SPLITS = {"divmod", "unravel_index", "distinct"}
GONE = {"of_entries", "_sorted_by", "_JOIN_OVERHEAD"}


def key_splits(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, callee)`` of every call in ``tree`` that splits keys into
    indices or groups them (``KEY_SPLITS``), outside the entry type and
    ``NOT_ENTRY_KEYS``."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == ENTRY_TYPE or (
            isinstance(node, ast.FunctionDef) and node.name == NOT_ENTRY_KEYS
        ):
            skipped.update(map(id, ast.walk(node)))
    return sorted(
        (call.lineno, terminal_name(call))
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and id(call) not in skipped
        and terminal_name(call) in KEY_SPLITS
    )


def entry_format_sites() -> list[str]:
    """``module.py:line name`` of every key split outside ``matlin.PairCoords``
    and of every use of a name of the retired tuple form."""
    found = []
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        found += [(module.name, line, name) for line, name in key_splits(tree)]
        for node in ast.walk(tree):
            name = node.name if isinstance(node, ast.FunctionDef) else terminal_name(node)
            if name in GONE:
                found.append((module.name, node.lineno, name))
    return [f"{m}:{line} {name}" for m, line, name in sorted(found)]


def test_key_splits_are_seen():
    tree = ast.parse(
        "class PairCoords:\n"
        "    def index(self):\n"
        "        return np.unravel_index(self.key, self.shape)\n"
        "class Operand:\n"
        "    def entries(self):\n"
        "        k, rc = np.divmod(key, n * n)\n"
        "def f(key):\n"
        "    return distinct(key), divmod(key, 3), unravel_index(key, (2, 2))\n"
        "def products(c):\n"
        "    def packed(c):\n"
        "        return divmod(distinct(c)[0], 3)\n"
        "    return divmod(c, 2)\n"
    )
    assert key_splits(tree) == [
        (6, "divmod"), (8, "distinct"), (8, "divmod"), (8, "unravel_index"), (12, "divmod")
    ]


def test_sparse_entries_have_one_format_in_one_place():
    # keys become indices only inside matlin.PairCoords, and the tuple form is gone
    assert entry_format_sites() == []


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


def pair_row_selections(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, function)`` of every subscript of ``generator_rows`` in ``tree``,
    directly or through a local name bound to it: a selection of rows."""
    found = []
    for qualname, node in functions(tree):
        bound = {
            t.id
            for a in ast.walk(node)
            if isinstance(a, ast.Assign) and terminal_name(a.value) == "generator_rows"
            for t in a.targets
            if isinstance(t, ast.Name)
        }
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Subscript):
                continue
            value = sub.value
            if terminal_name(value) == "generator_rows" or (
                isinstance(value, ast.Name) and value.id in bound
            ):
                found.append((sub.lineno, qualname))
    return found


def pair_row_sites() -> list[str]:
    """``file.py:line function`` of every selection of generator rows but
    ``Algebra.pair_rows``, which forms the rows the pair checks walk."""
    found = []
    for path in CALLERS:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            (path.name, line, q)
            for line, q in pair_row_selections(tree)
            if (path.name, q) != ("algebra.py", "Algebra.pair_rows")
        ]
    return [f"{m}:{line} {where}" for m, line, where in sorted(found)]


def names_read(module: str, qualname: str) -> set[str]:
    """The names and attributes that function ``qualname`` of ``module`` reads."""
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    (node,) = [n for q, n in functions(tree) if q == qualname]
    return {terminal_name(a) for a in ast.walk(node) if isinstance(a, (ast.Name, ast.Attribute))}


def test_pair_row_selections_are_seen():
    tree = ast.parse(
        "def f(alg, keep):\n"
        "    rows = alg.generator_rows\n"
        "    return rows[keep], alg.generator_rows[::2], alg.generator_rows @ alg.star_matrix\n"
    )
    assert pair_row_selections(tree) == [(3, "f"), (3, "f")]


def test_generator_rows_and_the_star_matrix_are_formed_in_one_place():
    # everything else reads Algebra.generator_rows and Algebra.star_matrix
    assert coordinate_table_sites() == []
    # and the rows the pair checks walk, Algebra.pair_rows
    assert pair_row_sites() == []
    # what splits the complexification reads every row
    read = names_read("mintwist.py", "_implementing_unitary")
    assert read & {"generator_images", "generator_rows"}
    assert not read & {"pair_images", "pair_rows", "stacks"}
    # the real span reads the kept pair stacks and forms no full-row images
    read = names_read("fluct.py", "one_form_basis")
    assert "stacks" in read
    assert not read & {"generator_images", "generator_rows", "images", "image_operand"}


# -- report.py alone decides a verdict -------------------------------------


def verdict_sites(tree: ast.Module) -> list[int]:
    """Lines of ``tree`` that name ``CheckRecord`` or set a ``passed``."""
    found = set()
    for node in ast.walk(tree):
        named = (
            (isinstance(node, ast.Name) and node.id == "CheckRecord")
            or (isinstance(node, ast.Attribute) and node.attr == "CheckRecord")
            or (isinstance(node, ast.alias) and node.name.endswith("CheckRecord"))
        )
        sets = (
            (
                isinstance(node, ast.Attribute)
                and node.attr == "passed"
                and isinstance(node.ctx, (ast.Store, ast.Del))
            )
            or (isinstance(node, ast.keyword) and node.arg == "passed")
            or (
                isinstance(node, ast.Call)
                and terminal_name(node.func) == "setattr"
                and any(isinstance(a, ast.Constant) and a.value == "passed" for a in node.args)
            )
        )
        if named or sets:
            found.add(node.lineno)
    return sorted(found)


def test_verdict_sites_are_seen():
    tree = ast.parse(
        "from .report import CheckRecord as Rec, Report\n"
        "def f(rep, rec, report):\n"
        "    rec.passed = rec.residual < 1.0\n"
        "    rep.records[0].passed &= False\n"
        "    rep.records.append(report.CheckRecord('x', True, 0.0, 1.0))\n"
        "    setattr(rec, 'passed', False)\n"
        "    rep.merge(replace(rec, passed=True))\n"
        "    for rec.passed in (True,): pass\n"
        "    return rec.passed, rep.add('y', 0.0, 1.0).passed, rep.check(rec.name, 0.0, tol)\n"
    )
    assert verdict_sites(tree) == [1, 3, 4, 5, 6, 7, 8]


def test_only_the_report_module_decides_a_verdict():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "report.py"
        for line in verdict_sites(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


# -- the sign triple is recorded in one place ------------------------------

SIGN_RECORDER = ("twist.py", "measured_signs")
SIGN_READERS = {"fluct.py"}  # eps' of D_A = D + A + eps' J A J^-1


def sign_measurements(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, function)`` of every ``measure_ko_signs`` call in ``tree``."""
    return [
        (call.lineno, qualname)
        for qualname, node in functions(tree)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and terminal_name(call) == "measure_ko_signs"
    ]


def test_sign_measurements_are_seen():
    tree = ast.parse(
        "def record_signs(rep, name, g, tol):\n"
        "    signs = measure_ko_signs(g, tol)\n"
        "class Model:\n"
        "    def signs(self, tol):\n"
        "        return triple.measure_ko_signs(self.geometry, tol).as_tuple()\n"
        "EPS = measure_ko_signs(toy()).eps\n"
        "def measured(g):\n"
        "    return [s for s in measure_ko_signs(g).as_tuple()]\n"
    )
    assert sign_measurements(tree) == [
        (2, "record_signs"), (5, "Model.signs"), (6, "<module>"), (8, "measured")
    ]


def test_the_sign_triple_is_recorded_in_one_place():
    found = [
        f"{path.name}:{line} {where}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in SIGN_READERS
        for line, where in sign_measurements(ast.parse(path.read_text(), filename=str(path)))
        if (path.name, where) != SIGN_RECORDER
    ]
    assert found == []


# -- tables kept by value key their arrays by bytes or digests -------------

VALUE_TABLES = {
    "algebra.py": {"_first_equal"},
    "mintwist.py": {"_UNITARIES"},
    "twist.py": {"_TABLES", "_VERDICTS"},
}
IDENTITY_KEYS = {"hash", "id"}
KEY_READS = {"pop", "get", "setdefault"}
# what a key of a dict table may hold, through tuples: array parts as exact
# bytes or digests, and values hashed by value
KEY_LEAVES = (bytes, int, type(None), Tolerance, Algebra)


def value_tables(tree: ast.Module) -> set[str]:
    """The module-level tables of ``tree``: names bound to an empty dict, and
    functions under ``lru_cache`` or ``cache``, keyed by their arguments."""
    found = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            if any(terminal_name(d) in {"lru_cache", "cache"} for d in stmt.decorator_list):
                found.add(stmt.name)
            continue
        value = getattr(stmt, "value", None)
        empty = (isinstance(value, ast.Dict) and not value.keys) or (
            isinstance(value, ast.Call) and terminal_name(value) == "dict" and not value.args
        )
        targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
        if empty:
            found |= {t.id for t in targets if isinstance(t, ast.Name)}
    return found


def key_expressions(tree: ast.Module, tables: set[str]) -> list[ast.AST]:
    """Every expression of ``tree`` that keys one of ``tables``: ``T[k]``,
    ``T.pop(k)`` (``get``, ``setdefault``), ``k in T``, ``kept(T, k, ...)``
    and the arguments of a call to a cached function, with every value
    assigned, in the same function, to a name used as a key."""
    found = []
    for _, node in functions(tree):
        keys = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Subscript) and terminal_name(sub.value) in tables:
                keys.append(sub.slice)
            elif isinstance(sub, ast.Compare) and any(
                terminal_name(c) in tables for c in sub.comparators
            ):
                keys.append(sub.left)
            elif isinstance(sub, ast.Call):
                func, name = sub.func, terminal_name(sub)
                if name in KEY_READS and isinstance(func, ast.Attribute) and sub.args:
                    if terminal_name(func.value) in tables:
                        keys.append(sub.args[0])
                elif name == "kept" and len(sub.args) > 1 and terminal_name(sub.args[0]) in tables:
                    keys.append(sub.args[1])
                elif name in tables:
                    keys += sub.args
        names = {k.id for k in keys if isinstance(k, ast.Name)}
        keys += [
            a.value
            for a in ast.walk(node)
            if isinstance(a, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id in names for t in a.targets)
        ]
        found += keys
    return found


def identity_keys(trees: dict[str, ast.Module]) -> list[tuple[str, int]]:
    """``(module, line)`` of every call of the builtin ``hash`` or ``id`` in
    code that keys a value table: its key expressions and, transitively, the
    body of every function or method of ``trees`` that such code calls or
    reads as an attribute (matched by name)."""
    defs = defaultdict(list)
    for module, tree in trees.items():
        for qualname, node in functions(tree):
            if qualname != "<module>":
                defs[qualname.rsplit(".", 1)[-1]].append((module, node))
    todo = [
        (module, key)
        for module, tree in trees.items()
        for key in key_expressions(tree, value_tables(tree))
    ]
    seen, found = set(), set()
    while todo:
        module, node = todo.pop()
        for sub in ast.walk(node):
            if not isinstance(sub, (ast.Call, ast.Attribute)):
                continue
            name = terminal_name(sub)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and name in IDENTITY_KEYS:
                found.add((module, sub.lineno))
            for place in defs.get(name, ()):
                if id(place[1]) not in seen:
                    seen.add(id(place[1]))
                    todo.append(place)
    return sorted(found)


def test_identity_keys_are_seen():
    tree = ast.parse(
        "_T: dict = {}\n"
        "_U = dict()\n"
        "def part(x):\n"
        "    return hash(x.tobytes())\n"
        "def read(x, tol):\n"
        "    key = (id(x), part(x), tol)\n"
        "    return _T.pop(key, None)\n"
        "@lru_cache(maxsize=4)\n"
        "def first(alg):\n"
        "    return alg\n"
        "def store(x):\n"
        "    kept(_U, first(hash(x)), x, 4)\n"
        "    return x in _U or _T[x.tobytes()]\n"
        "def unrelated(xs):\n"
        "    return {id(s): s for s in xs}\n"
    )
    assert value_tables(tree) == {"_T", "_U", "first"}
    assert identity_keys({"m.py": tree}) == [("m.py", 4), ("m.py", 6), ("m.py", 12)]


def test_value_tables_key_their_arrays_by_bytes_or_digests():
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    tables = {name: value_tables(tree) for name, tree in trees.items()}
    assert {name: found for name, found in tables.items() if found} == VALUE_TABLES
    assert identity_keys(trees) == []


def key_leaves(key) -> list:
    """The parts of a key, through tuples."""
    if isinstance(key, tuple):
        return [leaf for part in key for leaf in key_leaves(part)]
    return [key]


def test_kept_keys_hold_bytes_and_values_only():
    # every dict table, filled by verifications whose keys read arrays
    tg = twist_by_grading(random_matrix_geometry(np.random.default_rng(0), 3))
    inner = (np.eye(2), None, np.eye(2), None)
    for t in (flip_toy(), tg, TwistedGeometry(tg.geometry, Automorphism(tg.rho.perm, inner))):
        verify_twisted(t)
    for table in (twist._TABLES, twist._VERDICTS, mintwist._UNITARIES):
        leaves = [key_leaves(key) for key in table]
        assert all(isinstance(leaf, KEY_LEAVES) for key in leaves for leaf in key), leaves
        # some key holds an array, as its 32-byte digest
        assert any(isinstance(leaf, bytes) and len(leaf) == 32 for key in leaves for leaf in key)


# -- the package reads no environment variable -----------------------------

ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree: ast.Module) -> list[int]:
    """Lines of ``tree`` that name the process environment or import a reader of it."""
    found = set()
    for node in ast.walk(tree):
        named = (
            (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT)
            or (isinstance(node, ast.Name) and node.id in ENVIRONMENT)
            or (
                isinstance(node, ast.ImportFrom)
                and any(a.name in ENVIRONMENT for a in node.names)
            )
        )
        if named:
            found.add(node.lineno)
    return sorted(found)


def test_environment_reads_are_seen():
    tree = ast.parse(
        "import os\n"
        "from os import getenv\n"
        "def f(args):\n"
        "    rel = os.environ.get('NCT_TOL')\n"
        "    return getenv('X') or args.environ_tol\n"
        "HOME = os.environ['HOME']\n"
    )
    assert environment_reads(tree) == [2, 4, 5, 6]


def test_the_package_reads_no_environment_variable():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in environment_reads(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


# -- no option without a caller --------------------------------------------

EXEMPT_OPTIONS = {"tol"}


def signature_options(func: ast.FunctionDef, method: bool) -> list[tuple[int | None, str]]:
    """``(position, name)`` of each defaulted parameter of ``func``.

    Positions count from the first argument a caller writes, past ``self`` or
    ``cls`` for a method that is not a staticmethod; keyword-only parameters
    have no position.
    """
    args = func.args.posonlyargs + func.args.args
    static = any(terminal_name(d) == "staticmethod" for d in func.decorator_list)
    skip = 1 if method and not static else 0
    first_default = len(args) - len(func.args.defaults)
    out = [(i - skip, a.arg) for i, a in enumerate(args) if i >= first_default]
    out += [
        (None, a.arg)
        for a, d in zip(func.args.kwonlyargs, func.args.kw_defaults)
        if d is not None
    ]
    return out


def defined_options(tree: ast.Module) -> list[tuple[str, str, int | None, str]]:
    """``(callee, qualified name, position, parameter)`` of every option of a module."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
            out += [(stmt.name, stmt.name, i, a) for i, a in signature_options(stmt, False)]
        if not isinstance(stmt, ast.ClassDef) or stmt.name.startswith("_"):
            continue
        for m in stmt.body:
            if not isinstance(m, ast.FunctionDef):
                continue
            if m.name == "__init__":
                callee = stmt.name
            elif m.name.startswith("_"):
                continue
            else:
                callee = m.name
            out += [
                (callee, f"{stmt.name}.{m.name}", i, a)
                for i, a in signature_options(m, True)
            ]
    return [o for o in out if o[3] not in EXEMPT_OPTIONS]


def passed_options(tree: ast.Module) -> dict[str, tuple[float, set[str]]]:
    """Callee name -> (most positional arguments, keywords) over the calls in ``tree``.

    A ``*args`` argument passes every position and a ``**kwargs`` every
    keyword, written as ``inf`` and ``"**"``.
    """
    calls = [(terminal_name(c), c) for c in ast.walk(tree) if isinstance(c, ast.Call)]
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            calls += [
                (cls.name, c)
                for c in ast.walk(cls)
                if isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id == "cls"
            ]
    out = defaultdict(lambda: (0, set()))
    for name, call in calls:
        most, keywords = out[name]
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        most = max(most, float("inf") if starred else len(call.args))
        keywords = keywords | {"**" if k.arg is None else k.arg for k in call.keywords}
        out[name] = (most, keywords)
    return out


def unset_options(defined, passed) -> list[str]:
    """``module.qualname(parameter)`` of every defined option no call passes."""
    missing = []
    for module, callee, qualname, position, param in defined:
        most, keywords = passed.get(callee, (0, set()))
        by_position = position is not None and position < most
        if not (by_position or param in keywords or "**" in keywords):
            missing.append(f"{module}.{qualname}({param})")
    return sorted(missing)


def options_without_a_caller() -> list[str]:
    passed = defaultdict(lambda: (0, set()))
    for path in CALLERS:
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, (most, keywords) in passed_options(tree).items():
            prior_most, prior_keywords = passed[name]
            passed[name] = (max(most, prior_most), prior_keywords | keywords)
    defined = [
        (module.stem, *option)
        for module in sorted(PACKAGE.glob("*.py"))
        for option in defined_options(ast.parse(module.read_text(), filename=str(module)))
    ]
    return unset_options(defined, passed)


def test_options_are_seen():
    tree = ast.parse(
        "class Rep:\n"
        "    def __init__(self, a, stack=None):\n"
        "        pass\n"
        "    @classmethod\n"
        "    def build(cls, a, placements=None):\n"
        "        return cls(a, placements)\n"
        "    def images(self, rows=None, *, tol=DEFAULT_TOL):\n"
        "        pass\n"
        "def draw(rng, tg, nterms=2, symmetric=True):\n"
        "    return Rep(rng)\n"
        "def _private(x=1):\n"
        "    pass\n"
    )
    defined = [("m", *option) for option in defined_options(tree)]
    assert defined == [
        ("m", "Rep", "Rep.__init__", 1, "stack"),
        ("m", "build", "Rep.build", 1, "placements"),
        ("m", "images", "Rep.images", 0, "rows"),
        ("m", "draw", "draw", 2, "nterms"),
        ("m", "draw", "draw", 3, "symmetric"),
    ]
    # cls(a, placements) passes Rep's stack by position; *rows passes every
    # position; draw's caller sets symmetric by keyword
    calls = ast.parse("r.images(*rows)\ndraw(rng, tg, symmetric=False)\n")
    passed = passed_options(tree)
    for name, (most, keywords) in passed_options(calls).items():
        passed[name] = (max(most, passed[name][0]), passed[name][1] | keywords)
    assert unset_options(defined, passed) == ["m.Rep.build(placements)", "m.draw(nterms)"]


def test_every_option_has_a_caller():
    # an option that no caller sets is a constant
    assert options_without_a_caller() == []
