"""Every module-level function and class in `src/batecho` has a caller in
`src/`, every method and property of its classes is looked up as an
attribute in `src/`, and every name a module imports is used in that
module: alternative routes live in `tests/` as oracles, and a helper
that nothing calls, or an import that nothing reads, is deleted rather
than kept.  The exact half (`exact`, `treefun`, `ratfun`) and the float
half (`walk`, `gap`) import nothing from each other, and the modules that
`import batecho` and `batecho.cli` load (`__init__`, `cli`, `graphs`,
`errors` and the exact half) import neither numpy nor the float half
outside a function body."""
import ast
from collections import Counter
from pathlib import Path

import batecho

SRC = Path(batecho.__file__).parent

# Public entry points kept without a caller in src/, each for a reason.
KEPT = {
    "poles_to_eigenvalues",  # the paper's eigenvalue recovery; the README example
    "from_edge_list",        # the graph constructor
    "SampledReturnTimes",    # the sequential protocol perfbench and criterion 7 drive
    "estimate_pk",           # the same protocol's estimator
    "h_of_tree",             # one tree's h from its own walk; `certify_pair` reads
    "h_from_series",         # h and its series off the walks of a forged pair
}


def _definitions():
    """(module, node) for every module-level function and class, and the
    parsed modules, `__init__` left out."""
    trees = [(path.stem, ast.parse(path.read_text(), str(path)))
             for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    defs = [(name, node) for name, tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    return defs, [tree for _, tree in trees]


def _references(node) -> Counter:
    """How often each name is loaded or looked up as an attribute under
    `node`."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_module_level_definition_has_a_caller_in_src():
    defs, trees = _definitions()
    total = sum(map(_references, trees), Counter())
    unreferenced = [f"{module}.{node.name}" for module, node in defs
                    if node.name not in KEPT
                    and total[node.name] == _references(node)[node.name]]
    assert unreferenced == []


def test_kept_names_are_defined():
    defs, _ = _definitions()
    assert KEPT <= {node.name for _, node in defs}


def test_every_method_and_property_is_used_in_src():
    """A method counts as used when its name is looked up as an attribute
    anywhere in `src/`; dunder methods are called by the language."""
    defs, trees = _definitions()
    looked_up = {n.attr for tree in trees for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute)}
    unused = [f"{module}.{cls.name}.{node.name}" for module, cls in defs
              if isinstance(cls, ast.ClassDef) for node in cls.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
              and node.name not in looked_up]
    assert unused == []


def test_every_imported_name_is_used_in_its_module():
    """`__init__` imports to re-export, and `from __future__` imports set
    compiler flags; every other imported name is loaded in its module."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), str(path))
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in loaded:
                        unused.append(f"{path.stem}: {name}")
    assert unused == []


EXACT_HALF = {"exact", "treefun", "ratfun"}
FLOAT_HALF = {"walk", "gap"}


def _imported_modules(nodes) -> set[str]:
    """The top-level names of the modules the import statements among
    `nodes` import, a package-relative import (`from .walk import x`,
    `from . import walk`) under the module's own name."""
    out = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                out.add(node.module.split(".")[0])
            elif node.level:
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module.split(".")[0])
    return out


def test_the_exact_and_float_halves_import_nothing_from_each_other():
    """The exact engine and the simulator share only `graphs` and
    `errors`, and numpy is imported by `walk` and `gap` alone: the float
    routes live in `walk`, and the exact half runs in integers."""
    imports = {path.stem: _imported_modules(ast.walk(ast.parse(path.read_text(), str(path))))
               for path in sorted(SRC.glob("*.py"))}
    assert {m for m, names in imports.items() if "numpy" in names} == FLOAT_HALF
    assert {m: names & FLOAT_HALF for m, names in imports.items()
            if m in EXACT_HALF and names & FLOAT_HALF} == {}
    assert {m: names & EXACT_HALF for m, names in imports.items()
            if m in FLOAT_HALF and names & EXACT_HALF} == {}


# the modules `import batecho` and `import batecho.cli` load
STARTUP = {"__init__", "cli", "graphs", "errors"} | EXACT_HALF


def _outside_functions(node):
    """`node` and every node under it outside a function body: the
    statements that run when a module loads."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _outside_functions(child)


def test_the_package_and_cli_load_without_numpy():
    """`import batecho` and `batecho.cli` load neither numpy nor the
    float half: their modules import them only inside a function body
    (`cli`'s float subcommands), and `__init__` re-exports the float
    half's names through its module `__getattr__`."""
    paths = {path.stem: path for path in SRC.glob("*.py")}
    assert STARTUP <= set(paths)
    float_imports = {}
    for m in sorted(STARTUP):
        tree = ast.parse(paths[m].read_text(), str(paths[m]))
        names = _imported_modules(_outside_functions(tree)) & (FLOAT_HALF | {"numpy"})
        if names:
            float_imports[m] = names
    assert float_imports == {}
