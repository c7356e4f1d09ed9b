"""Static checks of the package source."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "finslerkit"
# __init__.py imports the public API in order to re-export it
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names that the module's imports bind and no expression of it reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_check_sees_an_unused_import():
    source = "from typing import Callable, Optional\nimport numpy as np\nimport os.path\nf: Callable = np.ones\n"
    assert unused_imports(source) == ["Optional", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def eager_import_nodes(source: str) -> list:
    """The import statements that run when the module is imported: every one
    outside a function body and outside an ``if TYPE_CHECKING:`` block, in
    source order."""
    found = []

    def visit(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
                visit(node.orelse)
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found.append(node)
            visit(ast.iter_child_nodes(node))

    visit(ast.parse(source).body)
    return found


def eager_imports(source: str) -> list[str]:
    """Modules that importing the module imports, by absolute name, in source order."""
    found = []
    for node in eager_import_nodes(source):
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif node.level == 0:
            found.append(node.module)
    return found


def eager_package_imports(source: str) -> list[str]:
    """The package modules that importing a module of the package imports:
    ``from . import a``, ``from .a import x``, ``import finslerkit.a`` and
    ``from finslerkit import a`` each name ``a``."""
    found = []
    for node in eager_import_nodes(source):
        if isinstance(node, ast.Import):
            found.extend(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("finslerkit."))
        elif node.level > 0 and node.module:
            found.append(node.module.split(".")[0])
        elif node.level > 0 or node.module == "finslerkit":
            found.extend(alias.name for alias in node.names)
        elif node.module.startswith("finslerkit."):
            found.append(node.module.split(".")[1])
    return found


def test_the_check_sees_an_eager_import():
    source = (
        "import typing\nfrom typing import TYPE_CHECKING\nfrom . import sibling\n"
        "if TYPE_CHECKING:\n    from scipy.sparse import csr_matrix\nelse:\n    import os\n"
        "if typing.TYPE_CHECKING:\n    import scipy\n"
        "try:\n    import scipy.special\nexcept ImportError:\n    pass\n"
        "class C:\n    from scipy import spatial\n    def f(self):\n        import scipy.sparse\n"
        "def g():\n    from scipy.sparse.csgraph import dijkstra\n"
    )
    assert eager_imports(source) == ["typing", "typing", "os", "scipy.special", "scipy"]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy_when_imported(path):
    # scipy is imported by the functions that call it, so a command that builds
    # no graph and draws no fan above 3-D never loads it
    assert [name for name in eager_imports(path.read_text()) if name.split(".")[0] == "scipy"] == []


def test_the_check_sees_an_eager_package_import():
    source = (
        "from . import a, b\nfrom .c import x\nfrom .d.e import y\nimport finslerkit.f\n"
        "from finslerkit import g\nfrom finslerkit.h import z\nimport finslerkit\nimport os.path\n"
        "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from . import skipped\n"
        "def f():\n    from . import geodesy\n"
    )
    assert eager_package_imports(source) == ["a", "b", "c", "d", "f", "g", "h"]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_geodesy_when_imported(path):
    # the graph and geodesic layer is imported by the functions that use it and
    # by the package's __getattr__, so building a metric and the pointwise
    # commands never compile it
    assert "geodesy" not in eager_package_imports(path.read_text())


def cli_rule_owners(source: str) -> tuple[list[str], list[str]]:
    """(module-level ``MAX_*`` names, functions with an ``except InvalidArgument``
    handler) of a module's source, a function once per handler."""
    tree = ast.parse(source)
    caps = [
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.startswith("MAX_")
    ]
    handlers = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                caught = node.type if isinstance(node, ast.ExceptHandler) else None
                names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
                if any(isinstance(n, ast.Name) and n.id == "InvalidArgument" for n in names):
                    handlers.append(func.name)
    return caps, handlers


def test_the_owner_check_sees_caps_and_handlers():
    source = (
        "MAX_A = 1\nMAX_B: int = 2\nLIMIT = 3\n"
        "def f():\n    try:\n        pass\n    except (KeyError, InvalidArgument):\n        pass\n"
        "def g():\n    try:\n        pass\n    except ValueError:\n        pass\n"
    )
    assert cli_rule_owners(source) == (["MAX_A", "MAX_B"], ["f"])


def test_cli_owns_no_library_budget_and_maps_library_errors_twice():
    # the library owns every budget and argument rule; cli.py reports its
    # InvalidArgument at the node path (_build_node) or the command path (run_command)
    source = (PACKAGE / "cli.py").read_text()
    caps, handlers = cli_rule_owners(source)
    assert caps == []
    assert sorted(handlers) == ["_build_node", "run_command"]
    called = {node.func.attr for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert not called & {"grid_spacing", "candidate_edges"}  # geodesy.check_graph holds both rules


ROOT = PACKAGE.parents[1]


def exported_names(init_source: str) -> list[str]:
    """The names that ``__init__`` re-exports: those it imports from the
    package's modules, then those of its lazy name tables, the module-level
    tuples of strings that its ``__getattr__`` resolves on first access."""
    body = ast.parse(init_source).body
    imported = [alias.asname or alias.name for node in body
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    tables = [node.value.elts for node in body if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)]
    return imported + [elt.value for elts in tables for elt in elts
                       if isinstance(elt, ast.Constant) and isinstance(elt.value, str)]


def loaded_names(tree: ast.AST) -> set[str]:
    """The names an AST reads, bare or as an attribute."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def read_names(source: str) -> set[str]:
    """The names a module reads, bare or as an attribute, less the bare names
    it binds itself: a local variable named like an export reads no export."""
    tree = ast.parse(source)
    names = [node for node in ast.walk(tree) if isinstance(node, ast.Name)]
    bound = {node.id for node in names if isinstance(node.ctx, ast.Store)}
    return {node.id for node in names} - bound | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_the_export_check_sees_an_unread_name():
    assert exported_names("from .a import (x, y)\nfrom .b import z as w\nimport os\n") == ["x", "y", "w"]
    lazy = "from .a import x\n_NAMES = (\"y\", \"z\")\n__all__ = sorted(_NAMES)\ndef __getattr__(name):\n    return name\n"
    assert exported_names(lazy) == ["x", "y", "z"]
    assert sorted(set(exported_names(lazy)) - read_names("def f():\n    return m.x(y)\n")) == ["z"]
    assert read_names("def f(v: x):\n    return m.y(z)\n") == {"x", "m", "y", "z"}
    assert read_names("def f():\n    segment = 1\n    return segment\n") == set()


def test_every_export_has_a_reader():
    # the library itself (cli.py and every module but __init__), the acceptance
    # criteria and the benchmark are the readers; a name that only its own tests
    # reach is deleted
    readers = [*MODULES, ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    read = set().union(*(read_names(path.read_text()) for path in readers))
    exported = exported_names((PACKAGE / "__init__.py").read_text())
    assert sorted(set(exported) - read) == []


def private_definitions(source: str) -> list[str]:
    """The private functions, classes and constants a module defines at its top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_the_private_check_sees_an_orphan():
    source = "_A = 1\n_B: int = 2\n__all__ = []\nC = _A\ndef _f():\n    return 0\nclass _K:\n    pass\n"
    assert private_definitions(source) == ["_A", "_B", "_f", "_K"]
    assert sorted(set(private_definitions(source)) - loaded_names(ast.parse(source))) == ["_B", "_K", "_f"]


def test_every_private_name_has_a_reader():
    # a deletion that leaves a helper without its last caller deletes the helper too
    sources = [path.read_text() for path in sorted(PACKAGE.rglob("*.py"))]
    read = set().union(*(loaded_names(ast.parse(source)) for source in sources))
    defined = {name for source in sources for name in private_definitions(source)}
    assert sorted(defined - read) == []


def fd_kernel_imports(source: str) -> list[str]:
    """The ``fd_*`` names a module imports from the package's ``numkernel``."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "numkernel"
            for alias in node.names if alias.name.startswith("fd_")]


def test_the_fd_check_sees_a_kernel_import():
    source = "from .numkernel import EPS, fd_hessian_rows\nfrom numkernel import fd_x\ndef f():\n    from .numkernel import fd_y\n"
    assert fd_kernel_imports(source) == ["fd_hessian_rows", "fd_y"]


def test_only_metric_nodes_take_finite_differences():
    # a combination law is closed-form: the Hessian kernels serve only gauge
    # nodes without a closed form and the oracle, both in metrics.py
    importers = [path.name for path in MODULES if fd_kernel_imports(path.read_text())]
    assert importers == ["metrics.py"]
