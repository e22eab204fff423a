"""Every public function of rmtlab has a caller outside the tests.

A function that only tests call is surface to maintain with nothing to show
for it: either something in the package, a demo or the benchmark uses it, or
it goes.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import rmtlab

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = (ROOT / "src" / "rmtlab", ROOT / "demos", ROOT / "perfbench")


def names_read(path):
    """Identifiers that the code in ``path`` reads, as names or attributes.

    A ``def`` line, an import and an ``__all__`` entry bind or list a name
    without reading it, so none of them counts.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load)
    }


def public_functions():
    """(module name, function name) for every function in a module's __all__."""
    for info in pkgutil.iter_modules(rmtlab.__path__):
        module = importlib.import_module(f"rmtlab.{info.name}")
        for name in getattr(module, "__all__", ()):
            if inspect.isfunction(getattr(module, name)):
                yield module.__name__, name


def test_every_public_function_has_a_caller_outside_tests():
    read = set()
    for directory in CALLER_DIRS:
        for path in directory.rglob("*.py"):
            read |= names_read(path)
    functions = list(public_functions())
    assert ("rmtlab.ensembles", "sample_matrix") in functions  # the walk found the package
    unused = [f"{module}.{name}" for module, name in functions if name not in read]
    assert not unused, f"public functions with no caller outside tests: {unused}"
