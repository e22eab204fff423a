"""Every public name of rmtlab has a reader outside the tests.

A function, class, method, property or dataclass field that only tests read
is surface to maintain with nothing to show for it: either something in the
package, a demo or the benchmark uses it, or it goes.
"""

import ast
import dataclasses
import functools
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


def read_outside_tests():
    read = set()
    for directory in CALLER_DIRS:
        for path in directory.rglob("*.py"):
            read |= names_read(path)
    return read


def public_objects():
    """(qualified name, object) for every name in a module's __all__."""
    for info in pkgutil.iter_modules(rmtlab.__path__):
        module = importlib.import_module(f"rmtlab.{info.name}")
        for name in getattr(module, "__all__", ()):
            yield f"{module.__name__}.{name}", getattr(module, name)


def public_members(cls):
    """Public methods, properties and dataclass fields that ``cls`` defines."""
    members = {
        name for name, value in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(value)
             or isinstance(value, (property, functools.cached_property,
                                   classmethod, staticmethod)))
    }
    if dataclasses.is_dataclass(cls):
        members |= {f.name for f in dataclasses.fields(cls)}
    return sorted(members)


def test_every_public_function_has_a_caller_outside_tests():
    read = read_outside_tests()
    functions = [(qual, obj) for qual, obj in public_objects()
                 if inspect.isfunction(obj)]
    assert "rmtlab.ensembles.sample_matrix" in dict(functions)  # the walk found the package
    unused = [qual for qual, obj in functions if obj.__name__ not in read]
    assert not unused, f"public functions with no caller outside tests: {unused}"


def test_every_public_class_member_and_field_is_read_outside_tests():
    read = read_outside_tests()
    classes = [(qual, obj) for qual, obj in public_objects() if inspect.isclass(obj)]
    assert "rmtlab.statistics.CorrelationEstimate" in dict(classes)
    unused = [qual for qual, cls in classes if cls.__name__ not in read]
    unused += [f"{qual}.{member}" for qual, cls in classes
               for member in public_members(cls) if member not in read]
    assert not unused, f"public names with no reader outside tests: {unused}"
