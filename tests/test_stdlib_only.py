"""The package runs on the standard library alone."""

import ast
import importlib
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "dirsets"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_absolute_import_is_in_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = {(path.name, name) for path in sources
               for name in _absolute_imports(path)
               if name not in sys.stdlib_module_names}
    assert not outside


def test_every_exported_name_exists():
    # __all__ is read by star imports, which no test makes, so a name
    # left there after its definition goes would fail nowhere else
    names = ["dirsets" if path.stem == "__init__" else f"dirsets.{path.stem}"
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__main__"]
    modules = [importlib.import_module(name) for name in names]
    exported = [(module.__name__, name) for module in modules
                for name in getattr(module, "__all__", ())]
    assert len(exported) > 40
    assert not [(mod, name) for mod, name in exported
                if not hasattr(sys.modules[mod], name)]


def test_every_module_parses_as_python_3_10():
    # pyproject.toml promises requires-python >= 3.10
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(3, 10))
