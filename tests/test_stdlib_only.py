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


def _names(path):
    """Every identifier a module binds, reads or imports."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
            yield node.asname
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_only_geometry_names_the_line_count_format():
    # the incidence table and the key's count fields belong to geometry:
    # every other module reads line counts through a LineTable
    owned = {"incidence", "Incidence", "_Filled", "count_mask"}
    sources = [path for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "geometry.py"]
    assert len(sources) > 5
    assert not {(path.name, name) for path in sources
                for name in _names(path) if name in owned}
