"""No module of ``repro`` imports a name it never uses.

An AST scan of every module under ``src/repro`` except the packages'
``__init__.py`` files (which import to re-export): each name bound by a
module-level ``import`` must be read somewhere in the module, in code or
in a quoted annotation, or be listed in the module's ``__all__``.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")


def _modules():
    for dirpath, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py") and name != "__init__.py":
                path = os.path.join(dirpath, name)
                yield os.path.relpath(path, SRC)


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source):
    """Names a module's top-level imports bind and it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                read |= {n.id for n in ast.walk(quoted)
                         if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {e.value for e in node.value.elts}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_modules_import_only_what_they_use():
    unused = []
    for module in _modules():
        with open(os.path.join(SRC, module)) as stream:
            unused += [f"{module}:{line} {name}"
                       for line, name in unused_imports(stream.read())]
    assert unused == []


def test_the_scan_finds_an_unused_import():
    source = ("from typing import Dict, List\n"
              "import os\n"
              "__all__ = ['os']\n"
              "def f(x: 'List[int]'):\n"
              "    return x\n")
    assert unused_imports(source) == [(1, "Dict")]
