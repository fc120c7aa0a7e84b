import ast
import pathlib

import ymrelax


def test_exports_resolve_once():
    names = ymrelax.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(ymrelax, name)]
    assert missing == []


def test_imports_are_used():
    """Every name a module of the package imports is used in it;
    __init__.py imports to export, so it is left out."""
    unused = []
    for path in sorted(pathlib.Path(ymrelax.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_no_private_imports_across_modules():
    """No module of the package imports another module's _-prefixed
    name: what a module shares, it names publicly."""
    private = []
    for path in sorted(pathlib.Path(ymrelax.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "ymrelax":
                continue
            private += [f"{path.name}:{node.lineno} {alias.name}"
                        for alias in node.names
                        if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []
