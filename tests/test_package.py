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


def test_public_methods_are_used():
    """Every public method of a class in the package is referenced by
    name somewhere in the package: a method only the tests call is
    surface the package does not need."""
    trees = [ast.parse(path.read_text())
             for path in sorted(pathlib.Path(ymrelax.__file__).parent.glob("*.py"))]
    used = set()
    methods = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                methods += [(node.name, item.name) for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("_")]
    unused = sorted(f"{cls}.{name}" for cls, name in methods if name not in used)
    assert unused == [], f"referenced nowhere in the package: {unused}"


def test_unexported_names_are_used():
    """Every top-level function, class and constant of a package module
    is exported in ymrelax.__all__ or read somewhere in the package: a
    name only its definition mentions is code nothing runs."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(pathlib.Path(ymrelax.__file__).parent.glob("*.py"))}
    used = set()
    defined = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
    unused = sorted(f"{module}:{name}" for module, name in defined
                    if name not in used and name not in ymrelax.__all__
                    and not name.startswith("__"))
    assert unused == [], f"defined, not exported, read nowhere: {unused}"
