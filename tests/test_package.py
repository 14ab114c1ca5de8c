"""The public surface: the README's library example and every exported name."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import bnfstab
from util import two_dof_even_series

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_use_runs_and_every_export_resolves(
        tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    (tmp_path / "system.txt").write_text(
        two_dof_even_series(d_max=8).to_text())
    monkeypatch.chdir(tmp_path)
    exec(code, {})
    T, r_opt = capsys.readouterr().out.split()
    assert 0.0 < float(T) and 1 <= int(r_opt) <= 18

    modules = [bnfstab] + [importlib.import_module(f"bnfstab.{m.name}")
                           for m in pkgutil.iter_modules(bnfstab.__path__)
                           if m.name != "__main__"]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def _module_trees():
    """{module file name: parsed tree} of every module of the package."""
    root = Path(bnfstab.__file__).resolve().parent
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(root.glob("*.py"))}


def _exports(tree):
    """The names listed in a module's __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _read_names(tree):
    """Every name the module reads, and every attribute it looks up."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def test_no_unused_imports_and_no_unreferenced_private_names():
    trees = _module_trees()
    read = {name: _read_names(tree) for name, tree in trees.items()}
    faults = []
    for name, tree in trees.items():
        used = read[name] | _exports(tree)
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                    or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used:
                    faults.append(f"{name}: unused import {bound}")
    everywhere = set().union(*read.values())
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for private in defined:
                if private.startswith("_") and not private.startswith("__") \
                        and private not in everywhere:
                    faults.append(f"{name}: {private} is never referenced")
    assert not faults, faults
