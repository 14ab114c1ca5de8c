"""The public surface: the README's library example and every exported name."""

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
