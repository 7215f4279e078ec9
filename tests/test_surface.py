"""The public surface is what the program reaches: every name the package
re-exports is used by one of its own modules or by the benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "covnoise"


def _loaded_names(path: Path) -> set[str]:
    """Names read in a module's code, bare (Name) or as an attribute: not
    definitions, assignments or docstring text."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_re_exported_name_is_used_outside_the_package_init():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) and node.module != "errors"
                for alias in node.names}
    assert "noise_value" in exported  # the parse found the re-exports
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    users += (ROOT / "perfbench").glob("*.py")
    used = set().union(*map(_loaded_names, users))
    assert sorted(exported - used) == []
