"""The public surface is what the program reaches: every name the package
re-exports, and every function and class it defines, is used by one of its
own modules or by the benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "covnoise"


def _loaded_names(path: Path) -> set[str]:
    """Names read in a module's code, bare (Name), as an attribute or as
    the string of getattr(x, "name"): not definitions, assignments or
    docstring text."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            names.add(node.args[1].value)
    return names


def _program_names() -> set[str]:
    """Names loaded by the package's modules and the benchmark's."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return set().union(*map(_loaded_names, paths))


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


def test_every_function_and_class_of_the_package_is_loaded_by_the_program():
    """A module-level function or class that only the tests load belongs in
    the tests, not in the package."""
    modules = sorted(PACKAGE.glob("*.py"))
    defined = {f"{path.stem}.{node.name}": node.name for path in modules
               for node in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    assert "noise.noise_value" in defined  # the parse found the definitions
    used = _program_names()
    assert sorted(key for key, name in defined.items() if name not in used) == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)


def test_every_class_member_of_the_package_is_loaded_by_the_program():
    """A method, property or dataclass field that only the tests load
    belongs in the tests, not in the package.  Special methods (__init__,
    __post_init__ and the like) are called by Python itself."""
    members = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                      and _is_dataclass(cls)):
                    name = node.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    members.add((f"{path.stem}.{cls.name}.{name}", name))
    assert "noise.NoiseValue.width" in {key for key, _ in members}  # the parse found members
    used = _program_names()
    assert sorted(key for key, name in members if name not in used) == []
