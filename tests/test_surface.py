"""The public surface is what the program reaches: every name the package
re-exports, and every function and class it defines, is used by one of its
own modules or by the benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "covnoise"


def _getattr_string(node: ast.AST) -> str | None:
    """The name of a getattr(x, "name") call, else None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
        return node.args[1].value
    return None


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
        elif _getattr_string(node) is not None:
            names.add(_getattr_string(node))
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


def _module_of(node: ast.ImportFrom) -> str | None:
    """The package module an import reads from: .noise or covnoise.noise."""
    name = node.module or ""
    if node.level == 1 or name.startswith("covnoise."):
        return name.removeprefix("covnoise.") or None
    return None


def _used_definitions(path: Path) -> tuple[set[tuple[str, str]], set[str]]:
    """(module, name) pairs that the module at path uses, and its getattr
    strings.  A name counts for its module when it is loaded bare in that
    module, imported from it (not by the package's __init__), or read as an
    attribute of a name bound to it (N.noise_sequence after "from covnoise
    import noise as N")."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = path.stem if path.parent == PACKAGE else None
    used, bound, strings = set(), {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            module = _module_of(node)
            for alias in node.names:
                if module is not None:
                    used.add((module, alias.name))
                elif node.level == 1 or node.module == "covnoise":
                    bound[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("covnoise.") and alias.asname:
                    bound[alias.asname] = alias.name.removeprefix("covnoise.")
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and own:
            used.add((own, node.id))
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id in bound):
            used.add((bound[node.value.id], node.attr))
        elif _getattr_string(node) is not None:
            strings.add(_getattr_string(node))
    return used, strings


def test_every_function_and_class_of_the_package_is_loaded_by_the_program():
    """A module-level function or class that only the tests load belongs in
    the tests, not in the package.  A name loaded elsewhere as the attribute
    of some other object (args.moment) does not count as a use."""
    modules = sorted(PACKAGE.glob("*.py"))
    defined = {(path.stem, node.name) for path in modules
               for node in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    assert ("noise", "noise_value") in defined  # the parse found the definitions
    used, strings = set(), set()
    for path in modules + sorted((ROOT / "perfbench").glob("*.py")):
        pairs, names = _used_definitions(path)
        used |= pairs
        strings |= names
    assert ("schur_analysis", "block_diagonal_norm_divergence") in used  # S.<name> counts
    assert sorted(f"{module}.{name}" for module, name in defined - used
                  if name not in strings) == []


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
