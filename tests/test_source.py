import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "recgrow"

#: (file, enclosing scope) of the asserts allowed: none, every check raises explicitly.
ALLOWED_ASSERTS = set()

#: the package modules that cli.py imports; the handler's home module is imported by run, by name
CLI_MODULE_LEVEL_IMPORTS = {"errors", "recurrence", "report", "serialize"}


def _scoped(path: Path, match) -> list[tuple[str, str, int]]:
    """(file, dotted enclosing scope, line) of every node in a module that match accepts."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            elif match(child):
                found.append((path.name, ".".join(scope), child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return found


def test_no_certifying_asserts_in_package_source():
    # python -O compiles asserts out, so every check that certifies a result must raise explicitly
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = [a for path in modules for a in _scoped(path, lambda node: isinstance(node, ast.Assert))]
    assert [a for a in found if a[:2] not in ALLOWED_ASSERTS] == []


def test_no_float_constants_in_package_source():
    # every certified value is decided in integers; a float literal is a rounding that nothing certifies
    found = [
        (path.name, node.lineno, node.value)
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
    ]
    assert found == []


def _package_imports(nodes) -> set[str]:
    """Package modules named by the relative imports among nodes."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def _module_level(tree: ast.Module):
    """Every node outside function and class bodies."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pending.extend(ast.iter_child_nodes(node))


def _imports_of(top: str) -> list[tuple[str, int]]:
    """(file, line) of every import, at any depth, of the top-level module top or its submodules."""
    return [
        (path.name, node.lineno)
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == top for a in node.names))
        or (isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").split(".")[0] == top)
    ]


def test_no_dataclasses_in_package_source():
    # importing dataclasses (and inspect with it) and building each class costs every invocation at startup
    assert _imports_of("dataclasses") == []


def test_no_csv_in_package_source():
    # no report cell needs quoting, so a comma join writes the same csv without importing the module
    assert _imports_of("csv") == []


def test_no_mpmath_imports_in_package_source():
    # mpmath is an independent oracle for the tests and the benchmark, not a runtime dependency
    assert _imports_of("mpmath") == []


def test_cli_imports_no_subcommand_module():
    path = SOURCE / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _package_imports(_module_level(tree)) == CLI_MODULE_LEVEL_IMPORTS
    assert _package_imports(ast.walk(tree)) == CLI_MODULE_LEVEL_IMPORTS


def _handlers(path: Path) -> list[str]:
    """Names of the subcommand handlers _cmd_<name> that a module defines."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name.startswith("_cmd_")]


def test_cli_defines_no_handler():
    # each handler lives in its subcommand's home module, so an invocation compiles only the one it runs
    assert _handlers(SOURCE / "cli.py") == []


def test_report_defines_no_handler():
    # report is loaded by every invocation, so a handler there is compiled by every subcommand
    assert _handlers(SOURCE / "report.py") == []


def test_each_handler_lives_in_its_home_module():
    from recgrow.cli import _COMMANDS

    defined = {(path.stem, name) for path in sorted(SOURCE.glob("*.py")) for name in _handlers(path)}
    assert defined == {(home, f"_cmd_{command}") for command, (home, *_) in _COMMANDS.items()}


def _imported_names(node) -> set[str]:
    """Dotted names an import statement may load, a relative import read as one of recgrow's."""
    if isinstance(node, ast.Import):
        return {a.name for a in node.names}
    if not isinstance(node, ast.ImportFrom):
        return set()
    module = ".".join(filter(None, ["recgrow" if node.level else "", node.module]))
    return {module} | {f"{module}.{a.name}" for a in node.names}


def _importers(module: str) -> list[tuple[str, int]]:
    """(file, line) of every import of the package module, at module level or inside a function."""
    return [
        (path.name, node.lineno)
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if module in _imported_names(node)
    ]


def test_no_module_imports_cli():
    # `python -m recgrow.cli` runs cli.py as __main__, so an import of recgrow.cli would compile it a second time
    assert _importers("recgrow.cli") == []


def test_only_growth_imports_roots():
    # roots takes the 2^l-th roots that growth prints; test_startup sees only what a subcommand loads,
    # so it would miss an import that only a library call makes
    assert {name for name, _ in _importers("recgrow.roots")} == {"growth.py"}


def _function(path: Path, name: str) -> ast.FunctionDef:
    return next(n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.FunctionDef) and n.name == name)


def test_run_catches_only_the_errors_it_maps_to_exit_codes():
    # a ValueError or any other exception that no handler names is a fault, and must propagate
    run = _function(SOURCE / "cli.py", "run")
    caught = set()
    for handler in (n for n in ast.walk(run) if isinstance(n, ast.ExceptHandler)):
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        caught |= {ast.unparse(t) if t is not None else "<bare>" for t in types}
    assert caught
    assert caught & {"<bare>", "BaseException", "Exception", "ValueError", "ArithmeticError", "LookupError"} == set()


def test_only_the_gate_builds_a_printed_twin():
    # a TwinText is what a report prints, so one built outside _text would print a twin no residue check saw
    path = SOURCE / "twins.py"
    found = _scoped(path, lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", "") == "TwinText")
    assert [scope for _, scope, _ in found] == ["_text"]


def _args_read(function: ast.FunctionDef) -> set[str]:
    """Names of the attributes a function reads as args.<name>."""
    return {n.attr for n in ast.walk(function) if isinstance(n, ast.Attribute) and getattr(n.value, "id", "") == "args"}


def test_every_option_is_read_by_its_command():
    # an option that no code reads still parses and shows in --help, but changes nothing a run does
    from recgrow.cli import _COMMANDS

    read_by_run = _args_read(_function(SOURCE / "cli.py", "run"))  # --format
    read_as_params = _args_read(_function(SOURCE / "report.py", "_params_from_args"))  # --a, --b, --d0
    for command, (home, _, options) in _COMMANDS.items():
        handler = _function(SOURCE / f"{home}.py", f"_cmd_{command}")
        calls = {getattr(n.func, "id", "") for n in ast.walk(handler) if isinstance(n, ast.Call)}
        read = read_by_run | _args_read(handler) | (read_as_params if "_params_from_args" in calls else set())
        assert sorted({flag[2:].replace("-", "_") for flag, _ in options} - read) == [], command
