import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "recgrow"

#: (file, enclosing scope) of the one assert allowed: ValidationReport's
#: dataclass invariant, which restates how a report is built and certifies nothing.
ALLOWED_ASSERTS = {("recurrence.py", "ValidationReport.__post_init__")}


def _asserts(path: Path) -> list[tuple[str, str, int]]:
    """(file, dotted enclosing scope, line) of every assert statement in a module."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Assert):
                found.append((path.name, ".".join(scope), child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return found


def test_no_certifying_asserts_in_package_source():
    # python -O compiles asserts out, so every check that certifies a result must raise explicitly
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = [a for path in modules for a in _asserts(path)]
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
