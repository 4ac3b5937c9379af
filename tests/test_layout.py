"""Layout rules of the source tree that no single unit test sees.

Every sum of products adds through ``superlin._summed``; the only other
``d.get(k, 0) + v`` accumulates are the two int kernels that keep zeros on
purpose.  A new inline accumulate fails here, naming its file and function.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "supertrace"
ALLOWED = {"superlin._summed", "repmod.FactorwiseAction._scaled", "linalg._eliminate"}


def _is_accumulate(node: ast.AST) -> bool:
    """``<expr>.get(<key>, 0) + ...`` or ``... - ...``."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))):
        return False
    call = node.left
    return (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "get" and len(call.args) == 2
            and isinstance(call.args[1], ast.Constant) and call.args[1].value == 0)


def _accumulate_sites(tree: ast.AST, prefix: str) -> list[str]:
    """The qualified names of the functions (or the module) holding an inline accumulate."""
    sites = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        elif _is_accumulate(node):
            sites.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, prefix)
    return sites


def test_accumulate_finder_sees_the_pattern():
    code = "def f(out, k, v):\n    out[k] = out.get(k, 0) - v\n    return out.get(k, 1) + v\n"
    assert _accumulate_sites(ast.parse(code), "m") == ["m.f"]


def test_no_inline_accumulate_outside_the_kernels():
    sites = []
    for path in sorted(SRC.glob("*.py")):
        sites += _accumulate_sites(ast.parse(path.read_text()), path.stem)
    assert "superlin._summed" in sites
    assert sorted(set(sites) - ALLOWED) == []
