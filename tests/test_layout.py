"""Layout rules of the source tree that no single unit test sees.

Every sum of products adds through ``superlin._summed``; the only other
``d.get(k, 0) + v`` accumulates are the two int kernels that keep zeros on
purpose.  A new inline accumulate fails here, naming its file and function:
a ``get`` called on its dict or through a bound name (``get = out.get``), or
a ``defaultdict`` added into.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "supertrace"
ALLOWED = {"superlin._summed", "repmod.FactorwiseAction._scaled", "linalg._eliminate"}


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _own_nodes(scope: ast.AST):
    """The nodes of ``scope`` outside the functions and classes nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if not isinstance(node, SCOPES):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _bindings(scope: ast.AST) -> tuple[set[str], set[str]]:
    """The targets (as source text) ``scope`` binds to some ``<expr>.get`` and to a ``defaultdict(...)``."""
    gets, defaults = set(), set()
    for node in _own_nodes(scope):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        names = {ast.unparse(t) for t in targets}
        if isinstance(value, ast.Attribute) and value.attr == "get":
            gets |= names
        elif isinstance(value, ast.Call) and ast.unparse(value.func).split(".")[-1] == "defaultdict":
            defaults |= names
    return gets, defaults


def _is_accumulate(node: ast.AST, gets: set[str], defaults: set[str]) -> bool:
    """``<expr>.get(<key>, 0) + ...`` or ``... - ...``, also through a bound ``get``; or a
    ``defaultdict`` entry added into (``d[k] += v``, ``d[k] + v``)."""
    if isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub)):
        return isinstance(node.target, ast.Subscript) and ast.unparse(node.target.value) in defaults
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))):
        return False
    left = node.left
    if isinstance(left, ast.Subscript):
        return ast.unparse(left.value) in defaults
    return (isinstance(left, ast.Call) and len(left.args) == 2
            and isinstance(left.args[1], ast.Constant) and left.args[1].value == 0
            and ((isinstance(left.func, ast.Attribute) and left.func.attr == "get")
                 or ast.unparse(left.func) in gets))


def _accumulate_sites(tree: ast.AST, prefix: str) -> list[str]:
    """The qualified names of the functions (or the module) holding an inline accumulate."""
    sites = []

    def visit(node: ast.AST, scope: str, gets: set[str], defaults: set[str]) -> None:
        if isinstance(node, (ast.Module, *SCOPES)):
            if not isinstance(node, ast.Module):
                scope = f"{scope}.{node.name}"
            inner_gets, inner_defaults = _bindings(node)
            gets, defaults = gets | inner_gets, defaults | inner_defaults
        elif _is_accumulate(node, gets, defaults):
            sites.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope, gets, defaults)

    visit(tree, prefix, set(), set())
    return sites


def test_accumulate_finder_sees_the_pattern():
    code = "def f(out, k, v):\n    out[k] = out.get(k, 0) - v\n    return out.get(k, 1) + v\n"
    assert _accumulate_sites(ast.parse(code), "m") == ["m.f"]


def test_accumulate_finder_sees_a_bound_get():
    code = ("def f(out, pairs):\n    get = out.get\n    for k, v in pairs:\n"
            "        out[k] = get(k, 0) + v\n    return out\n"
            "def g(get, k, x):\n    return get(k, 1) + max(x, 0) + 1\n")
    assert _accumulate_sites(ast.parse(code), "m") == ["m.f"]


def test_accumulate_finder_sees_a_defaultdict():
    code = ("import collections\n"
            "def f(pairs):\n    out = collections.defaultdict(int)\n    for k, v in pairs:\n"
            "        out[k] += v\n    return out\n"
            "def g(pairs, out, seen):\n    seen[0] += 1\n    return out[0] - 1\n"
            "class C:\n    def h(self, k, v):\n        self.acc = defaultdict(int)\n"
            "        self.acc[k] = self.acc[k] - v\n")
    assert _accumulate_sites(ast.parse(code), "m") == ["m.f", "m.C.h"]


def test_no_inline_accumulate_outside_the_kernels():
    sites = []
    for path in sorted(SRC.glob("*.py")):
        sites += _accumulate_sites(ast.parse(path.read_text()), path.stem)
    assert "superlin._summed" in sites
    assert sorted(set(sites) - ALLOWED) == []
