"""Layout rules of the source tree that no single unit test sees.

Every sum of products adds through ``superlin._summed``; the only other
``d.get(k, 0) + v`` accumulates are the two int kernels that keep zeros on
purpose.  A new inline accumulate fails here, naming its file and function:
a ``get`` called on its dict or through a bound name (``get = out.get``), a
``defaultdict`` added into, or an add into ``out[k]`` guarded by ``k in out``
(an ``if`` statement with an ``else`` that sets ``out[k]``, or an ``if`` expression).

A module is certified where it is made: ``verify_relations`` is called from
``repmod._make_module`` (every module built from scratch) and
``repmod.load_gmodule`` (every module read from a file) and from nowhere else,
and no function takes a ``check`` option to turn a check off.

What is derived from an object is kept one way: a ``cached_property`` on it, or,
for the per-degree tables of ``invtensor.AdjointData``, one dict read through one
helper.  So no class defines ``__getattr__``, no dataclass has more than one
``init=False`` field, and no code builds an object past its constructor with
``__new__`` except ``SuperMap._of``, the unchecked constructor of kernel results.

A witness keeps W as the tuple of its factor modules: inside ``repmod``,
``tensor_module`` is named only by its own definition, by ``witness_tensor``
(for V (x) U) and by ``witness_dsum`` (a direct sum of two Ws needs each as one
module), so no other witness path builds W or V0 (x) W as a product module.

The inverse form b~_N^-1 is read in one place: in ``src/`` only
``invtensor.adjoint_coords`` calls ``form_columns`` with ``inverse`` set, besides
the table's own step from degree N - 1, which passes its flag on; the all-columns
adjoint map lives in ``tests/oracles.py``.

A covector is pulled back one way: in ``src/`` only ``invtensor._pulled`` reads a map's
kept ``rows``, besides ``AdjointData.b_inv``, which solves against b's rows; and no
name in ``src/`` is ``permutation_map``, since a signed permutation pulls back through
the inverse move of ``_permuter`` and is built as a map only in ``tests/oracles.py``.

A tensor power is grown one degree at a time: no ``reduce`` call folds a list
or tuple multiplied by a count (``reduce(op, [x] * N)`` or
``reduce(op, (x,) * N)``), which rebuilds a degree-N table from degree 1
where ``AdjointData`` takes one step on the kept table of degree N - 1.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "supertrace"
ALLOWED = {"superlin._summed", "repmod.FactorwiseAction._scaled", "linalg._eliminate"}
NEW_ALLOWED = {"superlin.SuperMap._of"}  # the one caller of ``__new__``


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


def _adds_into(node: ast.AST, entry: str) -> bool:
    """Whether ``node`` adds or subtracts ``<entry>`` and a term, or is a statement adding into it."""
    if isinstance(node, ast.AugAssign):
        return isinstance(node.op, (ast.Add, ast.Sub)) and ast.unparse(node.target) == entry
    if isinstance(node, ast.Assign):
        return [ast.unparse(t) for t in node.targets] == [entry] and _adds_into(node.value, entry)
    return (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
            and entry in (ast.unparse(node.left), ast.unparse(node.right)))


def _guarded_add(node: ast.AST) -> bool:
    """``if k in d: d[k] += v`` with an ``else`` setting ``d[k]``, or ``d[k] + v if k in d else v``
    (``not in`` with the branches swapped too)."""
    if not isinstance(node, (ast.If, ast.IfExp)):
        return False
    test = node.test
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.In, ast.NotIn))):
        return False
    entry = ast.unparse(ast.Subscript(test.comparators[0], test.left, ast.Load()))
    present, absent = node.body, node.orelse
    if isinstance(test.ops[0], ast.NotIn):
        present, absent = absent, present
    if isinstance(node, ast.IfExp):
        return _adds_into(present, entry)
    return (any(_adds_into(stmt, entry) for stmt in present)
            and any(isinstance(stmt, ast.Assign) and entry in map(ast.unparse, stmt.targets)
                    for stmt in absent))


def _is_accumulate(node: ast.AST, gets: set[str], defaults: set[str]) -> bool:
    """``<expr>.get(<key>, 0) + ...`` or ``... - ...``, also through a bound ``get``; a
    ``defaultdict`` entry added into (``d[k] += v``, ``d[k] + v``); or a ``k in d`` guarded add."""
    if _guarded_add(node):
        return True
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


def test_accumulate_finder_sees_an_if_in_statement():
    code = ("def f(out, pairs):\n    for k, v in pairs:\n        if k in out:\n"
            "            out[k] += v\n        else:\n            out[k] = v\n    return out\n"
            "def g(out, k, v):\n    if k not in out:\n        out[k] = v\n    else:\n"
            "        out[k] = out[k] - v\n"
            "def h(out, seen, k, v):\n    if k in seen:\n        out[k] += v\n    else:\n"
            "        out[k] = v\n    if k in out:\n        out[k] += v\n")
    assert _accumulate_sites(ast.parse(code), "m") == ["m.f", "m.g"]


def test_accumulate_finder_sees_an_if_in_expression():
    code = ("def f(out, k, v):\n    out[k] = out[k] + v if k in out else v\n"
            "def g(out, k, v):\n    out[k] = v if k not in out else out[k] - v\n"
            "def h(out, k, v):\n    return out[k] * v if k in out else v\n"
            "def i(out, r, c, v):\n    out[r, c] = v + out[r, c] if (r, c) in out else v\n")
    assert _accumulate_sites(ast.parse(code), "m") == ["m.f", "m.g", "m.i"]


def test_no_inline_accumulate_outside_the_kernels():
    sites = []
    for path in sorted(SRC.glob("*.py")):
        sites += _accumulate_sites(ast.parse(path.read_text()), path.stem)
    assert "superlin._summed" in sites
    assert sorted(set(sites) - ALLOWED) == []


def _sources():
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]


def _is_name(node: ast.AST, name: str) -> bool:
    """Whether ``node`` is the name ``name`` or an attribute ``<expr>.name``."""
    return (node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)) == name


def _sites(tree: ast.AST, prefix: str, hit) -> list[str]:
    """The qualified names of the functions (or the module) holding a node for which ``hit`` holds."""
    sites = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, SCOPES):
            scope = f"{scope}.{node.name}"
        elif hit(node):
            sites.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, prefix)
    return sites


def _callers(tree: ast.AST, prefix: str, name: str) -> list[str]:
    """The qualified names of the functions (or the module) calling ``name`` or ``<expr>.name``."""
    return _sites(tree, prefix, lambda node: isinstance(node, ast.Call) and _is_name(node.func, name))


def _namers(tree: ast.AST, prefix: str, name: str) -> list[str]:
    """The qualified names of the functions (or the module) naming ``name`` or ``<expr>.name``,
    called or not."""
    return _sites(tree, prefix, lambda node: isinstance(node, (ast.Name, ast.Attribute))
                  and _is_name(node, name))


def test_caller_finder_sees_names_and_attributes():
    code = ("def f(m):\n    verify_relations(m)\n"
            "class C:\n    def g(self, m):\n        return rm.verify_relations(m)\n"
            "def h(m):\n    return verify(m)\n")
    assert _callers(ast.parse(code), "m", "verify_relations") == ["m.f", "m.C.g"]


def test_name_finder_sees_calls_and_bare_names():
    code = ("def f(ws):\n    return reduce(tensor_module, ws)\n"
            "def g(a, b):\n    return rm.tensor_module(a, b)\n"
            "def tensor_module(a, b):\n    return a\n"
            "def h(a):\n    return 'tensor_module' + a.tensor_modules\n")
    assert _namers(ast.parse(code), "m", "tensor_module") == ["m.f", "m.g"]


def test_witnesses_build_no_product_module_for_w():
    sites = set(_namers(dict(_sources())["repmod"], "repmod", "tensor_module"))
    assert sites == {"repmod.witness_tensor", "repmod.witness_dsum"}


def test_relations_are_verified_only_where_a_module_is_made():
    sites = [site for stem, tree in _sources() for site in _callers(tree, stem, "verify_relations")]
    assert sorted(sites) == ["repmod._make_module", "repmod.load_gmodule"]


def test_no_function_takes_a_check_option():
    found = []
    for stem, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if "check" in names:
                    found.append(f"{stem}.{getattr(node, 'name', 'lambda')}")
    assert found == []


def test_caller_finder_sees_new_on_any_class():
    code = ("class T:\n    def make(cls):\n        return object.__new__(cls)\n"
            "def f(cls):\n    return cls.__new__(cls)\n"
            "def g(cls):\n    return cls(1)\n")
    assert _callers(ast.parse(code), "m", "__new__") == ["m.T.make", "m.f"]


def test_objects_are_built_through_their_constructors():
    sites = [site for stem, tree in _sources() for site in _callers(tree, stem, "__new__")]
    assert sorted(set(sites) - NEW_ALLOWED) == []


def test_no_class_defers_attributes_through_getattr():
    found = [f"{stem}.{node.name}" for stem, tree in _sources() for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name == "__getattr__"]
    assert found == []


def _uninitialized_fields(tree: ast.AST) -> dict[str, int]:
    """Per dataclass, the number of its fields declared ``field(..., init=False)``."""
    counts = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                ast.unparse(d.func if isinstance(d, ast.Call) else d).split(".")[-1] == "dataclass"
                for d in node.decorator_list):
            counts[node.name] = sum(
                isinstance(stmt, ast.AnnAssign) and isinstance(stmt.value, ast.Call)
                and ast.unparse(stmt.value.func).split(".")[-1] == "field"
                and any(k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
                        for k in stmt.value.keywords)
                for stmt in node.body)
    return counts


def test_uninitialized_field_finder_counts_per_dataclass():
    code = ("@dataclass(frozen=True)\nclass A:\n    x: int\n"
            "    _a: dict = field(default_factory=dict, init=False)\n"
            "    _b: dict = dataclasses.field(init=False, repr=False)\n    _c: int = field(init=True)\n"
            "@dataclasses.dataclass\nclass B:\n    y: int = 0\n"
            "class C:\n    _d: dict = field(init=False)\n")
    assert _uninitialized_fields(ast.parse(code)) == {"A": 2, "B": 0}


def test_a_dataclass_keeps_at_most_one_uninitialized_field():
    counts = {f"{stem}.{name}": n for stem, tree in _sources()
              for name, n in _uninitialized_fields(tree).items()}
    assert counts["invtensor.AdjointData"] == 1 and counts["repmod.GModule"] == 0
    assert {name: n for name, n in counts.items() if n > 1} == {}


def _repeated_folds(tree: ast.AST, prefix: str) -> list[str]:
    """The qualified names of the functions (or the module) calling ``reduce`` on a list or tuple
    multiplied by a count."""
    def repeated(node: ast.AST) -> bool:
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and any(
            isinstance(side, (ast.List, ast.Tuple)) for side in (node.left, node.right))

    return _sites(tree, prefix, lambda node: isinstance(node, ast.Call) and _is_name(node.func, "reduce")
                  and any(repeated(arg) for arg in node.args))


def test_repeated_fold_finder_sees_lists_and_tuples():
    code = ("def f(x, N):\n    return reduce(op, [x] * N)\n"
            "def g(x, N):\n    return functools.reduce(op, N * (x,), unit)\n"
            "def h(xs):\n    return reduce(op, (x for x in xs))\n"
            "def k(x, N):\n    return other(op, [x] * N)\n")
    assert _repeated_folds(ast.parse(code), "m") == ["m.f", "m.g"]


def test_no_fold_rebuilds_a_power_from_degree_one():
    assert [site for stem, tree in _sources() for site in _repeated_folds(tree, stem)] == []


def _inverse_form_readers(tree: ast.AST, prefix: str) -> list[str]:
    """The qualified names of the functions (or the module) calling ``form_columns`` with
    ``inverse`` given, positionally or by keyword, as anything but the constant False."""
    def reads_inverse(node: ast.AST) -> bool:
        if not (isinstance(node, ast.Call) and _is_name(node.func, "form_columns")):
            return False
        flags = node.args[1:2] + [k.value for k in node.keywords if k.arg == "inverse"]
        return any(not (isinstance(f, ast.Constant) and f.value is False) for f in flags)

    return _sites(tree, prefix, reads_inverse)


def test_inverse_form_finder_sees_keywords_and_positions():
    code = ("def f(adj, N):\n    return adj.form_columns(N, inverse=True)\n"
            "def g(adj, N):\n    return adj.form_columns(N, True)\n"
            "def h(adj, N, flag):\n    return form_columns(N, inverse=flag)\n"
            "def k(adj, N):\n    return adj.form_columns(N), adj.form_columns(N, False)\n"
            "def m(adj, N):\n    return adj.form_columns(N, inverse=False)\n")
    assert _inverse_form_readers(ast.parse(code), "m") == ["m.f", "m.g", "m.h"]


def test_only_adjoint_coords_reads_the_inverse_form():
    sites = [site for stem, tree in _sources() for site in _inverse_form_readers(tree, stem)]
    assert sorted(sites) == ["invtensor.AdjointData.form_columns.step", "invtensor.adjoint_coords"]


def _names(tree: ast.AST) -> set[str]:
    """Every name ``tree`` binds, reads or imports: names, attributes, definitions, arguments and
    import aliases."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (*SCOPES, ast.alias)):
            found.add(node.name)
            found.add(getattr(node, "asname", None))
        elif isinstance(node, ast.arg):
            found.add(node.arg)
    return found - {None}


def test_name_finder_sees_definitions_imports_and_attributes():
    code = ("from .m import permutation_map as pm\nimport a.b\n"
            "def f(x, *, y):\n    return it.g(x) + z\nclass C:\n    w = 1\n")
    assert _names(ast.parse(code)) == {"permutation_map", "pm", "a.b", "f", "x", "y", "it", "g", "z",
                                       "C", "w"}


def test_no_name_in_src_is_permutation_map():
    assert [stem for stem, tree in _sources() if "permutation_map" in _names(tree)] == []


def _row_readers(tree: ast.AST, prefix: str) -> list[str]:
    """The qualified names of the functions (or the module) reading an attribute ``rows``."""
    return _sites(tree, prefix, lambda node: isinstance(node, ast.Attribute) and node.attr == "rows")


def test_row_reader_finder_sees_attributes_only():
    code = ("def f(G):\n    return G.rows.get(0)\ndef g(rows):\n    return rows\n"
            "class C:\n    def rows(self):\n        return 1\n    def h(self):\n        r = self.b.rows\n")
    assert _row_readers(ast.parse(code), "m") == ["m.f", "m.C.h"]


def test_only_pulled_and_b_inv_read_a_maps_rows():
    sites = [site for stem, tree in _sources() for site in _row_readers(tree, stem)]
    assert sorted(sites) == ["invtensor.AdjointData.b_inv", "invtensor._pulled"]
