"""Checks on the library source itself."""
import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "unicover"


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so no correctness check may rest on one.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert sorted(SOURCE.glob("*.py")), f"no sources under {SOURCE}"
    assert not found, f"assert statements in the library: {found}"


def test_library_has_no_floats():
    # Every number in the library is an int or a Fraction: no float() call,
    # no float annotation or sentinel, and no float literal.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "float"
                  or isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))]
    assert sorted(SOURCE.glob("*.py")), f"no sources under {SOURCE}"
    assert not found, f"floats in the library: {found}"


def _parents(tree):
    return {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}


def _enclosing(node, parent, kind):
    while node in parent:
        node = parent[node]
        if isinstance(node, kind):
            return node
    return None


def test_library_raises_only_its_own_errors():
    # cli.main turns GraphError and LpError into exit code 2; anything else
    # would surface as a traceback with exit code 1, the code of a failed
    # verification.
    import builtins
    import importlib
    from unicover.graph import GraphError
    from unicover.simplex import LpError

    modules, trees, parents = {}, {}, {}
    for path in sorted(SOURCE.glob("*.py")):
        modules[path.stem] = importlib.import_module(f"unicover.{path.stem}")
        trees[path.stem] = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        parents[path.stem] = _parents(trees[path.stem])
    calls = {}                     # function name -> [(module name, call node)]
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                calls.setdefault(node.func.id, []).append((stem, node))

    def resolve(stem, expr):
        name = getattr(expr, "id", None) or getattr(expr, "attr", None)
        if name is None:           # a bare re-raise or a computed exception
            return ast.unparse(expr) if expr else "a bare raise", None
        return name, getattr(modules[stem], name, getattr(builtins, name, None))

    def raised(stem, node):
        """(name, class) for each exception class that `node` can raise; a
        class passed in as a parameter is resolved at every call site."""
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        fn = _enclosing(node, parents[stem], ast.FunctionDef)
        params = [a.arg for a in fn.args.args] if fn else []
        if isinstance(exc, ast.Name) and exc.id in params:
            i = params.index(exc.id)
            for site_stem, call in calls.get(fn.name, []):
                arg = call.args[i] if i < len(call.args) else next(
                    k.value for k in call.keywords if k.arg == exc.id)
                yield resolve(site_stem, arg)
        else:
            yield resolve(stem, exc)

    found = []
    for stem, tree in trees.items():
        for node in (n for n in ast.walk(tree) if isinstance(n, ast.Raise)):
            for name, cls in raised(stem, node):
                if isinstance(cls, type) and issubclass(cls, (GraphError, LpError)):
                    continue
                found.append(f"{stem}.py:{node.lineno} raises {name}")
    assert trees, f"no sources under {SOURCE}"
    assert not found, f"raises outside GraphError and LpError: {found}"


def test_library_has_no_function_level_imports():
    # Every import is at module level, where an import cycle shows at once.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        parent = _parents(tree)
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and _enclosing(node, parent, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert sorted(SOURCE.glob("*.py")), f"no sources under {SOURCE}"
    assert not found, f"imports inside functions: {found}"


def test_json_readers_call_no_bare_int():
    # int() reads 1.9, "0" and True as ints, Fraction() reads "2/4", " 2/3"
    # and "1.0", frozenset() drops a repeat, and .get() fills in a missing
    # field.  So each JSON leaf is read by its kind, and only the kinds'
    # own readers call these: _key and _rational read decimal text with
    # int() and then require the text to be the value's own, _rational
    # builds the Fraction, and the set kinds build a frozenset after the
    # repeat check.  frac_str writes, and the text-format readers parse
    # text with int() and parse_frac.
    path = SOURCE / "serialize.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    parent = _parents(tree)
    allowed = {
        "int": {"graph_from_text", "weights_from_text", "_key", "_rational"},
        "Fraction": {"parse_frac", "frac_str", "_rational"},
        "parse_frac": {"graph_from_text", "weights_from_text"},
        "frozenset": set(),
        "get": set(),
    }

    def name(call):
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and name(node) in allowed]
    found = [f"serialize.py:{node.lineno} calls {name(node)}" for node in calls
             if getattr(_enclosing(node, parent, ast.FunctionDef), "name", None)
             not in allowed[name(node)]]
    assert {name(node) for node in calls} >= {"int", "Fraction", "parse_frac"}, \
        "serialize.py calls none of the guarded readers, so this guard checks nothing"
    assert not found, f"JSON readers that bypass their kind: {found}"


def test_solve_lp_shares_no_code_with_the_kernel():
    # The tests check Tableau against solve_lp, so a kernel fault must not
    # reach solve_lp too: its body names none of the kernel's parts.
    path = SOURCE / "simplex.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    solve_lp = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "solve_lp")
    kernel = {"Tableau", "Adjugate", "dot_of", "SparseColumn", "scale_to_ints"}
    named = {getattr(node, "id", None) or getattr(node, "attr", None)
             for node in ast.walk(solve_lp)}
    assert "Fraction" in named, "solve_lp names no Fraction, so this guard checks nothing"
    assert not named & kernel, f"solve_lp names kernel code: {sorted(named & kernel)}"


def test_library_imports_no_private_name_of_another_module():
    # An underscore name is its module's own: a module that needs another
    # module's private helper calls a public function of that module instead.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = set()            # library modules bound by `from . import m`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("unicover")):
                if node.module in (None, "unicover"):
                    modules |= {alias.asname or alias.name for alias in node.names}
                found += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if _private(alias.name)]
        found += [f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}"
                  for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id in modules
                  and _private(node.attr)]
    assert sorted(SOURCE.glob("*.py")), f"no sources under {SOURCE}"
    assert not found, f"private names taken from another module: {found}"


def _private(name):
    return name.startswith("_") and not name.endswith("__")
