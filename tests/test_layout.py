"""Layout: every top-level definition in src/ serves the program.

A function or class that only tests call checks a copy of the code that
trains and navigates, not that code.  Such a definition belongs in the
tests, next to what it checks, or nowhere.  The same holds for a defaulted
parameter that no call in the program sets.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The paper's experiments: no command runs them, but they reproduce its claims.
EXPERIMENTS = {"loss_ablation", "prompt_template_report"}


def _referenced(tree):
    """Names read in tree, as a bare name or an attribute; docstrings and
    imports are not reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def unreferenced_definitions(src, readers):
    """Top-level functions and classes of the modules in src that no
    top-level statement of src or readers reads, other than their own."""
    modules = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
               for path in [*src, *readers]}
    statements = [stmt for tree in modules.values() for stmt in tree.body]
    reads = [(stmt, _referenced(stmt)) for stmt in statements]
    unused = []
    for path in src:
        for stmt in modules[path].body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not any(stmt.name in names for other, names in reads
                                if other is not stmt):
                unused.append(f"{path.name}:{stmt.lineno} {stmt.name}")
    return unused


def test_every_src_definition_is_read_by_src_or_bench():
    src = sorted((ROOT / "src" / "slotnav").glob("*.py"))
    bench = sorted((ROOT / "bench").glob("*.py"))
    assert src and bench
    unused = [entry for entry in unreferenced_definitions(src, bench)
              if entry.split()[-1] not in EXPERIMENTS]
    assert unused == [], "defined in src/ but read only by tests: " + ", ".join(unused)


def test_a_definition_read_only_by_itself_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text('"""recurse() is named only here and in its own body."""\n\n'
                      "def recurse(n):\n    return recurse(n - 1) if n else 0\n\n\n"
                      "class Kept:\n    pass\n\n\n"
                      "def uses():\n    return Kept()\n", encoding="utf-8")
    reader = tmp_path / "reader.py"
    reader.write_text("import module\n\nmodule.uses()\n", encoding="utf-8")
    assert unreferenced_definitions([module], [reader]) == ["module.py:3 recurse"]


def _parameters(fn):
    """fn's positional parameters in order, self or cls left out, and the
    parameters it gives defaults."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional[1:] if positional[:1] in (["self"], ["cls"]) else positional, defaulted


def unset_parameters(src, callers):
    """Defaulted parameters of the functions and methods in src that no call
    in callers sets, by keyword or by position.  Calls are matched by name,
    and calling a class calls its __init__."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in {*src, *callers}}
    calls = {}  # callee name -> [(positional count, keywords)]; None counts all
    for path in callers:
        for call in ast.walk(trees[path]):
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute)):
                name = call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                star = any(isinstance(a, ast.Starred) for a in call.args)
                keywords = {k.arg for k in call.keywords}
                calls.setdefault(name, []).append(
                    (None if star or None in keywords else len(call.args), keywords))
    unset = []
    for path in src:
        owners = {fn: node.name for node in ast.walk(trees[path])
                  if isinstance(node, ast.ClassDef) for fn in node.body}
        for fn in ast.walk(trees[path]):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            positional, defaulted = _parameters(fn)
            name = owners.get(fn) if fn.name == "__init__" else fn.name
            for param in defaulted:
                if not any(count is None or param in keywords
                           or param in positional[:count]
                           for count, keywords in calls.get(name, ())):
                    unset.append(f"{path.name}:{fn.lineno} {fn.name} {param}")
    return sorted(unset)


def test_every_defaulted_src_parameter_is_set_by_some_call_in_src_or_bench():
    src = sorted((ROOT / "src" / "slotnav").glob("*.py"))
    bench = sorted((ROOT / "bench").glob("*.py"))
    unset = unset_parameters(src, [*src, *bench])
    assert unset == [], "defaulted parameters no call in src/ or bench/ sets: " + \
        ", ".join(unset)


def test_a_defaulted_parameter_no_call_sets_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("def f(a, b=1, c=2, *, d=3):\n    return a + b + c + d\n\n\n"
                      "class K:\n    def __init__(self, x=0):\n        self.x = x\n\n"
                      "    def m(self, y=1, z=2):\n        return y + z\n\n\n"
                      "def g(*args, e=5):\n    return f(*args, d=4)\n", encoding="utf-8")
    reader = tmp_path / "reader.py"
    reader.write_text("import module\n\nmodule.f(0, 5)\nmodule.K(1).m(z=3)\n"
                      "module.g(**{})\n", encoding="utf-8")
    # The reader sets b by position, x by calling the class, z by keyword
    # and e by a ** argument.
    assert unset_parameters([module], [reader]) == ["module.py:1 f c", "module.py:1 f d",
                                                   "module.py:9 m y"]
    # g's call sets f's c by a * argument and d by keyword.
    assert unset_parameters([module], [module, reader]) == ["module.py:9 m y"]
    assert unset_parameters([module], [module]) == ["module.py:13 g e",
                                                   "module.py:6 __init__ x",
                                                   "module.py:9 m y", "module.py:9 m z"]


def _own_imports(scope):
    """The import statements of scope's own body, not of the functions in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def unread_imports(paths):
    """Names an import binds that nothing in its scope reads: its module for
    a top-level import, its function for one inside a function."""
    unread = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scopes = [tree] + [node for node in ast.walk(tree)
                           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope in scopes:
            names = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
            for stmt in _own_imports(scope):
                if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                    continue
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound != "*" and bound not in names:
                        unread.append(f"{path.name}:{stmt.lineno} {bound}")
    return sorted(unread)


def test_every_import_in_src_and_tests_is_read():
    paths = sorted((ROOT / "src" / "slotnav").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert unread_imports(paths) == []


def test_an_import_read_only_outside_its_function_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n\n"
                      "import os\nimport os.path as osp\nimport math\n"
                      "from json import dumps, loads\n\n\n"
                      "def f():\n    import struct\n    from json import dumps\n"
                      "    return osp.join(struct.calcsize('i'))\n\n\n"
                      "def g():\n    return math.pi + len(dumps(1))\n", encoding="utf-8")
    assert unread_imports([module]) == ["module.py:11 dumps", "module.py:3 os",
                                        "module.py:6 loads"]
