"""Layout: every definition in src/ serves the program.

A function, class, method or dataclass field that only tests read checks a
copy of the code that trains and navigates, not that code.  Such a
definition belongs in the tests, next to what it checks, or nowhere.  The
same holds for a defaulted parameter that no call in the program sets.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Definitions no program path reads, each with the reason it stays.
EXPERIMENT = "a paper experiment: no command runs it, but it reproduces the paper's claims"
REPORT = "a paper experiment's report"
GATE = "the release gate compares it with brute-force matching"
ALLOWED = {
    "loss_ablation": EXPERIMENT,
    "prompt_template_report": EXPERIMENT,
    "ConvergenceReport.*": REPORT,
    "AblationReport.*": REPORT,
    "TemplateReport.*": REPORT,
    "RunManifest.losses": "a manifest.json key, which every saved run records",
    "Assignment.cost": GATE,
    "Assignment.unmatched_slots": GATE,
    "TotalLossGraph.assignments": GATE,
}


def _is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _members(cls):
    """(name, line, node whose reads do not count) for each method and
    property of cls other than a dunder, and for each field of a dataclass,
    whose reads in __post_init__ do not count."""
    post_init = next((f for f in cls.body if isinstance(f, ast.FunctionDef)
                      and f.name == "__post_init__"), None)
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and not (stmt.name.startswith("__") and stmt.name.endswith("__")):
            yield stmt.name, stmt.lineno, stmt
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) \
                and _is_dataclass(cls):
            yield stmt.target.id, stmt.lineno, post_init


def _imports(tree, stems):
    """Names tree's imports bind: to any module, to a module of stems, and
    to a definition in a module of stems, as (stem, name)."""
    modules, ours, names = set(), {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname or "." not in alias.name:
                    bound = alias.asname or alias.name
                    modules.add(bound)
                    if alias.name.split(".")[-1] in stems:
                        ours[bound] = alias.name.split(".")[-1]
        elif isinstance(node, ast.ImportFrom):
            source = (node.module or "").split(".")[-1]
            for alias in node.names:
                bound = alias.asname or alias.name
                if source not in stems and alias.name in stems:
                    modules.add(bound)
                    ours[bound] = alias.name
                elif source in stems:
                    names[bound] = (source, alias.name)
    return modules, ours, names


# The name of the argparse namespace in src/ and bench/: its attributes are
# command-line options, never a member of a class in src/.
NAMESPACE = "args"


def _reads(tree, modules):
    """Names tree reads as a bare name, and attributes it reads on anything
    but an imported module or the argparse namespace; docstrings, imports
    and assignments are not reads."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                and not (isinstance(node.value, ast.Name)
                         and (node.value.id in modules or node.value.id == NAMESPACE)):
            attributes[node.attr] += 1
    return names, attributes


def unreferenced_definitions(src, readers):
    """Definitions in the modules of src that nothing in src or readers
    reads outside their own body.  A top-level function or class is read by
    a name that resolves to it: in its own module, imported from it, or as
    module.name.  A method, property or dataclass field is read by an
    attribute of its name on anything but an imported module or the
    argparse namespace."""
    stems = {path.stem for path in src}
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in [*src, *readers]}
    imports = {path: _imports(tree, stems) for path, tree in trees.items()}
    reads = {path: _reads(tree, imports[path][0]) for path, tree in trees.items()}
    resolved = Counter()  # (stem, name) -> reads from other modules
    for path, tree in trees.items():
        _, ours, names = imports[path]
        for bound, target in names.items():
            resolved[target] += reads[path][0][bound]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in ours:
                resolved[ours[node.value.id], node.attr] += 1
    attributes = sum((attrs for _, attrs in reads.values()), Counter())

    unused = []
    for path in src:
        for stmt in trees[path].body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = _reads(stmt, imports[path][0])
            if reads[path][0][stmt.name] == own[0][stmt.name] \
                    and not resolved[path.stem, stmt.name]:
                unused.append(f"{path.name}:{stmt.lineno} {stmt.name}")
            if isinstance(stmt, ast.ClassDef):
                for name, line, body in _members(stmt):
                    inside = _reads(body, imports[path][0])[1][name] if body else 0
                    if attributes[name] == inside:
                        unused.append(f"{path.name}:{line} {stmt.name}.{name}")
    return unused


def _allowed(name):
    return name in ALLOWED or name.split(".")[0] + ".*" in ALLOWED


def test_every_src_definition_is_read_by_src_or_bench():
    src = sorted((ROOT / "src" / "slotnav").glob("*.py"))
    bench = sorted((ROOT / "bench").glob("*.py"))
    assert src and bench
    entries = unreferenced_definitions(src, bench)
    unused = [entry for entry in entries if not _allowed(entry.split()[-1])]
    assert unused == [], "defined in src/ but read only by tests: " + ", ".join(unused)
    # Each allow-list entry still names a definition the program does not read.
    names = [entry.split()[-1] for entry in entries]
    stale = [key for key in ALLOWED if not any(key in (name, name.split(".")[0] + ".*")
                                               for name in names)]
    assert stale == [], "allowed but read by src/ or bench/: " + ", ".join(stale)


def test_a_definition_read_only_by_itself_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text('"""recurse() is named only here and in its own body."""\n\n'
                      "def recurse(n):\n    return recurse(n - 1) if n else 0\n\n\n"
                      "class Kept:\n    pass\n\n\n"
                      "def uses():\n    return Kept()\n", encoding="utf-8")
    reader = tmp_path / "reader.py"
    reader.write_text("import module\n\nmodule.uses()\n", encoding="utf-8")
    assert unreferenced_definitions([module], [reader]) == ["module.py:3 recurse"]


def test_a_read_counts_only_where_it_resolves_to_the_definition(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import numpy as np\n"
                      "from dataclasses import dataclass\n\n\n"
                      "def shadowed():\n    return 0\n\n\n"
                      "def imported():\n    return 1\n\n\n"
                      "@dataclass\nclass Report:\n    kept: float\n    checked: float\n\n"
                      "    def __post_init__(self):\n        assert self.checked >= 0\n\n"
                      "    def exp(self):\n        return self.exp\n\n"
                      "    def size(self):\n        return np.exp(self.kept)\n\n\n"
                      "class Plain:\n    label: str = 'not a field'\n", encoding="utf-8")
    reader = tmp_path / "reader.py"
    reader.write_text("from module import Report, imported as renamed\n\n"
                      "shadowed = 3\nprint(shadowed, renamed(), Report(1.0, 2.0).size())\n"
                      "print(Plain)\n", encoding="utf-8")
    # The reader's shadowed and Plain are its own names, np.exp is not the
    # method exp, and a read in __post_init__ is not a read of the field;
    # Plain's label is a class attribute, not a dataclass field.
    assert unreferenced_definitions([module], [reader]) == [
        "module.py:5 shadowed", "module.py:16 Report.checked", "module.py:21 Report.exp",
        "module.py:28 Plain"]


def test_an_option_of_the_argparse_namespace_does_not_read_a_member(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("class Graph:\n    def log(self):\n        return 0\n\n\n"
                      "def main(args):\n    return Graph(), args.log\n", encoding="utf-8")
    reader = tmp_path / "reader.py"
    reader.write_text("import module\n\nmodule.main(None)\n", encoding="utf-8")
    assert unreferenced_definitions([module], [reader]) == ["module.py:2 Graph.log"]


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
