"""No public name or result field in src/pplab exists only for the unit tests.

Every public top-level function and class of the package, and every public
method of a public class, must be reachable from somewhere a user can reach
it: the package's module-level code, the benchmark harness
(perfbench/*.py), the acceptance criteria (tests/test_acceptance.py) or an
entry point in pyproject.toml's scripts.  A definition is reached when a
reached piece of code refers to it, so a function that only an unreached
function calls is unreached too.

A reference is a name, an attribute or an imported name in the parsed code;
docstrings and comments never count.  Names are matched bare: a top-level
definition by any of the three, a method by an attribute only.  A method
that shares its name with an attribute in use therefore counts as reached.

The same reached code must pass every defaulted parameter of a public
function or method, by keyword or by position, in some call; a call with
``*`` or ``**`` passes every parameter.  A parameter that no such call
passes is a setting nobody uses, and becomes a constant.  Some such call
must also leave each defaulted parameter out: a default that no call
relies on is a value every caller states anyway, so the parameter becomes
required.

The same reached code must also read every field of a public dataclass:
load it as an attribute, matched by name as a method is.  A store, a
constructor keyword or ``dataclasses.replace`` is not a read, so a field
that only its constructor fills is computed for nobody, and goes.

The slow references in tests/oracles.py stand apart from the package: the
module imports no pplab and names none of the structures its fast paths
build, no test module imports another, and its docstring table names each
reference once, with tests that exist.

Every ``pytest.raises(ValueError)`` or ``pytest.raises(ConfigError)`` in the
tests names what it refuses, by ``match=`` or by binding the exception.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pplab"

# Public names that only the unit tests reach, kept for them.  Slow
# references live in tests/oracles.py instead.
KEEP: dict = {}


# Defaulted parameters that reached code never passes, kept for the tests.
UNPASSED: dict = {}

# Dataclass fields that reached code never reads, kept for the tests.
UNREAD: dict = {}


@dataclass
class Refs:
    names: set = field(default_factory=set)    # ast.Name ids, import names
    attrs: set = field(default_factory=set)    # ast.Attribute attrs
    loads: set = field(default_factory=set)    # the attrs that are read

    def add(self, *nodes) -> "Refs":
        for top in nodes:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    self.names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    self.attrs.add(node.attr)
                    if isinstance(node.ctx, ast.Load):
                        self.loads.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        self.names.update(alias.name.split("."))
        return self

    def update(self, other: "Refs") -> None:
        self.names |= other.names
        self.attrs |= other.attrs
        self.loads |= other.loads


@dataclass
class Definition:
    name: str
    method: bool
    refs: Refs                     # what the definition's own code refers to

    def reached_by(self, refs: Refs) -> bool:
        if self.method:
            return self.name in refs.attrs
        return self.name in refs.names or self.name in refs.attrs


def _package() -> tuple:
    """(definitions by dotted name, references of module-level code)."""
    defs, roots = {}, Refs()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{module}.{node.name}"] = Definition(
                    node.name, False, Refs().add(node))
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body
                           if isinstance(m, ast.FunctionDef)]
                rest = [s for s in node.body if s not in methods]
                defs[f"{module}.{node.name}"] = Definition(
                    node.name, False,
                    Refs().add(*rest, *node.bases, *node.decorator_list))
                for m in methods:
                    d = Definition(m.name, True, Refs().add(m))
                    if m.name.startswith("__"):    # called implicitly
                        roots.update(d.refs)
                    else:
                        defs[f"{module}.{node.name}.{m.name}"] = d
            else:
                roots.add(node)
    return defs, roots


def _script_names() -> set:
    """Functions named by pyproject.toml's [project.scripts] entries.

    Read line by line: tomllib only ships with Python 3.11 and later.
    """
    names, table = set(), None
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            table = line
        elif table == "[project.scripts]" and "=" in line:
            target = line.partition("=")[2].strip().strip("\"'")
            names.add(target.rpartition(":")[2])
    return names


def _callers() -> list:
    """Parsed code that is not the package: perfbench and the acceptance."""
    paths = [*(ROOT / "perfbench").glob("*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    return [ast.parse(p.read_text()) for p in paths]


def _reach() -> tuple:
    """(unreached definitions by dotted name, references of reached code)."""
    defs, reached = _package()
    reached.add(*_callers())
    reached.names |= _script_names()
    for dotted in KEEP:
        reached.update(defs[dotted].refs)
    pending = {k: d for k, d in defs.items() if k not in KEEP}
    grew = True
    while grew:
        grew = False
        for dotted, d in list(pending.items()):
            if d.reached_by(reached):
                reached.update(d.refs)
                del pending[dotted]
                grew = True
    return pending, reached


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    pending, _ = _reach()
    unused = sorted(dotted for dotted in pending
                    if not any(part.startswith("_")
                               for part in dotted.split(".")[1:]))
    assert not unused, ("public names that only the unit tests reach: "
                        + ", ".join(unused))


def _public_functions():
    """(dotted name, node, 1 for a method's self else 0) of every public
    function and public method of a public class in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", node, 0
            elif isinstance(node, ast.ClassDef):
                for m in node.body:
                    if (isinstance(m, ast.FunctionDef)
                            and not m.name.startswith("_")):
                        yield f"{path.stem}.{node.name}.{m.name}", m, 1


def _defaulted_calls():
    """(dotted name, defaulted parameter, whether each call of the function
    in reached code passes it) for every public function and method."""
    calls = {}                     # bare callee name -> [ast.Call]
    trees = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]
    for tree in trees + _callers():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    for dotted, fn, skip in _public_functions():
        a = fn.args
        positional = a.posonlyargs + a.args
        defaulted = [(p.arg, i - skip) for i, p in enumerate(positional)
                     if i >= len(positional) - len(a.defaults)]
        defaulted += [(p.arg, None) for p, d in zip(a.kwonlyargs,
                                                   a.kw_defaults)
                      if d is not None]
        for param, pos in defaulted:
            yield dotted, param, [
                any(isinstance(x, ast.Starred) for x in c.args)
                or any(k.arg in (None, param) for k in c.keywords)
                or (pos is not None and len(c.args) > pos)
                for c in calls.get(fn.name, ())]


def test_every_defaulted_parameter_is_passed_outside_the_unit_tests():
    unused = sorted(f"{dotted}.{param}"
                    for dotted, param, passes in _defaulted_calls()
                    if not any(passes) and f"{dotted}.{param}" not in UNPASSED)
    assert not unused, ("defaulted parameters that no call outside the unit "
                        "tests passes: " + ", ".join(unused))


def test_every_default_is_relied_on_outside_the_unit_tests():
    always = sorted(f"{dotted}.{param}"
                    for dotted, param, passes in _defaulted_calls()
                    if all(passes))
    assert not always, ("defaulted parameters that every call outside the "
                        "unit tests passes: " + ", ".join(always))


def _is_dataclass(decorator) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return isinstance(decorator, ast.Name) and decorator.id == "dataclass"


def _fields():
    """(dotted name, field name) of every field of a public dataclass."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.ClassDef)
                    and not node.name.startswith("_")
                    and any(map(_is_dataclass, node.decorator_list))):
                for stmt in node.body:
                    if (isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)):
                        name = stmt.target.id
                        yield f"{path.stem}.{node.name}.{name}", name


def test_every_dataclass_field_is_read_outside_the_unit_tests():
    _, reached = _reach()
    unread = [dotted for dotted, name in _fields()
              if name not in reached.loads and dotted not in UNREAD]
    assert not unread, ("dataclass fields that no code outside the unit "
                        "tests reads: " + ", ".join(unread))


def _perfbench_module(name: str):
    """perfbench/<name>.py, loaded under a private name."""
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_probe_installs_on_the_package():
    # a probed function that is cut or renamed fails here, not first under
    # perfbench/run.py --trace 1
    from pplab import models

    probes = _perfbench_module("run")._probes()
    originals = {(home, attr): getattr(importlib.import_module(home), attr)
                 for home, attr, _, _ in probes}
    tracer = _perfbench_module("tracer").Tracer()
    try:
        tracer.install(probes)
        tracer.install_graph_probes(models.Graph)
        patched = {(getattr(owner, "__name__", None), attr)
                   for owner, attr, _ in tracer._patched}
        assert set(originals) <= patched
        assert {("Graph", "neighbors"), ("Graph", "incident_edges")} <= patched
    finally:
        tracer.uninstall()
    for (home, attr), original in originals.items():
        assert getattr(importlib.import_module(home), attr) is original



ORACLES = ROOT / "tests" / "oracles.py"
# what the fast paths build; a reference that read one would move with it
FAST_PATH_INTERNALS = {"csr", "_slot_costs", "_clause_bounds",
                       "idelta_interval", "_xi", "_rho", "_cell_plan"}


def test_the_oracles_stand_apart_from_the_code_they_check():
    # every name, attribute, definition, argument, imported module part and
    # string constant in oracles.py
    named = set()
    for node in ast.walk(ast.parse(ORACLES.read_text())):
        for part in ("id", "attr", "name", "arg", "module"):
            if isinstance(getattr(node, part, None), str):
                named.update(getattr(node, part).split("."))
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)
    assert not named & (FAST_PATH_INTERNALS | {"pplab"})
    for path in [*(ROOT / "tests").glob("*.py"),
                 *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [getattr(node, "module", None) or "",
                           *(alias.name for alias in node.names)]
                assert not [m for m in modules if m.startswith("test_")], \
                    path.name


def test_the_oracle_table_names_each_reference_once_with_real_tests():
    # ROADMAP item 10's mutation audit maps each mutant to a reference by
    # this table; a line with empty first cells adds a test to the row above
    tree = ast.parse(ORACLES.read_text())
    table = next(part for part in ast.get_docstring(tree).split("\n\n")
                 if part.startswith("fast path | reference | tests\n"))
    rows = [[cell.strip() for cell in line.split("|")]
            for line in table.splitlines()[1:]]
    refs = [ref for path, ref, _ in rows if path]
    assert sorted(refs) == sorted(
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_"))
    assert len({path for path, _, _ in rows if path}) == len(refs)
    for module, _, name in (test.partition("::") for *_, test in rows):
        tests = ast.parse((ROOT / "tests" / f"{module}.py").read_text()).body
        assert name in {t.name for t in tests
                        if isinstance(t, ast.FunctionDef)}, (module, name)


def test_every_refusal_check_names_what_it_refuses():
    # ConfigError subclasses ValueError, so a bare check passes for any
    # refusal, including one that names the wrong field
    bare = []
    for path in (ROOT / "tests").glob("*.py"):
        tree = ast.parse(path.read_text())
        bound = {id(item.context_expr) for node in ast.walk(tree)
                 for item in getattr(node, "items", ()) if item.optional_vars}
        bare += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and ast.unparse(node.func) == "pytest.raises"
                 and ast.unparse(node.args[0]) in ("ValueError", "ConfigError")
                 and "match" not in {k.arg for k in node.keywords}
                 and id(node) not in bound]
    assert not bare, "pytest.raises without match=: " + ", ".join(bare)
