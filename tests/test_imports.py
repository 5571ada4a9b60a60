"""Every name a package module imports is used in that module, and every
package name the benchmark calls exists."""

import ast
import importlib
import pathlib

import thermoseg

PACKAGE = pathlib.Path(thermoseg.__file__).parent


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    unused = {p.name: _unused_imports(p) for p in sorted(PACKAGE.glob("*.py"))
              if p.name != "__init__.py"}
    assert {k: v for k, v in unused.items() if v} == {}


BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _module_attr(node):
    """'mod' for an `ts.mod` expression, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "ts"):
        return node.attr
    return None


def _benchmark_chains(path):
    """(module, name) for each `ts.<module>.<name>` chain in a file, also
    through local aliases such as `features, nn = ts.features, ts.nn`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = ([(target, node.value)] if isinstance(target, ast.Name)
                     else zip(getattr(target, "elts", ()),
                              getattr(node.value, "elts", ())))
            for name, value in pairs:
                module = _module_attr(value)
                if isinstance(name, ast.Name) and module is not None:
                    assert aliases.setdefault(name.id, module) == module
    chains = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        module = _module_attr(node.value)
        if module is None and isinstance(node.value, ast.Name):
            module = aliases.get(node.value.id)
        if module is not None:
            chains.add((module, node.attr))
    return chains


def test_benchmark_names_resolve():
    # the benchmark calls the package by attribute chains at run time, so a
    # rename or a deleted function shows only as a failed benchmark pass
    chains = set()
    for path in sorted(BENCHMARK.glob("*.py")):
        chains |= _benchmark_chains(path)
    assert len(chains) >= 20
    missing = sorted(
        f"{module}.{name}" for module, name in chains
        if not hasattr(importlib.import_module(f"thermoseg.{module}"), name))
    assert missing == []


def _names_used(tree, skip=None):
    """Every name a tree refers to (names, attributes, imported names),
    leaving out the subtree `skip`."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return used


def test_public_names_have_callers():
    # a public function or class that only tests call belongs in the tests
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    outside = set()
    for path in sorted(BENCHMARK.glob("*.py")) + sorted(
            BENCHMARK.with_name("bench").glob("*.py")):
        outside |= _names_used(ast.parse(path.read_text(encoding="utf-8")))
    uncalled = []
    for path, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or node.name in outside):
                continue
            if not any(node.name in _names_used(t, skip=node)
                       for t in trees.values()):
                uncalled.append(f"{path.stem}.{node.name}")
    assert uncalled == []


def _calls_and_values(tree):
    """(calls, attribute values, bare-name values) of a module: each call
    as (callee name, positional argument nodes or None after a *args,
    keyword argument nodes by name or None after a **kwargs), and the
    names used other than as a callee."""
    callees = set()
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callees.add(id(node.func))
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg: k.value for k in node.keywords}
            calls.append((name, None if starred else node.args,
                          None if None in keywords else keywords))
    attributes = {n.attr for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and id(n) not in callees}
    names = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and id(n) not in callees}
    return calls, attributes, names


def _defaulted_parameters(tree):
    """(callee name, parameter, positional index or None, default node)
    for each parameter with a default, and each defaulted field of a
    frozen dataclass; a method's index leaves out `self`, and `__init__`
    is called by its class name."""
    classes = {id(node): owner.name for owner in ast.walk(tree)
               if isinstance(owner, ast.ClassDef) for node in owner.body}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        name, shift = node.name, 0
        if id(node) in classes:
            shift = 1
            name = classes[id(node)] if name == "__init__" else name
        first = len(positional) - len(args.defaults)
        for i, (arg, default) in enumerate(zip(positional[first:],
                                               args.defaults), first):
            found.append((name, arg.arg, i - shift, default))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((name, arg.arg, None, default))
    # a frozen dataclass's fields are its __init__ parameters, in order
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Call) and getattr(d.func, "id", None)
                == "dataclass" and any(k.arg == "frozen" and getattr(
                    k.value, "value", None) is True for k in d.keywords)
                for d in node.decorator_list):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            found += [(node.name, f.target.id, i, f.value)
                      for i, f in enumerate(fields) if f.value is not None]
    return found


def _overrides(call, param, index, default):
    """Whether a (callee, args, keywords) call may pass `param` a value
    other than its default: it passes an argument that is not the
    default's own expression, or hides its arguments behind * or **."""
    _, args, keywords = call
    if args is None or keywords is None:
        return True
    if param in keywords:
        passed = keywords[param]
    elif index is not None and len(args) > index:
        passed = args[index]
    else:
        return False
    return ast.dump(passed) != ast.dump(default)


def test_defaulted_parameters_are_passed():
    # a default that no caller overrides is a constant dressed as a knob;
    # a caller that passes the default's own literal does not override it
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    callers = list(trees.values()) + [
        ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted(BENCHMARK.glob("*.py"))
        + sorted(BENCHMARK.with_name("bench").glob("*.py"))]
    scans = [_calls_and_values(t) for t in callers]
    calls = [c for scan in scans for c in scan[0]]
    as_values = set().union(*(scan[1] for scan in scans))
    unpassed = []
    for path, tree in trees.items():
        # a bare name is the function only in the module that defines it
        local_values = _calls_and_values(tree)[2]
        for name, param, index, default in _defaulted_parameters(tree):
            if name in as_values or name in local_values:
                continue
            if not any(call[0] == name
                       and _overrides(call, param, index, default)
                       for call in calls):
                unpassed.append(f"{path.stem}.{name}({param}=)")
    assert unpassed == []


def _text_readers(tree):
    """Line numbers of the calls that parse numeric text or open a file
    for reading in text mode: np.loadtxt, np.savetxt, read_text, and
    open() whose mode has no "b" and reads ("r", the default, or "+")."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name in ("loadtxt", "savetxt", "read_text"):
            found.append(node.lineno)
        elif name == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords
                                      if k.arg == "mode"]
            mode = getattr(modes[0], "value", None) if modes else "r"
            if not isinstance(mode, str) or (
                    "b" not in mode and ("r" in mode or "+" in mode)):
                found.append(node.lineno)
    return found


def test_text_is_read_only_through_keyfile():
    # keyfile decodes every text file and parses every numeric body, so a
    # decode error or a malformed row reads the same in every file kind
    readers = {p.name: _text_readers(ast.parse(p.read_text(encoding="utf-8")))
               for p in sorted(PACKAGE.glob("*.py")) if p.name != "keyfile.py"}
    assert {k: v for k, v in readers.items() if v} == {}
    assert _text_readers(ast.parse(
        "open(p)\nopen(p, 'r+b')\nopen(p, mode='w+')\nopen(p, m)\n"
        "np.loadtxt(p)\nnp.savetxt(p, a)\nopen(p, 'wb')\nopen(p, 'w')\n"
        "open(p, 'rb')\n")) == [1, 3, 4, 5, 6]


def _process_starts(tree, fork_helper):
    """Line numbers of the ways to start a process other than through
    the function `fork_helper` (none if None): an import of
    multiprocessing, a ProcessPoolExecutor name, and os.fork outside it."""
    allowed = {id(n) for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and node.name == fork_helper for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + [
                f"{node.module}.{a.name}" for a in node.names
                if isinstance(node, ast.ImportFrom)]
            if any(n.split(".")[0] == "multiprocessing"
                   or n.endswith("ProcessPoolExecutor") or n == "os.fork"
                   for n in names):
                found.append(node.lineno)
        elif (getattr(node, "id", getattr(node, "attr", None))
              == "ProcessPoolExecutor"):
            found.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "fork"
              and getattr(node.value, "id", None) == "os"
              and id(node) not in allowed):
            found.append(node.lineno)
    return sorted(set(found))


def test_processes_start_only_through_fork_helper():
    # one fork helper starts every worker, so each worker ends the same
    # way: no traceback from the child, and a death the parent reports
    starts = {p.name: _process_starts(
        ast.parse(p.read_text(encoding="utf-8")),
        "_fork" if p.name == "_kernels.py" else None)
        for p in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in starts.items() if v} == {}
    source = ("import multiprocessing\nfrom multiprocessing import Pool\n"
              "import multiprocessing.pool as mp\n"
              "from concurrent.futures import ProcessPoolExecutor\n"
              "futures.ProcessPoolExecutor(2)\nos.fork()\npid = os.fork\n"
              "from os import fork\ndef _fork():\n    os.fork()\n"
              "hasattr(os, 'fork')\nos.forkpty\nimport concurrent.futures\n")
    assert _process_starts(ast.parse(source), "_fork") == list(range(1, 9))
    assert _process_starts(ast.parse(source), None) == [
        *range(1, 9), 10]


def _error_types_and_arguments(tree):
    """Line numbers of each class derived from an exception class (a base
    named *Error or *Exception) and of each function with a parameter
    named `error`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                getattr(b, "id", getattr(b, "attr", "")).endswith(
                    ("Error", "Exception")) for b in node.bases):
            found.append(node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            if any(p.arg == "error" for p in [*a.posonlyargs, *a.args,
                                              *a.kwonlyargs] if p):
                found.append(node.lineno)
    return found


def test_errors_are_the_only_exception_classes():
    # a bad input raises ValidationError (exit 2) and a failed computation
    # ComputeError (exit 3), so no reader is told which class to raise
    found = {p.name: _error_types_and_arguments(
        ast.parse(p.read_text(encoding="utf-8")))
        for p in sorted(PACKAGE.glob("*.py")) if p.name != "errors.py"}
    assert {k: v for k, v in found.items() if v} == {}
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    assert sorted(n.name for n in ast.walk(tree)
                  if isinstance(n, ast.ClassDef)) == [
        "ComputeError", "ThermosegError", "ValidationError"]
    assert _error_types_and_arguments(ast.parse(
        "class A(ValidationError): pass\nclass B(errors.ComputeError): pass\n"
        "class C(Exception): pass\nclass D: pass\ndef f(x, error=E): pass\n"
        "def g(*, error): pass\ndef h(errors): pass\nlambda error: 0\n"
        "class E(object): pass\n")) == [1, 2, 3, 5, 6, 8]


def _sized_array_classes(tree):
    """Names of the frozen dataclasses that declare an np.ndarray field
    beside a field named width, height or frame_count."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not any(
                isinstance(d, ast.Call)
                and getattr(d.func, "id", None) == "dataclass"
                and any(k.arg == "frozen" and getattr(k.value, "value", 0)
                        for k in d.keywords)
                for d in node.decorator_list):
            continue
        fields = {f.target.id: ast.dump(f.annotation) for f in node.body
                  if isinstance(f, ast.AnnAssign)
                  and isinstance(f.target, ast.Name)}
        if (fields.keys() & {"width", "height", "frame_count"}
                and any("attr='ndarray'" in a for a in fields.values())):
            found.append(node.name)
    return found


def test_arrays_carry_their_own_size():
    # a size field beside the array that holds it is a second copy of the
    # size that every constructor must keep consistent
    found = {p.name: _sized_array_classes(
        ast.parse(p.read_text(encoding="utf-8")))
        for p in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}
    assert _sized_array_classes(ast.parse(
        "@dataclass(frozen=True)\nclass A:\n    width: int\n"
        "    data: np.ndarray\n"
        "@dataclass(frozen=True)\nclass B:\n    frame_count: int\n"
        "    rms: Optional[np.ndarray] = None\n"
        "@dataclass(frozen=True)\nclass C:\n    width: int\n"
        "    regions: tuple\n"
        "@dataclass\nclass D:\n    height: int\n    data: np.ndarray\n"
        "@dataclass(frozen=True)\nclass E:\n    data: np.ndarray\n")) == [
        "A", "B"]
