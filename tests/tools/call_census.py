"""Census of the ``src/repro`` functions no production entry point calls.

    PYTHONPATH=src python tests/tools/call_census.py [--params] [--keep DIR]

Runs every production entry point — ``repro figures``, each
``examples/*.py``, ``benchmarks/e2e/run.py --quick`` (untraced, then
traced), ``pytest benchmarks --ignore=benchmarks/e2e`` and the CLI
commands ``docs/api.md`` documents — with a ``sys.setprofile`` hook that
records every code object entered. The hook is installed by a
``sitecustomize`` module on ``PYTHONPATH``, so child processes (the
benchmark's workload children, say) count too. It then prints every
function and method defined under ``src/repro`` (found by parsing the
source) that none of them entered, grouped by module, with line counts.

With ``--params`` it also tables every parameter under ``src/repro``
whose default is a scalar (``None``, ``bool``, ``int``, ``float``,
``str``), found by importing ``repro``: the parameters of module-level
functions and of methods, and the fields of a dataclass whose
``__init__`` is generated (the hook tells that ``__init__`` apart by the
class of its ``self``). The same hook records which of them ever
received a value other than the default, and a second report lists the
parameters of *entered* functions that never did: an option no entry
point sets. Nested functions are not tabled.

The census is advisory: a function only tests reach is a candidate for
deletion, not a verdict (checks and oracles stay). It is not a CI gate
and pytest does not collect this file. A full census takes several
minutes; the profile hook slows pure-Python code a few times over.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: the hook each profiled interpreter loads at start-up; it writes one
#: ``<pid>.txt`` of ``path<TAB>first line`` rows into CALL_CENSUS_DIR
#: at exit, for code defined under CALL_CENSUS_PACKAGE, and one
#: ``<pid>.json`` that maps each entered entry of the CALL_CENSUS_PARAMS
#: table (see :func:`scalar_parameters`) to the parameters it received
#: a non-default value for
_SITECUSTOMIZE = '''\
import atexit
import json
import os
import sys
import threading

_out = os.environ["CALL_CENSUS_DIR"]
_package = os.environ["CALL_CENSUS_PACKAGE"]
with open(os.environ["CALL_CENSUS_PARAMS"]) as f:
    _table = json.load(f)
_seen = set()
_unset = {}  # code -> (table key, [(name, default)] not yet set), or None
_set = {}  # table key -> names set to a non-default value


def _is_default(value, default):
    if value is default:
        return True
    if isinstance(value, float) and isinstance(default, float):
        return value == default or (value != value and default != default)
    try:
        return bool(value == default)
    except Exception:  # an array, say: not a scalar default
        return False


def _entry(frame, code):
    path = os.path.realpath(code.co_filename)
    if path.startswith(_package):
        key = f"{path}:{code.co_firstlineno}"
    elif code.co_name == "__init__" and code.co_varnames:
        # a generated dataclass __init__: the class that owns this code
        self = frame.f_locals.get(code.co_varnames[0])
        owner = next((k for k in type(self).__mro__
                      if getattr(k.__dict__.get("__init__"), "__code__", None)
                      is code), None)
        module = sys.modules.get(getattr(owner, "__module__", None))
        if getattr(module, "__file__", None) is None:
            return None
        key = f"{os.path.realpath(module.__file__)}:{owner.__qualname__}"
    else:
        return None
    return (key, list(_table[key].items())) if key in _table else None


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _seen.add(code)
        entry = _unset.get(code, False)
        if entry is False:
            entry = _unset[code] = _entry(frame, code)
            if entry:
                _set.setdefault(entry[0], set())
        if entry and entry[1]:
            args = frame.f_locals
            key, todo = entry
            for name, default in list(todo):
                if name in args and not _is_default(args[name], default):
                    _set[key].add(name)
                    todo.remove((name, default))


def _dump():
    sys.setprofile(None)
    rows = set()
    for code in _seen:
        path = os.path.realpath(code.co_filename)
        if path.startswith(_package):
            rows.add(f"{path}\\t{code.co_firstlineno}\\n")
    with open(os.path.join(_out, f"{os.getpid()}.txt"), "w") as f:
        f.writelines(sorted(rows))
    with open(os.path.join(_out, f"{os.getpid()}.json"), "w") as f:
        json.dump({key: sorted(names) for key, names in _set.items()}, f)


atexit.register(_dump)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


@dataclass(frozen=True)
class Function:
    """One ``def`` in the scanned package."""

    path: str  # real path of the module file
    qualname: str
    first_line: int  # the code object's ``co_firstlineno``
    end_line: int
    parent: Optional[Tuple[str, int]]  # the enclosing def's key, if any

    @property
    def key(self) -> Tuple[str, int]:
        return (self.path, self.first_line)

    @property
    def lines(self) -> int:
        return self.end_line - self.first_line + 1


def defined_functions(package_dir: str) -> List[Function]:
    """Every function and method under ``package_dir``, from the AST."""
    found: List[Function] = []

    def visit(node: ast.AST, path: str, prefix: str, parent) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code object starts at its first
                # decorator
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                fn = Function(path, prefix + child.name, first, child.end_lineno, parent)
                found.append(fn)
                visit(child, path, f"{fn.qualname}.<locals>.", fn.key)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.", parent)
            else:
                visit(child, path, prefix, parent)

    for dirpath, _, files in sorted(os.walk(os.path.realpath(package_dir))):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as f:
                    tree = ast.parse(f.read(), filename=path)
                visit(tree, path, "", None)
    return found


def entered(out_dir: str) -> Set[Tuple[str, int]]:
    """The ``(path, first line)`` keys the profiled processes recorded."""
    seen: Set[Tuple[str, int]] = set()
    for name in os.listdir(out_dir):
        if not name.endswith(".txt"):
            continue
        with open(os.path.join(out_dir, name), encoding="utf-8") as f:
            for row in f:
                path, line = row.rstrip("\n").split("\t")
                seen.add((path, int(line)))
    return seen


def parameters_set(out_dir: str) -> Dict[str, Set[str]]:
    """Each entered table entry -> the parameters it got a non-default for."""
    done: Dict[str, Set[str]] = {}
    for name in os.listdir(out_dir):
        if name.endswith(".json"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as f:
                for key, names in json.load(f).items():
                    done.setdefault(key, set()).update(names)
    return done


def uncalled(functions: Iterable[Function], seen: Set[Tuple[str, int]]) -> List[Function]:
    """Functions never entered, leaving out those nested in one."""
    missing = [fn for fn in functions if fn.key not in seen]
    missing_keys = {fn.key for fn in missing}
    return [fn for fn in missing if fn.parent not in missing_keys]


@dataclass(frozen=True)
class Parameters:
    """The scalar-default parameters of one function, or of one
    dataclass's generated ``__init__`` (its fields)."""

    path: str  # real path of the defining module's file
    qualname: str
    line: int  # the function's first line; the class's for a dataclass
    defaults: Dict[str, object]  # name -> default, in signature order


_SCALARS = (type(None), bool, int, float, str)


def _functions_of(value: object) -> Iterable[object]:
    """The plain functions behind a namespace entry: a descriptor's
    functions, a decorator's wrapped function, or the value itself."""
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    if isinstance(value, property):
        candidates: Iterable[object] = (value.fget, value.fset, value.fdel)
    else:
        candidates = (value,)
    for fn in candidates:
        if callable(fn):
            fn = inspect.unwrap(fn)
            if inspect.isfunction(fn):
                yield fn


def _scalar_defaults(pairs: Iterable[Tuple[str, object]]) -> Dict[str, object]:
    """``name -> default`` for the scalar defaults among ``pairs`` (an
    absent default, ``inspect.Parameter.empty`` or ``MISSING``, is not)."""
    return {name: default for name, default in pairs if type(default) in _SCALARS}


def scalar_parameters(package: str) -> Dict[str, Parameters]:
    """Every scalar-default parameter under the importable ``package``.

    Imports each module (``__main__`` excepted) and tables the functions
    and methods whose code is defined under the package, and the
    dataclasses whose ``__init__`` is generated, keyed the way the hook
    keys them: ``path:first line`` or ``path:class qualname``. Entries
    with no scalar default are left out.
    """
    root = importlib.import_module(package)
    package_dir = os.path.realpath(os.path.dirname(root.__file__)) + os.sep
    modules = [root] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(root.__path__, package + ".")
        if not info.name.endswith(".__main__")
    ]
    table: Dict[str, Parameters] = {}

    def add(key: str, entry: Parameters) -> None:
        if entry.defaults:
            table.setdefault(key, entry)

    def visit(namespace: Dict[str, object], owner_qualname: str) -> None:
        for value in namespace.values():
            if inspect.isclass(value):
                if (value.__module__.split(".")[0] != package
                        or value.__qualname__ != owner_qualname + value.__name__):
                    continue  # from elsewhere, or tabled where it is defined
                path = inspect.getsourcefile(value)
                init = value.__dict__.get("__init__")
                if (dataclasses.is_dataclass(value) and path is not None
                        and inspect.isfunction(init)
                        and init.__code__.co_filename == "<string>"):
                    path = os.path.realpath(path)
                    add(f"{path}:{value.__qualname__}", Parameters(
                        path, value.__qualname__,
                        inspect.getsourcelines(value)[1],
                        _scalar_defaults((f.name, f.default)
                                         for f in dataclasses.fields(value)
                                         if f.init)))
                visit(dict(vars(value)), f"{value.__qualname__}.")
                continue
            for fn in _functions_of(value):
                code = fn.__code__
                path = os.path.realpath(code.co_filename)
                if path.startswith(package_dir):
                    add(f"{path}:{code.co_firstlineno}", Parameters(
                        path, fn.__qualname__, code.co_firstlineno,
                        _scalar_defaults(
                            (p.name, p.default)
                            for p in inspect.signature(fn).parameters.values())))

    for module in modules:
        visit(dict(vars(module)), "")
    return table


def unset_parameters(
    table: Dict[str, Parameters], done: Dict[str, Set[str]]
) -> Dict[str, Tuple[Parameters, List[str]]]:
    """Each entered entry -> its parameters that never got a non-default."""
    return {
        key: (table[key], [n for n in table[key].defaults if n not in done[key]])
        for key in done if key in table
    }


def params_report(unset: Dict[str, Tuple[Parameters, List[str]]], base: str) -> str:
    """The parameter census: per module, each entered function's
    parameters no command set, with their defaults."""
    by_module: Dict[str, List[Tuple[Parameters, List[str]]]] = {}
    for entry, names in unset.values():
        if names:
            by_module.setdefault(os.path.relpath(entry.path, base), []).append(
                (entry, names))
    out = [f"{'module':48s} {'never set':>9s}"]
    for module in sorted(by_module):
        rows = sorted(by_module[module], key=lambda r: r[0].line)
        out.append(f"{module:48s} {sum(len(n) for _, n in rows):9d}")
        for entry, names in rows:
            shown = ", ".join(f"{n}={entry.defaults[n]!r}" for n in names)
            out.append(f"    {entry.qualname} (line {entry.line}): {shown}")
    never = sum(len(names) for _, names in unset.values())
    total = sum(len(entry.defaults) for entry, _ in unset.values())
    out.append(
        f"total: {never} of {total} scalar-default parameters of "
        f"{len(unset)} entered functions never set, in {len(by_module)} modules"
    )
    return "\n".join(out)


def run_profiled(
    commands: Sequence[Tuple[List[str], Optional[str]]],
    package_dir: str,
    python_path: Sequence[str],
    work_dir: str,
    params: Optional[Dict[str, "Parameters"]] = None,
) -> Tuple[Set[Tuple[str, int]], Dict[str, Set[str]]]:
    """Run each ``(argv, stdin)`` under the hook; return what was entered.

    Returns the entered functions' keys and, for each entered entry of
    ``params`` (a :func:`scalar_parameters` table), the parameters it
    received a non-default value for. ``python_path`` goes on
    ``PYTHONPATH`` after the hook's directory. A command that fails is
    reported on stderr and the census goes on: what it entered before
    failing still counts.
    """
    hook_dir = os.path.join(work_dir, "hook")
    out_dir = os.path.join(work_dir, "entered")
    os.makedirs(hook_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as f:
        f.write(_SITECUSTOMIZE)
    table = os.path.join(hook_dir, "params.json")
    with open(table, "w") as f:
        json.dump({key: p.defaults for key, p in (params or {}).items()}, f)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([hook_dir, *python_path])
    env["CALL_CENSUS_DIR"] = out_dir
    env["CALL_CENSUS_PACKAGE"] = os.path.realpath(package_dir) + os.sep
    env["CALL_CENSUS_PARAMS"] = table
    for argv, stdin in commands:
        print("census:", " ".join(argv), file=sys.stderr, flush=True)
        done = subprocess.run(
            argv, env=env, cwd=work_dir, input=stdin, text=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        if done.returncode != 0:
            tail = "\n".join(done.stderr.strip().splitlines()[-5:])
            print(f"census: exit {done.returncode}\n{tail}", file=sys.stderr)
    return entered(out_dir), parameters_set(out_dir)


def census(
    package_dir: str,
    commands: Sequence[Tuple[List[str], Optional[str]]],
    python_path: Sequence[str],
    work_dir: str,
) -> List[Function]:
    """The functions under ``package_dir`` that no command entered."""
    seen, _ = run_profiled(commands, package_dir, python_path, work_dir)
    return uncalled(defined_functions(package_dir), seen)


def report(missing: Sequence[Function], base: str) -> str:
    """The census table: modules by uncalled lines, then each function."""
    by_module: Dict[str, List[Function]] = {}
    for fn in missing:
        by_module.setdefault(os.path.relpath(fn.path, base), []).append(fn)
    order = sorted(by_module, key=lambda m: (-sum(f.lines for f in by_module[m]), m))
    out = [f"{'module':48s} {'functions':>9s} {'lines':>6s}"]
    for module in order:
        fns = by_module[module]
        out.append(f"{module:48s} {len(fns):9d} {sum(f.lines for f in fns):6d}")
        for fn in fns:
            out.append(f"    {fn.qualname} (line {fn.first_line}, {fn.lines} lines)")
    total = sum(fn.lines for fn in missing)
    out.append(
        f"total: {len(missing)} functions, {total} lines in {len(by_module)} modules"
    )
    return "\n".join(out)


def production_commands(work_dir: str) -> List[Tuple[List[str], Optional[str]]]:
    """The entry points the census runs, each as ``(argv, stdin)``."""
    py = sys.executable
    repro = [py, "-m", "repro"]
    examples = os.path.join(ROOT, "examples")
    graph_file = os.path.join(work_dir, "grid.txt")
    with open(graph_file, "w") as f:  # a 12 x 12 grid, both directions
        for r in range(12):
            for c in range(12):
                v = 12 * r + c
                for w in ([v + 1] if c < 11 else []) + ([v + 12] if r < 11 else []):
                    f.write(f"{v} {w}\n{w} {v}\n")
    run_a, run_b, chrome = "run_a.jsonl", "run_b.jsonl", "run.chrome.json"
    serve_trace, telemetry, mutations = "serve.jsonl", "telemetry.jsonl", "mut.jsonl"
    return [
        (repro + ["figures", "--out", "figures"], None),
        *[([py, os.path.join(examples, name)], None)
          for name in sorted(os.listdir(examples)) if name.endswith(".py")],
        ([py, os.path.join(ROOT, "benchmarks", "e2e", "run.py"), "--quick",
          "--seconds", "1"], None),
        ([py, "-m", "pytest", os.path.join(ROOT, "benchmarks"),
          "--ignore", os.path.join(ROOT, "benchmarks", "e2e"),
          "--benchmark-disable", "-q", "-p", "no:cacheprovider",
          "--rootdir", ROOT], None),
        (repro + ["datasets"], None),
        (repro + ["info", "--graph", "twitter-mini"], None),
        (repro + ["run", "--graph", "road-usa-mini", "--algorithm", "sssp",
                  "--trace"], None),
        (repro + ["run", "--graph", "road-ca-mini", "--algorithm", "pagerank",
                  "--engine", "lazy-vertex", "--policy-opt", "max_delta_age=4",
                  "--lens", "--trace-out", run_a], None),
        (repro + ["run", "--algorithm", "pagerank", "--engine", "lazy-block",
                  "--trace-out", run_b], None),
        (repro + ["run", "--algorithm", "sssp", "--engine", "powergraph-sync",
                  "--machines", "8", "--trace-out", chrome,
                  "--trace-format", "chrome"], None),
        (repro + ["compare", "--graph", "enwiki-mini", "--algorithm", "kcore",
                  "--k", "10"], None),
        (repro + ["sweep", "--graph", "web-uk-mini", "--algorithm", "pagerank",
                  "--machine-counts", "8,16"], None),
        (repro + ["validate", "--graph-file", graph_file], None),
        (repro + ["mutate", "--graph", "road-ca-mini", "--algorithm", "pagerank",
                  "--compare-cold", "--out", mutations, "--batch-json",
                  '{"add_edges": [[0, 17]], "remove_edges": [[0, 1]]}'], None),
        (repro + ["serve", "--graph", "road-ca-mini", "--machines", "8",
                  "--max-wait", "0.3", "--trace-out", serve_trace,
                  "--telemetry-out", telemetry, "--telemetry-interval", "0.1"],
         "bfs 0\nbfs 7\nppr 0,5\nbfs 0\n"),
        (repro + ["query", "--algo", "bfs", "--source", "0", "--repeat", "2",
                  "--json"], None),
        (repro + ["analyze", run_a, "--strict"], None),
        (repro + ["analyze", run_a, run_b], None),
        (repro + ["analyze", serve_trace], None),
        (repro + ["analyze", serve_trace, "--run-id", "1"], None),
        (repro + ["analyze", telemetry, "--p95-ms", "60000"], None),
        (repro + ["analyze", mutations], None),
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--params", action="store_true",
                   help="also list the scalar-default parameters of entered "
                        "functions that no entry point set")
    p.add_argument("--keep", metavar="DIR",
                   help="work in DIR and keep it (default: a temporary directory)")
    args = p.parse_args(argv)
    src = os.path.join(ROOT, "src")
    params: Dict[str, Parameters] = {}
    if args.params:
        sys.path.insert(0, src)
        params = scalar_parameters("repro")
    with tempfile.TemporaryDirectory() as tmp:
        work = os.path.abspath(args.keep) if args.keep else tmp
        os.makedirs(work, exist_ok=True)
        package = os.path.join(src, "repro")
        seen, done = run_profiled(
            production_commands(work), package, [src], work, params)
    print(report(uncalled(defined_functions(package), seen), src))
    if args.params:
        print()
        print(params_report(unset_parameters(params, done), src))
    return 0


if __name__ == "__main__":
    sys.exit(main())
