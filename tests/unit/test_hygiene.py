"""The F-gate, checkable without ruff: no unused imports, no dead locals.

CI's ``lint`` job runs ``ruff check`` with the pyflakes rules selected;
ruff is not installed everywhere this suite runs, so the two findings a
deletion-heavy change leaves behind — an import nothing reads any more
(F401) and a local that is assigned and never read (F841) — are scanned
here with the stdlib ``ast`` module over the same trees the lint job
covers (``benchmarks/e2e`` is the benchmark's own and is not edited).
A third scan pins one owner of the staleness clock: under ``src/`` only
``MachineRuntime`` writes ``delta_age``, and nothing keeps its own ages.
A fourth pins one writer of per-machine work records: one tracer call
under ``src/`` writes a ``machine``-category record
(``BaseEngine._compute_pass``, one ``machine-work`` span per pass).
A fifth pins one per-superstep record: the ``superstep`` span, whose
``active`` attribute the engines set. Under ``src/`` nothing calls
``stats.snapshot(...)`` or a tracer's ``.counter(...)``, and nothing
keeps a ``timeline`` list.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
FILES = sorted(
    path
    for top in ("src", "tests", "benchmarks")
    for path in (ROOT / top).rglob("*.py")
    if "e2e" not in path.relative_to(ROOT).parts
)
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _names_read(tree: ast.AST) -> set:
    """Every identifier the module reads: loads, plus the identifiers in
    string annotations and ``__all__`` entries."""
    read = set()
    quoted = []  # subtrees whose string constants name identifiers
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            quoted.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            quoted.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            quoted.append(node.annotation)
        elif isinstance(node, (ast.Assign, ast.AugAssign)) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in getattr(node, "targets", [getattr(node, "target", None)])
        ):
            quoted.append(node.value)
    for sub in filter(None, quoted):
        for node in ast.walk(sub):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.update(_IDENT.findall(node.value))
    return read


def unused_imports(path: Path) -> list:
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    read = _names_read(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound != "*" and bound not in read:
                found.append(f"{path.relative_to(ROOT)}:{node.lineno} {bound}")
    return found


def _own_scope(func: ast.AST):
    """The statements of ``func``'s own scope: nested functions are
    scanned on their own, class bodies bind attributes, not locals."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            stack.extend(ast.iter_child_nodes(node))


def dead_locals(path: Path) -> list:
    """Plain single-target ``x = ...`` in a function, ``x`` never read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read, shared = set(), set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                shared.update(node.names)
            elif isinstance(node, ast.Call) and getattr(
                node.func, "id", ""
            ) in ("locals", "vars"):
                shared.add("*")  # every local may be read by name
        if "*" in shared:
            continue
        for node in _own_scope(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target = node.target
            else:
                continue
            if (
                isinstance(target, ast.Name)
                and not target.id.startswith("_")
                and target.id not in read
                and target.id not in shared
            ):
                found.append(
                    f"{path.relative_to(ROOT)}:{node.lineno} {target.id}"
                )
    return sorted(set(found))


def test_the_scan_covers_the_three_trees():
    tops = {path.relative_to(ROOT).parts[0] for path in FILES}
    assert tops == {"src", "tests", "benchmarks"}


def test_no_unused_imports():
    found = [
        hit for path in FILES if path.name != "__init__.py"
        for hit in unused_imports(path)
    ]
    assert not found, "\n".join(found)


def test_no_dead_locals():
    found = [hit for path in FILES for hit in dead_locals(path)]
    assert not found, "\n".join(found)


def delta_age_writes(path: Path) -> list:
    """Stores into a ``delta_age`` attribute or an item of it (``+=``
    included), and any ``_age`` / ``_ages`` attribute: a second clock."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        attr = node.value if isinstance(node, ast.Subscript) else node
        if isinstance(attr, ast.Attribute) and (
            attr.attr in ("_age", "_ages")
            or attr.attr == "delta_age" and isinstance(node.ctx, ast.Store)
        ):
            found.append(f"{path.relative_to(ROOT)}:{node.lineno} {attr.attr}")
    return sorted(set(found))


def test_one_staleness_clock_owner():
    owner = ROOT / "src" / "repro" / "runtime" / "machine_runtime.py"
    found = [
        hit for path in FILES
        if path.parts[len(ROOT.parts)] == "src" and path != owner
        for hit in delta_age_writes(path)
    ]
    assert not found, "\n".join(found)
    assert delta_age_writes(owner)


def machine_record_writes(path: Path) -> list:
    """Tracer calls (``span`` / ``emit_closed_span`` / ``instant``) that
    write a ``machine``-category record or one named ``machine-work``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("span", "emit_closed_span", "instant")
        ):
            continue
        args = node.args[:2] + [
            kw.value for kw in node.keywords if kw.arg == "category"
        ]
        for arg in args:
            if isinstance(arg, ast.Constant) and arg.value in (
                "machine", "machine-work"
            ):
                found.append(
                    f"{path.relative_to(ROOT)}:{node.lineno} {arg.value}"
                )
                break
    return found


def test_one_machine_record_writer():
    found = [
        hit for path in FILES
        if path.parts[len(ROOT.parts)] == "src"
        for hit in machine_record_writes(path)
    ]
    assert [hit.split(":")[0] for hit in found] == [
        "src/repro/runtime/base_engine.py"
    ], found


def superstep_record_writes(path: Path) -> list:
    """A second per-superstep record: ``stats.snapshot(...)`` calls,
    ``.counter(...)`` on a tracer, stores into a ``timeline`` attribute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        name = None
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            owner = getattr(owner, "attr", getattr(owner, "id", ""))
            if (node.func.attr == "snapshot" and owner == "stats"
                    or node.func.attr == "counter" and "tracer" in owner.lower()):
                name = node.func.attr
        elif (isinstance(node, ast.Attribute) and node.attr == "timeline"
              and isinstance(node.ctx, ast.Store)):
            name = node.attr
        if name is not None:
            found.append((node.lineno, name))
    return [f"{path.relative_to(ROOT)}:{line} {name}" for line, name in sorted(found)]


def test_one_superstep_record():
    found = [
        hit for path in FILES
        if path.parts[len(ROOT.parts)] == "src"
        for hit in superstep_record_writes(path)
    ]
    assert not found, "\n".join(found)


#: the seven ``RunStats.snapshot`` calls the engines made before
#: ``active`` moved onto the superstep span
_PARENT_SNAPSHOT_CALLS = """\
sim.stats.snapshot(active=0, do_local=do_local)
sim.stats.snapshot(active=active, trend=trend, do_local=do_local,
                   mode=report.mode.value, exchanged=report.vertices_exchanged)
sim.stats.snapshot(active=self._global_active_count(),
                   exchanged=report.vertices_exchanged, mode=report.mode.value)
sim.stats.snapshot(active=self._global_active_count(),
                   gather_msgs=traffic.gather_msgs, bcast_msgs=traffic.bcast_msgs)
sim.stats.snapshot(active=int(active.sum()), gather_msgs=gather_msgs)
sim.stats.snapshot(active=0, msgs=0)
sim.stats.snapshot(active=self._global_active_count(), msgs=traffic.total_msgs)
"""


@pytest.mark.parametrize("source, finder, expected", [
    ("import os\nimport sys\nprint(sys.argv)\n", unused_imports, ["os"]),
    ("from typing import List\nx: 'List[int]' = []\n", unused_imports, []),
    ("from a import b\n__all__ = ['b']\n", unused_imports, []),
    ("def f():\n    n = 1\n    m = 2\n    return m\n", dead_locals, ["n"]),
    ("def f():\n    n = 1\n    return lambda: n\n", dead_locals, []),
    ("def f():\n    a, b = 1, 2\n    return a\n", dead_locals, []),
    ("def f():\n    class C:\n        attr = 1\n    return C\n", dead_locals, []),
    ("rt.delta_age[m] = 0\nrt.delta_age += 1\n", delta_age_writes,
     ["delta_age", "delta_age"]),
    ("due = rt.delta_age >= 3\nself._ages = []\n", delta_age_writes, ["_ages"]),
    ("t.span('w', category='machine')\nt.instant('machine-work', m=0)\n"
     "t.emit_closed_span('w', 'machine', 0, 1, {})\n"
     "t.span('p', category='phase')\nt.instant('sweep-mode')\n",
     machine_record_writes, ["machine", "machine-work", "machine"]),
    (_PARENT_SNAPSHOT_CALLS, superstep_record_writes, ["snapshot"] * 7),
    ("self._tracer.counter('active_vertices', 3)\n"
     "NULL_TRACER.counter('x', 1.0)\nself.timeline: list = []\n"
     "plane.timeline = []\nself.metrics.counter('serve.queries').inc()\n"
     "win.snapshot(now)\nentry = self.timeline[-1]\n",
     superstep_record_writes, ["counter", "counter", "timeline", "timeline"]),
], ids=["unused", "string-annotation", "dunder-all", "dead", "closure", "tuple",
        "class-attribute", "clock-write", "clock-read-and-copy",
        "machine-writer", "parent-snapshot-calls", "superstep-record"])
def test_the_scanner_itself(tmp_path, monkeypatch, source, finder, expected):
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    path = tmp_path / "mod.py"
    path.write_text(source)
    assert [hit.split()[-1] for hit in finder(path)] == expected
