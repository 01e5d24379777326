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
keeps a ``timeline`` list. A sixth pins that a dense sweep takes its
flags off the folded values: under ``src/`` nothing defines or calls a
``complement(...)`` edge list or keeps per-target ``_one_edge_in``
counts. A seventh keeps the shared Apply rules on NumPy's fast paths,
both forms (``docs/performance.md``, "NumPy fast paths"):
``algorithms/apply_rules.py`` calls no ``np.where``, passes no
``where=`` and stores through no boolean mask. An eighth pins that a
mutation patch splices the partition instead of rebuilding it:
``patch_partition`` calls no ``build``. A ninth keeps the warm-start
planner batch-sized: its ``_plan_*`` functions and ``_Planning`` build
no CSR (``out_csr`` / ``in_csr``), sort nothing by key
(``stable_argsort`` / ``argsort``) and call no plain ``np.unique``. A
tenth pins one per-edge declaration: no built-in program class defines
``edge_message``, so every one runs the derivation from its
``edge_transform``.
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


def complement_flag_uses(path: Path) -> list:
    """The complement-count flags a dense sweep used to compute: a
    ``complement`` definition or call, any ``_one_edge_in`` name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        name = None
        if isinstance(node, ast.FunctionDef) and node.name == "complement":
            name = "complement"
        elif isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "attr", getattr(func, "id", "")) == "complement":
                name = "complement"
        elif getattr(node, "attr", getattr(node, "id", "")) == "_one_edge_in":
            name = "_one_edge_in"
        if name is not None:
            found.append((node.lineno, name))
    return [f"{path.relative_to(ROOT)}:{line} {name}" for line, name in sorted(found)]


def test_dense_flags_come_from_values():
    found = [
        hit for path in FILES
        if path.parts[len(ROOT.parts)] == "src"
        for hit in complement_flag_uses(path)
    ]
    assert not found, "\n".join(found)


_BOOL_BINOPS = (ast.BitAnd, ast.BitOr, ast.BitXor)


def _is_mask(node: ast.AST, masks: set) -> bool:
    """A comparison, a ``~`` / ``not`` / ``&`` / ``|`` / ``^``
    expression, or a name bound to one."""
    return (
        isinstance(node, ast.Compare)
        or isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.Invert, ast.Not))
        or isinstance(node, ast.BinOp) and isinstance(node.op, _BOOL_BINOPS)
        or isinstance(node, ast.Name) and node.id in masks
    )


def masked_numpy(path: Path) -> list:
    """``np.where`` calls, ``where=`` keywords and subscript stores
    whose index is a boolean mask (:func:`_is_mask`)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    masks: set = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_mask(node.value, masks):
            masks.update(t.id for t in node.targets if isinstance(t, ast.Name))
    found = []
    for node in ast.walk(tree):
        name = None
        if isinstance(node, ast.Call):
            if getattr(node.func, "attr", getattr(node.func, "id", "")) == "where":
                name = "np.where"
            elif any(kw.arg == "where" for kw in node.keywords):
                name = "where="
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.ctx, ast.Store)
              and _is_mask(node.slice, masks)):
            name = "mask-store"
        if name is not None:
            found.append((node.lineno, name))
    return [f"{path.relative_to(ROOT)}:{line} {name}" for line, name in sorted(found)]


def test_apply_rules_stay_on_fast_paths():
    rules = ROOT / "src" / "repro" / "algorithms" / "apply_rules.py"
    assert not masked_numpy(rules), "\n".join(masked_numpy(rules))


def rebuild_calls(path: Path) -> list:
    """``build(...)`` calls (any owner) inside a ``patch_partition``."""
    found = []
    for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (isinstance(func, ast.FunctionDef)
                and func.name == "patch_partition"):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and getattr(
                node.func, "attr", getattr(node.func, "id", "")
            ) == "build":
                found.append((node.lineno, "build"))
    return [f"{path.relative_to(ROOT)}:{line} {name}" for line, name in sorted(found)]


def test_patch_never_rebuilds():
    dynamic = ROOT / "src" / "repro" / "partition" / "dynamic.py"
    assert not rebuild_calls(dynamic), "\n".join(rebuild_calls(dynamic))


_WHOLE_GRAPH_CALLS = ("out_csr", "in_csr", "stable_argsort", "argsort")


def whole_graph_calls(path: Path) -> list:
    """Sorting and CSR calls inside the warm-start planner's ``_plan_*``
    functions and ``_Planning``: ``out_csr`` / ``in_csr`` /
    ``stable_argsort`` / ``argsort`` (any owner) and ``np.unique``
    without keywords (ROADMAP 3(c))."""
    found = []
    for top in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (isinstance(top, (ast.FunctionDef, ast.ClassDef))
                and top.name.lower().startswith("_plan")):
            continue
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", ""))
            if name in _WHOLE_GRAPH_CALLS:
                found.append((node.lineno, name))
            elif (name == "unique" and not node.keywords
                  and getattr(node.func.value, "id", "") == "np"):
                found.append((node.lineno, "np.unique"))
    return [f"{path.relative_to(ROOT)}:{line} {name}" for line, name in sorted(found)]


def test_warm_plan_stays_batch_sized():
    planner = ROOT / "src" / "repro" / "runtime" / "warm_start.py"
    assert not whole_graph_calls(planner), "\n".join(
        whole_graph_calls(planner)
    )


def test_built_in_programs_declare_only_the_transform():
    import repro.algorithms as algorithms
    from repro.algorithms.apply_rules import DampedSumProgram, MinRelaxProgram
    from repro.api.vertex_program import DeltaProgram

    exported = [getattr(algorithms, name) for name in algorithms.__all__]
    classes = {
        obj for obj in exported
        if isinstance(obj, type) and issubclass(obj, DeltaProgram)
    } | {DampedSumProgram, MinRelaxProgram}
    assert len(classes) == len(algorithms.program_names()) + 2
    defining = sorted(c.__name__ for c in classes if "edge_message" in vars(c))
    assert defining == []



def test_both_lazy_engines_share_one_constructor():
    from repro.core.lazy_block_async import LazyBlockAsyncEngine
    from repro.core.lazy_vertex_async import LazyVertexAsyncEngine

    assert "__init__" not in vars(LazyVertexAsyncEngine)
    # the constructor stays in lazy-block's own class body: the e2e
    # benchmark's wrapper (benchmarks/e2e/lgbench/tracing.py) times
    # runtime.engine_init_s by wrapping LazyBlockAsyncEngine.__init__,
    # and its seam test requires the attribute in the owner's __dict__
    assert "__init__" in vars(LazyBlockAsyncEngine)

#: the idempotent planner's taint closure before it walked the resident
#: partition (``tests/warm_plan_oracle.py``), plus two calls it may keep
_PARENT_WARM_PLAN = """\
def _plan_idempotent(program, old_graph, new_graph, old_state, removed):
    out_indptr, out_eids = old_graph.out_csr()
    frontier = np.flatnonzero(tainted)
    while frontier.size:
        spans = [
            out_eids[out_indptr[v]: out_indptr[v + 1]]
            for v in frontier.tolist()
        ]
        support = (msgs == F[tgt]) & (F[tgt] != init[tgt]) & ~tainted[tgt]
        frontier = np.unique(tgt[support])
        tainted[frontier] = True
    _, first = np.unique(keys, return_index=True)
    return np.sort(sel)
def graph_delta(old_graph, new_graph):
    return np.argsort(old_graph.src, kind="stable")
"""


#: how ``patch_partition`` materialized a patch before it spliced the
#: carried partition (``repartition_worst`` may still rebuild)
_PARENT_PATCH_REBUILD = """\
def patch_partition(old_pgraph, new_graph, diff):
    assignment = np.concatenate([carried, placed])
    new_pgraph = PartitionedGraph.build(new_graph, assignment, P)
    return new_pgraph, stats
def repartition_if_needed(pgraph, baseline_lambda, threshold):
    return PartitionedGraph.build(pgraph.graph, refined, pgraph.num_machines)
"""


#: how PageRank's Apply spelled its out-delta and reset before the
#: shared rules gathered, computed unmasked and scattered back by index,
#: and the mask store and masked ufunc docs/performance.md measured
_PARENT_MASKED_APPLY = """\
def apply(self, mg, state, idx, accum):
    change = self.damping * accum
    pending = state["pending"][idx]
    pending += change
    fire = np.abs(pending) > self.tolerance
    delta_out = np.where(fire, pending, 0.0)
    state["pending"][idx] = np.where(fire, 0.0, pending)
    kept = pending.copy()
    kept[fire] = 0.0
    age[~has_delta] = 0
    np.add(rank, change, out=rank, where=fire)
    pending[np.flatnonzero(fire)] = 0.0
    return delta_out, fire
"""


#: how ``MachineRuntime`` and ``CSRPlan`` spelled the complement flags
#: before a dense sweep read them off the values
_PARENT_COMPLEMENT_FLAGS = """\
class CSRPlan:
    def complement(self, idx, total):
        return self._expand(self.indptr[comp], self.counts[comp], rest)
class MachineRuntime:
    def __init__(self, mg):
        self._one_edge_in = self.out_plan.dst_counts_full
    def _padded_sweep(self, idx, total, tgt, n):
        skipped = plan.complement(idx, total)
        self.has_delta |= self._one_edge_in > np.bincount(
            tgt[skipped[k]], minlength=n
        )
# the kept ids are the complement
"""


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
    (_PARENT_COMPLEMENT_FLAGS, complement_flag_uses,
     ["complement", "_one_edge_in", "complement", "_one_edge_in"]),
    (_PARENT_MASKED_APPLY, masked_numpy,
     ["np.where", "np.where", "mask-store", "mask-store", "where="]),
    (_PARENT_PATCH_REBUILD, rebuild_calls, ["build"]),
    (_PARENT_WARM_PLAN, whole_graph_calls, ["out_csr", "np.unique"]),
], ids=["unused", "string-annotation", "dunder-all", "dead", "closure", "tuple",
        "class-attribute", "clock-write", "clock-read-and-copy",
        "machine-writer", "parent-snapshot-calls", "superstep-record",
        "parent-complement-flags",
        "parent-masked-apply", "parent-patch-rebuild",
        "parent-warm-plan"])
def test_the_scanner_itself(tmp_path, monkeypatch, source, finder, expected):
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    path = tmp_path / "mod.py"
    path.write_text(source)
    assert [hit.split()[-1] for hit in finder(path)] == expected
