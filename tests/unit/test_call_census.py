"""The call census reports exactly the functions no command entered, and
the scalar-default parameters no command set.

Runs ``tests/tools/call_census.py``'s scanner on small packages
written under ``tmp_path``, in a child interpreter (the path the census
takes for every entry point), without importing ``repro``.
"""

import sys
from pathlib import Path

from tests.tools.call_census import (
    census, params_report, report, run_profiled, scalar_parameters,
    unset_parameters,
)

MODULE = '''\
import functools


@functools.lru_cache(maxsize=None)
def used():
    return 1


def unused():
    return 2
'''


def test_reports_exactly_the_uncalled_function(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(MODULE)
    work = tmp_path / "work"
    work.mkdir()
    command = [sys.executable, "-c", "import pkg.mod; pkg.mod.used()"]
    missing = census(str(pkg), [(command, None)], [str(tmp_path)], str(work))
    assert [(Path(fn.path).name, fn.qualname, fn.lines) for fn in missing] == [
        ("mod.py", "unused", 2)
    ]
    assert report(missing, str(tmp_path)).endswith(
        "total: 1 functions, 2 lines in 1 modules"
    )


PARAMS_MODULE = '''\
from dataclasses import dataclass, field


def called(a=1, b="x", c=None, d=2.5, *, e=True, items=()):
    return a


def uncalled(z=None):
    return z


@dataclass
class Config:
    x: int = 0
    y: float = 1.0
    tags: list = field(default_factory=list)


class Sub(Config):
    pass


@dataclass
class Unbuilt:
    w: int = 0
'''


def test_params_reports_exactly_the_unset_defaults(tmp_path, monkeypatch):
    pkg = tmp_path / "cenpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(PARAMS_MODULE)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.syspath_prepend(str(tmp_path))
    table = scalar_parameters("cenpkg")
    assert sorted(p.qualname for p in table.values()) == [
        "Config", "Unbuilt", "called", "uncalled"
    ]
    # c is passed its default; the dataclass is built through a subclass
    command = [sys.executable, "-c",
               "from cenpkg.mod import called, Sub\n"
               "called(2, c=None, e=False, items=[1])\n"
               "called(1, b='x')\n"
               "Sub(y=2.0)"]
    _, done = run_profiled([(command, None)], str(pkg), [str(tmp_path)],
                           str(work), table)
    unset = unset_parameters(table, done)
    assert sorted((p.qualname, names) for p, names in unset.values()) == [
        ("Config", ["x"]), ("called", ["b", "c", "d"])
    ]
    assert params_report(unset, str(tmp_path)).endswith(
        "total: 4 of 7 scalar-default parameters of 2 entered functions "
        "never set, in 1 modules"
    )
