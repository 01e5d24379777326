"""The call census reports exactly the functions no command entered.

Runs ``tests/tools/call_census.py``'s scanner on a two-function package
written under ``tmp_path``, in a child interpreter (the path the census
takes for every entry point), without importing ``repro``.
"""

import sys
from pathlib import Path

from tests.tools.call_census import census, report

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
