"""The proof kernel stands alone: it imports only `math`, and gives a join
its root stage with numpy unavailable, bit for bit."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import spexplanar
from spexplanar import hub_join_radii, kernel


def test_the_kernel_imports_only_math():
    tree = ast.parse(Path(kernel.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"__future__", "math"}


def test_the_kernel_runs_with_numpy_unavailable():
    # the root stage in Python floats, in an interpreter where any
    # `import numpy` raises, against the join alone and its row of a
    # numpy batch here: float reprs round-trip, so equal reprs are equal
    # bits
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "from spexplanar.kernel import join_radius\n"
            "print(repr(join_radius([150, 60, 47], True)))\n")
    src = str(Path(spexplanar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    alone, row = hub_join_radii([[150, 60, 47]], True) + hub_join_radii(
        [[150, 60, 47], [200, 56, 1]], True)[:1]
    assert alone == row
    assert proc.stdout == repr(tuple(alone)) + "\n"
