"""Every ``repro`` subpackage imports on its own in a fresh interpreter.

Inside one pytest process the import order is fixed by whichever test
ran first, which hides import cycles; a subprocess per package does not.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SUBPACKAGES = sorted(
    module.name
    for module in pkgutil.iter_modules(repro.__path__, "repro.")
    if module.ispkg
)


def test_subpackages_found():
    assert {"repro.arch", "repro.mem", "repro.hyp", "repro.kernel"} <= set(
        SUBPACKAGES
    )


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_imports_alone(package):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
