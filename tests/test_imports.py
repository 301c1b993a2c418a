"""Import structure, each checked in a fresh interpreter.

Inside one pytest process the import order is fixed by whichever test
ran first, which hides import cycles and loads layers a booted system
never asks for; a subprocess per check does not.

* Every ``repro`` subpackage, and every module of the packages whose
  ``__init__`` imports nothing, imports on its own.
* A booted system that has run a user program has loaded none of the
  layers on top of it: the benchmark harness, the injection campaign,
  the source survey, the call micro-bench and the user mixes.
"""

from __future__ import annotations

import importlib
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

#: Packages whose ``__init__`` is a docstring: importing the package
#: does not import its modules, so each is checked on its own.
DOCSTRING_PACKAGES = ("repro.analysis", "repro.workloads")

MODULES = sorted(
    module.name
    for package in DOCSTRING_PACKAGES
    for module in pkgutil.iter_modules(
        importlib.import_module(package).__path__, package + "."
    )
)

#: Modules that booting a system and running a user program must not
#: load: ``repro.bench`` and ``repro.inject`` sit on top of the kernel,
#: and the kernel's module loader needs only the binary scan and the
#: verifier of ``repro.analysis``.
NOT_LOADED_BY_A_BOOT = (
    "repro.bench",
    "repro.inject",
    "repro.analysis.corpus",
    "repro.analysis.csource",
    "repro.analysis.gadgets",
    "repro.analysis.semanticpatch",
    "repro.analysis.survey",
    "repro.workloads.callbench",
    "repro.workloads.userspace",
)

BOOT_AND_RUN = """
import sys
from repro.workloads.guest import syscall_cycles
from repro.workloads.lmbench import build_lmbench_system

system = build_lmbench_system("full")
system.map_user_stack()
syscall_cycles(system, "null_call", 1, x0=3)
print(*sorted(sys.modules))

# What repro.observe exports still resolves, loaded on first access.
import repro.observe as observe
from repro.observe import ProfileSession
from repro.observe.profiler import ProfileSession as defined

assert ProfileSession is defined
assert all(getattr(observe, name) for name in observe.__all__)
assert not hasattr(observe, "no_such_name")
"""


def _run(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_subpackages_found():
    assert {"repro.arch", "repro.mem", "repro.hyp", "repro.kernel"} <= set(
        SUBPACKAGES
    )


def test_docstring_package_modules_found():
    assert {
        "repro.analysis.verifier",
        "repro.analysis.survey",
        "repro.workloads.guest",
        "repro.workloads.userspace",
    } <= set(MODULES)


@pytest.mark.parametrize("name", SUBPACKAGES + MODULES)
def test_imports_alone(name):
    _run(f"import {name}")


def test_a_booted_system_loads_no_layer_above_it():
    loaded = _run(BOOT_AND_RUN).split()
    assert "repro.kernel.system" in loaded
    above = [
        name
        for name in loaded
        if any(
            name == banned or name.startswith(banned + ".")
            for banned in NOT_LOADED_BY_A_BOOT
        )
    ]
    assert above == []
