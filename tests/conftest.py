"""Shared fixtures: the shipped baseline design and solver settings, and the
two ways the suite runs the CLI: ``run_main`` calls ``snapgrip.cli.main``
in the test process, ``run_cli`` starts a fresh ``python -m snapgrip.cli``
for the tests where a new interpreter is the point."""

import contextlib
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from snapgrip import model
from snapgrip.cli import main
from snapgrip.config import build_design, build_solver_settings, load_config

# numpy loads through the package before any test module imports it, with
# one OpenBLAS thread, as in a CLI call that builds arrays.
model._load_numpy()

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE_CFG = REPO_ROOT / "configs" / "baseline.cfg"


def child_env():
    """Environment for a child Python that imports this checkout.

    The checkout's ``src`` goes first on the child's ``PYTHONPATH`` as an
    absolute path, so the child imports this checkout from any working
    directory, with or without an installed package. Entries already on
    ``PYTHONPATH`` are kept after it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def run_cli(*args, cwd):
    """Run ``python -m snapgrip.cli *args`` in ``cwd`` and capture its output."""
    return subprocess.run([sys.executable, "-m", "snapgrip.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=child_env())


def run_main(*args, cwd):
    """Call ``snapgrip.cli.main(list(args))`` in ``cwd`` and capture its
    output, in the form ``run_cli`` returns.

    A warning raised during the call is written to the captured stderr as
    the interpreter prints it, once per location, so a check on stderr
    sees what a real process would print. An exception that escapes
    ``main`` propagates and fails the test.
    """
    stdout, stderr = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        stderr.write(warnings.formatwarning(message, category, filename,
                                            lineno, line))

    old_cwd = os.getcwd()
    os.chdir(cwd)
    try:
        with warnings.catch_warnings(), \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("default")
            warnings.showwarning = show
            returncode = main(list(args))
    finally:
        os.chdir(old_cwd)
    return subprocess.CompletedProcess(["snapgrip", *args], returncode,
                                       stdout.getvalue(), stderr.getvalue())


@pytest.fixture(scope="session")
def baseline_doc():
    return load_config(BASELINE_CFG)


@pytest.fixture(scope="session")
def baseline(baseline_doc):
    return build_design(baseline_doc)


@pytest.fixture(scope="session")
def settings(baseline_doc):
    return build_solver_settings(baseline_doc)
