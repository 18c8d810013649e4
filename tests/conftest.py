"""Shared fixtures: the shipped baseline design and solver settings, and the
one way the suite starts the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from snapgrip.config import build_design, build_solver_settings, load_config

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


@pytest.fixture(scope="session")
def baseline_doc():
    return load_config(BASELINE_CFG)


@pytest.fixture(scope="session")
def baseline(baseline_doc):
    return build_design(baseline_doc)


@pytest.fixture(scope="session")
def settings(baseline_doc):
    return build_solver_settings(baseline_doc)
