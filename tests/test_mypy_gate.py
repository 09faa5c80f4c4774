"""The mypy strict gate over the typed core subset.

The subset (and the pyproject overrides backing it) is the contract CI's
``static-analysis`` job enforces; this test runs the identical command so
the gate is reproducible locally.  Skips cleanly when mypy is not
installed — the container image does not bake it in, CI does.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The strictly-typed subset; must match .github/workflows/ci.yml.
TYPED_SUBSET = [
    "src/repro/runtime/clock.py",
    "src/repro/skyline/dominance.py",
    "src/repro/serve/protocol.py",
    "src/repro/storage/sources/base.py",
]


def test_typed_subset_is_strict_clean():
    pytest.importorskip("mypy")
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--strict", *TYPED_SUBSET],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, (
        f"mypy --strict failed on the typed subset:\n"
        f"{result.stdout}\n{result.stderr}"
    )


def test_typed_subset_files_exist():
    for entry in TYPED_SUBSET:
        assert (REPO_ROOT / entry).exists(), entry
