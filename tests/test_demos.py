"""Smoke test: every demo runs clean.

``transducer_certification.py`` reads the boundary segments and tags,
``multiplier_identities.py`` evaluates the collar fields,
``damped_decay.py`` compares the spectral abscissa with the fitted decay,
``unstable_growth.py`` reports a positive abscissa,
``conserved_interval.py`` tracks the conserved energy and
``harmonic_extension.py`` checks the Neumann map; each runs in
a fresh interpreter with every warning turned into an error.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mgtstab

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "demo",
    [
        "transducer_certification.py",
        "multiplier_identities.py",
        "damped_decay.py",
        "unstable_growth.py",
        "conserved_interval.py",
        "harmonic_extension.py",
    ],
)
def test_demo_exits_cleanly_under_warnings_as_errors(demo):
    src = str(Path(mgtstab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-W", "error", str(DEMOS / demo)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
