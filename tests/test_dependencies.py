"""Guards on what the package depends on: pinned constants, no scipy at run time."""

import math
import os
import subprocess
import sys
from pathlib import Path

import cavitycharge
from cavitycharge.quantities import CODATA


def test_codata_2022_values_are_pinned():
    assert CODATA.edition == "CODATA 2022"
    assert CODATA.e == 1.602176634e-19
    assert CODATA.h == 6.62607015e-34
    assert CODATA.c == 299792458.0
    assert CODATA.eps0 == 8.8541878188e-12
    assert CODATA.amu == 1.66053906892e-27
    assert CODATA.m_e == 9.1093837139e-31
    assert CODATA.hbar == CODATA.h / (2 * math.pi)
    assert CODATA.k_e == 1.0 / (4.0 * math.pi * CODATA.eps0)


def test_cli_import_loads_no_scipy():
    src = str(Path(cavitycharge.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = (
        "import sys, cavitycharge.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"
