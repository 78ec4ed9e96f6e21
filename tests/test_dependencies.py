"""The package imports with numpy alone: no scipy, no numba."""
import subprocess
import sys


def test_cli_import_pulls_in_neither_scipy_nor_numba():
    # a fresh interpreter, since other tests import scipy into this process
    code = ("import dphmm.cli, sys; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy', 'numba'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
