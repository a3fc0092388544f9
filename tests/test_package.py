import subprocess
import sys

import corgw


def test_all_exports_resolve():
    # The export table is resolved lazily, so a stale entry would only fail
    # when that name is first used.
    for name in corgw.__all__:
        getattr(corgw, name)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import corgw\nfrom corgw import *\n"
         "print([n for n in corgw.__all__ if n not in globals()])"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
