"""What importing the package loads: counted in a fresh interpreter, not timed.

Every `minins` process pays for its imports before it simulates
anything, so the package keeps heavy standard modules off that path.
"""

import os
import subprocess
import sys
from pathlib import Path

import minins

SRC = str(Path(minins.__file__).resolve().parents[1])


def modules_loaded_by(statement):
    """Names that `statement` adds to sys.modules in a new interpreter."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_import_minins_loads_no_heavy_standard_modules():
    loaded = modules_loaded_by("import minins")
    assert "minins.sim" in loaded  # the statement really imported the package
    # Each of these costs milliseconds that every run pays before simulating.
    assert not loaded & {"dataclasses", "inspect", "ast", "argparse", "json", "hashlib",
                         "tempfile"}


def test_import_cli_leaves_golden_to_validate():
    loaded = modules_loaded_by("import minins.cli")
    assert "minins.cli" in loaded
    assert "minins.golden" not in loaded
