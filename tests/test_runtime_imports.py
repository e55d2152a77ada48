import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# the top-level names of the modules that importing the package loads into a
# fresh interpreter; by object, since multiprocessing files __main__ again as __mp_main__
PROBE = """
import sys
before = {id(m) for m in sys.modules.values()}
import phasesplit, phasesplit.cli, phasesplit.checks
print("\\n".join(sorted({n.partition(".")[0] for n, m in sys.modules.items() if id(m) not in before})))
"""


def test_runtime_imports_only_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True).stdout
    loaded = set(out.split())
    assert "phasesplit" in loaded and "numpy" in loaded
    assert loaded - {"phasesplit", "numpy"} - sys.stdlib_module_names == set()
