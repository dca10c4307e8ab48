import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(code, env=None):
    """Run `code` in a fresh interpreter on this source tree.

    `env` maps variable names to the values the child sees on top of this
    process's environment; a value of None removes the variable.  In-process
    `main` calls leave `OPENBLAS_THREAD_TIMEOUT` set in this process, so a
    child that must start without it passes {"OPENBLAS_THREAD_TIMEOUT": None}.
    Returns the CompletedProcess, with text stdout and stderr.
    """
    child = dict(os.environ)
    child["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [child.get("PYTHONPATH")] if p])
    for name, value in (env or {}).items():
        if value is None:
            child.pop(name, None)
        else:
            child[name] = value
    return subprocess.run([sys.executable, "-c", code], env=child,
                          capture_output=True, text=True, cwd=ROOT)
