"""Run code in a child Python process under an address-space limit.

A refusal that comes too late shows up as a MemoryError traceback in the
child instead of exhausting the test runner's memory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hadamardesque

GIB = 1 << 30
_SRC = str(Path(hadamardesque.__file__).resolve().parents[1])


def run_limited(code: str, *args: str, limit: int, timeout: float = 60):
    """Run `python -c code *args` with RLIMIT_AS = limit bytes; skip where unsupported."""
    pytest.importorskip("resource")
    # The child sets its own limit before it imports the package.
    prelude = f"import resource; resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
    env = {**os.environ, "PYTHONPATH": _SRC, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-c", prelude + code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def run_cli_limited(*argv: str, limit: int = 3 * GIB):
    """Run the hadamardesque CLI in a child process under an address-space limit."""
    code = "import sys; from hadamardesque.cli import main; raise SystemExit(main(sys.argv[1:]))"
    return run_limited(code, *argv, limit=limit)
