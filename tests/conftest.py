"""Suite-wide guards."""

import os
from pathlib import Path

import pytest

import gpme


@pytest.fixture(autouse=True, scope="session")
def children_import_this_gpme():
    """Child interpreters that tests start import gpme from the source
    tree this session imported it from, installed or not."""
    src = str(Path(gpme.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped
    (``gpme run`` forks one to write its field CSVs)."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind "
                f"({'still running' if pid == 0 else f'pid {pid}, unreaped'})")
