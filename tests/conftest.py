import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test after which this process still has a child, running or
    unreaped: a worker that outlives the call that forked it."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process is left behind ({'running' if pid == 0 else f'pid {pid} unreaped'})")
