import sys
from contextlib import ExitStack
from pathlib import Path

import pytest

# make tests/helpers.py importable regardless of rootdir configuration
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def record():
    """``events = record(sim)``: a recording window on ``sim`` that stays
    open until the test ends, for a test that reads its whole run."""
    with ExitStack() as stack:
        yield lambda sim: stack.enter_context(sim.recording())
