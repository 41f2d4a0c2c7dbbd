import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cursedeq import games
from cursedeq.partition import coarsest_valid_partition


@pytest.fixture(scope="session")
def paper():
    """All bundled paper games with their coarse partitions."""
    out = {}
    for name in games.BUNDLED_DOCUMENTS:
        tree = games.bundled_game(name)
        out[name] = (tree, coarsest_valid_partition(tree))
    return out


@pytest.fixture
def failing_certification(monkeypatch):
    """Every limit system reaches its owner set with probability zero, so no
    candidate passes the limit certification."""
    from cursedeq import solvers
    from cursedeq.conjectures import LimitDiagnostics

    exact = solvers.limit_diagnostics

    def zero_owner_reach(*args, **kwargs):
        return LimitDiagnostics(dict.fromkeys(exact(*args, **kwargs).owner_reach, 0.0))

    monkeypatch.setattr(solvers, "limit_diagnostics", zero_owner_reach)
