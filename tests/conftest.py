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
