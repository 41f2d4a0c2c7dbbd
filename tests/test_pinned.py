"""Pinned solver outputs: the exact bytes a fixed config and seed produce
(``to_text()`` and the iteration count of tree solves, ``repr`` of static
CE/ICE strategies and of the price harness's cells at G = 7).

The determinism tests compare two calls of the same code; this one compares
against outputs recorded earlier, so a refactor of the solver driver that
changes any result or fallback path shows up here.  Every solve runs at the
default tolerance, and the tree solves are labelled seed 7.  The static key
names keep the restart count they were recorded at: ``121:2`` was recorded
at two restarts, all three starts failed and support enumeration settled
it, as it now does after the one start, so the recorded bytes stand.  The
static games are 2-player, where CE and ICE coincide, except the 3-player
game 90021, whose CE and ICE profiles differ by 0.75.

Regenerate the data file only for a deliberate change of results:
``PYTHONPATH=src python tests/test_pinned.py``.
"""

import json
import random
from pathlib import Path

from cursedeq import games
from cursedeq.bayesian import random_bayesian_game, solve_ce, solve_ice
from cursedeq.golden import prices_predictions
from cursedeq.partition import coarsest_valid_partition
from cursedeq.solvers import SolverConfig, solve_causal_sce, solve_chi_sce, solve_sce

DATA = Path(__file__).parent / "data" / "pinned_outputs.json"


def pinned_outputs():
    out = {}
    config = SolverConfig(seed=7)
    for name in games.BUNDLED_DOCUMENTS:
        tree = games.bundled_game(name)
        part = coarsest_valid_partition(tree)
        for concept, res in (("sce", solve_sce(tree, part, config)),
                             ("chi-sce", solve_chi_sce(tree, part, 0.5, config)),
                             ("causal-sce", solve_causal_sce(tree, part, config))):
            out[f"{concept}:{name}"] = f"{res.to_text()}iterations {res.iterations}\n"
    config = SolverConfig()
    for s, recorded in [(s, 0) for s in range(12)] + [(121, 2)]:
        game = random_bayesian_game(random.Random(s))
        out[f"ce:{s}:{recorded}"] = repr(solve_ce(game, config))
        out[f"ice:{s}:{recorded}"] = repr(solve_ice(game, config))
    game = random_bayesian_game(random.Random(90021), n_states=2, n_players=3)
    out["ce:3p:90021:0"] = repr(solve_ce(game, config))
    out["ice:3p:90021:0"] = repr(solve_ice(game, config))
    out["prices:wpce:7"] = "".join(f"{cell!r}\n" for cell in prices_predictions("wpce", 7).cells)
    return out


def test_pinned_outputs():
    expected = json.loads(DATA.read_text(encoding="utf-8"))
    got = pinned_outputs()
    assert list(got) == list(expected)
    for key, text in expected.items():
        assert got[key] == text, key


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(pinned_outputs(), indent=1) + "\n", encoding="utf-8")
