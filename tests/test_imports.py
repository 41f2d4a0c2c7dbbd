"""The package needs numpy alone: a fresh interpreter that imports the
package, its CLI and the auction pipeline, solves a mixed tree game (SCE
and causal SCE on ``mixing``) and a 3-player static game (CE and ICE on
90021), whose polishes root with the hybrid method, loads no scipy module,
and the solves keep their pinned bytes."""

import json
import os
import subprocess
import sys
from pathlib import Path

PINNED = Path(__file__).parent / "data" / "pinned_outputs.json"

SCRIPT = """
import random, sys
import cursedeq, cursedeq.cli, cursedeq.auctions
from cursedeq import games
from cursedeq.bayesian import random_bayesian_game, solve_ce, solve_ice
from cursedeq.partition import coarsest_valid_partition
from cursedeq.solvers import SolverConfig, solve_causal_sce, solve_sce
tree = games.bundled_game("mixing")
part = coarsest_valid_partition(tree)
for solve in (solve_sce, solve_causal_sce):
    res = solve(tree, part, SolverConfig(seed=7))
    sys.stdout.write(f"{res.to_text()}iterations {res.iterations}\\n")
game = random_bayesian_game(random.Random(90021), n_states=2, n_players=3)
print(repr(solve_ce(game, SolverConfig())))
print(repr(solve_ice(game, SolverConfig())))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_solves_load_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    *_, ce, ice, loaded, _ = done.stdout.split("\n")
    assert loaded == "[]"
    assert done.stdout.startswith(pinned["sce:mixing"] + pinned["causal-sce:mixing"])
    assert (ce, ice) == (pinned["ce:3p:90021:0"], pinned["ice:3p:90021:0"])
