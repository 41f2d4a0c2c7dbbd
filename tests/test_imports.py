"""scipy is loaded only for the Newton polish: importing the package, its
CLI or the auction pipeline loads no scipy module, and the first solve that
roots with hybr loads ``scipy.optimize`` and keeps its pinned bytes."""

import json
import os
import subprocess
import sys
from pathlib import Path

PINNED = Path(__file__).parent / "data" / "pinned_outputs.json"

SCRIPT = """
import sys
import cursedeq, cursedeq.cli, cursedeq.auctions
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
from cursedeq import games
from cursedeq.partition import coarsest_valid_partition
from cursedeq.solvers import SolverConfig, solve_sce
tree = games.bundled_game("mixing")
res = solve_sce(tree, coarsest_valid_partition(tree), SolverConfig(seed=7))
print("scipy.optimize" in sys.modules)
sys.stdout.write(f"{res.to_text()}iterations {res.iterations}\\n")
"""


def test_scipy_loads_at_the_first_newton_root():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    before, after, text = done.stdout.split("\n", 2)
    assert before == "[]"
    assert after == "True"
    assert text == json.loads(PINNED.read_text(encoding="utf-8"))["sce:mixing"]
