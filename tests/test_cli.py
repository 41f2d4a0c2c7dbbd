import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cursedeq
from cursedeq.cli import cli_main
from cursedeq.games import bundled_game_text


@pytest.fixture
def seqtrading(tmp_path):
    p = tmp_path / "seqtrading.game"
    p.write_text(bundled_game_text("sequential-trading"), encoding="utf-8")
    return p


def test_validate_ok(seqtrading, capsys):
    assert cli_main(["validate", str(seqtrading)]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_violation(tmp_path, capsys):
    doc = ('cursedgame 1 "bad"\nplayers 1\n'
           "node r - - nature x:0.7 y:0.7\n"
           "node rx r x terminal 0\nnode ry r y terminal 1\nend")
    p = tmp_path / "bad.game"
    p.write_text(doc, encoding="utf-8")
    assert cli_main(["validate", str(p)]) == 1


def test_usage_errors(tmp_path):
    assert cli_main(["validate", str(tmp_path / "missing.game")]) == 2
    assert cli_main(["nonsense"]) == 2
    bad = tmp_path / "junk.game"
    bad.write_text("not a game\n", encoding="utf-8")
    assert cli_main(["validate", str(bad)]) == 2
    terminal_in_set = bundled_game_text("sequential-trading").replace(
        "infoset 2:w1 2 w1a", "infoset 2:w1 2 w1a w1d")
    bad.write_text(terminal_in_set, encoding="utf-8")
    assert cli_main(["validate", str(bad)]) == 2


def test_partition(seqtrading, capsys):
    assert cli_main(["partition", str(seqtrading)]) == 0
    out = capsys.readouterr().out
    assert "w1,w2,w3" in out and "w1a,w2a,w3a" in out


def test_solve_sce_no_trade(seqtrading, capsys):
    assert cli_main(["solve", str(seqtrading), "--concept", "sce", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "2:hi\ta:0.0 d:1.0" in out


def test_solve_json_deterministic(seqtrading, capsys):
    assert cli_main(["solve", str(seqtrading), "--concept", "sce", "--seed", "7",
                     "--json"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["solve", str(seqtrading), "--concept", "sce", "--seed", "7",
                     "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["concept"] == "sce"


def test_solve_nonconvergent_exit_three(seqtrading, failing_certification):
    """A solve whose every candidate fails the limit certification exits 3."""
    assert cli_main(["solve", str(seqtrading), "--concept", "sce"]) == 3


@pytest.mark.parametrize("text, message", [
    ("bogus 3\n", "unknown config key 'bogus'"),
    ("seed x\n", "config key 'seed': expected int"),
    ("seed\n", "config key 'seed': expected int"),
    ("limit_steps 40\n", "unknown config key 'limit_steps'"),
    ("max_iters 80\n", "unknown config key 'max_iters'"),
    ("restarts 0\n", "unknown config key 'restarts'"),
    ("gap_tol nan\n", "tolerances must be positive and finite"),
    ("tie_tol 1e-9\n", "unknown config key 'tie_tol'"),
])
def test_bad_config_is_a_usage_error(seqtrading, tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert cli_main(["solve", str(seqtrading), "--concept", "sce",
                     "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["solve", "GAME", "--concept", "sce"],
    ["auction", "--model", "MODEL", "--format", "2p", "--grid", "20", "--samples", "20000"],
], ids=["solve", "auction"])
def test_bad_seed_is_a_usage_error(seqtrading, tmp_path, capsys, monkeypatch, command):
    model = tmp_path / "wallet.model"
    model.write_text("signalmodel wallet\nfamily wallet\nbidders 2\n", encoding="utf-8")
    monkeypatch.setenv("CURSEDEQ_SEED", "abc")
    argv = [{"GAME": str(seqtrading), "MODEL": str(model)}.get(a, a) for a in command]
    assert cli_main(argv) == 2
    assert "CURSEDEQ_SEED must be an integer, got 'abc'" in capsys.readouterr().err


def test_solve_concept_ce_is_a_usage_error(seqtrading):
    assert cli_main(["solve", str(seqtrading), "--concept", "ce"]) == 2


def test_config_keys_follow_solver_config(seqtrading, tmp_path, capsys):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("# comment\nseed 3\ngap-tol\t1e-8\n", encoding="utf-8")
    assert cli_main(["solve", str(seqtrading), "--concept", "sce", "--seed", "7",
                     "--config", str(cfg)]) == 0
    assert "2:hi\ta:0.0 d:1.0" in capsys.readouterr().out


def test_check_wpce_pass(tmp_path, capsys):
    game = tmp_path / "running.game"
    game.write_text(bundled_game_text("running-example"), encoding="utf-8")
    assessment = tmp_path / "farfetched.assess"
    assessment.write_text(
        "play 1:I x:1 y:0\n"
        "play 2:w1 l:1 r:0\n"
        "play 2:w2y l:1 r:0\n"
        "play 2:w3y l:0 r:1\n"
        "conjecture 1:I 2:w2y l:1 r:0\n"
        "conjecture 1:I 2:w3y l:1 r:0\n", encoding="utf-8")
    assert cli_main(["check", str(game), "--assessment", str(assessment),
                     "--concept", "wpce"]) == 0
    # the same profile fails the witness-based consistency test
    assert cli_main(["check", str(game), "--assessment", str(assessment),
                     "--concept", "sce-witness"]) == 1


def test_check_chi_zero_flags_deviation(tmp_path):
    game = tmp_path / "onlooker.game"
    game.write_text(bundled_game_text("pennies-onlooker"), encoding="utf-8")
    assessment = tmp_path / "onlooker.assess"
    assessment.write_text(
        "play I1 H:1/2 T:1/2\nplay I2 h:1/2 t:1/2\nplay I3 a:0 b:1\n",
        encoding="utf-8")
    assert cli_main(["check", str(game), "--assessment", str(assessment),
                     "--concept", "sce-witness"]) == 0
    assert cli_main(["check", str(game), "--assessment", str(assessment),
                     "--concept", "chi-sce", "--chi", "0"]) == 1


@pytest.mark.parametrize("chi", ["2", "-1", "nan"])
def test_check_chi_outside_unit_interval_is_a_usage_error(tmp_path, capsys, chi):
    """check validates --chi as solve does: exit 2 with one message line,
    not a verdict and not a traceback."""
    game = tmp_path / "onlooker.game"
    game.write_text(bundled_game_text("pennies-onlooker"), encoding="utf-8")
    assessment = tmp_path / "onlooker.assess"
    assessment.write_text(
        "play I1 H:1/2 T:1/2\nplay I2 h:1/2 t:1/2\nplay I3 a:0 b:1\n", encoding="utf-8")
    for command in (["check", str(game), "--assessment", str(assessment)], ["solve", str(game)]):
        assert cli_main(command + ["--concept", "chi-sce", "--chi", chi]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: chi must lie in [0, 1]\n"


def test_check_wpce_counts_every_played_action(seqtrading, tmp_path, capsys):
    """Trader 2 plays the worse action a at 2:hi with probability 1e-7,
    below the check's tolerance; it is still played, so wpce fails."""
    assessment = tmp_path / "tiny.assess"
    assessment.write_text("play 1:hi a:0 d:1\nplay 1:lo a:1 d:0\n"
                          "play 2:hi a:1/10000000 d:9999999/10000000\nplay 2:w1 a:0 d:1\n",
                          encoding="utf-8")
    for concept in ("wpce", "sce-witness"):
        assert cli_main(["check", str(seqtrading), "--assessment", str(assessment),
                         "--concept", concept]) == 1
    assert "[2:hi] gap 1: played 'a'" in capsys.readouterr().out


@pytest.mark.parametrize("config", ["", "gap_tol 0.5\n"], ids=["default", "loose"])
def test_witness_check_counts_every_played_action(seqtrading, tmp_path, capsys, config):
    """Trader 2 plays the worse action a with probability 3/10 at 2:hi, a gap
    of 1.0; a loose tolerance bounds the gap but does not hide the action."""
    cfg = tmp_path / "check.cfg"
    cfg.write_text(config, encoding="utf-8")
    assessment = tmp_path / "mixed.assess"
    assessment.write_text("play 1:hi a:0 d:1\nplay 1:lo a:1 d:0\n"
                          "play 2:hi a:3/10 d:7/10\nplay 2:w1 a:0 d:1\n", encoding="utf-8")
    assert cli_main(["check", str(seqtrading), "--assessment", str(assessment),
                     "--concept", "sce-witness", "--config", str(cfg)]) == 1
    assert "infoset=2:hi\tgap=1.0" in capsys.readouterr().out


@pytest.mark.parametrize("text, message", [
    ("play\n", "line 1, column 1: profile: expected 'play <infoset> a:p ...'"),
    ("play 1:I x0.5\n", "line 1, column 10: profile: entry 'x0.5' is not action:prob"),
    ("play 1:I z:1\n", "line 1, column 10: profile: unknown action 'z'"),
    ("play 1:I x:0.3 y:0.3\n", "line 1, column 1: profile: probabilities sum to 0.6, not 1"),
    ("play 1:I x:-1 y:2\n", "line 1, column 10: profile: negative probability in 'x:-1'"),
    ("play 1:I x:1\nplay 9:Z a:1\n", "line 2, column 6: profile: unknown info set '9:Z'"),
    ("play 1:I x:1\nconjecture 9:Z 2:w2y l:1\n",
     "line 2, column 12: conjecture: unknown info set '9:Z'"),
    ("play 1:I x:1\n\nconjecture 1:I 2:zz l:1\n",
     "line 3, column 16: conjecture: unknown info set '2:zz'"),
    ("conjecture 1:I 2:w2y l:1 q:0\n", "line 1, column 26: conjecture: unknown action 'q'"),
])
def test_bad_assessment_is_a_usage_error(tmp_path, capsys, text, message):
    game = tmp_path / "running.game"
    game.write_text(bundled_game_text("running-example"), encoding="utf-8")
    assessment = tmp_path / "bad.assess"
    assessment.write_text(text, encoding="utf-8")
    assert cli_main(["check", str(game), "--assessment", str(assessment),
                     "--concept", "wpce"]) == 2
    assert message in capsys.readouterr().err


CONJECTURE_RUNNING_UNIFORM = """conjecture at 1:I
infoset=1:I\tx=0.5\ty=0.5
infoset=2:w2y\tl=0.5\tr=0.5
infoset=2:w3y\tl=0.5\tr=0.5
infoset=is:r\tw1=0.0\tw2=0.333333333333\tw3=0.666666666667
"""

CONJECTURE_RUNNING_PURE = """conjecture at 1:I
infoset=1:I\tx=0.0\ty=1.0
infoset=2:w2y\tl=0.333333333333\tr=0.666666666667
infoset=2:w3y\tl=0.333333333333\tr=0.666666666667
infoset=is:r\tw1=0.0\tw2=0.333333333333\tw3=0.666666666667
"""


def test_conjecture_command(tmp_path, capsys):
    """The uniform profile prints its own conjecture; the pure profile
    prints the limit along its tremble path."""
    game = tmp_path / "running.game"
    game.write_text(bundled_game_text("running-example"), encoding="utf-8")
    assert cli_main(["conjecture", str(game), "--at", "1:I"]) == 0
    assert capsys.readouterr().out == CONJECTURE_RUNNING_UNIFORM
    prof = tmp_path / "profile.txt"
    prof.write_text(
        "play 1:I x:0 y:1\nplay 2:w1 l:1 r:0\n"
        "play 2:w2y l:1 r:0\nplay 2:w3y l:0 r:1\n", encoding="utf-8")
    assert cli_main(["conjecture", str(game), "--at", "1:I",
                     "--profile", str(prof)]) == 0
    assert capsys.readouterr().out == CONJECTURE_RUNNING_PURE


@pytest.mark.parametrize("at, what", [("is:r", "nature's"), ("9:Z", "unknown")])
def test_conjecture_at_a_non_player_info_set_is_a_usage_error(tmp_path, capsys, at, what):
    """A conjecture is held at a player's info set: nature's set ``is:r``
    and an unknown id are usage errors (exit 2) with a message, not a
    traceback."""
    game = tmp_path / "running.game"
    game.write_text(bundled_game_text("running-example"), encoding="utf-8")
    assert cli_main(["conjecture", str(game), "--at", at]) == 2
    assert capsys.readouterr().err == (
        f"{what} info set {at!r}: --at takes a player's info set\n")


def test_experiment_command(tmp_path, capsys):
    spec = tmp_path / "exp.spec"
    spec.write_text("experiment two-stage-auction\nconcept sce\n", encoding="utf-8")
    assert cli_main(["experiment", "--spec", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "65/65" in out


@pytest.mark.parametrize("spec, message", [
    ("experiment trading\nconcept ce\n", "unsupported concept 'ce' for the trading games"),
    ("experiment fictitious-player-trading\nconcept chi-sce\n",
     "unsupported concept 'chi-sce' for the trading games"),
    ("experiment two-stage-auction\nconcept causal-sce\n",
     "unsupported concept 'causal-sce' for the two-stage auction"),
    ("experiment two-stage-auction\nconcept wpce\n",
     "unsupported concept 'wpce' for the two-stage auction"),
    ("experiment learning-from-prices\nconcept sce\nG 3\n",
     "unsupported concept 'sce' for the price game"),
])
def test_experiment_concept_the_harness_does_not_compute(tmp_path, capsys, spec, message):
    path = tmp_path / "exp.spec"
    path.write_text(spec, encoding="utf-8")
    assert cli_main(["experiment", "--spec", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_experiment_trading_under_wpce(tmp_path, capsys):
    path = tmp_path / "trading.spec"
    path.write_text("experiment trading\nconcept wpce\n", encoding="utf-8")
    assert cli_main(["experiment", "--spec", str(path)]) == 0
    assert capsys.readouterr().out.startswith("trading under wpce: 3/3 cells match")


def test_experiment_learning_from_prices(tmp_path, capsys):
    spec = tmp_path / "prices.spec"
    spec.write_text("experiment learning-from-prices\nconcept wpce\nG 5\n",
                    encoding="utf-8")
    assert cli_main(["experiment", "--spec", str(spec)]) == 0
    header = capsys.readouterr().out.split("\n")[0]
    assert re.fullmatch(r"learning-from-prices under wpce: (\d+)/\1 cells match", header)


def test_closed_stdout_ends_quietly(tmp_path):
    """``cursedeq experiment ... | head -1``: once the reader closes after the
    first line, the command exits 0 with no traceback.  The pipe holds one
    page, so the 32 kB report cannot all be written before the close."""
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe capacity cannot be set here")
    spec = tmp_path / "prices.spec"
    spec.write_text("experiment learning-from-prices\nconcept wpce\nG 9\n", encoding="utf-8")
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    src = str(Path(cursedeq.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-c", "from cursedeq.cli import main; main()",
         "experiment", "--spec", str(spec)],
        stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as reader:
        first = reader.readline()
    err = proc.communicate(timeout=120)[1]
    assert first.startswith(b"learning-from-prices under wpce:")
    assert b"Traceback" not in err, err.decode()
    assert proc.returncode == 0


@pytest.mark.parametrize("spec, message", [
    ("experiment learning-from-prices\nconcept wpce\nG x\n",
     "line 3, column 3: experiment: G must be an integer, got 'x'"),
    ("experiment two-stage-auction\nconcept sce\ntypes 0,x\n",
     "line 3, column 7: experiment: types must be comma-separated integers, got '0,x'"),
    ("experiment learning-from-prices\nconcept wpce\ng 5\n",
     "line 3, column 1: field: unknown key 'g'"),
], ids=["G", "types", "misspelled-key"])
def test_bad_experiment_parameter_is_a_usage_error(tmp_path, capsys, spec, message):
    path = tmp_path / "bad.spec"
    path.write_text(spec, encoding="utf-8")
    assert cli_main(["experiment", "--spec", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("g", ["1", "0", "-3"])
def test_price_grid_below_two_is_a_usage_error(tmp_path, capsys, g):
    """G 1 used to divide by zero in price_grid, and G 0 and -3 failed on an
    empty tree; each now exits 2 naming G."""
    path = tmp_path / "small.spec"
    path.write_text(f"experiment learning-from-prices\nconcept wpce\nG {g}\n", encoding="utf-8")
    assert cli_main(["experiment", "--spec", str(path)]) == 2
    assert f"the price game needs G of at least 2, got G {g}" in capsys.readouterr().err


def test_auction_and_orderings(tmp_path, capsys):
    model = tmp_path / "wallet.model"
    model.write_text("signalmodel wallet\nfamily wallet\nbidders 2\n",
                     encoding="utf-8")
    assert cli_main(["auction", "--model", str(model), "--format", "2p",
                     "--grid", "20", "--samples", "20000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("x\tbid")
    assert len(out.strip().split("\n")) == 21
    assert cli_main(["orderings", "--model", str(model), "--grid", "50",
                     "--samples", "20000"]) == 0


def test_auction_canonical_english_mean_value(tmp_path, capsys):
    model = tmp_path / "mean3.model"
    model.write_text("signalmodel mean3\nfamily mean-value\nbidders 3\n",
                     encoding="utf-8")
    assert cli_main(["auction", "--model", str(model), "--format", "canon",
                     "--observed", "0.3", "--grid", "50"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "x\tbid"
    assert len(lines) == 51
    for line in lines[1:]:
        x, bid = (float(t) for t in line.split("\t"))
        # stage rule after one observed quit: (x + 0.3 + (1 + x) / 2) / 3
        assert abs(bid - (x + 0.3 + (1.0 + x) / 2.0) / 3.0) <= 1e-6


@pytest.mark.parametrize("command, model, flags, message", [
    ("auction", "bidders x", [], "bidders must be an integer of at least 2, got 'x'"),
    ("auction", "bidders 0", [], "bidders must be an integer of at least 2, got '0'"),
    ("orderings", "bidders -3", [], "bidders must be an integer of at least 2, got '-3'"),
    ("auction", "bidders 2", ["--samples", "5"], "--samples 5: need at least 1e4"),
    ("orderings", "bidders 2", ["--samples", "5"], "--samples 5: need at least 1e4"),
    ("auction", "bidders 2", ["--grid", "0"], "--grid must be at least 2, got 0"),
    ("orderings", "bidders 2", ["--grid", "1"], "--grid must be at least 2, got 1"),
])
def test_bad_auction_input_is_a_usage_error(tmp_path, capsys, command, model, flags, message):
    path = tmp_path / "bad.model"
    path.write_text(f"signalmodel wallet\nfamily wallet\n{model}\n", encoding="utf-8")
    argv = [command, "--model", str(path)] + (["--format", "2p"] if command == "auction" else [])
    assert cli_main(argv + flags) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("family", ["mean-value", "wallet"])
@pytest.mark.parametrize("observed, code, message", [
    ("0.1,0.2,0.3", 2, "error: --observed: 3 quits, but only 2 other bidders\n"),
    ("nan", 2, "error: --observed: quit signals must lie in [0.0, 1.0]\n"),
    ("0.2,1.5", 2, "error: --observed: quit signals must lie in [0.0, 1.0]\n"),
    ("0.1,0.2", 0, ""),
])
def test_canon_quits_are_checked(tmp_path, capsys, family, observed, code, message):
    """Three bidders leave two others to quit, each at a signal in [0, 1]:
    anything else is a usage error, under the stage form (mean value) and
    the Monte Carlo branch (wallet) alike."""
    path = tmp_path / "three.model"
    path.write_text(f"signalmodel three\nfamily {family}\nbidders 3\n", encoding="utf-8")
    assert cli_main(["auction", "--model", str(path), "--format", "canon", "--observed",
                     observed, "--grid", "10", "--samples", "20000"]) == code
    captured = capsys.readouterr()
    assert captured.err == message
    if code == 0:
        assert len(captured.out.strip().split("\n")) == 11 and "nan" not in captured.out
    else:
        assert captured.out == ""
