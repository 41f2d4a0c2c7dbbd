import pytest

from cursedeq import games
from cursedeq.gamefile import (ParseError, format_number, parse_assessment,
                               parse_experiment, parse_game, parse_model, parse_number,
                               parse_profile_lines, serialize_game, serialize_profile)
from cursedeq.games import bundled_game_text
from cursedeq.tree import validate_game
from helpers import distance, running_profile_y


def test_round_trip_all_bundled_games():
    for name in games.BUNDLED_DOCUMENTS:
        text = bundled_game_text(name)
        tree = parse_game(text)
        assert validate_game(tree).ok, name
        assert serialize_game(tree) == text, name


def test_bundled_trading_nature_thirds():
    tree = parse_game(bundled_game_text("sequential-trading"))
    probs = list(tree.nature_probs["r"].values())
    assert probs == pytest.approx([1 / 3] * 3)


def test_empty_document_error():
    with pytest.raises(ParseError) as err:
        parse_game("")
    assert err.value.line == 1


def test_positional_diagnostics():
    doc = 'cursedgame 1 "t"\nplayers 1\nnode a - - player 1\nnode b a x terminal 1 2\nend'
    with pytest.raises(ParseError) as err:
        parse_game(doc)
    assert err.value.line == 4
    assert "payoffs" in str(err.value)


def test_fraction_and_decimal_numbers():
    assert parse_number("2/3", 1, 1) == pytest.approx(2 / 3)
    assert parse_number("0.25", 1, 1) == 0.25
    assert format_number(1 / 3) == "1/3"
    assert format_number(0.5) == "1/2"
    assert format_number(2.0) == "2"
    weird = 0.12345678901234567
    assert float(format_number(weird)) == pytest.approx(weird) or \
        format_number(weird) == repr(weird)
    with pytest.raises(ParseError):
        parse_number("x/y", 3, 2)


def test_profile_round_trip(paper):
    tree, _ = paper["sequential-trading"]
    prof = running_profile_y()
    tree3, _ = paper["running-example"]
    text = serialize_profile(prof)
    again = parse_profile_lines(text.split("\n"), tree3)
    assert distance(prof, again) < 1e-12


def test_assessment_with_overrides(paper):
    tree, _ = paper["running-example"]
    text = """play 1:I x:1 y:0
play 2:w1 l:1 r:0
play 2:w2y l:1 r:0
play 2:w3y l:0 r:1
conjecture 1:I 2:w2y l:1 r:0
conjecture 1:I 2:w3y l:1 r:0
"""
    doc = parse_assessment(text, tree)
    assert doc.profile.dists["1:I"]["x"] == 1.0
    assert doc.overrides["1:I"]["2:w2y"]["l"] == 1.0


def test_model_and_experiment_files():
    model = parse_model("signalmodel wallet\nfamily wallet\nbidders 2\n")
    assert model.name == "wallet-2"
    model = parse_model("signalmodel m\nfamily mean-value\nbidders 5\n")
    assert model.bidders == 5
    with pytest.raises(ParseError):
        parse_model("signalmodel x\nfamily unknown\n")

    spec = parse_experiment(
        "experiment voting\np 0.6\nq 0.5\ntreatment sequential\nconcept sce\n")
    assert spec.kind == "voting"
    assert spec.concept == "sce"
    assert spec.params["treatment"] == "sequential"


@pytest.mark.parametrize("parse, text", [
    (parse_model, "signalmodel m\nfamily wallet\nbidders x\n"),
    (parse_model, "signalmodel m\n\nfamily unknown\n"),
    (parse_experiment, "# spec\n\nexperiment\nconcept sce\n"),
    (parse_experiment, "experiment voting\nconcept sce\np x\n"),
    (parse_experiment, "experiment learning-from-prices\nconcept wpce\ng 5\n"),
    (parse_model, "signalmodel m\nfamily mean-value\nbidder 5\n"),
], ids=["bidders", "family", "kind", "param", "experiment-key", "model-key"])
def test_key_value_errors_report_their_line(parse, text):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == 3


def test_unknown_record_rejected():
    doc = 'cursedgame 1 "t"\nplayers 1\nwhatever x\nend'
    with pytest.raises(ParseError) as err:
        parse_game(doc)
    assert err.value.line == 3
