"""Command-line interface.

Subcommands: validate, partition, conjecture, solve, check, experiment,
auction, orderings.  Exit codes: 0 success, 1 violation or non-equilibrium
found, 2 usage error, 3 solver non-convergence.  Tables are plain text;
--json renders the same records as JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .conjectures import limit_conjecture_system
from .gamefile import (ParseError, parse_assessment, parse_experiment, parse_game,
                       parse_model, parse_profile_lines)
from .golden import run_golden_predictions
from .partition import coarsest_valid_partition
from .solvers import (NonConvergenceError, SolverConfig, check_wpce, sce_witness_check,
                      solve_causal_sce, solve_chi_sce, solve_sce, solve_wpce)
from .tree import BehaviorProfile, GameError, validate_game

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3

SEED_ENV = "CURSEDEQ_SEED"


def _emit(args, records, header=None):
    if getattr(args, "json", False):
        print(json.dumps(records, indent=2, sort_keys=True))
        return
    if header:
        print(header)
    if isinstance(records, dict):
        for k in records:
            print(f"{k}\t{records[k]}")
    else:
        for row in records:
            if isinstance(row, dict):
                print("\t".join(f"{k}={v}" for k, v in row.items()))
            else:
                print(row)


def _profile_records(profile: BehaviorProfile):
    return [{"infoset": iid,
             **{a: round(p, 12) for a, p in profile.dists[iid].items()}}
            for iid in sorted(profile.dists)]


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_game(path):
    return parse_game(_read(path))


def _seed(args):
    """``--seed`` if given, else ``CURSEDEQ_SEED`` if set and not empty, else None."""
    if args.seed is not None:
        return args.seed
    text = os.environ.get(SEED_ENV)
    if not text:
        return None
    try:
        return int(text)
    except ValueError:
        raise GameError(f"{SEED_ENV} must be an integer, got {text!r}") from None


def _config_from(args):
    """SolverConfig from ``--config``: one ``key value`` pair per line, with
    each key's type taken from the SolverConfig field of that name.  A seed
    from ``--seed`` or ``CURSEDEQ_SEED`` overrides the file's."""
    kinds = {f.name: type(f.default) for f in dataclasses.fields(SolverConfig)}
    kwargs = {}
    for raw in _read(args.config).split("\n") if args.config else ():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, *rest = line.split(None, 1)
        name, text = key.replace("-", "_"), "".join(rest)
        if name not in kinds:
            raise GameError(f"unknown config key {key!r}; known keys: " + ", ".join(kinds))
        try:
            kwargs[name] = kinds[name](text)
        except ValueError:
            raise GameError(f"config key {key!r}: expected {kinds[name].__name__}, "
                            f"got {text!r}") from None
    seed = _seed(args)
    if seed is not None:
        kwargs["seed"] = seed
    return SolverConfig(**kwargs)


def cmd_validate(args):
    tree = _load_game(args.game)
    report = validate_game(tree)
    recs = [{"rule": v.rule, "nodes": ",".join(v.nodes), "detail": v.detail}
            for v in report.violations]
    _emit(args, recs if recs else [{"status": "valid"}])
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_partition(args):
    tree = _load_game(args.game)
    report = validate_game(tree)
    if not report.ok:
        print(report, file=sys.stderr)
        return EXIT_VIOLATION
    part = coarsest_valid_partition(tree)
    recs = [{"cell": cid, "owner": part.owner[cid],
             "nodes": ",".join(part.cells[cid])} for cid in part.cells]
    _emit(args, recs)
    return EXIT_OK


def cmd_conjecture(args):
    tree = _load_game(args.game)
    part = coarsest_valid_partition(tree)
    if args.profile:
        profile = parse_profile_lines(_read(args.profile).split("\n"), tree)
    else:
        profile = BehaviorProfile.uniform(tree)
    if args.at not in tree.player_info_sets():
        what = "nature's" if args.at in tree.info_sets else "unknown"
        print(f"{what} info set {args.at!r}: --at takes a player's info set", file=sys.stderr)
        return EXIT_USAGE
    # the exact limit of a fully mixed profile is its own conjecture
    system, _ = limit_conjecture_system(tree, part, profile, owners=[args.at])
    conj = system[args.at]
    recs = [{"infoset": iid, **{a: round(p, 12) for a, p in d.items()}}
            for iid, d in sorted(conj.dists.items())]
    _emit(args, recs, header=f"conjecture at {args.at}")
    return EXIT_OK


def cmd_solve(args):
    tree = _load_game(args.game)
    part = coarsest_valid_partition(tree)
    solve = {"sce": solve_sce, "wpce": solve_wpce, "causal-sce": solve_causal_sce,
             "chi-sce": lambda t, p, c: solve_chi_sce(t, p, args.chi, c)}[args.concept]
    res = solve(tree, part, _config_from(args))
    recs = {"concept": res.concept, "max_gap": res.max_gap,
            "profile": _profile_records(res.profile)}
    if args.json:
        print(json.dumps(recs, indent=2, sort_keys=True))
    else:
        print(f"concept {res.concept}  max gap {res.max_gap:.3g}")
        for row in _profile_records(res.profile):
            iid = row.pop("infoset")
            body = " ".join(f"{a}:{p}" for a, p in row.items())
            print(f"{iid}\t{body}")
    return EXIT_OK


def cmd_check(args):
    tree = _load_game(args.game)
    part = coarsest_valid_partition(tree)
    doc = parse_assessment(_read(args.assessment), tree)
    cfg = _config_from(args)
    if args.concept == "wpce":
        system, _ = limit_conjecture_system(tree, part, doc.profile)
        for owner, over in doc.overrides.items():
            for iid, dist in over.items():
                system[owner].dists[iid] = dict(dist)
        report = check_wpce(tree, part, doc.profile, system)
        _emit(args, [{"check": "wpce", "ok": report.ok, "detail": str(report)}])
        return EXIT_OK if report.ok else EXIT_VIOLATION
    chi = args.chi if args.concept == "chi-sce" else 1.0
    ok, gaps, _ = sce_witness_check(tree, part, doc.profile, cfg,
                                    concept="chi-sce" if args.concept == "chi-sce" else "sce",
                                    chi=chi)
    recs = [{"infoset": iid, "gap": g} for iid, g in sorted(gaps.items())]
    _emit(args, recs, header=f"{args.concept} ok={ok}")
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_experiment(args):
    spec = parse_experiment(_read(args.spec))
    report = run_golden_predictions(spec)
    recs = [{"cell": json.dumps(c.cell, sort_keys=True), "predicted": c.predicted,
             "expected": c.expected, "match": c.match, "detail": c.detail}
            for c in report.cells]
    _emit(args, recs, header=str(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(recs, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _signals(text):
    return [float(x) for x in text.split(",") if x]


def _auction_tables(args):
    """The signal model, oracle and conditional tables that ``auction`` and
    ``orderings`` share."""
    from .auctions import OracleConfig, estimate_conditionals, uniform_grid
    model = parse_model(_read(args.model))
    if args.grid < 2:
        raise GameError(f"--grid must be at least 2, got {args.grid}")
    seed = _seed(args)
    try:
        oracle = OracleConfig(samples=args.samples, seed=0 if seed is None else seed)
    except ValueError as exc:
        raise GameError(f"--samples {args.samples}: {exc}") from None
    tables = estimate_conditionals(model, uniform_grid(model, args.grid), oracle,
                                   use_closed_forms=not args.monte_carlo)
    return model, oracle, tables


def cmd_auction(args):
    from .auctions import (bid_canonical_english, bid_second_price, bid_silent_english,
                           solve_dutch, solve_first_price)
    model, oracle, tables = _auction_tables(args)

    def canon(m, t):
        try:
            return bid_canonical_english(m, args.observed, t, oracle)
        except ValueError as exc:
            raise GameError(f"--observed: {exc}") from None

    formats = {"1p": solve_first_price, "dutch": solve_dutch, "2p": bid_second_price,
               "silent": bid_silent_english, "canon": canon}
    bf = formats[args.format](model, tables)
    if args.json:
        print(json.dumps({"format": bf.format, "notes": bf.notes,
                          "rows": [{"x": float(x), "bid": float(b),
                                    "se": (None if bf.se is None else float(s))}
                                   for x, b, s in zip(bf.grid, bf.bids,
                                                      bf.se if bf.se is not None else bf.bids * 0)]},
                         indent=2, sort_keys=True))
    else:
        print("x\tbid" + ("\tse" if bf.se is not None else ""))
        for i, x in enumerate(bf.grid):
            row = f"{x:.6f}\t{bf.bids[i]:.6f}"
            if bf.se is not None:
                row += f"\t{bf.se[i]:.6f}"
            print(row)
    return EXIT_OK


def cmd_orderings(args):
    from .auctions import (bid_second_price, bid_silent_english, ode_residuals, solve_dutch,
                           solve_first_price, verify_orderings)
    model, _, tables = _auction_tables(args)
    b1 = solve_first_price(model, tables)
    bd = solve_dutch(model, tables)
    b2 = bid_second_price(model, tables)
    bs = bid_silent_english(model, tables)
    report = verify_orderings(model, tables, b1, bd, b2, bs)
    res1 = float(abs(ode_residuals(tables, b1)).max())
    resd = float(abs(ode_residuals(tables, bd)).max())
    recs = [{"check": "orderings", "ok": report.ok,
             "violations": len(report.findings),
             "ode_residual_1p": res1, "ode_residual_dutch": resd}]
    recs += [{"check": f.check, "x": f.x, "gap": f.gap, "allowance": f.allowance}
             for f in report.findings]
    _emit(args, recs)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cursedeq", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a game document")
    p.add_argument("game")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("partition", help="coarsest valid partition")
    p.add_argument("game")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("conjecture", help="cursed conjecture at an info set")
    p.add_argument("game")
    p.add_argument("--at", required=True)
    p.add_argument("--profile")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_conjecture)

    p = sub.add_parser("solve", help="solve for an equilibrium")
    p.add_argument("game")
    p.add_argument("--concept", required=True,
                   choices=["sce", "wpce", "chi-sce", "causal-sce"])
    p.add_argument("--chi", type=float, default=1.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("check", help="certify a supplied assessment")
    p.add_argument("game")
    p.add_argument("--assessment", required=True)
    p.add_argument("--concept", required=True,
                   choices=["wpce", "sce-witness", "chi-sce"])
    p.add_argument("--chi", type=float, default=1.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("experiment", help="golden-prediction harness")
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("auction", help="bid-function tables")
    p.add_argument("--model", required=True)
    p.add_argument("--format", required=True,
                   choices=["1p", "dutch", "2p", "silent", "canon"])
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--observed", type=_signals, default=[],
                   help="comma-separated quit signals for canon")
    p.add_argument("--monte-carlo", action="store_true",
                   help="force Monte Carlo tables even when closed forms exist")
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_auction)

    p = sub.add_parser("orderings", help="bid-ordering verification")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--monte-carlo", action="store_true")
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_orderings)
    return ap


def cli_main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except GameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    try:
        code = cli_main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early (``| head``)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush
        code = EXIT_OK
    sys.exit(code)


if __name__ == "__main__":
    main()
