"""Command-line entry point: ``sst <period|transfer|simulate|psi|family>``.

Machine output is line-oriented and stable across runs; the sampling seed is
taken from the SST_SEED environment variable (default 0).  Exit codes:
0 = analysis completed (whatever the verdict), 2 = input error, 3 = internal
invariant violation, including a ``family`` case whose decider, exact check
and simulation disagree (status=FAIL).
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import families
from .coins import CoinError, parse_coins
from .cospec import strong_cospectral_exact
from .decider import decide_periodicity, decide_transfer
from .exact import InvariantError, psi
from .graphs import GraphError, build_family, content_lines, parse_graph
from .reduction import ReductionError, reduction_for
from .walk import coin_state, walk_apply


class InputError(ValueError):
    pass


def _add_family_args(p: argparse.ArgumentParser):
    p.add_argument("--family", choices=list(families.FAMILIES))
    for flag in ("m", "c", "d", "k", "n"):
        p.add_argument(f"--{flag}", type=int)
    p.add_argument("--cycles", help="comma-separated cycle lengths (multiples of 4)")
    p.add_argument("--base", help="base graph file for cone-over")


def _add_source_args(p: argparse.ArgumentParser):
    p.add_argument("--graph", help="graph file (n <count> header, 'u v' edge lines)")
    _add_family_args(p)
    p.add_argument("--a", type=int, help="sender vertex (families have defaults)")
    p.add_argument("--b", type=int, help="receiver vertex")
    p.add_argument("--coins", help="coin spec file (default: all Grover)")
    p.add_argument("--subspace", help="W basis file: one vector per line, deg(a) rationals")


def _read(path: str, what: str) -> str:
    file = Path(path)
    if not file.exists():
        raise InputError(f"{what} file not found: {file}")
    return file.read_text()


def _load_instance(args):
    """Resolve (graph, a, b, assignment, w_basis) from the CLI flags: the
    marked-pair recipe, its coins or W replaced by a coin or subspace file."""
    if args.graph and args.family:
        raise InputError("give exactly one of --graph or --family")
    if args.graph:
        graph = parse_graph(_read(args.graph, "graph"))
        a, b, marked_w = 0, graph.n - 1, None
    elif args.family:
        family = families.FAMILIES[args.family]
        params = _family_params(args, family)
        graph, a, b = build_family(args.family, params)
        marked_w = family.marked_w(*params) if family.marked_w else None
    else:
        raise InputError("a graph source is required (--graph or --family)")
    a = a if args.a is None else args.a
    b = b if args.b is None else args.b
    if not (0 <= a < graph.n and 0 <= b < graph.n):
        raise InputError("marked vertices must be in range")

    # with a coin file the recipe's marked coin is not built
    assignment, _, w_basis, _ = families.marked_instance(
        graph, a, b, None if args.coins else marked_w)
    if args.coins:
        assignment = parse_coins(_read(args.coins, "coin"), graph)
        w_basis = marked_w or w_basis
    if args.subspace:
        w_basis = _parse_subspace(_read(args.subspace, "subspace"), graph.degree(a))
    return graph, a, b, assignment, w_basis


def _family_params(args, family: families.Family) -> tuple:
    """The values of the family's flags, as its builders take them."""
    params = []
    for flag in family.params:
        value = getattr(args, flag)
        if value is None:
            raise InputError(f"--{flag} is required for the {args.family} family")
        if flag == "cycles":
            value = _parse_cycles(value)
        elif flag == "base":
            value = parse_graph(_read(value, "base graph"))
        params.append(value)
    return tuple(params)


def _int_list(flag: str, text: str) -> list[int]:
    """The integers of a comma-separated flag value; an empty token is refused."""
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as e:
        raise InputError(f"--{flag} {text!r}: expected comma-separated integers") from e


def _parse_cycles(text: str) -> list[int]:
    """The m_j of comma-separated cycle lengths 4m_j."""
    lengths = _int_list("cycles", text)
    if any(length % 4 for length in lengths):
        raise InputError("double-cone cycle lengths must be divisible by 4")
    return [length // 4 for length in lengths]


def _parse_subspace(text: str, degree: int) -> list[list[Fraction]]:
    rows = []
    for line in content_lines(text):
        try:
            vec = [Fraction(tok) for tok in line.split()]
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad subspace vector {line!r}: {e}") from e
        if len(vec) != degree:
            raise InputError(f"subspace vector has {len(vec)} entries, need {degree}")
        rows.append(vec)
    if not rows:
        raise InputError("empty subspace file")
    return rows


def _reduction(args, assignment, a, w_basis, b=None):
    """The reduction the command reads (b = None: the question is about a
    alone), printed first under --dump-H."""
    red = reduction_for(assignment, a, w_basis, b)
    if args.dump_H:
        # H_rat[i][j] = sym[i][j] / delta_sq[j], read from the sparse carrier
        rows = [["0"] * red.size for _ in range(red.size)]
        for i, j, x in red.nonzeros:
            rows[i][j] = str(Fraction(x, red.norm_sq[j]))
        for row in rows:
            print("H_rat", " ".join(row))
        print("delta_sq", " ".join(map(str, red.norm_sq)))
    return red


def cmd_period(args) -> int:
    _graph, a, _b, assignment, w_basis = _load_instance(args)
    red = _reduction(args, assignment, a, w_basis)
    verdict = decide_periodicity(red)
    if args.format == "human":
        if verdict.periodic:
            print(f"The walk is pointwise W-periodic at vertex {a}; the "
                  f"minimum integer period is {verdict.min_period}.")
        else:
            print(f"The walk is not pointwise W-periodic at vertex {a} at any "
                  f"integer step ({verdict.reason}).")
    print(verdict.line())
    return 0


def cmd_transfer(args) -> int:
    _graph, a, b, assignment, w_basis = _load_instance(args)
    red = _reduction(args, assignment, a, w_basis, b)
    verdict = decide_transfer(red)
    if args.format == "human":
        if verdict.occurs:
            sign = "+" if verdict.gamma == 1 else "-"
            print(f"Pointwise perfect W-transfer from {a} to {b} occurs at "
                  f"step {verdict.time} with phase {sign}1.")
        else:
            print(f"No pointwise perfect W-transfer from {a} to {b} at any "
                  f"integer step (failed at stage: {verdict.reason}).")
    print(verdict.line())
    if args.report_split:
        split = strong_cospectral_exact(red)
        if split is None:
            print("SPLIT none")
        else:
            plus = ";".join(f.serialize() for f in split.plus_factors)
            minus = ";".join(f.serialize() for f in split.minus_factors)
            print(f"SPLIT plus=[{plus}] minus=[{minus}] gamma=+1")
    return 0


def cmd_simulate(args) -> int:
    if not 0 <= args.tol < math.inf:
        raise InputError(f"--tol {args.tol!r}: expected a finite nonnegative number")
    graph, a, b, assignment, w_basis = _load_instance(args)
    state = _initial_state(args, graph, a, assignment, w_basis)
    times = [0] if args.times is None else _int_list("times", args.times)
    if min(times) < 0:
        raise InputError(f"--times {args.times!r}: step counts must be nonnegative")
    vec, now = state, 0
    for t in sorted(set(times)):
        vec, now = walk_apply(assignment, vec, t - now), t
        print(f"t={t}")
        for (u, v), amp in zip(graph.arcs, vec):
            if abs(amp) > args.tol:
                print(f"  ({u},{v}) {amp.real:+.10f} {amp.imag:+.10f}")
    return 0


def _initial_state(args, graph, a, assignment, w_basis):
    name = args.state or "w1"
    if name.startswith("arc:"):
        try:
            u, v = (int(x) for x in name[4:].split(","))
        except ValueError as e:
            raise InputError(f"state {name!r}: expected arc:u,v") from e
        if (u, v) not in graph.arc_index:
            raise InputError(f"({u},{v}) is not an arc")
        import numpy as np

        state = np.zeros(graph.num_arcs)
        state[graph.arc_index[(u, v)]] = 1.0
        return state
    if name == "uniform":
        return coin_state(assignment, a, [1.0] * graph.degree(a))
    if name.startswith("w"):
        try:
            j = int(name[1:]) - 1
        except ValueError as e:
            raise InputError(f"state {name!r}: expected w<j> with an integer j") from e
        if not 0 <= j < len(w_basis):
            raise InputError(f"state {name}: expected w1..w{len(w_basis)}")
        return coin_state(assignment, a, w_basis[j])
    raise InputError(f"unknown state {name!r} (use w<j>, uniform, or arc:u,v)")


def cmd_psi(args) -> int:
    _graph, a, _b, assignment, w_basis = _load_instance(args)
    red = _reduction(args, assignment, a, w_basis)
    print("PSI", psi(red, red.s, red.s).serialize())
    for factor in strong_cospectral_exact(red, red.s, red.s).support_factors:
        print("POLE_FACTOR", factor.serialize())
    return 0


def cmd_family(args) -> int:
    try:
        seed = int(os.environ.get("SST_SEED", "0"))
    except ValueError as e:
        raise InputError(f"SST_SEED={os.environ['SST_SEED']!r}: expected an integer") from e
    if args.family is None:
        results = families.standard_battery(seed)
    else:
        family = families.FAMILIES[args.family]
        if family.cases is None:
            raise InputError(f"the {args.family} family has no cases; it runs through the "
                             "pretty-good harness in demos")
        results = family.cases(random.Random(seed), *_family_params(args, family))
    failed = False
    for res in results:
        print(res.line())
        failed = failed or res.status != "PASS"
    return 3 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each accepting only the flags it reads."""
    parser = argparse.ArgumentParser(
        prog="sst",
        description="subspace state transfer analysis for coined arc-reversal walks")
    sub = parser.add_subparsers(dest="command", required=True)
    cmds = {}
    for name, fn in (("period", cmd_period), ("transfer", cmd_transfer),
                     ("simulate", cmd_simulate), ("psi", cmd_psi),
                     ("family", cmd_family)):
        cmds[name] = sub.add_parser(name)
        cmds[name].set_defaults(fn=fn)
        if name == "family":
            _add_family_args(cmds[name])
        else:
            _add_source_args(cmds[name])
    for name in ("period", "transfer", "psi"):
        cmds[name].add_argument("--dump-H", action="store_true",
                                help="emit H_rat and delta_sq exactly")
    for name in ("period", "transfer"):
        cmds[name].add_argument("--format", choices=["human", "machine"], default="machine")
    cmds["transfer"].add_argument("--report-split", action="store_true",
                                  help="emit the Lambda+/Lambda- support factors")
    cmds["simulate"].add_argument("--times", help="comma-separated step counts")
    cmds["simulate"].add_argument("--state", help="w<j> | uniform | arc:u,v (default w1)")
    cmds["simulate"].add_argument("--tol", type=float, default=1e-9,
                                  help="print amplitudes above this modulus")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InvariantError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except (InputError, GraphError, CoinError, ReductionError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - internal invariant violations
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
