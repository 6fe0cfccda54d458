"""Command-line entry point: ``sst <period|transfer|simulate|psi|family>``.

Machine output is line-oriented and stable across runs; the sampling seed is
taken from the SST_SEED environment variable (default 0).  Exit codes:
0 = analysis completed (whatever the verdict), 2 = input error, 3 = internal
invariant violation, including a ``family`` case whose decider, exact check
and simulation disagree (status=FAIL).
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import families
from .coins import CoinAssignment, CoinError, parse_coins, reflection_about
from .cospec import strong_cospectral_exact
from .decider import decide_periodicity, decide_transfer
from .exact import InvariantError, pole_support, resolvent
from .graphs import FamilySpec, GraphError, build_family, parse_graph
from .reduction import ReductionError, reduction_for
from .walk import coin_state, walk_apply


class InputError(ValueError):
    pass


def _add_source_args(p: argparse.ArgumentParser):
    p.add_argument("--graph", help="graph file (n <count> header, 'u v' edge lines)")
    p.add_argument("--family", choices=["k2m", "circulant", "double-cone", "gp", "cone-over"])
    p.add_argument("--m", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--cycles", help="comma-separated cycle lengths (multiples of 4)")
    p.add_argument("--base", help="base graph file for cone-over")
    p.add_argument("--a", type=int, help="sender vertex (families have defaults)")
    p.add_argument("--b", type=int, help="receiver vertex")
    p.add_argument("--coins", help="coin spec file (default: all Grover)")
    p.add_argument("--subspace", help="W basis file: one vector per line, deg(a) rationals")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--dump-H", action="store_true", help="emit H_rat and delta_sq exactly")
    p.add_argument("--report-split", action="store_true",
                   help="emit the Lambda+/Lambda- support factors")
    p.add_argument("--format", choices=["human", "machine"], default="machine")


def _load_instance(args):
    """Resolve (graph, a, b, assignment, w_basis) from the CLI flags."""
    family_w = None
    family_coin = None
    if args.graph and args.family:
        raise InputError("give exactly one of --graph or --family")
    if args.graph:
        path = Path(args.graph)
        if not path.exists():
            raise InputError(f"graph file not found: {path}")
        graph = parse_graph(path.read_text())
        a = args.a if args.a is not None else 0
        b = args.b if args.b is not None else graph.n - 1
    elif args.family:
        spec = _family_spec(args)
        graph, a, b = build_family(spec)
        if args.a is not None:
            a = args.a
        if args.b is not None:
            b = args.b
        if args.family == "circulant":
            family_w = [list(v) for v in families.CIRCULANT_W]
            family_coin = reflection_about(family_w)
        elif args.family == "double-cone":
            ms = [length // 4 for length in _parse_cycles(args.cycles)]
            family_w = _alternating_vectors(ms)
            family_coin = reflection_about([list(v) for v in family_w])
    else:
        raise InputError("a graph source is required (--graph or --family)")
    if a == b or not (0 <= a < graph.n and 0 <= b < graph.n):
        raise InputError("marked vertices must be distinct and in range")

    if args.coins:
        path = Path(args.coins)
        if not path.exists():
            raise InputError(f"coin file not found: {path}")
        assignment = parse_coins(path.read_text(), graph)
    elif family_coin is not None:
        assignment = CoinAssignment.grover_with_marked(graph, a, b, family_coin)
    else:
        assignment = CoinAssignment.all_grover(graph)

    if args.subspace:
        path = Path(args.subspace)
        if not path.exists():
            raise InputError(f"subspace file not found: {path}")
        w_basis = _parse_subspace(path.read_text(), graph.degree(a))
    elif family_w is not None:
        w_basis = family_w
    else:
        w_basis = [[Fraction(1)] * graph.degree(a)]
    return graph, a, b, assignment, w_basis


def _family_spec(args) -> FamilySpec:
    kind = {"k2m": "k2m", "circulant": "circulant", "double-cone": "double_cone",
            "gp": "gp", "cone-over": "cone_over"}[args.family]
    if kind == "k2m":
        _need(args.m, "--m")
        return FamilySpec(kind="k2m", m=args.m)
    if kind == "circulant":
        _need(args.m, "--m"), _need(args.c, "--c"), _need(args.d, "--d")
        return FamilySpec(kind="circulant", m=args.m, c=args.c, d=args.d)
    if kind == "double_cone":
        lengths = _parse_cycles(args.cycles)
        return FamilySpec(kind="double_cone", cycles=tuple(length // 4 for length in lengths))
    if kind == "gp":
        _need(args.k, "--k"), _need(args.n, "--n")
        return FamilySpec(kind="gp", k=args.k, n=args.n)
    _need(args.base, "--base")
    path = Path(args.base)
    if not path.exists():
        raise InputError(f"base graph file not found: {path}")
    return FamilySpec(kind="cone_over", base=parse_graph(path.read_text()))


def _need(value, flag: str):
    if value is None:
        raise InputError(f"{flag} is required for this family")


def _parse_cycles(text: str | None) -> list[int]:
    if not text:
        raise InputError("--cycles is required for double-cone")
    lengths = [int(tok) for tok in text.split(",") if tok]
    if any(length % 4 for length in lengths):
        raise InputError("double-cone cycle lengths must be divisible by 4")
    return lengths


def _alternating_vectors(ms: list[int]) -> list[list[Fraction]]:
    total = sum(4 * m for m in ms)
    out = []
    offset = 0
    for m in ms:
        vec = [Fraction(0)] * total
        for i in range(m):
            vec[offset + 4 * i] = Fraction(1)
            vec[offset + 4 * i + 2] = Fraction(-1)
        out.append(vec)
        offset += 4 * m
    return out


def _parse_subspace(text: str, degree: int) -> list[list[Fraction]]:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        vec = [Fraction(tok) for tok in line.split()]
        if len(vec) != degree:
            raise InputError(f"subspace vector has {len(vec)} entries, need {degree}")
        rows.append(vec)
    if not rows:
        raise InputError("empty subspace file")
    return rows


def _reduction(args, graph, a, b, assignment, w_basis):
    red = reduction_for(assignment, a, w_basis, b)
    if args.dump_H:
        for row in red.h_rat:
            print("H_rat", " ".join(str(x) for x in row))
        print("delta_sq", " ".join(str(x) for x in red.delta_sq))
    return red


def cmd_period(args) -> int:
    graph, a, b, assignment, w_basis = _load_instance(args)
    red = _reduction(args, graph, a, b, assignment, w_basis)
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
    graph, a, b, assignment, w_basis = _load_instance(args)
    red = _reduction(args, graph, a, b, assignment, w_basis)
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
    graph, a, b, assignment, w_basis = _load_instance(args)
    state = _initial_state(args, graph, a, assignment, w_basis)
    times = [int(tok) for tok in (args.times or "0").split(",")]
    vec, now = state, 0
    for t in sorted(set(times)):
        vec, now = walk_apply(assignment, vec, t - now), t
        print(f"t={t}")
        for idx, (u, v) in enumerate(graph.arcs):
            amp = vec[idx]
            if abs(amp) > args.tol:
                print(f"  ({u},{v}) {amp.real:+.10f} {amp.imag:+.10f}")
    return 0


def _initial_state(args, graph, a, assignment, w_basis):
    name = args.state or "w1"
    if name.startswith("arc:"):
        u, v = (int(x) for x in name[4:].split(","))
        if (u, v) not in graph.arc_index:
            raise InputError(f"({u},{v}) is not an arc")
        import numpy as np

        state = np.zeros(graph.num_arcs, dtype=complex)
        state[graph.arc_index[(u, v)]] = 1.0
        return state
    if name == "uniform":
        return coin_state(assignment, a, [1.0] * graph.degree(a))
    if name.startswith("w"):
        j = int(name[1:]) - 1
        if not 0 <= j < len(w_basis):
            raise InputError(f"state {name}: W has only {len(w_basis)} basis vectors")
        return coin_state(assignment, a, [float(x) for x in w_basis[j]])
    raise InputError(f"unknown state {name!r} (use w<j>, uniform, or arc:u,v)")


def cmd_psi(args) -> int:
    graph, a, b, assignment, w_basis = _load_instance(args)
    red = _reduction(args, graph, a, b, assignment, w_basis)
    fun = resolvent(red).psi_s
    print("PSI", fun.serialize())
    for factor in pole_support(fun):
        print("POLE_FACTOR", factor.serialize())
    return 0


def cmd_family(args) -> int:
    seed = int(os.environ.get("SST_SEED", "0"))
    rng = random.Random(seed)
    if args.family is None:
        results = families.standard_battery(seed)
    elif args.family == "k2m":
        _need(args.m, "--m")
        results = [families.case_k2m(args.m), families.case_k2m(args.m, rng=rng)]
    elif args.family == "circulant":
        _need(args.m, "--m"), _need(args.c, "--c"), _need(args.d, "--d")
        results = [families.case_circulant(args.m, args.c, args.d)]
    elif args.family == "double-cone":
        ms = [length // 4 for length in _parse_cycles(args.cycles)]
        results = [families.case_double_cone(ms)]
    elif args.family == "gp":
        _need(args.k, "--k"), _need(args.n, "--n")
        results = [families.case_gp(args.k, args.n)]
    else:
        raise InputError("cone-over runs through the pretty-good harness in demos")
    failed = False
    for res in results:
        print(res.line())
        failed = failed or res.status != "PASS"
    return 3 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sst",
        description="subspace state transfer analysis for coined arc-reversal walks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("period", cmd_period), ("transfer", cmd_transfer),
                     ("simulate", cmd_simulate), ("psi", cmd_psi),
                     ("family", cmd_family)):
        p = sub.add_parser(name)
        _add_source_args(p)
        if name == "simulate":
            p.add_argument("--times", help="comma-separated step counts")
            p.add_argument("--state", help="w<j> | uniform | arc:u,v (default w1)")
        p.set_defaults(fn=fn)
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
