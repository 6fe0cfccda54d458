#!/usr/bin/env python3
"""sstwalk benchmark: seeded, single-process, closed-loop workloads.

    python3 bench/run.py --workload exact-ladder --seed 1 --seconds 12 --trace 0

Run from a checkout of the repository; the package is imported from ``src/``
of that checkout, never from an installed copy.  Every operation is checked
against a golden answer that does not come from the code under test (family
theorems, closed forms, or agreement between the exact decider and the
spectral sweep), and the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs one untraced reference set-up and pass, then the same
set-up and passes with the public sstwalk functions wrapped by ``tracing.py``,
and reports per-layer self times and counters, the tracing overhead, and
whether the traced verdicts match the reference.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One operation in flight on a shared two-core machine: keep BLAS/LAPACK on
# one thread so eigh and matmul timings do not depend on the neighbours' load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

WORKLOADS = ("exact-ladder", "random-small", "numeric-large", "cli-cold")
IMPORT_REPEATS = 5
SETUP_BUILDS = (3, 7, 2.0)  # at least 3 builds, more up to 7 while under 2 s of builds
FID_TOL = 1e-9          # perfect transfer, numerically: fidelity >= 1 - FID_TOL
SWEEP_TOL = 1e-4        # a near miss, checked exactly when it comes early
NEAR_EXACT_T = 64
RANDOM_SMALL_COUNT = 486           # 54 of each n
RANDOM_SMALL_N = (4, 12)
RANDOM_SMALL_SHAPES = ((1, 1), (2, 1), (2, 2))   # (coin rank, dim W)
RANDOM_SMALL_DENSITY = 0.3         # share of the non-tree vertex pairs made edges
NUMERIC_MS = (1000, 3000)
NUMERIC_SWEEP_M = 1000
NUMERIC_SWEEP_T = 1000
NUMERIC_WALK_T = 100    # = 4 (mod 8): U^T x_a(w) = -x_b(w) on the circulants
CIRCULANT_W = ((1, 0, -1, 0), (0, 1, 0, -1))


class Failure(Exception):
    """An operation's output disagrees with its golden answer."""


# -- seeded inputs (owned by the benchmark, so library changes cannot move them)


def _primitive(vec: list[Fraction]) -> list[Fraction]:
    den = lcm(*(x.denominator for x in vec))
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return [Fraction(x // g) for x in ints]


def orthogonal_columns(rng: random.Random, dim: int, count: int) -> list[list[Fraction]]:
    """``count`` pairwise-orthogonal primitive integer vectors in Q^dim: the
    standard basis under two rational Householder reflections."""
    cols = [[Fraction(int(i == j)) for i in range(dim)] for j in range(dim)]
    for _ in range(2):
        v = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
        if not any(v):
            v[rng.randrange(dim)] = Fraction(1)
        nv = sum(x * x for x in v)
        cols = [[c - 2 * sum(p * q for p, q in zip(v, col)) / nv * vi
                 for c, vi in zip(col, v)] for col in cols]
    return [_primitive(cols[j]) for j in rng.sample(range(dim), count)]


ORTHOGONAL_3 = ((1, 2, 2), (2, 1, -2), (2, -2, 1))


def signed_permuted_pair(rng: random.Random) -> list[list[Fraction]]:
    """Two of the three orthogonal vectors ORTHOGONAL_3 under a random
    coordinate permutation and random signs: a seeded rank-2 coin whose exact
    arithmetic costs the same for every seed."""
    perm = rng.sample(range(3), 3)
    return [[Fraction(sign * ORTHOGONAL_3[i][j]) for j in perm]
            for i, sign in zip(rng.sample(range(3), 2), (rng.choice((1, -1)), rng.choice((1, -1))))]


def random_combination(rng: random.Random, vectors) -> list[Fraction]:
    while True:
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in vectors]
        out = [sum((c * v[i] for c, v in zip(coeffs, vectors)), Fraction(0))
               for i in range(len(vectors[0]))]
        if any(out):
            return out


def random_graph(rng: random.Random, n: int, extra: int, min_degree: int):
    """Connected graph on ``n`` vertices with ``n - 1 + extra`` edges (a
    random tree plus ``extra`` random chords) and a marked pair of equal
    degree at least ``min_degree``; only the shape is random, not the size."""
    while True:
        tree = [(rng.randrange(i), i) for i in range(1, n)]
        chords = [(u, v) for u in range(n) for v in range(u + 1, n)
                  if (u, v) not in set(tree)]
        edges = tree + rng.sample(chords, extra)
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if degree[u] == degree[v] >= min_degree]
        if pairs:
            a, b = rng.choice(pairs)
            return edges, a, b


def gp_edges(k: int, n: int) -> list[tuple[int, int]]:
    """GP(k, n) in the numbering the package documents: a = 0, path j on
    1 + j(n-2) .. (j+1)(n-2), b = k(n-2) + 1."""
    inner = n - 2
    b = k * inner + 1
    edges = []
    for j in range(k):
        start = 1 + j * inner
        edges.append((0, start))
        edges += [(start + i, start + i + 1) for i in range(inner - 1)]
        edges.append((start + inner - 1, b))
    return edges


def alternating_w(ms: list[int]) -> list[list[Fraction]]:
    total = sum(4 * m for m in ms)
    out, offset = [], 0
    for m in ms:
        vec = [Fraction(0)] * total
        for i in range(m):
            vec[offset + 4 * i] = Fraction(1)
            vec[offset + 4 * i + 2] = Fraction(-1)
        out.append(vec)
        offset += 4 * m
    return out


# -- operations and passes ------------------------------------------------------


@dataclass
class Instance:
    name: str
    assignment: object
    a: int
    b: int
    w: list
    time: int | None = None      # golden transfer time (exact-ladder)
    gamma: int | None = None     # golden phase, where the family theorem fixes it
    extra: dict = field(default_factory=dict)


@dataclass
class OpResult:
    name: str
    seconds: float
    line: str
    error: str | None = None
    stages: dict = field(default_factory=dict)


class Clock:
    """Accumulates named stage times inside one operation."""

    def __init__(self):
        self.stages: dict[str, float] = {}
        self._t = time.perf_counter()

    def lap(self, name: str):
        now = time.perf_counter()
        self.stages[name] = self.stages.get(name, 0.0) + now - self._t
        self._t = now


def run_op(name: str, fn, tracer=None) -> OpResult:
    """Run one closed-loop operation; any exception or golden mismatch is a
    failed operation, reported on stderr, never raised."""
    span = tracer.begin("bench.op") if tracer else None
    clock = Clock()
    t0 = time.perf_counter()
    try:
        line = fn(clock)
        error = None
    except Failure as e:
        line, error = f"{name} FAIL", str(e)
    except Exception:  # the benchmark keeps running and counts the failure
        line, error = f"{name} ERROR", traceback.format_exc()
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.end(span)
    if error:
        print(f"FAILED {name}: {error}", file=sys.stderr)
    return OpResult(name, seconds, line, error, clock.stages)


def check_positive(sst, inst: Instance, red, verdict):
    """Exact Chebyshev identity and double-precision simulation agree with a
    positive verdict (fidelity and phase)."""
    if not sst.reduction.exact_transfer_check(red, verdict.time, verdict.gamma):
        raise Failure(f"Chebyshev check rejects {verdict.line()}")
    fid, gamma = sst.walk.transfer_fidelity(inst.assignment, inst.a, inst.b, inst.w,
                                            verdict.time)
    if fid < 1 - FID_TOL or abs(gamma - verdict.gamma) > 1e-6:
        raise Failure(f"simulation fidelity={fid!r} gamma={gamma} vs {verdict.line()}")


# -- exact-ladder -------------------------------------------------------------


def build_exact_ladder(sst, seed: int) -> list[Instance]:
    rng = random.Random(f"exact-ladder:{seed}")
    g, c = sst.graphs, sst.coins
    out = []

    def add(name, graph_abc, coin, w, t, gamma):
        graph, a, b = graph_abc
        asg = c.CoinAssignment.grover_with_marked(graph, a, b, coin)
        out.append(Instance(name, asg, a, b, w, t, gamma))

    ones = lambda k: [[Fraction(1)] * k]  # noqa: E731
    add("gp(4,10)", g.generalized_path(4, 10), c.grover_coin(4), ones(4), 9, 1)
    add("gp(4,20)", g.generalized_path(4, 20), c.grover_coin(4), ones(4), 19, 1)
    add("gp(3,30)", g.generalized_path(3, 30), c.grover_coin(3), ones(3), 29, 1)
    w = [[Fraction(x) for x in v] for v in CIRCULANT_W]
    add("circulant(20,1,19)", g.circulant_2m(20, 1, 19), c.reflection_about(w), w, 4, -1)
    w = alternating_w([1, 2, 3])
    add("double_cone(4,8,12)", g.double_cone_cycles([1, 2, 3]), c.reflection_about(w),
        w, 4, None)
    cols = signed_permuted_pair(rng)
    add("gp(3,12,rank2)", g.generalized_path(3, 12), c.reflection_about(cols), cols, 11, 1)
    cols = orthogonal_columns(rng, 20, 1)
    add("k2m(20,rank1)", g.complete_bipartite_k2m(20), c.reflection_about(cols), cols, 2, 1)
    return out


def exact_ladder_op(sst, inst: Instance):
    def op(clock: Clock) -> str:
        red = sst.reduction.reduction_for(inst.assignment, inst.a, inst.w, inst.b)
        verdict = sst.decider.decide_transfer(red)
        clock.lap("decide")
        if not verdict.occurs or verdict.time != inst.time or (
                inst.gamma is not None and verdict.gamma != inst.gamma):
            raise Failure(f"{verdict.line()}, family theorem gives time={inst.time} "
                          f"gamma={inst.gamma}")
        check_positive(sst, inst, red, verdict)
        clock.lap("check")
        return f"{inst.name} {verdict.line()}"
    return op


# -- random-small -------------------------------------------------------------


def build_random_small(sst, seed: int) -> list[Instance]:
    """RANDOM_SMALL_COUNT instances on a fixed size schedule: n cycles through
    RANDOM_SMALL_N, the chord count is fixed per n, and (coin rank, dim W)
    cycles through RANDOM_SMALL_SHAPES, so every seed builds the same clone
    counts; the seed picks the graphs, the marked pairs, coins and subspaces."""
    rng = random.Random(f"random-small:{seed}")
    lo, hi = RANDOM_SMALL_N
    out = []
    for i in range(RANDOM_SMALL_COUNT):
        n = lo + i % (hi - lo + 1)
        rank, dim_w = RANDOM_SMALL_SHAPES[i // (hi - lo + 1) % len(RANDOM_SMALL_SHAPES)]
        extra = round(RANDOM_SMALL_DENSITY * (n - 1) * (n - 2) / 2)
        edges, a, b = random_graph(rng, n, extra, rank)
        graph = sst.graphs.build_graph(edges, n)
        cols = orthogonal_columns(rng, graph.degree(a), rank)
        coin = sst.coins.reflection_about(cols)
        asg = sst.coins.CoinAssignment.grover_with_marked(graph, a, b, coin)
        out.append(Instance(f"random#{i}(n={n},rank={rank},dimW={dim_w})", asg, a, b,
                            cols[:dim_w]))
    return out


def random_small_op(sst, inst: Instance):
    """decide -> exact split -> spectral sweep over t <= 4 clones^3.

    A positive verdict must pass the Chebyshev check and the simulation, be
    strongly cospectral, and be the sweep's first perfect step.  A negative
    verdict must never reach fidelity 1 - FID_TOL in the sweep, and when the
    sweep first comes within SWEEP_TOL of 1 at a step t <= NEAR_EXACT_T, the
    exact Chebyshev identity must reject transfer at t with either phase.
    (Near misses are not errors: C4 with the coin spanned by (119,-120) and
    (120,119) is not cospectral, yet f_3[T,S] = -28560/28561 exactly.)
    """
    import numpy as np

    def op(clock: Clock) -> str:
        red = sst.reduction.reduction_for(inst.assignment, inst.a, inst.w, inst.b)
        verdict = sst.decider.decide_transfer(red)
        clock.lap("decide")
        split = sst.cospec.strong_cospectral_exact(red)
        clock.lap("split")
        sweep = sst.families.fidelity_series(red, 4 * red.size ** 3)
        clock.lap("sweep")
        line = f"{inst.name} {verdict.line()} split={'none' if split is None else 'yes'}"
        if verdict.occurs:
            check_positive(sst, inst, red, verdict)
            if split is None:
                raise Failure(f"{verdict.line()} but not strongly cospectral")
            first = int(np.argmax(sweep >= 1 - FID_TOL))
            if sweep[first] < 1 - FID_TOL or first != verdict.time:
                raise Failure(f"{verdict.line()} but the sweep first reaches 1 at t={first}")
        else:
            if sweep.max() >= 1 - FID_TOL:
                raise Failure(f"{verdict.line()} but the sweep reaches {sweep.max()!r} "
                              f"at t={int(np.argmax(sweep))}")
            near = np.flatnonzero(sweep >= 1 - SWEEP_TOL)
            if near.size and near[0] <= NEAR_EXACT_T:
                t = int(near[0])
                if any(sst.reduction.exact_transfer_check(red, t, g) for g in (1, -1)):
                    raise Failure(f"{verdict.line()} but exact transfer at t={t}")
                line += f" near={t}"
            if verdict.reason == "not-cospectral" and split is not None:
                raise Failure("not cospectral but a strong-cospectrality split exists")
        clock.lap("check")
        return line
    return op


# -- numeric-large ------------------------------------------------------------


def build_numeric_large(sst, seed: int) -> list[Instance]:
    rng = random.Random(f"numeric-large:{seed}")
    w = [[Fraction(x) for x in v] for v in CIRCULANT_W]
    out = []
    for m in NUMERIC_MS:
        graph, a, b = sst.graphs.circulant_2m(m, 1, m - 1)
        asg = sst.coins.CoinAssignment.grover_with_marked(graph, a, b,
                                                          sst.coins.reflection_about(w))
        start = [float(x) for x in random_combination(rng, w)]
        x = sst.walk.coin_state(asg, a, start)
        y = sst.walk.coin_state(asg, b, start)
        out.append(Instance(f"circulant({m},1,{m - 1})", asg, a, b, w, 4, -1,
                            {"x": x, "y": y, "m": m, "arcs": graph.num_arcs}))
    return out


def numeric_ops(sst, instances: list[Instance]):
    import numpy as np

    def fidelity(inst):
        def op(clock):
            fid, gamma = sst.walk.transfer_fidelity(inst.assignment, inst.a, inst.b,
                                                    inst.w, inst.time)
            clock.lap("fidelity")
            if fid < 1 - FID_TOL or abs(gamma - inst.gamma) > 1e-6:
                raise Failure(f"fidelity={fid!r} gamma={gamma}, theorem gives 1 and -1")
            return f"{inst.name} fidelity(t=4) ok"
        return op

    def walk(inst):
        def op(clock):
            z = sst.walk.walk_apply(inst.assignment, inst.extra["x"], NUMERIC_WALK_T)
            clock.lap("walk")
            err = float(np.linalg.norm(z + inst.extra["y"]))
            if err > 1e-8:
                raise Failure(f"U^{NUMERIC_WALK_T} x_a(w) misses -x_b(w) by {err!r}")
            return f"{inst.name} walk(t={NUMERIC_WALK_T}) ok"
        return op

    def sweep(inst):
        def op(clock):
            red = sst.reduction.reduction_for(inst.assignment, inst.a, inst.w, inst.b)
            series = sst.families.fidelity_series(red, NUMERIC_SWEEP_T)
            clock.lap("sweep")
            first = int(np.argmax(series >= 1 - FID_TOL))
            if series[first] < 1 - FID_TOL or first != inst.time:
                raise Failure(f"sweep first reaches 1 at t={first}, theorem gives 4")
            return f"{inst.name} sweep(t<={NUMERIC_SWEEP_T}) first=4"
        return op

    ops = []
    for inst in instances:
        ops.append((f"{inst.name}:fidelity", fidelity(inst)))
        ops.append((f"{inst.name}:walk", walk(inst)))
        if inst.extra["m"] == NUMERIC_SWEEP_M:
            ops.append((f"{inst.name}:sweep", sweep(inst)))
    return ops


# -- cli-cold -----------------------------------------------------------------


PSI_K2M = "PSI -1/2 0 1 | 0 -1 0 1"
"""K_{2,m} with Grover coins and W = span{1}: the sender clone's spectral
measure is 1/4, 1/2, 1/4 on {1, 0, -1} (period 4, transfer to b at t = 2,
bipartite symmetry), so psi = (x^2 - 1/2) / (x^3 - x) for every m."""


def build_cli(workdir: Path, seed: int) -> list[tuple[str, list[str], object]]:
    """CLI calls with golden checks; the last call reads a seeded GP(3,7)
    instance with a random rank-2 coin from graph/coin/subspace files."""
    rng = random.Random(f"cli-cold:{seed}")
    k, n = 3, 7
    b = k * (n - 2) + 1
    cols = orthogonal_columns(rng, k, 2)
    w = random_combination(rng, cols)
    (workdir / "graph.txt").write_text(
        f"n {b + 1}\n" + "".join(f"{u} {v}\n" for u, v in gp_edges(k, n)))
    basis = " ".join(str(x) for col in cols for x in col)
    (workdir / "coins.txt").write_text(f"coin 0 basis 2 {basis}\ncoin {b} basis 2 {basis}\n")
    (workdir / "w.txt").write_text(" ".join(str(x) for x in w) + "\n")

    def first_line(want):
        def check(out):
            lines = out.splitlines()
            if not lines or lines[0] != want:
                raise Failure(f"stdout {lines[:1]} != golden {want!r}")
        return check

    def split_check(out):
        first_line("TRANSFER time=4 gamma=-1")(out)
        lines = out.splitlines()
        if len(lines) != 2 or not lines[1].startswith("SPLIT plus=["):
            raise Failure(f"transfer implies a strong-cospectrality split, got {lines[1:]}")

    def family_check(out):
        lines = out.splitlines()
        pat = re.compile(r"CASE \S+ expected=2 got=2 fidelity=[0-9.]+ status=PASS")
        if len(lines) != 2 or not all(pat.fullmatch(line) for line in lines):
            raise Failure(f"family k2m lines {lines}")

    def simulate_check(out):
        # circulant(3,1,2): sigma_0 = sigma_3 = (1,2,4,5); w1 = (1,0,-1,0)/sqrt2
        # starts on the arcs of 0 and lands, negated (gamma = -1), on those of 3
        r = 2 ** -0.5
        want = {0: {"(0,1)": r, "(0,4)": -r}, 4: {"(3,1)": -r, "(3,4)": r}}
        got: dict = {}
        current = None
        for line in out.splitlines():
            if line.startswith("t="):
                current = got.setdefault(int(line[2:]), {})
            elif line.strip():
                arc, re_s, im_s = line.split()
                current[arc] = complex(float(re_s), float(im_s))
        if set(got) != set(want) or any(set(got[t]) != set(want[t]) for t in want) or any(
                abs(got[t][arc] - v) > 1e-9 for t in want for arc, v in want[t].items()):
            raise Failure(f"simulate amplitudes {got}")

    circ = ["--family", "circulant", "--m", "3", "--c", "1", "--d", "2"]
    return [
        ("transfer", ["transfer", "--family", "gp", "--k", "3", "--n", "6"],
         first_line("TRANSFER time=5 gamma=+1")),
        ("transfer-split", ["transfer", *circ, "--report-split"], split_check),
        ("psi", ["psi", "--family", "k2m", "--m", "3"], first_line(PSI_K2M)),
        ("family", ["family", "--family", "k2m", "--m", "3"], family_check),
        ("simulate", ["simulate", *circ, "--state", "w1", "--times", "0,4"], simulate_check),
        ("transfer-files", ["transfer", "--graph", str(workdir / "graph.txt"),
                            "--coins", str(workdir / "coins.txt"),
                            "--subspace", str(workdir / "w.txt")],
         first_line("TRANSFER time=6 gamma=+1")),
    ]


def src_env(**extra: str) -> dict:
    """The environment for child interpreters: the checkout's ``src`` only."""
    return {**os.environ, "PYTHONPATH": str(SRC), **extra}


def cli_env(seed: int) -> dict:
    return src_env(SST_SEED=str(seed))


def cli_line(name: str, stdout: str) -> str:
    """First stdout line plus a digest of the whole output."""
    digest = hashlib.sha256(stdout.encode()).hexdigest()[:12]
    return f"{name} {stdout.splitlines()[0]} stdout-sha256={digest}"


def cli_subprocess_op(name, argv, check, env):
    def op(clock):
        proc = subprocess.run([sys.executable, "-m", "sstwalk.cli", *argv], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=120)
        clock.lap("cli")
        if proc.returncode != 0:
            raise Failure(f"exit {proc.returncode}: {proc.stderr.strip()}")
        check(proc.stdout)
        return cli_line(name, proc.stdout)
    return op


def cli_inprocess_op(sst, name, argv, check, seed):
    def op(clock):
        buf = io.StringIO()
        old = os.environ.get("SST_SEED")
        os.environ["SST_SEED"] = str(seed)
        try:
            with contextlib.redirect_stdout(buf):
                rc = sst.cli.main(list(argv))
        finally:
            if old is None:
                del os.environ["SST_SEED"]
            else:
                os.environ["SST_SEED"] = old
        clock.lap("cli")
        if rc != 0:
            raise Failure(f"cli.main returned {rc}")
        check(buf.getvalue())
        return cli_line(name, buf.getvalue())
    return op


def spawn_seconds(argv, repeats: int) -> float:
    """Median spawn-to-exit time of a child interpreter."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=src_env(), check=True, capture_output=True,
                       timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# -- running a workload -----------------------------------------------------


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between order statistics (never outside
    the sample range)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_quantile(passes, q: int) -> float:
    """Median over passes of the q-th percentile of one pass's operation
    latencies: every pass runs the same operations, so the value does not
    depend on how many passes fit in the run."""
    return statistics.median(quantile([r.seconds for r in rs], q) for _w, rs in passes)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def import_package():
    sys.path.insert(0, str(SRC))
    import sstwalk
    import sstwalk.cli  # noqa: F401  (neither is imported by the package)
    import sstwalk.families  # noqa: F401
    if Path(sstwalk.__file__).resolve().parent != (SRC / "sstwalk").resolve():
        sys.exit(f"error: imported sstwalk from {sstwalk.__file__}, not {SRC}")
    return sstwalk


IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import sstwalk, sstwalk.cli, sstwalk.families; "
                "print(time.perf_counter() - t)")


def import_seconds(repeats: int) -> list[float]:
    """``import sstwalk`` timed inside fresh interpreters: a process pays it
    once, so repeating it needs new processes."""
    return [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                                 env=src_env(), capture_output=True, text=True,
                                 check=True, timeout=120).stdout)
            for _ in range(repeats)]


class Workload:
    """Binds a workload's set-up and its operation list."""

    def __init__(self, name: str, sst, seed: int, workdir: Path):
        self.name, self.sst, self.seed, self.workdir = name, sst, seed, workdir

    def setup(self):
        sst, seed = self.sst, self.seed
        if self.name == "exact-ladder":
            return build_exact_ladder(sst, seed)
        if self.name == "random-small":
            return build_random_small(sst, seed)
        if self.name == "numeric-large":
            return build_numeric_large(sst, seed)
        return build_cli(self.workdir, seed)

    def ops(self, plan, inprocess: bool = False):
        sst = self.sst
        if self.name == "exact-ladder":
            return [(inst.name, exact_ladder_op(sst, inst)) for inst in plan]
        if self.name == "random-small":
            return [(inst.name, random_small_op(sst, inst)) for inst in plan]
        if self.name == "numeric-large":
            return numeric_ops(sst, plan)
        if inprocess:
            return [(n, cli_inprocess_op(sst, n, argv, check, self.seed))
                    for n, argv, check in plan]
        env = cli_env(self.seed)
        return [(n, cli_subprocess_op(n, argv, check, env)) for n, argv, check in plan]


def run_pass(ops, tracer=None) -> tuple[float, list[OpResult]]:
    t0 = time.perf_counter()
    results = [run_op(name, fn, tracer) for name, fn in ops]
    return time.perf_counter() - t0, results


def timed_setups(work: Workload):
    """Build the workload's inputs SETUP_BUILDS times; keep the last build."""
    least, most, budget = SETUP_BUILDS
    times, plan = [], None
    while len(times) < least or (len(times) < most and sum(times) < budget):
        t0 = time.perf_counter()
        plan = work.setup()
        times.append(time.perf_counter() - t0)
    return plan, times


def emit(metric: str, value, unit: str, samples: int):
    print(f"metric {metric} {value!r} {unit} samples={samples}")


def measure(work: Workload, seconds: float) -> dict:
    imports = import_seconds(IMPORT_REPEATS)
    plan, setup_times = timed_setups(work)
    ops = work.ops(plan)
    if work.name == "cli-cold":
        run_pass(ops[:1])  # compile bytecode once; a fresh checkout has none
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops))
    walls = [w for w, _ in passes]
    results = [r for _, rs in passes for r in rs]
    failed = sum(r.error is not None for r in results)
    metrics = {
        "setup_s": (statistics.median(imports) + statistics.median(setup_times), "s",
                    len(imports) + len(setup_times)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "ladder_s": (statistics.median(walls), "s", len(walls)),
        "instances_per_s": (len(results) / sum(walls), "1/s", len(results)),
        "instance_p90_s": (pass_quantile(passes, 90), "s", len(results)),
    }
    for name, (value, unit, n) in metrics.items():
        emit(name, value, unit, n)
    emit("instance_p50_s", pass_quantile(passes, 50), "s", len(results))
    print_workload_metrics(work, plan, passes)
    emit("error_rate", failed / len(results), "ratio", len(results))
    print_verdicts(passes[0][1])
    return {"correct": failed == 0, "attempted": len(results), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()}}


def stage_sum(results, stage):
    return sum(r.stages.get(stage, 0.0) for r in results)


def print_workload_metrics(work: Workload, plan, passes):
    """The workload's own end-to-end metrics (printed, not in the JSON line,
    which carries only the metrics every workload defines steadily)."""
    results = [r for _, rs in passes for r in rs]
    if work.name == "exact-ladder":
        decide = [stage_sum(rs, "decide") for _, rs in passes]
        emit("decide_s", statistics.median(decide), "s", len(decide))
    elif work.name == "random-small":
        total = sum(r.seconds for r in results)
        for stage in ("decide", "split", "sweep", "check"):
            print(f"share {stage} {stage_sum(results, stage) / total:.3f}")
        near = sum(" near=" in r.line for r in passes[0][1])
        print(f"near_misses {near} (negative verdicts whose sweep came within "
              f"{SWEEP_TOL:g} of 1 by t={NEAR_EXACT_T}, refuted exactly)")
    elif work.name == "numeric-large":
        arcs = {inst.name: inst.extra["arcs"] for inst in plan}
        walks = [r for r in results if r.name.endswith(":walk")]
        arc_steps = sum(arcs[r.name.rsplit(":", 1)[0]] * NUMERIC_WALK_T for r in walks)
        emit("arc_steps_per_s", arc_steps / stage_sum(walks, "walk"), "1/s", len(walks))
        fid = [r.seconds for r in results if r.name == f"{plan[-1].name}:fidelity"]
        emit("fidelity_s", statistics.median(fid), "s", len(fid))
        sweep = [r.seconds for r in results if r.name.endswith(":sweep")]
        emit("sweep_s", statistics.median(sweep), "s", len(sweep))
    else:
        emit("cli_p50_s", pass_quantile(passes, 50), "s", len(results))
        emit("cli_p90_s", pass_quantile(passes, 90), "s", len(results))


def verdict_lines(results) -> list[str]:
    return [r.line for r in results]


def print_verdicts(results):
    lines = verdict_lines(results)
    if len(lines) <= 10:
        for line in lines:
            print("verdict", line)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    stages: dict[str, int] = {}
    for line in lines:
        m = re.search(r"(TRANSFER|NO_TRANSFER stage=\S+)", line)
        if m:
            stages[m.group(1)] = stages.get(m.group(1), 0) + 1
    print(f"verdicts n={len(lines)} sha256={digest} "
          + " ".join(f"{k.replace(' ', ':')}={v}" for k, v in sorted(stages.items())))


def measure_traced(work: Workload, seconds: float) -> dict:
    """Reference set-up + pass (untraced; for cli-cold the subprocesses), then
    set-up and passes again, each set-up and each operation once untraced and
    once traced, alternating which goes first, so the overhead is measured on
    the same work at the same moment."""
    import tracing as bench_trace

    sst = work.sst
    cli = work.name == "cli-cold"
    ref_results = run_pass(work.ops(work.setup()))[1]
    ref_lines = verdict_lines(ref_results)
    ref_failed = sum(r.error is not None for r in ref_results)
    if cli:
        run_pass(work.ops(work.setup(), inprocess=True))  # in-process imports (sympy)

    tracer = bench_trace.Tracer()
    bench_trace.install(tracer, sst)

    def traced(fn, *args):
        tracer.enable()
        try:
            return fn(*args)
        finally:
            tracer.disable()

    def timed(fn):
        t0 = time.perf_counter()
        out = fn()
        return time.perf_counter() - t0, out

    base_setup, _plan = timed(work.setup)
    traced_setup, plan = traced(timed, work.setup)
    setup_self = tracer.self_times()
    setup_counts = dict(tracer.counts)
    setup_max = dict(tracer.maxima)
    spans = list(tracer.spans)
    tracer.reset()
    ops = work.ops(plan, inprocess=True)
    passes, base_results = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        results = []
        for i, (name, fn) in enumerate(ops):
            if i % 2:
                results.append(traced(run_op, name, fn, tracer))
            base_results.append(run_op(name, fn))
            if not i % 2:
                results.append(traced(run_op, name, fn, tracer))
        passes.append((sum(r.seconds for r in results), results))

    cli_probe = {}
    if cli:
        cli_probe["cli.main_s"] = statistics.median(r.seconds for r in base_results)
        cli_probe["cli.interp_s"] = spawn_seconds([sys.executable, "-c", "pass"], 5)
        cli_probe["cli.import_s"] = spawn_seconds([sys.executable, "-c", "import sstwalk"], 5)

    npass = len(passes)
    pass_self = tracer.self_times()
    metrics: dict[str, tuple[float, str]] = {}
    for span in bench_trace.TIMED_SPANS:
        metrics[span + "_s"] = (setup_self.get(span, 0.0) + pass_self.get(span, 0.0) / npass, "s")
    for key in bench_trace.COUNTERS:
        metrics[key] = (setup_counts.get(key, 0) + tracer.counts.get(key, 0) / npass, "count")
    for stage in bench_trace.STAGES:
        key = "decider.stage." + stage
        metrics[key] = (tracer.counts.get(key, 0) / npass, "count")
    metrics["reduction.den_bits"] = (
        max(setup_max.get("reduction.den_bits", 0), tracer.maxima.get("reduction.den_bits", 0)),
        "bits")
    metrics["decider.support_degree"] = (tracer.maxima.get("decider.support_degree", 0), "count")
    for key in ("walk.setup_s", "walk.step_s"):
        values = tracer.samples.get(key)
        metrics[key] = (statistics.median(values) if values else 0.0, "s")
    metrics["walk.norm_drift"] = (tracer.maxima.get("walk.norm_drift", 0.0), "norm")
    for key in ("cli.interp_s", "cli.import_s", "cli.main_s"):
        metrics[key] = (cli_probe.get(key, 0.0), "s")
    traced_wall = sum(w for w, _ in passes) / npass
    base_wall = sum(r.seconds for r in base_results) / npass
    overhead = (traced_setup + traced_wall) - (base_setup + base_wall)
    metrics["trace.overhead_s"] = (overhead, "s")

    traced_results = [r for _, rs in passes for r in rs]
    traced_failed = sum(r.error is not None for r in traced_results)
    failed = traced_failed + sum(r.error is not None for r in base_results)
    mismatched = [i for i, (_w, rs) in enumerate(passes) if verdict_lines(rs) != ref_lines]
    unattributed = pass_self.get("bench.op", 0.0) / npass
    for name, (value, unit) in metrics.items():
        print(f"layer {name} {value!r} {unit}")
    print(f"trace passes={npass} spans={len(spans) + len(tracer.spans)} "
          f"unattributed_s={unattributed!r}")
    print(f"trace overhead_s={overhead!r} share={overhead / (base_setup + base_wall):.4f} "
          f"(traced {traced_setup + traced_wall:.4f} s vs untraced {base_setup + base_wall:.4f} s)")
    print(f"trace self-check verdicts={'match' if not mismatched else 'MISMATCH'} "
          f"error_rate untraced={ref_failed / len(ref_lines)!r} "
          f"traced={traced_failed / len(traced_results)!r}")
    print_verdicts(passes[0][1])
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    bench_trace.dump_spans(out_dir / f"trace-{work.name}-{work.seed}.jsonl",
                           spans, tracer.spans)
    correct = not mismatched and failed == 0 and ref_failed == 0
    attempted = len(ref_results) + len(traced_results) + len(base_results)
    return {"correct": correct, "attempted": attempted, "failed": failed + ref_failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print(f"# workload {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "sstwalk" / "__init__.py").is_file():
        sys.exit(f"error: no sstwalk package under {SRC}; run from a checkout")
    if args.workload == "all":
        return run_all(args)
    sst = import_package()
    print(f"# sstwalk bench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp-") as tmp:
        work = Workload(args.workload, sst, args.seed, Path(tmp))
        if args.trace:
            result = measure_traced(work, args.seconds)
        else:
            result = measure(work, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
