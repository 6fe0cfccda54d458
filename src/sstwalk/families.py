"""End-to-end verifiers for the transfer families.

Each case builds its instance with ``marked_instance``, the marked-pair
recipe the command line shares.  ``run_transfer_case`` takes it as
``reduction_for``'s arguments (assignment, a, W, b), runs the exact decider,
the exact Chebyshev check and the double-precision simulation, and reports
the three next to the expected transfer time.  The pretty-good
case runs the special-form decision plus a numeric fidelity sweep, whose
best step is checked against the stepped walk.
``FAMILIES`` is the table of the families the ``sst`` command line offers;
the module imports numpy only inside the numeric functions, so the command
line reads the table without loading it.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import TYPE_CHECKING

from . import linalg
from .coins import CoinAssignment, reflection_about
from .decider import TransferVerdict, decide_pretty_good_special, decide_transfer
from .cospec import strong_cospectral_exact
from .exact import InvariantError
from .graphs import (Graph, circulant_2m, complete_bipartite_k2m,
                     double_cone_cycles, double_cone_over, generalized_path)
from .reduction import exact_transfer_check, reduction_for
from .walk import transfer_fidelity

if TYPE_CHECKING:
    import numpy as np

FID_TOL = 1e-9


@dataclass
class CaseResult:
    name: str
    expected_time: int | None
    verdict: TransferVerdict
    fidelity: float
    dim_w: int
    status: str

    def line(self) -> str:
        got = self.verdict.time if self.verdict.occurs else "none"
        return (f"CASE {self.name} expected={self.expected_time} got={got} "
                f"fidelity={self.fidelity:.12f} status={self.status}")


def marked_instance(graph: Graph, a: int, b: int, w=None):
    """``reduction_for``'s arguments (assignment, a, W, b) of the marked-pair
    recipe: the pair gets the reflection about W, every other vertex a Grover
    coin.  With w None, every vertex gets a Grover coin and W = span{1}."""
    if w is None:
        return CoinAssignment.all_grover(graph), a, [[Fraction(1)] * graph.degree(a)], b
    return CoinAssignment.grover_with_marked(graph, a, b, reflection_about(w)), a, w, b


def run_transfer_case(name: str, assignment: CoinAssignment, a: int, w_basis, b: int,
                      expected_time: int) -> CaseResult:
    """Decide + exact check + simulate one marked-pair instance, given as
    ``reduction_for``'s arguments."""
    red = reduction_for(assignment, a, w_basis, b)
    verdict = decide_transfer(red)
    ok = verdict.occurs and verdict.time == expected_time
    fid = 0.0
    if verdict.occurs:
        ok = ok and exact_transfer_check(red, verdict.time, verdict.gamma)
        fid, gamma_hat = transfer_fidelity(assignment, a, b, w_basis, verdict.time)
        ok = ok and fid >= 1 - FID_TOL
        ok = ok and abs(gamma_hat - verdict.gamma) < 1e-6
    return CaseResult(name=name, expected_time=expected_time, verdict=verdict,
                      fidelity=fid, dim_w=len(red.s), status="PASS" if ok else "FAIL")


# -- random rational sampling -------------------------------------------------


def random_orthogonal_columns(rng: random.Random, dim: int, count: int
                              ) -> list[list[int]]:
    """``count`` pairwise-orthogonal primitive integer vectors in Q^dim.

    Built by applying two Householder reflections about small integer
    vectors v to the standard basis, in integers: w <- <v,v> w - 2 <v,w> v is
    a positive multiple of the reflected w, so the primitive forms are the
    rational ones; keeps every downstream exact computation's coefficients
    small.
    """
    if not 1 <= count <= dim:
        raise ValueError("count must be between 1 and dim")
    cols = [[int(i == j) for i in range(dim)] for j in range(dim)]
    for _ in range(2):
        v = [rng.randint(-3, 3) for _ in range(dim)]
        if not any(v):
            v[rng.randrange(dim)] = 1
        nv = linalg.dot(v, v)
        cols = [[nv * x - 2 * linalg.dot(v, col) * y for x, y in zip(col, v)]
                for col in cols]
    picks = rng.sample(range(dim), count)
    return [linalg.primitive_int_vector(cols[j]) for j in picks]


def random_coin_and_subspace(rng: random.Random, degree: int):
    """A random rational reflection coin of random rank plus a random subspace
    of its fixed space (spanned by part of its orthogonal basis)."""
    rank = rng.randint(1, degree)
    dim_w = rng.randint(1, rank)
    cols = random_orthogonal_columns(rng, degree, rank)
    coin = reflection_about([list(v) for v in cols])
    return coin, [list(v) for v in cols[:dim_w]]


# -- the transfer families ----------------------------------------------------


def case_k2m(m: int, rng: random.Random | None = None) -> CaseResult:
    """K_{2,m} with marked degree-m vertices: transfer at t=2 for any
    reflection C_a = C_b and any W inside its fixed space."""
    graph, a, b = complete_bipartite_k2m(m)
    if rng is None:
        return run_transfer_case(f"k2m(m={m},grover)", *marked_instance(graph, a, b),
                                 expected_time=2)
    coin, w = random_coin_and_subspace(rng, m)
    return run_transfer_case(f"k2m(m={m},rank={coin.rank},dim={len(w)})",
                             CoinAssignment.grover_with_marked(graph, a, b, coin), a, w, b,
                             expected_time=2)


CIRCULANT_W = ([Fraction(1), Fraction(0), Fraction(-1), Fraction(0)],
               [Fraction(0), Fraction(1), Fraction(0), Fraction(-1)])


def case_circulant(m: int, c: int, d: int) -> CaseResult:
    """X(2m, +-{c,d}) with c + d = m: dim-2 W-transfer between antipodes at t=4,
    with the coin reflecting about W (over neighbors c, d, -d, -c)."""
    return run_transfer_case(f"circulant(m={m},c={c},d={d})",
                             *marked_instance(*circulant_2m(m, c, d),
                                              [list(v) for v in CIRCULANT_W]),
                             expected_time=4)


def double_cone_w(ms: list[int]) -> list[list[Fraction]]:
    """The alternating W of the double cone over C_{4m_1} u ... u C_{4m_k}:
    one vector per cycle, 1, 0, -1, 0, ... along that cycle's vertices in the
    neighbor order of a conical vertex, 0 on the other cycles."""
    total = sum(4 * m for m in ms)
    w = []
    offset = 0
    for m in ms:
        vec = [Fraction(0)] * total
        for i in range(m):
            vec[offset + 4 * i] = Fraction(1)
            vec[offset + 4 * i + 2] = Fraction(-1)
        w.append(vec)
        offset += 4 * m
    return w


def case_double_cone(ms: list[int]) -> CaseResult:
    """Double cone over C_{4m_1} u ... u C_{4m_k}: transfer of the k-dimensional
    alternating subspace between the conical vertices at t=4."""
    name = "double_cone(" + ",".join(str(4 * m) for m in ms) + ")"
    return run_transfer_case(name, *marked_instance(*double_cone_cycles(ms),
                                                    double_cone_w(ms)),
                             expected_time=4)


def case_gp(k: int, n: int, coin_rank: int = 1,
            rng: random.Random | None = None) -> CaseResult:
    """GP(k,n) with the glued endpoints marked: any W transfers at t = n-1."""
    span = None
    if coin_rank != 1:
        if coin_rank > k:
            raise ValueError("coin rank cannot exceed the endpoint degree k")
        span = random_orthogonal_columns(rng or random.Random(0), k, coin_rank)
    return run_transfer_case(f"gp(k={k},n={n},rank={coin_rank})",
                             *marked_instance(*generalized_path(k, n), span),
                             expected_time=n - 1)


def case_octahedron_grover() -> CaseResult:
    """The octahedron with Grover coins everywhere and W = span{1}: the
    all-ones coin state moves between antipodes at t=6."""
    return run_transfer_case("octahedron(grover)", *marked_instance(*circulant_2m(3, 1, 2)),
                             expected_time=6)


# -- pretty-good double cones -------------------------------------------------


@dataclass
class PrettyGoodResult:
    name: str
    accepted: bool
    support_factors: tuple
    best_time: int | None = None
    best_fidelity: float = 0.0
    status: str = "FAIL"


PRETTY_GOOD_T_MAX = 10 ** 5
"""Last step of the fidelity sweep of an accepted pretty-good cone."""

PRETTY_GOOD_EARLY_EXIT = 1 - 1e-6
"""The sweep of an accepted pretty-good cone stops at the first step whose
fidelity reaches this."""


def case_pretty_good_cone(base: Graph, name: str = "cone") -> PrettyGoodResult:
    """Double cone over a k-regular base with singular adjacency: pretty-good
    W-transfer for W = ker A(base) iff k is outside {0, 2, 6}.

    Decides the special form from the reduction's (S, S) resolvent summary,
    reports the support's factors, and (when accepted) sweeps fidelity up to
    PRETTY_GOOD_T_MAX, then checks the best step of the sweep against the
    stepped walk (``exact.InvariantError`` if they disagree).
    """
    import numpy as np

    degs = {base.degree(u) for u in range(base.n)}
    if len(degs) != 1:
        raise ValueError("pretty-good cone needs a regular base graph")
    adj = [[Fraction(1) if base.adjacent(u, v) else Fraction(0)
            for v in range(base.n)] for u in range(base.n)]
    kernel = linalg.kernel_basis(adj)
    if not kernel:
        raise ValueError("empty kernel: base adjacency matrix is nonsingular")
    assignment, a, _, b = marked_instance(*double_cone_over(base), kernel)
    red = reduction_for(assignment, a, kernel, b)
    accepted = decide_pretty_good_special(red)
    factors = strong_cospectral_exact(red, red.s, red.s).support_factors
    result = PrettyGoodResult(name=name, accepted=accepted, support_factors=factors)
    if not accepted:
        result.status = "REJECTED"
        return result
    fid = fidelity_series(red, PRETTY_GOOD_T_MAX, early_exit=PRETTY_GOOD_EARLY_EXIT)
    best_t = int(np.argmax(fid))
    result.best_time = best_t
    result.best_fidelity = float(fid[best_t])
    # cross-check the best sweep point against the walk itself
    direct = transfer_fidelity(assignment, a, b, kernel, best_t)[0]
    if abs(direct - result.best_fidelity) > 1e-7:
        raise InvariantError("spectral sweep disagrees with direct simulation")
    result.status = "PASS" if result.best_fidelity >= 0.999 else "FAIL"
    return result


SWEEP_CHUNK = 20000
"""Steps per chunk of ``fidelity_series``: the early exit looks at whole
chunks, and each chunk costs (chunk / B + B) cos and sin per eigenvalue with
B = ceil(sqrt(chunk))."""

_DEFLATION_TOL = 1e-10
"""A Krylov direction whose norm falls below this after orthogonalisation
against the basis is dropped as dependent; H has norm <= 1 and the starting
columns are unit vectors, so the bound is absolute."""

_FLUSH = 1e-20
"""Entries of a unit basis vector below this are set to 0: they lie far below
rounding in every inner product, and left alone the repeated orthogonalisations
drive them into subnormal numbers, which slow BLAS and LAPACK several-fold."""


def _krylov_capacity(red) -> int:
    """Rows the Krylov basis of ``_krylov_spectrum`` starts with: twice the
    marked clones, at least 16, at most the clone count n."""
    return min(max(2 * len(set(red.s) | set(red.t)), 16), red.size)


def _marked_spectrum(red) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lam_k of H and weights E_k[T_j, S_j] (dim W x k).

    When the Krylov basis would start at its full n x n capacity, a dense
    ``eigh`` of ``h_numeric`` needs no more memory, and at those sizes it
    costs about a tenth of growing the basis column by column (whose time
    goes to numpy calls, not arithmetic), so it is taken.  That holds at
    n <= 16, and past 16 clones when n <= 2 |S u T|, a wide W such as the
    K_{5,5,5} cone's (24 marked of 39 clones); there the sweep also carries
    all n eigenvalues, not only the Ritz values (39 against 36).  Otherwise the
    spectrum comes from the block Krylov space of the marked clones
    (``_krylov_spectrum``), and no n x n array is built.
    """
    import numpy as np

    if _krylov_capacity(red) < red.size:
        return _krylov_spectrum(red)
    lam, vecs = np.linalg.eigh(red.h_numeric())
    return lam, vecs[red.t] * vecs[red.s]


def _krylov_spectrum(red) -> tuple[np.ndarray, np.ndarray]:
    """Ritz values lam_k of H and weights E_k[T_j, S_j] (dim W x k) on the
    block Krylov space of the unit columns of S u T.

    The basis starts with ``_krylov_capacity`` rows and grows one block at a
    time: the next block is H times the last one (sparse mat-vecs on
    ``h_sparse``), and each of its columns is orthogonalised twice against
    the whole basis.  A column left with norm below _DEFLATION_TOL is
    dropped.  When no column survives, the space is H-invariant and holds
    every e_s and e_t, so Rayleigh-Ritz on it reproduces the marked spectral
    weights of H up to rounding.
    """
    import numpy as np

    rows, cols, vals = red.h_sparse
    n = red.size
    marked = sorted(set(red.s) | set(red.t))
    basis = np.zeros((_krylov_capacity(red), n))            # rows: orthonormal
    basis[np.arange(len(marked)), marked] = 1.0
    images = np.zeros_like(basis)                           # rows: H times each
    used, last = len(marked), slice(0, len(marked))
    while True:
        block = basis[last]
        width = len(block)
        hits = (rows[:, None] * width + np.arange(width)).ravel()
        image = np.bincount(hits, weights=(vals[:, None] * block.T[cols]).ravel(),
                            minlength=n * width).reshape(n, width).T
        images[last] = image
        start = used
        for col in image:
            for _ in range(2):
                col = col - basis[:used].T @ (basis[:used] @ col)
            norm = float(np.linalg.norm(col))
            if norm < _DEFLATION_TOL:
                continue
            if used == n:
                raise InvariantError("Krylov basis outgrew the clone space")
            if used == len(basis):  # double the capacity, up to n rows
                grow = np.zeros((min(used, n - used), n))
                basis, images = np.vstack([basis, grow]), np.vstack([images, grow])
            col /= norm
            col[np.abs(col) < _FLUSH] = 0.0
            basis[used] = col
            used += 1
        if used == start:
            break
        last = slice(start, used)
    basis, images = basis[:used], images[:used]
    # Rayleigh-Ritz with the first-order Gram correction G^{-1/2} ~ I - E/2,
    # E = basis basis^T - I: the basis is orthonormal only to rounding, and
    # near |lam| = 1, where the sweep is most sensitive, E would otherwise
    # move the Ritz values by a few ulps
    skew = basis @ basis.T - np.eye(used)
    rayleigh = basis @ images.T
    rayleigh -= (skew @ rayleigh + rayleigh @ skew) / 2
    lam, ritz = np.linalg.eigh((rayleigh + rayleigh.T) / 2)
    ritz -= skew @ ritz / 2
    return lam, (basis[:, red.t].T @ ritz) * (basis[:, red.s].T @ ritz)


def _cos_sums(theta: np.ndarray, weights: np.ndarray, start: int,
              length: int) -> np.ndarray:
    """sum_k weights[j, k] cos(t theta_k) for t = start .. start+length-1,
    as a (dim W, length) array.

    With t = t0 + s, t0 on a grid of step B = ceil(sqrt(length)) and
    0 <= s < B, angle addition gives cos(t0 theta) cos(s theta) -
    sin(t0 theta) sin(s theta): (length / B + B) cos and sin per angle and
    two matrix products, in place of length cosines.  The second product is
    subtracted in place, so the chunk allocates two (dim W, length) arrays.
    """
    import numpy as np

    step = isqrt(length - 1) + 1
    coarse = np.outer(start + np.arange(0, length, step), theta)   # (length/B, k)
    fine = np.outer(np.arange(step), theta)                        # (B, k)
    cos0 = np.cos(coarse)[None] * weights[:, None, :]              # (dim W, length/B, k)
    sin0 = np.sin(coarse)[None] * weights[:, None, :]
    sums = cos0 @ np.cos(fine).T                                   # (dim W, length/B, B)
    sums -= sin0 @ np.sin(fine).T
    return sums.reshape(len(weights), -1)[:, :length]


def fidelity_series(red, t_max: int, early_exit: float | None = None) -> np.ndarray:
    """Pointwise W-transfer fidelity at integer steps 0..t_max, spectrally.

    Uses N* U^t N = f_t(H): the overlap of U^t x_a(w_j) with x_b(w_j) is
    sum_k cos(t arccos lambda_k) E_k[T_j, S_j].  ``_marked_spectrum``
    gives lambda and E: a dense ``eigh`` of H when the block Krylov basis of
    the marked clones S u T would start at its full size x size capacity
    (at most 16 clones, or at most twice |S u T|), and otherwise the Ritz
    values and weights of that Krylov space, grown until it is H-invariant,
    so exact up to rounding, with no size x size array built.  The cosine
    sums are evaluated in chunks of SWEEP_CHUNK steps by the blocked kernel
    ``_cos_sums``, and each chunk's fidelities, min_j gamma overlap_j
    clipped to [0, 1] with gamma the sign of overlap_0 (+1 where it is 0),
    are written into the output in place.  Identical to the direct
    simulation up to the spectral-bridge accuracy; with ``early_exit`` the
    sweep stops after the first step whose fidelity reaches the threshold,
    and returns that prefix of the full series.
    """
    import numpy as np

    lam, weights = _marked_spectrum(red)
    theta = np.arccos(np.clip(lam, -1.0, 1.0))
    out = np.zeros(t_max + 1)
    for start in range(0, t_max + 1, SWEEP_CHUNK):
        chunk = out[start:start + SWEEP_CHUNK]
        first, *rest = _cos_sums(theta, weights, start, len(chunk))  # dim W rows
        gamma = np.sign(first)
        gamma[gamma == 0] = 1.0
        np.multiply(first, gamma, out=chunk)
        for row in rest:
            row *= gamma
            np.minimum(chunk, row, out=chunk)
        np.clip(chunk, 0.0, 1.0, out=chunk)
        if early_exit is not None:
            hits = np.flatnonzero(chunk >= early_exit)
            if hits.size:
                return out[: start + hits[0] + 1]
    return out


def standard_battery(seed: int = 0) -> list[CaseResult]:
    """The default family battery: one representative instance per theorem."""
    rng = random.Random(seed)
    results = [
        case_k2m(3),
        case_k2m(4, rng=rng),
        case_circulant(3, 1, 2),
        case_circulant(4, 1, 3),
        case_double_cone([1, 2]),
        case_gp(2, 4),
        case_gp(3, 5, coin_rank=2),
        case_octahedron_grover(),
    ]
    return results


# -- the family table ---------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """One family of the ``sst`` command line.

    ``params`` names the flags the family reads, in the order in which
    ``graph``, ``marked_w`` and ``cases`` take their values.  ``graph`` builds
    (graph, a, b); ``graphs.build_family`` calls it.  ``marked_w`` gives the
    canonical marked subspace W that ``marked_instance`` takes (None: Grover
    coins everywhere and W = span{1}).  ``cases(rng, *params)``
    gives the ``sst family`` results (None: the family has none).
    """

    params: tuple[str, ...]
    graph: Callable[..., tuple[Graph, int, int]]
    marked_w: Callable[..., list[list[Fraction]]] | None = None
    cases: Callable[..., list[CaseResult]] | None = None


FAMILIES = {
    "k2m": Family(("m",), complete_bipartite_k2m,
                  cases=lambda rng, m: [case_k2m(m), case_k2m(m, rng=rng)]),
    "circulant": Family(("m", "c", "d"), circulant_2m,
                        marked_w=lambda m, c, d: [list(v) for v in CIRCULANT_W],
                        cases=lambda rng, m, c, d: [case_circulant(m, c, d)]),
    "double-cone": Family(("cycles",), double_cone_cycles, marked_w=double_cone_w,
                          cases=lambda rng, ms: [case_double_cone(ms)]),
    "gp": Family(("k", "n"), generalized_path,
                 cases=lambda rng, k, n: [case_gp(k, n)]),
    "cone-over": Family(("base",), double_cone_over),
}
