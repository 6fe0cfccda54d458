"""sstwalk: exact + numeric toolkit for subspace state transfer in
arc-reversal coined quantum walks with reflection coins."""

from .coins import (CoinAssignment, CoinError, ReflectionCoin, grover_coin,
                    negative_identity_coin, parse_coins, reflection_about)
from .cospec import SupportSplit, strong_cospectral_exact
from .decider import (PeriodicityVerdict, TransferVerdict, cyclotomic,
                      decide_periodicity, decide_pretty_good_special,
                      decide_transfer)
from .exact import RatFun, RatPoly, poly_gcd, psi
from .graphs import (Graph, GraphError, build_family, build_graph, circulant_2m,
                     complete_bipartite_k2m, cycle_graph, double_cone_cycles,
                     double_cone_over, generalized_path, parse_graph,
                     prism_graph)
from .reduction import (CoinBasis, HermitianReduction, ReductionError, build_H,
                        chebyshev_apply, exact_transfer_check,
                        induced_coin_basis, reduction_for)
from .walk import coin_state, transfer_fidelity, walk_apply

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
