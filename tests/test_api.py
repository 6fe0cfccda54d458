"""The public API of ``sstwalk``, pinned: a name enters or leaves it only by a
deliberate edit of this list."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import sstwalk
from conftest import family_reduction
from sstwalk import ReflectionCoin, decider, exact, graphs, linalg, walk, zfactor

PUBLIC = [
    "CoinAssignment", "CoinBasis", "CoinError", "Graph", "GraphError",
    "HermitianReduction", "PeriodicityVerdict", "RatFun", "RatPoly",
    "ReductionError", "ReflectionCoin", "SupportSplit", "TransferVerdict",
    "build_H", "build_family", "build_graph", "chebyshev_apply", "circulant_2m",
    "coin_state", "coins", "complete_bipartite_k2m", "cospec", "cycle_graph",
    "cyclotomic", "decide_periodicity", "decide_pretty_good_special",
    "decide_transfer", "decider", "double_cone_cycles", "double_cone_over",
    "exact", "exact_transfer_check", "generalized_path", "graphs",
    "grover_coin", "induced_coin_basis", "linalg", "negative_identity_coin",
    "parse_coins", "parse_graph", "poly_gcd", "prism_graph", "psi", "reduction",
    "reduction_for", "reflection_about", "strong_cospectral_exact",
    "transfer_fidelity", "walk", "walk_apply",
]

# the blow-up route lives in tests/blowup_oracle.py; cospectral was a
# pass-through to resolvent(red, s, t).cospectral
REMOVED = [
    "AdjacentMarkedPair", "BlowUp", "build_blowup", "IndeterminateClustering",
    "NumericSplit", "strong_cospectral_numeric", "TwinTransferClass",
    "twin_transfer_check", "cospectral",
]


def test_public_names_pinned():
    assert sorted(sstwalk.__all__) == PUBLIC


def test_removed_names_not_importable():
    for module in ("sstwalk", "sstwalk.cospec", "sstwalk.reduction"):
        present = [name for name in REMOVED
                   if hasattr(importlib.import_module(module), name)]
        assert present == [], module


# psi_S, g and g's scan (cosine_factor) from the unit columns and the vector
# certificate (_annihilates) live in tests/transfer_oracle.py, the batch
# Berlekamp-Massey in tests/psi_oracle.py
REMOVED_FROM_EXACT = ["berlekamp_massey", "_series_fraction", "cosine_factor", "_annihilates"]
REMOVED_FROM_RESOLVENT = ["psi_s", "g", "orders", "factors", "_scan"]


def test_unit_column_route_removed():
    assert [name for name in REMOVED_FROM_EXACT if hasattr(exact, name)] == []
    assert [name for name in REMOVED_FROM_RESOLVENT if hasattr(exact.Resolvent, name)] == []


# g+- stay in Z[y] until output, so no Fraction denominator or square-free
# pass is left; the square-free oracle lives in tests/test_cosine.py.  psi_st
# is built in lowest terms from its own minimal recurrence, so RatFun has one
# constructor that takes no gcd, and the Q[x] operators no package path called
# went; tests/psi_oracle.py keeps reduced, combination, quotient and power.
# RatFun.parse went too: it read text that need not be in lowest terms, and
# RatPoly.parse, which only a test called, and RatPoly's uncalled negation
# and difference
REMOVED_FRACTION_CARRIER = ["squarefree_part", "_denominator"]
REMOVED_FROM_RATPOLY = ["derivative", "__floordiv__", "__mod__", "__pow__", "parse",
                        "__neg__", "__sub__"]
REMOVED_FROM_RATFUN = ["_lowest", "__add__", "__sub__", "__neg__", "parse"]


def test_fraction_carrier_removed():
    assert [name for name in REMOVED_FRACTION_CARRIER if hasattr(exact, name)] == []
    assert [name for name in REMOVED_FROM_RATPOLY if hasattr(exact.RatPoly, name)] == []
    assert [name for name in REMOVED_FROM_RATFUN if hasattr(exact.RatFun, name)] == []


# Q[x] Euclid: every call of poly_gcd, RatPoly.divmod and RatPoly.monic in the
# package, as (enclosing function, callee); moving these two owners to the
# tests removes the last of it
Q_X_EUCLID_CALLS = {("decider.factor_into_cyclotomics", "divmod"),
                    ("decider.factor_into_cyclotomics", "monic"),
                    ("exact.poly_gcd", "monic")}


def _q_x_euclid_calls(node, scope):
    """(scope, callee) for every call of poly_gcd, .divmod or .monic under
    node, scope the dotted names of the enclosing module, classes and
    functions."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        elif isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Attribute) and func.attr in ("poly_gcd", "divmod", "monic"):
                yield scope, func.attr
            elif isinstance(func, ast.Name) and func.id == "poly_gcd":
                yield scope, func.id
        yield from _q_x_euclid_calls(child, inner)


def test_q_x_euclid_stays_with_its_owners():
    calls = set()
    for path in Path(sstwalk.__file__).parent.glob("*.py"):
        calls.update(_q_x_euclid_calls(ast.parse(path.read_text()), path.stem))
    assert calls == Q_X_EUCLID_CALLS


# a Resolvent owns its two moment sequences, and each sequence its Krylov
# vectors: no per-reduction vector cache or sequence memo is left
REMOVED_MEMO_LAYERS = ["_krylov", "_self_moments"]
REMOVED_FROM_KRYLOV = ["levels", "release", "vectors"]


def test_memo_layers_removed():
    assert [name for name in REMOVED_MEMO_LAYERS if hasattr(exact, name)] == []
    assert [name for name in REMOVED_FROM_KRYLOV if hasattr(exact._Krylov, name)] == []


# a sequence keeps only the last two Krylov vectors of each start, which it
# drops once its recurrence is final and never regrows: the moments certify
# the recurrence, so no list of every Z^k x is kept for a certificate
REMOVED_FROM_SELF_MOMENTS = ["levels", "vectors"]


def test_sequence_regrowth_removed():
    seq = exact._SelfMoments(exact._Krylov(family_reduction("k2m(20)")), (((0, 1),),))
    assert [name for name in REMOVED_FROM_SELF_MOMENTS
            if hasattr(exact._SelfMoments, name) or hasattr(seq, name)] == []


# the pretty-good special case reads the (S, S) summary's g+ and its cosine
# scan; the factor-list rule and its geodetic cos^2 table live in
# tests/transfer_oracle.py
REMOVED_FROM_DECIDER = ["_special_support_csq", "_GEODETIC_COS_SQ"]


def test_factor_list_pretty_good_rule_removed():
    assert [name for name in REMOVED_FROM_DECIDER if hasattr(decider, name)] == []


# one exact division in Z[y]: the cosine scan, and zfactor's square-free part
# and recombination, all call exact._quotient
def test_one_exact_division_in_z_y():
    assert not hasattr(exact, "_monic_quotient")
    assert zfactor._quotient is exact._quotient
    defined = [node.name for node in ast.walk(ast.parse(Path(zfactor.__file__).read_text()))
               if isinstance(node, ast.FunctionDef)]
    assert [name for name in defined if "quotient" in name] == []


# decide_transfer reads the reduction's own (S, T), as decide_periodicity and
# decide_pretty_good_special read its (S, S); strong_cospectral_exact keeps
# its clone-set arguments, which the CLI and the families pass as (S, S)
def test_decide_transfer_reads_the_reduction_pair():
    assert list(inspect.signature(decider.decide_transfer).parameters) == ["red"]


def _function(module, name: str) -> ast.FunctionDef:
    return next(node for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _names(node) -> list[str]:
    return [child.id if isinstance(child, ast.Name) else child.attr
            for child in ast.walk(node) if isinstance(child, (ast.Name, ast.Attribute))]


# one primality test: zfactor's prime search asks exact._prime_factors, as
# exact.default_order_bound does, and does no trial division of its own
def test_one_primality_test():
    assert zfactor._prime_factors is exact._prime_factors
    names = _names(_function(zfactor, "_odd_primes"))
    assert "_prime_factors" in names
    assert [name for name in ("all", "range", "isqrt") if name in names] == []


# one path for every rest: exact._factors sends each rest of positive degree,
# a linear one too, to zfactor, with no branch of its own for a linear rest
def test_one_rest_factor_path():
    owner = _function(exact, "_factors")
    assert _names(owner).count("irreducible_factors") == 1
    assert sum(isinstance(node, ast.If) for node in ast.walk(owner)) == 1
    assert _names(owner).count("_from_scaled") == 1


# one reader of comment-stripped input lines, graphs.content_lines, serves the
# graph, coin and subspace files
def test_one_comment_stripping_reader():
    text = "".join(path.read_text() for path in Path(sstwalk.__file__).parent.glob("*.py"))
    assert text.count('split("#", 1)') == 1


# one path from a weight vector to a unit coin state: walk._coin_weights
# converts and normalizes the w of coin_state and W's exact Gram-Schmidt
# output in transfer_fidelity, and the numeric orthonormal basis of W lives in
# tests/walk_oracle.py; exact.charpoly clears its own denominators
def _scaled_doubles_calls(node) -> int:
    return sum(isinstance(call, ast.Call) and "scaled_doubles" in
               (getattr(call.func, "attr", None), getattr(call.func, "id", None))
               for call in ast.walk(node))


def test_one_path_to_a_unit_coin_state():
    assert not hasattr(walk, "orthonormal_columns")
    assert [name for name in ("common_denominator", "scaled_int_matrix")
            if hasattr(linalg, name)] == []
    tree = ast.parse(Path(walk.__file__).read_text())
    owner = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_coin_weights")
    assert _scaled_doubles_calls(owner) > 0
    assert _scaled_doubles_calls(tree) == _scaled_doubles_calls(owner)


# the graph derives the arc reversal once, and the walk and build_H read it:
# the dict-lookup copy, the neighbor-order helpers and the graph writer, none
# with a package caller, are gone (the writer lives in tests/tests_hutil.py)
def test_one_arc_reversal():
    assert not hasattr(walk, "reversal_permutation")
    assert not hasattr(graphs, "format_graph")
    assert [name for name in ("sigma", "sigma_pos") if hasattr(graphs.Graph, name)] == []


# a coin keeps one integer form: its basis, as primitive integer columns, which
# the reduction and the walk read; the Fraction fixedness test lives in
# tests/reduction_oracle.py, and the package's own is induced_coin_basis
REMOVED_FROM_COIN = ["clone_columns", "fixes"]


def test_one_integer_form_per_coin():
    assert [name for name in REMOVED_FROM_COIN if hasattr(ReflectionCoin, name)] == []
    coin = ReflectionCoin(2, ((1, 0), (0, 3)))
    assert coin.basis == ((1, 0), (0, 1))
    assert coin == ReflectionCoin(2, ((1, 0), (0, 1)))


# Code with no caller goes.  These are the functions, methods, classes and
# properties of the package that no package module names outside their own
# body (the re-exports of __init__ aside), each with its reason to stay; the
# names bench/tracing.py looks up leave once the tracer no longer patches them
TRACED = "looked up by name in bench/tracing.py"
CONSTRUCTOR = "public constructor that demos and users call"
NO_PACKAGE_CALLER = {
    "decider.sharp": TRACED,
    "decider.factor_into_cyclotomics": TRACED,
    "exact.poly_gcd": TRACED,
    "exact.factor_irreducible": TRACED,
    "exact.charpoly": TRACED,
    "linalg.bareiss_det": TRACED,
    "reduction.chebyshev_apply": TRACED,
    "reduction.HermitianReduction.sym": TRACED,
    "reduction.HermitianReduction.delta_sq": TRACED,
    "graphs.cycle_graph": CONSTRUCTOR,
    "graphs.prism_graph": CONSTRUCTOR,
    "graphs.complete_multipartite": CONSTRUCTOR,
    "families.case_pretty_good_cone": CONSTRUCTOR,
    "exact.Resolvent.g_minus": "g_plus's twin, read by the oracle tests as their "
                               "differential target and looked up by name in psi_oracle",
}


def _definitions(node, scope):
    """(dotted name, node) for every function, method, class and property
    under node, nested ones too, dunders skipped."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = f"{scope}.{child.name}"
            if not (child.name.startswith("__") and child.name.endswith("__")):
                yield name, child
            yield from _definitions(child, name)
        else:
            yield from _definitions(child, scope)


def _references(node, enclosing=()):
    """(name, enclosing definitions) for every name node refers to, as a Name,
    an Attribute or an import."""
    for child in ast.iter_child_nodes(node):
        inner = enclosing + (child,) if isinstance(
            child, (ast.FunctionDef, ast.ClassDef)) else enclosing
        if isinstance(child, ast.Name):
            yield child.id, inner
        elif isinstance(child, ast.Attribute):
            yield child.attr, inner
        elif isinstance(child, ast.alias):
            yield child.name.rpartition(".")[2], inner
        yield from _references(child, inner)


def test_no_package_caller_pinned():
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(sstwalk.__file__).parent.glob("*.py")}
    enclosings: dict[str, list[tuple]] = {}
    for module, tree in trees.items():
        if module != "__init__":
            for name, enclosing in _references(tree):
                enclosings.setdefault(name, []).append(enclosing)
    uncalled = {name for module, tree in trees.items()
                for name, node in _definitions(tree, module)
                if all(node in enclosing
                       for enclosing in enclosings.get(name.rpartition(".")[2], []))}
    assert uncalled == set(NO_PACKAGE_CALLER)


def test_traced_exceptions_are_named_by_the_tracer():
    text = (Path(__file__).resolve().parents[1] / "bench" / "tracing.py").read_text()
    traced = [name.rpartition(".")[2] for name, why in NO_PACKAGE_CALLER.items()
              if why == TRACED]
    assert len(traced) == 9
    assert [name for name in traced if not re.search(rf"\b{name}\b", text)] == []
