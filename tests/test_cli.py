"""CLI subcommands, file formats, and exit codes."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import FAMILY_NAMES, family_reduction, schedule_reduction
from sstwalk.cli import main
from sstwalk.coins import parse_coins
from sstwalk.decider import decide_periodicity
from sstwalk.exact import InvariantError, psi
from sstwalk.families import FAMILIES
from sstwalk.graphs import generalized_path, prism_graph
from sstwalk.reduction import reduction_for
from tests_hutil import format_graph


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_period_k2m(capsys):
    rc, out, _ = run(capsys, "period", "--family", "k2m", "--m", "3")
    assert rc == 0
    assert out.splitlines()[0] == "PERIODIC min_period=4 L={1,2,4}"


def test_period_circulant(capsys):
    rc, out, _ = run(capsys, "period", "--family", "circulant",
                     "--m", "3", "--c", "1", "--d", "2")
    assert rc == 0
    assert "PERIODIC min_period=8" in out


def test_transfer_gp(capsys):
    rc, out, _ = run(capsys, "transfer", "--family", "gp", "--k", "2", "--n", "4")
    assert rc == 0
    assert out.strip() == "TRANSFER time=3 gamma=+1"


def test_transfer_report_split(capsys):
    rc, out, _ = run(capsys, "transfer", "--family", "circulant",
                     "--m", "3", "--c", "1", "--d", "2", "--report-split")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "TRANSFER time=4 gamma=-1"
    assert lines[1] == "SPLIT plus=[-1/2 0 1] minus=[0 1] gamma=+1"


def test_dump_h(capsys):
    rc, out, _ = run(capsys, "psi", "--family", "k2m", "--m", "2", "--dump-H")
    assert rc == 0
    assert any(line.startswith("H_rat ") for line in out.splitlines())
    assert any(line.startswith("delta_sq ") for line in out.splitlines())
    assert any(line.startswith("PSI ") for line in out.splitlines())
    assert any(line.startswith("POLE_FACTOR ") for line in out.splitlines())


def test_simulate_circulant_figures(capsys):
    """The t=0 and t=4 amplitude tables land on the sender/receiver arcs with
    a single flipped sign (the gamma = -1 transfer)."""
    rc, out, _ = run(capsys, "simulate", "--family", "circulant",
                     "--m", "3", "--c", "1", "--d", "2",
                     "--state", "w1", "--times", "0,4")
    assert rc == 0
    blocks = {}
    current = None
    for line in out.splitlines():
        if line.startswith("t="):
            current = int(line[2:])
            blocks[current] = {}
        elif line.strip():
            arc, re_s, im_s = line.split()
            blocks[current][arc] = complex(float(re_s), float(im_s))
    r = 1 / np.sqrt(2)
    assert abs(blocks[0]["(0,1)"] - r) < 1e-9
    assert abs(blocks[0]["(0,4)"] + r) < 1e-9
    assert abs(blocks[4]["(3,1)"] + r) < 1e-9
    assert abs(blocks[4]["(3,4)"] - r) < 1e-9
    assert set(blocks[4]) == {"(3,1)", "(3,4)"}


def test_simulate_octahedron_t6(capsys):
    rc, out, _ = run(capsys, "simulate", "--family", "circulant",
                     "--m", "3", "--c", "1", "--d", "2",
                     "--state", "uniform", "--times", "6", "--coins", "/dev/null")
    assert rc == 0
    lines = [line for line in out.splitlines() if line.startswith("  (3,")]
    assert len(lines) == 4
    for line in lines:
        assert abs(float(line.split()[1]) - 0.5) < 1e-9


def test_graph_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "p3.txt"
    path.write_text("n 3\n0 1\n1 2\n")
    rc, out, _ = run(capsys, "transfer", "--graph", str(path), "--a", "0", "--b", "2")
    assert rc == 0
    assert out.strip() == "TRANSFER time=2 gamma=+1"


def test_subspace_file(tmp_path, capsys):
    path = tmp_path / "w.txt"
    path.write_text("1 0 -1 0\n0 1 0 -1\n")
    coins = tmp_path / "c.txt"
    coins.write_text("coin 0 basis 2 1 0 -1 0 0 1 0 -1\n"
                     "coin 3 basis 2 1 0 -1 0 0 1 0 -1\n")
    rc, out, _ = run(capsys, "transfer", "--family", "circulant",
                     "--m", "3", "--c", "1", "--d", "2",
                     "--coins", str(coins), "--subspace", str(path))
    assert rc == 0
    assert out.strip() == "TRANSFER time=4 gamma=-1"


def test_coin_and_subspace_files_replace_the_family_recipe(tmp_path, capsys):
    """A coin file and a subspace file replace the family's marked coin and W
    before the marked coin is built: the double cone's size-8 reflection
    would not fit the degree-4 cycle vertices 2 and 6."""
    path = tmp_path / "w4.txt"
    path.write_text("1 1 1 1\n")
    rc, out, err = run(capsys, "transfer", "--family", "double-cone", "--cycles", "8",
                       "--a", "2", "--b", "6", "--coins", "/dev/null", "--subspace", str(path))
    assert (rc, out, err) == (0, "NO_TRANSFER stage=not-periodic\n", "")


def test_family_battery(capsys, monkeypatch):
    monkeypatch.setenv("SST_SEED", "5")
    rc, out, _ = run(capsys, "family", "--family", "k2m", "--m", "3")
    assert rc == 0
    for line in out.splitlines():
        assert line.startswith("CASE") and line.endswith("status=PASS")


@pytest.mark.parametrize("graph, extra, code, stream", [
    ("n 4\n0 1\n1 2\n2 3\n3 0\n", ("--coins", "coin 0 basis 1 1e400 1\n"), 2,
     "error: weight vector is not fixed by the coin at vertex 0\n"),
    ("n 2\n0 1\n", ("--subspace", "1e400\n"), 0, "t=0\n"),
], ids=["coin", "subspace"])
def test_simulate_exact_entries_past_the_double_range(tmp_path, capsys, graph, extra,
                                                      code, stream):
    """Rationals past the double range that the exact layer accepts are no
    internal error in the float layer: C4's marked coin does not fix the
    uniform weights (exit 2, one error line), and K_2 walks from w1 (exit 0)."""
    (tmp_path / "g.txt").write_text(graph)
    (tmp_path / "x.txt").write_text(extra[1])
    rc, out, err = run(capsys, "simulate", "--graph", str(tmp_path / "g.txt"),
                       "--a", "0", "--b", "1", extra[0], str(tmp_path / "x.txt"))
    assert rc == code
    if code == 2:
        assert err == stream
    else:
        assert out.startswith(stream), out


def test_simulate_zero_weight_names_its_vertex_exit_2(tmp_path, capsys):
    """W = span{0} on K_2: the zero coin state is refused by the vertex it
    would start from, like every other weight-vector refusal."""
    (tmp_path / "g.txt").write_text("n 2\n0 1\n")
    (tmp_path / "w.txt").write_text("0\n")
    rc, out, err = run(capsys, "simulate", "--graph", str(tmp_path / "g.txt"),
                       "--subspace", str(tmp_path / "w.txt"))
    assert (rc, out, err) == (2, "", "error: zero coin state at vertex 0\n")


def test_missing_file_exit_2(capsys):
    rc, _, err = run(capsys, "period", "--graph", "/does/not/exist")
    assert rc == 2 and "not found" in err


def test_missing_coin_file_exit_2(capsys):
    rc, _, err = run(capsys, "period", "--family", "k2m", "--m", "3",
                     "--coins", "/does/not/exist")
    assert rc == 2 and "coin file" in err


def test_bad_family_args_exit_2(capsys):
    rc, _, err = run(capsys, "period", "--family", "circulant", "--m", "3")
    assert rc == 2


def test_no_source_exit_2(capsys):
    rc, _, err = run(capsys, "period")
    assert rc == 2 and "graph source" in err


def test_not_periodic_still_exit_0(tmp_path, capsys):
    path = tmp_path / "kite.txt"
    path.write_text("n 5\n0 1\n0 2\n1 2\n2 3\n3 4\n")
    rc, out, _ = run(capsys, "period", "--graph", str(path), "--a", "0", "--b", "1")
    assert rc == 0
    assert out.strip() == "NOT_PERIODIC reason=support-not-cyclotomic"


def test_unknown_clone_selector_rejected(capsys):
    """The clone set is always the sender's W-clones; there is no --S flag."""
    with pytest.raises(SystemExit) as exc:
        main(["psi", "--family", "k2m", "--m", "2", "--S", "all"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --S" in capsys.readouterr().err


def test_human_format(capsys):
    rc, out, _ = run(capsys, "transfer", "--family", "gp", "--k", "2", "--n", "4",
                     "--format", "human")
    assert rc == 0
    assert "occurs at step 3" in out and "TRANSFER time=3" in out


def test_family_default_battery(capsys, monkeypatch):
    monkeypatch.setenv("SST_SEED", "0")
    rc, out, _ = run(capsys, "family")
    assert rc == 0
    lines = [line for line in out.splitlines() if line.startswith("CASE")]
    assert len(lines) >= 8
    assert all(line.endswith("status=PASS") for line in lines)


def test_simulate_steps_incrementally(capsys):
    """Several times in one call print exactly what one call per time does."""
    circ = ("simulate", "--family", "circulant", "--m", "3", "--c", "1", "--d", "2",
            "--state", "w1", "--times")
    rc, out, _ = run(capsys, *circ, "8,0,4")
    assert rc == 0
    singles = [run(capsys, *circ, t) for t in ("0", "4", "8")]
    assert all(r == 0 for r, _, _ in singles)
    assert out == "".join(o for _, o, _ in singles)


def test_family_fail_exit_3(capsys, monkeypatch):
    """A FAIL case (decider, exact check and simulation disagree) is the
    program's fault: exit 3, after printing every case line."""
    from sstwalk import families

    real = families.case_k2m

    def failing(m, rng=None):
        res = real(m, rng)
        if rng is not None:
            res.status = "FAIL"
        return res

    monkeypatch.setattr(families, "case_k2m", failing)
    rc, out, _ = run(capsys, "family", "--family", "k2m", "--m", "3")
    assert rc == 3
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].endswith("status=PASS") and lines[1].endswith("status=FAIL")


@pytest.mark.parametrize("error, code, prefix", [
    (ValueError, 2, "error: "),
    (InvariantError, 3, "internal error: "),
])
def test_exit_code_names_the_fault(capsys, monkeypatch, error, code, prefix):
    """A ValueError from a stage is an input error (exit 2); an InvariantError,
    though also a ValueError, is the program's fault (exit 3).  The stage is
    the resolvent summary's integer cosine scan of g+ and g-."""
    from sstwalk import exact

    def broken(ints):
        raise error("stage failed")

    monkeypatch.setattr(exact, "_cosine_split", broken)
    rc, out, err = run(capsys, "transfer", "--family", "k2m", "--m", "3")
    assert rc == code and out == ""
    assert err == prefix + "stage failed\n"


def _doubled_first_entry(red):
    i, j, x = red.nonzeros[0]
    return {"nonzeros": [(i, j, 2 * x)] + red.nonzeros[1:]}


def _zero_first_delta_sq(red):
    return {"norm_sq": [0] + red.norm_sq[1:]}


@pytest.mark.parametrize("corrupt, message", [
    (_doubled_first_entry, "symmetric sym"),
    (_zero_first_delta_sq, "delta_sq is not positive"),
], ids=["asymmetric", "nonpositive-delta_sq"])
def test_asymmetric_reduction_exit_3(capsys, monkeypatch, corrupt, message):
    """A reduction whose sym is not symmetric, or whose delta_sq has an entry
    <= 0, is refused as the program's fault: exit 3."""
    import dataclasses

    from sstwalk import reduction

    build_h = reduction.build_H

    def corrupted(assignment, basis):
        red = build_h(assignment, basis)
        return dataclasses.replace(red, **corrupt(red))

    monkeypatch.setattr(reduction, "build_H", corrupted)
    rc, out, err = run(capsys, "transfer", "--family", "k2m", "--m", "3")
    assert rc == 3 and out == ""
    assert err.startswith("internal error: ") and message in err


def test_failed_certificate_exit_3(capsys, monkeypatch):
    """A Krylov recurrence that fails its annihilator certificate is the
    program's fault: exit 3, nothing on stdout."""
    from sstwalk import exact

    monkeypatch.setattr(exact, "_hankel_certifies", lambda terms, conn: False)
    rc, out, err = run(capsys, "transfer", "--family", "k2m", "--m", "3")
    assert rc == 3 and out == ""
    assert err.startswith("internal error: ")


# per family of the table: its flags (BASE stands for a prism graph file), then
# the golden transfer and period lines and the `sst family` lines at
# SST_SEED=0 (None: the family has no cases and `sst family` exits 2)
FAMILY_GOLDEN = {
    "k2m": (["--m", "3"], "TRANSFER time=2 gamma=+1", "PERIODIC min_period=4 L={1,2,4}",
            ["CASE k2m(m=3,grover) expected=2 got=2 fidelity=1.000000000000 status=PASS",
             "CASE k2m(m=3,rank=2,dim=2) expected=2 got=2 fidelity=1.000000000000 "
             "status=PASS"]),
    "circulant": (["--m", "3", "--c", "1", "--d", "2"], "TRANSFER time=4 gamma=-1",
                  "PERIODIC min_period=8 L={4,8}",
                  ["CASE circulant(m=3,c=1,d=2) expected=4 got=4 fidelity=1.000000000000 "
                   "status=PASS"]),
    "double-cone": (["--cycles", "4,8"], "TRANSFER time=4 gamma=-1",
                    "PERIODIC min_period=8 L={4,8}",
                    ["CASE double_cone(4,8) expected=4 got=4 fidelity=1.000000000000 "
                     "status=PASS"]),
    "gp": (["--k", "2", "--n", "4"], "TRANSFER time=3 gamma=+1",
           "PERIODIC min_period=6 L={1,2,3,6}",
           ["CASE gp(k=2,n=4,rank=1) expected=3 got=3 fidelity=1.000000000000 status=PASS"]),
    "cone-over": (["--base", "BASE"], "NO_TRANSFER stage=not-periodic",
                  "NOT_PERIODIC reason=support-not-cyclotomic", None),
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_every_family_through_cli(name, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SST_SEED", "0")
    base = tmp_path / "prism.txt"
    base.write_text(format_graph(prism_graph()))
    flags, transfer, period, cases = FAMILY_GOLDEN[name]
    argv = ["--family", name, *(str(base) if f == "BASE" else f for f in flags)]
    assert run(capsys, "transfer", *argv)[:2] == (0, transfer + "\n")
    assert run(capsys, "period", *argv)[:2] == (0, period + "\n")
    rc, out, err = run(capsys, "family", *argv)
    if cases is None:
        assert (rc, out) == (2, "") and "pretty-good harness" in err
    else:
        assert (rc, out.splitlines()) == (0, cases)


# graph, sender, receiver, coin and subspace files of two strongly cospectral
# random instances whose supports have non-cosine factors, with the stdout of
# `transfer --report-split` and `psi` pinned from the route that factored g+
# and g- afresh.  On "quadratic" the rest x^2 - 1/3 is irreducible; on
# "quadratic+cubic" the split has the irrational quadratics x^2 + x + 1/6 and
# x^2 - 1/6 and a cubic, all factored over Z by ``zfactor``.
SPLIT_GOLDEN = {
    "quadratic": (
        "n 5\n0 1\n0 2\n0 3\n1 3\n1 4\n2 3\n", 1, 3,
        "coin 1 basis 2 1 0 0 0 0 1\ncoin 3 basis 2 1 0 0 0 0 1\n", "1 0 0\n",
        "NO_TRANSFER stage=not-periodic\n"
        "SPLIT plus=[-1 1;1 1;-1/3 0 1] minus=[0 1] gamma=+1\n",
        "PSI 1/6 0 -1 0 1 | 0 1/3 0 -4/3 0 1\n"
        "POLE_FACTOR -1 1\nPOLE_FACTOR 0 1\nPOLE_FACTOR 1 1\nPOLE_FACTOR -1/3 0 1\n"),
    "quadratic+cubic": (
        "n 8\n0 1\n0 2\n0 4\n0 7\n1 2\n1 3\n1 4\n1 6\n2 3\n3 5\n3 6\n4 7\n5 6\n",
        5, 7, "coin 5 basis 2 5 -12 12 5\ncoin 7 basis 2 5 -12 12 5\n", "5 -12\n",
        "NO_TRANSFER stage=not-periodic\n"
        "SPLIT plus=[-1 1;1/6 1 1;1/30 -3/10 0 1] minus=[-1/2 0 1;-1/6 0 1] gamma=+1\n",
        "PSI 5/36504 733/365040 -695/36504 -419/4680 4001/30420 4972/7605 -488/2535 "
        "-4999/3380 0 1 | -1/2160 1/540 53/2160 -7/270 -4/15 1/9 49/45 -2/15 -9/5 0 1\n"
        "POLE_FACTOR -1 1\nPOLE_FACTOR -1/2 0 1\nPOLE_FACTOR -1/6 0 1\n"
        "POLE_FACTOR 1/6 1 1\nPOLE_FACTOR 1/30 -3/10 0 1\n"),
}


def _instance_argv(tmp_path, name: str) -> list[str]:
    """--a/--b and the graph, coin and subspace files of SPLIT_GOLDEN[name]."""
    graph, a, b, coins, w = SPLIT_GOLDEN[name][:5]
    argv = ["--a", str(a), "--b", str(b)]
    for flag, text in (("graph", graph), ("coins", coins), ("subspace", w)):
        (tmp_path / flag).write_text(text)
        argv += [f"--{flag}", str(tmp_path / flag)]
    return argv


@pytest.mark.parametrize("name", list(SPLIT_GOLDEN))
def test_split_with_non_cosine_factors(name, tmp_path, capsys):
    transfer, psi = SPLIT_GOLDEN[name][5:]
    argv = _instance_argv(tmp_path, name)
    assert run(capsys, "transfer", "--report-split", *argv)[:2] == (0, transfer)
    assert run(capsys, "psi", *argv)[:2] == (0, psi)


# the H_rat and delta_sq lines of `psi --dump-H` on the "quadratic+cubic"
# instance, pinned from the Fraction route: delta_sq 3, 4, 5 and 169 and
# fractional H_rat entries, printed byte for byte as before
DUMP_H_GOLDEN = (
    "H_rat 0 1/5 1/3 0 1/3 0 0 0 5/169 12/169\n"
    "H_rat 1/4 0 1/3 1/4 1/3 0 0 1/3 0 0\n"
    "H_rat 1/4 1/5 0 1/4 0 0 0 0 0 0\n"
    "H_rat 0 1/5 1/3 0 0 5/169 12/169 1/3 0 0\n"
    "H_rat 1/4 1/5 0 0 0 0 0 0 -12/169 5/169\n"
    "H_rat 0 0 0 5/4 0 0 0 -4 0 0\n"
    "H_rat 0 0 0 3 0 0 0 5/3 0 0\n"
    "H_rat 0 1/5 0 1/4 0 -12/169 5/169 0 0 0\n"
    "H_rat 5/4 0 0 0 -4 0 0 0 0 0\n"
    "H_rat 3 0 0 0 5/3 0 0 0 0 0\n"
    "delta_sq 4 5 3 4 3 169 169 3 169 169\n")


def test_dump_h_golden(tmp_path, capsys):
    psi = SPLIT_GOLDEN["quadratic+cubic"][6]
    argv = _instance_argv(tmp_path, "quadratic+cubic")
    assert run(capsys, "psi", "--dump-H", *argv)[:2] == (0, DUMP_H_GOLDEN + psi)


FAMILY_ARGV = {
    "gp(4,10)": ["--family", "gp", "--k", "4", "--n", "10"],
    "circulant(20,1,19)": ["--family", "circulant", "--m", "20", "--c", "1", "--d", "19"],
    "double_cone([1,2,3])": ["--family", "double-cone", "--cycles", "4,8,12"],
    "k2m(20)": ["--family", "k2m", "--m", "20"],
}


def _reduction_argv(tmp_path, red) -> list[str]:
    """--a/--b and the graph, coin and subspace files that rebuild ``red``: its
    graph, the marked coin at a and b (Grover elsewhere) and its W-clones."""
    a, b = red.basis.columns[red.s[0]][0], red.basis.columns[red.t[0]][0]
    coin = red.assignment.coin(a)
    entries = " ".join(str(x) for v in coin.basis for x in v)
    files = {"graph": format_graph(red.assignment.graph),
             "coins": "".join(f"coin {u} basis {len(coin.basis)} {entries}\n" for u in (a, b)),
             "subspace": "".join(" ".join(map(str, red.basis.columns[j][1])) + "\n"
                                 for j in red.s)}
    argv = ["--a", str(a), "--b", str(b)]
    for kind, text in files.items():
        path = tmp_path / f"{kind}.txt"
        path.write_text(text)
        argv += [f"--{kind}", str(path)]
    return argv


def _dump_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith(("H_rat ", "delta_sq "))]


def _dense_dump(red) -> list[str]:
    """The --dump-H lines of ``red`` from its dense sym."""
    return ([f"H_rat {' '.join(str(x / d) for x, d in zip(row, red.delta_sq))}"
             for row in red.sym]
            + [f"delta_sq {' '.join(str(d) for d in red.delta_sq)}"])


def test_dump_h_rows_match_dense_sym(tmp_path, capsys):
    """--dump-H prints H_rat[i][j] = sym[i][j] / delta_sq[j] from the sparse
    carrier, the same lines under psi, period and transfer: on 12 seeded
    random-small shaped reductions and the FAMILY_NAMES instances."""
    cases = [(family_reduction(name), FAMILY_ARGV[name]) for name in FAMILY_NAMES]
    rng = random.Random(16)
    for i in range(12):
        red = schedule_reduction(rng, 4 + i % 9, *((1, 1), (2, 1), (2, 2))[i % 3])
        (tmp_path / str(i)).mkdir()
        cases.append((red, _reduction_argv(tmp_path / str(i), red)))
    for red, argv in cases:
        want = _dense_dump(red)
        rc, out, _ = run(capsys, "psi", "--dump-H", *argv)
        assert rc == 0 and _dump_lines(out) == want, argv
        assert out.startswith("\n".join(want) + "\nPSI ")
        for cmd in ("period", "transfer"):
            rc, out, _ = run(capsys, cmd, "--dump-H", *argv)
            assert rc == 0 and _dump_lines(out) == want, (cmd, argv)


def test_dump_h_under_period_and_psi_is_b_free(tmp_path, capsys):
    """period and psi read a and W only, so --dump-H prints the reduction
    with no b.  On GP(3,7) with the rank-2 coin <(1,1,1), (1,-1,0)> at a and b
    and W = <(2,0,1)>, W is not a prefix of b's coin basis: transfer's H
    completes W at b and differs, while the PSI and PERIODIC lines equal
    those of the reduction with b."""
    g, a, b = generalized_path(3, 7)
    files = {"graph": format_graph(g),
             "coins": f"coin {a} basis 2 1 1 1 1 -1 0\ncoin {b} basis 2 1 1 1 1 -1 0\n",
             "subspace": "2 0 1\n"}
    argv = []
    for kind, text in files.items():
        (tmp_path / kind).write_text(text)
        argv += [f"--{kind}", str(tmp_path / kind)]
    assignment, w = parse_coins(files["coins"], g), [[2, 0, 1]]
    free, paired = reduction_for(assignment, a, w), reduction_for(assignment, a, w, b)
    assert _dense_dump(free) != _dense_dump(paired)
    rc, out, _ = run(capsys, "transfer", "--dump-H", *argv)
    assert rc == 0 and _dump_lines(out) == _dense_dump(paired)
    rc, out, _ = run(capsys, "psi", "--dump-H", *argv)
    assert (rc, _dump_lines(out)) == (0, _dense_dump(free))
    assert out.splitlines()[len(free.sym) + 1] == "PSI " + psi(paired, paired.s,
                                                               paired.s).serialize()
    rc, out, _ = run(capsys, "period", "--dump-H", *argv)
    assert (rc, _dump_lines(out)) == (0, _dense_dump(free))
    assert out.splitlines()[-1] == decide_periodicity(paired).line()


def test_period_and_psi_read_a_alone(capsys):
    """period and psi build their reduction without b: on all-Grover
    families a b whose degree does not fit W, or b = a, changes nothing
    (these exited 2 while both built a reduction with b).  On a family with
    a canonical marked coin, b still places the second marked coin, so it
    changes the walk: on circulant(3,1,2), b = a leaves vertex 3 on Grover."""
    gp = ["--family", "gp", "--k", "3", "--n", "4"]
    assert run(capsys, "period", *gp, "--a", "1")[:2] == (
        0, "PERIODIC min_period=6 L={1,2,3,6}\n")
    assert run(capsys, "psi", *K2M3, "--b", "2")[:2] == run(capsys, "psi", *K2M3)[:2]
    assert run(capsys, "period", *K2M3, "--a", "1")[:2] == (
        0, "PERIODIC min_period=4 L={1,2,4}\n")
    circ = ["--family", "circulant", "--m", "3", "--c", "1", "--d", "2"]
    assert run(capsys, "period", *circ)[:2] == (0, "PERIODIC min_period=8 L={4,8}\n")
    assert run(capsys, "period", *circ, "--b", "0")[:2] == (
        0, "PERIODIC min_period=6 L={3,6}\n")


def test_transfer_names_unequal_degrees(capsys):
    """transfer identifies W at a and b by position, so it refuses
    deg(a) != deg(b) by naming both vertices, not W."""
    rc, out, err = run(capsys, "transfer", "--family", "gp", "--k", "3", "--n", "4",
                       "--a", "1")
    assert (rc, out) == (2, "")
    assert err == ("error: positional identification needs deg(a) = deg(b): "
                   "vertex 1 has degree 2, vertex 7 has degree 3\n")


@pytest.mark.parametrize("kind, text", [
    ("coins", "coin 0 basis\n"),
    ("coins", "coin 0 basis 1 1/0 0 0\n"),
    ("coins", "coin 1 grover extra\n"),
    ("coins", "coin 2 minus_identity 7\n"),
    ("subspace", "1/0 0 0\n"),
])
def test_malformed_file_exit_2(tmp_path, capsys, kind, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    rc, out, err = run(capsys, "transfer", "--family", "k2m", "--m", "3",
                       f"--{kind}", str(path))
    assert (rc, out) == (2, "") and err.startswith("error: ")


@pytest.mark.parametrize("header", ["n 4 5", "n 4 x"])
def test_graph_header_trailing_token_exit_2(tmp_path, capsys, header):
    path = tmp_path / "g.txt"
    path.write_text(header + "\n0 1\n1 2\n2 3\n")
    rc, out, err = run(capsys, "transfer", "--graph", str(path))
    assert (rc, out) == (2, "") and "'n <count>'" in err


@pytest.mark.parametrize("state", ["arc:0", "arc:0,1,2"])
def test_simulate_malformed_arc_state_exit_2(capsys, state):
    rc, out, err = run(capsys, "simulate", "--family", "k2m", "--m", "3", "--state", state)
    assert (rc, out) == (2, "") and "expected arc:u,v" in err


K2M3 = ["--family", "k2m", "--m", "3"]


@pytest.mark.parametrize("flag, value, message", [
    ("--state", "w0", "state w0: expected w1..w1"),
    ("--state", "w2", "state w2: expected w1..w1"),
    ("--times", "2,-2", "--times '2,-2': step counts must be nonnegative"),
    ("--times", "-1", "--times '-1': step counts must be nonnegative"),
])
def test_simulate_out_of_range_exit_2(capsys, flag, value, message):
    """A w<j> outside W's basis names the valid range, and a negative step
    count names --times before any step is taken."""
    rc, out, err = run(capsys, "simulate", *K2M3, flag, value)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("text, argv, env, message", [
    ("n x\n0 1\n", ["transfer", "--graph", "{path}"], "0",
     "bad header line 'n x'"),
    ("n 3\n0 y\n1 2\n", ["transfer", "--graph", "{path}"], "0",
     "bad edge line: '0 y'"),
    ("coin x grover\n", ["transfer", *K2M3, "--coins", "{path}"], "0",
     "bad coin line: 'coin x grover'"),
    (None, ["simulate", *K2M3, "--times", "1,x"], "0", "--times '1,x'"),
    (None, ["simulate", *K2M3, "--times", ""], "0",
     "--times '': expected comma-separated integers"),
    (None, ["transfer", "--family", "double-cone", "--cycles", "4,x"], "0",
     "--cycles '4,x'"),
    (None, ["transfer", "--family", "double-cone", "--cycles", "4,,8"], "0",
     "--cycles '4,,8': expected comma-separated integers"),
    (None, ["simulate", *K2M3, "--state", "wx"], "0", "state 'wx'"),
    (None, ["family", *K2M3], "x", "SST_SEED='x'"),
], ids=["graph-header", "graph-edge", "coin-vertex", "times", "times-empty", "cycles",
        "cycles-empty-token", "state", "seed"])
def test_non_integer_token_named_exit_2(text, argv, env, message, tmp_path,
                                        capsys, monkeypatch):
    """A non-integer token names the line, flag or variable it came from; an
    empty token of a list flag is refused the same way (only an absent
    --times means 0)."""
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text)
    monkeypatch.setenv("SST_SEED", env)
    rc, out, err = run(capsys, *(arg.replace("{path}", str(path)) for arg in argv))
    assert (rc, out) == (2, "") and err.startswith(f"error: {message}")


@pytest.mark.parametrize("text, message", [
    ("coin 1 grover\ncoin 1 minus_identity\n",
     "coin line 'coin 1 minus_identity': vertex 1 already has a coin"),
    ("coin 0 basis 0\n", "coin line 'coin 0 basis 0': basis rank 0 is not in 1..deg(0) = 3"),
    ("coin 0 basis -1\n",
     "coin line 'coin 0 basis -1': basis rank -1 is not in 1..deg(0) = 3"),
    ("coin 0 basis 4" + " 1" * 12 + "\n", "basis rank 4 is not in 1..deg(0) = 3"),
    ("coin 0 basis 2 1 0 0 0 0 0\n",
     "coin line 'coin 0 basis 2 1 0 0 0 0 0': rank-deficient coin basis"),
    ("coin 0 basis 2 1 1 0 1/2 1/2 0\n",
     "coin line 'coin 0 basis 2 1 1 0 1/2 1/2 0': rank-deficient coin basis"),
], ids=["vertex-twice", "rank-0", "rank-negative", "rank-above-degree", "zero-vector",
        "dependent"])
def test_coin_file_error_names_the_line(text, message, tmp_path, capsys):
    """A vertex given twice, a basis rank outside 1..deg(v) and a zero or
    dependent basis are refused with the coin line named."""
    path = tmp_path / "coins.txt"
    path.write_text(text)
    rc, out, err = run(capsys, "transfer", *K2M3, "--coins", str(path))
    assert (rc, out) == (2, "") and message in err and err.startswith("error: ")


@pytest.mark.parametrize("tol", ["-1", "-1e-9", "nan", "inf"])
def test_simulate_bad_tol_exit_2(tol, capsys):
    rc, out, err = run(capsys, "simulate", *K2M3, f"--tol={tol}")
    assert (rc, out) == (2, "")
    assert err == f"error: --tol {float(tol)!r}: expected a finite nonnegative number\n"


def test_exact_transfer_forms_no_projection(capsys, monkeypatch):
    """The exact transfer path reads only the integer bases of its coins: on
    K_{2,400} neither the degree-400 nor the degree-2 Grover coin holds more
    than its degree and integer basis, so no d x d matrix is formed."""
    from sstwalk import cli, coins

    assignments = []

    def recording(assignment, *args):
        assignments.append(assignment)
        return reduction_for(assignment, *args)

    monkeypatch.setattr(cli, "reduction_for", recording)
    coins.grover_coin.cache_clear()
    rc, out, _ = run(capsys, "transfer", "--family", "k2m", "--m", "400")
    assert (rc, out) == (0, "TRANSFER time=2 gamma=+1\n")
    used = set(assignments[0].coins.values())
    assert sorted(coin.degree for coin in used) == [2, 400]
    assert all(set(vars(coin)) <= {"degree", "basis"} for coin in used)


# byte-exact stdout of branches the tests above do not pin: human-format
# verdicts (periodic, not periodic, no transfer), SPLIT none, an arc start
# state, a minus_identity coin, and the full psi and machine period output;
# KITE and MINUS_I stand for the files below
KITE = "n 5\n0 1\n0 2\n1 2\n2 3\n3 4\n"
MINUS_I = "coin 2 minus_identity\n"
STDOUT_GOLDEN = [
    (["period", "--family", "k2m", "--m", "3", "--format", "human"],
     "The walk is pointwise W-periodic at vertex 0; the minimum integer period is 4.\n"
     "PERIODIC min_period=4 L={1,2,4}\n"),
    (["period", "--graph", "KITE", "--a", "0", "--b", "1", "--format", "human"],
     "The walk is not pointwise W-periodic at vertex 0 at any integer step "
     "(support-not-cyclotomic).\nNOT_PERIODIC reason=support-not-cyclotomic\n"),
    (["transfer", "--graph", "KITE", "--a", "0", "--b", "3", "--format", "human"],
     "No pointwise perfect W-transfer from 0 to 3 at any integer step "
     "(failed at stage: not-cospectral).\nNO_TRANSFER stage=not-cospectral\n"),
    (["transfer", "--graph", "KITE", "--a", "0", "--b", "3", "--report-split"],
     "NO_TRANSFER stage=not-cospectral\nSPLIT none\n"),
    (["simulate", "--family", "k2m", "--m", "3", "--state", "arc:2,0", "--times", "0,2"],
     "t=0\n  (2,0) +1.0000000000 +0.0000000000\n"
     "t=2\n  (2,1) -0.3333333333 +0.0000000000\n  (3,1) +0.6666666667 +0.0000000000\n"
     "  (4,1) +0.6666666667 +0.0000000000\n"),
    (["transfer", "--family", "k2m", "--m", "3", "--coins", "MINUS_I", "--report-split"],
     "NO_TRANSFER stage=not-periodic\nSPLIT plus=[-2/3 0 1] minus=[0 1] gamma=+1\n"),
    (["psi", *K2M3],
     "PSI -1/2 0 1 | 0 -1 0 1\nPOLE_FACTOR -1 1\nPOLE_FACTOR 0 1\nPOLE_FACTOR 1 1\n"),
    (["period", *K2M3], "PERIODIC min_period=4 L={1,2,4}\n"),
]


def golden_argv(argv, tmp_path):
    """``argv`` with KITE and MINUS_I written under tmp_path and replaced by
    their paths."""
    files = {"KITE": KITE, "MINUS_I": MINUS_I}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / a) if a in files else a for a in argv]


@pytest.mark.parametrize("argv, stdout", STDOUT_GOLDEN)
def test_stdout_golden(argv, stdout, tmp_path, capsys):
    assert run(capsys, *golden_argv(argv, tmp_path))[:2] == (0, stdout)


SRC = Path(__file__).resolve().parents[1] / "src"
COLD_MAIN = ("import sys\n"
             "from sstwalk.cli import main\n"
             "rc = main(sys.argv[1:])\n"
             "print('numpy', 'numpy' in sys.modules, file=sys.stderr)\n"
             "sys.exit(rc)\n")


def cold_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``code`` with ``argv`` in a fresh interpreter on this checkout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv, stdout", STDOUT_GOLDEN)
def test_cold_process_loads_numpy_only_for_floats(argv, stdout, tmp_path):
    """A fresh process prints the golden stdout, and of these commands only
    simulate loads numpy; the exact ones never do."""
    proc = cold_python(COLD_MAIN, *golden_argv(argv, tmp_path))
    assert (proc.returncode, proc.stdout) == (0, stdout)
    assert proc.stderr.splitlines()[-1] == f"numpy {argv[0] == 'simulate'}"


def test_cold_import_leaves_numpy_out():
    proc = cold_python("import sys, sstwalk; print('numpy' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n")


@pytest.mark.parametrize("argv", [
    ["family", "--graph", "g.txt"],
    ["family", "--family", "k2m", "--m", "3", "--coins", "bad.txt"],
    ["family", "--family", "k2m", "--m", "3", "--format", "human"],
    ["simulate", "--family", "k2m", "--m", "3", "--report-split"],
    ["simulate", "--family", "k2m", "--m", "3", "--dump-H"],
    ["psi", "--family", "k2m", "--m", "3", "--format", "human"],
    ["period", "--family", "k2m", "--m", "3", "--tol", "0.1"],
    ["transfer", "--family", "k2m", "--m", "3", "--times", "1"],
])
def test_unread_flag_rejected(capsys, argv):
    """Each subcommand accepts only the flags it reads."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
