import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxgap import cli
from boxgap.boxspline import TRUNCATED_POWER_CAP
from boxgap.cli import EXIT_ERROR, EXIT_OK, main
from boxgap.rademacher import ENUM_CAP


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# eval


def test_eval_flat_profile(capsys):
    d = run_json(capsys, "eval", "--weights", "1", "--grid", "0:1:0.1")
    assert d["values"][0] == 0.0  # grid endpoint sits on the jump
    assert all(v == 1.0 for v in d["values"][1:-1])
    assert len(d["grid"]) == 11


def test_eval_equal3_center(capsys):
    d = run_json(capsys, "eval", "--equal", "3", "--at", "center")
    assert d["values"][0] == pytest.approx(1.2990381, abs=5e-8)
    assert d["grid"][0] == pytest.approx(math.sqrt(3) / 2, abs=1e-15)


def test_eval_fourier_plateau(capsys):
    d = run_json(capsys, "eval", "--weights", "0.6,0.8", "--method", "fourier",
                 "--at", "0.7")
    assert d["values"][0] == pytest.approx(1.25, abs=1e-6)
    assert d["method"] == "fourier"


def test_eval_fourier_past_product_overflow(capsys):
    # prod(2/a_k) overflows from n ~ 210 on; Fourier works with its logarithm
    argv = ("eval", "--random", "400,4,3", "--at", "center", "--method")
    fourier = run_json(capsys, *argv, "fourier")
    convolution = run_json(capsys, *argv, "convolution")
    assert fourier["values"][0] == pytest.approx(convolution["values"][0],
                                                 abs=1e-5)


def test_eval_csv(capsys):
    code, out, _ = run(capsys, "eval", "--weights", "1", "--grid", "0:1:0.5",
                       "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "x,value,method"
    assert len(lines) == 4


def test_json_output_builds_no_csv(capsys, monkeypatch):
    # only the requested form is rendered: a CSV writer that fails cannot
    # touch a JSON run, and the JSON writer is not called for CSV
    def broken(*args, **kwargs):
        raise RuntimeError("rendered an unrequested form")

    monkeypatch.setattr(cli, "dumps_csv", broken)
    for argv in (["eval", "--random", "8,4,1", "--grid", "0:2:0.0005"],
                 ["scan", "--n", "6", "--c0", "4", "--trials", "2"],
                 ["probe", "--c0", "2", "--n", "3..4"],
                 ["converge", "--n", "8,16"]):
        d = run_json(capsys, *argv, "--format", "json")
        assert d
    monkeypatch.undo()
    monkeypatch.setattr(cli, "dumps_json", broken)
    code, out, _ = run(capsys, "eval", "--weights", "1", "--grid", "0:1:0.5",
                       "--format", "csv")
    assert code == EXIT_OK and out.startswith("x,value,method\n")


# ---------------------------------------------------------------------------
# phi / expect / fbound


def test_phi_center(capsys):
    d = run_json(capsys, "phi", "--equal", "3", "--r", "0")
    assert d["phi"] == pytest.approx(1.2990381, abs=5e-8)


def test_expect_exact(capsys):
    d = run_json(capsys, "expect", "--equal", "4")
    assert d["method"] == "exact"
    assert d["expectation"] == 0.75
    assert 0.0 < d["error"] <= 1e-14


def test_expect_mc_seeded(capsys):
    args = ("expect", "--equal", "28", "--method", "monte_carlo",
            "--samples", "20000", "--seed", "4")
    one = run_json(capsys, *args)
    two = run_json(capsys, *args)
    assert one == two
    assert one["stderr"] > 0


def test_fbound_limit(capsys):
    d = run_json(capsys, "fbound", "--s", "10000")
    assert d["f"] == pytest.approx(0.7979, abs=5e-3)
    assert d["quad_error"] <= 1e-4


# ---------------------------------------------------------------------------
# gap / scan / minimize


@pytest.mark.parametrize("flags,expected", [
    (("--equal", "4"), 0.0),
    (("--weights", "0.6,0.8"), 0.0),
    (("--equal", "3"), 0.125),
])
def test_gap_examples_exit_zero(capsys, flags, expected):
    code, out, _ = run(capsys, "gap", *flags)
    assert code == EXIT_OK
    assert json.loads(out)["gap"] == pytest.approx(expected, abs=1e-9)


def test_scan_byte_identical(capsys):
    args = ("scan", "--n", "4", "--c0", "3", "--trials", "25", "--seed", "9")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2  # identical config+seed -> byte-identical JSON


def test_scan_csv_rows(capsys):
    code, out, _ = run(capsys, "scan", "--n", "3", "--c0", "2", "--trials",
                       "10", "--seed", "1", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "trial,gap,ratio"
    assert len(lines) == 11


def test_scan_beyond_enum_cap_uses_monte_carlo(capsys):
    d = run_json(capsys, "scan", "--n", str(ENUM_CAP + 1), "--c0", "4",
                 "--trials", "1")
    assert d["min_report"]["exp_method"] == "monte_carlo"
    assert d["min_report"]["gap"] >= -d["min_report"]["tolerance"]


def test_minimize_past_old_enumeration_cap_is_exact(capsys):
    d = run_json(capsys, "minimize", "--equal", "27", "--c0", "2",
                 "--budget", "20")
    assert d["report"]["exp_method"] == "exact"
    assert d["report"]["gap"] >= -d["report"]["tolerance"]


def test_gap_extreme_weight_scales(capsys):
    # the gap is scale-invariant: squares that overflow or underflow in
    # double precision must not change it
    ref = run_json(capsys, "gap", "--weights", "1,2")
    for w in ("1e200,2e200", "1e-200,2e-200"):
        assert run_json(capsys, "gap", "--weights", w) == ref


def test_minimize(capsys):
    code, out, _ = run(capsys, "minimize", "--weights", "0.6,0.8",
                       "--c0", "2")
    assert code == EXIT_OK
    d = json.loads(out)
    assert d["report"]["gap"] == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# probe / converge


def test_probe_rejects_threads(capsys):
    # rows are built on one thread: --threads is no flag of probe
    base = ("probe", "--c0", "1", "--family", "equal", "--n", "1..6")
    with pytest.raises(SystemExit) as exc:
        main([*base, "--threads", "4"])
    assert exc.value.code == EXIT_ERROR
    assert "--threads" in capsys.readouterr().err
    d = run_json(capsys, *base)
    assert d["empirical_N0"] == 4
    assert all(row["min_gap"] >= -1e-9 for row in d["rows"])


def test_probe_range_syntax(capsys):
    d = run_json(capsys, "probe", "--c0", "2", "--family", "geometric",
                 "--n", "2,4")
    assert [r["n"] for r in d["rows"]] == [2, 4]


def test_converge_decreasing(capsys):
    code, out, _ = run(capsys, "converge", "--family", "equal",
                       "--n", "8,16,32", "--format", "csv")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    sups = [float(r[1]) for r in rows]
    assert sups[0] > sups[1] > sups[2]


# ---------------------------------------------------------------------------
# files, errors, exit codes


def test_out_file(tmp_path, capsys):
    path = tmp_path / "prof.json"
    code, out, _ = run(capsys, "eval", "--equal", "2", "--at", "center",
                       "--out", str(path))
    assert code == EXIT_OK and out == ""
    d = json.loads(path.read_text())
    assert d["values"][0] == pytest.approx(math.sqrt(2), abs=1e-12)


def test_error_exit_codes(capsys):
    code, _, err = run(capsys, "eval", "--weights=0,1", "--at", "center")
    assert code == EXIT_ERROR and "positive" in err
    code, _, err = run(capsys, "expect", "--equal", str(ENUM_CAP + 1),
                       "--method", "exact")
    assert code == EXIT_ERROR
    code, _, err = run(capsys, "fbound", "--s", "-1")
    assert code == EXIT_ERROR
    for s in ("nan", "inf"):
        code, _, err = run(capsys, "fbound", "--s", s)
        assert code == EXIT_ERROR and "finite" in err
    for grid in ("0:1:0", "0:1:-0.1", "1:0:0.1", "0:nan:0.1", "0:inf:0.1"):
        code, out, err = run(capsys, "eval", "--equal", "3", "--grid", grid)
        assert code == EXIT_ERROR and out == "" and "grid" in err
    code, _, err = run(capsys, "probe", "--c0", "1", "--n", "5..3")
    assert code == EXIT_ERROR and "empty" in err
    for c0 in ("nan", "inf"):
        for argv in (("gap", "--random", f"3,{c0},1"),
                     ("scan", "--n", "3", "--c0", c0, "--trials", "2"),
                     ("minimize", "--equal", "3", "--c0", c0),
                     ("probe", "--c0", c0, "--n", "1..3")):
            code, out, err = run(capsys, *argv)
            assert code == EXIT_ERROR and out == "" and "c0" in err, argv


def test_tol_must_be_finite_and_nonnegative(capsys):
    # nan or inf would hide every violation; a negative tol moves probe's N0
    for argv in (("gap", "--weights", "1,2,3"),
                 ("scan", "--n", "3", "--c0", "2", "--trials", "1"),
                 ("minimize", "--equal", "3", "--c0", "2", "--budget", "1"),
                 ("probe", "--c0", "1", "--n", "1..2")):
        for tol in ("nan", "inf", "-1", "x"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, f"--tol={tol}"])
            assert exc.value.code == EXIT_ERROR
            assert "--tol" in capsys.readouterr().err
        code, _, _ = run(capsys, *argv, "--tol", "0")
        assert code == EXIT_OK


@pytest.mark.parametrize("argv,flag", [
    (("probe", "--c0", "1", "--n", "1.."), "--n"),
    (("converge", "--n", "8,x"), "--n"),
    (("scan", "--n", "3", "--c0", "2", "--trials", "2", "--seed", "-1"),
     "--seed"),
    (("gap", "--equal", "3", "--seed", "-1"), "--seed"),
    (("expect", "--equal", "3", "--seed", "-1"), "--seed"),
    (("gap", "--random", "8,4"), "--random"),
    (("gap", "--geometric", "5"), "--geometric"),
    (("eval", "--equal", "3", "--at", "x"), "--at"),
    (("eval", "--equal", "3", "--grid", "0:x:0.1"), "--grid"),
    (("phi", "--equal", "3", "--r", "x"), "--r"),
])
def test_malformed_values_name_their_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == EXIT_ERROR
    assert f"argument {flag}:" in capsys.readouterr().err


def test_probe_rejects_zero_trials(capsys):
    code, out, err = run(capsys, "probe", "--c0", "2", "--family", "random",
                         "--n", "2..4", "--trials", "0")
    assert code == EXIT_ERROR and out == "" and "trials" in err


def test_minimize_rejects_nonpositive_budget(capsys):
    for budget in ("0", "-5"):
        code, out, err = run(capsys, "minimize", "--equal", "3", "--c0", "2",
                             "--budget", budget)
        assert code == EXIT_ERROR and out == "" and "budget" in err


def test_converge_needs_two_points(capsys):
    for points in ("0", "1"):
        code, out, err = run(capsys, "converge", "--n", "4",
                             "--points", points)
        assert code == EXIT_ERROR and out == "" and "points" in err


def test_cached_parser_matches_fresh_parsers(capsys):
    # one call's flags (--seed 5, --tol 0.5) must not leak into the next
    argvs = [
        ("expect", "--equal", "4", "--method", "monte_carlo",
         "--samples", "10000", "--seed", "5"),
        ("expect", "--equal", "4", "--method", "monte_carlo",
         "--samples", "10000"),
        ("gap", "--weights", "1,2,3", "--tol", "0.5"),
        ("gap", "--weights", "1,2,3"),
        ("probe", "--c0", "1", "--n", "1..3", "--format", "csv"),
        ("probe", "--c0", "1", "--n", "1..3"),
        ("fbound", "--s", "2"),
        ("eval", "--equal", "3", "--grid", "0:1:0.5"),
    ]
    assert cli.build_parser() is cli.build_parser()
    cached = [run(capsys, *argv)[:2] for argv in argvs]
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv)[:2])
    assert cached == fresh
    assert cached[0] != cached[1]  # the seed reached the first call only
    parser = cli.build_parser()
    assert parser.parse_args(["gap", "--equal", "3", "--tol", "0.5"]).tol == 0.5
    assert parser.parse_args(["gap", "--equal", "3"]).tol == 1e-9


def test_cli_import_leaves_scipy_optimize_out():
    # minimize_gap imports it when called; the other commands never load it
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = "import sys, boxgap.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_unexpected_error_exits_2(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "scan_random", broken)
    code, out, err = run(capsys, "scan", "--n", "3", "--c0", "2")
    assert code == EXIT_ERROR and out == "" and "boom" in err


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), c0=st.floats(), seed=st.integers())
def test_gap_random_exit_code_contract(n, c0, seed):
    # whatever the ratio cap, `gap --random` exits 0 (ok) or 2 (error);
    # 1 is reserved for a violation every evaluator confirms
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(["gap", "--random", f"{n},{c0!r},{seed}"])
    assert code in (EXIT_OK, EXIT_ERROR)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, TRUNCATED_POWER_CAP + 2), c0=st.floats(1.0, 8.0),
       seed=st.integers(0, 2**32), method=st.sampled_from(["auto", "truncated_power"]),
       at=st.sampled_from(["center", "nan", "inf", "-inf"]))
def test_eval_random_exit_code_contract(n, c0, seed, method, at):
    # 2 only for a point off the real line or truncated power past its cap;
    # auto takes Fourier there
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(["eval", "--random", f"{n},{c0!r},{seed}", f"--at={at}",
                     "--method", method])
    capped = method == "truncated_power" and n > TRUNCATED_POWER_CAP
    assert code == (EXIT_ERROR if capped or at != "center" else EXIT_OK)


_NUM = st.sampled_from(["", "nan", "inf", "-inf", "-1", "0", "0.5", "1", "2",
                        "4"])
_INT = st.sampled_from(["", "nan", "-1", "0", "1", "2", "3"])
_N = st.sampled_from(["", "nan", "-3", "0", "1", "2", "5", "8"])
_SEED = st.sampled_from(["", "nan", "-1", "0", "7", str(2**64)])
_WEIGHTS = st.one_of(
    _N.map(lambda n: f"--equal={n}"),
    st.tuples(_N, _NUM, _SEED).map(lambda t: "--random=" + ",".join(t)),
    st.tuples(_N, _NUM).map(lambda t: "--geometric=" + ",".join(t)),
    st.lists(_NUM, max_size=8).map(lambda xs: "--weights=" + ",".join(xs)),
)
_ARGV = st.one_of(
    st.builds(lambda n, c0, trials, seed, tol: [
        "scan", f"--n={n}", f"--c0={c0}", f"--trials={trials}",
        f"--seed={seed}", f"--tol={tol}"], _N, _NUM, _INT, _SEED, _NUM),
    st.builds(lambda w, c0, budget, tol: [
        "minimize", w, f"--c0={c0}", f"--budget={budget}", f"--tol={tol}"],
        _WEIGHTS, _NUM, st.sampled_from(["", "nan", "-5", "0", "1", "20"]),
        _NUM),
    st.builds(lambda c0, family, ns, trials, seed, tol: [
        "probe", f"--c0={c0}", f"--family={family}", f"--n={ns}",
        f"--trials={trials}", f"--seed={seed}", f"--tol={tol}"],
        _NUM, st.sampled_from(["equal", "geometric", "random", "other"]),
        st.sampled_from(["", "nan", "1..8", "2,4", "8..1", "-2..2", "0",
                         "3..inf", "5", "1..", ","]), _INT, _SEED, _NUM),
    st.builds(lambda w, method, samples, seed: [
        "expect", w, f"--method={method}", f"--samples={samples}",
        f"--seed={seed}"],
        _WEIGHTS, st.sampled_from(["auto", "exact", "monte_carlo"]),
        st.sampled_from(["", "nan", "-1", "0", "9999", "10000", "20000"]),
        _SEED),
    st.builds(lambda s, tol: ["fbound", f"--s={s}", f"--tol={tol}"],
              st.sampled_from(["", "nan", "inf", "-1", "0", "1e-300", "0.5",
                               "2", "3", "1e4", "1e9", "1e10"]),
              st.sampled_from(["", "nan", "inf", "-1", "0", "1e-12", "1e-4",
                               "1"])),
)


@settings(max_examples=200, deadline=None)
@given(argv=_ARGV)
def test_exit_code_contract_on_bad_tokens(argv):
    # NaN, inf, negative and empty tokens exit 0 or 2, never 1, and never
    # reach the traceback of an unexpected error
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
    assert code in (EXIT_OK, EXIT_ERROR), argv
    assert "Traceback" not in sink.getvalue(), argv


def test_mutually_exclusive_weight_flags(capsys):
    with pytest.raises(SystemExit):
        main(["gap", "--equal", "3", "--weights", "1,2"])
