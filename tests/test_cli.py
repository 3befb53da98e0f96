"""Tests for the command-line front end: parsing, output formats, exit codes."""

import csv
import io
import json
import math
import pathlib

import numpy as np
import pytest

from scipy import stats

from tailbounds import cli
from tailbounds.bounds import MartingaleConditions, comparison_hull, tail_bound_range
from tailbounds.cli import main
from tailbounds.fracmoment import margin_sweep
from tailbounds.suites import SuiteResult


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


class TestBoundCommand:
    def test_range_theorem_row(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--theorem", "1.2", "--n", "2", "--p", "0.5", "--x", "1"], capsys
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["exact"]) == pytest.approx(0.25, rel=1e-12)
        assert float(row["hull_value"]) == pytest.approx(0.25, rel=1e-12)
        assert float(row["raw"]) == pytest.approx(0.6795704571147613, rel=1e-12)

    def test_beyond_support_row(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--theorem", "1.2", "--n", "2", "--p", "0.5", "--x", "2"], capsys
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["exact"]) == 0.0
        assert float(row["hull_value"]) == 0.0
        assert float(row["raw"]) == 0.0

    def test_symmetric_gaussian_column(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--theorem", "1.3", "--n", "2", "--a", "1", "--x", "0"], capsys
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["coarse_raw"]) == pytest.approx(2 * math.e**3 / 9 * 0.5, rel=1e-12)
        assert float(row["coarse_clamped"]) == 1.0
        assert row["hoeffding"] == ""

    def test_round_trip_matches_library(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--theorem", "1.2", "--n", "3", "--p", "0.4", "--x", "0.7"], capsys
        )
        (row,) = parse_csv(out)
        cond = MartingaleConditions.range_condition(np.full(3, 0.4))
        # the table reads one materialized hull; the library default is lazy
        assert float(row["raw"]) == tail_bound_range(cond, 0.7, hull=comparison_hull(cond)).value
        assert float(row["raw"]) == pytest.approx(tail_bound_range(cond, 0.7).value, rel=1e-12)

    def test_x_range_sweep(self, capsys):
        code, out, _ = run_cli(
            [
                "bound", "--theorem", "1.1", "--n", "2", "--sigma2", "1", "--b", "1",
                "--x-min", "-2", "--x-max", "2", "--x-step", "1",
            ],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out)
        assert [float(r["x"]) for r in rows] == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_step_that_does_not_divide_the_range_warns(self, capsys):
        argv = ["bound", "--theorem", "1.2", "--n", "3", "--p", "0.3",
                "--x-min", "0", "--x-max", "1", "--x-step", "0.3"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert "does not divide" in err
        assert [float(r["x"]) for r in parse_csv(out)] == pytest.approx([0.0, 0.3, 0.6, 0.9], abs=1e-15)

    def test_last_point_past_x_max_by_rounding_is_clamped(self, capsys):
        # 3 * 0.1 rounds to 0.30000000000000004, past x-max
        argv = ["bound", "--theorem", "1.2", "--n", "3", "--p", "0.3",
                "--x-min", "0", "--x-max", "0.3", "--x-step", "0.1"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert err == ""
        assert float(parse_csv(out)[-1]["x"]) == 0.3

    def test_bit_stable_output(self, capsys):
        args = ["bound", "--theorem", "1.2", "--n", "4", "--p", "0.3", "--x", "1.1"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--theorem", "1.2", "--n", "2", "--p", "0.5", "--x", "1", "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["raw"] == pytest.approx(0.6795704571147613, rel=1e-15)

    def test_clamp_flag(self, capsys):
        _, out, _ = run_cli(
            ["bound", "--theorem", "1.2", "--n", "2", "--p", "0.5", "--x", "-3", "--clamp"], capsys
        )
        (row,) = parse_csv(out)
        assert float(row["raw"]) == 1.0

    def test_non_finite_threshold_exit_2(self, capsys):
        # NaN gets the threshold contract's message, an infinity the bounds' own
        for x, message in (("nan", "threshold x must not be NaN"), ("inf", "threshold x must be finite")):
            code, _, err = run_cli(
                ["bound", "--theorem", "1.2", "--n", "2", "--p", "0.5", "--x", x], capsys
            )
            assert code == 2
            assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--theorem", "1.2", "--n", "2", "--p", "0.5", "--x", "1", "--seed", "1"],
            ["verify", "--suite", "lemma48", "--clamp"],
            ["hull", "--p", "0.5", "--n", "2", "--seed", "1"],
            ["confidence", "--n", "10", "--mean", "0.5", "--delta", "0.05", "--clamp"],
        ],
    )
    def test_options_without_effect_are_usage_errors(self, argv):
        # only verify takes --seed and only bound takes --clamp
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_missing_parameters_exit_2(self, capsys):
        code, _, err = run_cli(["bound", "--theorem", "1.1", "--n", "2", "--x", "1"], capsys)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "grid, flag",
        [
            (["--x-min", "0", "--x-max", "inf", "--x-step", "0.5"], "--x-max"),
            (["--x-min=-inf", "--x-max", "1", "--x-step", "0.5"], "--x-min"),
            (["--x-min", "nan", "--x-max", "1", "--x-step", "0.5"], "--x-min"),
            (["--x-min", "0", "--x-max", "1", "--x-step", "nan"], "--x-step"),
            (["--x-min", "0", "--x-max", "1e300", "--x-step", "1e-300"], "--x-step"),
            (["--x-min=-1e308", "--x-max", "1e308", "--x-step", "1"], "--x-step"),
            # too many points to allocate: refused before np.arange
            (["--x-min", "0", "--x-max", "1e15", "--x-step", "1"], "--x-step"),
        ],
    )
    def test_non_finite_grid_exit_2(self, grid, flag, capsys):
        argv = ["bound", "--theorem", "1.2", "--n", "5", "--p", "0.3", *grid]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and flag in err

    @pytest.mark.parametrize(
        "params",
        [
            ["--theorem", "1.2", "--ps", "0.3,0.2"],
            ["--theorem", "1.1", "--b", "1", "--sigma2s", "0.3,0.2,0.4"],
            ["--theorem", "1.3", "--bs", "1,0.5"],
            ["--theorem", "1.3", "--bs", "1,0.5,1,1,1", "--sigma2s", "0.3,0.2"],
            ["--theorem", "1.3", "--a", "1", "--sigma2s", "0.3,0.2"],
        ],
    )
    def test_per_step_list_must_match_n(self, params, capsys):
        code, out, err = run_cli(["bound", "--n", "5", *params, "--x", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "--n is 5" in err

    @pytest.mark.parametrize(
        "argv, unread",
        [
            (["bound", "--theorem", "1.3", "--a", "1", "--b", "2", "--n", "3", "--x", "0.5"], ["--b"]),
            (["bound", "--theorem", "1.2", "--p", "0.3", "--sigma2", "5", "--b", "9", "--n", "3", "--x", "0.5"],
             ["--sigma2", "--b"]),
            (["bound", "--theorem", "1.2", "--p", "0.9", "--ps", "0.1,0.2", "--x", "0.5"], ["--p"]),
            (["bound", "--theorem", "1.3", "--a", "5", "--b", "1", "--sigma2", "0.5", "--n", "2", "--x", "0.5"],
             ["--a"]),
            (["hull", "--p", "0.3", "--sigma2", "5", "--b", "9", "--n", "2"], ["--sigma2", "--b"]),
            (["hull", "--atoms=-1:0.5,1:0.5", "--p", "0.3", "--n", "2"], ["--p"]),
        ],
    )
    def test_unread_parameter_flags_exit_2(self, argv, unread, capsys):
        # each used to exit 0 and silently drop the flags
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.strip().rsplit(": ", 1)[1].split(", ") == unread

    def test_per_step_list_of_length_n(self, capsys):
        argv = ["bound", "--theorem", "1.2", "--n", "2", "--ps", "0.3,0.2", "--x", "1"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert len(parse_csv(out)) == 1


# stdout of `tailbounds bound` before the bound layer took threshold arrays
# (each grid has thresholds below the support, on knots and past the top knot),
# of `tailbounds hull` before the hull took one exponential for scalars and
# arrays (hull_atoms_n3.csv since convolution keeps lattice knots exact), and
# of `tailbounds lemma42` once its hull side became one array call
GOLDEN = {
    "bound_t11.csv": ["bound", "--theorem", "1.1", "--n", "5", "--sigma2", "1", "--b", "1",
                      "--x-min", "-6", "--x-max", "6", "--x-step", "0.5"],
    "bound_t12.csv": ["bound", "--theorem", "1.2", "--n", "8", "--p", "0.25",
                      "--x-min", "-3", "--x-max", "7", "--x-step", "0.5"],
    "bound_t13.csv": ["bound", "--theorem", "1.3", "--n", "4", "--a", "1",
                      "--x-min", "-5", "--x-max", "5", "--x-step", "0.5"],
    "bound_t12_n200.csv": ["bound", "--theorem", "1.2", "--n", "200", "--p", "0.37",
                           "--x-min", "-5", "--x-max", "130", "--x-step", "2.5"],
    "bound_t11_clamp.csv": ["bound", "--theorem", "1.1", "--n", "6", "--sigma2", "0.75", "--b", "1.5",
                            "--x-min", "-4", "--x-max", "10", "--x-step", "0.5", "--clamp"],
    "bound_t13_json.json": ["bound", "--theorem", "1.3", "--n", "3", "--a", "0.5",
                            "--x-min", "-2", "--x-max", "2", "--x-step", "0.25", "--format", "json"],
    "bound_t12_ps.csv": ["bound", "--theorem", "1.2", "--ps", "0.1,0.3,0.2,0.4",
                         "--x-min", "-2", "--x-max", "5", "--x-step", "0.5"],
    "bound_t11_sigma2s.csv": ["bound", "--theorem", "1.1", "--sigma2s", "0.5,1,1.5", "--b", "1",
                              "--x-min", "-4", "--x-max", "4", "--x-step", "0.5"],
    "bound_t13_bs.csv": ["bound", "--theorem", "1.3", "--bs", "1.5,0.5",
                         "--x-min", "-3", "--x-max", "3", "--x-step", "0.25"],
    "bound_t13_per_k.csv": ["bound", "--theorem", "1.3", "--bs", "1,0.5", "--sigma2s", "0.25,1",
                            "--x-min", "-3", "--x-max", "3", "--x-step", "0.5"],
    "hull_atoms.csv": ["hull", "--atoms", "0:0.9801,0.1:0.0099,1:0.0099,1.1:0.0001"],
    "hull_atoms_n3.csv": ["hull", "--atoms=-1:0.25,0:0.5,2:0.25", "--n", "3"],
    "hull_p.csv": ["hull", "--p", "0.3", "--n", "20"],
    "hull_sigma2_b.csv": ["hull", "--sigma2", "0.25", "--b", "0.5", "--n", "10"],
    "lemma42_atoms.csv": ["lemma42", "--atoms", "0:0.9801,0.1:0.0099,1:0.0099,1.1:0.0001"],
    "lemma42_p_n200.csv": ["lemma42", "--p", "0.3", "--n", "200"],
    "lemma42_sigma2_b.csv": ["lemma42", "--sigma2", "0.25", "--b", "0.5", "--n", "10"],
}
DATA = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bound_stdout_matches_golden_file(name, capsys):
    code, out, _ = run_cli(GOLDEN[name], capsys)
    assert code == 0
    assert out.encode() == (DATA / name).read_bytes()


class TestHullCommand:
    def test_counterexample_flags_dropped_knot(self, capsys):
        code, out, _ = run_cli(
            ["hull", "--atoms", "0:0.9801,0.1:0.0099,1:0.0099,1.1:0.0001"], capsys
        )
        assert code == 0
        rows = parse_csv(out)
        flags = {float(r["x"]): int(r["on_hull"]) for r in rows}
        assert flags[0.1] == 0
        assert flags[0.0] == 1 and flags[1.0] == 1 and flags[1.1] == 1

    def test_binomial_keeps_every_knot(self, capsys):
        code, out, _ = run_cli(["hull", "--p", "0.3", "--n", "8"], capsys)
        rows = parse_csv(out)
        assert code == 0
        assert all(int(r["on_hull"]) == 1 for r in rows)

    def test_lattice_knots_stay_integers(self, capsys):
        # 299 rounds of merging equal lattice points used to drift a knot to 296.0000000000569
        code, out, _ = run_cli(["hull", "--atoms=-1:0.5,1:0.5", "--n", "300"], capsys)
        xs = [float(r["x"]) for r in parse_csv(out)]
        assert code == 0 and len(xs) > 100
        assert all(x.is_integer() and x % 2 == 0 for x in xs)

    def test_single_atom_pair(self, capsys):
        code, out, _ = run_cli(["hull", "--sigma2", "0.5", "--b", "1", "--n", "1"], capsys)
        rows = parse_csv(out)
        assert len(rows) == 2
        assert float(rows[0]["survival"]) == 1.0

    def test_invalid_distribution_exit_2(self, capsys):
        code, _, err = run_cli(["hull", "--atoms", "0:0.5,1:0.7"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["hull", "--p", "0.3"],
            ["lemma42", "--sigma2", "0.5", "--b", "1"],
            ["hull", "--atoms=-1:0.5,1:0.5", "--n", "0"],
            ["hull", "--atoms=-1:0.5,1:0.5", "--n", "-1"],
            ["bound", "--theorem", "1.3", "--a", "1", "--x", "0.5"],
            ["bound", "--theorem", "1.2", "--p", "0.3", "--n", "-2", "--x", "0.5"],
        ],
    )
    def test_missing_or_nonpositive_n_exit_2(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--n" in err


class TestLemma42Command:
    def test_margins_negative(self, capsys):
        code, out, _ = run_cli(
            ["lemma42", "--sigma2", "0.25", "--b", "0.5", "--n", "4", "--s", "1,2"], capsys
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows
        assert all(float(r["margin"]) <= 1e-9 for r in rows)
        assert {float(r["s"]) for r in rows} == {1.0, 2.0}


    def test_violation_exits_1(self, monkeypatch, capsys):
        def violated(S, s_values):
            xs, lhs, rhs = margin_sweep(S, s_values)
            return xs, rhs + 1.0, rhs

        monkeypatch.setattr(cli, "margin_sweep", violated)
        code, out, err = run_cli(["lemma42", "--p", "0.3", "--n", "2", "--s", "2"], capsys)
        assert code == 1
        assert "violation" in err
        margins = [float(r["margin"]) for r in parse_csv(out)]
        assert margins and margins == pytest.approx([1.0] * len(margins))


class TestVerifyCommand:
    def test_fast_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "lemma48", "--seed", "7"], capsys)
        assert code == 0
        assert "suite=lemma48" in out
        assert "failures=0" in out

    def test_depth_rejected_by_suites_without_it(self, capsys):
        # only the dominance suite has a depth; --n elsewhere would do nothing
        code, out, err = run_cli(["verify", "--suite", "lemma48", "--n", "7"], capsys)
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_dominance_rejects_depth_below_one(self, capsys):
        code, out, err = run_cli(["verify", "--suite", "dominance", "--n", "0"], capsys)
        assert code == 2
        assert out == ""
        assert "n=0" in err

    def test_failures_exit_1_with_counterexample_csv(self, monkeypatch, capsys):
        res = SuiteResult("lemma48", checks=2)
        res.fail(case="blowup", value=3.0)
        monkeypatch.setattr(cli, "run_suite", lambda name, seed, n: [res])
        code, out, _ = run_cli(["verify", "--suite", "lemma48"], capsys)
        assert code == 1
        head, *rows = out.splitlines()
        assert head == "suite=lemma48 checks=2 failures=1"
        assert parse_csv("\n".join(rows)) == [{"case": "blowup", "suite": "lemma48", "value": "3"}]

    def test_failure_rows_with_different_keys(self, monkeypatch, capsys):
        res = SuiteResult("lemma48", checks=3)
        res.fail(case="blowup", value=3.0)
        res.fail(case="drop", instance=2)
        monkeypatch.setattr(cli, "run_suite", lambda name, seed, n: [res])
        code, out, _ = run_cli(["verify", "--suite", "lemma48"], capsys)
        assert code == 1
        # a key a row lacks prints as an empty cell
        assert out.splitlines()[1:] == ["case,instance,suite,value", "blowup,,lemma48,3", "drop,2,lemma48,"]
        code, out, _ = run_cli(["verify", "--suite", "lemma48", "--format", "json"], capsys)
        assert json.loads(out.splitlines()[1]) == [
            {"case": "blowup", "instance": None, "suite": "lemma48", "value": 3.0},
            {"case": "drop", "instance": 2, "suite": "lemma48", "value": None},
        ]

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2


class TestConfidenceCommand:
    def test_basic(self, capsys):
        code, out, _ = run_cli(
            ["confidence", "--n", "100", "--mean", "0.5", "--delta", "0.05"], capsys
        )
        assert code == 0
        (row,) = parse_csv(out)
        mu = float(row["upper_limit"])
        assert 0.5 < mu < 1.0
        assert float(row["bound_at_limit"]) == pytest.approx(0.05, abs=1e-6)

    def test_no_room_above(self, capsys):
        code, out, _ = run_cli(
            ["confidence", "--n", "10", "--mean", "1", "--delta", "0.05"], capsys
        )
        (row,) = parse_csv(out)
        assert float(row["upper_limit"]) == 1.0

    def test_zero_mean(self, capsys):
        code, out, _ = run_cli(
            ["confidence", "--n", "100", "--mean", "0", "--delta", "0.05"], capsys
        )
        assert code == 0
        (row,) = parse_csv(out)
        mu = float(row["upper_limit"])
        assert 1.0 - 0.05 ** (1.0 / 100) <= mu < 1.0
        assert float(row["bound_at_limit"]) == pytest.approx(0.05, abs=1e-6)

    def test_bad_mean_exit_2(self, capsys):
        code, _, err = run_cli(
            ["confidence", "--n", "10", "--mean", "1.4", "--delta", "0.05"], capsys
        )
        assert code == 2

    def test_mean_near_one(self, capsys):
        # the spot-check probes ran downward above a mean of 1 - 1e-12, and
        # the monotonicity check raised RuntimeError
        n, mean, delta = 2 * 10**12, 0.9999999999995, 0.05
        code, out, _ = run_cli(
            ["confidence", "--n", str(n), "--mean", repr(mean), "--delta", str(delta)], capsys
        )
        assert code == 0
        (row,) = parse_csv(out)
        mu = float(row["upper_limit"])
        assert mean < mu <= 1.0
        # k = n - 1 successes: the Clopper-Pearson upper limit is (1 - delta)^(1/n)
        assert round(n * mean) == n - 1
        assert mu >= math.exp(math.log1p(-delta) / n)

    @pytest.mark.parametrize(
        "n, mean, delta",
        [(920, 0.3, 1e-6), (3000, 0.3, 1e-6), (10**4, 0.3, 1e-6), (10**6, 0.3, 1e-6), (3000, 0.5, 0.05)],
    )
    def test_large_n_at_least_clopper_pearson(self, n, mean, delta, capsys):
        code, out, _ = run_cli(
            ["confidence", "--n", str(n), "--mean", str(mean), "--delta", str(delta)], capsys
        )
        assert code == 0
        (row,) = parse_csv(out)
        k = round(n * mean)
        assert float(row["upper_limit"]) >= stats.beta.ppf(1.0 - delta, k + 1, n - k)
        assert float(row["bound_at_limit"]) >= delta


class TestOutputFile:
    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            ["bound", "--theorem", "1.2", "--n", "2", "--p", "0.5", "--x", "1", "--out", str(target)],
            capsys,
        )
        assert code == 0
        assert out == ""
        rows = parse_csv(target.read_text())
        assert float(rows[0]["raw"]) == pytest.approx(0.6795704571147613, rel=1e-12)


# cells the CSV writer must print as csv.writer prints their _fmt text
_CELLS = [
    None, 0, 1, -7, 10**20, True, False, 0.0, -0.0, 1.0, -2.5, 0.1, math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 1.7976931348623157e308, 1e16, 123456789.125,
    "", " ", "a", "1.2", "a,b", ",", 'say "hi"', '"', '""', "line\nbreak", "cr\rhere", "crlf\r\n",
    "%", "%s", "%%", "%(x)s", "100%,", " lead", "tail ", "é", "\t",
]


def _random_column(rng, rows):
    kind = int(rng.integers(5))
    if kind == 0:
        # one object repeated
        return [_CELLS[int(rng.integers(len(_CELLS)))]] * rows
    if kind == 1:
        return [float(v) for v in rng.choice([0.0, -0.0, 1.0, math.nan, math.inf, 5e-324, 0.3], rows)]
    if kind == 2:
        # equal but not identical: 0.0 and -0.0, 1, 1.0 and True
        return [[0.0, -0.0, 1, 1.0, True][int(i)] for i in rng.integers(5, size=rows)]
    if kind == 3:
        return rng.normal(0.0, 10.0 ** float(rng.integers(-300, 300)), rows).tolist()
    return [_CELLS[int(i)] for i in rng.integers(len(_CELLS), size=rows)]


def _csv_writer_bytes(columns):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(zip(*[map(cli._fmt, col) for col in columns.values()]))
    return buf.getvalue()


class TestCsvWriter:
    """_emit's CSV rows come from one template per table, with csv.writer's bytes over _fmt."""

    def test_random_tables_match_csv_writer(self, tmp_path, capsys):
        rng = np.random.default_rng(2024)
        names = ["x", "", "a,b", 'q"', "%s", "col\n2", "theorem"]
        for trial in range(400):
            ncols = int(rng.integers(1, 6))
            rows = int(rng.choice([0, 1, 2, 3, 7]))
            columns = {f"{names[int(rng.integers(len(names)))]}{i}" if ncols > 1 else
                       names[int(rng.integers(len(names)))]: _random_column(rng, rows) for i in range(ncols)}
            expected = _csv_writer_bytes(columns)
            cli._emit(columns, "csv", None)
            assert capsys.readouterr().out == expected, (trial, columns)
            target = tmp_path / "t.csv"
            cli._emit(columns, "csv", str(target))
            assert target.read_bytes() == expected.encode()

    @pytest.mark.parametrize("cell", _CELLS)
    @pytest.mark.parametrize("rows", [1, 3])
    def test_every_cell_alone_and_beside_another(self, cell, rows, capsys):
        for columns in ({"c": [cell] * rows}, {"c": [cell] * rows, "d": [1.5] * rows},
                        {"c": [cell] + [0.25] * (rows - 1)}):
            cli._emit(columns, "csv", None)
            assert capsys.readouterr().out == _csv_writer_bytes(columns)

    def test_zero_rows_and_zero_columns(self, capsys):
        for columns in ({"a": [], "b": []}, {"a": []}, {}):
            cli._emit(columns, "csv", None)
            assert capsys.readouterr().out == _csv_writer_bytes(columns)
