import csv
import json
import math

import numpy as np
import pytest

from postselect import ExperimentConfig, RngStream, generate_dataset
from postselect.cli import main, records_csv_text, ratio_hist_csv_text, RECORDS_COLUMNS

from oracles import brute_force_select


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_fixture_csv(path, seed=7, n=50, p=10):
    """CSV from one reference-config replication: raw design, centered response."""
    cfg = ExperimentConfig(seed=seed)
    gen = generate_dataset(cfg, RngStream(cfg.seed, 0))
    x_raw = gen.data.X + gen.raw_column_means
    y_raw = gen.data.y  # the CLI re-centers the response
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(1, p + 1)] + ["y"])
        for i in range(n):
            writer.writerow([repr(float(v)) for v in x_raw[i]] + [repr(float(y_raw[i]))])
    return gen


class TestQuantileCommand:
    def test_cauchy_value(self, capsys):
        code, out, _ = run_cli(capsys, "quantile", "--df", "1", "--prob", "0.975")
        assert code == 0
        assert out.strip() == "12.70620474"

    def test_df2_value(self, capsys):
        code, out, _ = run_cli(capsys, "quantile", "--df", "2", "--prob", "0.975")
        assert code == 0
        assert out.strip() == "4.302652730"

    def test_median_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "quantile", "--df", "1", "--prob", "0.5")
        assert code == 0
        assert out.strip() == "0"

    def test_invalid_inputs_exit_2(self, capsys):
        assert run_cli(capsys, "quantile", "--df", "0", "--prob", "0.5")[0] == 2
        assert run_cli(capsys, "quantile", "--df", "3", "--prob", "1.5")[0] == 2


class TestTheoremCheckCommand:
    def test_analytic_reference_values(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "theorem-check", "--n", "50", "--size-star", "3", "--size-hat", "4",
            "--cn", "2",
        )
        assert code == 0
        assert "a_n = 1.84" in out
        assert "D_n = 0.0217391" in out
        assert "HOLDS" in out

    def test_equal_sizes_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "theorem-check", "--n", "50", "--size-star", "3", "--size-hat", "3",
            "--cn", "2",
        )
        assert code == 2
        assert "size_hat" in err

    def test_tiny_penalty_fails_condition(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "theorem-check", "--n", "50", "--size-star", "3", "--size-hat", "4",
            "--cn", "0.01",
        )
        assert code == 0
        assert "FAILS" in out

    def test_data_mode_full_report(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        write_fixture_csv(path)
        code, out, _ = run_cli(
            capsys,
            "theorem-check", "--data", str(path),
            "--s-star", "1,2,3", "--s-hat", "1,2,3,4",
        )
        assert code == 0
        for token in ("r_n =", "F_n =", "sigma_hat", "a_n = 1.84"):
            assert token in out

    def test_data_mode_index_beyond_columns_exit_2(self, capsys, tmp_path):
        rng = np.random.default_rng(6)
        path = tmp_path / "five.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{j}" for j in range(1, 6)] + ["y"])
            for row in rng.standard_normal((20, 6)):
                writer.writerow([repr(float(v)) for v in row])
        code, _, err = run_cli(
            capsys,
            "theorem-check", "--data", str(path), "--s-star", "1", "--s-hat", "1,9",
        )
        assert code == 2
        assert err.startswith("error:") and "5 available columns" in err

    def test_analytic_mode_resolves_the_criterion(self, capsys):
        sizes = ("theorem-check", "--n", "50", "--size-star", "3", "--size-hat", "4")
        code, out, _ = run_cli(capsys, *sizes, "--criterion", "bic")
        assert code == 0
        assert f"c_n = {math.log(50):.6g}" in out
        assert f"a_n = {math.log(50) * 46 / 50:.6g}" in out
        code, out, _ = run_cli(capsys, *sizes)
        assert code == 0 and "criterion: aic (c_n = 2)" in out
        for flags in (("--criterion", "bic", "--cn", "2"), ("--cn", "nan"), ("--cn", "inf")):
            code, _, err = run_cli(capsys, *sizes, *flags)
            assert_one_error_line(code, err)
            assert "c_n" in err

    def test_data_mode_too_large_s_hat_exits_2(self, capsys, tmp_path):
        rng = np.random.default_rng(8)
        path = tmp_path / "short.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{j}" for j in range(1, 5)] + ["y"])
            for row in rng.standard_normal((5, 5)):
                writer.writerow([repr(float(v)) for v in row])
        code, _, err = run_cli(
            capsys,
            "theorem-check", "--data", str(path), "--s-star", "1", "--s-hat", "1,2,3,4",
        )
        assert_one_error_line(code, err)
        assert "degrees of freedom" in err

    def test_data_mode_rejects_non_nested(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        write_fixture_csv(path)
        code, _, err = run_cli(
            capsys,
            "theorem-check", "--data", str(path),
            "--s-star", "1,2,3", "--s-hat", "1,2,4",
        )
        assert code == 2
        assert "contain" in err


class TestSelectCommand:
    def test_reference_fixture_contains_truth(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        gen = write_fixture_csv(path, seed=7)
        code, out, _ = run_cli(capsys, "select", str(path), "--json")
        assert code == 0
        obj = json.loads(out)
        assert {1, 2, 3} <= set(obj["chosen"])
        bf_chosen, _ = brute_force_select(gen.data, ExperimentConfig(seed=7).criterion)
        assert tuple(obj["chosen"]) == bf_chosen.indices

    def test_exact_fit_floor_warning(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(30)
        path = tmp_path / "exact.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "y"])
            for v in x:
                writer.writerow([repr(float(v)), repr(float(v))])  # y is exactly x1
        code, out, err = run_cli(capsys, "select", str(path))
        assert code == 0
        assert "chosen subset: {1}" in out
        assert "floor" in err

    def test_zero_column_skipped_with_warning(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "degenerate.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "x2", "y"])
            for _ in range(25):
                x1 = float(rng.standard_normal())
                writer.writerow([repr(x1), "5.0", repr(2.0 * x1 + float(rng.standard_normal()))])
        code, out, err = run_cli(capsys, "select", str(path))
        assert code == 0
        assert "skipped" in err and "rank deficient" in err
        assert "chosen subset: {1}" in out

    def test_large_offset_csv_is_centered(self, capsys, tmp_path):
        # columns near 1e9 (years, prices) lose ~1e-7 of their mean to
        # rounding when centered; selection must not reject them for it
        plain, shifted = tmp_path / "plain.csv", tmp_path / "shifted.csv"
        write_fixture_csv(plain)
        with open(plain) as src, open(shifted, "w", newline="") as dst:
            rows = csv.reader(src)
            writer = csv.writer(dst)
            writer.writerow(next(rows))
            for row in rows:
                writer.writerow([repr(float(v) + 1e9) for v in row])
        code, out, err = run_cli(capsys, "select", str(plain), "--json")
        assert code == 0
        expected = json.loads(out)["chosen"]
        code, out, err = run_cli(capsys, "select", str(shifted), "--json")
        assert code == 0, err
        assert json.loads(out)["chosen"] == expected

    def test_malformed_inputs_exit_2(self, capsys, tmp_path):
        no_y = tmp_path / "no_y.csv"
        no_y.write_text("a,b\n1,2\n3,4\n")
        assert run_cli(capsys, "select", str(no_y))[0] == 2

        bad_cell = tmp_path / "bad.csv"
        bad_cell.write_text("x1,y\n1.0,2.0\nfoo,3.0\n")
        assert run_cli(capsys, "select", str(bad_cell))[0] == 2

        ragged = tmp_path / "ragged.csv"
        ragged.write_text("x1,y\n1.0,2.0\n1.0\n")
        assert run_cli(capsys, "select", str(ragged))[0] == 2

        missing = tmp_path / "missing.csv"
        assert run_cli(capsys, "select", str(missing))[0] == 2

    def test_huge_response_exits_2(self, capsys, tmp_path):
        # squares of values near 1e160 overflow float64: the data is rejected
        # with one error line instead of failing inside the selection
        rng = np.random.default_rng(9)
        path = tmp_path / "huge.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "x2", "x3", "y"])
            for row in rng.standard_normal((20, 4)):
                writer.writerow([repr(float(v)) for v in row[:3]] + [repr(float(row[3]) * 1e160)])
        code, _, err = run_cli(capsys, "select", str(path))
        assert_one_error_line(code, err)
        assert "magnitude" in err

    def test_too_many_predictors_exit_2(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "wide.csv"
        p = 21
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{j}" for j in range(p)] + ["y"])
            for _ in range(30):
                row = rng.standard_normal(p + 1)
                writer.writerow([repr(float(v)) for v in row])
        code, _, err = run_cli(capsys, "select", str(path))
        assert code == 2
        assert "enumeration limit" in err

    def test_top_table_and_bic_flag(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        write_fixture_csv(path)
        code, out, _ = run_cli(
            capsys, "select", str(path), "--criterion", "bic", "--top", "3"
        )
        assert code == 0
        assert out.count("gamma=") == 3
        assert "criterion: bic" in out


class TestSimulateCommand:
    def test_small_run_writes_all_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(
            capsys,
            "simulate", "--reps", "25", "--seed", "9", "--workers", "1",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        assert "coverage_selected" in out
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["reps"] == 25
        assert summary["seed"] == 9
        assert summary["rng_algorithm"] == "philox4x64"
        assert 0.0 <= summary["coverage_selected"] <= 1.0
        with open(out_dir / "records.csv") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == RECORDS_COLUMNS
        assert len(rows) == 26
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["reps"] == 25
        assert manifest["config"]["criterion"] == "aic"
        assert manifest["rng_algorithm"] == "philox4x64"
        hist = list(csv.reader((out_dir / "ratio_hist.csv").read_text().splitlines()))
        assert tuple(hist[0]) == ("bin_lo", "bin_hi", "count")
        assert len(hist) == 31
        assert hist[1][0] == "1.00" and hist[-1][1] == "1.30"
        n_overfit = sum(int(r[6]) for r in rows[1:])
        assert sum(int(r[2]) for r in hist[1:]) == n_overfit

    def test_single_replication_has_binary_rates(self, capsys, tmp_path):
        out_dir = tmp_path / "one"
        code, _, _ = run_cli(
            capsys,
            "simulate", "--reps", "1", "--seed", "3", "--workers", "1",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        with open(out_dir / "records.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2
        summary = json.loads((out_dir / "summary.json").read_text())
        for key in ("coverage_selected", "coverage_oracle", "containment_rate"):
            assert summary[key] in (0.0, 1.0)

    def test_bic_more_exact_than_aic_at_same_seed(self, capsys, tmp_path):
        rates = {}
        for crit in ("aic", "bic"):
            out_dir = tmp_path / crit
            code, _, _ = run_cli(
                capsys,
                "simulate", "--reps", "150", "--seed", "42",
                "--criterion", crit, "--out-dir", str(out_dir),
            )
            assert code == 0
            rates[crit] = json.loads((out_dir / "summary.json").read_text())[
                "exact_rate"
            ]
        assert rates["bic"] > rates["aic"]

    def test_manifest_rerun_reproduces_records_bytes(self, capsys, tmp_path):
        first = tmp_path / "first"
        code, _, _ = run_cli(
            capsys,
            "simulate", "--reps", "30", "--seed", "11", "--workers", "2",
            "--out-dir", str(first),
        )
        assert code == 0
        second = tmp_path / "second"
        code, _, _ = run_cli(
            capsys,
            "simulate", "--config", str(first / "manifest.json"),
            "--workers", "1", "--out-dir", str(second),
        )
        assert code == 0
        for name in ("summary.json", "records.csv", "ratio_hist.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_summary_json_is_not_a_config(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(
            capsys,
            "simulate", "--reps", "3", "--seed", "9", "--workers", "1",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(out_dir / "summary.json"),
            "--out-dir", str(tmp_path / "again"),
        )
        assert code == 2
        assert "summary.json" in err and "manifest.json" in err

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "# reference study, fewer reps\n"
            "reps = 10\n"
            "seed = 4\n"
            "criterion = bic\n"
            "workers = 1\n"
        )
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys,
            "simulate", "--config", str(cfg_file), "--reps", "5",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["reps"] == 5  # flag wins
        assert manifest["config"]["criterion"] == "bic"
        assert manifest["config"]["seed"] == 4

    def test_config_errors_exit_2(self, capsys, tmp_path):
        assert run_cli(capsys, "simulate", "--alpha", "2.0")[0] == 2
        assert run_cli(capsys, "simulate", "--p", "4")[0] == 2  # needs beta_star
        code, _, err = run_cli(
            capsys, "simulate", "--criterion", "custom",
            "--out-dir", str(tmp_path),
        )
        assert code == 2
        assert "c_n" in err
        bad = tmp_path / "bad.cfg"
        bad.write_text("nope = 1\n")
        assert run_cli(capsys, "simulate", "--config", str(bad))[0] == 2

    def test_custom_p_with_beta_star(self, capsys, tmp_path):
        out_dir = tmp_path / "p4"
        code, _, _ = run_cli(
            capsys,
            "simulate", "--reps", "10", "--seed", "2", "--workers", "1",
            "--p", "4", "--beta-star", "1,2,0,0", "--n", "30",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["p"] == 4
        assert manifest["config"]["s_star"] == [1, 2]


class TestCsvSchemas:
    def test_records_header_is_pinned(self):
        assert RECORDS_COLUMNS == (
            "rep_index",
            "sigma_hat_selected",
            "sigma_hat_oracle",
            "ratio",
            "size_hat",
            "contains_star",
            "strict_overfit",
            "exact",
            "covered_selected",
            "covered_oracle",
            "ci_width_selected",
            "ci_width_oracle",
            "condition_holds",
        )

    def test_float_cells_round_trip(self):
        cfg = ExperimentConfig(reps=3, seed=13, workers=1)
        from postselect import run_experiment

        _, records = run_experiment(cfg)
        text = records_csv_text(records)
        rows = list(csv.reader(text.splitlines()))
        for row, rec in zip(rows[1:], records):
            assert float(row[1]) == rec.sigma_hat_selected
            assert float(row[3]) == rec.ratio
            assert int(row[4]) == rec.s_hat.size

    def test_ratio_hist_bins_partition_range(self):
        cfg = ExperimentConfig(reps=40, seed=13, workers=1)
        from postselect import run_experiment

        _, records = run_experiment(cfg)
        rows = list(csv.reader(ratio_hist_csv_text(records).splitlines()))
        lows = [float(r[0]) for r in rows[1:]]
        highs = [float(r[1]) for r in rows[1:]]
        assert lows[0] == 1.00 and highs[-1] == 1.30
        assert all(
            math.isclose(hi - lo, 0.01, abs_tol=1e-9) for lo, hi in zip(lows, highs)
        )
        assert lows[1:] == highs[:-1]


# Each invalid configuration, once as simulate flags and once as config-file
# lines with the same values.
INVALID_CONFIGS = {
    "negative c_n": (["--criterion", "custom", "--cn", "-1"], "criterion = custom\nc_n = -1"),
    "unknown criterion": (["--criterion", "aicc"], "criterion = aicc"),
    "c_n with aic": (["--criterion", "aic", "--cn", "2"], "criterion = aic\nc_n = 2"),
    "n not a number": (["--n", "x"], "n = x"),
    "zero workers": (["--workers", "0"], "workers = 0"),
    "workers not a number": (["--workers", "abc"], "workers = abc"),
    "infinite c_n": (["--cn", "inf"], "c_n = inf"),
    "non-finite sigma": (["--sigma", "nan"], "sigma = nan"),
    "s_star index 0": (["--s-star", "0"], "s_star = 0"),
    "alpha below the rounding of 1 - alpha/2": (["--alpha", "1e-17"], "alpha = 1e-17"),
    "p beyond the enumeration limit": (
        ["--p", "21", "--beta-star", "1" + ",0" * 20],
        "p = 21\nbeta_star = 1" + ",0" * 20,
    ),
    "s_star leaves the oracle no df": (
        ["--n", "11", "--beta-star", ",".join(["1"] * 10)],
        "n = 11\nbeta_star = " + ",".join(["1"] * 10),
    ),
}

# Manifest JSON values that a plain int() would truncate, each with the
# config-file line that must fail the same way.
TRUNCATED_JSON_VALUES = {
    "fractional reps": ({"reps": 2.9}, "reps = 2.9"),
    "boolean reps": ({"reps": True}, "reps = true"),
    "boolean workers": ({"workers": True}, "workers = true"),
    "fractional s_star": ({"s_star": [1.5, 2, 3]}, "s_star = 1.5,2,3"),
}


def assert_one_error_line(code, err):
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


class TestOneConversionPath:
    @pytest.mark.parametrize(
        "flags,lines", INVALID_CONFIGS.values(), ids=INVALID_CONFIGS.keys()
    )
    def test_invalid_value_exits_2_as_flag_and_file_line(
        self, capsys, tmp_path, flags, lines
    ):
        flag_dir, file_dir = tmp_path / "flag", tmp_path / "file"
        code, _, flag_err = run_cli(capsys, "simulate", *flags, "--out-dir", str(flag_dir))
        assert_one_error_line(code, flag_err)
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(lines + "\n")
        code, _, file_err = run_cli(
            capsys, "simulate", "--config", str(cfg_file), "--out-dir", str(file_dir)
        )
        assert_one_error_line(code, file_err)
        assert file_err == flag_err
        assert not flag_dir.exists() and not file_dir.exists()

    @pytest.mark.parametrize(
        "config,line", TRUNCATED_JSON_VALUES.values(), ids=TRUNCATED_JSON_VALUES.keys()
    )
    def test_json_number_is_not_truncated(self, capsys, tmp_path, config, line):
        json_file, text_file = tmp_path / "bad.json", tmp_path / "bad.cfg"
        json_file.write_text(json.dumps({"config": config}))
        text_file.write_text(line + "\n")
        errors = []
        for path in (json_file, text_file):
            out_dir = tmp_path / path.suffix[1:]
            code, _, err = run_cli(
                capsys, "simulate", "--config", str(path), "--out-dir", str(out_dir)
            )
            assert_one_error_line(code, err)
            assert not out_dir.exists()
            errors.append(err)
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("command", ["select", "theorem-check", "theorem-check-analytic"])
    def test_negative_cn_on_a_dataset_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "data.csv"
        write_fixture_csv(path)
        if command == "select":
            argv = [command, str(path)]
        elif command == "theorem-check":
            argv = [command, "--data", str(path), "--s-star", "1,2,3", "--s-hat", "1,2,3,4"]
        else:
            argv = ["theorem-check", "--n", "50", "--size-star", "3", "--size-hat", "4"]
        code, _, err = run_cli(capsys, *argv, "--criterion", "custom", "--cn", "-1")
        assert_one_error_line(code, err)
        assert "c_n" in err

    def test_criterion_name_is_case_insensitive(self, capsys, tmp_path):
        common = ("simulate", "--reps", "3", "--seed", "5", "--workers", "1")
        flag_dir, file_dir = tmp_path / "flag", tmp_path / "file"
        code, _, _ = run_cli(capsys, *common, "--criterion", "AIC", "--out-dir", str(flag_dir))
        assert code == 0
        cfg_file = tmp_path / "upper.cfg"
        cfg_file.write_text("criterion = AIC\n")
        code, _, _ = run_cli(
            capsys, *common, "--config", str(cfg_file), "--out-dir", str(file_dir)
        )
        assert code == 0
        flag_cfg, file_cfg = (
            json.loads((d / "manifest.json").read_text())["config"]
            for d in (flag_dir, file_dir)
        )
        assert flag_cfg == file_cfg and flag_cfg["criterion"] == "aic"
        assert (flag_dir / "records.csv").read_bytes() == (file_dir / "records.csv").read_bytes()

        path = tmp_path / "data.csv"
        write_fixture_csv(path)
        code, out, _ = run_cli(capsys, "select", str(path), "--criterion", "BIC", "--top", "1")
        assert code == 0
        assert "criterion: bic" in out
