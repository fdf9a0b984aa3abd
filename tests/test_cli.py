import csv
import json
import math

import numpy as np
import pytest

from postselect import (
    Criterion, ExperimentConfig, RngStream, Subset, centered_dataset, generate_dataset, select,
)
from postselect import simulation
from postselect.cli import (
    RECORDS_COLUMNS, _assemble_config, _read_dataset_csv, build_parser, main, ratio_hist_csv_text,
    records_csv_text,
)

from oracles import brute_force_select


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


OUTPUTS = ("summary.json", "records.csv", "ratio_hist.csv")


def simulate_outputs(capsys, out_dir, *argv):
    """The bytes of the three files that ``simulate *argv`` writes to ``out_dir``."""
    code, _, err = run_cli(capsys, "simulate", *argv, "--out-dir", str(out_dir))
    assert code == 0 and not err, err
    return [(out_dir / name).read_bytes() for name in OUTPUTS]


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

    def test_large_df_value(self, capsys):
        code, out, _ = run_cli(capsys, "quantile", "--df", str(10**17), "--prob", "0.9")
        assert code == 0
        assert out.strip() == "1.281551566"

    def test_invalid_inputs_exit_2(self, capsys):
        assert run_cli(capsys, "quantile", "--df", "0", "--prob", "0.5")[0] == 2
        assert run_cli(capsys, "quantile", "--df", "3", "--prob", "1.5")[0] == 2


# the lines theorem-check prints about the condition, in both modes
CONDITION_LINES = ("criterion: ", "a_n = ", "D_n = ", "1 - exp(-a_n * D_n) = ", "condition: ")


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

    @pytest.mark.parametrize(
        "s_star,s_hat,cn,verdict",
        [("1,2", "1,2,3", [], "HOLDS"), ("1", "1,2,3,4", ["--cn", "0.05"], "FAILS")],
    )
    def test_both_modes_print_one_condition(self, capsys, cli_inputs, s_star, s_hat, cn, verdict):
        # data mode at the CSV's sizes prints analytic mode's condition block
        sizes = ["--size-star", str(s_star.count(",") + 1), "--size-hat", str(s_hat.count(",") + 1)]
        data = ["--data", str(cli_inputs / "thm.csv"), "--s-star", s_star, "--s-hat", s_hat]
        blocks = []
        for argv in (data, ["--n", "30", *sizes]):
            code, out, err = run_cli(capsys, "theorem-check", *argv, *cn)
            assert code == 0 and not err
            blocks.append([line for line in out.splitlines() if line.startswith(CONDITION_LINES)])
        assert blocks[0] == blocks[1] and len(blocks[0]) == len(CONDITION_LINES)
        assert blocks[0][-1].startswith(f"condition: {verdict} (")

    def test_data_mode_rejects_non_nested(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        write_fixture_csv(path)
        for s_hat in ("1,2,4", "1,2,3", "1,2"):  # not nested, equal, smaller
            code, _, err = run_cli(
                capsys,
                "theorem-check", "--data", str(path),
                "--s-star", "1,2,3", "--s-hat", s_hat,
            )
            assert_one_error_line(code, err)
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

    def test_ties_at_the_minimum_are_noted(self, capsys, tmp_path):
        # a constant y makes every subset an exact fit; with no penalty all 2^3 tie
        rng = np.random.default_rng(6)
        path = tmp_path / "flat.csv"
        table = np.column_stack([rng.standard_normal((20, 3)), np.full(20, 4.0)])
        np.savetxt(path, table, delimiter=",", header="x1,x2,x3,y", comments="")
        code, out, _ = run_cli(capsys, "select", str(path), "--criterion", "custom", "--cn", "0")
        assert code == 0
        assert "chosen subset: {} [(none)]" in out
        assert "note: 8 subsets tie at the minimum score" in out

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

    @pytest.mark.parametrize("crit", ["aic", "bic"])
    def test_pruned_top_at_p_18_equals_an_exhaustive_search(self, capsys, tmp_path, crit):
        # the pruned search for the top 10 against one that prunes nothing (2^18
        # subsets); AIC prunes the least, so its levels are the widest
        rng = np.random.default_rng(18)
        x = rng.standard_normal((200, 18))
        for j in range(1, 18):
            x[:, j] = 0.5 * x[:, j - 1] + np.sqrt(0.75) * x[:, j]
        y = 1.5 * x[:, 2] + 2.0 * x[:, 9] + 2.5 * x[:, 15] + rng.standard_normal(200)
        path = tmp_path / "p18.csv"
        header = ",".join(f"x{j}" for j in range(1, 19)) + ",y"
        np.savetxt(path, np.column_stack([x, y]), delimiter=",", header=header, comments="")
        argv = ["select", str(path), "--criterion", crit, "--top", "10", "--json"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        pruned = json.loads(out)
        full = select(_read_dataset_csv(str(path))[0], Criterion(crit), top=2**18)
        assert pruned["chosen"] == list(full.chosen.indices)
        assert pruned["ties"] == [list(s.indices) for s in full.ties]
        assert pruned["gamma_table"] == [
            {"subset": list(s.indices), "gamma": g} for s, g in full.ranked(10)
        ]

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

    def test_csv_with_a_byte_order_mark_selects_as_without(self, capsys, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with one
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_fixture_csv(plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert run_cli(capsys, "select", str(marked)) == run_cli(capsys, "select", str(plain))

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

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "empty file"),
            ("a,b\n1,2\n", "no column named 'y' in header ['a', 'b']"),
            ("y,x1,y\n1,2,3\n", "column 'y' repeated in header ['y', 'x1', 'y']"),
            (" y \n1\n2\n", "no predictor columns besides 'y'"),
            ("x1,y\n\n , \n", "no data rows"),
            ("x1,y\n1.0,2.0\n\n1.0\n", ":4: expected 2 fields, got 1"),
            ("x1,y\n1.0,2.0\nfoo,3.0\n", ":3: non-numeric value in ['foo', '3.0']"),
        ],
    )
    def test_csv_errors_name_file_and_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code, _, err = run_cli(capsys, "select", str(path))
        assert code == 2 and err == f"error: {path}{'' if message[0] == ':' else ': '}{message}\n"

    @pytest.mark.parametrize("n,p", [(2, 1), (5000, 3)])
    def test_csv_cells_stream_into_the_dataset(self, tmp_path, n, p):
        # the reader streams the cells into one float array; its dataset has
        # the bits of one built from the parsed rows at once, here with y in
        # the second column, a blank line and cells of very different scales
        rng = np.random.default_rng(n)
        table = rng.standard_normal((n, p + 1)) * 10.0 ** rng.integers(-6, 9, p + 1)
        path = tmp_path / "data.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "y", *(f"x{j}" for j in range(2, p + 1))])
            writer.writerow([])
            writer.writerows([repr(float(v)) for v in row] for row in table)
        with open(path, newline="") as fh:
            rows = [[float(cell) for cell in row] for row in list(csv.reader(fh))[1:] if row]
        expected = centered_dataset(
            np.array([row[1] for row in rows]), np.array([row[:1] + row[2:] for row in rows])
        )[0]
        data, names = _read_dataset_csv(str(path))
        assert names == [f"x{j}" for j in range(1, p + 1)] and data.X.shape == (n, p)
        assert np.array_equal(data.y.view(np.int64), expected.y.view(np.int64))
        assert np.array_equal(data.X.view(np.int64), expected.X.view(np.int64))

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

    def test_infinities_of_both_signs_exit_2(self, capsys, tmp_path):
        # a column holding inf and -inf has no mean; the data is rejected
        # with one error line, and centering it warns of nothing
        path = tmp_path / "inf.csv"
        path.write_text("x1,y\ninf,1.0\n-inf,2.0\n0.5,3.0\n1.5,4.0\n")
        code, _, err = run_cli(capsys, "select", str(path))
        assert_one_error_line(code, err)
        assert err.endswith("y and X must be finite\n")

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

    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_top_below_one_exits_2(self, capsys, tmp_path, top):
        path = tmp_path / "data.csv"
        write_fixture_csv(path)
        code, out, err = run_cli(capsys, "select", str(path), "--top", top)
        assert (code, out) == (2, "")
        assert err == f"error: top must be at least 1, got {top}\n"

    def test_top_table_and_bic_flag(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        write_fixture_csv(path)
        code, out, _ = run_cli(
            capsys, "select", str(path), "--criterion", "bic", "--top", "3"
        )
        assert code == 0
        assert out.count("gamma=") == 3
        assert "criterion: bic" in out

    @pytest.mark.parametrize("top", [1, 25])
    def test_top_table_matches_brute_force(self, capsys, tmp_path, top):
        # --top sets how many subsets the search keeps exact, so the table is
        # the brute force's ranking, ties broken by size then index list
        path = tmp_path / "data.csv"
        gen = write_fixture_csv(path, seed=3)
        code, out, _ = run_cli(capsys, "select", str(path), "--json", "--top", str(top))
        assert code == 0
        table = json.loads(out)["gamma_table"]
        _, bf = brute_force_select(gen.data, ExperimentConfig().criterion)
        ranked = sorted(bf, key=lambda s: (bf[s], s.size, s.indices))[:top]
        assert [tuple(row["subset"]) for row in table] == [s.indices for s in ranked]
        for row, s in zip(table, ranked):
            assert row["gamma"] == pytest.approx(bf[s], rel=1e-10)


# runs of two blocks or more, each at --workers 1 and 2
MULTI_BLOCK_RUNS = {
    # the benchmark's p = 4 study, the search's smallest tree, in 20 blocks
    "narrow": "--seed 42 --p 4 --beta-star 1,2,0,0 --reps 5000",
    "bic": "--seed 42 --reps 1000 --criterion bic",
    # a weak signal at p = 10: selected sizes 0 to 8, the most size groups per block
    "weak-p10": "--seed 7 --beta-star 0.3,0.2,0.1,0,0,0,0,0,0,0 --reps 1000",
    # the largest seed, two entropy words, over three blocks of 262, the last partial
    "seed-2^64-1": "--seed 18446744073709551615 --p 4 --beta-star 1,2,0,0 --reps 600",
    # n (p + 1) is over the block budget: one replication per block
    "n-14000": "--n 14000 --p 4 --beta-star 1,2,0,0 --reps 5",
}


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
        first = simulate_outputs(
            capsys, tmp_path / "first", "--reps", "1000", "--seed", "42", "--workers", "2"
        )
        manifest = str(tmp_path / "first" / "manifest.json")
        assert simulate_outputs(capsys, tmp_path / "second", "--config", manifest) == first

    def test_hand_written_manifest_runs_as_its_flags_do(self, capsys, tmp_path):
        config = {"n": 20, "p": 3, "beta_star": [0.4, 0, 0], "reps": 35, "seed": 0, "workers": 1}
        (tmp_path / "weak.json").write_text(json.dumps({"config": config}))
        flags = "--n 20 --p 3 --beta-star 0.4,0,0 --reps 35 --seed 0 --workers 1".split()
        assert simulate_outputs(capsys, tmp_path / "flags", *flags) == simulate_outputs(
            capsys, tmp_path / "config", "--config", str(tmp_path / "weak.json")
        )

    @pytest.mark.parametrize("flags", MULTI_BLOCK_RUNS.values(), ids=MULTI_BLOCK_RUNS.keys())
    def test_worker_count_does_not_change_the_outputs(self, capsys, tmp_path, flags):
        cfg = _assemble_config(build_parser().parse_args(["simulate", *flags.split()]))
        block = max(1, simulation._BLOCK_FLOATS // (cfg.n * (cfg.p + 1)))
        assert cfg.reps > block  # so that two workers run blocks of their own
        one, two = (
            simulate_outputs(capsys, tmp_path / w, *flags.split(), "--workers", w)
            for w in ("1", "2")
        )
        assert one == two

    def test_summary_json_is_not_a_config(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(
            capsys,
            "simulate", "--reps", "3", "--seed", "9", "--workers", "1",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        # a config is a manifest: a summary.json, a bare object, a list and a number
        # have no "config", and flat "key = value" text is not JSON
        paths = [out_dir / "summary.json"]
        for name, text in ("bare", '{"reps": 3}'), ("list", "[1, 2]"), ("number", "3"):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(text + "\n")
        for path in paths:
            code, _, err = run_cli(
                capsys, "simulate", "--config", str(path), "--out-dir", str(tmp_path / "again"),
            )
            assert code == 2
            assert err == f"error: {path}: no \"config\" object; pass a run's manifest.json\n"
        flat = tmp_path / "flat.cfg"
        flat.write_text("reps = 3\n")
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(flat), "--out-dir", str(tmp_path / "again"),
        )
        assert_one_error_line(code, err)
        assert err.startswith(f"error: {flat}: not a manifest.json: ")
        assert not (tmp_path / "again").exists()

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg_file = tmp_path / "exp.json"
        config = {"reps": 10, "seed": 4, "criterion": "bic", "workers": 1}
        cfg_file.write_text(json.dumps({"config": config}))
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
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"config": {"nope": 1}}))
        assert run_cli(capsys, "simulate", "--config", str(bad))[0] == 2

    def test_out_of_range_replication_data_exits_2(self, capsys, tmp_path):
        # a valid sigma whose responses exceed Dataset's magnitude bound
        code, _, err = run_cli(
            capsys, "simulate", "--sigma", "1e200", "--reps", "2", "--workers", "1",
            "--out-dir", str(tmp_path),
        )
        assert_one_error_line(code, err)
        assert err.startswith("error: replication 0: centered y and X must not exceed")

    def test_overflowing_replication_data_exits_2_without_warnings(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--sigma", "1.7e308", "--reps", "2", "--workers", "1",
            "--out-dir", str(tmp_path),
        )
        assert code == 2
        assert err == "error: replication 0: y and X must be finite\n"

    def test_weak_signal_run_records_the_empty_model(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "simulate", "--n", "20", "--p", "3", "--beta-star", "0.4,0,0",
            "--reps", "35", "--seed", "0", "--workers", "1", "--out-dir", str(tmp_path),
        )
        assert code == 0
        with open(tmp_path / "records.csv", newline="") as fh:
            empty = [row for row in csv.DictReader(fh) if row["size_hat"] == "0"]
        assert empty
        for row in empty:
            assert float(row["ci_width_selected"]) == 0.0 and row["covered_selected"] == "0"

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
        assert "s_star" not in manifest["config"]
        args = build_parser().parse_args(["simulate", "--config", str(out_dir / "manifest.json")])
        assert _assemble_config(args).s_star == Subset((1, 2))

    # one replication asks for 78 PiB: the run fails after the out-dir exists
    HUGE_RUN = ("simulate", "--n", str(10**15), "--reps", "1", "--out-dir")

    def test_failed_run_removes_the_directories_it_created(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, *self.HUGE_RUN, str(tmp_path / "new" / "nested"))
        assert code == 3 and err.startswith("error: out of memory")
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_keeps_a_directory_that_existed(self, capsys, tmp_path):
        out_dir = tmp_path / "existing"
        out_dir.mkdir()
        code, _, err = run_cli(capsys, *self.HUGE_RUN, str(out_dir / "new"))
        assert code == 3 and err.startswith("error: out of memory")
        assert list(tmp_path.iterdir()) == [out_dir] and list(out_dir.iterdir()) == []

    def test_manifest_with_s_star_exits_2(self, capsys, tmp_path):
        """S* is derived from beta_star, so a manifest that still echoes s_star
        is refused, not read."""
        first = tmp_path / "first"
        code, _, _ = run_cli(
            capsys, "simulate", "--reps", "3", "--seed", "9", "--workers", "1",
            "--out-dir", str(first),
        )
        assert code == 0
        manifest = json.loads((first / "manifest.json").read_text())
        manifest["config"]["s_star"] = [1, 2, 3]
        old = tmp_path / "old.json"
        old.write_text(json.dumps(manifest, indent=2) + "\n")
        again = tmp_path / "again"
        code, _, err = run_cli(capsys, "simulate", "--config", str(old), "--out-dir", str(again))
        assert_one_error_line(code, err)
        assert err == "error: unknown configuration field 's_star'\n"
        assert not again.exists()


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


# Each invalid configuration, once as simulate flags and once as the values
# of a manifest's "config" object.
INVALID_CONFIGS = {
    "negative c_n": (["--criterion", "custom", "--cn", "-1"], {"criterion": "custom", "c_n": -1}),
    "unknown criterion": (["--criterion", "aicc"], {"criterion": "aicc"}),
    "c_n with aic": (["--criterion", "aic", "--cn", "2"], {"criterion": "aic", "c_n": 2}),
    "n not a number": (["--n", "x"], {"n": "x"}),
    "zero workers": (["--workers", "0"], {"workers": 0}),
    "workers not a number": (["--workers", "abc"], {"workers": "abc"}),
    "infinite c_n": (["--cn", "inf"], {"c_n": "inf"}),
    "non-finite sigma": (["--sigma", "nan"], {"sigma": "nan"}),
    "zero sigma": (["--sigma", "0"], {"sigma": 0}),
    "alpha below the rounding of 1 - alpha/2": (["--alpha", "1e-17"], {"alpha": 1e-17}),
    "p beyond the enumeration limit": (
        ["--p", "21", "--beta-star", "1" + ",0" * 20],
        {"p": 21, "beta_star": [1] + [0] * 20},
    ),
    "seed above 64 bits": (["--seed", str(2**64)], {"seed": 2**64}),
    "reps beyond the 2**32 substreams": (["--reps", str(2**32 + 1)], {"reps": 2**32 + 1}),
    "s_star leaves the oracle no df": (
        ["--n", "11", "--beta-star", ",".join(["1"] * 10)],
        {"n": 11, "beta_star": [1] * 10},
    ),
}

# Manifest JSON values that a plain int() would truncate, each with the
# flags that must fail the same way.
TRUNCATED_JSON_VALUES = {
    "fractional reps": ({"reps": 2.9}, ["--reps", "2.9"]),
    "boolean reps": ({"reps": True}, ["--reps", "true"]),
    "boolean workers": ({"workers": True}, ["--workers", "true"]),
}


def assert_one_error_line(code, err):
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


class TestOneConversionPath:
    @pytest.mark.parametrize(
        "flags,config", INVALID_CONFIGS.values(), ids=INVALID_CONFIGS.keys()
    )
    def test_invalid_value_exits_2_as_flag_and_file_line(
        self, capsys, tmp_path, flags, config
    ):
        flag_dir, file_dir = tmp_path / "flag", tmp_path / "file"
        code, _, flag_err = run_cli(capsys, "simulate", *flags, "--out-dir", str(flag_dir))
        assert_one_error_line(code, flag_err)
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({"config": config}))
        code, _, file_err = run_cli(
            capsys, "simulate", "--config", str(cfg_file), "--out-dir", str(file_dir)
        )
        assert_one_error_line(code, file_err)
        assert file_err == flag_err
        assert not flag_dir.exists() and not file_dir.exists()

    @pytest.mark.parametrize(
        "config,flags", TRUNCATED_JSON_VALUES.values(), ids=TRUNCATED_JSON_VALUES.keys()
    )
    def test_json_number_is_not_truncated(self, capsys, tmp_path, config, flags):
        json_file = tmp_path / "bad.json"
        json_file.write_text(json.dumps({"config": config}))
        errors = []
        for name, args in ("json", ["--config", str(json_file)]), ("flag", flags):
            out_dir = tmp_path / name
            code, _, err = run_cli(capsys, "simulate", *args, "--out-dir", str(out_dir))
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
        cfg_file = tmp_path / "upper.json"
        cfg_file.write_text(json.dumps({"config": {"criterion": "AIC"}}))
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


# One row per way a command can end: argv, with ``{tmp}`` standing for a
# directory that ``cli_inputs`` fills, the exit code and the start of stderr.
EXIT_CODES = {
    "analytic mode without a size": (
        "theorem-check --n 30 --size-star 2", 2, "error: analytic mode needs --size-hat"
    ),
    "data mode without --s-hat": (
        "theorem-check --data {tmp}/thm.csv --s-star 1,2", 2, "error: data mode needs --s-star"
    ),
    "data mode with a non-integer index": (
        "theorem-check --data {tmp}/thm.csv --s-star 1,x --s-hat 1,2,3",
        2,
        "error: --s-star: expected comma-separated integers, got '1,x'",
    ),
    "beta_star with a non-number": (
        "simulate --beta-star 1,x --out-dir {tmp}/beta",
        2,
        "error: beta_star: expected comma-separated numbers, got '1,x'",
    ),
    "config file that cannot be read": (
        "simulate --config {tmp}/missing.json --out-dir {tmp}/missing",
        2,
        "error: cannot read config file: [Errno 2] No such file or directory",
    ),
    "duplicated column": (
        "theorem-check --data {tmp}/dup.csv --s-star 1,2 --s-hat 1,2,3",
        3,
        "error: columns of subset {1,2,3} are numerically collinear",
    ),
    "SSE(S*) an exact fit": (
        "theorem-check --data {tmp}/exact.csv --s-star 1 --s-hat 1,2",
        3,
        "error: SSE({1}) is zero up to rounding; theorem quantities undefined",
    ),
    "SSE floor": (
        "simulate --n 3 --p 1 --beta-star 1 --sigma 8e-15 --seed 187 --reps 70 --workers 1"
        " --out-dir {tmp}/floor",
        3,
        "error: replication 7: 1 subsets hit the SSE floor",
    ),
    "out-dir under a file": (
        "simulate --reps 2 --workers 1 --out-dir {tmp}/file/out",
        2,
        "error: cannot create output directory",
    ),
    "records.csv is a directory": (
        "simulate --reps 2 --workers 1 --out-dir {tmp}/taken", 3, "error: cannot write outputs"
    ),
    "top above 2^p": (f"select {{tmp}}/thm.csv --top {10**20}", 0, ""),
    "c_n whose penalty overflows": (
        "select {tmp}/thm.csv --criterion custom --cn 1e308", 2, "error: custom criterion needs"
    ),
    # one replication asks for 78 PiB, beyond any address space: it fails at once
    "n too large to allocate": (
        f"simulate --n {10**15} --reps 1 --out-dir {{tmp}}/huge", 3, "error: out of memory"
    ),
    "df beyond a float": (
        f"quantile --df {10**400} --prob 0.9", 2, "error: degrees of freedom too large"
    ),
    "n beyond a float": (
        f"theorem-check --n {10**400} --size-star 1 --size-hat 2", 2, "error: n too large"
    ),
    # the continued fraction did not converge here; the expansion from df = 10^7 on does not need it
    "df near the float limit": (f"quantile --df {10**300} --prob 0.9", 0, ""),
    # the Cauchy value is -3.18e159; t^2 overflows from 1.34e154 on
    "quantile where t^2 overflows": (
        "quantile --df 1 --prob 1e-160", 2, "error: the t-quantile of tail 1e-160 at df = 1"
    ),
}


@pytest.fixture
def cli_inputs(tmp_path):
    """A 30 x 4 CSV with signal on columns 1 and 2, the same CSV with column
    3 a copy of column 1, a 30 x 3 CSV whose y is 2 x1 + 7 exactly, a
    regular file, and an out-dir whose records.csv is a directory."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((30, 4))
    y = 5.0 + x[:, 0] + 2.0 * x[:, 1] + rng.standard_normal(30)
    header = "x1,x2,x3,x4,y"
    np.savetxt(tmp_path / "thm.csv", np.column_stack([x, y]), delimiter=",", header=header, comments="")
    x[:, 2] = x[:, 0]
    np.savetxt(tmp_path / "dup.csv", np.column_stack([x, y]), delimiter=",", header=header, comments="")
    x = np.random.default_rng(5).standard_normal((30, 3)) + 100.0
    table = np.column_stack([x, 2.0 * x[:, 0] + 7.0])
    np.savetxt(tmp_path / "exact.csv", table, delimiter=",", header="x1,x2,x3,y", comments="")
    (tmp_path / "file").write_text("")
    (tmp_path / "taken" / "records.csv").mkdir(parents=True)
    return tmp_path


@pytest.mark.parametrize("argv,code,prefix", EXIT_CODES.values(), ids=EXIT_CODES.keys())
def test_exit_code_table(capsys, cli_inputs, argv, code, prefix):
    result, out, err = run_cli(capsys, *argv.format(tmp=cli_inputs).split())
    assert result == code
    if code == 0:
        assert out and not err
    else:
        assert not out
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), err

