"""Command-line interface: simulate, select, theorem-check, quantile.

Exit codes: 0 on success, 2 on usage or configuration errors (a
``ValueError``), 3 when the method fails on the data (a ``PostselectError``).
All file output is written atomically next to a manifest that echoes the full
configuration; re-running with ``--config manifest.json`` reproduces
summary.json, records.csv and ratio_hist.csv byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import tempfile
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .distributions import RNG_ALGORITHM, student_t_quantile
from .errors import PostselectError
from .linalg import Dataset, Subset, centered_dataset, ols_fit
from .selection import Criterion, overfit_condition, select, theorem_report
from .simulation import ExperimentConfig, ReplicationRecord, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# One records.csv column per ReplicationRecord field, in field order; s_hat
# is written as its size.
_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(ReplicationRecord))
RECORDS_COLUMNS = tuple("size_hat" if f == "s_hat" else f for f in _RECORD_FIELDS)

RATIO_HIST_COLUMNS = ("bin_lo", "bin_hi", "count")
_HIST_LO, _HIST_HI, _HIST_BINS = 1.0, 1.3, 30


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _fmt(value: float) -> str:
    return f"{value:.6g}"


# ---------------------------------------------------------------------------
# configuration assembly
# ---------------------------------------------------------------------------

# Configuration keys are the ExperimentConfig fields plus c_n, which a file or
# the --cn flag gives next to the criterion.  Flag text and config-file values
# both pass through _coerce_config_value, which only converts text: a JSON
# value is first written back as its JSON text, so 2.9 or true for an integer
# field fails exactly as the line "reps = 2.9" does.  beta_star and s_star
# are lists, criterion is a name, workers is an int when it reads as one, and
# every other field is a number of its default's type.  Whether a value is
# valid is decided by Criterion and ExperimentConfig alone.
_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
_CONFIG_KEYS = (*_FIELDS, "c_n")


def _parse_list(value: str, field: str, number: type) -> tuple:
    """Comma-separated text, converted element by element."""
    parts = [part for part in value.split(",") if part.strip()]
    try:
        return tuple(number(part) for part in parts)
    except ValueError:
        kind = "integers" if number is int else "numbers"
        raise ValueError(f"{field}: expected comma-separated {kind}, got {value!r}")


def _json_text(value) -> str:
    """A JSON value as the text of a ``key = value`` line."""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ",".join(map(_json_text, value))
    return json.dumps(value)


def _coerce_config_value(key: str, value):
    if key not in _CONFIG_KEYS:
        raise ValueError(f"unknown configuration field {key!r}")
    value = _json_text(value)
    if key in ("beta_star", "s_star"):
        return _parse_list(value, key, float if key == "beta_star" else int)
    if key == "criterion":
        return value
    if key == "workers":
        try:
            return int(value)
        except ValueError:
            return value
    number = float if key == "c_n" else type(_FIELDS[key].default)
    try:
        return number(value)
    except ValueError:
        kind = "an integer" if number is int else "a number"
        raise ValueError(f"{key}: expected {kind}, got {value!r}")


def _load_config_file(path: str) -> dict:
    """Read a manifest JSON or a flat key = value file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}")
    stripped = text.lstrip()
    values: dict = {}
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}")
        if "config" not in obj and "coverage_selected" in obj:
            raise ValueError(
                f"{path} is a summary.json, which holds results and no "
                "configuration; pass the run's manifest.json instead"
            )
        obj = obj.get("config", obj)
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: JSON config must be an object")
        raw_items = obj.items()
    else:
        raw_items = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            raw_items.append((key.strip(), value.strip()))
    for key, value in raw_items:
        if value is None:
            continue
        values[key] = _coerce_config_value(key, value)
    return values


def _build_criterion(kind: Optional[str], c_n: Optional[float]) -> Criterion:
    """The criterion named by ``kind`` (any case); custom if only c_n is given."""
    kind = kind.lower() if kind else ("custom" if c_n is not None else "aic")
    return Criterion(kind, c_n)


def _assemble_config(args: argparse.Namespace) -> ExperimentConfig:
    merged: dict = {}
    if args.config:
        merged.update(_load_config_file(args.config))
    for key in _CONFIG_KEYS:
        value = getattr(args, "cn" if key == "c_n" else key)
        if value is not None:
            merged[key] = _coerce_config_value(key, value)

    kwargs = {
        key: value
        for key, value in merged.items()
        if key not in ("s_star", "criterion", "c_n")
    }
    kwargs["criterion"] = _build_criterion(merged.get("criterion"), merged.get("c_n"))
    if "s_star" in merged:
        kwargs["s_star"] = Subset.of(merged["s_star"])
    return ExperimentConfig(**kwargs)


def config_as_dict(cfg: ExperimentConfig) -> dict:
    """JSON-serializable echo of every configuration field, in field order."""
    out: dict = {}
    for key in _FIELDS:
        value = getattr(cfg, key)
        if key == "beta_star":
            out[key] = list(value)
        elif key == "s_star":
            out[key] = list(value.indices)
        elif key == "criterion":
            out["criterion"] = value.kind
            out["c_n"] = value.custom_value
        else:
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def records_csv_text(records: Sequence[ReplicationRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORDS_COLUMNS)
    for r in records:
        writer.writerow([_cell(getattr(r, name)) for name in _RECORD_FIELDS])
    return buf.getvalue()


def _cell(value):
    """A float as its repr, a subset as its size, a bool as 0 or 1."""
    if isinstance(value, Subset):
        return value.size
    return repr(value) if isinstance(value, float) else int(value)


def ratio_hist_csv_text(records: Sequence[ReplicationRecord]) -> str:
    """Histogram of the oracle/selected sigma ratio, strict-overfit cases only.

    Fixed 0.01-wide bins over [1.00, 1.30]; ratios outside the grid are
    counted in the nearest boundary bin.
    """
    ratios = np.array([r.ratio for r in records if r.strict_overfit])
    edges = np.linspace(_HIST_LO, _HIST_HI, _HIST_BINS + 1)
    if ratios.size:
        clipped = np.clip(ratios, _HIST_LO, np.nextafter(_HIST_HI, _HIST_LO))
        counts, _ = np.histogram(clipped, bins=edges)
    else:
        counts = np.zeros(_HIST_BINS, dtype=int)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RATIO_HIST_COLUMNS)
    for lo, hi, count in zip(edges[:-1], edges[1:], counts):
        writer.writerow((f"{lo:.2f}", f"{hi:.2f}", int(count)))
    return buf.getvalue()


def _summary_json_obj(summary) -> dict:
    """The summary's fields in order, each standard error as ``<rate>_se``,
    without the run time, which would make the file irreproducible."""
    obj: dict = {}
    for key, value in dataclasses.asdict(summary).items():
        if key == "standard_errors":
            obj.update((f"{name}_se", se) for name, se in value.items())
        elif key != "runtime_seconds":
            obj[key] = value
    return obj


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        cfg = _assemble_config(args)
    except ValueError as exc:
        return _fail(str(exc), EXIT_CONFIG)

    out_dir = args.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        return _fail(f"cannot create output directory: {exc}", EXIT_CONFIG)

    try:
        summary, records = run_experiment(cfg)
    except PostselectError as exc:
        return _fail(str(exc), EXIT_RUNTIME)

    paths = {
        name: os.path.join(out_dir, f"{name}.{ext}")
        for name, ext in (
            ("summary", "json"),
            ("records", "csv"),
            ("ratio_hist", "csv"),
            ("manifest", "json"),
        )
    }
    # everything needed to reproduce this run
    manifest = {
        "config": config_as_dict(cfg),
        "tool_version": __version__,
        "rng_algorithm": RNG_ALGORITHM,
        "seed": cfg.seed,
        "outputs": {k: v for k, v in paths.items() if k != "manifest"},
    }
    try:
        _atomic_write(paths["records"], records_csv_text(records))
        _atomic_write(paths["ratio_hist"], ratio_hist_csv_text(records))
        _atomic_write(
            paths["summary"], json.dumps(_summary_json_obj(summary), indent=2) + "\n"
        )
        _atomic_write(
            paths["manifest"], json.dumps(manifest, indent=2) + "\n"
        )
    except OSError as exc:
        return _fail(f"cannot write outputs: {exc}", EXIT_RUNTIME)

    ratio_text = (
        _fmt(summary.mean_ratio_overfit)
        if summary.mean_ratio_overfit is not None
        else "n/a (no strict overfit)"
    )
    print(f"replications:      {summary.reps}")
    print(f"coverage_selected: {_fmt(summary.coverage_selected)}")
    print(f"coverage_oracle:   {_fmt(summary.coverage_oracle)}")
    print(f"mean_ratio_overfit: {ratio_text}")
    print(f"containment_rate:  {_fmt(summary.containment_rate)}")
    print(f"runtime: {summary.runtime_seconds:.2f} s")
    print(f"outputs written to {out_dir}")
    return EXIT_OK


def _read_dataset_csv(path: str) -> tuple[Dataset, list[str]]:
    """Parse a CSV with a header, a `y` column, and numeric predictors."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty file")
            rows = list(reader)
    except OSError as exc:
        raise ValueError(f"cannot read dataset: {exc}")
    header = [h.strip() for h in header]
    if "y" not in header:
        raise ValueError(f"{path}: no column named 'y' in header {header}")
    y_col = header.index("y")
    predictor_names = [h for i, h in enumerate(header) if i != y_col]
    if not predictor_names:
        raise ValueError(f"{path}: no predictor columns besides 'y'")
    y_vals, x_rows = [], []
    for lineno, row in enumerate(rows, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise ValueError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric value in {row!r}")
        y_vals.append(values[y_col])
        x_rows.append([v for i, v in enumerate(values) if i != y_col])
    if not y_vals:
        raise ValueError(f"{path}: no data rows")
    try:
        data, _, _ = centered_dataset(np.array(y_vals), np.array(x_rows))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")
    return data, predictor_names


def cmd_select(args: argparse.Namespace) -> int:
    try:
        crit = _build_criterion(args.criterion, args.cn)
        data, names = _read_dataset_csv(args.dataset)
        result = select(data, crit, size_cap=args.size_cap)
        chosen_fit = ols_fit(data, result.chosen)
    except ValueError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    except PostselectError as exc:
        return _fail(str(exc), EXIT_RUNTIME)

    top = result.ranked(max(args.top, 1))
    warnings = []
    if result.truncated_sse_count:
        warnings.append(
            f"{result.truncated_sse_count} subsets had SSE at the floor "
            f"(exact fits); their scores are saturated"
        )
    if result.skipped:
        reasons = {}
        for s, reason in result.skipped:
            reasons.setdefault(reason, []).append(str(s))
        for reason, subs in reasons.items():
            shown = ", ".join(subs[:5]) + (", ..." if len(subs) > 5 else "")
            warnings.append(f"{len(subs)} subsets skipped ({reason}): {shown}")

    if args.json:
        obj = {
            "chosen": list(result.chosen.indices),
            "chosen_columns": [names[i - 1] for i in result.chosen.indices],
            "sigma_hat": chosen_fit.sigma_hat,
            "sse": chosen_fit.sse,
            "criterion": crit.label(),
            "gamma_table": [
                {"subset": list(s.indices), "gamma": g} for s, g in top
            ],
            "ties": [list(s.indices) for s in result.ties],
            "warnings": warnings,
        }
        print(json.dumps(obj, indent=2))
        return EXIT_OK

    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    chosen_names = ", ".join(names[i - 1] for i in result.chosen.indices) or "(none)"
    print(f"criterion: {crit.label()}")
    print(f"chosen subset: {result.chosen} [{chosen_names}]")
    print(f"sigma_hat: {_fmt(chosen_fit.sigma_hat)}  (sse={_fmt(chosen_fit.sse)}, df={chosen_fit.df})")
    if len(result.ties) > 1:
        print(f"note: {len(result.ties)} subsets tie at the minimum score")
    print(f"top {len(top)} subsets by score:")
    for rank, (s, g) in enumerate(top, start=1):
        print(f"  {rank:3d}. gamma={g:<14.6g} size={s.size:<3d} {s}")
    return EXIT_OK


def cmd_theorem_check(args: argparse.Namespace) -> int:
    if args.data is None:
        missing = [
            flag
            for flag, val in (
                ("--n", args.n),
                ("--size-star", args.size_star),
                ("--size-hat", args.size_hat),
            )
            if val is None
        ]
        if missing:
            return _fail(
                "analytic mode needs " + ", ".join(missing) + " (or use --data)",
                EXIT_CONFIG,
            )
        try:
            crit = _build_criterion(args.criterion, args.cn)
            c_n = crit.c_n(args.n)
            diag = overfit_condition(args.n, args.size_star, args.size_hat, c_n)
        except ValueError as exc:
            return _fail(str(exc), EXIT_CONFIG)
        print(f"criterion: {crit.label()} (c_n = {_fmt(c_n)})")
        print(f"a_n = {_fmt(diag.a_n)}")
        print(f"D_n = {_fmt(diag.d_n)}")
        print(f"1 - exp(-a_n * D_n) = {_fmt(diag.threshold)}")
        verdict = "HOLDS" if diag.holds else "FAILS"
        print(
            f"condition: {verdict} "
            f"({_fmt(diag.threshold)} {'>' if diag.holds else '<='} {_fmt(diag.d_n)})"
        )
        if diag.holds:
            print("overfitting at these sizes forces variance under-estimation")
        return EXIT_OK

    if args.s_star is None or args.s_hat is None:
        return _fail("data mode needs --s-star and --s-hat", EXIT_CONFIG)
    try:
        s_star = Subset.of(_parse_list(args.s_star, "--s-star", int))
        s_hat = Subset.of(_parse_list(args.s_hat, "--s-hat", int))
        if not s_star.is_strict_subset(s_hat):
            raise ValueError(
                f"--s-hat {s_hat} must strictly contain --s-star {s_star}"
            )
        crit = _build_criterion(args.criterion, args.cn)
        data, _ = _read_dataset_csv(args.data)
        report = theorem_report(data, s_star, s_hat, crit)
    except ValueError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    except PostselectError as exc:
        return _fail(str(exc), EXIT_RUNTIME)

    print(f"s_star = {report.s_star}, s_hat = {report.s_hat}")
    print(f"criterion: {crit.label()} (c_n = {_fmt(crit.c_n(data.n))})")
    print(f"a_n = {_fmt(report.a_n)}")
    print(f"D_n = {_fmt(report.d_n)}")
    print(f"r_n = {_fmt(report.r_n)}")
    print(f"F_n = {_fmt(report.f_n)}")
    verdict = "HOLDS" if report.condition_holds else "FAILS"
    print(f"condition: {verdict}")
    print(f"sigma_hat(s_star) = {_fmt(report.sigma_hat_star)}")
    print(f"sigma_hat(s_hat)  = {_fmt(report.sigma_hat_selected)}")
    print(
        "variance under-estimated: "
        + ("yes" if report.underestimates else "no")
    )
    return EXIT_OK


def cmd_quantile(args: argparse.Namespace) -> int:
    try:
        q = student_t_quantile(args.df, args.prob)
    except ValueError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    # ten significant digits, keeping trailing zeros
    print("0" if q == 0.0 else f"{q:#.10g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


_CRITERION_HELP = "aic, bic or custom (any case); custom when only --cn is given"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postselect",
        description=(
            "Best-subset selection by penalized log-SSE criteria, "
            "overfitting diagnostics, and Monte Carlo coverage studies."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate", help="run the Monte Carlo coverage experiment"
    )
    sim.add_argument("--config", help="key=value file or a previous manifest.json")
    # config flags carry no type: their text is converted with config-file text
    sim.add_argument("--n", help="observations per replication")
    sim.add_argument("--p", help="number of predictors")
    sim.add_argument("--sigma", help="noise standard deviation")
    sim.add_argument("--rho", help="AR(1) one-step correlation")
    sim.add_argument("--reps", help="number of replications")
    sim.add_argument("--alpha", help="interval significance level")
    sim.add_argument("--seed", help="master seed (64-bit)")
    sim.add_argument("--workers", help="'auto' or a positive worker count")
    sim.add_argument("--criterion", help=_CRITERION_HELP)
    sim.add_argument("--cn", help="penalty value for --criterion custom")
    sim.add_argument("--beta-star", help="comma-separated true coefficients")
    sim.add_argument("--s-star", help="comma-separated true subset (1-based)")
    sim.add_argument("--out-dir", default=".", help="directory for output files")
    sim.set_defaults(func=cmd_simulate)

    sel = sub.add_parser("select", help="choose a subset for a CSV dataset")
    sel.add_argument("dataset", help="CSV with a header and a 'y' column")
    sel.add_argument("--criterion", help=_CRITERION_HELP)
    sel.add_argument("--cn", type=float, help="penalty value for --criterion custom")
    sel.add_argument("--top", type=int, default=10, help="rows in the score table")
    sel.add_argument("--size-cap", type=int, help="largest subset size to enumerate")
    sel.add_argument("--json", action="store_true", help="machine-readable output")
    sel.set_defaults(func=cmd_select)

    thm = sub.add_parser(
        "theorem-check",
        help="evaluate the overfitting/under-estimation condition",
    )
    thm.add_argument("--n", type=int, help="sample size (analytic mode)")
    thm.add_argument("--size-star", type=int, help="true subset size")
    thm.add_argument("--size-hat", type=int, help="selected subset size")
    thm.add_argument("--cn", type=float, help="penalty value c_n")
    thm.add_argument("--data", help="CSV dataset (data mode)")
    thm.add_argument("--s-star", help="true subset, comma-separated (data mode)")
    thm.add_argument("--s-hat", help="selected subset, comma-separated (data mode)")
    thm.add_argument("--criterion", help=_CRITERION_HELP)
    thm.set_defaults(func=cmd_theorem_check)

    qt = sub.add_parser("quantile", help="Student-t quantile")
    qt.add_argument("--df", type=int, required=True, help="degrees of freedom")
    qt.add_argument("--prob", type=float, required=True, help="probability in (0, 1)")
    qt.set_defaults(func=cmd_quantile)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
