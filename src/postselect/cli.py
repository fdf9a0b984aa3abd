"""Command-line interface: simulate, select, theorem-check, quantile.

Exit codes: 0 on success, 2 on usage or configuration errors (a
``ValueError``), 3 when the run fails on the data or cannot write its outputs
(a ``PostselectError``, or a closed stdout) or memory runs out; :func:`main` is
the one place that maps them to codes.
All file output is written atomically next to a manifest that echoes the full
configuration; re-running with ``--config manifest.json`` reproduces
summary.json, records.csv and ratio_hist.csv byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys
import tempfile
from array import array
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .distributions import RNG_ALGORITHM, student_t_quantile
from .errors import PostselectError
from .linalg import Dataset, Subset, centered_dataset, ols_fit
from .selection import Criterion, overfit_condition, select, subset_of_mask, theorem_report
from .simulation import ExperimentConfig, ReplicationRecord, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# One records.csv column per ReplicationRecord field, in field order: a float
# is written as its repr, an int or a bool as an integer, s_hat as its size.
_RECORD_TYPES = {f.name: f.type for f in dataclasses.fields(ReplicationRecord)}
RECORDS_COLUMNS = tuple("size_hat" if f == "s_hat" else f for f in _RECORD_TYPES)
_CELL_FORMATS = {"float": "%r", "int": "%d", "bool": "%d", "Subset": "%d"}
_RECORD_ROW = ",".join(_CELL_FORMATS[t] for t in _RECORD_TYPES.values()) + "\n"
_record_values = attrgetter(*("s_hat.size" if f == "s_hat" else f for f in _RECORD_TYPES))

RATIO_HIST_COLUMNS = ("bin_lo", "bin_hi", "count")
_HIST_LO, _HIST_HI, _HIST_BINS = 1.0, 1.3, 30


def _fmt(value: float) -> str:
    return f"{value:.6g}"


# ---------------------------------------------------------------------------
# configuration assembly
# ---------------------------------------------------------------------------

# Configuration keys are the ExperimentConfig fields plus c_n, which a manifest
# or the --cn flag gives next to the criterion.  Flag text and manifest values
# both pass through _coerce_config_value, which only converts text: a JSON
# value is first written back as its JSON text, so 2.9 or true for an integer
# field fails exactly as "--reps 2.9" does.  beta_star is a list,
# criterion is a name, workers is an int when it reads as one, and every
# other field is a number of its default's type.  Whether a value is
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
    """A JSON value as the text of its flag."""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ",".join(map(_json_text, value))
    return json.dumps(value)


def _coerce_config_value(key: str, value):
    if key not in _CONFIG_KEYS:
        raise ValueError(f"unknown configuration field {key!r}")
    value = _json_text(value)
    if key == "beta_star":
        return _parse_list(value, key, float)
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
    """The values of a run's manifest.json, its ``config`` object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}")
    except ValueError as exc:  # also text that is not UTF-8
        raise ValueError(f"{path}: not a manifest.json: {exc}")
    config = obj.get("config") if isinstance(obj, dict) else None
    if not isinstance(config, dict):
        raise ValueError(f"{path}: no \"config\" object; pass a run's manifest.json")
    return {key: _coerce_config_value(key, v) for key, v in config.items() if v is not None}


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

    kwargs = {key: value for key, value in merged.items() if key not in ("criterion", "c_n")}
    kwargs["criterion"] = _build_criterion(merged.get("criterion"), merged.get("c_n"))
    return ExperimentConfig(**kwargs)


def config_as_dict(cfg: ExperimentConfig) -> dict:
    """JSON-serializable echo of every configuration field, in field order."""
    out: dict = {}
    for key in _FIELDS:
        value = getattr(cfg, key)
        if key == "beta_star":
            out[key] = list(value)
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
    """The header and one row per record.  No cell needs quoting, so one
    format string per row writes what ``csv.writer`` would."""
    header = ",".join(RECORDS_COLUMNS) + "\n"
    return "".join([header, *(_RECORD_ROW % _record_values(r) for r in records)])


def ratio_hist_csv_text(records: Sequence[ReplicationRecord]) -> str:
    """Histogram of the oracle/selected sigma ratio, strict-overfit cases only.

    Fixed 0.01-wide bins over [1.00, 1.30]; ratios outside the grid are
    counted in the nearest boundary bin.
    """
    ratios = np.array([r.ratio for r in records if r.strict_overfit])
    edges = np.linspace(_HIST_LO, _HIST_HI, _HIST_BINS + 1)
    clipped = np.clip(ratios, _HIST_LO, np.nextafter(_HIST_HI, _HIST_LO))
    counts, _ = np.histogram(clipped, bins=edges)
    header = ",".join(RATIO_HIST_COLUMNS) + "\n"
    rows = zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist())
    return "".join([header, *("%.2f,%.2f,%d\n" % row for row in rows)])


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
    cfg = _assemble_config(args)
    out_dir = head = args.out_dir
    new_dirs = []  # the directories makedirs creates, deepest first
    while head and not os.path.exists(head):
        new_dirs.append(head)
        head = os.path.dirname(head)
    try:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot create output directory: {exc}")
        summary, records = run_experiment(cfg)
        names = ("summary.json", "records.csv", "ratio_hist.csv", "manifest.json")
        paths = {name.split(".")[0]: os.path.join(out_dir, name) for name in names}
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
            _atomic_write(paths["summary"], json.dumps(_summary_json_obj(summary), indent=2) + "\n")
            _atomic_write(paths["manifest"], json.dumps(manifest, indent=2) + "\n")
        except OSError as exc:
            raise PostselectError(f"cannot write outputs: {exc}")
    except BaseException:
        for path in new_dirs:  # rmdir leaves a directory that is not empty
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise

    ratio = summary.mean_ratio_overfit
    ratio_text = "n/a (no strict overfit)" if ratio is None else _fmt(ratio)
    print(f"replications:      {summary.reps}")
    print(f"coverage_selected: {_fmt(summary.coverage_selected)}")
    print(f"coverage_oracle:   {_fmt(summary.coverage_oracle)}")
    print(f"mean_ratio_overfit: {ratio_text}")
    print(f"containment_rate:  {_fmt(summary.containment_rate)}")
    print(f"runtime: {summary.runtime_seconds:.2f} s")
    print(f"outputs written to {out_dir}")
    return EXIT_OK


def _read_dataset_csv(path: str) -> tuple[Dataset, list[str]]:
    """Parse a CSV with a header, a `y` column, and numeric predictors.

    The cells stream into one float array, row by row, so a large file is
    never held as strings.  A UTF-8 byte-order mark, as Excel writes one, is
    dropped.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise ValueError(f"{path}: empty file")
            if "y" not in header:
                raise ValueError(f"{path}: no column named 'y' in header {header}")
            if header.count("y") > 1:
                raise ValueError(f"{path}: column 'y' repeated in header {header}")
            y_col = header.index("y")
            predictor_names = [h for i, h in enumerate(header) if i != y_col]
            if not predictor_names:
                raise ValueError(f"{path}: no predictor columns besides 'y'")
            cells = array("d")
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != len(header):
                    raise ValueError(
                        f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                    )
                try:
                    cells.extend([float(cell) for cell in row])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: non-numeric value in {row!r}")
    except OSError as exc:
        raise ValueError(f"cannot read dataset: {exc}")
    if not cells:
        raise ValueError(f"{path}: no data rows")
    table = np.frombuffer(cells).reshape(-1, len(header))
    y, X = np.ascontiguousarray(table[:, y_col]), np.delete(table, y_col, axis=1)
    del table, cells  # y and X are copies: free the text's floats before centering
    try:
        data, _, _ = centered_dataset(y, X)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")
    return data, predictor_names


def cmd_select(args: argparse.Namespace) -> int:
    crit = _build_criterion(args.criterion, args.cn)
    data, names = _read_dataset_csv(args.dataset)
    result = select(data, crit, top=args.top)
    chosen_fit = ols_fit(data, result.chosen)
    top = result.ranked(args.top)
    warnings = []
    if result.truncated_sse_count:
        warnings.append(
            f"{result.truncated_sse_count} subsets met in the search had SSE at "
            f"the floor (exact fits); their scores are saturated"
        )
    for reason, masks in result.skipped_masks().items():
        if masks:
            more = ", ..." if len(masks) > 5 else ""
            shown = ", ".join(str(subset_of_mask(m)) for m in masks[:5]) + more
            warnings.append(f"{len(masks)} subsets met in the search skipped ({reason}): {shown}")

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
    # each mode works out (n, |S*|, |S_hat|); one block then prints the condition
    report = None
    if args.data is None:
        sizes = {"--n": args.n, "--size-star": args.size_star, "--size-hat": args.size_hat}
        missing = [flag for flag, val in sizes.items() if val is None]
        if missing:
            raise ValueError("analytic mode needs " + ", ".join(missing) + " (or use --data)")
        crit = _build_criterion(args.criterion, args.cn)
        n, size_star, size_hat = sizes.values()
    else:
        if args.s_star is None or args.s_hat is None:
            raise ValueError("data mode needs --s-star and --s-hat")
        s_star = Subset.of(_parse_list(args.s_star, "--s-star", int))
        s_hat = Subset.of(_parse_list(args.s_hat, "--s-hat", int))
        crit = _build_criterion(args.criterion, args.cn)
        data, _ = _read_dataset_csv(args.data)
        report = theorem_report(data, s_star, s_hat, crit)
        n, size_star, size_hat = data.n, s_star.size, s_hat.size
        print(f"s_star = {report.s_star}, s_hat = {report.s_hat}")
    c_n = crit.c_n(n)
    diag = overfit_condition(n, size_star, size_hat, c_n)
    print(f"criterion: {crit.label()} (c_n = {_fmt(c_n)})")
    print(f"a_n = {_fmt(diag.a_n)}")
    print(f"D_n = {_fmt(diag.d_n)}")
    print(f"1 - exp(-a_n * D_n) = {_fmt(diag.threshold)}")
    verdict, sign = ("HOLDS", ">") if diag.holds else ("FAILS", "<=")
    print(f"condition: {verdict} ({_fmt(diag.threshold)} {sign} {_fmt(diag.d_n)})")
    if report is None:
        if diag.holds:
            print("overfitting at these sizes forces variance under-estimation")
        return EXIT_OK
    print(f"r_n = {_fmt(report.r_n)}")
    print(f"F_n = {_fmt(report.f_n)}")
    print(f"sigma_hat(s_star) = {_fmt(report.sigma_hat_star)}")
    print(f"sigma_hat(s_hat)  = {_fmt(report.sigma_hat_selected)}")
    print("variance under-estimated: " + ("yes" if report.underestimates else "no"))
    return EXIT_OK


def cmd_quantile(args: argparse.Namespace) -> int:
    q = student_t_quantile(args.df, args.prob)
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
    sim.add_argument("--config", help="a previous run's manifest.json; flags override it")
    # config flags carry no type: their text is converted as manifest values are
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
    sim.add_argument("--out-dir", default=".", help="directory for output files")
    sim.set_defaults(func=cmd_simulate)

    sel = sub.add_parser("select", help="choose a subset for a CSV dataset")
    sel.add_argument("dataset", help="CSV with a header and a 'y' column")
    sel.add_argument("--criterion", help=_CRITERION_HELP)
    sel.add_argument("--cn", type=float, help="penalty value for --criterion custom")
    sel.add_argument("--top", type=int, default=10, help="rows in the score table")
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
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's last flush
        return code
    except (ValueError, PostselectError, MemoryError, BrokenPipeError) as exc:
        if isinstance(exc, BrokenPipeError):  # that last flush then writes to devnull
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            exc = PostselectError(f"cannot write outputs: {exc}")
        prefix = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, ValueError) else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
