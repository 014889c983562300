"""Command-line front end.

Subcommands:
    validate   check a parameter file and the diagrams built from it
    segment    solve one (sex, period) segment and export its frontier
    pipeline   full multi-period run plus budget-swept strategy selection
    baseline   no-screening prevalence rollout

All outputs are deterministic: identical inputs produce identical bytes.
Every CSV starts with comment lines carrying the tool version and the
SHA-256 of the parameter file; the manifest carries them as JSON fields.

Exit codes: 0 success (also --help and --version), 1 validation failure,
usage error or unusable --out, 2 infeasible or over capacity (including the
box-search iteration limit, reachable only under --cross-check), 3 internal
check mismatch (each period's first history is checked in every run, the
rest under --cross-check). ``--out`` is created after the argument checks
and before the first solve, so an unusable one fails fast, and an exit 2 or
3 leaves it empty.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from importlib import resources
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .diagram import strategy_encoding, validate_diagram
from .errors import (
    CapacityError,
    InfeasibleBudgetError,
    IterationLimitError,
    OracleMismatchError,
    ParameterError,
)
from .phase1 import (
    HistoryTable,
    baseline_trajectory,
    natural_progression_rollout,
    run_phase1,
    segment_frontier,
)
from .phase2 import (
    budget_sweep,
    dense_pair_sweep,
    selection_problem_from_histories,
)
from .screening import (
    OBJECTIVE_NAMES,
    ParameterBundle,
    Segment,
    Sex,
    build_segment_diagram,
    history_columns,
    load_parameters,
    policy_cell,
)


def default_params_path() -> Path:
    return Path(resources.files("screenopt").joinpath(
        "data/synthetic_default.json"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="screenopt",
        description="Pareto-optimal multi-period screening strategies.",
    )
    parser.add_argument("--version", action="version",
                        version=f"screenopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_out=True):
        p.add_argument("--params", type=Path, default=None,
                       help="parameter JSON file (default: shipped synthetic set)")
        if with_out:
            p.add_argument("--out", type=Path, required=True,
                           help="output directory")

    p_val = sub.add_parser("validate", help="validate a parameter file")
    add_common(p_val, with_out=False)

    p_seg = sub.add_parser("segment", help="solve one segment frontier")
    add_common(p_seg)
    p_seg.add_argument("--sex", choices=["F", "M"], required=True)
    p_seg.add_argument("--period", type=int, required=True,
                       help="screening period (1 = age 60); the prevalence is "
                            "the no-screening rollout to that period")
    _add_model_flags(p_seg)

    p_pipe = sub.add_parser("pipeline", help="full two-phase optimization")
    add_common(p_pipe)
    p_pipe.add_argument("--budgets", required=True,
                        help="comma-separated colonoscopy budgets, e.g. "
                             "8000,12000,16000,20000")
    p_pipe.add_argument("--periods", type=int, default=None,
                        help="number of screening periods (default: all)")
    _add_model_flags(p_pipe)

    p_base = sub.add_parser("baseline", help="no-screening prevalence rollout")
    add_common(p_base)
    p_base.add_argument("--periods", type=int, default=None)

    return parser


def _add_model_flags(p) -> None:
    p.add_argument("--objective-mask", default=None,
                   help="comma-separated subset of objectives to optimize "
                        f"(default: all of {','.join(OBJECTIVE_NAMES)})")
    p.add_argument("--fix-exam", action="store_true",
                   help="pin the examination decision to colonoscopy on contact")
    p.add_argument("--no-incentive", action="store_true",
                   help="disable the incentive decision")
    p.add_argument("--cross-check", action="store_true",
                   help="verify every frontier against the brute-force "
                        "filter and the box search; pipeline also checks "
                        "every history's objectives against the dense "
                        "evaluation and the budget sweep against the dense "
                        "pair scan")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the usage, help or version
        return 1 if exc.code else 0
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "segment":
            return _cmd_segment(args)
        if args.command == "pipeline":
            return _cmd_pipeline(args)
        if args.command == "baseline":
            return _cmd_baseline(args)
        raise AssertionError(args.command)
    except ParameterError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except (InfeasibleBudgetError, CapacityError, IterationLimitError) as exc:
        print(f"infeasible or over capacity: {exc}", file=sys.stderr)
        return 2
    except OracleMismatchError as exc:
        print(f"internal cross-check failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _load(args) -> tuple[ParameterBundle, list[str], list[str], str]:
    path = args.params if args.params is not None else default_params_path()
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ParameterError(str(path), exc.strerror) from None
    digest = hashlib.sha256(raw).hexdigest()
    bundle, report = load_parameters(json.loads(raw.decode("utf-8")))
    bundle = _apply_flags(bundle, args)
    return bundle, report.defaults, report.warnings, digest


def _apply_flags(bundle: ParameterBundle, args) -> ParameterBundle:
    options = bundle.options
    if getattr(args, "fix_exam", False):
        options = dataclasses.replace(options, fix_exam_to_colonoscopy=True)
    if getattr(args, "no_incentive", False):
        options = dataclasses.replace(options, incentive_enabled=False)
    if options is not bundle.options:
        bundle = dataclasses.replace(bundle, options=options)
    return bundle


def _mask(args) -> list[str] | None:
    raw = getattr(args, "objective_mask", None)
    if raw is None:
        return None
    names = [part.strip() for part in raw.split(",") if part.strip()]
    for i, name in enumerate(names):
        if name not in OBJECTIVE_NAMES:
            raise ValueError(f"unknown objective {name!r}; choose from "
                             f"{', '.join(OBJECTIVE_NAMES)}")
        if name in names[:i]:
            raise ValueError(f"objective {name!r} is repeated in the mask")
    if not names:
        raise ValueError("objective mask selects nothing")
    return names


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, digest: str, columns, rows) -> None:
    """Rows are lists of values or lines already rendered."""
    lines = [f"# tool: screenopt {__version__}",
             f"# input-sha256: {digest}",
             ",".join(columns)]
    for row in rows:
        lines.append(row if isinstance(row, str)
                     else ",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def dumps_canonical(obj: Any) -> str:
    """Serialize with sorted keys and 17-significant-digit floats."""
    pieces: list[str] = []
    _emit(obj, pieces)
    pieces.append("\n")
    return "".join(pieces)


def _emit(obj: Any, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, float):
        out.append(format(obj, ".17g"))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif obj is None:
        out.append("null")
    else:
        out.append(json.dumps(str(obj)))


def _rollout_prevalence(bundle: ParameterBundle, sex: Sex, period: int):
    """Starting prevalence of ``period`` under no screening."""
    rollout = natural_progression_rollout(
        bundle.starting_prevalence(sex),
        bundle.transitions[sex.value], period - 1)
    return rollout[-1]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    bundle, defaults, warnings, digest = _load(args)
    print(f"input-sha256: {digest}")
    for line in defaults:
        print(f"default applied: {line}")
    for line in warnings:
        print(f"warning: {line}")

    failures = 0
    for sex in (Sex.F, Sex.M):
        for period in range(1, bundle.periods + 1):
            psi = _rollout_prevalence(bundle, sex, period)
            diagram = build_segment_diagram(Segment(sex, period), bundle, psi)
            for violation in validate_diagram(diagram):
                failures += 1
                print(f"sex={sex.value} period={period}: {violation}",
                      file=sys.stderr)
    if failures:
        print(f"{failures} diagram violations", file=sys.stderr)
        return 1
    print(f"ok: {2 * bundle.periods} segment diagrams validated")
    return 0


def _cmd_segment(args) -> int:
    bundle, _, _, digest = _load(args)
    if not (1 <= args.period <= bundle.periods):
        raise ValueError(f"period must be within 1..{bundle.periods}")
    mask = _mask(args)
    args.out.mkdir(parents=True, exist_ok=True)
    sex = Sex(args.sex)
    segment = Segment(sex, args.period)
    psi = _rollout_prevalence(bundle, sex, args.period)
    frontier = segment_frontier(bundle, segment, psi, mask, args.cross_check)

    problem, chosen = frontier.problem, frontier.candidates
    columns = [problem.names.index(name) for name in OBJECTIVE_NAMES]
    rows = [[strategy_encoding(problem.diagram, problem.strategy(c))] + values
            for c, values in zip(chosen.tolist(),
                                 problem.reported[chosen][:, columns].tolist())]
    out = args.out / f"frontier_{sex.value}_{args.period}.csv"
    _write_csv(out, digest, ("strategy",) + OBJECTIVE_NAMES, rows)
    print(f"wrote {out} ({len(rows)} frontier points)")
    return 0


def _parse_budgets(raw: str) -> list[float]:
    try:
        budgets = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"cannot parse budgets {raw!r}") from None
    if not budgets:
        raise ValueError("no budgets given")
    if not all(map(math.isfinite, budgets)):
        raise ValueError("budgets must be finite")
    if any(b <= 0 for b in budgets):
        raise ValueError("budgets must be positive")
    return sorted(budgets)


def _periods(args, bundle: ParameterBundle) -> int:
    periods = args.periods if args.periods is not None else bundle.periods
    if not (1 <= periods <= bundle.periods):
        raise ValueError(f"periods must be within 1..{bundle.periods}")
    return periods


def _cmd_pipeline(args) -> int:
    bundle, _, _, digest = _load(args)
    budgets = _parse_budgets(args.budgets)
    mask = _mask(args)
    periods = _periods(args, bundle)
    args.out.mkdir(parents=True, exist_ok=True)

    histories = run_phase1(bundle, budget=max(budgets), periods=periods,
                           objective_mask=mask, cross_check=args.cross_check)
    cutoffs = bundle.effective_cutoffs()
    # Cut-off labels hold neither "," nor "|", so a history's key is its
    # policy cells joined by "|" instead of ",".
    render = _by_strategy(lambda s: policy_cell(s, cutoffs))
    policy = {sex: _lineage_rows(histories[sex], render)
              for sex in (Sex.F, Sex.M)}
    keys = {sex: _unique_keys([row.replace(",", "|") for row in policy[sex]])
            for sex in (Sex.F, Sex.M)}
    problem = selection_problem_from_histories(bundle, histories)
    results = budget_sweep(problem, budgets)
    if args.cross_check and results != dense_pair_sweep(problem, budgets):
        raise OracleMismatchError(
            "budget sweep differs from the dense pair scan")

    _write_manifest(args, bundle, budgets, periods, digest)
    for sex in (Sex.F, Sex.M):
        _write_histories(args.out, digest, sex, histories[sex], keys[sex],
                         cutoffs, periods)
    _write_selection(args.out, digest, results, keys)
    _write_policy_table(args.out, digest, results, policy, periods)
    _write_series(args.out, digest, bundle, results, histories, periods)
    print(f"wrote pipeline outputs to {args.out}")
    return 0


def _unique_keys(keys: list[str]) -> list[str]:
    seen: dict[str, int] = {}
    out = []
    for key in keys:
        if key in seen:
            seen[key] += 1
            out.append(f"{key}#{seen[key]}")
        else:
            seen[key] = 0
            out.append(key)
    return out


def _write_manifest(args, bundle, budgets, periods, digest) -> None:
    manifest = {
        "tool": "screenopt",
        "version": __version__,
        "input_sha256": digest,
        "params": str(args.params) if args.params is not None else "builtin",
        "budgets": budgets,
        "periods": periods,
        "objective_mask": _mask(args) or list(OBJECTIVE_NAMES),
        "fix_exam_to_colonoscopy": bundle.options.fix_exam_to_colonoscopy,
        "incentive_enabled": bundle.options.incentive_enabled,
        "cutoffs": list(bundle.effective_cutoffs()),
        "cross_check": bool(args.cross_check),
    }
    (args.out / "manifest.json").write_text(dumps_canonical(manifest),
                                            encoding="utf-8")


def _lineage_rows(table: HistoryTable, block) -> list[str]:
    """Each row of a period table's blocks and its ancestors', period 1
    first, joined by ","; ``block(t)`` renders one string per row of a
    period table ``t``."""
    periods = []
    for t, rows in table.lineage(np.arange(len(table))):
        rendered = block(t)
        periods.append([rendered[r] for r in rows.tolist()])
    return [",".join(cells) for cells in zip(*periods)]


def _by_strategy(render):
    """A block of each row's strategy, rendered once per strategy."""
    def block(table):
        cells = [render(s) for s in table.strategies]
        return [cells[s] for s in table.strategy.tolist()]
    return block


def _write_histories(out: Path, digest: str, sex: Sex, table: HistoryTable,
                     keys: list[str], cutoffs, periods: int) -> None:
    columns = ["index", "key"]
    for k in range(1, periods + 1):
        columns += [f"cutoff_{k}", f"incentive_{k}", f"invite_{k}", f"exam_{k}"]
    for k in range(1, periods + 1):
        columns += [f"normal_{k}", f"benign_{k}", f"large_{k}", f"crc_{k}"]
    columns += ["cumulative_colonoscopies", "total_cancer_prevalence",
                "total_cost"]

    cells = _lineage_rows(table, _by_strategy(
        lambda s: history_columns(s, cutoffs)))
    prevalences = _lineage_rows(table, lambda t: [
        ",".join(map(repr, psi)) for psi in t.updated.tolist()])
    rows = [f"{i},{key},{c},{psi},{col!r},{crc!r},{cost!r}"
            for i, (key, c, psi, col, crc, cost) in enumerate(zip(
                keys, cells, prevalences, table.colonoscopies.tolist(),
                table.total[:, 3].tolist(), table.cost.tolist()))]
    _write_csv(out / f"histories_{sex.value}.csv", digest, columns, rows)


def _write_selection(out: Path, digest: str, results, keys) -> None:
    """One row per budget, the rest rendered once per distinct selection."""
    columns = ("budget", "female_index", "female_key", "male_index",
               "male_key", "cancer_prevalence", "total_colonoscopies",
               "total_cost", "feasible")
    tails: dict[tuple, str] = {}
    rows = []
    for res in results:
        chosen = (res.female_index, res.male_index, res.cancer_share,
                  res.total_colonoscopies, res.total_cost, res.feasible)
        if chosen not in tails:
            f, m = chosen[:2]
            tails[chosen] = ",".join(map(_fmt, (
                f, keys[Sex.F][f], m, keys[Sex.M][m],
                *chosen[2:])))
        rows.append(f"{_fmt(res.budget)},{tails[chosen]}")
    _write_csv(out / "selection.csv", digest, columns, rows)


def _write_policy_table(out: Path, digest: str, results, cells,
                        periods: int) -> None:
    """``cells`` maps each sex's last-table rows to their policy cells."""
    columns = ["case", "budget", "sex"] + [
        f"age_{Segment(Sex.F, k).age}" for k in range(1, periods + 1)]
    rows = []
    for case, res in enumerate(results, start=1):
        head = f"case{case},{_fmt(res.budget)}"
        rows += [f"{head},F,{cells[Sex.F][res.female_index]}",
                 f"{head},M,{cells[Sex.M][res.male_index]}"]
    _write_csv(out / "policy_table.csv", digest, columns, rows)


def _selected(results, sex: Sex) -> list[int]:
    return [r.female_index if sex is Sex.F else r.male_index
            for r in results]


def _write_series(out: Path, digest: str, bundle, results, histories,
                  periods: int) -> None:
    """Each case's running total cancer prevalence per sex and combined,
    one block of lines per distinct selected pair. A selected row's running
    totals are its ancestors' ``total`` column."""
    columns = ("case", "budget", "sex", "round", "total_cancer_prevalence")
    weights = [(bundle.total_population(Sex.F, periods=k),
                bundle.total_population(Sex.M, periods=k))
               for k in range(1, periods + 1)]

    def block(female, male) -> list[str]:
        lines = []
        for k, (f, m, (wf, wm)) in enumerate(zip(female, male, weights),
                                             start=1):
            lines += [f"F,{k},{f!r}", f"M,{k},{m!r}",
                      f"combined,{k},{(f * wf + m * wm) / (wf + wm)!r}"]
        return lines

    rows = ["baseline,," + line for line in block(*(
        [entry.total_prevalence.crc
         for entry in baseline_trajectory(bundle, sex, periods)]
        for sex in (Sex.F, Sex.M)))]
    running = {}
    for sex in (Sex.F, Sex.M):
        chosen = sorted(set(_selected(results, sex)))
        totals = [t.total[r, 3].tolist()
                  for t, r in histories[sex].lineage(np.array(chosen))]
        running[sex] = dict(zip(chosen, zip(*totals)))
    blocks: dict[tuple[int, int], list[str]] = {}
    for case, res in enumerate(results, start=1):
        pair = (res.female_index, res.male_index)
        if pair not in blocks:
            blocks[pair] = block(running[Sex.F][pair[0]],
                                 running[Sex.M][pair[1]])
        head = f"case{case},{_fmt(res.budget)},"
        rows += [head + line for line in blocks[pair]]
    _write_csv(out / "prevalence_series.csv", digest, columns, rows)


def _cmd_baseline(args) -> int:
    bundle, _, _, digest = _load(args)
    periods = _periods(args, bundle)
    args.out.mkdir(parents=True, exist_ok=True)
    columns = ("sex", "period", "age",
               "start_normal", "start_benign", "start_large", "start_crc",
               "normal", "benign", "large", "crc", "total_cancer_prevalence")
    rows = []
    for sex in (Sex.F, Sex.M):
        for entry in baseline_trajectory(bundle, sex, periods):
            start = entry.start_prevalence
            psi = entry.updated_prevalence
            rows.append([
                sex.value, entry.period, Segment(sex, entry.period).age,
                start.normal, start.benign, start.large, start.crc,
                psi.normal, psi.benign, psi.large, psi.crc,
                entry.total_prevalence.crc,
            ])
    out = args.out / "baseline.csv"
    _write_csv(out, digest, columns, rows)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
