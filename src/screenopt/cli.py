"""Command-line front end.

Subcommands:
    validate   check a parameter file and the diagrams built from it
    segment    solve one (sex, period) segment and export its frontier
    pipeline   full multi-period run plus budget-swept strategy selection
    baseline   no-screening prevalence rollout

All outputs are deterministic: identical inputs produce identical bytes.
Every CSV starts with comment lines carrying the tool version and the
SHA-256 of the parameter file; the manifest carries them as JSON fields.

Exit codes: 0 success (also --help and --version), 1 validation failure
(an unreadable or unparsable parameter file too: one line naming the file),
usage error or unusable --out, 2 infeasible or over capacity, 3 internal
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
from typing import Any, Iterator

import numpy as np

from . import __version__
from .diagram import strategy_encoding, validate_diagram
from .errors import (
    CapacityError,
    InfeasibleBudgetError,
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
    BowelState,
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
                        "filter; pipeline also checks "
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
    except (InfeasibleBudgetError, CapacityError) as exc:
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

    def without_repeats(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ParameterError(str(path), f"repeated key {key!r}")
            obj[key] = value
        return obj

    # a ValueError is bytes that are not UTF-8, a JSON syntax error or an
    # integer past the interpreter's digit limit
    try:
        doc = json.loads(raw.decode("utf-8"), object_pairs_hook=without_repeats)
    except (RecursionError, ValueError) as exc:
        raise ParameterError(str(path), f"not a JSON document: {exc}") from None
    bundle, report = load_parameters(doc)
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
    """Write the header, then each row as ``rows`` yields it: a list of
    values or a line already rendered."""
    with path.open("w", encoding="utf-8") as out:
        out.write(f"# tool: screenopt {__version__}\n"
                  f"# input-sha256: {digest}\n{','.join(columns)}\n")
        for row in rows:
            out.write(row if isinstance(row, str)
                      else ",".join(map(_fmt, row)))
            out.write("\n")


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
        rollout = natural_progression_rollout(
            bundle.starting_prevalence(sex), bundle.transitions[sex.value])
        for period in range(1, bundle.periods + 1):
            diagram = build_segment_diagram(Segment(sex, period), bundle,
                                            rollout[period - 1])
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
    rollout = natural_progression_rollout(bundle.starting_prevalence(sex),
                                          bundle.transitions[sex.value])
    frontier = segment_frontier(bundle, segment, rollout[args.period - 1],
                                mask, args.cross_check)

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
    problem = selection_problem_from_histories(bundle, histories)
    results = budget_sweep(problem, budgets)
    if args.cross_check and results != dense_pair_sweep(problem, budgets):
        raise OracleMismatchError(
            "budget sweep differs from the dense pair scan")

    _write_manifest(args, bundle, budgets, periods, digest)
    rows = {}
    for sex, index in ((Sex.F, "female_index"), (Sex.M, "male_index")):
        # only the rows that a budget selects (or names as the cheapest
        # pair of an infeasible one) are kept for the case files
        rows[sex] = dict.fromkeys(getattr(res, index) for res in results)
        _write_histories(args.out, digest, sex, _history_rows(
            histories[sex], bundle.fit.cutoffs, rows[sex]), periods)
    _write_cases(args.out, digest, bundle, results, rows, periods)
    print(f"wrote pipeline outputs to {args.out}")
    return 0


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
        "cutoffs": list(bundle.fit.cutoffs),
        "cross_check": bool(args.cross_check),
    }
    (args.out / "manifest.json").write_text(dumps_canonical(manifest),
                                            encoding="utf-8")


def _history_rows(table: HistoryTable, cutoffs,
                  kept: dict[int, tuple | None]) -> Iterator[str]:
    """The lines of the histories file, one per row of the last table,
    rendered as they are read. For each row index that is a key of
    ``kept``, the row's policy cells (period 1 first, joined by ","), key
    and running total cancer prevalences are stored there as its line is
    yielded. In one walk of the lineage, a period decodes each distinct
    strategy number of the rows it writes once and renders each ancestor
    row it writes once."""
    policy, columns, blocks, totals = [], [], [], []
    for t, rows in table.lineage(np.arange(len(table))):
        numbers, inverse = np.unique(t.strategy[rows], return_inverse=True)
        decoded = [t.problem.strategy(n) for n in numbers.tolist()]
        for out, render in ((policy, policy_cell),
                            (columns, history_columns)):
            cells = [render(s, cutoffs) for s in decoded]
            out.append([cells[i] for i in inverse.tolist()])
        ancestors, at = np.unique(rows, return_inverse=True)
        rendered = [",".join(map(repr, psi))
                    for psi in t.updated[ancestors].tolist()]
        blocks.append([rendered[i] for i in at.tolist()])
        totals.append(t.total[rows, 3])
    totals = np.stack(totals)
    # Cut-off labels hold neither "," nor "|", so a history's key is its
    # policy cells joined by "|" instead of ",". Keys are unique: a policy
    # cell names one strategy class, and rows are distinct lineages of
    # class representatives.
    keys = map("|".join, zip(*policy))
    for i, (key, c, psi, col, running, cost) in enumerate(zip(
            keys, map(",".join, zip(*columns)), map(",".join, zip(*blocks)),
            table.colonoscopies.tolist(), totals[-1].tolist(),
            table.cost.tolist())):
        if i in kept:
            kept[i] = (",".join(cells[i] for cells in policy), key,
                       totals[:, i].tolist())
        yield f"{i},{key},{c},{psi},{col!r},{running!r},{cost!r}"


def _write_histories(out: Path, digest: str, sex: Sex,
                     lines: Iterator[str], periods: int) -> None:
    columns = ["index", "key"]
    for k in range(1, periods + 1):
        columns += [f"cutoff_{k}", f"incentive_{k}", f"invite_{k}", f"exam_{k}"]
    for k in range(1, periods + 1):
        columns += [f"{state.value}_{k}" for state in BowelState]
    columns += ["cumulative_colonoscopies", "total_cancer_prevalence",
                "total_cost"]
    _write_csv(out / f"histories_{sex.value}.csv", digest, columns, lines)


def _write_cases(out: Path, digest: str, bundle, results, rows,
                 periods: int) -> None:
    """``selection.csv``, ``policy_table.csv`` and
    ``prevalence_series.csv``: a case per budget, each distinct selection
    rendered once from the rows that :func:`_history_rows` kept."""
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

    series = ["baseline,," + line for line in block(*(
        baseline_trajectory(bundle, sex, periods)[1][:, 3].tolist()
        for sex in (Sex.F, Sex.M)))]
    selection, policy, rendered = [], [], {}
    for case, res in enumerate(results, start=1):
        chosen = (res.female_index, res.male_index, res.cancer_share,
                  res.total_colonoscopies, res.total_cost, res.feasible)
        if chosen not in rendered:
            f_cells, f_key, f_totals = rows[Sex.F][chosen[0]]
            m_cells, m_key, m_totals = rows[Sex.M][chosen[1]]
            rendered[chosen] = (
                ",".join(map(_fmt, (chosen[0], f_key, chosen[1], m_key,
                                    *chosen[2:]))),
                f"F,{f_cells}", f"M,{m_cells}", block(f_totals, m_totals))
        tail, female, male, lines = rendered[chosen]
        budget = _fmt(res.budget)
        head = f"case{case},{budget},"
        selection.append(f"{budget},{tail}")
        policy += [head + female, head + male]
        series += [head + line for line in lines]
    _write_csv(out / "selection.csv", digest,
               ("budget", "female_index", "female_key", "male_index",
                "male_key", "cancer_prevalence", "total_colonoscopies",
                "total_cost", "feasible"), selection)
    _write_csv(out / "policy_table.csv", digest, ["case", "budget", "sex"] + [
        f"age_{Segment(Sex.F, k).age}" for k in range(1, periods + 1)],
        policy)
    _write_csv(out / "prevalence_series.csv", digest,
               ("case", "budget", "sex", "round", "total_cancer_prevalence"),
               series)


def _cmd_baseline(args) -> int:
    bundle, _, _, digest = _load(args)
    periods = _periods(args, bundle)
    args.out.mkdir(parents=True, exist_ok=True)
    states = [state.value for state in BowelState]
    columns = (["sex", "period", "age"] + [f"start_{s}" for s in states]
               + states + ["total_cancer_prevalence"])
    rows = []
    for sex in (Sex.F, Sex.M):
        rollout, totals = baseline_trajectory(bundle, sex, periods)
        values = np.hstack([rollout[:-1], rollout[1:], totals[:, 3:]])
        rows += [[sex.value, k, Segment(sex, k).age] + row
                 for k, row in enumerate(values.tolist(), start=1)]
    out = args.out / "baseline.csv"
    _write_csv(out, digest, columns, rows)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
