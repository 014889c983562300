"""Mutation check: every listed source mutation must fail its tests.

Each entry is (file, exact snippet, replacement, test ids). For each entry
the runner copies ``src/`` and ``tests/`` to a temporary directory, replaces
the snippet there (it must occur exactly once) and runs the listed tests in
that copy with pytest. A mutation is killed when pytest reports failed
tests (exit code 1); any other exit code is an error of the entry. First
the runner checks that the listed tests pass on an unmutated copy.

Run from anywhere, standard library and pytest only:

    python tests/mutants.py

It exits 0 when every mutation is killed and 1 when a snippet does not
match exactly once, a mutation survives or an entry errs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SEGMENTS = "tests/test_phase1.py::TestReweightedSegments::"
DENSE_BITS = SEGMENTS + "test_batched_rows_bit_identical_to_dense_oracle"
PATH_WALK = SEGMENTS + "test_batch_rows_equal_the_path_walk"
KERNELS = "tests/test_pareto.py::TestSkylineKernel::"
SKYLINE = KERNELS + "test_mask_equals_prefix_kernel_and_row_loop"
ROW_BLOCKS = KERNELS + "test_row_blocks_equal_prefix_kernel_and_row_loop"
FRONTIER = "tests/test_pareto.py::TestFrontier::"
PIPELINE = "tests/test_cli.py::TestPipeline::"
CERTIFICATE = "tests/test_phase1.py::TestLinearityCertificate::"
DECODER = "tests/test_diagram.py::TestStrategyDecoder::"


class Mutant(NamedTuple):
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    # The live mask keeps a path only if it is nonzero in every batch row.
    Mutant("src/screenopt/diagram.py",
           "live &= np.any(table != 0, axis=0)[flat]",
           "live &= np.all(table != 0, axis=0)[flat]",
           (DENSE_BITS,)),
    # A node's gather index takes its axes' strides in reverse order.
    Mutant("src/screenopt/diagram.py",
           "for axis in reversed([pos[node_id] for node_id in axes]):",
           "for axis in [pos[node_id] for node_id in axes]:",
           ("tests/test_diagram.py::TestEvaluatorConstruction::"
            "test_run_start_diagram",)),
    # The decoder takes a number's digits in reverse slot order, so slot 0
    # is the least significant.
    Mutant("src/screenopt/diagram.py",
           "np.unravel_index(index, self._slots)",
           "np.unravel_index(index, self._slots[::-1])[::-1]",
           (DECODER + "test_ascending_numbers_ascend_free_actions",)),
    # The accumulation plan takes its axes in reverse decision-node order.
    Mutant("src/screenopt/diagram.py",
           "for node, width in zip(d.decision_nodes, widths):\n"
           "            actions = ",
           "for node, width in zip(d.decision_nodes[::-1], widths[::-1]):\n"
           "            actions = ",
           ("tests/test_diagram.py::TestEvaluatorConstruction::"
            "test_random_diagrams",)),
    # Each signature sums its live terms only, not its full-length row.
    Mutant("src/screenopt/diagram.py",
           """\
            terms[index] = row[:, None] * utility
            np.add.reduceat(terms, self._starts, axis=0, out=sums[:-1])
""",
           """\
            at = np.arange(len(terms))[index]
            first = np.searchsorted(at, self._starts)
            nonempty = first < np.append(first[1:], len(at))
            sums[:-1][nonempty] = np.add.reduceat(
                row[:, None] * utility, first[nonempty], axis=0)
""",
           (DENSE_BITS,)),
    # Every batch row is evaluated with row 0's path probabilities.
    Mutant("src/screenopt/diagram.py",
           "for row, sums in zip(prob, condensed):",
           "for row, sums in zip(prob[[0] * len(prob)], condensed):",
           (PATH_WALK,)),
    # Rows with a NaN key enter the skyline, where NaN ranks last.
    Mutant("src/screenopt/pareto.py",
           "comparable = np.flatnonzero(~np.isnan(points).any(axis=1))",
           "comparable = np.arange(len(points))",
           (KERNELS + "test_nan_rows_are_kept_and_dominate_nothing",)),
    # The skyline ignores the second key as well as the first.
    Mutant("src/screenopt/pareto.py",
           "unique = unique[1:] if len(unique) > 1 else unique",
           "unique = unique[2:] if len(unique) > 1 else unique",
           (KERNELS + "test_skyline_is_the_exact_weak_skyline", SKYLINE)),
    # Rows whose exact dominator is the first distinct row are kept.
    Mutant("src/screenopt/pareto.py",
           "on_skyline = _exact_skyline(ranks) < 0",
           "on_skyline = _exact_skyline(ranks) <= 0",
           (SKYLINE,)),
    # The all-pairs filter never tests the last row block of a matrix.
    Mutant("src/screenopt/pareto.py",
           "for start in range(0, n, block):",
           "for start in range(0, n - block, block):",
           (ROW_BLOCKS,)),
    # The all-pairs filter drops rows that are only weakly dominated, so
    # every row dominates itself.
    Mutant("src/screenopt/pareto.py",
           "_at_most(cand, rows) & ~_at_most(rows, cand), axis=2)",
           "_at_most(cand, rows), axis=2)",
           (ROW_BLOCKS,)),
    # Stacked frontiers keep every copy of a duplicated row.
    Mutant("src/screenopt/pareto.py",
           "keep[:, 1:] &= np.any(ranked[:, 1:] != ranked[:, :-1], axis=2)",
           "keep[:, 1:] &= True",
           (FRONTIER + "test_stacked_rows_equal_each_matrix_reference",)),
    # The brute-force frontier lets every vector dominate itself.
    Mutant("src/screenopt/pareto.py",
           "lt = np.any(vectors < vectors[i], axis=1)",
           "lt = np.any(vectors <= vectors[i], axis=1)",
           (FRONTIER + "test_near_ties_follow_the_exact_rule",
            FRONTIER + "test_matches_brute_force_on_random_instances")),
    # Both sexes read the women's nurse-contact rates.
    Mutant("src/screenopt/screening.py",
           "return self.contact[segment.sex.value][segment.period - 1]",
           'return self.contact["F"][segment.period - 1]',
           ("tests/test_cli.py::TestSexSwap",)),
    # An examination row counts as unreachable below the zero tolerance,
    # so a tiny sensitivity loses its detections at its vertex.
    Mutant("src/screenopt/screening.py",
           "reachable = fpos > 0",
           "reachable = fpos > ZERO_TOL",
           ("tests/test_cli.py::TestTinySensitivity",)),
    # The loader checks bleed + the smaller perforation probability.
    Mutant("src/screenopt/screening.py",
           "if bleed + max(pw, pwo) > 1.0 + ZERO_TOL:",
           "if bleed + min(pw, pwo) > 1.0 + ZERO_TOL:",
           ("tests/test_screening.py::test_loader_error_path_and_message",)),
    # The validator accepts a table of any shape.
    Mutant("src/screenopt/diagram.py",
           "if np.shape(table) == shape:",
           "if True:",
           ("tests/test_diagram.py::TestValidation::"
            "test_wrong_shaped_table_is_one_violation",)),
    # The evaluator reads a value table of any shape.
    Mutant("src/screenopt/diagram.py",
           "utility[:, i] = _value_table(d, node).ravel()[",
           "utility[:, i] = d.values[node.node_id].table.ravel()[",
           ("tests/test_diagram.py::TestValidation::"
            "test_wrong_shaped_value_table_is_a_structural_error",)),
    # The path walk reads a CPT row as numpy scalars.
    Mutant("src/screenopt/diagram.py",
           "return row.tolist()",
           "return row",
           ("tests/test_diagram.py::TestExpectedValues::"
            "test_path_walk_returns_python_floats",)),
    # The path walk drops the chance nodes' probabilities.
    Mutant("src/screenopt/diagram.py",
           "walk(depth + 1, prefix, prob * p)",
           "walk(depth + 1, prefix, prob)",
           ("tests/test_diagram.py::TestExpectedValues::"
            "test_matches_full_path_sum_and_evaluator", PATH_WALK)),
    # The dense pair scan breaks cancer-share ties on the pair index alone.
    Mutant("src/screenopt/phase2.py",
           "for crit in criteria:",
           "for crit in criteria[:1]:",
           ("tests/test_phase2.py::TestBudgetSweep::"
            "test_array_budgets_equal_list_budgets",)),
    # Phase 1 never compares its arrays with the run-start diagram.
    Mutant("src/screenopt/phase1.py",
           "if run_start and not np.array_equal(at_start, base.reported):",
           "if False and not np.array_equal(at_start, base.reported):",
           (PIPELINE + "test_array_path_differs_from_diagram_exits_three",)),
    # A period's batch puts the vertices first and the start last.
    Mutant("src/screenopt/phase1.py",
           "np.vstack([start, np.eye(4)])",
           "np.vstack([np.eye(4), start])",
           ("tests/test_phase1.py::TestSharedEvaluator::"
            "test_every_segment_bit_identical_to_fresh_evaluator",)),
    # The linearity certificate allows a thousand times its bound.
    Mutant("src/screenopt/phase1.py",
           "<= LINEARITY_TOL * scale):",
           "<= 1e3 * LINEARITY_TOL * scale):",
           (CERTIFICATE + "test_fault_raises_without_cross_check",)),
    # --cross-check checks each period's first history only.
    Mutant("src/screenopt/phase1.py",
           "for h in range(len(starts)) if cross_check else (0,):",
           "for h in range(1) if cross_check else (0,):",
           (PIPELINE + "test_cross_check_checks_every_history",)),
    # --cross-check no longer requires the first start's dense row to be
    # its array-path row bit for bit.
    Mutant("src/screenopt/phase1.py",
           "if cross_check and not h and not np.array_equal(exact, at_start):",
           "if False and not h and not np.array_equal(exact, at_start):",
           (PIPELINE
            + "test_cross_check_compares_the_first_start_bit_for_bit",)),
    # A table row holds its class's position in the period, not its
    # strategy number in the run's strategy space.
    Mutant("src/screenopt/phase1.py",
           "strategy=reps[position]",
           "strategy=position",
           ("tests/test_phase1.py::TestPeriodTableOrder::"
            "test_shipped_parameters",)),
    # --cross-check no longer compares the pruning mask with the all-pairs
    # filter.
    Mutant("src/screenopt/phase1.py",
           "if cross_check and not np.array_equal(mask, nondominated(keys)):",
           "if False and not np.array_equal(mask, nondominated(keys)):",
           (PIPELINE + "test_pruning_mismatch_exits_three",)),
    # --cross-check accepts a frontier within allclose's tolerance of the
    # brute-force reference.
    Mutant("src/screenopt/phase1.py",
           "if cross_check and not np.array_equal(\n            frontier",
           "if cross_check and not np.allclose(\n            frontier",
           ("tests/test_cli.py::TestSegment::"
            "test_cross_check_compares_frontiers_exactly",)),
    # A history's cost adds each period's per-invitee cost without its
    # cohort size.
    Mutant("src/screenopt/phase1.py",
           'values[:, names.index("cost")] * cohort)',
           'values[:, names.index("cost")])',
           ("tests/test_cli.py::TestPopulationScaling",)),
    # Phase 2 reads the men's histories as the women's and vice versa.
    Mutant("src/screenopt/phase2.py",
           "female=candidates(Sex.F),\n        male=candidates(Sex.M),",
           "female=candidates(Sex.M),\n        male=candidates(Sex.F),",
           ("tests/test_cli.py::TestObjectPathOracle::"
            "test_outputs_equal_object_path",)),
    # A written row's prevalence blocks are gathered by its strategy's
    # position, not by its ancestor rows'.
    Mutant("src/screenopt/cli.py",
           "blocks.append([rendered[i] for i in at.tolist()])",
           "blocks.append([rendered[i] for i in inverse.tolist()])",
           ("tests/test_cli.py::TestObjectPathOracle",)),
    # A rollout's start row is used unchecked.
    Mutant("src/screenopt/phase1.py",
           "check_prevalence_rows(out[:1])",
           "None",
           ("tests/test_phase1.py::TestNaNRejected::"
            "test_rollout_start_and_diagram_prevalence",)),
    # A segment diagram is built at an unchecked prevalence row.
    Mutant("src/screenopt/screening.py",
           "check_prevalence_rows(np.reshape(psi, (1, 4)))",
           "None",
           ("tests/test_phase1.py::TestNaNRejected::"
            "test_rollout_start_and_diagram_prevalence",)),
    # validate builds period k's diagram at rollout row k, the start of
    # period k + 1.
    Mutant("src/screenopt/cli.py",
           "rollout[period - 1])",
           "rollout[period])",
           ("tests/test_cli.py::TestRolloutRows",)),
    # segment --period k solves at rollout row k.
    Mutant("src/screenopt/cli.py",
           "rollout[args.period - 1],",
           "rollout[args.period],",
           ("tests/test_cli.py::TestRolloutRows",)),
    # The exhaustive oracle grows cancers from the next period's large
    # growths, not from those that screening left.
    Mutant("tests/oracles.py",
           'crc = crc - found["crc"] + left_large * rates.large_to_crc',
           'crc = crc - found["crc"] + large * rates.large_to_crc',
           ("tests/test_phase1.py::TestExhaustivePhase1",)),
    # A parameter file nested too deep for the JSON decoder escapes main
    # as a traceback.
    Mutant("src/screenopt/cli.py",
           "except (RecursionError, ValueError)",
           "except ValueError",
           ("tests/test_cli.py::TestValidate::"
            "test_unparsable_params_file_fails_before_out",)),
    # The chance tables take the test characteristics in sorted label
    # order, while the diagram names the cut-off states in declared order.
    Mutant("src/screenopt/screening.py",
           """\
    spec = np.array([fit.specificity[c] for c in fit.cutoffs])
    sens = np.array([[fit.sensitivity[s.value][c] for s in ABNORMAL]
                     for c in fit.cutoffs])
""",
           """\
    spec = np.array([fit.specificity[c] for c in sorted(fit.cutoffs)])
    sens = np.array([[fit.sensitivity[s.value][c] for s in ABNORMAL]
                     for c in sorted(fit.cutoffs)])
""",
           ("tests/test_screening.py::TestPrevalenceTables::"
            "test_reversed_shipped_cutoffs_keep_their_characteristics",)),
    # A policy cell drops its incentive marker, so two histories that
    # differ only in incentives share a key.
    Mutant("src/screenopt/screening.py",
           'cell += "+i"',
           'cell += ""',
           ("tests/test_cli.py::TestHistoryKeys",)),
)


def _copy(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                    ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)


def _pytest(where: Path, tests) -> int:
    env = {**os.environ, "PYTHONPATH": str(where / "src")}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=where, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def _outcome(mutant: Mutant, where: Path) -> str:
    path = where / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.snippet)
    if count != 1:
        return f"error: snippet matches {count} times"
    path.write_text(text.replace(mutant.snippet, mutant.replacement),
                    encoding="utf-8")
    code = _pytest(where, mutant.tests)
    return {0: "SURVIVED", 1: "killed"}.get(code,
                                            f"error: pytest exit {code}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        listed = sorted({t for m in MUTANTS for t in m.tests})
        code = _pytest(clean, listed)
        if code:
            print(f"unmutated tests fail (pytest exit {code})")
            return 1
        failed = 0
        for i, mutant in enumerate(MUTANTS, 1):
            where = Path(tmp) / f"mutant{i}"
            _copy(where)
            outcome = _outcome(mutant, where)
            shutil.rmtree(where)
            failed += outcome != "killed"
            first = mutant.replacement.strip().splitlines()[0]
            print(f"{i}/{len(MUTANTS)} {mutant.file}: {first!r}: {outcome}")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutations killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
