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
    # The loader checks bleed + the smaller perforation probability.
    Mutant("src/screenopt/screening.py",
           "if bleed + max(pw, pwo) > 1.0 + ZERO_TOL:",
           "if bleed + min(pw, pwo) > 1.0 + ZERO_TOL:",
           ("tests/test_screening.py::test_loader_error_path_and_message",)),
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
           "if not np.array_equal(base.evaluator.objective_matrix(",
           "if False and np.array_equal(base.evaluator.objective_matrix(",
           (PIPELINE + "test_array_path_differs_from_diagram_exits_three",)),
    # A period's batch puts the vertices first and the start last.
    Mutant("src/screenopt/phase1.py",
           "np.vstack([start, np.eye(4)])",
           "np.vstack([np.eye(4), start])",
           ("tests/test_phase1.py::TestSharedEvaluator::"
            "test_every_segment_bit_identical_to_fresh_evaluator",)),
    # The linearity certificate allows a thousand times its bound.
    Mutant("src/screenopt/phase1.py",
           "<= LINEARITY_TOL * scale)",
           "<= 1e3 * LINEARITY_TOL * scale)",
           (CERTIFICATE + "test_fault_raises_without_cross_check",)),
    # --cross-check no longer compares the pruning mask with the all-pairs
    # filter.
    Mutant("src/screenopt/phase1.py",
           "if cross_check and not np.array_equal(mask, nondominated(keys)):",
           "if False and not np.array_equal(mask, nondominated(keys)):",
           (PIPELINE + "test_pruning_mismatch_exits_three",)),
    # Phase 2 reads the men's histories as the women's and vice versa.
    Mutant("src/screenopt/phase2.py",
           "female=candidates(Sex.F),\n        male=candidates(Sex.M),",
           "female=candidates(Sex.M),\n        male=candidates(Sex.F),",
           ("tests/test_cli.py::TestObjectPathOracle::"
            "test_outputs_equal_object_path",)),
    # The exhaustive oracle grows cancers from the next period's large
    # growths, not from those that screening left.
    Mutant("tests/oracles.py",
           'crc = crc - found["crc"] + left_large * rates.large_to_crc',
           'crc = crc - found["crc"] + large * rates.large_to_crc',
           ("tests/test_phase1.py::TestExhaustivePhase1",)),
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
