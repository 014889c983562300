"""Command-line behavior: exit codes, file outputs, determinism."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import screenopt.cli
import screenopt.diagram
import screenopt.phase1
from conftest import (
    LINEARITY_FAULTS,
    break_linearity,
    random_params_doc,
    small_doc,
)
from oracles import object_pipeline, one_ulp
from screenopt.cli import dumps_canonical, main
from screenopt.phase2 import BUDGET_TOL
from screenopt.screening import (
    ADVERSE,
    EXAM_RESULT,
    FIT_RESULT,
    Segment,
    Sex,
    build_segment_diagram,
    load_parameters,
)


@pytest.fixture()
def small_params(tmp_path, default_doc):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(small_doc(default_doc)))
    return path


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
    return comments, rows[0], rows[1:]


class TestValidate:
    def test_shipped_default_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "ok:" in out

    def test_negative_cost_fails_with_path(self, tmp_path, default_doc,
                                           capsys):
        doc = json.loads(json.dumps(default_doc))
        doc["costs"]["polypectomy"] = -1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--params", str(bad)]) == 1
        assert "costs.polypectomy" in capsys.readouterr().err

    def test_unknown_key_fails(self, tmp_path, default_doc, capsys):
        doc = json.loads(json.dumps(default_doc))
        doc["surprise"] = {}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--params", str(bad)]) == 1
        assert "surprise" in capsys.readouterr().err

    def test_defaults_are_listed(self, tmp_path, default_doc, capsys):
        doc = json.loads(json.dumps(default_doc))
        del doc["costs"]["incentive"]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--params", str(path)]) == 0
        assert "default applied: costs.incentive" in capsys.readouterr().out


    @pytest.mark.parametrize("command", ["validate", "pipeline"])
    @pytest.mark.parametrize("missing", [True, False])
    def test_unreadable_params_file_fails_with_path(self, tmp_path, capsys,
                                                    command, missing):
        # a missing file and a directory both give exit 1 and one
        # validation line naming the path, not a traceback
        path = tmp_path / "absent.json" if missing else tmp_path
        extra = [] if command == "validate" else [
            "--budgets", "8000", "--out", str(tmp_path / "out")]
        assert main([command, "--params", str(path), *extra]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"validation error: {path}: ")

    def test_duplicate_cutoff_set_labels_fail(self, tmp_path, default_doc,
                                              capsys):
        doc = json.loads(json.dumps(default_doc))
        doc["options"]["cutoff_set"] = ["25", "25", "40"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--params", str(bad)]) == 1
        assert "options.cutoff_set" in capsys.readouterr().err
        assert main(["pipeline", "--budgets", "8000", "--params", str(bad),
                     "--out", str(tmp_path / "x")]) == 1


class TestSegment:
    def test_frontier_csv_row_count_matches_brute_force(self, small_params,
                                                        tmp_path):
        out = tmp_path / "out"
        assert main(["segment", "--sex", "M", "--period", "1",
                     "--params", str(small_params), "--out", str(out),
                     "--cross-check"]) == 0
        comments, header, rows = read_csv(out / "frontier_M_1.csv")
        assert any("screenopt" in c for c in comments)
        assert any("input-sha256" in c for c in comments)
        assert header == ["strategy", "cost", "colonoscopy", "benign_found",
                          "large_found", "crc_found"]

        from screenopt.pareto import brute_force_frontier
        from screenopt.phase1 import segment_frontier
        from screenopt.screening import Segment, Sex, load_parameters
        bundle, _ = load_parameters(json.loads(small_params.read_text()))
        problem = segment_frontier(bundle, Segment(Sex.M, 1),
                                   bundle.starting_prevalence(Sex.M)).problem
        assert len(rows) == len(brute_force_frontier(problem))

    def test_no_incentive_flag(self, small_params, tmp_path):
        out = tmp_path / "out"
        assert main(["segment", "--sex", "F", "--period", "1",
                     "--params", str(small_params), "--out", str(out),
                     "--no-incentive"]) == 0
        _, _, rows = read_csv(out / "frontier_F_1.csv")
        assert rows, "frontier must not be empty"
        assert all("2:->yes" not in row[0] for row in rows)

    def test_no_invite_row_present_with_zero_objectives(self, small_params,
                                                        tmp_path):
        out = tmp_path / "out"
        main(["segment", "--sex", "F", "--period", "2",
              "--params", str(small_params), "--out", str(out)])
        _, _, rows = read_csv(out / "frontier_F_2.csv")
        null_rows = [r for r in rows if "3:->no" in r[0]]
        assert len(null_rows) == 1
        assert [float(v) for v in null_rows[0][1:]] == [0.0] * 5

    def test_period_out_of_range(self, small_params, tmp_path, capsys):
        assert main(["segment", "--sex", "F", "--period", "9",
                     "--params", str(small_params),
                     "--out", str(tmp_path / "x")]) == 1
        assert not (tmp_path / "x").exists()

    def test_cross_check_passes_where_old_box_limit_failed(self, tmp_path):
        # needs 143 box solves, over the former limit of 130 (ten per
        # unique vector), which made this valid segment exit 2
        params = Path(__file__).resolve().parent / "data" / \
            "box_search_limit.json"
        out = tmp_path / "out"
        assert main(["segment", "--sex", "F", "--period", "2", "--fix-exam",
                     "--params", str(params), "--out", str(out),
                     "--cross-check"]) == 0
        _, _, rows = read_csv(out / "frontier_F_2.csv")
        assert len(rows) == 13

    def test_cross_check_failure_exits_three(self, small_params, tmp_path,
                                             monkeypatch):
        class Fake:
            def vectors(self):
                return np.zeros((0, 5))

        monkeypatch.setattr(screenopt.phase1, "brute_force_frontier",
                            lambda problem: Fake())
        assert main(["segment", "--sex", "F", "--period", "1",
                     "--params", str(small_params),
                     "--out", str(tmp_path / "x"), "--cross-check"]) == 3

    def test_box_search_mismatch_exits_three(self, small_params, tmp_path,
                                             monkeypatch):
        class Fake:
            def vectors(self):
                return np.zeros((0, 5))

        monkeypatch.setattr(screenopt.phase1, "box_search_frontier",
                            lambda problem: Fake())
        assert main(["segment", "--sex", "F", "--period", "1",
                     "--params", str(small_params),
                     "--out", str(tmp_path / "x"), "--cross-check"]) == 3

    def test_cross_check_compares_frontiers_exactly(self, small_params,
                                                    tmp_path, monkeypatch):
        # the real box-search frontier with one value moved by 1e-12
        box_search = screenopt.phase1.box_search_frontier

        class Moved:
            def __init__(self, problem):
                self.frontier = box_search(problem)

            def vectors(self):
                vectors = self.frontier.vectors().copy()
                vectors[0, 0] += 1e-12
                return vectors

        monkeypatch.setattr(screenopt.phase1, "box_search_frontier", Moved)
        assert main(["segment", "--sex", "F", "--period", "1",
                     "--params", str(small_params),
                     "--out", str(tmp_path / "x"), "--cross-check"]) == 3


class TestPipeline:
    def run(self, params, out, budgets="500,1500,4000"):
        return main(["pipeline", "--budgets", budgets,
                     "--params", str(params), "--out", str(out)])

    def test_outputs_and_shapes(self, small_params, tmp_path):
        out = tmp_path / "run"
        assert self.run(small_params, out) == 0
        for name in ("manifest.json", "histories_F.csv", "histories_M.csv",
                     "selection.csv", "policy_table.csv",
                     "prevalence_series.csv"):
            assert (out / name).exists(), name

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "screenopt"
        assert manifest["budgets"] == [500.0, 1500.0, 4000.0]
        assert manifest["periods"] == 2

        _, header, rows = read_csv(out / "selection.csv")
        assert len(rows) == 3
        shares = [float(r[header.index("cancer_prevalence")]) for r in rows]
        assert all(a >= b for a, b in zip(shares, shares[1:]))
        budgets = [float(r[header.index("budget")]) for r in rows]
        cols = [float(r[header.index("total_colonoscopies")]) for r in rows]
        feasible = [r[header.index("feasible")] for r in rows]
        assert all(f == "true" for f in feasible)
        assert all(c <= b + BUDGET_TOL for b, c in zip(budgets, cols))

        _, header, rows = read_csv(out / "policy_table.csv")
        assert header[:3] == ["case", "budget", "sex"]
        assert header[3:] == ["age_60", "age_62"]
        assert len(rows) == 6  # 3 cases x 2 sexes

        _, header, rows = read_csv(out / "prevalence_series.csv")
        cases = {r[0] for r in rows}
        assert cases == {"baseline", "case1", "case2", "case3"}

    def test_single_period_pipeline_has_one_age_column(self, small_params,
                                                       tmp_path):
        out = tmp_path / "k1"
        assert main(["pipeline", "--budgets", "900", "--periods", "1",
                     "--params", str(small_params), "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "policy_table.csv")
        assert header == ["case", "budget", "sex", "age_60"]
        assert len(rows) == 2

    def test_periods_out_of_range_makes_no_out(self, small_params,
                                               tmp_path, capsys):
        # the --periods check runs before --out is made
        out = tmp_path / "x"
        assert main(["pipeline", "--budgets", "500", "--periods", "99",
                     "--params", str(small_params), "--out", str(out)]) == 1
        assert "periods must be within" in capsys.readouterr().err
        assert not out.exists()

    def test_budget_zero_rejected(self, small_params, tmp_path, capsys):
        assert main(["pipeline", "--budgets", "0,10",
                     "--params", str(small_params),
                     "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("budgets", ["8000,nan", "nan", "inf",
                                         "1e400"])
    def test_non_finite_budget_rejected(self, small_params, tmp_path,
                                        budgets, capsys):
        out = tmp_path / "x"
        assert main(["pipeline", "--budgets", budgets,
                     "--params", str(small_params), "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_infeasible_exits_two(self, small_params, tmp_path):
        assert main(["pipeline", "--budgets", "0.0001",
                     "--params", str(small_params),
                     "--out", str(tmp_path / "x"),
                     "--objective-mask", "crc_found"]) == 2

    def test_byte_identical_reruns(self, small_params, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert self.run(small_params, out1) == 0
        assert self.run(small_params, out2) == 0
        for name in ("manifest.json", "histories_F.csv", "histories_M.csv",
                     "selection.csv", "policy_table.csv",
                     "prevalence_series.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_histories_csv_columns_and_budget(self, small_params, tmp_path):
        out = tmp_path / "run"
        self.run(small_params, out)
        for sex in ("F", "M"):
            _, header, rows = read_csv(out / f"histories_{sex}.csv")
            assert header[:2] == ["index", "key"]
            for k in (1, 2):
                for col in (f"cutoff_{k}", f"incentive_{k}", f"invite_{k}",
                            f"exam_{k}", f"normal_{k}", f"benign_{k}",
                            f"large_{k}", f"crc_{k}"):
                    assert col in header
            assert header[-3:] == ["cumulative_colonoscopies",
                                   "total_cancer_prevalence", "total_cost"]
            assert rows
            cols_i = header.index("cumulative_colonoscopies")
            assert all(float(r[cols_i]) <= 4000 + BUDGET_TOL for r in rows)
            # per-period prevalence vectors are simplexes
            for r in rows:
                for k in (1, 2):
                    total = sum(float(r[header.index(f"{s}_{k}")])
                                for s in ("normal", "benign", "large", "crc"))
                    assert abs(total - 1.0) <= 1e-9
            keys = [r[header.index("key")] for r in rows]
            assert len(set(keys)) == len(keys)

    def test_cross_check_passes(self, small_params, tmp_path):
        assert main(["pipeline", "--budgets", "500,1500,4000",
                     "--params", str(small_params),
                     "--out", str(tmp_path / "x"), "--cross-check"]) == 0

    def test_pipeline_builds_no_history_objects(self, small_params, tmp_path,
                                                monkeypatch):
        # phase 2 and the writers read the tables' columns and lineage
        def refuse(self, rows):
            raise AssertionError("a StrategyHistory was built")

        monkeypatch.setattr(screenopt.phase1.HistoryTable, "_histories",
                            refuse)
        assert main(["pipeline", "--budgets", "500,1500,1500,4000",
                     "--params", str(small_params),
                     "--out", str(tmp_path / "x")]) == 0

    @pytest.mark.parametrize("flags", [[], ["--cross-check"]])
    def test_pipeline_builds_no_frontier_points(self, small_params, tmp_path,
                                                monkeypatch, flags):
        # phase 1 compares candidate indices and value rows; frontier
        # points and objective vectors are views only tests read
        def refuse(*args, **kwargs):
            raise AssertionError("a frontier point or objective vector "
                                 "was built")

        for module in (screenopt.diagram, screenopt.pareto,
                       screenopt.phase1):
            for name in ("FrontierPoint", "ObjectiveVector"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        assert main(["pipeline", "--budgets", "500,1500,1500,4000",
                     "--params", str(small_params),
                     "--out", str(tmp_path / "x"), *flags]) == 0
        assert main(["segment", "--sex", "M", "--period", "2",
                     "--params", str(small_params),
                     "--out", str(tmp_path / "s"), *flags]) == 0

    def test_pruning_mismatch_exits_three(self, small_params, tmp_path,
                                          monkeypatch):
        # a skyline that keeps every history passes unchecked, and the
        # all-pairs filter catches it under --cross-check
        monkeypatch.setattr(screenopt.phase1, "skyline",
                            lambda keys: np.ones(len(keys), dtype=bool))
        for flags, code in (([], 0), (["--cross-check"], 3)):
            assert main(["pipeline", "--budgets", "500,1500,4000",
                         "--params", str(small_params),
                         "--out", str(tmp_path / "x"), *flags]) == code

    def test_sweep_mismatch_exits_three(self, small_params, tmp_path,
                                        monkeypatch):
        sweep = screenopt.cli.budget_sweep

        def wrong(problem, budgets):
            results = sweep(problem, budgets)
            return [dataclasses.replace(results[0],
                                        total_cost=results[0].total_cost + 1)
                    ] + results[1:]

        monkeypatch.setattr(screenopt.cli, "budget_sweep", wrong)
        assert main(["pipeline", "--budgets", "500,1500,4000",
                     "--params", str(small_params),
                     "--out", str(tmp_path / "x"), "--cross-check"]) == 3

    def test_dense_evaluation_mismatch_exits_three(self, small_params,
                                                   tmp_path, monkeypatch):
        # nonzero values one ulp up stay within the linearity bound, a
        # relative 1e-12 leaves it
        dense = screenopt.diagram.StrategyEvaluator.dense_objective_matrix
        for nudge, code in ((one_ulp, 0), (lambda m: m * (1 + 1e-12), 3)):
            monkeypatch.setattr(
                screenopt.diagram.StrategyEvaluator, "dense_objective_matrix",
                lambda self, tables, nudge=nudge: nudge(dense(self, tables)))
            assert main(["pipeline", "--budgets", "500,1500,4000",
                         "--params", str(small_params),
                         "--out", str(tmp_path / "x"),
                         "--cross-check"]) == code

    @pytest.mark.parametrize("fault", LINEARITY_FAULTS)
    def test_linearity_certificate_exits_three(self, small_params, tmp_path,
                                               monkeypatch, capsys, fault):
        # every run certifies its vertex sums, without --cross-check too
        break_linearity(monkeypatch, fault)
        assert main(["pipeline", "--budgets", "500,1500,4000",
                     "--params", str(small_params),
                     "--out", str(tmp_path / "x")]) == 3
        assert "class's vertex sum" in capsys.readouterr().err

    def test_array_path_differs_from_diagram_exits_three(
            self, small_params, tmp_path, monkeypatch, capsys):
        # phase 1's arrays with the adverse-event table halved: every
        # evaluation from them is consistent, so the vertex sums certify,
        # and only the comparison with the diagram's matrix catches it
        tables = screenopt.phase1.segment_tables

        def halved(*args):
            out = tables(*args)
            out[ADVERSE] = out[ADVERSE] * 0.5
            return out

        monkeypatch.setattr(screenopt.phase1, "segment_tables", halved)
        for flags in ([], ["--cross-check"]):
            assert main(["pipeline", "--budgets", "500,1500,4000",
                         "--params", str(small_params),
                         "--out", str(tmp_path / "x"), *flags]) == 3
            assert "array path differs" in capsys.readouterr().err

    def test_objective_mask_flag(self, small_params, tmp_path):
        out = tmp_path / "masked"
        assert main(["segment", "--sex", "M", "--period", "1",
                     "--params", str(small_params), "--out", str(out),
                     "--objective-mask", "colonoscopy,crc_found",
                     "--cross-check"]) == 0
        _, header, rows = read_csv(out / "frontier_M_1.csv")
        # all five objectives stay reported even when only two are optimized
        assert header == ["strategy", "cost", "colonoscopy", "benign_found",
                          "large_found", "crc_found"]
        assert rows

    def test_unknown_objective_mask_rejected(self, small_params, tmp_path):
        assert main(["segment", "--sex", "M", "--period", "1",
                     "--params", str(small_params),
                     "--out", str(tmp_path / "x"),
                     "--objective-mask", "nonsense"]) == 1

    @pytest.mark.parametrize("command", [
        ["segment", "--sex", "M", "--period", "1"],
        ["pipeline", "--budgets", "500,1500,4000"]])
    def test_repeated_objective_mask_rejected(self, small_params, tmp_path,
                                              command, capsys):
        # checked before --out is made, like the other argument checks
        out = tmp_path / "x"
        assert main([*command, "--params", str(small_params),
                     "--out", str(out),
                     "--objective-mask", "cost,crc_found,cost"]) == 1
        assert "'cost' is repeated" in capsys.readouterr().err
        assert not out.exists()

    def test_baseline_series_cancer_increases(self, small_params, tmp_path):
        out = tmp_path / "run"
        self.run(small_params, out)
        _, header, rows = read_csv(out / "prevalence_series.csv")
        sex_i = header.index("sex")
        round_i = header.index("round")
        value_i = header.index("total_cancer_prevalence")
        baseline_f = sorted(
            (int(r[round_i]), float(r[value_i]))
            for r in rows if r[0] == "baseline" and r[sex_i] == "F")
        values = [v for _, v in baseline_f]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


class TestObjectPathOracle:
    """All six pipeline outputs, byte for byte, against the same outputs
    rendered from StrategyHistory objects one record at a time."""

    NAMES = ("manifest.json", "histories_F.csv", "histories_M.csv",
             "selection.csv", "policy_table.csv", "prevalence_series.csv")
    FLAGS = ([], ["--fix-exam"],
             ["--objective-mask", "cost,colonoscopy,crc_found"],
             # no zero-examination history survives: tiny budgets are
             # infeasible
             ["--objective-mask", "benign_found,large_found,crc_found"],
             ["--no-incentive"])

    @pytest.mark.parametrize("periods", [1, 2, 3, 4])
    def test_outputs_equal_object_path(self, tmp_path, periods):
        rng = np.random.default_rng(520 + periods)
        for trial, flags in enumerate(self.FLAGS):
            doc = random_params_doc(rng, periods=periods,
                                    n_cutoffs=int(rng.integers(2, 4)),
                                    monotone=bool(trial % 2),
                                    fix_exam=trial % 2 == 0)
            params = tmp_path / f"p{trial}.json"
            params.write_text(json.dumps(doc))
            # a tiny budget, repeated ones, and a top one that keeps
            # histories through every period
            high = rng.uniform(500, 4000, size=3).round(1).tolist()
            budgets = ",".join(map(str, [1.0] + high + high[:2] + [1e5]))
            argv = ["--params", str(params), "--budgets", budgets, *flags]
            got, want = tmp_path / f"got{trial}", tmp_path / f"want{trial}"
            assert main(["pipeline", *argv, "--out", str(got)]) == 0
            object_pipeline(argv, want)
            for name in self.NAMES:
                assert (got / name).read_bytes() == \
                    (want / name).read_bytes(), (trial, name)
            if trial == 3:
                assert b",false" in (got / "selection.csv").read_bytes()


class TestOneProcess:
    """Nothing outlives a run: pipelines run one after another in one
    process write the bytes of fresh-process runs."""

    def test_runs_in_one_process_match_fresh_processes(self, tmp_path):
        rng = np.random.default_rng(530)
        argv = []
        for i, n_cutoffs in enumerate((3, 5)):
            params = tmp_path / f"p{i}.json"
            params.write_text(json.dumps(random_params_doc(
                rng, periods=3, n_cutoffs=n_cutoffs, fix_exam=bool(i))))
            argv.append(["pipeline", "--params", str(params),
                         "--budgets", "800,2500,1e5"])
        env = {**os.environ, "PYTHONPATH": str(
            Path(screenopt.cli.__file__).resolve().parents[1])}
        # the first document again after the second
        for run, args in enumerate(argv + argv[:1]):
            here, fresh = tmp_path / f"here{run}", tmp_path / f"fresh{run}"
            assert main([*args, "--out", str(here)]) == 0
            subprocess.run([sys.executable, "-m", "screenopt.cli", *args,
                            "--out", str(fresh)], env=env, check=True,
                           capture_output=True)
            for name in TestObjectPathOracle.NAMES:
                assert (here / name).read_bytes() == \
                    (fresh / name).read_bytes(), (run, name)


class TestStrategyClassChecks:
    """Every period evaluates one representative per strategy class: the
    base problem checks every member against it for free, its full-space
    frontier checks the first history's frontier in every run, and
    ``--cross-check`` compares each other history with its own solve."""

    @pytest.fixture()
    def params(self, tmp_path, default_doc):
        path = tmp_path / "free_exam.json"
        path.write_text(json.dumps(small_doc(default_doc, periods=3,
                                             fix_exam=False)))
        return path

    def run(self, params, out, *flags):
        return main(["pipeline", "--budgets", "500,1500,4000",
                     "--params", str(params), "--out", str(out), *flags])

    def test_cross_check_passes(self, params, tmp_path):
        assert self.run(params, tmp_path / "x", "--cross-check") == 0

    def test_wrong_representative_exits_three(self, params, tmp_path,
                                              monkeypatch):
        classes = screenopt.phase1.strategy_classes

        def largest_member(values):
            # the no-invitation class is always on the frontier and has
            # many members; its largest one is an equal but wrong choice
            reps, class_of = classes(values)
            reps = reps.copy()
            reps[0] = np.flatnonzero(class_of == 0).max()
            return reps, class_of

        monkeypatch.setattr(screenopt.phase1, "strategy_classes",
                            largest_member)
        assert self.run(params, tmp_path / "a") == 3
        assert self.run(params, tmp_path / "b", "--cross-check") == 3

    @pytest.mark.parametrize("period", [1, 3])
    def test_broken_first_history_frontier_exits_three(self, params, tmp_path,
                                                       monkeypatch, period):
        # dropping a point of the first history's batched frontier is
        # caught without --cross-check, at period 1 and at a later period
        frontier_rows = screenopt.phase1.frontier_rows
        calls = []

        def drop_last(stack):
            rows, keep = frontier_rows(stack)
            calls.append(None)
            if len(calls) == period:
                keep[0, np.flatnonzero(keep[0])[-1]] = False
            return rows, keep

        monkeypatch.setattr(screenopt.phase1, "frontier_rows", drop_last)
        assert self.run(params, tmp_path / "x") == 3
        assert len(calls) == period

    def test_member_away_from_representative_exits_three(self, params,
                                                         tmp_path,
                                                         monkeypatch):
        period_values = screenopt.phase1.period_values

        def perturbed(params, segment, evaluator, start):
            at_start, vertex = period_values(params, segment, evaluator,
                                             start)
            if segment.period > 1:
                reps, _ = screenopt.phase1.strategy_classes(vertex)
                member = max(set(range(len(at_start))) - set(reps))
                at_start = at_start.copy()
                at_start[member, 0] += 1e-6
            return at_start, vertex

        monkeypatch.setattr(screenopt.phase1, "period_values", perturbed)
        assert self.run(params, tmp_path / "x") == 3


class TestZeroPositiveProbability:
    """Specificity 1 at one cut-off, with the women's start prevalence at
    the normal vertex: a positive test at that cut-off has probability
    zero."""

    @pytest.fixture()
    def params(self, tmp_path, default_doc):
        doc = small_doc(default_doc)
        doc["fit"]["specificity"]["50"] = 1.0
        doc["prevalence0"]["F"] = {"normal": 1.0, "benign": 0.0,
                                   "large": 0.0, "crc": 0.0}
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(doc))
        return path

    def test_examination_row_is_all_normal(self, params):
        bundle, _ = load_parameters(json.loads(params.read_text()))
        cpts = build_segment_diagram(Segment(Sex.F, 1), bundle,
                                     bundle.starting_prevalence(Sex.F)).cpts
        li = bundle.effective_cutoffs().index("50")
        assert cpts[FIT_RESULT][(li, 1)] == (0.0, 0.0, 1.0)
        assert cpts[EXAM_RESULT][(li, 1, 1)] == (0.0, 1.0, 0.0, 0.0, 0.0)

    def test_commands_exit_zero(self, params, tmp_path):
        assert main(["validate", "--params", str(params)]) == 0
        assert main(["segment", "--sex", "F", "--period", "1",
                     "--params", str(params), "--out", str(tmp_path / "s"),
                     "--cross-check"]) == 0
        assert main(["pipeline", "--budgets", "500,1500,4000",
                     "--params", str(params), "--out", str(tmp_path / "p"),
                     "--cross-check"]) == 0


class TestBaseline:
    def test_baseline_csv(self, small_params, tmp_path):
        out = tmp_path / "base"
        assert main(["baseline", "--params", str(small_params),
                     "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "baseline.csv")
        assert len(rows) == 4  # 2 sexes x 2 periods
        crc_i = header.index("crc")
        by_sex = {}
        for r in rows:
            by_sex.setdefault(r[0], []).append(float(r[crc_i]))
        for series in by_sex.values():
            assert all(a <= b + 1e-15 for a, b in zip(series, series[1:]))


class TestCommandLineErrors:
    @pytest.mark.parametrize("command", [
        ["segment", "--sex", "F", "--period", "1"],
        ["pipeline", "--budgets", "500", "--periods", "1"],
        ["baseline"]])
    @pytest.mark.parametrize("under", [False, True])
    def test_unusable_out_exits_one_naming_the_path(
            self, small_params, tmp_path, capsys, monkeypatch, command,
            under):
        # a file as --out, or a path under a file, gives exit 1 and one
        # stderr line naming the path, not a traceback, before any solve
        def never(*args, **kwargs):
            raise AssertionError("solved before --out was made")

        monkeypatch.setattr(screenopt.cli, "run_phase1", never)
        monkeypatch.setattr(screenopt.cli, "segment_frontier", never)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub" if under else blocker
        assert main([*command, "--params", str(small_params),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("cannot write output: ")
        assert str(out) in err[0]

    @pytest.mark.parametrize("argv", [
        ["pipeline", "--out", "x"],
        ["segment", "--sex", "F", "--period", "abc", "--out", "x"],
        ["nonsense"]])
    def test_usage_error_exits_one(self, capsys, argv):
        # exit 2 means infeasible or over capacity, never a usage error,
        # and in-process callers get a return value, not SystemExit
        assert main(argv) == 1
        assert "usage: screenopt" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, capsys, flag):
        assert main([flag]) == 0
        assert "screenopt" in capsys.readouterr().out


class TestOverflowBound:
    """The loader bounds every total the program computes: a document whose
    cohort total, or whose most expensive path's cost times it, is not
    finite exits 1 before any solve, and one just inside the bound runs
    with no warning and no infinity in its outputs."""

    @staticmethod
    def pipeline(doc, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["pipeline", "--budgets", "500,1500,4000",
                         "--params", str(path), "--out", str(out)])
        return code, out

    @pytest.mark.parametrize("field, section, value", [
        ("costs", "costs", {"colonoscopy": 1e308}),
        ("population", "population", {"F": 1e308, "M": 1e308})])
    def test_overflowing_total_exits_one(self, default_doc, tmp_path, capsys,
                                         field, section, value):
        doc = json.loads(json.dumps(default_doc))
        doc[section].update(value)
        code, out = self.pipeline(doc, tmp_path)
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"validation error: {field}: ")
        assert not out.exists()

    @pytest.mark.parametrize("field", ["costs", "population"])
    def test_document_inside_the_bound_runs_clean(self, default_doc,
                                                  tmp_path, field):
        doc = small_doc(default_doc)
        if field == "costs":
            # the most expensive path's cost times the total cohort size
            # is within 1e-12 of the largest double
            bundle, _ = load_parameters(doc)
            total = sum(sum(sizes) for sizes in bundle.population.values())
            doc["costs"]["colonoscopy"] = \
                sys.float_info.max * (1 - 1e-12) / total
        else:
            # four cohorts summing to 0.8 of the largest double, at no cost
            doc["population"] = {"F": sys.float_info.max / 5,
                                 "M": sys.float_info.max / 5}
            for key, cost in doc["costs"].items():
                doc["costs"][key] = ({k: 0.0 for k in cost}
                                     if isinstance(cost, dict) else 0.0)
        load_parameters(doc)
        code, out = self.pipeline(doc, tmp_path)
        assert code == 0
        for path in sorted(out.iterdir()):
            text = path.read_text()
            assert not re.search(r"\b(inf|nan)\b", text, re.I), path.name


def test_canonical_dump_parses_as_json():
    blob = {"b": [1.0, 0.5, 1e-9], "a": {"nested": True, "x": None},
            "label": "text"}
    text = dumps_canonical(blob)
    parsed = json.loads(text)
    assert parsed["b"] == [1.0, 0.5, 1e-9]
    assert parsed["a"]["nested"] is True
    # keys are sorted in the output
    assert text.index('"a"') < text.index('"b"') < text.index('"label"')


def test_seventeen_digit_floats_roundtrip():
    values = [0.1, 1 / 3, 123456.789, 1e-300, 7.25]
    text = dumps_canonical(values)
    assert json.loads(text) == values
