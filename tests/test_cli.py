"""Command-line behavior: exit codes, file outputs, determinism."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
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
    nudge_dense,
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
    segment_tables,
)


SIX_PERIODS = Path(__file__).resolve().parent / "data" / \
    "synthetic_6period.json"
SEVEN_PERIODS = SIX_PERIODS.with_name("synthetic_7period.json")
BOX_SEARCH_LIMIT = SIX_PERIODS.with_name("box_search_limit.json")


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

    @pytest.mark.parametrize("content", [
        b'{"description": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        b'{"description": "x",}',
        b'{"description": "\xe9"}',
        b'{"description": ' + b"1" * 5000 + b"}"],
        ids=["nesting", "syntax", "utf8", "digits"])
    @pytest.mark.parametrize("command", [
        ["validate"], ["segment", "--sex", "F", "--period", "1"],
        ["pipeline", "--budgets", "8000"], ["baseline"]])
    def test_unparsable_params_file_fails_before_out(self, tmp_path, capsys,
                                                     command, content):
        # nesting too deep for the decoder, a syntax error, a file that is
        # not UTF-8 and an integer past the interpreter's digit limit each
        # give one validation line naming the file, not a traceback or an
        # unnamed "invalid input"
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        out = tmp_path / "out"
        extra = [] if command == ["validate"] else ["--out", str(out)]
        assert main([*command, "--params", str(bad), *extra]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"validation error: {bad}: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["validate"], ["segment", "--sex", "F", "--period", "1"],
        ["pipeline", "--budgets", "8000"], ["baseline"]])
    def test_repeated_key_fails_before_out(self, tmp_path, default_doc,
                                           capsys, command):
        # the later value would otherwise win without a word
        text = json.dumps(default_doc)
        at = text.index('"costs": {') + len('"costs": {')
        bad = tmp_path / "bad.json"
        bad.write_text(text[:at] + '"colonoscopy": 1e9, ' + text[at:])
        out = tmp_path / "out"
        extra = [] if command == ["validate"] else ["--out", str(out)]
        assert main([*command, "--params", str(bad), *extra]) == 1
        assert capsys.readouterr().err == \
            f"validation error: {bad}: repeated key 'colonoscopy'\n"
        assert not out.exists()

    @pytest.mark.parametrize("label", ['"10', "10\r"])
    @pytest.mark.parametrize("command", [
        ["validate"], ["segment", "--sex", "F", "--period", "1"],
        ["pipeline", "--budgets", "8000"], ["baseline"]])
    def test_quote_or_carriage_return_in_label_fails_before_out(
            self, tmp_path, default_doc, capsys, command, label):
        # either character splits or joins the CSV fields of every file
        # that writes the label
        self.assert_label_fails_before_out(
            tmp_path, default_doc, capsys, command, label,
            f"{label!r} is empty or contains a reserved")

    @pytest.mark.parametrize("label", ["10+i", "-"])
    @pytest.mark.parametrize("command", [
        ["validate"], ["segment", "--sex", "F", "--period", "1"],
        ["pipeline", "--budgets", "8000"], ["baseline"]])
    def test_policy_cell_marker_label_fails_before_out(
            self, tmp_path, default_doc, capsys, command, label):
        # with "10" and "10+i" both declared, "10 with incentive" and "10+i
        # without" would render the same policy cell "10+i"; "-" is the
        # cell of a period without invitation
        self.assert_label_fails_before_out(
            tmp_path, default_doc, capsys, command, label,
            f'{label!r} is "-" or contains "+", the policy-table markers')

    @staticmethod
    def assert_label_fails_before_out(tmp_path, default_doc, capsys, command,
                                      label, reason):
        text = json.dumps(default_doc).replace('"10"', json.dumps(label))
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "out"
        extra = [] if command == ["validate"] else ["--out", str(out)]
        assert main([*command, "--params", str(bad), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: fit.cutoffs: label {reason}")
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["validate"], ["segment", "--sex", "F", "--period", "1"],
        ["pipeline", "--budgets", "8000"], ["baseline"]])
    def test_oversized_integer_fails_before_out(self, tmp_path, default_doc,
                                                capsys, command):
        # JSON integers have no size limit; one too large for a float is
        # not finite, as 1e400 would be
        for path, field in (
                (("population", "F"), "population.F"),
                (("costs", "colonoscopy"), "costs.colonoscopy"),
                (("fit", "specificity", "10"), "fit.specificity.10"),
                (("transitions", "F", 0, "large_to_crc"),
                 "transitions.F[0].large_to_crc")):
            doc = json.loads(json.dumps(default_doc))
            section = doc
            for key in path[:-1]:
                section = section[key]
            section[path[-1]] = 10**400
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            out = tmp_path / "out"
            extra = [] if command == ["validate"] else ["--out", str(out)]
            assert main([*command, "--params", str(bad), *extra]) == 1
            assert capsys.readouterr().err == \
                f"validation error: {field}: must be finite\n"
            assert not out.exists()

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

    def test_cross_check_compares_frontiers_exactly(self, small_params,
                                                    tmp_path, monkeypatch):
        # the real brute-force frontier with one value moved by 1e-12
        brute_force = screenopt.phase1.brute_force_frontier

        class Moved:
            def __init__(self, problem):
                self.frontier = brute_force(problem)

            def vectors(self):
                vectors = self.frontier.vectors().copy()
                vectors[0, 0] += 1e-12
                return vectors

        monkeypatch.setattr(screenopt.phase1, "brute_force_frontier", Moved)
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

    def test_decodes_only_the_strategies_written(self, default_bundle,
                                                 tmp_path, monkeypatch):
        # phase 1 keeps strategy numbers: its one decode is the run's
        # evaluator decoding every number at once for its accumulation
        # plan. The writers decode each distinct number that a period's
        # written rows hold once: 80 on the shipped parameters, against
        # 183 class representatives
        decode = screenopt.diagram.StrategyEvaluator.strategy
        calls = []

        def counting(self, index):
            calls.append(index)
            return decode(self, index)

        monkeypatch.setattr(screenopt.diagram.StrategyEvaluator, "strategy",
                            counting)
        tables = screenopt.phase1.run_phase1(default_bundle, budget=20000.0)
        every = np.arange(tables[Sex.F].problem.n_candidates)
        assert len(calls) == 1 and np.array_equal(calls[0], every)
        written = sum(len(np.unique(t.strategy[rows]))
                      for table in tables.values()
                      for t, rows in table.lineage(np.arange(len(table))))
        calls.clear()
        assert main(["pipeline", "--budgets", "8000,12000,16000,20000",
                     "--out", str(tmp_path / "x")]) == 0
        assert np.array_equal(calls[0], every)
        assert all(type(number) is int for number in calls[1:])
        assert len(calls) - 1 == written <= 87

    def test_renders_each_written_ancestor_row_once(self, tmp_path,
                                                    monkeypatch):
        # a prevalence block is four float reprs, rendered once per
        # distinct ancestor row that a written row descends from: 2,773
        # and 2,634 on the shipped parameters, of the 2,859 and 2,697 rows
        # of the ancestor tables
        reprs = []
        monkeypatch.setattr(screenopt.cli, "repr",
                            lambda value: reprs.append(value) or repr(value),
                            raising=False)
        blocks = {}
        history_rows = screenopt.cli._history_rows

        def counting(table, cutoffs, kept):
            # the lines are rendered as the histories writer reads them
            before = len(reprs)
            yield from history_rows(table, cutoffs, kept)
            blocks[table.sex] = (len(reprs) - before) / 4

        monkeypatch.setattr(screenopt.cli, "_history_rows", counting)
        assert main(["pipeline", "--budgets", "8000,12000,16000,20000",
                     "--out", str(tmp_path / "x")]) == 0
        assert blocks == {Sex.F: 2773, Sex.M: 2634}

    def test_writers_walk_each_lineage_once(self, small_params, tmp_path,
                                            monkeypatch):
        # after phase 1, one lineage walk per sex renders all six files
        lineage = screenopt.phase1.HistoryTable.lineage
        phase1 = screenopt.cli.run_phase1
        walks, sizes = [], []

        def counting(self, rows):
            walks.append((self.sex, self.period, len(rows)))
            return lineage(self, rows)

        def run(*args, **kwargs):
            tables = phase1(*args, **kwargs)
            walks.clear()
            sizes.extend(len(tables[sex]) for sex in (Sex.F, Sex.M))
            return tables

        monkeypatch.setattr(screenopt.phase1.HistoryTable, "lineage",
                            counting)
        monkeypatch.setattr(screenopt.cli, "run_phase1", run)
        assert main(["pipeline", "--budgets", "500,1500,1500,4000",
                     "--params", str(small_params),
                     "--out", str(tmp_path / "x")]) == 0
        assert walks == [(Sex.F, 2, sizes[0]), (Sex.M, 2, sizes[1])]

    @pytest.mark.parametrize("mask, feasible", [
        ("colonoscopy,crc_found", True),
        # no history fits: each budget names its cheapest pair
        ("benign_found,large_found,crc_found", False)])
    def test_case_files_get_only_the_selected_rows(self, small_params,
                                                   tmp_path, monkeypatch,
                                                   mask, feasible):
        # the histories files hold every row, the case writer only the rows
        # that a budget selects
        sweep, cases = screenopt.cli.budget_sweep, screenopt.cli._write_cases
        results, rows = [], {}

        def swept(problem, budgets):
            results.extend(sweep(problem, budgets))
            return results

        def writer(out, digest, bundle, results, kept, periods):
            rows.update(kept)
            return cases(out, digest, bundle, results, kept, periods)

        monkeypatch.setattr(screenopt.cli, "budget_sweep", swept)
        monkeypatch.setattr(screenopt.cli, "_write_cases", writer)
        out = tmp_path / "x"
        assert main(["pipeline", "--budgets", "1,1000,2000,3000,3000,6000",
                     "--objective-mask", mask,
                     "--params", str(small_params), "--out", str(out)]) == 0
        assert {res.feasible for res in results} == {feasible}
        assert set(rows) == {Sex.F, Sex.M}
        for sex, index in ((Sex.F, "female_index"), (Sex.M, "male_index")):
            selected = {getattr(res, index) for res in results}
            assert sorted(rows[sex]) == sorted(selected)
            _, header, lines = read_csv(out / f"histories_{sex.value}.csv")
            if feasible:
                assert 3 < len(selected) < len(lines)
            for i, (cells, key, totals) in rows[sex].items():
                assert lines[i][header.index("key")] == key
                assert cells.replace(",", "|") == key.split("#")[0]
                assert len(totals) == 2
                assert totals[-1] == float(
                    lines[i][header.index("total_cancer_prevalence")])

    def test_writers_peak_below_phase_one(self, tmp_path, monkeypatch):
        # after phase 1, the budget sweep and the six files stay below
        # phase 1's own traced peak on the 6-period document: each file is
        # streamed row by row and only the selected rows are kept
        phase1 = screenopt.cli.run_phase1
        peaks = []

        def run(*args, **kwargs):
            tracemalloc.reset_peak()
            tables = phase1(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return tables

        monkeypatch.setattr(screenopt.cli, "run_phase1", run)
        tracemalloc.start()
        try:
            assert main(["pipeline", "--params", str(SIX_PERIODS),
                         "--budgets", "8000,12000,16000,20000",
                         "--out", str(tmp_path / "x")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] < peaks[0]

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
        # nonzero values one ulp up at every history but each period's
        # first (whose dense row must be its array-path row bit for bit)
        # stay within the linearity bound, a relative 1e-12 leaves it
        dense = screenopt.diagram.StrategyEvaluator.dense_objective_matrix
        argv = ["pipeline", "--budgets", "500,1500,4000",
                "--params", str(small_params), "--out", str(tmp_path / "x"),
                "--cross-check"]
        nudge_dense(monkeypatch, one_ulp, first=False)
        assert main(argv) == 0
        monkeypatch.setattr(
            screenopt.diagram.StrategyEvaluator, "dense_objective_matrix",
            lambda self, tables: dense(self, tables) * (1 + 1e-12))
        assert main(argv) == 3

    def test_cross_check_compares_the_first_start_bit_for_bit(
            self, small_params, tmp_path, monkeypatch, capsys):
        # one ulp at each period's first history is within the linearity
        # bound; only the bit-for-bit comparison with the array-path row
        # that the run already evaluated catches it
        nudge_dense(monkeypatch, one_ulp, first=True)
        for flags, code in (([], 0), (["--cross-check"], 3)):
            assert main(["pipeline", "--budgets", "500,1500,4000",
                         "--params", str(small_params),
                         "--out", str(tmp_path / "x"), *flags]) == code
        assert "first start's dense evaluation differs" in \
            capsys.readouterr().err

    def test_cross_check_checks_every_history(self, small_params, tmp_path,
                                              monkeypatch, capsys):
        # the dense evaluation off by a relative 1e-12 at every history but
        # each period's first: only checking every history catches it
        nudge_dense(monkeypatch, lambda m: m * (1 + 1e-12), first=False)
        for flags, code in (([], 0), (["--cross-check"], 3)):
            assert main(["pipeline", "--budgets", "500,1500,4000",
                         "--params", str(small_params),
                         "--out", str(tmp_path / "x"), *flags]) == code
        assert re.search(r"dense evaluation .* at history [1-9]",
                         capsys.readouterr().err)

    @pytest.mark.parametrize("flags", [[], ["--fix-exam", "--no-incentive"]])
    def test_cross_check_writes_the_same_outputs(self, small_params,
                                                 tmp_path, flags):
        # every output but the manifest's cross_check flag is the plain
        # run's bytes
        runs = []
        for extra in ([], ["--cross-check"]):
            out = tmp_path / f"run{len(runs)}"
            assert main(["pipeline", "--budgets", "500,1500,4000",
                         "--params", str(small_params), "--out", str(out),
                         *flags, *extra]) == 0
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        plain, checked = runs
        manifest = checked.pop("manifest.json")
        assert b'"cross_check":true' in manifest
        assert manifest.replace(b'"cross_check":true',
                                b'"cross_check":false') == \
            plain.pop("manifest.json")
        assert checked == plain

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


#: Seeds of the ``random_params_doc`` draws the metamorphic relations run
#: on, besides the committed documents.
METAMORPHIC_SEEDS = (1, 2, 3)


def metamorphic_case(params) -> tuple[dict, tuple[float, ...]]:
    """The document and the four budgets of a metamorphic case: a committed
    document at 8,000 to 20,000 examinations, or the three-period
    ``random_params_doc`` draw of a seed at 500 to 4,000, where its
    smaller cohorts make the budgets bind."""
    if isinstance(params, int):
        doc = random_params_doc(np.random.default_rng(params), periods=3,
                                monotone=params % 2 == 1, fix_exam=False)
        return doc, (500.0, 1000.0, 2000.0, 4000.0)
    return (json.loads(Path(params).read_text()),
            (8000.0, 12000.0, 16000.0, 20000.0))


class TestPopulationScaling:
    """Metamorphic relation: doubling both cohort sizes and every budget
    doubles every colonoscopy, cost and budget value exactly and leaves
    every key, index and prevalence unchanged. Cohort sizes enter only as
    factors and weights, and scaling by two is exact in binary floats.

    Where it is not exact: ``BUDGET_TOL`` is absolute, not scaled, so a
    history whose examinations exceed a budget by between half the
    tolerance and the tolerance is kept at the base scale and dropped at
    twice it. The committed documents and the seeded draws have none."""

    NAMES = ("histories_F.csv", "histories_M.csv", "selection.csv",
             "policy_table.csv", "prevalence_series.csv")
    DOUBLED = {"budget", "cumulative_colonoscopies", "total_colonoscopies",
               "total_cost"}

    @pytest.mark.parametrize("params", [
        screenopt.cli.default_params_path(), SIX_PERIODS, *METAMORPHIC_SEEDS],
        ids=["shipped", "six_periods",
             *(f"random_{seed}" for seed in METAMORPHIC_SEEDS)])
    def test_doubled_cohorts_and_budgets(self, tmp_path, params):
        doc, budget_list = metamorphic_case(params)
        source = tmp_path / "base.json"
        source.write_text(json.dumps(doc))
        doc["population"] = {
            sex: [2 * s for s in size] if isinstance(size, list) else 2 * size
            for sex, size in doc["population"].items()}
        scaled = tmp_path / "scaled.json"
        scaled.write_text(json.dumps(doc))
        runs = {}
        for name, path, scale in (("base", source, 1), ("twice", scaled, 2)):
            runs[name] = tmp_path / name
            budgets = ",".join(repr(scale * b) for b in budget_list)
            assert main(["pipeline", "--params", str(path), "--budgets",
                         budgets, "--out", str(runs[name])]) == 0
        for name in self.NAMES:
            _, header, base = read_csv(runs["base"] / name)
            _, twice_header, twice = read_csv(runs["twice"] / name)
            assert twice_header == header and len(twice) == len(base) > 0
            doubled_cols = [c in self.DOUBLED for c in header]
            mismatches = [
                (name, row, header[c])
                for row, (a, b) in enumerate(zip(base, twice))
                for c, (x, y) in enumerate(zip(a, b))
                if (float(y) != 2 * float(x) if doubled_cols[c] and x
                    else y != x)]
            assert not mismatches, mismatches[:5]


class TestSexSwap:
    """Metamorphic relation: swapping the women's and the men's starting
    prevalence, transitions, cohort sizes, return and contact rates swaps
    the two sexes in every output and changes no value. The sexes share
    every other parameter, and a sum of the two sexes' values is the same
    either way round.

    Where it is not exact: phase 2 breaks an exact tie between pairs on the
    female index first, so two pairs equal in cancers, examinations and
    cost can select differently once the sexes swap. The committed
    documents and the seeded draws have no such tie."""

    SWAPPED = {"F": "M", "M": "F"}

    @staticmethod
    def swapped(doc):
        doc = json.loads(json.dumps(doc))
        for section in (doc["prevalence0"], doc["transitions"],
                        doc["population"], doc["participation"]["return"],
                        doc["participation"]["contact"]):
            section["F"], section["M"] = section["M"], section["F"]
        return doc

    @pytest.mark.parametrize("params", [
        screenopt.cli.default_params_path(), SIX_PERIODS, SEVEN_PERIODS,
        *METAMORPHIC_SEEDS],
        ids=["shipped", "six_periods", "seven_periods",
             *(f"random_{seed}" for seed in METAMORPHIC_SEEDS)])
    def test_swapped_sexes_swap_every_output(self, tmp_path, params):
        document, budgets = metamorphic_case(params)
        source = tmp_path / "base.json"
        source.write_text(json.dumps(document))
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(self.swapped(document)))
        runs = {}
        for name, doc in (("base", source), ("swap", path)):
            runs[name] = tmp_path / name
            assert main(["pipeline", "--params", str(doc), "--budgets",
                         ",".join(map(repr, budgets)),
                         "--out", str(runs[name])]) == 0
        for sex, other in self.SWAPPED.items():
            assert read_csv(runs["base"] / f"histories_{sex}.csv")[1:] == \
                read_csv(runs["swap"] / f"histories_{other}.csv")[1:]

        _, header, base = read_csv(runs["base"] / "selection.csv")
        _, swap_header, swap = read_csv(runs["swap"] / "selection.csv")
        assert swap_header == header and len(base) == 4
        female = [header.index(c) for c in ("female_index", "female_key")]
        male = [header.index(c) for c in ("male_index", "male_key")]
        for a, b in zip(base, swap):
            assert [a[c] for c in female] == [b[c] for c in male]
            assert [a[c] for c in male] == [b[c] for c in female]
            assert [x for c, x in enumerate(a) if c not in female + male] \
                == [x for c, x in enumerate(b) if c not in female + male]

        for name in ("policy_table.csv", "prevalence_series.csv"):
            _, header, base = read_csv(runs["base"] / name)
            _, swap_header, swap = read_csv(runs["swap"] / name)
            assert swap_header == header and len(swap) == len(base)
            at = header.index("sex")
            for sex in {row[at] for row in base}:
                rows = [[x for c, x in enumerate(row) if c != at]
                        for row in base if row[at] == sex]
                assert rows == [
                    [x for c, x in enumerate(row) if c != at]
                    for row in swap
                    if row[at] == self.SWAPPED.get(sex, sex)], (name, sex)


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
        li = bundle.fit.cutoffs.index("50")
        assert cpts[FIT_RESULT][li, 1].tolist() == [0.0, 0.0, 1.0]
        assert cpts[EXAM_RESULT][li, 1, 1].tolist() == \
            [0.0, 1.0, 0.0, 0.0, 0.0]

    def test_commands_exit_zero(self, params, tmp_path):
        assert main(["validate", "--params", str(params)]) == 0
        assert main(["segment", "--sex", "F", "--period", "1",
                     "--params", str(params), "--out", str(tmp_path / "s"),
                     "--cross-check"]) == 0
        assert main(["pipeline", "--budgets", "500,1500,4000",
                     "--params", str(params), "--out", str(tmp_path / "p"),
                     "--cross-check"]) == 0


class TestStrategyEncodings:
    """The strategy column of the shipped segment frontiers, pinned as
    text: every rule rendered in node and information-state order."""

    GOLDEN = Path(__file__).resolve().parent / "data" / \
        "strategy_encodings.csv"

    @pytest.mark.parametrize("flags", [
        "", "--fix-exam", "--no-incentive", "--fix-exam --no-incentive"])
    def test_strategy_column_matches_golden(self, tmp_path, flags):
        lines = self.GOLDEN.read_text().splitlines()
        assert lines[0] == "flags,file,strategy"
        for sex, period in (("F", "1"), ("M", "5")):
            name = f"frontier_{sex}_{period}.csv"
            assert main(["segment", "--sex", sex, "--period", period,
                         *flags.split(), "--out", str(tmp_path)]) == 0
            _, _, rows = read_csv(tmp_path / name)
            want = [line.split(",")[2] for line in lines[1:]
                    if line.split(",")[:2] == [flags, name]]
            assert want and [row[0] for row in rows] == want, (flags, name)


class TestOutputDigests:
    """The SHA-256 of every CSV that ``pipeline``, ``segment`` and
    ``baseline`` write on the shipped and 7-period documents, and that two
    more ``pipeline`` runs write on the shipped document, pinned byte for
    byte: the benchmark's budget curve and an objective mask."""

    GOLDEN = Path(__file__).resolve().parent / "data" / "output_digests.csv"
    DOCUMENTS = {"synthetic_default.json": None,
                 "synthetic_7period.json": SEVEN_PERIODS}
    BUDGETS = "8000,12000,16000,20000"
    #: The benchmark's budget curve: 1,000 budgets from 4,000 to 20,000.
    CURVE = ",".join(repr(4000.0 + 16000.0 * i / 999) for i in range(1000))

    def golden(self, document, flags) -> set[tuple[str, ...]]:
        with self.GOLDEN.open(newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["command", "document", "flags", "file", "sha256"]
        want = {tuple(row) for row in rows[1:]
                if row[1:3] == [document, flags]}
        assert want
        return want

    @staticmethod
    def digests(tmp_path, document, flags) -> set[tuple[str, ...]]:
        return {(out.name, document, flags, path.name,
                 hashlib.sha256(path.read_bytes()).hexdigest())
                for out in tmp_path.iterdir() for path in out.glob("*.csv")}

    @pytest.mark.parametrize("flags", ["", "--fix-exam --no-incentive"])
    @pytest.mark.parametrize("document", sorted(DOCUMENTS))
    def test_outputs_match_golden_digests(self, tmp_path, document, flags):
        path = self.DOCUMENTS[document]
        params = [] if path is None else ["--params", str(path)]
        runs = [("pipeline", ["--budgets", self.BUDGETS]),
                ("segment", ["--sex", "F", "--period", "1"]),
                ("segment", ["--sex", "M", "--period", "5"])]
        if not flags:  # baseline takes no model flags
            runs.append(("baseline", []))
        for command, argv in runs:
            assert main([command, *params, *flags.split(), *argv,
                         "--out", str(tmp_path / command)]) == 0
        assert self.digests(tmp_path, document, flags) == \
            self.golden(document, flags)

    @pytest.mark.parametrize("flags, budgets", [
        ("--periods 4", CURVE),
        ("--objective-mask cost,colonoscopy,crc_found", BUDGETS)],
        ids=["budget_curve", "objective_mask"])
    def test_shipped_pipeline_runs_match_golden_digests(self, tmp_path, flags,
                                                        budgets):
        assert main(["pipeline", *flags.split(), "--budgets", budgets,
                     "--out", str(tmp_path / "pipeline")]) == 0
        document = "synthetic_default.json"
        assert self.digests(tmp_path, document, flags) == \
            self.golden(document, flags)


#: Seeds of the random documents whose histories keys are checked.
KEY_SEEDS = (401, 402, 403)


class TestHistoryKeys:
    """Every row of a histories file has a key of its own. A policy cell
    names one (cut-off, incentive, invitation, examination of a positive
    test) choice; only that examination decision is reachable, so the
    strategies of one cell evaluate to the same bits and form one class.
    Each row is a distinct lineage of class representatives, so no two
    rows share their cells."""

    @pytest.mark.parametrize("flags", [
        "", "--fix-exam", "--no-incentive", "--fix-exam --no-incentive"])
    @pytest.mark.parametrize("params", [
        screenopt.cli.default_params_path(), SIX_PERIODS, SEVEN_PERIODS,
        BOX_SEARCH_LIMIT], ids=["shipped", "six_periods", "seven_periods",
                                "box_search_limit"])
    def test_committed_documents(self, tmp_path, params, flags):
        self.assert_keys_distinct(tmp_path, params, flags.split())

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_random_documents(self, tmp_path, seed):
        doc = random_params_doc(np.random.default_rng(seed), periods=3,
                                n_cutoffs=4, monotone=False, fix_exam=False)
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        self.assert_keys_distinct(tmp_path, path, [])

    @staticmethod
    def assert_keys_distinct(tmp_path, params, flags):
        out = tmp_path / "run"
        assert main(["pipeline", "--params", str(params), *flags,
                     "--budgets", "1e9", "--out", str(out)]) == 0
        for sex in ("F", "M"):
            _, header, rows = read_csv(out / f"histories_{sex}.csv")
            keys = [row[header.index("key")] for row in rows]
            assert len(set(keys)) == len(keys) > 1


class TestTinySensitivity:
    """A test sensitivity far below the tolerances at one cut-off: at the
    state's simplex vertex a positive test has just that probability, and
    its examination row must still be computed, or the vertex sum loses
    that state's detections and the linearity certificate stops the run."""

    @pytest.fixture(params=["benign", "large", "crc"])
    def state(self, request):
        return request.param

    @pytest.fixture(params=[1e-15, 1e-300])
    def params(self, tmp_path, default_doc, state, request):
        doc = small_doc(default_doc)
        doc["fit"]["sensitivity"][state]["50"] = request.param
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        return path

    def test_vertex_row_finds_the_state(self, params, state):
        bundle, _ = load_parameters(json.loads(params.read_text()))
        column = 1 + ["benign", "large", "crc"].index(state)
        exam = segment_tables(bundle, Segment(Sex.F, 1),
                              np.eye(4)[None, column])[EXAM_RESULT]
        li = bundle.fit.cutoffs.index("50")
        want = bundle.colonoscopy.sensitivity[state]
        assert exam[0, li, 1, 1, 1 + column] == want
        assert exam[0, li, 1, 1, 1] == 1.0 - want

    def test_commands_exit_zero(self, params, tmp_path):
        assert main(["validate", "--params", str(params)]) == 0
        assert main(["segment", "--sex", "F", "--period", "1",
                     "--params", str(params), "--out", str(tmp_path / "s"),
                     "--cross-check"]) == 0
        assert main(["pipeline", "--budgets", "500,1500,4000",
                     "--params", str(params),
                     "--out", str(tmp_path / "p")]) == 0


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


class TestRolloutRows:
    """``validate`` and ``segment --period k`` build period k's diagram at
    row k - 1 of the no-screening rollout that ``baseline.csv`` writes:
    at that period's ``start_*`` prevalence, bit for bit."""

    @pytest.mark.parametrize("params", [
        screenopt.cli.default_params_path(), SIX_PERIODS],
        ids=["shipped", "six_periods"])
    def test_diagrams_start_at_the_baseline_rows(self, tmp_path, monkeypatch,
                                                 params):
        assert main(["baseline", "--params", str(params),
                     "--out", str(tmp_path)]) == 0
        _, header, rows = read_csv(tmp_path / "baseline.csv")
        at = [header.index(f"start_{state}")
              for state in ("normal", "benign", "large", "crc")]
        want = {(row[0], int(row[1])): [row[c] for c in at] for row in rows}
        assert len(want) == len(rows) >= 10

        built, solved = {}, {}
        build = screenopt.cli.build_segment_diagram
        solve = screenopt.cli.segment_frontier

        def building(segment, bundle, psi):
            built[segment.sex.value, segment.period] = \
                list(map(repr, psi.tolist()))
            return build(segment, bundle, psi)

        def solving(bundle, segment, psi, *args):
            solved[segment.sex.value, segment.period] = \
                list(map(repr, psi.tolist()))
            return solve(bundle, segment, psi, *args)

        monkeypatch.setattr(screenopt.cli, "build_segment_diagram", building)
        monkeypatch.setattr(screenopt.cli, "segment_frontier", solving)
        assert main(["validate", "--params", str(params)]) == 0
        assert built == want
        for sex, period in want:
            assert main(["segment", "--params", str(params), "--sex", sex,
                         "--period", str(period),
                         "--out", str(tmp_path / "segment")]) == 0
        assert solved == want


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
