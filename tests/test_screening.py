"""Screening model: test-characteristic formulas, diagram structure, loader.

Claims covered:
    - positive-test probability is the sensitivity/specificity mixture
    - posteriors are Bayes-normalized; examination rows conserve mass
    - the sample-return row implements the non-return-halving incentive
    - no invitation means exactly zero cost, examinations and detections
    - the diagram follows the ten-stage structure with its information sets
    - lower cut-offs weakly increase examinations and detections when the
      test characteristics are monotone
    - the parameter loader is strict, path-precise and reports defaults
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import random_params_doc, random_prevalence, with_cutoffs
from oracles import (
    BENIGN,
    CRC,
    LARGE,
    colonoscopy_result_row,
    fit_positive_probability,
    objective,
    posterior_given_positive,
    scalar_prevalence_cpts,
)
from screenopt.diagram import expected_values, validate_diagram
from screenopt.errors import ParameterError
from screenopt.screening import (
    ADVERSE,
    BENIGN_NODE,
    BowelState,
    COL_NODE,
    CONTACT,
    COST_NODE,
    CRC_NODE,
    CUTOFF,
    EXAM,
    EXAM_RESULT,
    FIT_RESULT,
    INCENTIVE,
    INVITE,
    LARGE_NODE,
    POLYP,
    SAMPLE,
    ColonoscopyCharacteristics,
    FitTestCharacteristics,
    Segment,
    Sex,
    build_segment_diagram,
    fixed_decision_rules,
    load_parameters,
    segment_tables,
)

DATA = Path(__file__).resolve().parent / "data"
DERIVED_PSI = np.array([0.9, 0.06, 0.03, 0.01])  # normal, benign, large, crc


def fit_single(cutoff="25", benign=0.3, large=0.6, crc=0.8, specificity=0.95):
    return FitTestCharacteristics(
        unit="ug/g",
        cutoffs=(cutoff,),
        sensitivity={"benign": {cutoff: benign},
                     "large": {cutoff: large},
                     "crc": {cutoff: crc}},
        specificity={cutoff: specificity},
    )


class TestFitPositiveProbability:
    def test_all_normal_perfect_specificity(self):
        fit = fit_single(specificity=1.0)
        psi = np.array([1.0, 0.0, 0.0, 0.0])
        assert fit_positive_probability(fit, "25", psi) == 0.0

    def test_all_cancer_perfect_sensitivity(self):
        fit = fit_single(crc=1.0)
        psi = np.array([0.0, 0.0, 0.0, 1.0])
        assert fit_positive_probability(fit, "25", psi) == 1.0

    def test_hand_sum(self):
        # 0.9*0.05 + 0.06*0.3 + 0.03*0.6 + 0.01*0.8 = 0.089
        fit = fit_single()
        assert fit_positive_probability(fit, "25", DERIVED_PSI) == \
            pytest.approx(0.089, abs=1e-15)

    def test_unknown_cutoff(self):
        with pytest.raises(KeyError):
            fit_positive_probability(fit_single(), "999", DERIVED_PSI)


class TestPosterior:
    def test_point_mass_cancer(self):
        fit = fit_single()
        psi = np.array([0.0, 0.0, 0.0, 1.0])
        assert posterior_given_positive(fit, "25", psi, BowelState.CRC) == 1.0

    def test_symmetric_two_state(self):
        fit = fit_single(benign=0.6, large=0.6, specificity=1.0)
        psi = np.array([0.0, 0.5, 0.5, 0.0])
        for state in (BowelState.BENIGN, BowelState.LARGE):
            assert posterior_given_positive(fit, "25", psi, state) == \
                pytest.approx(0.5)

    def test_hand_fractions(self):
        fit = fit_single()
        expect = {
            BowelState.NORMAL: 0.045 / 0.089,
            BowelState.BENIGN: 0.018 / 0.089,
            BowelState.LARGE: 0.018 / 0.089,
            BowelState.CRC: 0.008 / 0.089,
        }
        for state, value in expect.items():
            assert posterior_given_positive(fit, "25", DERIVED_PSI, state) == \
                pytest.approx(value, abs=1e-12)

    def test_normalization_over_random_draws(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            fit = fit_single(benign=rng.uniform(0.05, 0.9),
                             large=rng.uniform(0.05, 0.9),
                             crc=rng.uniform(0.05, 0.99),
                             specificity=rng.uniform(0.5, 0.999))
            raw = rng.uniform(0.01, 1.0, size=4)
            raw /= raw.sum()
            psi = raw
            total = math.fsum(
                posterior_given_positive(fit, "25", psi, s) for s in BowelState)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_zero_positive_probability_guard(self):
        fit = fit_single(specificity=1.0)
        psi = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ZeroDivisionError):
            posterior_given_positive(fit, "25", psi, BowelState.CRC)


class TestColonoscopyRow:
    col_perfect = ColonoscopyCharacteristics(
        sensitivity={"benign": 1.0, "large": 1.0, "crc": 1.0},
        bleed=0.0, perforation_with_polypectomy=0.0,
        perforation_without_polypectomy=0.0)

    def test_perfect_examination_returns_posterior(self):
        fit = fit_single()
        row = colonoscopy_result_row(fit, self.col_perfect, "25", DERIVED_PSI)
        posterior = [posterior_given_positive(fit, "25", DERIVED_PSI, s)
                     for s in BowelState]
        assert row[0] == 0.0
        assert row[1:] == pytest.approx(tuple(posterior), abs=1e-12)

    def test_blind_examination_reports_normal(self):
        col = ColonoscopyCharacteristics(
            sensitivity={"benign": 0.0, "large": 0.0, "crc": 0.0},
            bleed=0.0, perforation_with_polypectomy=0.0,
            perforation_without_polypectomy=0.0)
        row = colonoscopy_result_row(fit_single(), col, "25", DERIVED_PSI)
        assert row == (0.0, 1.0, 0.0, 0.0, 0.0)

    def test_mixed_sensitivities_hand_product(self):
        fit = fit_single()
        col = ColonoscopyCharacteristics(
            sensitivity={"benign": 0.8, "large": 0.9, "crc": 0.95},
            bleed=0.0, perforation_with_polypectomy=0.0,
            perforation_without_polypectomy=0.0)
        row = colonoscopy_result_row(fit, col, "25", DERIVED_PSI)
        benign = 0.8 * 0.018 / 0.089
        large = 0.9 * 0.018 / 0.089
        crc = 0.95 * 0.008 / 0.089
        assert row[2] == pytest.approx(benign, abs=1e-12)
        assert row[3] == pytest.approx(large, abs=1e-12)
        assert row[4] == pytest.approx(crc, abs=1e-12)
        assert row[1] == pytest.approx(1.0 - benign - large - crc, abs=1e-12)
        assert math.fsum(row) == pytest.approx(1.0, abs=1e-12)


def row(table, *info) -> tuple[float, ...]:
    """One CPT row of a diagram table, as a tuple of Python floats."""
    return tuple(table[info].tolist())


def constant_strategy(diagram, cutoff=0, incentive=0, invite=1,
                      exam_on_contact=1):
    # the examination rule is indexed (test result, contact)
    return {CUTOFF: np.array(cutoff), INCENTIVE: np.array(incentive),
            INVITE: np.array(invite),
            EXAM: np.tile([0, exam_on_contact], (3, 1))}


class TestPrevalenceTables:
    """The columnar tables repeat the scalar formulas bit for bit, sign
    bits included, and a segment diagram's dict tables are their one-row
    case."""

    @staticmethod
    def assert_same_bits(got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_rows_equal_scalar_formulas(self):
        rng = np.random.default_rng(307)
        for trial in range(24):
            n_cutoffs = int(rng.integers(2, 6))
            doc = random_params_doc(rng, periods=1, n_cutoffs=n_cutoffs,
                                    monotone=bool(trial % 2))
            cutoffs = doc["fit"]["cutoffs"]
            zero_at = int(rng.integers(0, n_cutoffs))
            if trial % 3 == 0:
                # no false positives at one cut-off: at the normal vertex
                # its positive-test probability is zero
                doc["fit"]["specificity"][cutoffs[zero_at]] = 1.0
            if trial % 4 == 1:
                with_cutoffs(doc, [c for i, c in enumerate(cutoffs)
                                   if i == zero_at or rng.random() < 0.5])
            bundle, _ = load_parameters(doc)
            psis = [random_prevalence(rng) for _ in range(5)]
            psis += list(np.eye(4))
            tables = self.assert_rows_equal_scalar_formulas(bundle, psis)
            if trial % 3 == 0:
                li = bundle.fit.cutoffs.index(cutoffs[zero_at])
                normal = len(psis) - 4
                assert tables[FIT_RESULT][normal, li, 1, 1] == 0.0
                self.assert_same_bits(tables[EXAM_RESULT][normal, li, 1, 1],
                                      (0.0, 1.0, 0.0, 0.0, 0.0))

    def test_reversed_shipped_cutoffs_keep_their_characteristics(
            self, default_doc):
        # the scalar oracle reads each label's own sensitivities and
        # specificity, so a table that took them in another order than the
        # declared one differs from it
        doc = json.loads(json.dumps(default_doc))
        with_cutoffs(doc, doc["fit"]["cutoffs"][::-1])
        bundle, _ = load_parameters(doc)
        psis = [bundle.starting_prevalence(sex) for sex in (Sex.F, Sex.M)]
        self.assert_rows_equal_scalar_formulas(bundle, psis + list(np.eye(4)))

    def assert_rows_equal_scalar_formulas(self, bundle, psis):
        """The segment tables of ``psis``, checked row by row against the
        scalar oracle and a fresh diagram's tables."""
        tables = segment_tables(bundle, Segment(Sex.F, 1), np.array(psis))
        for h, psi in enumerate(psis):
            want = scalar_prevalence_cpts(bundle, psi)
            got = build_segment_diagram(Segment(Sex.F, 1), bundle, psi).cpts
            for node_id, table in want.items():
                assert got[node_id].shape == tables[node_id].shape[1:]
                assert sorted(table) == list(
                    np.ndindex(got[node_id].shape[:-1]))
                for info, row in table.items():
                    self.assert_same_bits(tables[node_id][(h,) + info], row)
                    self.assert_same_bits(got[node_id][info], row)
        return tables


class TestSegmentDiagram:
    def test_structure_matches_screening_pathway(self, small_bundle):
        d = build_segment_diagram(Segment(Sex.F, 1), small_bundle,
                                  small_bundle.starting_prevalence(Sex.F))
        assert validate_diagram(d) == []
        by_id = d.by_id
        assert by_id[SAMPLE].predecessors == (INCENTIVE, INVITE)
        assert by_id[FIT_RESULT].predecessors == (CUTOFF, SAMPLE)
        assert by_id[CONTACT].predecessors == (FIT_RESULT,)
        assert by_id[EXAM].predecessors == (FIT_RESULT, CONTACT)
        assert by_id[EXAM_RESULT].predecessors == (CUTOFF, CONTACT, EXAM)
        assert by_id[POLYP].predecessors == (EXAM_RESULT,)
        assert by_id[ADVERSE].predecessors == (POLYP,)

    def test_path_and_strategy_counts(self, default_bundle):
        d = build_segment_diagram(Segment(Sex.M, 1), default_bundle,
                                  default_bundle.starting_prevalence(Sex.M))
        sizes = [len(n.states) for n in d.path_nodes]
        assert sizes == [5, 2, 2, 2, 3, 2, 2, 5, 3, 3]
        assert math.prod(sizes) == 21600
        # decisions 1-3 carry no information; the examination sees 3*2 states
        assert d.strategy_count() == 5 * 2 * 2 * 2 ** 6 == 1280

    @staticmethod
    def stage_cost(costs, s2, s3, s4, s7, s8, s9, s10) -> float:
        """One path's cost, one stage at a time."""
        total = 0.0
        if s3 == 1:
            total += costs.invitation
            if s2 == 1:
                total += costs.incentive
        if s4 == 1:
            total += costs.lab_analysis
        if s7 == 1 and s8 != 0:
            total += costs.colonoscopy
        total += (0.0, costs.exam_result["normal"],
                  costs.exam_result["benign"], costs.exam_result["large"],
                  costs.exam_result["crc"])[s8]
        if s9 == 2:
            total += costs.polypectomy
        total += (0.0, costs.adverse_event["bleed"],
                  costs.adverse_event["perforation"])[s10]
        return total

    def test_value_mappings_equal_stage_sums(self, default_bundle):
        rng = np.random.default_rng(313)
        bundles = [default_bundle] + [
            load_parameters(random_params_doc(rng, periods=1, n_cutoffs=2))[0]
            for _ in range(3)]
        for bundle in bundles:
            d = build_segment_diagram(Segment(Sex.F, 1), bundle, DERIVED_PSI)
            want = {
                COST_NODE: lambda info: self.stage_cost(bundle.costs, *info),
                COL_NODE: lambda info: -1.0 if info == (1, 1) else 0.0,
                BENIGN_NODE: lambda info: 1.0 if info == (2,) else 0.0,
                LARGE_NODE: lambda info: 1.0 if info == (3,) else 0.0,
                CRC_NODE: lambda info: 1.0 if info == (4,) else 0.0,
            }
            assert sorted(d.values) == sorted(want)
            for node in d.value_nodes:
                table = d.values[node.node_id].table
                assert table.shape == d.info_shape(node)
                for info in d.info_states(node):
                    assert table[info] == want[node.node_id](info), \
                        (node.node_id, info)

    def test_default_cutoff_labels(self, default_bundle):
        assert default_bundle.fit.cutoffs == ("10", "20", "25", "40", "50")
        assert default_bundle.fit.unit == "ug/g"

    def test_cpt_rows_sum_to_one(self, default_bundle):
        d = build_segment_diagram(Segment(Sex.F, 3), default_bundle,
                                  default_bundle.starting_prevalence(Sex.F))
        for nid, table in d.cpts.items():
            for info in np.ndindex(table.shape[:-1]):
                assert math.fsum(table[info].tolist()) == \
                    pytest.approx(1.0, abs=1e-9), (nid, info)

    def test_sample_row_incentive_halves_non_return(self, default_doc):
        doc = json.loads(json.dumps(default_doc))
        doc["participation"]["sample_ok"] = 1.0
        doc["participation"]["return"]["F"] = [0.6] * 5
        bundle, _ = load_parameters(doc)
        d = build_segment_diagram(Segment(Sex.F, 1), bundle,
                                  bundle.starting_prevalence(Sex.F))
        table = d.cpts[SAMPLE]
        assert table.shape == (2, 2, 2)
        assert row(table, 0, 0) == (1.0, 0.0)
        assert row(table, 1, 0) == (1.0, 0.0)
        assert row(table, 0, 1) == (1.0 - 0.6, 0.6)
        assert row(table, 1, 1) == (0.2, 0.8)
        # the incentive row is exactly ((1-P)/2, P + (1-P)/2)
        p = 0.6
        assert row(table, 1, 1) == ((1 - p) / 2, p + (1 - p) / 2)
        assert table[1, 1, 1] - table[0, 1, 1] == \
            pytest.approx((1 - p) / 2, abs=1e-15)

    def test_fit_row_structure(self, small_bundle):
        psi = small_bundle.starting_prevalence(Sex.M)
        d = build_segment_diagram(Segment(Sex.M, 1), small_bundle, psi)
        cutoffs = small_bundle.fit.cutoffs
        for li, label in enumerate(cutoffs):
            assert row(d.cpts[FIT_RESULT], li, 0) == (1.0, 0.0, 0.0)
            fpos = fit_positive_probability(small_bundle.fit, label, psi)
            assert row(d.cpts[FIT_RESULT], li, 1) == (0.0, fpos, 1.0 - fpos)

    def test_exam_row_only_on_contact_and_colonoscopy(self, small_bundle):
        psi = small_bundle.starting_prevalence(Sex.F)
        d = build_segment_diagram(Segment(Sex.F, 2), small_bundle, psi)
        na_row = (1.0, 0.0, 0.0, 0.0, 0.0)
        for li, label in enumerate(small_bundle.fit.cutoffs):
            expected = colonoscopy_result_row(
                small_bundle.fit, small_bundle.colonoscopy, label, psi)
            for s6, s7 in itertools.product(range(2), range(2)):
                assert row(d.cpts[EXAM_RESULT], li, s6, s7) == \
                    (expected if (s6, s7) == (1, 1) else na_row)

    def test_polyp_iff_growth(self, small_bundle):
        d = build_segment_diagram(Segment(Sex.F, 1), small_bundle,
                                  small_bundle.starting_prevalence(Sex.F))
        table = d.cpts[POLYP]
        assert table.shape == (5, 3)
        assert row(table, 0) == (1.0, 0.0, 0.0)   # no result
        assert row(table, 1) == (0.0, 1.0, 0.0)   # normal: no polyp
        for growth in (2, 3, 4):
            assert row(table, growth) == (0.0, 0.0, 1.0)

    def test_adverse_event_rows(self, small_bundle):
        d = build_segment_diagram(Segment(Sex.M, 2), small_bundle,
                                  small_bundle.starting_prevalence(Sex.M))
        col = small_bundle.colonoscopy
        table = d.cpts[ADVERSE]
        assert table.shape == (3, 3)
        assert row(table, 0) == (1.0, 0.0, 0.0)
        assert row(table, 1) == (
            1.0 - col.bleed - col.perforation_without_polypectomy,
            col.bleed, col.perforation_without_polypectomy)
        assert row(table, 2) == (
            1.0 - col.bleed - col.perforation_with_polypectomy,
            col.bleed, col.perforation_with_polypectomy)

    def test_no_invite_is_exactly_null(self, small_bundle):
        d = build_segment_diagram(Segment(Sex.F, 1), small_bundle,
                                  small_bundle.starting_prevalence(Sex.F))
        for incentive in (0, 1):
            for cutoff in range(len(small_bundle.fit.cutoffs)):
                z = constant_strategy(d, cutoff=cutoff, incentive=incentive,
                                      invite=0)
                assert expected_values(d, z).values == (0.0,) * 5

    def test_no_invite_paths_cost_nothing(self, small_bundle):
        from oracles import compatible_path_probabilities
        d = build_segment_diagram(Segment(Sex.F, 1), small_bundle,
                                  small_bundle.starting_prevalence(Sex.F))
        z = constant_strategy(d, incentive=1, invite=0)
        cost_spec = d.values[11]
        cost_node = d.by_id[11]
        for path, prob in compatible_path_probabilities(d, z).items():
            assert prob > 0
            assert cost_spec.table[d.info_state_of(cost_node, path)] == 0.0

    def test_monotone_cutoff_effect(self, default_bundle):
        psi = default_bundle.starting_prevalence(Sex.M)
        d = build_segment_diagram(Segment(Sex.M, 1), default_bundle, psi)
        previous = None
        # declared order is ascending threshold: walk from high to low
        for cutoff in reversed(range(len(default_bundle.fit.cutoffs))):
            vals = expected_values(d, constant_strategy(d, cutoff=cutoff))
            cols = -objective(vals, "colonoscopy")
            detections = (objective(vals, "benign_found"),
                          objective(vals, "large_found"),
                          objective(vals, "crc_found"))
            if previous is not None:
                assert cols >= previous[0] - 1e-12
                assert all(a >= b - 1e-12
                           for a, b in zip(detections, previous[1]))
            previous = (cols, detections)

    def test_cutoff_mismatch_zeroes_path(self, default_bundle):
        from oracles import path_probability
        d = build_segment_diagram(Segment(Sex.F, 1), default_bundle,
                                  default_bundle.starting_prevalence(Sex.F))
        cutoffs = default_bundle.fit.cutoffs
        z = constant_strategy(d, cutoff=cutoffs.index("25"))
        # a path that chose cut-off 50 cannot occur under a 25-cut-off rule
        path = (cutoffs.index("50"), 0, 1, 1, 1, 1, 1, 2, 2, 0)
        assert path_probability(d, path, z) == 0.0
        agreeing = (cutoffs.index("25"),) + path[1:]
        assert path_probability(d, agreeing, z) > 0.0

    def test_detected_fraction_bounded_by_prevalence(self, default_bundle):
        psi = default_bundle.starting_prevalence(Sex.F)
        d = build_segment_diagram(Segment(Sex.F, 1), default_bundle, psi)
        vals = expected_values(d, constant_strategy(d, cutoff=0, incentive=1))
        assert 0.0 <= objective(vals, "benign_found") <= psi[BENIGN]
        assert 0.0 <= objective(vals, "large_found") <= psi[LARGE]
        assert 0.0 <= objective(vals, "crc_found") <= psi[CRC]

    def test_fixed_rules(self, default_doc):
        doc = json.loads(json.dumps(default_doc))
        doc["options"] = {"fix_exam_to_colonoscopy": True,
                          "incentive_enabled": False}
        bundle, _ = load_parameters(doc)
        fixed = fixed_decision_rules(bundle)
        assert fixed[INCENTIVE].shape == () and fixed[INCENTIVE] == 0
        assert fixed[EXAM].tolist() == [[0, 1], [0, 1], [0, 1]]
        d = build_segment_diagram(Segment(Sex.F, 1), bundle,
                                  bundle.starting_prevalence(Sex.F))
        assert d.strategy_count(fixed=tuple(fixed)) == 5 * 2


class TestLoader:
    def test_default_file_loads_without_defaults(self, default_doc):
        bundle, report = load_parameters(default_doc)
        assert report.defaults == []
        assert report.warnings == []
        assert bundle.periods == 5

    @pytest.mark.parametrize("periods", [6, 7])
    def test_long_horizon_documents_extend_the_shipped_lists(
            self, default_doc, periods):
        # the synthetic long-horizon documents repeat each per-period
        # list's last entry and change nothing else
        path = DATA / f"synthetic_{periods}period.json"
        doc = json.loads(path.read_text())
        assert "synthetic" in doc["description"].lower()
        want = json.loads(json.dumps(default_doc))
        want["description"] = doc["description"]
        for section in (want["participation"]["return"],
                        want["participation"]["contact"], want["transitions"]):
            for sex, rows in section.items():
                section[sex] = rows + rows[-1:] * (periods - len(rows))
        assert doc == want
        bundle, report = load_parameters(doc)
        assert bundle.periods == periods
        assert report.defaults == [] and report.warnings == []

    def test_defaults_are_reported(self, default_doc):
        doc = json.loads(json.dumps(default_doc))
        del doc["options"]
        del doc["costs"]["incentive"]
        bundle, report = load_parameters(doc)
        assert bundle.costs.incentive == 50.0
        assert bundle.options.incentive_enabled is True
        assert any("costs.incentive" in line for line in report.defaults)
        assert any("options" in line for line in report.defaults)

    def test_simplex_violation_names_segment(self, default_doc):
        doc = json.loads(json.dumps(default_doc))
        doc["prevalence0"]["F"]["benign"] = 0.09  # sum becomes 1.01
        with pytest.raises(ParameterError) as err:
            load_parameters(doc)
        assert err.value.path == "prevalence0.F"

    def test_unknown_top_level_key(self, default_doc):
        doc = json.loads(json.dumps(default_doc))
        doc["extra"] = 1
        with pytest.raises(ParameterError) as err:
            load_parameters(doc)
        assert err.value.path == "extra"

    def test_negative_cost_rejected(self, default_doc):
        doc = json.loads(json.dumps(default_doc))
        doc["costs"]["colonoscopy"] = -5
        with pytest.raises(ParameterError) as err:
            load_parameters(doc)
        assert err.value.path == "costs.colonoscopy"

    def test_probability_out_of_range(self, default_doc):
        doc = json.loads(json.dumps(default_doc))
        doc["participation"]["contact"]["M"][2] = 1.2
        with pytest.raises(ParameterError) as err:
            load_parameters(doc)
        assert "participation.contact.M[2]" == err.value.path

    def test_period_length_mismatch(self, default_doc):
        doc = json.loads(json.dumps(default_doc))
        doc["participation"]["contact"]["M"] = [0.9, 0.9]
        with pytest.raises(ParameterError) as err:
            load_parameters(doc)
        assert err.value.path.startswith("participation.contact")

    def test_custom_fixed_cutoff_labels_accepted(self, default_doc):
        # a deployed programme's fixed per-sex thresholds as a custom label set
        doc = json.loads(json.dumps(default_doc))
        doc["fit"]["cutoffs"] = ["25", "70"]
        for state in doc["fit"]["sensitivity"]:
            doc["fit"]["sensitivity"][state] = {"25": 0.6, "70": 0.4}
        doc["fit"]["specificity"] = {"25": 0.94, "70": 0.97}
        bundle, _ = load_parameters(doc)
        assert bundle.fit.cutoffs == ("25", "70")

    def test_reserved_characters_in_labels_rejected(self, default_doc):
        doc = json.loads(json.dumps(default_doc))
        doc["fit"]["cutoffs"] = ["10", "20,5", "25", "40", "50"]
        with pytest.raises(ParameterError) as err:
            load_parameters(doc)
        assert err.value.path == "fit.cutoffs"

    def test_non_monotone_sensitivity_warns_only(self, default_doc):
        doc = json.loads(json.dumps(default_doc))
        doc["fit"]["sensitivity"]["crc"]["20"] = 0.99  # above the "10" value
        bundle, report = load_parameters(doc)
        assert any("sensitivity" in w for w in report.warnings)
        assert bundle.fit.sensitivity["crc"]["20"] == 0.99

    def test_random_documents_load(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            doc = random_params_doc(rng, periods=int(rng.integers(1, 4)),
                                    n_cutoffs=int(rng.integers(1, 5)),
                                    monotone=bool(rng.integers(0, 2)))
            bundle, _ = load_parameters(doc)
            assert bundle.periods == len(doc["transitions"]["F"])


# ---------------------------------------------------------------------------
# Every loader error, default line and warning, pinned by path and message
# ---------------------------------------------------------------------------

_DELETE = object()


def _edited(doc, edits):
    """A deep copy of ``doc`` with each (keys, value) edit applied; the
    value ``_DELETE`` removes the key."""
    doc = json.loads(json.dumps(doc))
    for keys, value in edits:
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
    return doc


def _dotted(keys) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                   for k in keys)[1:]


# Each object section with one of its required keys (None: none required).
_SECTIONS = (
    (("fit",), "unit"),
    (("fit", "sensitivity"), "crc"),
    (("fit", "sensitivity", "benign"), "25"),
    (("fit", "specificity"), "10"),
    (("colonoscopy",), "adverse_events"),
    (("colonoscopy", "sensitivity"), "large"),
    (("colonoscopy", "adverse_events"), "perforation_without_polypectomy"),
    (("participation",), "contact"),
    (("participation", "return"), "M"),
    (("participation", "contact"), "F"),
    (("costs",), "polypectomy"),
    (("costs", "exam_result"), "normal"),
    (("costs", "adverse_event"), "perforation"),
    (("prevalence0",), "M"),
    (("prevalence0", "F"), "crc"),
    (("transitions",), "F"),
    (("transitions", "M", 4), "benign_to_large"),
    (("population",), "F"),
    (("options",), None),
)

_NAN, _INF = float("nan"), float("inf")
_RESERVED = ("label {!r} is empty or contains a reserved character "
             "(, | ; \" or a line break)")
_MARKER = 'label {!r} is "-" or contains "+", the policy-table markers'

# (edits, path, message); with several faults the first in load order wins.
_LOADER_ERRORS = [
    ([((s,), _DELETE)], s, "required section is missing")
    for s in ("fit", "population")
] + [
    ([(keys, [])], _dotted(keys), "must be a JSON object")
    for keys, _ in _SECTIONS
] + [
    ([(keys + ("zz",), 1)], _dotted(keys) + ".zz", "unknown key")
    for keys, _ in _SECTIONS
] + [
    ([(keys + (key,), _DELETE)], _dotted(keys + (key,)),
     "required key is missing")
    for keys, key in _SECTIONS if key is not None
] + [
    ([(("extra",), 1)], "extra", "unknown top-level key"),
    ([(("zz",), 1), (("aa",), 1)], "aa", "unknown top-level key"),
    # probabilities
    ([(("fit", "sensitivity", "crc", "10"), "x")],
     "fit.sensitivity.crc.10", "must be a number"),
    ([(("fit", "sensitivity", "large", "40"), -_INF)],
     "fit.sensitivity.large.40", "must be finite"),
    ([(("fit", "specificity", "50"), True)],
     "fit.specificity.50", "must be a number"),
    ([(("colonoscopy", "sensitivity", "benign"), _NAN)],
     "colonoscopy.sensitivity.benign", "must be finite"),
    ([(("colonoscopy", "adverse_events", "bleed"), -0.5)],
     "colonoscopy.adverse_events.bleed", "probability -0.5 outside [0, 1]"),
    ([(("participation", "sample_ok"), 1.5)],
     "participation.sample_ok", "probability 1.5 outside [0, 1]"),
    ([(("participation", "return", "F", 0), None)],
     "participation.return.F[0]", "must be a number"),
    ([(("participation", "contact", "M", 2), 1.2)],
     "participation.contact.M[2]", "probability 1.2 outside [0, 1]"),
    ([(("prevalence0", "M", "crc"), _INF)],
     "prevalence0.M.crc", "must be finite"),
    ([(("transitions", "F", 1, "large_to_crc"), 100)],
     "transitions.F[1].large_to_crc", "probability 100.0 outside [0, 1]"),
    # strings
    ([(("fit", "unit"), None)], "fit.unit", "must be a string"),
    ([(("description",), {"a": 1})], "description", "must be a string"),
    # list lengths and period counts
    ([(("participation", "return", "F"), {})],
     "participation.return.F", "must be a non-empty list"),
    ([(("participation", "return", "F"), [])],
     "participation.return.F", "must be a non-empty list"),
    ([(("participation", "return", "M"), [0.6] * 4)],
     "participation.return.M", "expected 5 periods, got 4"),
    ([(("participation", "contact", "F"), [0.9] * 6)],
     "participation.contact.F", "expected 5 periods, got 6"),
    ([(("transitions", "F"), {})], "transitions.F", "must list 5 periods"),
    ([(("transitions", "M", 4), _DELETE)],
     "transitions.M", "must list 5 periods"),
    ([(("population", "F"), [15000] * 4)],
     "population.F", "must list 5 cohort sizes"),
    ([(("population", "M"), "x")], "population.M", "must be a number"),
    ([(("population", "F"), [1, 2, 3, _INF, 5])],
     "population.F[3]", "must be finite"),
    ([(("population", "M"), 0)],
     "population.M", "cohort sizes must be positive"),
    ([(("population", "F"), [1, 2, -3, 4, 5])],
     "population.F", "cohort sizes must be positive"),
    # costs, simplexes and adverse events
    ([(("costs", "colonoscopy"), -5)],
     "costs.colonoscopy", "cost -5.0 is negative"),
    ([(("costs", "incentive"), "x")], "costs.incentive", "must be a number"),
    ([(("costs", "exam_result", "crc"), -1)],
     "costs.exam_result.crc", "cost -1.0 is negative"),
    ([(("costs", "adverse_event", "bleed"), _NAN)],
     "costs.adverse_event.bleed", "must be finite"),
    ([(("prevalence0", "F", "benign"), 0.09)],
     "prevalence0.F", "prevalences sum to 1.01, not 1"),
    ([(("colonoscopy", "adverse_events", "bleed"), 0.9995)],
     "colonoscopy.adverse_events", "bleed + perforation exceeds 1"),
    # cut-off labels
    ([(("fit", "cutoffs"), "10")],
     "fit.cutoffs", "must be a non-empty list of strings"),
    ([(("fit", "cutoffs"), [])],
     "fit.cutoffs", "must be a non-empty list of strings"),
    ([(("fit", "cutoffs"), ["10", 20])],
     "fit.cutoffs", "must be a non-empty list of strings"),
    ([(("fit", "cutoffs"), ["10", "10"])],
     "fit.cutoffs", "duplicate cut-off labels"),
] + [
    ([(("fit", "cutoffs"), ["10", label])], "fit.cutoffs",
     _RESERVED.format(label))
    for label in ("", "20,5", "a|b", "a;b", "a\nb", 'a"b', "a\rb")
] + [
    ([(("fit", "cutoffs"), ["10", label])], "fit.cutoffs",
     _MARKER.format(label))
    for label in ("10+i", "+", "-")
] + [
    # boolean options; fit.cutoffs alone states the cut-offs
    ([(("options", "fix_exam_to_colonoscopy"), "yes")],
     "options.fix_exam_to_colonoscopy", "must be a boolean"),
    ([(("options", "incentive_enabled"), 1)],
     "options.incentive_enabled", "must be a boolean"),
    ([(("options", "cutoff_set"), ["10", "25"])],
     "options.cutoff_set", "unknown key"),
    # several faults at once
    ([(("costs", "invitation"), -1),
      (("costs", "exam_result", "normal"), _DELETE)],
     "costs.exam_result.normal", "required key is missing"),
    ([(("costs", "incentive"), -1),
      (("costs", "exam_result", "normal"), _DELETE)],
     "costs.incentive", "cost -1.0 is negative"),
    ([(("participation", "contact", "F"), [0.9] * 4),
      (("participation", "contact", "M", 0), 2)],
     "participation.contact.F", "expected 5 periods, got 4"),
    ([(("participation", "return", "F", 1), 2),
      (("participation", "return", "M"), [])],
     "participation.return.F[1]", "probability 2.0 outside [0, 1]"),
    ([(("fit", "sensitivity", "benign", "10"), 2),
      (("fit", "specificity", "10"), _DELETE)],
     "fit.sensitivity.benign.10", "probability 2.0 outside [0, 1]"),
    ([(("transitions", "F", 0, "normal_to_benign"), -1),
      (("population", "F"), 0)],
     "transitions.F[0].normal_to_benign", "probability -1.0 outside [0, 1]"),
    ([(("prevalence0", "F", "benign"), 0.09),
      (("prevalence0", "M", "crc"), "x")],
     "prevalence0.F", "prevalences sum to 1.01, not 1"),
    ([(("options", "incentive_enabled"), 0),
      (("options", "fix_exam_to_colonoscopy"), 0)],
     "options.fix_exam_to_colonoscopy", "must be a boolean"),
    ([(("colonoscopy", "adverse_events", "bleed"), 0.9995),
      (("participation", "sample_ok"), 2)],
     "colonoscopy.adverse_events", "bleed + perforation exceeds 1"),
    # totals that overflow, checked once every field is read
    ([(("population",), {"F": 1e308, "M": 1e308})], "population",
     "total cohort size over both sexes and all periods is not finite"),
    ([(("costs", "colonoscopy"), 1e308)], "costs",
     "the most expensive path's cost times the total cohort size is not "
     "finite"),
    ([(("costs", "colonoscopy"), 1e308), (("population", "F"), 0)],
     "population.F", "cohort sizes must be positive"),
]

# One fault in each section, in load order: with a fault in a section and
# one in the next, the first is reported.
_SECTION_FAULTS = (
    ((("fit", "unit"), _DELETE), "fit.unit", "required key is missing"),
    ((("colonoscopy", "sensitivity", "crc"), "x"),
     "colonoscopy.sensitivity.crc", "must be a number"),
    ((("participation", "sample_ok"), 2),
     "participation.sample_ok", "probability 2.0 outside [0, 1]"),
    ((("costs", "colonoscopy"), -1),
     "costs.colonoscopy", "cost -1.0 is negative"),
    ((("prevalence0", "F", "crc"), "x"), "prevalence0.F.crc", "must be a number"),
    ((("transitions", "F"), {}), "transitions.F", "must list 5 periods"),
    ((("population", "F"), 0), "population.F", "cohort sizes must be positive"),
    ((("options", "incentive_enabled"), 1),
     "options.incentive_enabled", "must be a boolean"),
)
_LOADER_ERRORS += [
    ([first, second], path, message)
    for (first, path, message), (second, _, _) in zip(_SECTION_FAULTS,
                                                      _SECTION_FAULTS[1:])
]

_OPTION_DEFAULTS = ["options.fix_exam_to_colonoscopy = false",
                    "options.incentive_enabled = true"]
_MONOTONE = "fit.sensitivity.{}: not weakly decreasing along declared " \
            "cut-off order"

# (edits, defaults, warnings)
_LOADER_REPORTS = [
    ([], [], []),
    ([(("costs", "incentive"), _DELETE)], ["costs.incentive = 50.0"], []),
    ([(("options",), _DELETE)],
     ["options = {} (all defaults)"] + _OPTION_DEFAULTS, []),
    ([(("options",), None)],
     ["options = {} (all defaults)"] + _OPTION_DEFAULTS, []),
    ([(("options", "fix_exam_to_colonoscopy"), _DELETE)],
     _OPTION_DEFAULTS[:1], []),
    ([(("options", "incentive_enabled"), _DELETE)], _OPTION_DEFAULTS[1:], []),
    ([(("options",), _DELETE), (("costs", "incentive"), _DELETE)],
     ["costs.incentive = 50.0", "options = {} (all defaults)"]
     + _OPTION_DEFAULTS, []),
    ([(("fit", "sensitivity", "crc", "20"), 0.99)],
     [], [_MONOTONE.format("crc")]),
    ([(("fit", "sensitivity", "large", "20"), 0.9),
      (("fit", "sensitivity", "benign", "50"), 0.5)],
     [], [_MONOTONE.format("benign"), _MONOTONE.format("large")]),
]


@pytest.mark.parametrize("edits, path, message", _LOADER_ERRORS,
                         ids=[f"{p}:{m}" for _, p, m in _LOADER_ERRORS])
def test_loader_error_path_and_message(default_doc, edits, path, message):
    with pytest.raises(ParameterError) as err:
        load_parameters(_edited(default_doc, edits))
    assert (err.value.path, err.value.reason) == (path, message)
    assert str(err.value) == f"{path}: {message}"


def test_loader_rejects_a_document_that_is_not_an_object():
    with pytest.raises(ParameterError) as err:
        load_parameters([])
    assert (err.value.path, err.value.reason) == (
        "$", "document must be a JSON object")


@pytest.mark.parametrize("edits, defaults, warnings", _LOADER_REPORTS)
def test_loader_default_and_warning_lines(default_doc, edits, defaults,
                                          warnings):
    _, report = load_parameters(_edited(default_doc, edits))
    assert (report.defaults, report.warnings) == (defaults, warnings)
