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

import numpy as np
import pytest

from conftest import _random_simplex, random_params_doc
from oracles import (
    colonoscopy_result_row,
    fit_positive_probability,
    posterior_given_positive,
    scalar_prevalence_cpts,
)
from screenopt.diagram import (
    GlobalStrategy,
    LocalStrategy,
    expected_values,
    validate_diagram,
)
from screenopt.errors import ParameterError
from screenopt.screening import (
    ADVERSE,
    BowelState,
    CONTACT,
    CUTOFF,
    EXAM,
    EXAM_RESULT,
    FIT_RESULT,
    INCENTIVE,
    INVITE,
    POLYP,
    SAMPLE,
    ColonoscopyCharacteristics,
    FitTestCharacteristics,
    PrevalenceVector,
    Segment,
    Sex,
    build_segment_diagram,
    fixed_decision_rules,
    load_parameters,
    prevalence_tables,
)

DERIVED_PSI = PrevalenceVector(normal=0.9, benign=0.06, large=0.03, crc=0.01)


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
        psi = PrevalenceVector(1.0, 0.0, 0.0, 0.0)
        assert fit_positive_probability(fit, "25", psi) == 0.0

    def test_all_cancer_perfect_sensitivity(self):
        fit = fit_single(crc=1.0)
        psi = PrevalenceVector(0.0, 0.0, 0.0, 1.0)
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
        psi = PrevalenceVector(0.0, 0.0, 0.0, 1.0)
        assert posterior_given_positive(fit, "25", psi, BowelState.CRC) == 1.0

    def test_symmetric_two_state(self):
        fit = fit_single(benign=0.6, large=0.6, specificity=1.0)
        psi = PrevalenceVector(0.0, 0.5, 0.5, 0.0)
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
            psi = PrevalenceVector(*raw)
            total = math.fsum(
                posterior_given_positive(fit, "25", psi, s) for s in BowelState)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_zero_positive_probability_guard(self):
        fit = fit_single(specificity=1.0)
        psi = PrevalenceVector(1.0, 0.0, 0.0, 0.0)
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


def constant_strategy(diagram, cutoff=0, incentive=0, invite=1,
                      exam_on_contact=1):
    rules = {
        CUTOFF: LocalStrategy(CUTOFF, {(): cutoff}),
        INCENTIVE: LocalStrategy(INCENTIVE, {(): incentive}),
        INVITE: LocalStrategy(INVITE, {(): invite}),
        EXAM: LocalStrategy(EXAM, {
            (s5, s6): exam_on_contact if s6 == 1 else 0
            for s5 in range(3) for s6 in range(2)
        }),
    }
    return GlobalStrategy(rules)


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
                doc["options"]["cutoff_set"] = [
                    c for i, c in enumerate(cutoffs)
                    if i == zero_at or rng.random() < 0.5]
            bundle, _ = load_parameters(doc)
            psis = [PrevalenceVector(**_random_simplex(rng))
                    for _ in range(5)]
            psis += [PrevalenceVector(*row) for row in np.eye(4).tolist()]
            tables = prevalence_tables(
                bundle, np.array([psi.as_tuple() for psi in psis]))
            for h, psi in enumerate(psis):
                want = scalar_prevalence_cpts(bundle, psi)
                got = build_segment_diagram(Segment(Sex.F, 1), bundle,
                                            psi).cpts
                for node_id, table in want.items():
                    assert list(got[node_id]) == list(table)
                    for info, row in table.items():
                        self.assert_same_bits(tables[node_id][(h,) + info],
                                              row)
                        self.assert_same_bits(got[node_id][info], row)
            if trial % 3 == 0:
                li = bundle.effective_cutoffs().index(cutoffs[zero_at])
                normal = len(psis) - 4
                assert tables[FIT_RESULT][normal, li, 1, 1] == 0.0
                self.assert_same_bits(tables[EXAM_RESULT][normal, li, 1, 1],
                                      (0.0, 1.0, 0.0, 0.0, 0.0))


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
        product = 1
        for s in sizes:
            product *= s
        assert d.path_count() == product == 21600
        # decisions 1-3 carry no information; the examination sees 3*2 states
        assert d.strategy_count() == 5 * 2 * 2 * 2 ** 6 == 1280

    def test_default_cutoff_labels(self, default_bundle):
        assert default_bundle.fit.cutoffs == ("10", "20", "25", "40", "50")
        assert default_bundle.fit.unit == "ug/g"

    def test_cpt_rows_sum_to_one(self, default_bundle):
        d = build_segment_diagram(Segment(Sex.F, 3), default_bundle,
                                  default_bundle.starting_prevalence(Sex.F))
        for nid, table in d.cpts.items():
            for info, row in table.items():
                assert math.fsum(row) == pytest.approx(1.0, abs=1e-9), \
                    (nid, info)

    def test_sample_row_incentive_halves_non_return(self, default_doc):
        doc = json.loads(json.dumps(default_doc))
        doc["participation"]["sample_ok"] = 1.0
        doc["participation"]["return"]["F"] = [0.6] * 5
        bundle, _ = load_parameters(doc)
        d = build_segment_diagram(Segment(Sex.F, 1), bundle,
                                  bundle.starting_prevalence(Sex.F))
        table = d.cpts[SAMPLE]
        assert table[(0, 0)] == (1.0, 0.0)
        assert table[(1, 0)] == (1.0, 0.0)
        assert table[(0, 1)] == (1.0 - 0.6, 0.6)
        assert table[(1, 1)] == (0.2, 0.8)
        # the incentive row is exactly ((1-P)/2, P + (1-P)/2)
        p = 0.6
        assert table[(1, 1)] == ((1 - p) / 2, p + (1 - p) / 2)
        assert table[(1, 1)][1] - table[(0, 1)][1] == \
            pytest.approx((1 - p) / 2, abs=1e-15)

    def test_fit_row_structure(self, small_bundle):
        psi = small_bundle.starting_prevalence(Sex.M)
        d = build_segment_diagram(Segment(Sex.M, 1), small_bundle, psi)
        cutoffs = small_bundle.effective_cutoffs()
        for li, label in enumerate(cutoffs):
            assert d.cpts[FIT_RESULT][(li, 0)] == (1.0, 0.0, 0.0)
            fpos = fit_positive_probability(small_bundle.fit, label, psi)
            row = d.cpts[FIT_RESULT][(li, 1)]
            assert row[0] == 0.0
            assert row[1] == fpos
            assert row[2] == 1.0 - fpos

    def test_exam_row_only_on_contact_and_colonoscopy(self, small_bundle):
        psi = small_bundle.starting_prevalence(Sex.F)
        d = build_segment_diagram(Segment(Sex.F, 2), small_bundle, psi)
        na_row = (1.0, 0.0, 0.0, 0.0, 0.0)
        for li, label in enumerate(small_bundle.effective_cutoffs()):
            expected = colonoscopy_result_row(
                small_bundle.fit, small_bundle.colonoscopy, label, psi)
            for s6, s7 in itertools.product(range(2), range(2)):
                row = d.cpts[EXAM_RESULT][(li, s6, s7)]
                assert row == (expected if (s6, s7) == (1, 1) else na_row)

    def test_polyp_iff_growth(self, small_bundle):
        d = build_segment_diagram(Segment(Sex.F, 1), small_bundle,
                                  small_bundle.starting_prevalence(Sex.F))
        table = d.cpts[POLYP]
        assert table[(0,)] == (1.0, 0.0, 0.0)   # no result
        assert table[(1,)] == (0.0, 1.0, 0.0)   # normal: no polyp
        for growth in (2, 3, 4):
            assert table[(growth,)] == (0.0, 0.0, 1.0)

    def test_adverse_event_rows(self, small_bundle):
        d = build_segment_diagram(Segment(Sex.M, 2), small_bundle,
                                  small_bundle.starting_prevalence(Sex.M))
        col = small_bundle.colonoscopy
        table = d.cpts[ADVERSE]
        assert table[(0,)] == (1.0, 0.0, 0.0)
        assert table[(1,)] == (
            1.0 - col.bleed - col.perforation_without_polypectomy,
            col.bleed, col.perforation_without_polypectomy)
        assert table[(2,)] == (
            1.0 - col.bleed - col.perforation_with_polypectomy,
            col.bleed, col.perforation_with_polypectomy)

    def test_no_invite_is_exactly_null(self, small_bundle):
        d = build_segment_diagram(Segment(Sex.F, 1), small_bundle,
                                  small_bundle.starting_prevalence(Sex.F))
        for incentive in (0, 1):
            for cutoff in range(len(small_bundle.effective_cutoffs())):
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
        for cutoff in reversed(range(len(default_bundle.effective_cutoffs()))):
            vals = expected_values(d, constant_strategy(d, cutoff=cutoff))
            cols = -vals.by_name("colonoscopy")
            detections = (vals.by_name("benign_found"),
                          vals.by_name("large_found"),
                          vals.by_name("crc_found"))
            if previous is not None:
                assert cols >= previous[0] - 1e-12
                assert all(a >= b - 1e-12
                           for a, b in zip(detections, previous[1]))
            previous = (cols, detections)

    def test_cutoff_mismatch_zeroes_path(self, default_bundle):
        from screenopt.diagram import path_probability
        d = build_segment_diagram(Segment(Sex.F, 1), default_bundle,
                                  default_bundle.starting_prevalence(Sex.F))
        cutoffs = default_bundle.effective_cutoffs()
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
        assert 0.0 <= vals.by_name("benign_found") <= psi.benign
        assert 0.0 <= vals.by_name("large_found") <= psi.large
        assert 0.0 <= vals.by_name("crc_found") <= psi.crc

    def test_fixed_rules(self, default_doc):
        doc = json.loads(json.dumps(default_doc))
        doc["options"] = {"fix_exam_to_colonoscopy": True,
                          "incentive_enabled": False}
        bundle, _ = load_parameters(doc)
        fixed = fixed_decision_rules(bundle)
        assert fixed[INCENTIVE].rule == {(): 0}
        assert fixed[EXAM].rule[(1, 1)] == 1
        assert fixed[EXAM].rule[(1, 0)] == 0
        d = build_segment_diagram(Segment(Sex.F, 1), bundle,
                                  bundle.starting_prevalence(Sex.F))
        assert d.strategy_count(fixed=tuple(fixed)) == 5 * 2


class TestLoader:
    def test_default_file_loads_without_defaults(self, default_doc):
        bundle, report = load_parameters(default_doc)
        assert report.defaults == []
        assert report.warnings == []
        assert bundle.periods == 5

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

    def test_cutoff_subset_must_be_declared(self, default_doc):
        doc = json.loads(json.dumps(default_doc))
        doc["options"]["cutoff_set"] = ["10", "77"]
        with pytest.raises(ParameterError) as err:
            load_parameters(doc)
        assert err.value.path == "options.cutoff_set"

    def test_custom_fixed_cutoff_labels_accepted(self, default_doc):
        # a deployed programme's fixed per-sex thresholds as a custom label set
        doc = json.loads(json.dumps(default_doc))
        doc["fit"]["cutoffs"] = ["25", "70"]
        for state in doc["fit"]["sensitivity"]:
            doc["fit"]["sensitivity"][state] = {"25": 0.6, "70": 0.4}
        doc["fit"]["specificity"] = {"25": 0.94, "70": 0.97}
        if "cutoff_set" in doc.get("options", {}):
            del doc["options"]["cutoff_set"]
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
