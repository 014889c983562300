"""Segment-specific screening model.

Builds the per-(sex, period) influence diagram of the screening pathway:
cut-off / incentive / invitation decisions, sample return, stool-test result,
contact with the screening nurse, the examination decision, its result,
polypectomy and adverse events, plus value nodes for cost, examinations
performed and growths found. Conditional probabilities follow the tabulated
model: test positivity is a sensitivity/specificity mixture over the bowel
prevalence, and examination results are Bayes posteriors thinned by
examination sensitivity, with perfect examination specificity.

All parameters come from a JSON document; ``load_parameters`` validates it
strictly (unknown keys rejected, probabilities bounded, prevalence simplexes
checked) and reports every applied default. The values shipped in
``data/synthetic_default.json`` are synthetic illustrative magnitudes, not
calibrated estimates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping, Sequence

import numpy as np

from .diagram import (
    SUM_TOL,
    ZERO_TOL,
    GlobalStrategy,
    InfluenceDiagram,
    LocalStrategy,
    Node,
    NodeKind,
    ValueSpec,
)
from .errors import ParameterError

# Stage ids of the screening diagram, in declaration order.
CUTOFF, INCENTIVE, INVITE = 1, 2, 3
SAMPLE, FIT_RESULT, CONTACT = 4, 5, 6
EXAM = 7
EXAM_RESULT, POLYP, ADVERSE = 8, 9, 10
COST_NODE, COL_NODE, BENIGN_NODE, LARGE_NODE, CRC_NODE = 11, 12, 13, 14, 15

OBJECTIVE_NAMES = ("cost", "colonoscopy", "benign_found", "large_found",
                   "crc_found")


class Sex(Enum):
    F = "F"
    M = "M"


class BowelState(Enum):
    NORMAL = "normal"
    BENIGN = "benign"
    LARGE = "large"
    CRC = "crc"


ABNORMAL = (BowelState.BENIGN, BowelState.LARGE, BowelState.CRC)


@dataclass(frozen=True)
class Segment:
    """One (sex, period) cohort; period 1 is age 60, step two years."""

    sex: Sex
    period: int

    @property
    def age(self) -> int:
        return 60 + 2 * (self.period - 1)


@dataclass(frozen=True)
class PrevalenceVector:
    """Distribution over the four bowel states for one segment."""

    normal: float
    benign: float
    large: float
    crc: float

    def __post_init__(self):
        total = self.normal + self.benign + self.large + self.crc
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"prevalences sum to {total!r}, not 1")
        if min(self.normal, self.benign, self.large, self.crc) < -ZERO_TOL:
            raise ValueError("negative prevalence entry")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.normal, self.benign, self.large, self.crc)


def check_prevalence_rows(rows: np.ndarray) -> None:
    """The checks of :class:`PrevalenceVector` on every row of an (N x 4)
    array in state order, with the same float operations."""
    total = rows[:, 0] + rows[:, 1] + rows[:, 2] + rows[:, 3]
    off = np.flatnonzero(np.abs(total - 1.0) > SUM_TOL)
    if off.size:
        raise ValueError(f"prevalences sum to {float(total[off[0]])!r}, not 1")
    if np.any(rows.min(axis=1, initial=np.inf) < -ZERO_TOL):
        raise ValueError("negative prevalence entry")


@dataclass(frozen=True)
class TransitionRates:
    """Adjacent-state progression probabilities for one (sex, period)."""

    normal_to_benign: float
    benign_to_large: float
    large_to_crc: float


@dataclass(frozen=True)
class FitTestCharacteristics:
    """Stool-test sensitivity per cut-off and abnormal state, and specificity."""

    unit: str
    cutoffs: tuple[str, ...]
    sensitivity: Mapping[str, Mapping[str, float]]  # state key -> cutoff -> value
    specificity: Mapping[str, float]                # cutoff -> value

    def sensitivity_for(self, cutoff: str, state: BowelState) -> float:
        if cutoff not in self.specificity:
            raise KeyError(f"unknown cut-off {cutoff!r}")
        return self.sensitivity[state.value][cutoff]

    def specificity_for(self, cutoff: str) -> float:
        if cutoff not in self.specificity:
            raise KeyError(f"unknown cut-off {cutoff!r}")
        return self.specificity[cutoff]


@dataclass(frozen=True)
class ColonoscopyCharacteristics:
    """Examination sensitivity per abnormal state; specificity is perfect."""

    sensitivity: Mapping[str, float]  # abnormal state key -> value
    bleed: float
    perforation_with_polypectomy: float
    perforation_without_polypectomy: float

    def sensitivity_for(self, state: BowelState) -> float:
        return self.sensitivity[state.value]


@dataclass(frozen=True)
class ParticipationParameters:
    """Sample return, sample quality and nurse-contact rates per segment."""

    sample_ok: float
    return_rate: Mapping[str, tuple[float, ...]]  # sex value -> per period
    contact: Mapping[str, tuple[float, ...]]

    def return_ok(self, segment: Segment) -> float:
        return self.return_rate[segment.sex.value][segment.period - 1] * self.sample_ok

    def contact_rate(self, segment: Segment) -> float:
        return self.contact[segment.sex.value][segment.period - 1]


@dataclass(frozen=True)
class CostSchedule:
    """Per-stage euro costs; zero for the states where nothing happens."""

    incentive: float
    invitation: float
    lab_analysis: float
    colonoscopy: float
    exam_result: Mapping[str, float]   # normal / benign / large / crc
    polypectomy: float
    adverse_event: Mapping[str, float]  # bleed / perforation


@dataclass(frozen=True)
class ModelOptions:
    fix_exam_to_colonoscopy: bool = False
    incentive_enabled: bool = True
    cutoff_set: tuple[str, ...] | None = None


@dataclass(frozen=True)
class ParameterBundle:
    fit: FitTestCharacteristics
    colonoscopy: ColonoscopyCharacteristics
    participation: ParticipationParameters
    costs: CostSchedule
    prevalence0: Mapping[str, PrevalenceVector]          # sex value -> vector
    transitions: Mapping[str, tuple[TransitionRates, ...]]
    population: Mapping[str, tuple[float, ...]]          # cohort size per period
    options: ModelOptions = ModelOptions()
    description: str = ""

    @property
    def periods(self) -> int:
        return len(self.transitions[Sex.F.value])

    def effective_cutoffs(self) -> tuple[str, ...]:
        return self.options.cutoff_set or self.fit.cutoffs

    def starting_prevalence(self, sex: Sex) -> PrevalenceVector:
        return self.prevalence0[sex.value]

    def transition(self, segment: Segment) -> TransitionRates:
        return self.transitions[segment.sex.value][segment.period - 1]

    def cohort_size(self, segment: Segment) -> float:
        return self.population[segment.sex.value][segment.period - 1]

    def total_population(self, sex: Sex, periods: int) -> float:
        """Cohort sizes of ``sex`` summed over periods 1..``periods``."""
        return math.fsum(self.population[sex.value][:periods])


@dataclass
class LoadReport:
    """Defaults applied and warnings raised while loading parameters."""

    defaults: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Test-characteristic formulas
# ---------------------------------------------------------------------------

def prevalence_tables(params: ParameterBundle, psi: np.ndarray
                      ) -> dict[int, np.ndarray]:
    """The test-result and examination-result tables at every row of
    ``psi`` (H x 4, state order), as dense arrays with a leading H axis.

    The test-result table is indexed (row, cut-off, sample, result) and the
    examination-result table (row, cut-off, contact, exam, result). A
    positive test has probability ``(1 - specificity) * normal`` plus
    ``sensitivity * prevalence`` for each abnormal state in turn; an
    examination finds each abnormal state with its sensitivity times the
    Bayes posterior ``sensitivity * prevalence / P(positive)``, and the
    normal result absorbs the rest (missed findings read as normal, since
    examination specificity is perfect). Where a positive test has
    probability zero the examination row is unreachable and kept as the
    degenerate all-normal one. Rows without contact or without a
    colonoscopy are the "NA" result.
    """
    psi = np.asarray(psi, dtype=float)
    cutoffs = params.effective_cutoffs()
    fit, col = params.fit, params.colonoscopy
    spec = np.array([fit.specificity_for(c) for c in cutoffs])
    sens = np.array([[fit.sensitivity_for(c, s) for s in ABNORMAL]
                     for c in cutoffs])
    col_sens = np.array([col.sensitivity_for(s) for s in ABNORMAL])

    numer = sens * psi[:, None, 1:]          # rows x cut-offs x abnormal
    fpos = (1.0 - spec) * psi[:, :1]
    for j in range(len(ABNORMAL)):
        fpos = fpos + numer[:, :, j]
    reachable = fpos > ZERO_TOL
    found = col_sens * (numer / np.where(reachable, fpos, 1.0)[:, :, None])
    normal = np.array([1.0 - math.fsum(row)
                       for row in found.reshape(-1, len(ABNORMAL)).tolist()]
                      ).reshape(fpos.shape)

    fit_table = np.zeros(fpos.shape + (2, 3))
    fit_table[:, :, 0, 0] = 1.0
    fit_table[:, :, 1, 1] = fpos
    fit_table[:, :, 1, 2] = 1.0 - fpos
    exam_table = np.zeros(fpos.shape + (2, 2, 5))
    exam_table[..., 0] = 1.0
    exam_table[:, :, 1, 1, 0] = 0.0
    exam_table[:, :, 1, 1, 1] = np.where(reachable, normal, 1.0)
    exam_table[:, :, 1, 1, 2:] = np.where(reachable[:, :, None], found, 0.0)
    return {FIT_RESULT: fit_table, EXAM_RESULT: exam_table}


# ---------------------------------------------------------------------------
# Diagram construction
# ---------------------------------------------------------------------------

def build_segment_diagram(segment: Segment, params: ParameterBundle,
                          psi: PrevalenceVector) -> InfluenceDiagram:
    """Influence diagram for one segment at prevalence ``psi``."""
    cutoffs = params.effective_cutoffs()
    no_yes = ("no", "yes")
    nodes = (
        Node(CUTOFF, NodeKind.DECISION, "cutoff", cutoffs),
        Node(INCENTIVE, NodeKind.DECISION, "incentive", no_yes),
        Node(INVITE, NodeKind.DECISION, "invite", no_yes),
        Node(SAMPLE, NodeKind.CHANCE, "sample_returned", no_yes,
             (INCENTIVE, INVITE)),
        Node(FIT_RESULT, NodeKind.CHANCE, "test_result",
             ("NA", "positive", "negative"), (CUTOFF, SAMPLE)),
        Node(CONTACT, NodeKind.CHANCE, "contact", no_yes, (FIT_RESULT,)),
        Node(EXAM, NodeKind.DECISION, "exam", ("none", "colonoscopy"),
             (FIT_RESULT, CONTACT)),
        Node(EXAM_RESULT, NodeKind.CHANCE, "exam_result",
             ("NA", "normal", "benign", "large", "crc"),
             (CUTOFF, CONTACT, EXAM)),
        Node(POLYP, NodeKind.CHANCE, "polyp",
             ("no_result", "no_polyp", "polyp"), (EXAM_RESULT,)),
        Node(ADVERSE, NodeKind.CHANCE, "adverse_event",
             ("none", "bleed", "perforation"), (POLYP,)),
        Node(COST_NODE, NodeKind.VALUE, "cost", (),
             (INCENTIVE, INVITE, SAMPLE, EXAM, EXAM_RESULT, POLYP, ADVERSE)),
        Node(COL_NODE, NodeKind.VALUE, "colonoscopy", (), (CONTACT, EXAM)),
        Node(BENIGN_NODE, NodeKind.VALUE, "benign_found", (), (EXAM_RESULT,)),
        Node(LARGE_NODE, NodeKind.VALUE, "large_found", (), (EXAM_RESULT,)),
        Node(CRC_NODE, NodeKind.VALUE, "crc_found", (), (EXAM_RESULT,)),
    )

    ret_ok = params.participation.return_ok(segment)
    contact = params.participation.contact_rate(segment)
    col = params.colonoscopy

    # Stage 4: usable sample returned, given (incentive, invite). The
    # incentive halves the probability of not returning a sample.
    sample_cpt = {
        (0, 0): (1.0, 0.0),
        (0, 1): (1.0 - ret_ok, ret_ok),
        (1, 0): (1.0, 0.0),
        (1, 1): ((1.0 - ret_ok) / 2.0, ret_ok + (1.0 - ret_ok) / 2.0),
    }

    # Stages 5 and 8: test and examination results, the only tables that
    # depend on the prevalence, keyed by information state.
    by_prevalence = {
        node_id: {info: tuple(row) for info, row in zip(
            np.ndindex(table.shape[1:-1]),
            table[0].reshape(-1, table.shape[-1]).tolist())}
        for node_id, table in prevalence_tables(
            params, np.array([psi.as_tuple()])).items()}

    # Stage 6: nurse contact, given the test result; only possible after a
    # positive result.
    contact_cpt = {
        (0,): (1.0, 0.0),
        (1,): (1.0 - contact, contact),
        (2,): (1.0, 0.0),
    }

    # Stage 9: polyp found whenever any growth is found.
    polyp_cpt = {
        (0,): (1.0, 0.0, 0.0),
        (1,): (0.0, 1.0, 0.0),
        (2,): (0.0, 0.0, 1.0),
        (3,): (0.0, 0.0, 1.0),
        (4,): (0.0, 0.0, 1.0),
    }

    # Stage 10: adverse event, given polypectomy status.
    pw = col.perforation_with_polypectomy
    pwo = col.perforation_without_polypectomy
    adverse_cpt = {
        (0,): (1.0, 0.0, 0.0),
        (1,): (1.0 - col.bleed - pwo, col.bleed, pwo),
        (2,): (1.0 - col.bleed - pw, col.bleed, pw),
    }

    costs = params.costs
    cost_table: dict[tuple[int, ...], float] = {}
    exam_result_cost = (0.0,
                        costs.exam_result["normal"],
                        costs.exam_result["benign"],
                        costs.exam_result["large"],
                        costs.exam_result["crc"])
    adverse_cost = (0.0,
                    costs.adverse_event["bleed"],
                    costs.adverse_event["perforation"])
    for s2, s3, s4, s7 in itertools.product(range(2), repeat=4):
        for s8 in range(5):
            for s9 in range(3):
                for s10 in range(3):
                    total = 0.0
                    if s3 == 1:
                        total += costs.invitation
                        if s2 == 1:
                            # Incentive is mailed with the invitation only.
                            total += costs.incentive
                    if s4 == 1:
                        total += costs.lab_analysis
                    if s7 == 1 and s8 != 0:
                        # Examination cost accrues when it actually happens.
                        total += costs.colonoscopy
                    total += exam_result_cost[s8]
                    if s9 == 2:
                        total += costs.polypectomy
                    total += adverse_cost[s10]
                    cost_table[(s2, s3, s4, s7, s8, s9, s10)] = total

    col_table = {
        (s6, s7): -1.0 if (s6, s7) == (1, 1) else 0.0
        for s6 in range(2) for s7 in range(2)
    }

    def indicator(target: int) -> dict[tuple[int, ...], float]:
        return {(s8,): 1.0 if s8 == target else 0.0 for s8 in range(5)}

    values = {
        COST_NODE: ValueSpec(COST_NODE, cost_table, unit="euros",
                             orientation="minimize"),
        COL_NODE: ValueSpec(COL_NODE, col_table, unit="count",
                            orientation="maximize"),
        BENIGN_NODE: ValueSpec(BENIGN_NODE, indicator(2), unit="indicator",
                               orientation="maximize"),
        LARGE_NODE: ValueSpec(LARGE_NODE, indicator(3), unit="indicator",
                              orientation="maximize"),
        CRC_NODE: ValueSpec(CRC_NODE, indicator(4), unit="indicator",
                            orientation="maximize"),
    }

    return InfluenceDiagram(
        nodes=nodes,
        cpts={
            SAMPLE: sample_cpt,
            FIT_RESULT: by_prevalence[FIT_RESULT],
            CONTACT: contact_cpt,
            EXAM_RESULT: by_prevalence[EXAM_RESULT],
            POLYP: polyp_cpt,
            ADVERSE: adverse_cpt,
        },
        values=values,
    )


def fixed_decision_rules(params: ParameterBundle) -> dict[int, LocalStrategy]:
    """Decision nodes pinned by the model options.

    Disabling incentives pins stage 2 to "no". Fixing the examination pins
    stage 7 to "colonoscopy whenever contact was established".
    """
    fixed: dict[int, LocalStrategy] = {}
    if not params.options.incentive_enabled:
        fixed[INCENTIVE] = LocalStrategy(INCENTIVE, {(): 0})
    if params.options.fix_exam_to_colonoscopy:
        rule = {}
        for s5 in range(3):
            for s6 in range(2):
                rule[(s5, s6)] = 1 if s6 == 1 else 0
        fixed[EXAM] = LocalStrategy(EXAM, rule)
    return fixed


def policy_cell(strategy: GlobalStrategy, cutoffs: Sequence[str]) -> str:
    """Policy-table cell for one period: cut-off label, "+i" when
    incentivized, "-" when not invited, "+noexam" when a positive test is
    not examined."""
    if strategy.rules[INVITE].rule[()] == 0:
        return "-"
    cell = cutoffs[strategy.rules[CUTOFF].rule[()]]
    if strategy.rules[INCENTIVE].rule[()] == 1:
        cell += "+i"
    if strategy.rules[EXAM].rule[(1, 1)] == 0:
        cell += "+noexam"
    return cell


def history_columns(strategy: GlobalStrategy, cutoffs: Sequence[str]) -> str:
    """One period's four histories-CSV cells: cut-off label, incentive,
    invitation and examination of a positive test."""
    return ",".join([
        cutoffs[strategy.rules[CUTOFF].rule[()]],
        "yes" if strategy.rules[INCENTIVE].rule[()] == 1 else "no",
        "yes" if strategy.rules[INVITE].rule[()] == 1 else "no",
        "colonoscopy" if strategy.rules[EXAM].rule[(1, 1)] == 1 else "none"])


# ---------------------------------------------------------------------------
# Parameter loading
# ---------------------------------------------------------------------------

_TOP_KEYS = {"description", "fit", "colonoscopy", "participation", "costs",
             "prevalence0", "transitions", "population", "options"}
_REQUIRED = ("fit", "colonoscopy", "participation", "costs", "prevalence0",
             "transitions", "population")
_STATE_KEYS = ("normal", "benign", "large", "crc")
_ABNORMAL_KEYS = ("benign", "large", "crc")


def load_parameters(doc: Mapping[str, Any]) -> tuple[ParameterBundle, LoadReport]:
    """Validate a parameter document and build the immutable bundle.

    Raises :class:`ParameterError` with the offending field path on the
    first violation. Applied defaults and warn-only findings are collected
    in the returned report.
    """
    report = LoadReport()

    if not isinstance(doc, Mapping):
        raise ParameterError("$", "document must be a JSON object")
    unknown = sorted(set(doc) - _TOP_KEYS)
    if unknown:
        raise ParameterError(unknown[0], "unknown top-level key")
    for key in _REQUIRED:
        if key not in doc:
            raise ParameterError(key, "required section is missing")

    fit = _load_fit(doc["fit"], report)
    colonoscopy = _load_colonoscopy(doc["colonoscopy"])
    participation, periods = _load_participation(doc["participation"])
    costs = _load_costs(doc["costs"], report)
    prevalence0 = _load_prevalence0(doc["prevalence0"])
    transitions = _load_transitions(doc["transitions"], periods)
    population = _load_population(doc["population"], periods)
    options = _load_options(doc.get("options"), fit, report)

    return ParameterBundle(
        fit=fit,
        colonoscopy=colonoscopy,
        participation=participation,
        costs=costs,
        prevalence0=prevalence0,
        transitions=transitions,
        population=population,
        options=options,
        description=str(doc.get("description", "")),
    ), report


def _require_keys(section: Any, path: str, required: tuple[str, ...],
                  optional: tuple[str, ...] = ()) -> None:
    if not isinstance(section, Mapping):
        raise ParameterError(path, "must be a JSON object")
    unknown = sorted(set(section) - set(required) - set(optional))
    if unknown:
        raise ParameterError(f"{path}.{unknown[0]}", "unknown key")
    for key in required:
        if key not in section:
            raise ParameterError(f"{path}.{key}", "required key is missing")


def _probability(value: Any, path: str) -> float:
    value = _number(value, path)
    if not (0.0 <= value <= 1.0):
        raise ParameterError(path, f"probability {value!r} outside [0, 1]")
    return value


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(path, "must be a number")
    if not math.isfinite(value):
        raise ParameterError(path, "must be finite")
    return float(value)


def _load_fit(section: Any, report: LoadReport) -> FitTestCharacteristics:
    _require_keys(section, "fit",
                  ("unit", "cutoffs", "sensitivity", "specificity"))
    cutoffs = section["cutoffs"]
    if (not isinstance(cutoffs, list) or not cutoffs
            or not all(isinstance(c, str) for c in cutoffs)):
        raise ParameterError("fit.cutoffs",
                             "must be a non-empty list of strings")
    if len(set(cutoffs)) != len(cutoffs):
        raise ParameterError("fit.cutoffs", "duplicate cut-off labels")
    for label in cutoffs:
        # labels appear verbatim in CSV cells and strategy encodings
        if not label or any(ch in label for ch in ",|;\n"):
            raise ParameterError("fit.cutoffs",
                                 f"label {label!r} is empty or contains a "
                                 f"reserved character")
    cutoffs = tuple(cutoffs)

    _require_keys(section["sensitivity"], "fit.sensitivity", _ABNORMAL_KEYS)
    sensitivity: dict[str, dict[str, float]] = {}
    for state in _ABNORMAL_KEYS:
        table = section["sensitivity"][state]
        _require_keys(table, f"fit.sensitivity.{state}", tuple(cutoffs))
        sensitivity[state] = {
            c: _probability(table[c], f"fit.sensitivity.{state}.{c}")
            for c in cutoffs
        }
        values = [sensitivity[state][c] for c in cutoffs]
        if any(a < b - ZERO_TOL for a, b in zip(values, values[1:])):
            report.warnings.append(
                f"fit.sensitivity.{state}: not weakly decreasing along "
                f"declared cut-off order")

    _require_keys(section["specificity"], "fit.specificity", tuple(cutoffs))
    specificity = {
        c: _probability(section["specificity"][c], f"fit.specificity.{c}")
        for c in cutoffs
    }
    return FitTestCharacteristics(
        unit=str(section["unit"]),
        cutoffs=cutoffs,
        sensitivity=sensitivity,
        specificity=specificity,
    )


def _load_colonoscopy(section: Any) -> ColonoscopyCharacteristics:
    _require_keys(section, "colonoscopy", ("sensitivity", "adverse_events"))
    _require_keys(section["sensitivity"], "colonoscopy.sensitivity",
                  _ABNORMAL_KEYS)
    sens = {
        s: _probability(section["sensitivity"][s],
                        f"colonoscopy.sensitivity.{s}")
        for s in _ABNORMAL_KEYS
    }
    adverse = section["adverse_events"]
    _require_keys(adverse, "colonoscopy.adverse_events",
                  ("bleed", "perforation_with_polypectomy",
                   "perforation_without_polypectomy"))
    bleed = _probability(adverse["bleed"], "colonoscopy.adverse_events.bleed")
    pw = _probability(adverse["perforation_with_polypectomy"],
                      "colonoscopy.adverse_events.perforation_with_polypectomy")
    pwo = _probability(adverse["perforation_without_polypectomy"],
                       "colonoscopy.adverse_events.perforation_without_polypectomy")
    if bleed + max(pw, pwo) > 1.0 + ZERO_TOL:
        raise ParameterError("colonoscopy.adverse_events",
                             "bleed + perforation exceeds 1")
    return ColonoscopyCharacteristics(
        sensitivity=sens,
        bleed=bleed,
        perforation_with_polypectomy=pw,
        perforation_without_polypectomy=pwo,
    )


def _load_rates_by_sex(section: Any, path: str,
                       periods: int | None) -> tuple[dict[str, tuple[float, ...]], int]:
    _require_keys(section, path, ("F", "M"))
    out = {}
    for sex in ("F", "M"):
        rates = section[sex]
        if not isinstance(rates, list) or not rates:
            raise ParameterError(f"{path}.{sex}", "must be a non-empty list")
        out[sex] = tuple(
            _probability(v, f"{path}.{sex}[{i}]") for i, v in enumerate(rates)
        )
        if periods is None:
            periods = len(out[sex])
        elif len(out[sex]) != periods:
            raise ParameterError(
                f"{path}.{sex}",
                f"expected {periods} periods, got {len(out[sex])}")
    return out, periods


def _load_participation(section: Any) -> tuple[ParticipationParameters, int]:
    _require_keys(section, "participation", ("sample_ok", "return", "contact"))
    sample_ok = _probability(section["sample_ok"], "participation.sample_ok")
    return_rate, periods = _load_rates_by_sex(section["return"],
                                              "participation.return", None)
    contact, periods = _load_rates_by_sex(section["contact"],
                                          "participation.contact", periods)
    return ParticipationParameters(
        sample_ok=sample_ok, return_rate=return_rate, contact=contact
    ), periods


def _load_costs(section: Any, report: LoadReport) -> CostSchedule:
    _require_keys(section, "costs",
                  ("invitation", "lab_analysis", "colonoscopy", "exam_result",
                   "polypectomy", "adverse_event"),
                  optional=("incentive",))
    if "incentive" in section:
        incentive = _cost(section["incentive"], "costs.incentive")
    else:
        incentive = 50.0
        report.defaults.append("costs.incentive = 50.0")
    _require_keys(section["exam_result"], "costs.exam_result", _STATE_KEYS)
    _require_keys(section["adverse_event"], "costs.adverse_event",
                  ("bleed", "perforation"))
    return CostSchedule(
        incentive=incentive,
        invitation=_cost(section["invitation"], "costs.invitation"),
        lab_analysis=_cost(section["lab_analysis"], "costs.lab_analysis"),
        colonoscopy=_cost(section["colonoscopy"], "costs.colonoscopy"),
        exam_result={
            s: _cost(section["exam_result"][s], f"costs.exam_result.{s}")
            for s in _STATE_KEYS
        },
        polypectomy=_cost(section["polypectomy"], "costs.polypectomy"),
        adverse_event={
            s: _cost(section["adverse_event"][s], f"costs.adverse_event.{s}")
            for s in ("bleed", "perforation")
        },
    )


def _cost(value: Any, path: str) -> float:
    value = _number(value, path)
    if value < 0:
        raise ParameterError(path, f"cost {value!r} is negative")
    return value


def _load_prevalence0(section: Any) -> dict[str, PrevalenceVector]:
    _require_keys(section, "prevalence0", ("F", "M"))
    out = {}
    for sex in ("F", "M"):
        path = f"prevalence0.{sex}"
        _require_keys(section[sex], path, _STATE_KEYS)
        entries = {
            s: _probability(section[sex][s], f"{path}.{s}")
            for s in _STATE_KEYS
        }
        total = math.fsum(entries.values())
        if abs(total - 1.0) > SUM_TOL:
            raise ParameterError(path, f"prevalences sum to {total!r}, not 1")
        out[sex] = PrevalenceVector(**entries)
    return out


def _load_transitions(section: Any, periods: int) -> dict[str, tuple[TransitionRates, ...]]:
    _require_keys(section, "transitions", ("F", "M"))
    out = {}
    for sex in ("F", "M"):
        path = f"transitions.{sex}"
        rows = section[sex]
        if not isinstance(rows, list) or len(rows) != periods:
            raise ParameterError(path, f"must list {periods} periods")
        rates = []
        for i, row in enumerate(rows):
            row_path = f"{path}[{i}]"
            _require_keys(row, row_path,
                          ("normal_to_benign", "benign_to_large",
                           "large_to_crc"))
            rates.append(TransitionRates(
                normal_to_benign=_probability(
                    row["normal_to_benign"], f"{row_path}.normal_to_benign"),
                benign_to_large=_probability(
                    row["benign_to_large"], f"{row_path}.benign_to_large"),
                large_to_crc=_probability(
                    row["large_to_crc"], f"{row_path}.large_to_crc"),
            ))
        out[sex] = tuple(rates)
    return out


def _load_population(section: Any, periods: int) -> dict[str, tuple[float, ...]]:
    _require_keys(section, "population", ("F", "M"))
    out = {}
    for sex in ("F", "M"):
        path = f"population.{sex}"
        value = section[sex]
        if isinstance(value, list):
            if len(value) != periods:
                raise ParameterError(path, f"must list {periods} cohort sizes")
            sizes = tuple(_number(v, f"{path}[{i}]")
                          for i, v in enumerate(value))
        else:
            sizes = (_number(value, path),) * periods
        if any(s <= 0 for s in sizes):
            raise ParameterError(path, "cohort sizes must be positive")
        out[sex] = sizes
    return out


def _load_options(section: Any, fit: FitTestCharacteristics,
                  report: LoadReport) -> ModelOptions:
    if section is None:
        report.defaults.append("options = {} (all defaults)")
        section = {}
    _require_keys(section, "options", (),
                  optional=("fix_exam_to_colonoscopy", "incentive_enabled",
                            "cutoff_set"))
    if "fix_exam_to_colonoscopy" in section:
        fix_exam = section["fix_exam_to_colonoscopy"]
        if not isinstance(fix_exam, bool):
            raise ParameterError("options.fix_exam_to_colonoscopy",
                                 "must be a boolean")
    else:
        fix_exam = False
        report.defaults.append("options.fix_exam_to_colonoscopy = false")
    if "incentive_enabled" in section:
        incentive = section["incentive_enabled"]
        if not isinstance(incentive, bool):
            raise ParameterError("options.incentive_enabled",
                                 "must be a boolean")
    else:
        incentive = True
        report.defaults.append("options.incentive_enabled = true")
    cutoff_set = None
    if "cutoff_set" in section:
        subset = section["cutoff_set"]
        if not isinstance(subset, list) or not subset:
            raise ParameterError("options.cutoff_set",
                                 "must be a non-empty list")
        for label in subset:
            if label not in fit.cutoffs:
                raise ParameterError("options.cutoff_set",
                                     f"cut-off {label!r} is not declared in "
                                     f"fit.cutoffs")
        if len(set(subset)) != len(subset):
            raise ParameterError("options.cutoff_set",
                                 "duplicate cut-off labels")
        cutoff_set = tuple(subset)
    return ModelOptions(
        fix_exam_to_colonoscopy=fix_exam,
        incentive_enabled=incentive,
        cutoff_set=cutoff_set,
    )
