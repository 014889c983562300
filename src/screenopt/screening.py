"""Segment-specific screening model.

Builds the per-(sex, period) influence diagram of the screening pathway:
cut-off / incentive / invitation decisions, sample return, stool-test result,
contact with the screening nurse, the examination decision, its result,
polypectomy and adverse events, plus value nodes for cost, examinations
performed and growths found. Conditional probabilities follow the tabulated
model: test positivity is a sensitivity/specificity mixture over the bowel
prevalence, and examination results are Bayes posteriors thinned by
examination sensitivity, with perfect examination specificity.
``segment_tables`` builds the chance tables as arrays for many prevalences
at once; a segment diagram holds one row of them.

All parameters come from a JSON document; ``load_parameters`` validates it
strictly (unknown keys rejected, probabilities bounded, prevalence simplexes
checked) and reports every applied default. The values shipped in
``data/synthetic_default.json`` are synthetic illustrative magnitudes, not
calibrated estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping, Sequence

import numpy as np

from .diagram import (
    SUM_TOL,
    ZERO_TOL,
    InfluenceDiagram,
    Node,
    NodeKind,
    Strategy,
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


def check_prevalence_rows(rows: np.ndarray) -> None:
    """The one prevalence check, on every row of an (N x 4) array: a
    prevalence is a row in :class:`BowelState` order that sums to 1 within
    SUM_TOL and has no entry below -ZERO_TOL."""
    total = rows[:, 0] + rows[:, 1] + rows[:, 2] + rows[:, 3]
    off = np.flatnonzero(~(np.abs(total - 1.0) <= SUM_TOL))
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
    """Stool-test sensitivity per cut-off and abnormal state, and specificity.

    ``cutoffs`` is the state space of the cut-off decision, in declared
    order; that order numbers the strategies. Read the tables directly:
    ``sensitivity[state][label]`` and ``specificity[label]``.
    """

    unit: str
    cutoffs: tuple[str, ...]
    sensitivity: Mapping[str, Mapping[str, float]]  # state key -> cutoff -> value
    specificity: Mapping[str, float]                # cutoff -> value


@dataclass(frozen=True)
class ColonoscopyCharacteristics:
    """Examination sensitivity per abnormal state; specificity is perfect."""

    sensitivity: Mapping[str, float]  # abnormal state key -> value
    bleed: float
    perforation_with_polypectomy: float
    perforation_without_polypectomy: float


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


@dataclass(frozen=True)
class ParameterBundle:
    """A validated parameter document. ``fit.cutoffs`` alone states the
    cut-offs a run optimizes over, and their order."""

    fit: FitTestCharacteristics
    colonoscopy: ColonoscopyCharacteristics
    participation: ParticipationParameters
    costs: CostSchedule
    prevalence0: Mapping[str, np.ndarray]                # sex value -> row
    transitions: Mapping[str, tuple[TransitionRates, ...]]
    population: Mapping[str, tuple[float, ...]]          # cohort size per period
    options: ModelOptions = ModelOptions()
    description: str = ""

    @property
    def periods(self) -> int:
        return len(self.transitions[Sex.F.value])

    def starting_prevalence(self, sex: Sex) -> np.ndarray:
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
# Chance tables
# ---------------------------------------------------------------------------

def segment_tables(params: ParameterBundle, segment: Segment,
                   psi_rows: np.ndarray) -> dict[int, np.ndarray]:
    """Every chance table of ``segment``, as the evaluator's dense arrays
    indexed (row, information state..., state).

    The test-result and examination-result tables, the only ones that
    depend on the prevalence, have one row per row of ``psi_rows`` (H x 4,
    state order); the other four have one row. A positive test has
    probability ``(1 - specificity) * normal`` plus ``sensitivity *
    prevalence`` for each abnormal state in turn; an examination finds each
    abnormal state with its sensitivity times the Bayes posterior
    ``sensitivity * prevalence / P(positive)``, and the normal result
    absorbs the rest (missed findings read as normal, since examination
    specificity is perfect). Where a positive test has probability zero the
    examination row is unreachable and kept as the degenerate all-normal
    one. Rows without contact or without a colonoscopy are the "NA" result.
    """
    psi = np.asarray(psi_rows, dtype=float)
    fit, col = params.fit, params.colonoscopy
    spec = np.array([fit.specificity[c] for c in fit.cutoffs])
    sens = np.array([[fit.sensitivity[s.value][c] for s in ABNORMAL]
                     for c in fit.cutoffs])
    col_sens = np.array([col.sensitivity[s.value] for s in ABNORMAL])

    numer = sens * psi[:, None, 1:]          # rows x cut-offs x abnormal
    fpos = (1.0 - spec) * psi[:, :1]
    for j in range(len(ABNORMAL)):
        fpos = fpos + numer[:, :, j]
    reachable = fpos > 0
    found = col_sens * (numer / np.where(reachable, fpos, 1.0)[:, :, None])
    normal = np.array([1.0 - math.fsum(row)
                       for row in found.reshape(-1, len(ABNORMAL)).tolist()]
                      ).reshape(fpos.shape)

    # Stage 5: test result, given (cut-off, sample returned).
    fit_table = np.zeros(fpos.shape + (2, 3))
    fit_table[:, :, 0, 0] = 1.0
    fit_table[:, :, 1, 1] = fpos
    fit_table[:, :, 1, 2] = 1.0 - fpos
    # Stage 8: examination result, given (cut-off, contact, exam).
    exam_table = np.zeros(fpos.shape + (2, 2, 5))
    exam_table[..., 0] = 1.0
    exam_table[:, :, 1, 1, 0] = 0.0
    exam_table[:, :, 1, 1, 1] = np.where(reachable, normal, 1.0)
    exam_table[:, :, 1, 1, 2:] = np.where(reachable[:, :, None], found, 0.0)

    ret_ok = params.participation.return_ok(segment)
    contact = params.participation.contact_rate(segment)
    bleed = col.bleed
    pw = col.perforation_with_polypectomy
    pwo = col.perforation_without_polypectomy
    return {
        # Stage 4: usable sample returned, given (incentive, invite). The
        # incentive halves the probability of not returning a sample.
        SAMPLE: np.array([[[[1.0, 0.0], [1.0 - ret_ok, ret_ok]],
                           [[1.0, 0.0], [(1.0 - ret_ok) / 2.0,
                                         ret_ok + (1.0 - ret_ok) / 2.0]]]]),
        FIT_RESULT: fit_table,
        # Stage 6: nurse contact, given the test result; only possible
        # after a positive result.
        CONTACT: np.array([[[1.0, 0.0], [1.0 - contact, contact],
                            [1.0, 0.0]]]),
        EXAM_RESULT: exam_table,
        # Stage 9: polyp found whenever any growth is found.
        POLYP: np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                          [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]]),
        # Stage 10: adverse event, given polypectomy status.
        ADVERSE: np.array([[[1.0, 0.0, 0.0], [1.0 - bleed - pwo, bleed, pwo],
                            [1.0 - bleed - pw, bleed, pw]]]),
    }


# ---------------------------------------------------------------------------
# Diagram construction
# ---------------------------------------------------------------------------

def build_segment_diagram(segment: Segment, params: ParameterBundle,
                          psi: np.ndarray) -> InfluenceDiagram:
    """Influence diagram for one segment at prevalence ``psi``, a (4,) row."""
    no_yes = ("no", "yes")
    nodes = (
        Node(CUTOFF, NodeKind.DECISION, "cutoff", params.fit.cutoffs),
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
    check_prevalence_rows(np.reshape(psi, (1, 4)))
    tables = segment_tables(params, segment, np.reshape(psi, (1, 4)))

    # The cost of every (incentive, invite, sample, exam, exam result,
    # polyp, adverse event) state: the stage costs added in stage order,
    # from +0.0. A stage that costs nothing adds +0.0, which is exact.
    s2, s3, s4, s7, s8, s9, s10 = np.ix_(*map(range, (2, 2, 2, 2, 5, 3, 3)))
    c = params.costs
    cost = (0.0
            + np.where(s3 == 1, c.invitation, 0.0)
            # Incentive is mailed with the invitation only.
            + np.where((s3 == 1) & (s2 == 1), c.incentive, 0.0)
            + np.where(s4 == 1, c.lab_analysis, 0.0)
            # Examination cost accrues when it actually happens.
            + np.where((s7 == 1) & (s8 != 0), c.colonoscopy, 0.0)
            + np.array([0.0] + [c.exam_result[s] for s in _STATE_KEYS])[s8]
            + np.where(s9 == 2, c.polypectomy, 0.0)
            + np.array([0.0, c.adverse_event["bleed"],
                        c.adverse_event["perforation"]])[s10])
    values = {COST_NODE: (cost, "minimize"),
              COL_NODE: (np.array([[0.0, 0.0], [0.0, -1.0]]), "maximize")}
    for node_id, found in ((BENIGN_NODE, 2), (LARGE_NODE, 3), (CRC_NODE, 4)):
        values[node_id] = (np.eye(5)[found], "maximize")

    return InfluenceDiagram(
        nodes=nodes,
        cpts={node_id: table[0] for node_id, table in tables.items()},
        values={node_id: ValueSpec(node_id, array, orientation=orientation)
                for node_id, (array, orientation) in values.items()},
    )


def fixed_decision_rules(params: ParameterBundle) -> Strategy:
    """Decision rules pinned by the model options.

    Disabling incentives pins stage 2 to "no". Fixing the examination pins
    stage 7, indexed (test result, contact), to "colonoscopy whenever
    contact was established".
    """
    fixed = {}
    if not params.options.incentive_enabled:
        fixed[INCENTIVE] = np.array(0)
    if params.options.fix_exam_to_colonoscopy:
        fixed[EXAM] = np.tile([0, 1], (3, 1))
    return fixed


def policy_cell(strategy: Strategy, cutoffs: Sequence[str]) -> str:
    """Policy-table cell for one period: cut-off label, "+i" when
    incentivized, "-" when not invited, "+noexam" when a positive test is
    not examined."""
    if strategy[INVITE][()] == 0:
        return "-"
    cell = cutoffs[strategy[CUTOFF][()]]
    if strategy[INCENTIVE][()] == 1:
        cell += "+i"
    if strategy[EXAM][1, 1] == 0:
        cell += "+noexam"
    return cell


def history_columns(strategy: Strategy, cutoffs: Sequence[str]) -> str:
    """One period's four histories-CSV cells: cut-off label, incentive,
    invitation and examination of a positive test."""
    return ",".join([
        cutoffs[strategy[CUTOFF][()]],
        "yes" if strategy[INCENTIVE][()] == 1 else "no",
        "yes" if strategy[INVITE][()] == 1 else "no",
        "colonoscopy" if strategy[EXAM][1, 1] == 1 else "none"])


# ---------------------------------------------------------------------------
# Parameter loading
# ---------------------------------------------------------------------------

_TOP_KEYS = {"description", "fit", "colonoscopy", "participation", "costs",
             "prevalence0", "transitions", "population", "options"}
_REQUIRED = ("fit", "colonoscopy", "participation", "costs", "prevalence0",
             "transitions", "population")
_STATE_KEYS = tuple(state.value for state in BowelState)
_ABNORMAL_KEYS = tuple(state.value for state in ABNORMAL)


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
    # Arguments are evaluated left to right, which orders the later checks.
    bundle = ParameterBundle(
        fit=fit,
        colonoscopy=colonoscopy,
        participation=participation,
        costs=_load_costs(doc["costs"], report),
        prevalence0=_per_sex(doc["prevalence0"], "prevalence0", _prevalence),
        transitions=_per_sex(doc["transitions"], "transitions", _transitions,
                             periods),
        population=_per_sex(doc["population"], "population", _cohort_sizes,
                            periods),
        options=_load_options(doc.get("options"), report),
        description=_string(doc.get("description", ""), "description"),
    )
    _check_totals(bundle)
    return bundle, report


def _check_totals(bundle: ParameterBundle) -> None:
    """Every count the program totals is at most the cohort size summed
    over both sexes and all periods, and every cost at most the most
    expensive path's (each stage's largest cost, added in stage order)
    times that sum: reject a document where either is not finite."""
    total = sum(sum(sizes) for sizes in bundle.population.values())
    if not math.isfinite(total):
        raise ParameterError("population", "total cohort size over both "
                             "sexes and all periods is not finite")
    c = bundle.costs
    worst = (c.invitation + c.incentive + c.lab_analysis + c.colonoscopy
             + max(c.exam_result.values()) + c.polypectomy
             + max(c.adverse_event.values()))
    if not math.isfinite(worst * total):
        raise ParameterError("costs", "the most expensive path's cost times "
                             "the total cohort size is not finite")


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


def _per_sex(section: Any, path: str, read, *args) -> dict[str, Any]:
    """``read(value, path, *args)`` of the "F" and then the "M" entry of a
    section that holds exactly those two."""
    _require_keys(section, path, ("F", "M"))
    return {sex: read(section[sex], f"{path}.{sex}", *args)
            for sex in ("F", "M")}


def _probabilities(section: Any, path: str,
                   keys: tuple[str, ...]) -> dict[str, float]:
    """A section of exactly ``keys``, each a probability, in key order."""
    _require_keys(section, path, keys)
    return {key: _probability(section[key], f"{path}.{key}") for key in keys}


def _probability(value: Any, path: str) -> float:
    value = _number(value, path)
    if not (0.0 <= value <= 1.0):
        raise ParameterError(path, f"probability {value!r} outside [0, 1]")
    return value


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ParameterError(path, "must be a string")
    return value


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(path, "must be a number")
    try:
        number = float(value)
    except OverflowError:  # an int too large for a float
        raise ParameterError(path, "must be finite") from None
    if not math.isfinite(number):
        raise ParameterError(path, "must be finite")
    return number


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
        if not label or any(ch in label for ch in ',|;"\n\r'):
            raise ParameterError("fit.cutoffs",
                                 f"label {label!r} is empty or contains a "
                                 f"reserved character (, | ; \" or a line "
                                 f"break)")
        # a policy cell appends "+i" or "+noexam" and reads "-" if uninvited
        if label == "-" or "+" in label:
            raise ParameterError("fit.cutoffs", f"label {label!r} is \"-\" or "
                                 f"contains \"+\", the policy-table markers")
    cutoffs = tuple(cutoffs)

    _require_keys(section["sensitivity"], "fit.sensitivity", _ABNORMAL_KEYS)
    sensitivity = {
        state: _probabilities(section["sensitivity"][state],
                              f"fit.sensitivity.{state}", cutoffs)
        for state in _ABNORMAL_KEYS
    }
    for state, table in sensitivity.items():
        values = list(table.values())
        if any(a < b - ZERO_TOL for a, b in zip(values, values[1:])):
            report.warnings.append(
                f"fit.sensitivity.{state}: not weakly decreasing along "
                f"declared cut-off order")
    return FitTestCharacteristics(
        unit=_string(section["unit"], "fit.unit"),
        cutoffs=cutoffs,
        sensitivity=sensitivity,
        specificity=_probabilities(section["specificity"], "fit.specificity",
                                   cutoffs),
    )


def _load_colonoscopy(section: Any) -> ColonoscopyCharacteristics:
    _require_keys(section, "colonoscopy", ("sensitivity", "adverse_events"))
    sensitivity = _probabilities(section["sensitivity"],
                                 "colonoscopy.sensitivity", _ABNORMAL_KEYS)
    adverse = _probabilities(section["adverse_events"],
                             "colonoscopy.adverse_events",
                             ("bleed", "perforation_with_polypectomy",
                              "perforation_without_polypectomy"))
    bleed, pw, pwo = adverse.values()
    if bleed + max(pw, pwo) > 1.0 + ZERO_TOL:
        raise ParameterError("colonoscopy.adverse_events",
                             "bleed + perforation exceeds 1")
    return ColonoscopyCharacteristics(sensitivity=sensitivity, **adverse)


def _load_participation(section: Any) -> tuple[ParticipationParameters, int]:
    """The participation rates and the period count, which the first
    per-period list sets and every other one must match."""
    _require_keys(section, "participation", ("sample_ok", "return", "contact"))
    sample_ok = _probability(section["sample_ok"], "participation.sample_ok")
    periods = None

    def rates(values: Any, path: str) -> tuple[float, ...]:
        nonlocal periods
        if not isinstance(values, list) or not values:
            raise ParameterError(path, "must be a non-empty list")
        out = tuple(_probability(v, f"{path}[{i}]")
                    for i, v in enumerate(values))
        periods = periods or len(out)
        if len(out) != periods:
            raise ParameterError(
                path, f"expected {periods} periods, got {len(out)}")
        return out

    return_rate = _per_sex(section["return"], "participation.return", rates)
    contact = _per_sex(section["contact"], "participation.contact", rates)
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


def _prevalence(section: Any, path: str) -> np.ndarray:
    entries = _probabilities(section, path, _STATE_KEYS)
    total = math.fsum(entries.values())
    if abs(total - 1.0) > SUM_TOL:
        raise ParameterError(path, f"prevalences sum to {total!r}, not 1")
    psi = np.array(list(entries.values()))
    check_prevalence_rows(psi[None])
    psi.flags.writeable = False
    return psi


def _transitions(rows: Any, path: str,
                 periods: int) -> tuple[TransitionRates, ...]:
    if not isinstance(rows, list) or len(rows) != periods:
        raise ParameterError(path, f"must list {periods} periods")
    return tuple(
        TransitionRates(**_probabilities(
            row, f"{path}[{i}]",
            ("normal_to_benign", "benign_to_large", "large_to_crc")))
        for i, row in enumerate(rows))


def _cohort_sizes(value: Any, path: str, periods: int) -> tuple[float, ...]:
    """One size per period, or one number repeated for every period."""
    if isinstance(value, list):
        if len(value) != periods:
            raise ParameterError(path, f"must list {periods} cohort sizes")
        sizes = tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))
    else:
        sizes = (_number(value, path),) * periods
    if any(s <= 0 for s in sizes):
        raise ParameterError(path, "cohort sizes must be positive")
    return sizes


def _load_options(section: Any, report: LoadReport) -> ModelOptions:
    if section is None:
        report.defaults.append("options = {} (all defaults)")
        section = {}
    _require_keys(section, "options", (),
                  optional=("fix_exam_to_colonoscopy", "incentive_enabled"))
    return ModelOptions(
        fix_exam_to_colonoscopy=_flag(section, "fix_exam_to_colonoscopy",
                                      False, report),
        incentive_enabled=_flag(section, "incentive_enabled", True, report),
    )


def _flag(section: Mapping[str, Any], key: str, default: bool,
          report: LoadReport) -> bool:
    """Boolean option ``key``, or ``default`` with its default line."""
    if key not in section:
        report.defaults.append(f"options.{key} = {str(default).lower()}")
        return default
    if not isinstance(section[key], bool):
        raise ParameterError(f"options.{key}", "must be a boolean")
    return section[key]
