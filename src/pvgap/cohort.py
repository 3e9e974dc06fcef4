"""Cohort statistics over per-case gap reports.

Aggregates report dictionaries into a case table, computes per-area mean
and sample SD, runs one-vs-rest Welch tests on rgm_nauc, bins rgm_nauc
histograms, and builds per-region gap occurrence maps from the
reference-threshold gaps.

Each case holds one record per ok area, metric -> value. `_NAMES` gives
each metric its report key, which also ends its `cohort.csv` column, and
its `area_stats.csv` column stem. Area names follow `regions.is_area_name`,
as each names a file `hist_<area>.csv`.

Convention notes. Cohort statistics use the sample standard deviation
(n-1); a single-case cohort reports SD 0. A two-sided p-value is the
regularized incomplete beta of Student's t, summed by its continued
fraction (`_student_p`), so the module needs numpy and the standard library
only. An undefined statistic, such as a Welch test on too few values, is
an empty CSV cell.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, is_count, is_real
from .mesh import write_atomic
from .regions import AREA_NAME_RULE, STRATEGIES, is_area_name

# metric -> (report key, area_stats.csv column stem)
_NAMES = {"rgm_nauc": ("rgm_nauc", "rgm_nauc"),
          "gap_count": ("gap_count_mean", "gap_count"),
          "gap_length": ("gap_length_mm_mean", "gap_length_mm")}
METRICS = tuple(_NAMES)
_BIN_EDGES = np.arange(11) / 10  # of the rgm_nauc histograms, k/10
# the incomplete beta's continued fraction: stop once a step moves it by
# less than _CF_EPS relative; _CF_TINY stands in for a zero denominator
_CF_EPS, _CF_TINY, _CF_MAXIT = 1e-15, 1e-300, 300


@dataclass(frozen=True)
class CaseRow:
    case_id: str
    # per ok area: metric -> value, and the reference-threshold gap list
    values: dict
    ref_gaps: dict  # area -> tuple of (length_mm, midpoint_region)


@dataclass(frozen=True)
class CohortTable:
    rows: tuple
    areas: tuple  # first-seen order over reports
    strategy: dict  # area -> strategy
    labels: dict  # area -> sorted label tuple

    @property
    def n_cases(self) -> int:
        return len(self.rows)


def _is_length(v) -> bool:
    return is_real(v) and v >= 0.0


# the rule for each report value a cohort reads, and what its message asks
_RULES = {
    "mesh_name": (lambda v: isinstance(v, str), "a string"),
    "reference_threshold": (is_real, "a finite number"),
    "factor": (is_real, "a finite number"),
    "strategy": (STRATEGIES.__contains__, f"one of {STRATEGIES}"),
    "labels": (lambda v: isinstance(v, list) and all(map(is_count, v)),
               "a list of integers >= 0"),
    "status": (("ok", "failed").__contains__, "'ok' or 'failed'"),
    "rgm_nauc": (lambda v: is_real(v) and 0.0 <= v <= 1.0,
                 "a number in [0, 1]"),
    "gap_count_mean": (_is_length, "a number >= 0"),
    "gap_length_mm_mean": (_is_length, "a number >= 0"),
    "length_mm": (_is_length, "a number >= 0"),
    "midpoint_region": (is_count, "an integer >= 0"),
}


def _case_row(report: dict) -> tuple:
    """(CaseRow, area -> (strategy, labels)) of one report; an area name
    off `regions.is_area_name`, a missing key, a value of the wrong type or
    one out of range (`_RULES`) raises ConfigError naming the case and the
    area or field. Numbers are stored as floats, region ids as ints."""
    case = ""

    def value(obj, key, where=""):
        v = obj[key]
        ok, want = _RULES[key]
        if not ok(v):
            raise ConfigError(f"malformed gap report{case}: {where}{key} "
                              f"must be {want}, got {v!r}")
        return v

    try:
        case_id = value(report, "mesh_name")
        case = f" {case_id!r}"
        ref = value(report, "reference_threshold")
        values, gaps, meta = {}, {}, {}
        for name, area in report["areas"].items():
            at = f"area {name!r} "
            if not is_area_name(name):
                raise ConfigError(f"malformed gap report{case}: {at}name "
                                  f"must be {AREA_NAME_RULE}")
            meta[name] = (value(area, "strategy", at),
                          tuple(value(area, "labels", at)))
            if value(area, "status", at) != "ok":
                continue
            values[name] = {metric: float(value(area, key, at))
                            for metric, (key, _stem) in _NAMES.items()}
            at_ref = [p for p in area["per_threshold"]
                      if value(p, "factor", at) == ref]
            if len(at_ref) != 1:
                raise ConfigError(f"{case_id}: area {name!r} lacks the "
                                  f"reference threshold {ref}")
            gaps[name] = tuple((float(value(g, "length_mm", at)),
                                int(value(g, "midpoint_region", at)))
                               for g in at_ref[0]["gaps"])
    except KeyError as exc:
        raise ConfigError(f"gap report{case} lacks the key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed gap report{case}: {exc}") from None
    return CaseRow(case_id=case_id, values=values, ref_gaps=gaps), meta


def aggregate(reports) -> CohortTable:
    """Build the cohort table; duplicate case ids are rejected."""
    reports = list(reports)
    if not reports:
        raise ConfigError("need at least one report")
    rows, areas, strategy, labels = [], [], {}, {}
    seen = set()
    for rep in reports:
        row, meta = _case_row(rep)
        if row.case_id in seen:
            raise ConfigError(f"duplicate case id {row.case_id!r}")
        seen.add(row.case_id)
        rows.append(row)
        for name, (strat, labs) in meta.items():
            if name not in strategy:
                areas.append(name)
                strategy[name] = strat
                labels[name] = labs
            elif strategy[name] != strat or labels[name] != labs:
                raise ConfigError(f"area {name!r} configured inconsistently "
                                  "across reports")
    return CohortTable(rows=tuple(rows), areas=tuple(areas),
                       strategy=dict(strategy), labels=dict(labels))


def metric_values(table: CohortTable, area: str, metric: str) -> np.ndarray:
    """Per-case scalars of one area, metric one of METRICS; cases where
    the area failed are skipped."""
    if area not in table.areas:
        raise ConfigError(f"no area named {area!r} in the cohort")
    return np.asarray([r.values[area][metric] for r in table.rows
                       if area in r.values], dtype=np.float64)


def area_stats(table: CohortTable) -> dict:
    """Per-area mean and sample SD of the three metrics over cases."""
    out = {}
    for area in table.areas:
        entry = {"strategy": table.strategy[area]}
        for metric in METRICS:
            v = metric_values(table, area, metric)
            entry[f"n_{metric}"] = int(len(v))
            if len(v) == 0:
                entry[f"{metric}_mean"] = math.nan
                entry[f"{metric}_sd"] = math.nan
            else:
                entry[f"{metric}_mean"] = float(v.mean())
                # single case: SD reported as 0 by convention
                entry[f"{metric}_sd"] = (float(v.std(ddof=1))
                                         if len(v) > 1 else 0.0)
        out[area] = entry
    return out


# ----------------------------------------------------------------------
# Welch test

@dataclass(frozen=True)
class WelchResult:
    t: float
    df: float
    p: float


def _nonzero(v: float) -> float:
    return v if abs(v) >= _CF_TINY else _CF_TINY


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta I_x(a, b), summed by the
    modified Lentz method; it converges fast for x < (a+1) / (a+b+2)."""
    c, d = 1.0, 1.0 / _nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _CF_MAXIT):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x
                   / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 / _nonzero(1.0 + aa * d)
            c = _nonzero(1.0 + aa / c)
            h *= d * c
        if abs(d * c - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta I_{x}({a}, {b}) did not "
                          "converge")


def _student_p(t: float, df: float) -> float:
    """Two-sided p-value of Student's t with df > 0 degrees of freedom,
    P(|T| >= |t|) = 2 * stdtr(df, -|t|): the regularized incomplete beta
    I_x(df/2, 1/2) at x = df / (df + t^2) (Press et al., Numerical Recipes,
    §6.4). 1 - x is taken as t^2 / (df + t^2), not by subtraction, so p
    near 1 keeps its digits; nan for a non-finite df. Within 1e-10
    relative of scipy's stdtr for df in [1, 5000] wherever p is a normal
    double (tests/test_cohort.py); the lgamma differences lose digits as
    df grows, and the two part by about 2e-9 at df = 1e7."""
    if not math.isfinite(df):
        return math.nan
    tt = t * t
    if tt == 0.0 or tt == math.inf:  # p at its ends
        return 1.0 if tt == 0.0 else 0.0
    a, b = 0.5 * df, 0.5
    x, y = df / (df + tt), tt / (df + tt)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, y) / b


def welch_t_test(sample_a, sample_b) -> WelchResult:
    """Two-sample t-test without the equal-variance assumption; ValueError
    unless each sample holds at least 2 values, all finite numbers. df is
    Welch-Satterthwaite's and p is `_student_p(t, df)`."""
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or len(a) < 2 or len(b) < 2:
        raise ValueError("each sample needs at least 2 values")
    for name, sample in (("sample_a", sample_a), ("sample_b", sample_b)):
        if not all(map(is_real, sample)):
            raise ValueError(f"{name} must hold finite numbers")
    na, nb = len(a), len(b)
    va, vb = a.var(ddof=1), b.var(ddof=1)
    sa, sb = va / na, vb / nb
    se2 = sa + sb
    if se2 == 0.0:
        # zero variance both sides: defined only when means agree
        if a.mean() == b.mean():
            return WelchResult(t=0.0, df=float(na + nb - 2), p=1.0)
        raise ValueError("degenerate samples: zero variance, unequal means")
    t = float((a.mean() - b.mean()) / math.sqrt(se2))
    # each variance's share of se2, in [0, 1]: squaring the shares rather
    # than sa, sb and se2 keeps df finite where those squares underflow
    ra, rb = sa / se2, sb / se2
    df = float(1.0 / (ra * ra / (na - 1) + rb * rb / (nb - 1)))
    return WelchResult(t=t, df=df, p=_student_p(t, df))


def one_vs_rest(table: CohortTable, area: str) -> WelchResult:
    """Welch test of one area's rgm_nauc against the pooled rgm_nauc of the
    other independent-strategy areas."""
    target = metric_values(table, area, "rgm_nauc")
    rest = [metric_values(table, other, "rgm_nauc") for other in table.areas
            if other != area and table.strategy[other] == "independent"]
    rest = [v for v in rest if len(v)]
    if not rest:
        raise ConfigError(f"no other independent area to compare {area!r} "
                          "against")
    return welch_t_test(target, np.concatenate(rest))


# ----------------------------------------------------------------------
# distributions and regional maps

def histogram(values) -> np.ndarray:
    """Counts in the ten 0.1-wide bins over [0, 1] between the edges k/10:
    left-closed bins, the last bin also closed on the right, so a value
    equal to edge k lands in bin min(k, 9)."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("values must be a 1-d array")
    if not all(map(is_real, values)):
        raise ValueError("values must be finite numbers")
    if len(v) and (v.min() < 0.0 or v.max() > 1.0):
        raise ValueError("values outside [0, 1]")
    # the count of inner edges at or below v; 1.0 falls in the last bin
    idx = np.searchsorted(_BIN_EDGES[1:-1], v, side="right")
    return np.bincount(idx, minlength=len(_BIN_EDGES) - 1)


def regional_map(table: CohortTable, strategy: str) -> dict:
    """Per-region gap occurrence at the reference threshold over the areas
    of one strategy, "independent" or "joint"; the two are not pooled, as
    a gap that both an independent and a joint area find would count twice.

    Returns {label: {"percent_patients", "total_gaps",
    "mean_gap_length_mm"}} over the region labels covered by those areas;
    labels no area searches are absent from the result.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy must be one of {STRATEGIES}")
    areas = [a for a in table.areas if table.strategy[a] == strategy]
    covered = sorted({lab for a in areas for lab in table.labels[a]})
    n_cases = table.n_cases
    out = {}
    for lab in covered:
        patients = 0
        lengths = []
        for row in table.rows:
            here = [ln for a in areas for (ln, reg) in row.ref_gaps.get(a, ())
                    if reg == lab]
            if here:
                patients += 1
            lengths.extend(here)
        out[lab] = {
            "percent_patients": 100.0 * patients / n_cases,
            "total_gaps": len(lengths),
            "mean_gap_length_mm": (float(np.mean(lengths))
                                   if lengths else 0.0),
        }
    return out


# ----------------------------------------------------------------------
# CSV emission (fixed column orders, atomic writes)

def _fmt(v) -> str:
    if isinstance(v, float):
        return "" if math.isnan(v) else f"{v:.6g}"
    return str(v)


def _write_csv(path, header, rows) -> None:
    text = io.StringIO(newline="")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    write_atomic(path, [text.getvalue().encode("utf-8")])


def write_cohort_csv(table: CohortTable, path) -> None:
    header = ["case_id"] + [f"{a}_{key}" for a in table.areas
                            for key, _stem in _NAMES.values()]
    rows = [[r.case_id] + [r.values[a][m] if a in r.values else ""
                           for a in table.areas for m in METRICS]
            for r in table.rows]
    _write_csv(path, header, rows)


def write_area_stats_csv(table: CohortTable, path) -> None:
    stats = area_stats(table)
    header = ["area", "strategy", "n"] + [f"{stem}_{s}"
                                          for _key, stem in _NAMES.values()
                                          for s in ("mean", "sd")]
    rows = [[a, stats[a]["strategy"], stats[a]["n_rgm_nauc"]]
            + [stats[a][f"{m}_{s}"] for m in METRICS for s in ("mean", "sd")]
            for a in table.areas]
    _write_csv(path, header, rows)


def write_tests_csv(table: CohortTable, path) -> None:
    independents = [a for a in table.areas
                    if table.strategy[a] == "independent"]
    rows = []
    if len(independents) >= 2:  # one area alone has nothing to compare to
        for a in independents:
            try:
                res = one_vs_rest(table, a)
            except (ValueError, ConfigError):  # undefined test: empty cells
                res = WelchResult(t=math.nan, df=math.nan, p=math.nan)
            rows.append([a, "rgm_nauc", res.t, res.df, res.p])
    _write_csv(path, ["area", "metric", "t", "df", "p"], rows)


def write_histogram_csv(table: CohortTable, area: str, path) -> None:
    counts = histogram(metric_values(table, area, "rgm_nauc"))
    rows = [[f"{lo:.6g}", f"{hi:.6g}", int(c)]
            for lo, hi, c in zip(_BIN_EDGES, _BIN_EDGES[1:], counts)]
    _write_csv(path, ["bin_low", "bin_high", "count"], rows)


def write_regional_csv(table: CohortTable, path, strategy: str) -> None:
    rmap = regional_map(table, strategy)
    rows = [[lab, rmap[lab]["percent_patients"], rmap[lab]["total_gaps"],
             rmap[lab]["mean_gap_length_mm"]] for lab in sorted(rmap)]
    _write_csv(path, ["region", "percent_patients", "total_gaps",
                      "mean_gap_length_mm"], rows)
