"""Cohort statistics over per-case gap reports.

Aggregates report dictionaries into a case table, computes per-area mean
and sample SD, runs one-vs-rest Welch tests, bins rgm_nauc histograms, and
builds per-region gap occurrence maps from the reference-threshold gaps.

Convention notes. Cohort statistics use the sample standard deviation
(n-1); a single-case cohort reports SD 0. Two-sided p-values come from
the Student t distribution function `scipy.special.stdtr`. An undefined
statistic, such as a Welch test on too few values, is an empty CSV cell.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .mesh import write_atomic

METRICS = ("rgm_nauc", "gap_count", "gap_length")


@dataclass(frozen=True)
class CaseRow:
    case_id: str
    # per ok area: scalar summaries and the reference-threshold gap list
    nauc: dict
    gap_count_mean: dict
    gap_length_mean: dict
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


def _case_row(report: dict) -> tuple:
    """(CaseRow, area -> (strategy, labels)) of one report; a missing key
    or a value of the wrong type raises ConfigError."""
    try:
        case_id = report["mesh_name"]
        ref = report["reference_threshold"]
        if not isinstance(case_id, str):
            raise TypeError(f"mesh_name must be a string, got {case_id!r}")
        if (isinstance(ref, bool) or not isinstance(ref, (int, float))
                or not math.isfinite(ref)):
            raise ValueError("reference_threshold must be a finite number, "
                             f"got {ref!r}")
        nauc, counts, lens, gaps = {}, {}, {}, {}
        meta = {}
        for name, area in report["areas"].items():
            meta[name] = (area["strategy"], tuple(area["labels"]))
            if area["status"] != "ok":
                continue
            nauc[name] = float(area["rgm_nauc"])
            counts[name] = float(area["gap_count_mean"])
            lens[name] = float(area["gap_length_mm_mean"])
            at_ref = [p for p in area["per_threshold"] if p["factor"] == ref]
            if len(at_ref) != 1:
                raise ConfigError(f"{case_id}: area {name!r} lacks the "
                                  f"reference threshold {ref}")
            gaps[name] = tuple((float(g["length_mm"]),
                                int(g["midpoint_region"]))
                               for g in at_ref[0]["gaps"])
    except KeyError as exc:
        raise ConfigError(f"gap report lacks the key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed gap report: {exc}") from None
    row = CaseRow(case_id=case_id, nauc=nauc, gap_count_mean=counts,
                  gap_length_mean=lens, ref_gaps=gaps)
    return row, meta


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
    """Per-case scalars of one area; cases where the area failed are
    skipped."""
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}; pick from {METRICS}")
    if area not in table.areas:
        raise ConfigError(f"no area named {area!r} in the cohort")
    src = {"rgm_nauc": "nauc", "gap_count": "gap_count_mean",
           "gap_length": "gap_length_mean"}[metric]
    vals = [getattr(r, src)[area] for r in table.rows
            if area in getattr(r, src)]
    return np.asarray(vals, dtype=np.float64)


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


def welch_t_test(sample_a, sample_b) -> WelchResult:
    """Two-sample t-test without the equal-variance assumption."""
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or len(a) < 2 or len(b) < 2:
        raise ValueError("each sample needs at least 2 values")
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
    df = float(se2 * se2 / (sa * sa / (na - 1) + sb * sb / (nb - 1)))
    # imported here: quantify runs never need scipy.special
    from scipy import special
    p = float(2.0 * special.stdtr(df, -abs(t)))
    return WelchResult(t=t, df=df, p=p)


def one_vs_rest(table: CohortTable, area: str,
                metric: str = "rgm_nauc") -> WelchResult:
    """Welch test of one area against the pooled values of the other
    independent-strategy areas."""
    target = metric_values(table, area, metric)
    rest = [metric_values(table, other, metric) for other in table.areas
            if other != area and table.strategy[other] == "independent"]
    rest = [v for v in rest if len(v)]
    if not rest:
        raise ConfigError(f"no other independent area to compare {area!r} "
                          "against")
    return welch_t_test(target, np.concatenate(rest))


# ----------------------------------------------------------------------
# distributions and regional maps

def histogram(values, bin_width: float = 0.1) -> np.ndarray:
    """Counts over [0, 1]: left-closed bins, the last bin also closed on
    the right."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("values must be a 1-d array")
    if not np.isfinite(v).all():
        raise ValueError("values must be finite")
    if not (math.isfinite(bin_width) and bin_width > 0.0):
        raise ValueError("bin_width must be finite and positive")
    n_bins = int(round(1.0 / bin_width))
    if n_bins < 1 or abs(n_bins * bin_width - 1.0) > 1e-9:
        raise ValueError("bin width must divide [0, 1] evenly")
    if len(v) and (v.min() < 0.0 or v.max() > 1.0):
        raise ValueError("values outside [0, 1]")
    idx = np.minimum(np.floor(v / bin_width).astype(np.int64), n_bins - 1)
    return np.bincount(idx, minlength=n_bins)


def regional_map(table: CohortTable, strategy: str | None = None) -> dict:
    """Per-region gap occurrence at the reference threshold.

    Returns {label: {"percent_patients", "total_gaps",
    "mean_gap_length_mm"}} over the region labels covered by the selected
    areas; labels no area searches are absent from the result.
    """
    if strategy not in (None, "independent", "joint"):
        raise ConfigError("strategy filter must be independent, joint, "
                          "or None")
    areas = [a for a in table.areas
             if strategy is None or table.strategy[a] == strategy]
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
    write_atomic(path, text.getvalue().encode("utf-8"))


def write_cohort_csv(table: CohortTable, path) -> None:
    header = ["case_id"]
    for a in table.areas:
        header += [f"{a}_rgm_nauc", f"{a}_gap_count_mean",
                   f"{a}_gap_length_mm_mean"]
    rows = []
    for r in table.rows:
        row = [r.case_id]
        for a in table.areas:
            row += [_fmt(r.nauc[a]) if a in r.nauc else "",
                    _fmt(r.gap_count_mean[a]) if a in r.gap_count_mean
                    else "",
                    _fmt(r.gap_length_mean[a]) if a in r.gap_length_mean
                    else ""]
        rows.append(row)
    _write_csv(path, header, rows)


_CSV_COL = {"rgm_nauc": "rgm_nauc", "gap_count": "gap_count",
            "gap_length": "gap_length_mm"}


def write_area_stats_csv(table: CohortTable, path) -> None:
    stats = area_stats(table)
    header = ["area", "strategy", "n"]
    for m in METRICS:
        header += [f"{_CSV_COL[m]}_mean", f"{_CSV_COL[m]}_sd"]
    rows = []
    for a in table.areas:
        s = stats[a]
        row = [a, s["strategy"], s["n_rgm_nauc"]]
        for m in METRICS:
            row += [s[f"{m}_mean"], s[f"{m}_sd"]]
        rows.append(row)
    _write_csv(path, header, rows)


def write_tests_csv(table: CohortTable, path,
                    metric: str = "rgm_nauc") -> None:
    independents = [a for a in table.areas
                    if table.strategy[a] == "independent"]
    rows = []
    if len(independents) >= 2:  # one area alone has nothing to compare to
        for a in independents:
            try:
                res = one_vs_rest(table, a, metric)
            except (ValueError, ConfigError):  # undefined test: empty cells
                if metric not in METRICS:
                    raise
                res = WelchResult(t=math.nan, df=math.nan, p=math.nan)
            rows.append([a, metric, res.t, res.df, res.p])
    _write_csv(path, ["area", "metric", "t", "df", "p"], rows)


def write_histogram_csv(table: CohortTable, area: str, path,
                        bin_width: float = 0.1) -> None:
    counts = histogram(metric_values(table, area, "rgm_nauc"), bin_width)
    rows = [[f"{i * bin_width:.6g}", f"{(i + 1) * bin_width:.6g}", int(c)]
            for i, c in enumerate(counts)]
    _write_csv(path, ["bin_low", "bin_high", "count"], rows)


def write_regional_csv(table: CohortTable, path,
                       strategy: str | None = None) -> None:
    rmap = regional_map(table, strategy)
    rows = [[lab, rmap[lab]["percent_patients"], rmap[lab]["total_gaps"],
             rmap[lab]["mean_gap_length_mm"]] for lab in sorted(rmap)]
    _write_csv(path, ["region", "percent_patients", "total_gaps",
                      "mean_gap_length_mm"], rows)
