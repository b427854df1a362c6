"""Arithmetic the benchmark reports: percentiles, spreads, fig11 errors."""

import math
import statistics

# Candidate tail percentiles, highest first. A percentile is reported only
# when at least MIN_BEYOND samples lie beyond it.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with p% of samples <= it."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    return xs[_rank(len(xs), p) - 1]


def _rank(n, p):
    # The epsilon keeps float error (0.999 * 10000 = 9990.000000000002)
    # from pushing an exact rank up by one.
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def samples_beyond(n, p):
    """How many of n samples lie strictly above the nearest-rank p-th."""
    return n - _rank(n, p)


def tail_percentile(n, candidates=TAIL_CANDIDATES, min_beyond=MIN_BEYOND):
    """The highest candidate percentile with >= min_beyond samples beyond it,
    or None when even the lowest candidate has too few."""
    for p in candidates:
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def drain_idle_frac(jobs, drain_wall_s, point_seconds):
    """Share of worker time a drain left idle:
    (jobs * wall - sum(point seconds)) / (jobs * wall)."""
    capacity = jobs * drain_wall_s
    if capacity <= 0:
        raise ValueError("drain with no capacity")
    return (capacity - sum(point_seconds)) / capacity


def pooled_idle_frac(drains):
    """drain_idle_frac over several drains [(jobs, wall, [point s]), ...],
    weighted by each drain's capacity."""
    capacity = sum(j * w for j, w, _ in drains)
    busy = sum(sum(ps) for _, _, ps in drains)
    return (capacity - busy) / capacity


def parse_fig11_table(text):
    """Parse the speedup table bench_fig11 prints.

    Returns {(workload, config): pct or None}; None marks an `n/a` cell.
    The `average` row is not a cell of its own and is skipped.
    """
    lines = text.splitlines()
    cells = {}
    for i, line in enumerate(lines):
        if not line.startswith("benchmark"):
            continue
        configs = line.split()[1:]
        for row in lines[i + 1:]:
            if row.startswith("---"):
                continue
            parts = row.split()
            if len(parts) != len(configs) + 1:
                break
            if parts[0] == "average":
                continue
            for config, cell in zip(configs, parts[1:]):
                cells[(parts[0], config)] = (
                    None if cell == "n/a" else float(cell.rstrip("%")))
        break
    return cells


def fig11_cells_from_cycles(cycles):
    """Speedup cells from {(workload, config): cycles}, computed and rounded
    the way bench_fig11 prints them: 100 * (orig / config - 1), one decimal.
    A workload without an `orig` point has n/a cells."""
    cells = {}
    for (workload, config), c in cycles.items():
        if config == "orig":
            continue
        base = cycles.get((workload, "orig"))
        cells[(workload, config)] = (
            None if base is None or not c
            else float("%.1f" % (100.0 * (base / c - 1.0))))
    return cells


def delta_err(candidate, reference):
    """Error of one fig11 table against another, in percentage points.

    Returns {mean, max, cells, na}: mean and max of |candidate - reference|
    over the cells both tables hold as numbers, how many such cells, and how
    many cells were n/a (or missing) in either table.
    """
    errors = []
    na = 0
    for key in sorted(set(candidate) | set(reference)):
        a, b = candidate.get(key), reference.get(key)
        if a is None or b is None:
            na += 1
            continue
        errors.append(abs(a - b))
    return {
        "mean": sum(errors) / len(errors) if errors else float("nan"),
        "max": max(errors) if errors else float("nan"),
        "cells": len(errors),
        "na": na,
    }


def error_table(candidate, reference):
    """Rows for printing the per-cell error table: (workload, config,
    candidate, reference, |delta|) with None for n/a."""
    rows = []
    for key in sorted(set(candidate) | set(reference)):
        a, b = candidate.get(key), reference.get(key)
        d = abs(a - b) if a is not None and b is not None else None
        rows.append((key[0], key[1], a, b, d))
    return rows
