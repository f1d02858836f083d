"""Statistics and output checks shared by run.py and its tests."""

import math
import statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as
    statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def scaling_exp(seconds_n, seconds_2n):
    """log2 of the time at size 2n over the time at size n: about 1 for
    linear work, 2 for quadratic, whatever the machine's speed."""
    return math.log2(seconds_2n / seconds_n)


def _flatten(value, path, out):
    if isinstance(value, dict):
        for key in value:
            _flatten(value[key], f"{path}.{key}" if path else key, out)
    else:
        out[path] = value
    return out


def digest_diff(expected, actual):
    """Every field where two digests disagree, as readable lines."""
    want = _flatten(expected, "", {})
    got = _flatten(actual, "", {})
    return [f"{key}: expected {want.get(key, '<absent>')}, "
            f"got {got.get(key, '<absent>')}"
            for key in sorted(set(want) | set(got))
            if want.get(key) != got.get(key)]


def invariant_errors(digest):
    """Identities every run's digest must satisfy."""
    errors = []
    for label, run in sorted(digest.items()):
        if not isinstance(run, dict):
            continue
        settled = run["served"] + run["shed"] + run["abandoned"]
        if run["issued"] != settled:
            errors.append(f"{label}: issued {run['issued']} != served + "
                          f"shed + abandoned {settled}")
        if run["engine_issued"] not in (0, run["issued"]):
            errors.append(f"{label}: engine counted {run['engine_issued']} "
                          f"issued, the benchmark offered {run['issued']}")
        hedged = (run["hedges_won"] + run["hedges_cancelled"]
                  + run["hedges_lost"])
        if run["hedges_issued"] != hedged:
            errors.append(f"{label}: hedges issued {run['hedges_issued']} "
                          f"!= won + cancelled + lost {hedged}")
    if "cells" in digest and digest["cells"] <= 0:
        errors.append("sweep ran no cells")
    return errors
