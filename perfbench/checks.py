"""Output checks: well-formed finite CSV and the closed forms of ``laws``.

A Monte-Carlo value passes its closed-form check when it lies within
``STDERR_MULTIPLE`` of the stderr the command reports beside it.  Those
stderrs come from 8 seeds or 8 replicas, so their ratio to the error is
roughly Student-t with 7 degrees of freedom; P(|t_7| > 10) is about 2e-5,
which keeps a correct program from failing by chance over the ~1.5k checks
of a full benchmark evaluation.  Exact closed forms (the Jacobian limit)
are checked to ``EXACT_RTOL``.
"""

from __future__ import annotations

import csv
import io
import math
import re

STDERR_MULTIPLE = 10.0
EXACT_RTOL = 1e-9

HEADERS = {
    "verify": ("stat", "n", "empirical", "limit", "gap", "stderr", "verdict"),
    "limit": ("object", "kind", "value", "stderr"),
    "free": ("n", "seed_count", "median_abs", "mean_abs", "std"),
    "jacobian": ("k", "empirical", "limit", "rel_gap"),
}
NUMERIC = {
    "verify": (1, 2, 3, 4, 5),
    "limit": (2, 3),
    "free": (0, 1, 2, 3, 4),
    "jacobian": (0, 1, 2, 3),
}
WITNESS = re.compile(r"^witness_limit (\S+) stderr (\S+)$", re.M)


def _within(value: float, exact: float, stderr: float, scale: float = 1.0) -> bool:
    return abs(value - exact) / scale <= STDERR_MULTIPLE * stderr


def check(cmd, rc: int, csv_text: str, stderr_text: str,
          stderr_csv: str | None = None) -> list[str]:
    """Problems with one command's output; empty when it passes.

    ``stderr_csv`` is the output of ``cmd.stderr_from``, whose stderr column
    then bounds the closed-form checks of a ``limit`` command.
    """
    kind = cmd.argv[0]
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or tuple(rows[0]) != HEADERS[kind]:
        return [f"unexpected header {rows[0] if rows else None}"]
    rows = rows[1:]
    if not rows:
        return ["no rows"]
    problems = []
    for row in rows:
        if len(row) != len(HEADERS[kind]):
            return [f"malformed row {row}"]
        try:
            vals = [float(row[i]) for i in NUMERIC[kind]]
        except ValueError:
            return [f"non-numeric row {row}"]
        if not all(math.isfinite(v) for v in vals):
            problems.append(f"non-finite row {row}")
    fails = [r for r in rows if kind == "verify" and r[6] == "FAIL"]
    if rc != 0 and not (rc == 1 and fails):
        problems.append(f"exit code {rc}")

    if kind == "verify":
        last = max(int(r[1]) for r in rows)
        final = {r[0]: r for r in rows if int(r[1]) == last}
        for stat, exact in cmd.exact.items():
            if stat not in final:
                problems.append(f"missing {stat}")
                continue
            _, _, emp, lim, _, se, _ = final[stat]
            scale = max(1.0, abs(exact))
            for what, v in (("empirical", emp), ("limit", lim)):
                if not _within(float(v), exact, float(se), scale):
                    problems.append(f"{stat} {what} {v} vs closed form {exact} (stderr {se})")
    elif kind == "limit":
        by_object = {r[0]: r for r in rows}
        se_rows = {r[0]: r for r in csv.reader(io.StringIO(stderr_csv))} if stderr_csv else by_object
        for obj, exact in cmd.exact.items():
            if obj not in by_object or obj not in se_rows:
                problems.append(f"missing {obj}")
                continue
            value, se = by_object[obj][2], se_rows[obj][3]
            if not _within(float(value), exact, float(se)):
                problems.append(f"{obj} {value} vs closed form {exact} (stderr {se})")
    elif kind == "jacobian":
        by_k = {r[0]: r for r in rows}
        for k, exact in cmd.exact.items():
            lim = float(by_k[k][2]) if k in by_k else math.nan
            if not abs(lim - exact) <= EXACT_RTOL * abs(exact):
                problems.append(f"k={k} limit {lim} vs closed form {exact}")
    if cmd.witness_zero:
        m = WITNESS.search(stderr_text)
        if m is None:
            problems.append("no witness_limit line")
        elif not _within(float(m.group(1)), 0.0, float(m.group(2))):
            problems.append(f"witness limit {m.group(1)} (stderr {m.group(2)}) is not 0")
    return problems


def verify_verdicts(csv_text: str) -> tuple[int, list[str]]:
    """Number of statistics with a verdict in a verify CSV, and those that FAIL."""
    rows = [r for r in csv.reader(io.StringIO(csv_text)) if len(r) == 7 and r[6] in ("pass", "FAIL")]
    return len(rows), [r[0] for r in rows if r[6] == "FAIL"]
