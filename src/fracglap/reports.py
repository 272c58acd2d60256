"""Uniform result record for every inequality and estimate check.

A check compares a left-hand quantity against a sum of named right-hand
terms.  The empirical constant is lhs / sum(rhs) with unit coefficients,
and the check passes when that constant stays below the declared bound.
Multi-sample checks report the extremal sample and carry its parameters
as witnesses.  Every artifact file is written through ``write_atomic``.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field


@dataclass
class EstimateReport:
    name: str
    lhs: float
    rhs_terms: dict[str, float]
    empirical_constant: float
    tolerance: float
    passed: bool
    witnesses: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @classmethod
    def from_sides(cls, name, lhs, rhs_terms, tolerance, witnesses=None,
                   details=None):
        rhs_sum = float(sum(rhs_terms.values()))
        constant = ratio(lhs, rhs_sum)
        return cls(
            name=name,
            lhs=float(lhs),
            rhs_terms={k: float(v) for k, v in rhs_terms.items()},
            empirical_constant=constant,
            tolerance=float(tolerance),
            passed=bool(constant <= tolerance),
            witnesses=witnesses or {},
            details=details or {},
        )

    def to_dict(self):
        return dataclasses.asdict(self)


def ratio(lhs, rhs):
    """lhs / rhs with the 0/0 -> 0 convention used by all checks."""
    lhs = float(lhs)
    rhs = float(rhs)
    if lhs == 0.0:
        return 0.0
    if rhs == 0.0:
        return float("inf")
    return lhs / rhs


def ratio_array(lhs, rhs):
    """Vectorized ``ratio``."""
    import numpy as np

    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(lhs == 0.0, 0.0,
                       np.where(rhs == 0.0, np.inf, lhs / np.where(rhs == 0, 1, rhs)))
    return out


def write_atomic(path, write, newline=None):
    """Write ``path`` through ``write(fh)`` on a text file: into a
    temporary file in the same directory, renamed onto ``path`` when
    complete, so a failed write leaves neither a partial ``path`` nor
    the temporary file."""
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
