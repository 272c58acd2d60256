"""Workload definitions: the job configs each workload feeds to
``fracglap.cli.run``, generated from the workload seed.

Shared geometry unless a workload says otherwise: s = 0.5, pure kernel,
sin datum, constant exterior level 0.3, domain (-0.5, 0.5)^n.  The seed
draws the datum frequency and amplitude (each within 1% of 2 and 1) and
the config ``seed`` used by the randomized verify stages.  The solver's
iteration count reacts chaotically to any datum change (a 1e-9 change
in amplitude moves the p = 2, h = 1/256 count from 169 to 198), so a
wider range would only add seed-to-seed spread without covering new
behaviour; each rung solves several data instead, so that no single
chaotic count carries a pass.

``run_s`` adds up each job's median run over a run's passes (see
``worker.py``).  On a 2-core VM of a shared host every job's speed moves
by up to 40% over spells of seconds to minutes, so a run's figure is
steadier the more passes it times and the longer it runs.  So the power
ladder stops at h = 1/64 and the power_log ladder at h = 1/8 (a pass
takes about 4 s; up to h = 1/256 it took 11 s), and the 1-D solves form
one workload rather than two, which leaves time for 50 s runs.

This module imports nothing outside the standard library, so that a
set-up probe can time the package import from a clean interpreter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VERIFY_STAGES = (
    "linear_oracle", "gradient_fd", "minimality", "nfunction", "luxemburg",
    "tail_closed_form", "membership", "de_giorgi", "boundedness",
    "caccioppoli", "logarithmic", "sobolev_poincare", "holder_decay",
)
SWEEP_STAGES = ("boundedness", "caccioppoli", "sobolev_poincare",
                "holder_decay")
FULL_PIPELINE = (["solve"] + [f"verify:{n}" for n in VERIFY_STAGES]
                 + [f"sweep:{n}" for n in SWEEP_STAGES])

# Families whose refinement ladders are summarised; job.family is one of
# these keys (or None for jobs outside any ladder).
FAMILIES = ("p1.5", "p2", "p3", "plog2")

WORKLOADS = {
    "solve-1d": "1-D solves: power p in {1.5, 2, 3} x h in {1/16, 1/32, "
                "1/64} (solver iterations times pair sums), power_log "
                "p = 2 and a power exterior (radial far-tail quadrature)",
    "verify-2d": "2-D p = 2 at h in {1/16, 1/32} through every verify and "
                 "sweep stage: pair build, O(m^2) ball loops, artifacts",
}


@dataclass
class Job:
    name: str
    config: dict
    family: str | None = None        # ladder family key, see FAMILIES
    h: float = 0.0
    oracle: bool = False             # p = 2 with a level exterior model


def _config(rnd, dim, h, nfunction, radius, tol, pipeline=("solve",),
            exterior=None, initial=None):
    solver = {"tol": tol}
    if initial is not None:
        solver["initial"] = initial
    return {
        "problem": {
            "dim": dim,
            "h": h,
            "omega": {"lo": [-0.5] * dim, "hi": [0.5] * dim},
            "s": 0.5,
            "nfunction": nfunction,
            "kernel": {"form": "pure"},
            "datum": {"family": "sin",
                      "frequency": 2.0 + 0.02 * (2.0 * rnd.random() - 1.0),
                      "amplitude": 1.0 + 0.02 * (2.0 * rnd.random() - 1.0)},
            "exterior": exterior or {"kind": "constant", "value": 0.3},
            "truncation_radius": radius,
        },
        "pipeline": list(pipeline),
        "seed": rnd.randrange(2 ** 31),
        "solver": solver,
    }


def _ladder(rnd, tiny):
    # tol 1e-11, not 1e-9: at 1e-9 the p = 2 rungs miss the gate's 1e-8
    # sup-error bound against the dense solve (1e-7 measured at h = 1/256).
    # Three datum draws per rung: p = 1.5 takes 130 to 180 iterations at
    # h = 1/64 depending on the draw.
    jobs = []
    grid = ((2.0, (16,)),) if tiny else \
        ((1.5, (16, 32, 64)), (2.0, (16, 32, 64)), (3.0, (16, 32, 64)))
    for p, ks in grid:
        fam = f"p{p:g}"
        for k in ks:
            for d in range(1 if tiny else 3):
                cfg = _config(rnd, 1, 1.0 / k, {"family": "power", "p": p},
                              2.0, 1e-11)
                jobs.append(Job(f"{fam}-h1_{k}-{d}", cfg, fam, 1.0 / k,
                                oracle=p == 2.0))
    return jobs


def _far_tail(rnd, tiny):
    # Two datum draws per rung, h no finer than 1/8: every iteration pays
    # for the radial quadrature (20 ms at any h), and the count grows and
    # scatters with refinement (18 to 22 at h = 1/4, 24 to 26 at h = 1/8,
    # 28 to 36 at h = 1/16).
    jobs = []
    for k in ((8,) if tiny else (4, 8)):
        for d in range(1 if tiny else 2):
            cfg = _config(rnd, 1, 1.0 / k, {"family": "power_log", "p": 2.0},
                          2.0, 1e-9)
            jobs.append(Job(f"plog2-h1_{k}-{d}", cfg, "plog2", 1.0 / k))
    if not tiny:
        # The power exterior model keeps the radial quadrature in the far
        # tail of a power-growth problem.  h = 1/16 with the harmonic
        # start: at h = 1/32 the count flips between 58 and 330 iterations
        # under 1e-3 datum changes, and at h = 1/8 it needs about 500.
        cfg = _config(rnd, 1, 1.0 / 16, {"family": "power", "p": 2.0}, 2.0,
                      1e-11, exterior={"kind": "power", "value": 0.3,
                                       "exponent": 0.25},
                      initial="harmonic")
        jobs.append(Job("control-power-exterior-h1_16", cfg, None, 1.0 / 16))
    return jobs


def _verify(rnd, tiny):
    # tol 1e-11: at 1e-9 linear_oracle misses its 1e-8 tolerance
    jobs = []
    for k in ((16,) if tiny else (16, 32)):
        cfg = _config(rnd, 2, 1.0 / k, {"family": "power", "p": 2.0}, 0.5,
                      1e-11, pipeline=FULL_PIPELINE)
        jobs.append(Job(f"2d-p2-h1_{k}", cfg, "p2", 1.0 / k, oracle=True))
    return jobs


def _solve_1d(rnd, tiny):
    return _ladder(rnd, tiny) + _far_tail(rnd, tiny)


_JOB_LISTS = {"solve-1d": _solve_1d, "verify-2d": _verify}


def make_jobs(workload, seed, tiny=False):
    """Job list of ``workload`` for ``seed``; ``tiny`` keeps one small job
    per job family for the harness self-test."""
    if workload not in _JOB_LISTS:
        raise KeyError(f"unknown workload {workload!r}")
    rnd = random.Random(f"{workload}:{seed}")
    return _JOB_LISTS[workload](rnd, tiny)
