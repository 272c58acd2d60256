"""fracglap: nonlocal Dirichlet problems with general growth.

Solves the homogeneous Dirichlet problem for fractional nonlocal
operators whose nonlinearity is a general convex growth profile (G, g),
by direct minimization of the pairwise interaction energy on a lattice,
and quantitatively checks the a priori regularity estimates: local
boundedness, oscillation decay with Holder-exponent recovery,
truncation-energy and logarithmic bounds, the integral
Sobolev-Poincare inequality, and the geometric iteration lemma.

The growth profile is one object, ``NFunction(family, exponent=None,
table=None, p=None, q=None)``, also built by ``make_power``,
``make_power_log`` and ``make_table``.

Main entry points:

>>> from fracglap import make_power, Kernel, ExteriorModel, GridFunction
>>> from fracglap import Lattice, NonlocalProblem, solve
"""

from .funcspace import (Ball, ExteriorModel, GridFunction, Kernel, Lattice,
                        gagliardo_modular, luxemburg_norm, membership_check,
                        sphere_measure, tail)
from .nfunction import (NFunction, check_doubling, check_growth_sandwich,
                        check_scaling, check_young, make_power,
                        make_power_log, make_table)
from .regularity import (Cutoff, DecaySchedule, boundedness_check,
                         caccioppoli_check, de_giorgi_iterate,
                         holder_decay_fit, log_estimate_check,
                         sobolev_poincare_check)
from .reports import EstimateReport
from .solver import (InadmissibleError, NonlocalProblem, SolveReport,
                     assemble_quadratic, energy, gradient, solve,
                     weak_residual)

__all__ = [
    "Ball", "Cutoff", "DecaySchedule", "EstimateReport",
    "ExteriorModel", "GridFunction", "InadmissibleError", "Kernel",
    "Lattice", "NFunction", "NonlocalProblem", "SolveReport",
    "assemble_quadratic", "boundedness_check", "caccioppoli_check",
    "check_doubling", "check_growth_sandwich",
    "check_scaling", "check_young", "de_giorgi_iterate", "energy",
    "gagliardo_modular", "gradient", "holder_decay_fit",
    "log_estimate_check", "luxemburg_norm", "make_power", "make_power_log",
    "make_table", "membership_check", "sobolev_poincare_check", "solve",
    "sphere_measure", "tail", "weak_residual",
]

__version__ = "0.1.0"
