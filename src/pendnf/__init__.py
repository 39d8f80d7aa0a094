"""Canonical normal coordinates for the classical pendulum near its unstable
(and stable) equilibrium, built from Jacobi elliptic functions.

Layers:

* :mod:`pendnf.elliptic` -- double-precision elliptic kernel (K, E, sn/cn/dn,
  nome, rate g0, Legendre defect).
* :mod:`pendnf.series` -- exact truncated power series over rationals.
* :mod:`pendnf.normal_form` -- the nome series of every normal-form quantity
  and the coefficient-level identity checks.
* :mod:`pendnf.dynamics` -- trajectories in four equivalent representations
  and the canonical map (B, beta) <-> (p, q).
* :mod:`pendnf.cli` -- the ``pend-nf`` command.
"""

import gc as _gc

from .elliptic import (
    Modulus,
    complete_e,
    complete_k,
    g0_eval,
    g0_from_nome,
    h_from_nome,
    jacobi_elliptic,
    lambda_from_h,
    lambda_from_nome,
    legendre_defect,
    nome_from_h,
)
from .series import RationalSeries, product_series
from .normal_form import (
    IdentityReport,
    StableFormBundle,
    stable_bundle,
    rescaling_identity_check,
    theta_logderiv_check,
)
from .dynamics import (
    NormalCoords,
    PendulumParams,
    PhaseState,
    TrajectoryRecord,
    canonical_from_normal,
    closed_form_state,
    hamiltonian,
    hyperbolic_state,
    normal_flow,
    rk_oracle,
    series_state,
    stable_state,
    trajectory,
)

__version__ = "0.1.0"

# one young collection moves the 4,000 lasting objects the imports leave young (functions,
# classes, tables) to the collector's old generation now; otherwise the next young collection
# falls inside the first call and rescans them (1-2 ms)
_gc.collect(1)
