"""Decoherence and geometric phase of a qubit in a random-phase bath.

A dephasing qubit couples to a set of bath modes whose phases diffuse
in time.  This package computes the resulting decoherence factor
(closed forms where they exist, adaptive quadrature elsewhere),
validates it against a trajectory-sampling oracle, and propagates the
loss of coherence into the non-unitary geometric phase of a
quasi-cyclic evolution.
"""

from .bath import (
    BathConfig,
    DeltaLimitError,
    PhaseProfile,
    SpectralDensity,
    phase_distribution_eval,
)
from .dephasing import (
    METHOD_CLOSED,
    METHOD_MC,
    METHOD_QUADRATURE,
    DecoherenceCurve,
    DipReport,
    beta_closed,
    beta_integrand,
    beta_quadrature,
    beta_values,
    decoherence_factor,
    find_dip,
)
from .geomphase import (
    GPResult,
    LambdaSweepResult,
    SurfaceResult,
    bloch_angle,
    first_order_coefficient,
    first_order_correction,
    gamma_comparison,
    geometric_phase,
    gp_lambda_sweep,
    gp_surface,
    perturbative_correction,
    unitary_phase,
)
from .montecarlo import (
    DiscretizedBath,
    EnsembleConfig,
    discretize_bath,
    endpoint_phase,
    mc_decoherence_factor,
)
from .numerics import (
    ConvergenceError,
    QuadratureResult,
    integrate_finite,
    integrate_semi_infinite,
)

__version__ = "0.1.0"
