"""Numerical laboratory for weak wave maps from R^{1+3} to the 2-sphere:
closed-form boosted harmonic maps, a penalized finite-difference solver, and
light-cone energy accounting."""

__version__ = "0.1.0"

from .spacetime import ConeSpec, DiskSpec, LorentzBoost, SpacetimePoint
from .fields import (BoostedHarmonicMap, FieldEvaluator, GridField, MapParams,
                     s_lambda)
from .stress_energy import (BumpTest, comp_identity_check, divergence_T,
                            recover_point_charge, stress_tensor,
                            transformation_check, weak_residual)
from .quadrature import (BalanceReport, ProductRule, SphereRule, energy_balance,
                         energy_density, energy_on_disk, flux_density,
                         flux_form_Q, flux_on_cone)
from .solver import (EnergyLedger, SolverConfig, SweepReport,
                     penalization_sweep, run, trusted_region)
