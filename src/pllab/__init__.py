"""Numerical laboratory for extremal functions, Fekete configurations,
capacities, and regularity experiments on compact sets in C^n (n <= 2)."""

__version__ = "0.1.0"

from .basis import (BasisSpec, OrthoBasis, log_abs_vdm, orthonormal_basis,
                    vandermonde)
from .equidist import (Arcsine, Polynomial, TabulatedLipschitz, UniformCircle,
                       equilibrium_pairing, rate_experiment)
from .extremal import (CompositionGap, PolyMap, ProjectiveEvaluator,
                       RelativeField, SandwichEvaluator, composition_gap,
                       relative_extremal_1c)
from .fekete import (FeketeConfig, FubiniStudyWeight, FunctionWeight,
                     ZeroWeight, quality_gamma, solve_fekete,
                     transfinite_diameter)
from .geometry import (AffineImage, BallIntersection, Box, ComplexBall,
                       ConvexHull, Cusp, DegenerateSetError,
                       DimensionMismatchError, Interval, RealBall,
                       SampleCloud, Union, contains, diameter, exact_extremal,
                       halfdisc_harmonic_measure, sample, spec_from_dict)
from .regularity import (CondPWitness, ExactEngine, HcpReport, ModulusReport,
                         capacity_density_from_supnorm, condition_p_bound,
                         hcp_scan, localization_experiment, modulus_fit)
