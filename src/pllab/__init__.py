"""Numerical laboratory for extremal functions, Fekete configurations,
capacities, and regularity experiments on compact sets in C^n (n <= 2)."""

__version__ = "0.1.0"

from .basis import (BasisSpec, OrthoBasis, dimension, log_abs_vdm,
                    orthonormal_basis, vandermonde)
from .equidist import (Arcsine, Polynomial, TabulatedLipschitz, UniformCircle,
                       chained_holder_exponent, equilibrium_pairing,
                       holder_norm, rate_experiment)
from .extremal import (CompositionGap, ExtremalEstimate, PolyMap,
                       ProjectiveEvaluator, RelativeField, SandwichEvaluator,
                       composition_gap, projective_extremal,
                       relative_extremal_1c, sandwich)
from .fekete import (DiscreteMeasure, FeketeConfig, FubiniStudyWeight,
                     FunctionWeight, ZeroWeight, fekete_measure,
                     quality_gamma, solve_fekete, transfinite_diameter,
                     weight_from_callable)
from .geometry import (AffineImage, BallIntersection, Box, ComplexBall,
                       ConvexHull, Cusp, DegenerateSetError,
                       DimensionMismatchError, Interval, Point, RealBall,
                       SampleCloud, Union, contains, diameter, exact_extremal,
                       halfdisc_harmonic_measure, sample, spec_from_dict,
                       spec_to_dict)
from .regularity import (CondPWitness, ExactEngine, HcpReport, ModulusReport,
                         capacity_density_from_supnorm, condition_p_bound,
                         geometric_condition_m, hcp_scan,
                         localization_experiment, modulus_fit)
