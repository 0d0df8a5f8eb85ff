"""Numerical laboratory for truncated Toeplitz and Hankel operators on
model spaces of finite Blaschke products."""

from .besov import (Arc, LebesgueGrid, besov_norm, besov_profile,
                    conjecture_probe, oscillation,
                    oscillation_report, vmo_modulus)
from .blaschke import (BlaschkeProduct, boundary_zero_closure,
                       sublevel_connectivity)
from .clark import (ClarkMeasure, ClarkUnitary, clark_measure, clark_pair,
                    clark_reconstruct, clark_unitary, commutator_matrix,
                    conjugate_clark_unitary, cross_route_equivalence,
                    expected_mass, hilbert_transform_matrix,
                    poisson_identity_defect, square_clark_measure)
from .config import ConfigError, RunConfig, load_config
from .harmonic import (DEFAULT_QUADRATURE, QuadratureError,
                       QuadratureSettings, RationalSymbol, Symbol, TrigPoly,
                       boundary_mean, boundary_norm, fourier_coefficient,
                       inner_product, poisson_extension, unit_nodes)
from .modelspace import (ModelSpaceBasis, ModelSpaceError, build_basis,
                         clark_rule, conjugate_kernel, reproducing_kernel,
                         vanishing_at_origin_subspace)
from .nehari import (DistanceReport, GapReport, NehariError,
                     convolution_table, dual_basis, dual_distance,
                     minimax_certificate, nehari_gap)
from .spectra import (ClusterReport, essential_spectrum_experiment,
                      geometric_zero_generator, matched_distance,
                      spectral_report, test_vector_decay_experiment)
from .truncops import (OperatorMatrix, hankel_matrix, hankel_toeplitz_defect,
                       rank_one_matrix, rank_one_symbol, standard_symbol,
                       test_vector_ratio, toeplitz_matrix, zero_symbol_test)
from .verify import run_verification, suite_names

__version__ = "0.1.0"
