"""Exact growth analysis of n-dimensional periodic graphs.

Quotient graphs with vector-labeled weighted edges; growth sequences,
growth polytopes, comparison constants between graph distance and the
polytope gauge, well-arranged certificates, rational growth series with
provable quasi-periods, reciprocity checks, shifted lattice-point
counting, and the polytope-to-graph construction.
"""

from .cycles import (Cycle, PInitialData, enumerate_cycles, growth_polytope,
                     nu, nu_image, p_initial, p_initial_data)
from .ehrhart import (count, count_interior, fit_shifted_qp, gamma_q,
                      interior_shell_check, is_reflexive, lattice_points_of,
                      minimal_dilation, shifted_count, verify_reciprocity)
from .field import QuadExt, exact_ceil, exact_floor, format_scalar, parse_scalar
from .geometry import (HalfOpenRegion, Polytope, convex_hull, gauge,
                       origin_interior, triangulate_facet, volume)
from .invariants import (AsymptoticConstants, WellArrangedResult,
                         alpha_ehrhart_window, asymptotic_constants, c1, c2,
                         c2_support, support_distance, verify_alpha_ehrhart,
                         well_arranged)
from .netfile import (FormatError, emit_net, emit_polytope, parse_net,
                      parse_polytope)
from .quotient import (EdgeRecord, GraphError, QuotientGraph, ResourceLimit,
                       Vertex, ball, closed_walk_vector, cumulative, distance,
                       growth_sequence, is_strongly_connected, validate)
from .series import (FitError, IntPolynomial, QuasiPolynomial, RationalSeries,
                     cumulative_series, density_cross_check,
                     fit_quasi_polynomial, fit_rational, interpolate,
                     negative_evaluation, p_initial_denominator,
                     quasi_period_p_initial, rational_from_terms,
                     reciprocity_check, to_quasi_polynomial,
                     topological_density, wa_denominator)
from .data import load_net, load_polytope

__version__ = "0.1.0"
