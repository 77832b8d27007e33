"""Exact computations with matrix algebras over the rationals.

Finitely generated unital matrix algebras, nonnegative and positive
generating systems up to similarity, incidence algebras, semi-commuting
generator pairs, and machine-verifiable certificates for all of it.
"""

from .algebra import (Algebra, algebra_direct_sum, center, centralizer,
                      conjugate_algebra, covering_matrix, generate,
                      incidence_algebra, is_simple, nonneg_covering_exists,
                      two_sided_ideal)
from .certificates import Certificate
from .constructions import (blockwise_rank1_nonneg_covering,
                            central_eigenvalue_split, centralizer_covering,
                            classify_positive_generation,
                            direct_sum_min_nonneg_generators,
                            direct_sum_nonneg_covering,
                            nonneg_basis_from_generators,
                            nonneg_generators_from_covering,
                            positive_generators_from_positive,
                            positive_single_generator,
                            predict_padded_conjugation,
                            scalar_extension_positive_generators,
                            semicommuting_pair, single_generator_nonneg,
                            solve_all_dimensions, uniformize_rank1_idempotent)
from .incidence import (IncidencePattern, incidence_of_dimension,
                        triangularize_incidence)
from .matrices import (Mat, Support, commutator, companion, conjugate,
                       direct_sum, identity, inverse, is_nonneg, is_positive,
                       jordan_cell, matrix_unit, min_support_entry, ones,
                       permutation_matrix, poly_at, regular_triangular,
                       support, support_union, uniform_norm, uniformizer,
                       uniformizer_inv, zero)
from .polynomials import (Poly, multiplicity_one_part, poly_gcd,
                          rational_roots, squarefree_decomposition,
                          sturm_real_root_count)
from .spectral import (CharData, JordanSpec, char_data, char_poly,
                       has_simple_real_eigenvalue, min_poly, orbit_span,
                       rational_spectral_projector, spectral_radius_bound,
                       structural_decomposition)
from .verify import verify_certificate, verify_document

__version__ = "0.1.0"
