"""Exact computations with matrix algebras over the rationals.

Finitely generated unital matrix algebras, nonnegative and positive
generating systems up to similarity, incidence algebras, semi-commuting
generator pairs, and machine-verifiable certificates for all of it.
"""

from .algebra import (Algebra, algebra_direct_sum, centralizer,
                      conjugate_algebra, covering_matrix, generate,
                      nonneg_covering_exists)
from .certificates import Certificate
from .constructions import (blockwise_rank1_nonneg_covering,
                            central_eigenvalue_split, centralizer_covering,
                            classify_positive_generation,
                            direct_sum_min_nonneg_generators,
                            direct_sum_nonneg_covering,
                            nonneg_generators_from_covering,
                            positive_generators_from_positive,
                            positive_single_generator,
                            predict_padded_conjugation,
                            scalar_extension_positive_generators,
                            semicommuting_pair, single_generator_nonneg,
                            solve_all_dimensions, uniformize_rank1_idempotent)
from .incidence import (IncidencePattern, incidence_of_dimension,
                        triangularize_incidence)
from .matrices import (Mat, conjugate, direct_sum, identity, inverse,
                       is_nonneg, is_positive, jordan_cell, ones,
                       permutation_matrix, poly_at, regular_triangular,
                       support, support_union, uniform_norm, uniformizer,
                       uniformizer_inv, zero)
from .polynomials import (Poly, multiplicity_one_part, poly_gcd,
                          rational_roots, sturm_real_root_count)
from .spectral import (JordanSpec, char_poly, has_simple_real_eigenvalue,
                       rational_spectral_projector, spectral_radius_bound)
from .verify import verify_certificate, verify_document

__version__ = "0.1.0"
