"""Exact arithmetic for the v-deformed Fock space and its quantum-group
origin: partition combinatorics, universal Verma modules with the contravariant
pairing and closed-form determinant, Jantzen numbers, and a finite-dimensional
tensor-space oracle that re-derives the Fock matrix-entry exponents.
"""

# Set before the submodules load: reports reads it for the report generator.
__version__ = "0.1.0"

from .ring import (LaurentQ, QFrac, cyclotomic, q_int, val_cyclotomic,
                   render_q_integers)
from .weights import Weight, alpha, positive_roots
from .multirat import MultiPoly, MultiRat, sigma_shift, unit_ratio, UnitParts
from .partitions import (Partition, Box, content, color, addable_boxes,
                         removable_boxes, n_left, n_right,
                         addable_row_indices, all_partitions)
from .fock import FockVector, apply_E, apply_F, apply_K, check_relations
from .verma import (VermaElement, GramMatrix, pair_words, shapovalov_pair,
                    ywords, kostant_p, gram_matrix, shapovalov_det_closed,
                    jantzen_closed, jantzen_engine, jantzen_valuation,
                    hook_ratio, det_product_identity)
from .weyl import (TensorVector, tensor_act, tensor_form,
                   highest_weight_vector, mu_singular_vectors,
                   SingularVector)
from .errors import PoleError, EngineError
