"""Exact-arithmetic toolkit for the word equations M(a_1..a_n) = Id,
-Id, and trace zero in SL(2,Z), their 3d-dissections, rotation
indices, friezes, and reduced decompositions in the modular group."""

from .matrices import (
    IDENTITY,
    Mat2,
    NEG_IDENTITY,
    Word,
    canonical_dihedral,
    canonical_rotation,
    classify_matrix,
    continuant,
    elementary,
    product_from_continuants,
    rotate,
    word_product,
)
from .surgery import (
    NotASolutionError,
    ReductionCertificate,
    SolutionClass,
    SurgeryStep,
    apply_type1,
    apply_type2,
    classify,
    is_reduced,
    reduce_word,
    solution_class,
)
from .search import (
    SolutionSet,
    brute_force_enumerate,
    count_table,
    entry_bound,
    generative_enumerate,
    orbit_representatives,
    sum_bound,
)
from .dissection import (
    Dissection,
    dissections_with_quiddity,
    even_face_parity,
    faces,
    from_certificate,
    is_3d_dissection,
    is_centrally_symmetric,
    iter_dissections,
    quiddity,
    symmetric_dissection,
    symmetric_dissections,
)
from .sturm import iterate, rotation_index
from .frieze import (
    Frieze,
    check_glide,
    check_tame,
    farey_quiddity,
    frieze,
    is_totally_positive,
    render_text,
)
from .psl2 import (
    conjecture_probe,
    element_index,
    element_quiddity,
    reduced_decomposition,
    uniqueness_spot_check,
)
from .limits import BudgetExceededError

__version__ = "0.1.0"
