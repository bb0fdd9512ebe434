"""grouplab: finite permutation groups, subgroup permutability predicates,
and exhaustive verification of the structural statements built on them."""

from .errors import (
    CapExceededError,
    CycleFormatError,
    DegreeMismatchError,
    EnumerationCapError,
    GroupError,
    LatticeCapError,
    NotAPGroupError,
    NotASubgroupError,
    NotNormalError,
)
from .perms import Permutation, compose
from .groups import (
    CosetMap,
    ElementSet,
    Group,
    center,
    centralizer,
    conjugate_subgroup,
    group_from_generators,
    intersection,
    is_normal,
    is_subnormal,
    normal_closure,
    normalizer,
    quotient,
    subgroup_generated,
)
from .structure import (
    MdFamily,
    SylowSystem,
    all_subgroups,
    all_sylow_subgroups,
    frattini_p_group,
    is_complemented,
    is_hall,
    maximal_subgroups_of_p_group,
    md_families,
    minimal_normal_subgroups,
    normal_subgroups,
    o_p,
    o_p_prime,
    p_residual,
    smallest_generator_number,
    sylow_subgroup,
)
from .permutability import (
    ProductSetResult,
    is_s_permutable,
    is_s_semipermutable,
    is_semipermutable,
    product_set,
)
from .solubility import (
    ChiefSeries,
    chief_series,
    is_nilpotent,
    is_p_nilpotent,
    is_p_soluble,
    is_p_supersoluble,
    is_soluble,
    is_supersoluble,
)
from .corpus import (
    GroupFile,
    NamedGroup,
    alternating,
    builtin_corpus,
    clear_group_cache,
    corpus_manifest,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    group_cache_info,
    load_group_file,
    named_group,
    parse_group_file,
    quaternion8,
    symmetric,
    write_group_file,
)
from .theorems import (
    HypothesisMode,
    VerificationRecord,
    main_conclusion,
    main_hypothesis,
    verify_corollary_4_1,
    verify_corollary_4_2,
    verify_corollary_4_3,
    verify_lemma_2_1,
    verify_lemma_2_2,
    verify_lemma_2_3,
    verify_lemma_2_4,
    verify_main,
    verify_srinivasan,
)
from .runner import CounterexampleError, Report, expand_checks, run_corpus

__version__ = "0.1.0"
