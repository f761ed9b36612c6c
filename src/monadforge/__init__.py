"""monadforge: exact linear monads on P^n x P^n x P^m x P^m and their certificates.

The package builds the Hankel/Toeplitz monad family

    0 -> O_X(-1,-1,-1,-1)^k -> G_n (+) G_m -> O_X(1,1,1,1)^k -> 0

over the fourfold product X, verifies its defining identities symbolically
and its maximal rank by a staircase lemma (sampled rank over prime fields for
documents off the band), and certifies the numerical facts
about the kernel and cohomology bundles: Chern/degree/slope invariants,
Hoppe-criterion vanishing scans, and the simplicity certificate, whose
long-exact-sequence step is stated in closed form.  All arithmetic is exact.

The package holds what the seven subcommands of `monadforge.cli` run.  The
few functions no command calls, such as the general interval propagation
`les_propagate` and the exterior power `exterior_power_sum`, stay because
the benchmark's traced run wraps them by name; `tests/test_reachability.py`
lists each one with its reason.
"""

from .polyring import (
    DEFAULT_PRIME,
    LinearForm,
    MultiDegree,
    PolyMatrix,
    SpaceParams,
    evaluate_matrix,
    matrix_mul,
    rank_over_field,
)
from .cohomology import (
    CohTable,
    LineBundleSum,
    bott_h,
    exterior_power_sum,
    line_bundle,
    sum_cohomology,
)
from .monad import (
    MonadSpec,
    RankReport,
    assemble_monad,
    middle_bundle,
    source_bundle,
    target_bundle,
    verify_composition,
    verify_maximal_rank,
)
from .chow import (
    BundleInvariants,
    c1_of_T,
    degree_L,
    invariants_of_T,
    normalization_shift,
    rank_of_T,
)
from .stability import (
    StabilityReport,
    StabilityScanConfig,
    run_stability_scan,
)
from .les import (
    CohProfile,
    ShortExactSeq,
    SimplicityCertificate,
    les_propagate,
    rank_of_E,
    simplicity_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PRIME",
    "LinearForm",
    "MultiDegree",
    "PolyMatrix",
    "SpaceParams",
    "evaluate_matrix",
    "matrix_mul",
    "rank_over_field",
    "CohTable",
    "LineBundleSum",
    "bott_h",
    "exterior_power_sum",
    "line_bundle",
    "sum_cohomology",
    "MonadSpec",
    "RankReport",
    "assemble_monad",
    "middle_bundle",
    "source_bundle",
    "target_bundle",
    "verify_composition",
    "verify_maximal_rank",
    "BundleInvariants",
    "c1_of_T",
    "degree_L",
    "invariants_of_T",
    "rank_of_T",
    "StabilityReport",
    "StabilityScanConfig",
    "normalization_shift",
    "run_stability_scan",
    "CohProfile",
    "ShortExactSeq",
    "SimplicityCertificate",
    "les_propagate",
    "rank_of_E",
    "simplicity_certificate",
    "__version__",
]
