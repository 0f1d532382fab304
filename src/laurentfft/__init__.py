"""Fast DFT plans from a residue-class decomposition of the exponent grid.

For blocklengths divisible by 4 the package splits the DFT matrix into
N/4 Gaussian-integer class matrices, rank-factors the paired combinations
exactly over the rationals, and compiles the result into an executable
plan whose real-multiplication count it can state, verify by instrumented
execution, and set against classical lower bounds.
"""

from .bounds import (BoundsRow, NotPowerOfTwoError, bounds_row, divisors,
                     euler_totient, factorize, heideman_bound,
                     heideman_burrus_bound, is_power_of_two, nlog2n_rounded)
from .decomposition import (ClassDecomposition, UnsupportedBlocklengthError,
                            class_indices, class_members, class_tables,
                            decompose, dft_matrix, exponent_matrix,
                            reconstruct_dft)
from .execute import (OpCounters, VerificationReport, default_tolerance,
                      execute_complex, execute_real, naive_dft, verify_plan)
from .plan import (AdditiveStage, ClassRankRow, ComplexityReport, FftPlan,
                   MultiplicativeBranch, UnitMatrix, branch_matrices,
                   compile_plan, compile_plan_for, complexity, complexity_for,
                   load_plan, plan_from_dict, plan_to_dict, save_plan)
from .rational import (RationalMatrix, RrefResult, ZeroMatrixError, rank,
                       rank_factor, rref, vstack)

__version__ = "0.1.0"

__all__ = [
    "AdditiveStage", "BoundsRow", "ClassDecomposition", "ClassRankRow",
    "ComplexityReport", "FftPlan", "MultiplicativeBranch",
    "NotPowerOfTwoError", "OpCounters", "RationalMatrix", "RrefResult",
    "UnitMatrix", "UnsupportedBlocklengthError", "VerificationReport",
    "ZeroMatrixError", "bounds_row", "branch_matrices", "class_indices",
    "class_members", "class_tables", "compile_plan", "compile_plan_for",
    "complexity", "complexity_for", "decompose", "default_tolerance",
    "dft_matrix", "divisors", "euler_totient", "execute_complex",
    "execute_real", "exponent_matrix", "factorize", "heideman_bound",
    "heideman_burrus_bound", "is_power_of_two", "load_plan", "naive_dft",
    "nlog2n_rounded", "plan_from_dict", "plan_to_dict", "rank", "rank_factor",
    "reconstruct_dft", "rref", "save_plan", "verify_plan", "vstack",
]
