"""Exact combinatorics of derangements in the wreath product C_r wr S_n.

Elements are words of letters zeta^e * s; a derangement has no position
fixed with a trivial twist.  The package counts them by independent
routes (closed formula, two recurrences, a transform, enumeration),
refines the counts by the joint major-index / exponent-sum distribution
and by weak excedances, certifies the real-rootedness, negativity, and
interlacing of the excedance polynomial families with Sturm chains, and
cross-checks every identity against exponential generating functions --
all over exact integer and rational arithmetic.
"""

from .counting import (
    COUNT_METHODS,
    CheckLine,
    Discrepancy,
    REFERENCE_COUNTS,
    count_by_method,
    derangement_count,
    derangement_count_enumerated,
    derangement_count_mixed_transform,
    derangement_count_one_term,
    derangement_count_two_term,
    derangement_egf,
    distribution,
    egf_check_derangements,
    egf_check_eulerian,
    egf_check_exc_derangements,
    eulerian_by_descents,
    eulerian_by_excedances,
    eulerian_egf,
    eulerian_egf_alternate,
    eulerian_from_exc,
    exc_derangement_bruteforce,
    exc_derangement_egf,
    exc_derangement_poly,
    fixed_point_count,
    group_qt_bruteforce,
    group_qt_closed,
    probability_gap_certificate,
    qt_derangement_bruteforce,
    qt_derangement_formula,
    qt_derangement_one_term,
    qt_derangement_two_term,
    reference_discrepancies,
)
from .polynomials import (
    BivariatePolynomial,
    InexactDivisionError,
    is_palindromic,
    q_binomial,
    q_factorial,
    q_integer,
    reciprocal_check,
    t_bracket,
)
from .roots import (
    InterlacingReport,
    NegativityReport,
    NotSquarefreeError,
    RootIsolation,
    SturmChain,
    is_log_concave,
    is_unimodal,
    isolate_roots,
    roots_report,
    verify_interlacing,
    verify_negative_distinct,
)
from .series import (
    TruncatedSeries,
    ZeroConstantTermError,
    coefficient_as_polynomial,
)
from .stats import (
    StatRecord,
    derangement_part,
    descent_count,
    descent_set,
    exponent_sum,
    major_index,
    shuffle_relabel,
    ranked_record,
    shuffles,
    stat_record,
    subcedant_count,
    weak_excedance_count,
)
from .verify import Check, report_json, run_suites
from .wreath import (
    ALTERNATE,
    STANDARD,
    CyclicPermutation,
    EnumerationBoundError,
    ExponentRangeError,
    OrderVariant,
    SignedLetter,
    ValueSetError,
    WordLengthError,
    apply,
    check_enumerable,
    compare,
    cycle_decomposition,
    enumerate_derangements,
    enumerate_group,
    fixed_points,
    group_order,
    identity,
    inverse,
    is_derangement,
    letter_sort_key,
    make,
    parse,
    rank_table,
    to_text,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
