"""dlrepair: minimum-cardinality fact edits that put a missing tuple into a
query answer.

Queries are non-recursive rules with negated extensional atoms and
(in)equality comparisons, or (semi-positive) datalog programs; repairs are
pairs of fact insertions and deletions.
"""

from .classify import QueryClass, classify
from .engine import (
    AnswerSet,
    NotDatalog,
    eval_answers,
    eval_datalog,
    eval_datalog_naive,
    eval_member,
)
from .model import (
    ArityMismatch,
    Comparison,
    Fact,
    Instance,
    InvalidUpdate,
    NotBijective,
    Program,
    RelLiteral,
    Rule,
    Term,
    Update,
    active_domain,
    apply_update,
    canonical_key,
    const,
    fresh_constants,
    make_program,
    rename,
    specialize,
    update_size,
    validate_program,
    var,
)
from .parser import (
    NegatedIdb,
    SourceError,
    UndefinedIdb,
    UnsafeRule,
    VariableInFact,
    parse_fact,
    parse_instance,
    parse_program,
    parse_tuple,
    render_fact,
    render_instance,
    render_program,
    render_rule,
    render_tuple,
)
from .repair import (
    BUDGET_EXHAUSTED,
    FOUND,
    NO_REPAIR,
    NotJoinFree,
    NotProjectionFree,
    NotSemipositive,
    PartialAssignment,
    RepairResult,
    SearchDomain,
    ma_bound,
    ma_min,
    ma_min_datalog_positive,
    ma_min_join_free,
    ma_min_projection_free,
    ma_min_spdatalog,
    ma_min_ucqneg,
    ma_size,
    oracle_ma_min,
    repair_for_assignment,
)
from .sat import (
    NotPositiveDatalog,
    NotUcq,
    SatResult,
    Unsupported,
    ma_dec,
    sat_cqneg,
    sat_datalog_positive,
    sat_query,
    sat_ucqneg,
)
from .setcover import (
    CapExceeded,
    EmptyUniverse,
    NotARepair,
    SetCoverInstance,
    exact_cover,
    extract_h,
    generate,
    greedy_cover,
    make_instance,
    parse_setcover,
    reduce_f,
    render_setcover,
)

__version__ = "0.1.0"
