"""Possibilistic empirical models over measurement scenarios.

The package represents finite measurement scenarios and the supports of
no-signalling behaviours on them, classifies logical and strong
contextuality by exhaustive gluing, decides All-vs-Nothing arguments by
exact linear algebra over Z and Z/nZ, and computes the Cech cohomology
obstruction to extending a local section.  Everything is exact: integers,
fractions, and modular arithmetic, never floats.
"""

from .errors import (
    BudgetExceededError,
    ContextualityError,
    DegenerateModelError,
    DisconnectedCoverError,
    DocumentError,
    EmptySupportError,
    FormulaError,
    ModelError,
    NormalisationError,
    OutcomeCoercionError,
    PauliError,
    RingError,
    ScenarioError,
    SectionDomainError,
    SectionNotSupportedError,
    SelfCheckError,
    SignallingError,
    UnknownCorpusEntryError,
    UnsupportedRingError,
)
from .rings import (
    INTEGERS,
    RingMatrix,
    RingSpec,
    linear_decomposition,
)
from .scenario import (
    Scenario,
    Section,
    Simplex,
    build_nerve,
    connected_components,
    is_connected,
)
from .model import (
    DEFAULT_SEARCH_BUDGET,
    ContextualityReport,
    EmpiricalModel,
    NoSignallingVerdict,
    ProbabilityTable,
    SignallingWitness,
    check_no_signalling,
    classify_contextuality,
    support_of_probability_table,
)
from .theory import (
    AvnReport,
    LinearEquation,
    Theory,
    affine_closure_model,
    affine_span,
    is_avn,
    is_avn_at,
    model_of_theory,
    outcome_embedding,
    satisfies,
    solutions,
    theory_of_model,
    theory_of_sections,
)
from .cohomology import (
    Cochain,
    CochainBasis,
    FormalLinearCombination,
    ObstructionReport,
    ObstructionSolver,
    classify_cohomological,
    coboundary,
    coboundary_matrix,
    cochain_basis,
    connecting_hom_check,
)
from .pauli import (
    GHZ_TRIPLE,
    PauliOperator,
    TripleDiagnostics,
    check_vector_rank,
    generate_subgroup,
    ghz_model,
    is_avn_triple,
    parse_triple,
    pauli_multiply,
    theory_of_subgroup,
    triple_model,
    triple_scenario,
)
from .paradox import (
    And,
    Iff,
    IsomorphismReport,
    IsomorphismWitness,
    LiarCycle,
    Not,
    Or,
    Proposition,
    SatisfiabilityBound,
    Var,
    chsh_propositions,
    format_formula,
    holds_in,
    liar_cycle_model,
    logical_bell_bound,
    model_isomorphic,
    parse_formula,
    proposition_probability,
    specker_triangle,
)
from .documents import (
    SCHEMA,
    ModelDocument,
    RawEquation,
    document_from_equations,
    document_from_liar_cycle,
    document_from_model,
    document_from_table,
    document_from_triple,
    document_hash,
    materialize,
    parse_model,
    print_model,
)
from .analysis import (
    AnalysisReport,
    RingAnalysis,
    analyze,
    default_rings,
    render_json,
    render_text,
    report_json,
)
from .bundle import export_bundle_dot
from .corpus import CORPUS_NAMES, corpus, corpus_names, corpus_text

import types as _types

__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
