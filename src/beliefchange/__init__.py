"""Belief change over plausibility-ordered runs.

A small engine for propositional belief revision and belief update: both
are realised as conditioning of a prior plausibility measure over the
runs of a finite-horizon system, with exhaustive desk-scale checkers for
the standard postulates and for the structural conditions that make the
two notions coincide with conditioning.
"""

from .formulas import (
    Atom,
    BeliefChangeError,
    Const,
    Extension,
    FALSE,
    Formula,
    ParseError,
    TRUE,
    UnknownAtomError,
    Vocabulary,
    entails,
    extension,
    formula_of_extension,
    parse_formula,
    print_formula,
    timestamp,
)
from .plausibility import (
    CustomMeasure,
    Mask,
    Ordering,
    PlausibilityMeasure,
    PlausibilityStructure,
    PreferentialMeasure,
    RankedMeasure,
    believes,
    check_klm_closure,
    conditional_holds,
    from_preference,
    is_qualitative,
)
from .systems import (
    Run,
    System,
    bel,
    check_prior_local_rule,
    condition_prior,
    indistinguishable,
    model_check,
    validate_bcs,
)
from .revision import (
    RevisionOperator,
    check_agm,
    check_agm_epistemic,
    epistemic_bel,
    operator_from_ranking,
    revise_at_state,
    revise_from_ranking,
    revision_from_system,
    system_from_ranking,
    system_from_revision,
    validate_rev,
)
from .update import (
    DistancePoset,
    UpdateStructure,
    borrowed_car,
    check_correctness_preservation,
    check_km,
    check_update_correspondence,
    hamming_structure,
    km_update,
    min_u,
    states,
    sufficient_information,
    system_from_update,
    validate_upd,
)
from .synthesis import StatifiedSystem, belief_correspondence, statify, verify_statification
from .diagnosis import (
    Circuit,
    Gate,
    build_diag_system,
    check_prop_diag,
    consistent_states,
    diag,
    parse_circuit,
)
from .scenario import Scenario, build_system, load_scenario, scenario_to_text

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
