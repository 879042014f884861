"""Boolean Petri net synthesis: separation checking, region computation,
net synthesis, and hardness-instance generation for one-in-three formulas.

The package splits into small layers:

``interactions``  the eight boolean interactions and net types
``ts``            transition systems, unions, validation, gluing
``regions``       regions, admissibility, the two generator families
``sat``           a self-contained CDCL solver
``solving``       separation engines (exhaustive and propositional)
``nets``          boolean nets, reachability graphs, synthesis, isomorphism
``reduction``     cubic monotone one-in-three formulas and gadget instances
``fileformats``   line-oriented text formats for everything above
``cli``           the ``boolsynth`` command
"""

from .interactions import (
    COMPLEMENT_MAP,
    INTERACTION_ORDER,
    UNDEFINED_AT,
    Interaction,
    NetType,
    all_net_types,
    interactions_matching,
    iter_type,
    parse_interaction,
    require_usable,
)
from .nets import (
    BooleanNet,
    SynthesisError,
    fire,
    is_isomorphic,
    reachability_graph,
    synthesize,
)
from .reduction import (
    PHI_SAT,
    PHI_UNSAT,
    CubicCnf,
    FalsificationError,
    GadgetInstance,
    RoleMap,
    build_instance,
    build_union,
    extract_model,
    solve_one_in_three,
    verify_inhibiting_region,
)
from .regions import (
    Family,
    Region,
    RegionDomainError,
    family_types,
    parse_family,
    region_coherence_report,
    validate_region,
)
from .sat import SatSolver
from .solving import (
    Atom,
    CheckResult,
    EngineError,
    EventStateAtom,
    ResourceExhausted,
    StatePairAtom,
    assign_witnesses,
    check_essp,
    check_feasibility,
    check_ssp,
    enumerate_inhibiting_regions,
    essp_atoms,
    solve_atom,
    ssp_atoms,
)
from .ts import (
    Arc,
    Report,
    TransitionSystem,
    TsUnion,
    Violation,
    check_join_preconditions,
    grade,
    join,
    validate_ts,
)

__version__ = "1.0.0"

__all__ = [
    "Arc",
    "Atom",
    "BooleanNet",
    "COMPLEMENT_MAP",
    "CheckResult",
    "CubicCnf",
    "EngineError",
    "EventStateAtom",
    "Family",
    "FalsificationError",
    "GadgetInstance",
    "INTERACTION_ORDER",
    "Interaction",
    "NetType",
    "PHI_SAT",
    "PHI_UNSAT",
    "Region",
    "RegionDomainError",
    "Report",
    "ResourceExhausted",
    "RoleMap",
    "SatSolver",
    "StatePairAtom",
    "SynthesisError",
    "TransitionSystem",
    "TsUnion",
    "UNDEFINED_AT",
    "Violation",
    "all_net_types",
    "assign_witnesses",
    "build_instance",
    "build_union",
    "check_essp",
    "check_feasibility",
    "check_join_preconditions",
    "check_ssp",
    "enumerate_inhibiting_regions",
    "essp_atoms",
    "extract_model",
    "family_types",
    "fire",
    "grade",
    "interactions_matching",
    "is_isomorphic",
    "iter_type",
    "join",
    "parse_family",
    "parse_interaction",
    "reachability_graph",
    "region_coherence_report",
    "require_usable",
    "solve_atom",
    "solve_one_in_three",
    "ssp_atoms",
    "synthesize",
    "validate_region",
    "validate_ts",
    "verify_inhibiting_region",
]
