"""Workbench for instruction-sequence algebra with rigid loops.

Parse instruction sequences, reduce them to canonical form, extract their
behavior as regular threads, run threads against stateful services, project
fixed-count loops into counter-driven or fully unrolled programs, and decide
behavioral equivalence.
"""

from .threads import (
    DEADLOCK,
    STOP,
    Action,
    BranchRef,
    Deadlock,
    LinearSpec,
    ReplyScript,
    SpecError,
    Stop,
    Trace,
    Witness,
    distinguish,
    format_spec,
    pi,
    refines,
    thread_equal,
    validate_spec,
)
from .program import (
    HALT,
    AnnClose,
    AnnJump,
    Basic,
    CanonicalProgram,
    DeadCodeWarning,
    Halt,
    Jump,
    LoopClose,
    LoopHeader,
    NegTest,
    Part,
    PosTest,
    ProgramError,
    RawProgram,
    Unit,
    canonicalize,
    congruent,
    format_program,
    format_sequence,
    has_rigid,
    has_units,
    normalize_jumps,
)
from .parser import ParseError, parse_action, parse_canonical, parse_program
from .extraction import (
    behav_equiv,
    extract_pga,
    extract_pgau,
    pgau2pga,
    synthesize,
)
from .services import (
    BudgetExceeded,
    DivergenceSuspected,
    DownCounter,
    FullCounter,
    ProjectedProgram,
    Service,
    ServiceError,
    apply_use,
    apply_use_bounded,
    simulate_with_services,
)
from .rigidloops import (
    Diagnostic,
    SizeReport,
    WellFormednessError,
    annotate,
    defining_thread,
    project_counter,
    project_pure,
    size_report,
    validate_pgarl,
)

__version__ = "0.1.0"
