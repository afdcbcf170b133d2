"""Verification laboratory for cursor-machine splay-tree cost accounting."""

from .machine import (
    CostLedger,
    IllegalOpError,
    MachineError,
    MachineOp,
    MachineProgram,
    OpKind,
    ShapeError,
    Trace,
    TreeState,
    apply_op,
    build_tree,
    descriptor_of,
    parse_shape,
    run_program,
    shape_of,
    tree_from_shape,
)
from .splay import SplayRecord, serve_queries, splay, splay_step, total_access_cost
from .potential import (
    PotentialSnapshot,
    WeightAssignment,
    assign_weights,
    check_potential_floor,
    check_weight_sum_bounds,
    phi,
    potential_of,
    ranks_of,
    subtree_sums,
)
from .restricted import (
    SentineledTree,
    check_restricted,
    init_prime,
    simulate_move,
    simulate_program,
    simulate_rotation,
)
from .oracle import (
    FrequencyTable,
    brute_force_static_cost,
    enumerate_shapes,
    opt_cost,
    program_search,
    static_cost,
    static_optimal,
)
from .lab import (
    AccountingReport,
    InterleavedRun,
    RotationEvent,
    SplayEvent,
    accounting_run,
    check_access_lemma,
    check_amortized_depth,
    check_rotation_delta,
    checked_splay,
    plan_organizing_splays,
    regular_access_trial,
)
from .report import CheckReport

__version__ = "1.0.0"
