"""Verification laboratory for cursor-machine splay-tree cost accounting."""

from .machine import (
    IllegalOpError,
    MachineProgram,
    OpKind,
    ShapeError,
    TreeState,
    apply_op,
    apply_ops,
    build_tree,
)
from .splay import splay_step, total_access_cost
from .potential import (
    assign_weights,
    check_potential_floor,
    check_weight_sum_bounds,
    phi,
    potential_of,
    subtree_sums,
)
from .restricted import (
    check_restricted,
    init_prime,
    simulate_program,
)
from .oracle import (
    opt_cost,
    program_search,
    static_optimal,
)
from .lab import (
    InterleavedRun,
    RotationEvent,
    SplayEvent,
    accounting_run,
    check_access_lemma,
    check_amortized_depth,
    check_rotation_delta,
    checked_splay,
    plan_organizing_splays,
)
from .report import CheckReport

__version__ = "1.0.0"
