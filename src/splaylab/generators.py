"""Random trees, query sequences, and experiment configuration."""

from __future__ import annotations

import json
import random
import re
from dataclasses import asdict, dataclass

from .machine import TreeState


def rng_for_trial(seed: int, trial: int) -> random.Random:
    """Each trial gets its own stream so results never depend on trial order."""
    return random.Random(f"{seed}:{trial}")


def random_tree(n: int, rng: random.Random) -> TreeState:
    """Random tree on keys 0..n-1: every subtree's root is uniform over its keys.

    Roots are drawn in preorder (root, left subtree, right subtree).
    """
    if n < 1:
        raise ValueError("random tree needs at least one node")
    left = dict.fromkeys(range(n))
    right = dict.fromkeys(range(n))
    parent = dict.fromkeys(range(n))
    root = None
    stack = [(0, n, None, None)]  # (lowest key, size, parent, parent's child links)
    while stack:
        lo, size, par, links = stack.pop()
        key = lo + rng.randrange(size)
        if par is None:
            root = key
        else:
            parent[key] = par
            links[par] = key
        hi = lo + size
        if key + 1 < hi:
            stack.append((key + 1, hi - key - 1, key, right))
        if key > lo:
            stack.append((lo, key - lo, key, left))
    return TreeState(left, right, parent, root)


def random_pair(n: int, rng: random.Random) -> tuple[TreeState, TreeState]:
    """Two independent random trees over the same keys 0..n-1."""
    return random_tree(n, rng), random_tree(n, rng)


def spine_tree(n: int, side: str = "right") -> TreeState:
    """Path tree: keys 0..n-1, each node's single child on `side`."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    if n < 1:
        raise ValueError("spine needs at least one node")
    keys = list(range(n) if side == "right" else range(n - 1, -1, -1))
    left = {k: None for k in keys}
    right = {k: None for k in keys}
    parent = {keys[0]: None}
    for prev, key in zip(keys, keys[1:]):
        parent[key] = prev
        if side == "right":
            right[prev] = key
        else:
            left[prev] = key
    return TreeState(left, right, parent, keys[0])


def balanced_tree(n: int) -> TreeState:
    """Perfectly balanced tree over keys 0..n-1 (median roots)."""
    if n < 1:
        raise ValueError("balanced tree needs at least one node")
    left = {k: None for k in range(n)}
    right = {k: None for k in range(n)}
    parent = {k: None for k in range(n)}
    root = (0 + n) // 2
    stack = [(0, n, None, None)]
    while stack:
        lo, hi, par, slot = stack.pop()
        if lo >= hi:
            continue
        mid = (lo + hi) // 2
        parent[mid] = par
        if slot == "left":
            left[par] = mid
        elif slot == "right":
            right[par] = mid
        stack.append((lo, mid, mid, "left"))
        stack.append((mid + 1, hi, mid, "right"))
    return TreeState(left, right, parent, root)


def random_t_program(tree: TreeState, rng: random.Random,
                     max_moves: int = 100, max_rotations: int = 50):
    """Random legal move/rotate program for `tree` (consumed by simulation).

    Returns a MachineProgram; the tree passed in is not modified.
    """
    from .machine import CostLedger, MachineOp, MachineProgram, OpKind, apply_op

    work = tree.copy()
    ledger = CostLedger()
    ops = []
    moves = rng.randrange(max_moves + 1)
    rotations = rng.randrange(max_rotations + 1)
    while moves or rotations:
        choices = []
        if moves:
            if work.left[work.cursor] is not None:
                choices.append(OpKind.LEFT)
            if work.right[work.cursor] is not None:
                choices.append(OpKind.RIGHT)
            if work.parent[work.cursor] is not None:
                choices.append(OpKind.UP)
        if rotations and work.parent[work.cursor] is not None:
            choices.append(OpKind.ROTATE)
        if not choices:
            break
        kind = rng.choice(choices)
        op = MachineOp(kind)
        apply_op(work, ledger, op)
        ops.append(op)
        if kind is OpKind.ROTATE:
            rotations -= 1
        else:
            moves -= 1
    return MachineProgram(tuple(ops))


_GENERATOR_RE = re.compile(r"^([a-z-]+)(?:\(([^)]*)\))?$")

GENERATOR_NAMES = ("uniform", "sequential", "zipf", "working-set", "repeated-extremes")


def parse_generator(text: str) -> tuple[str, float | None]:
    match = _GENERATOR_RE.match(text.strip())
    if not match or match.group(1) not in GENERATOR_NAMES:
        raise ValueError(f"unknown generator {text!r}")
    name, arg = match.group(1), match.group(2)
    return name, (float(arg) if arg else None)


def generate_sequence(generator: str, n: int, m: int, rng: random.Random) -> list:
    """m queries against keys 0..n-1 under the named distribution."""
    name, arg = parse_generator(generator)
    if name == "uniform":
        return [rng.randrange(n) for _ in range(m)]
    if name == "sequential":
        return [k % n for k in range(m)]
    if name == "zipf":
        s = arg if arg is not None else 1.1
        weights = [1.0 / (k + 1) ** s for k in range(n)]
        return rng.choices(range(n), weights=weights, k=m)
    if name == "working-set":
        size = int(arg) if arg is not None else max(1, n // 8)
        size = max(1, min(size, n))
        window = list(range(size))
        out = []
        for _ in range(m):
            if rng.random() < 0.1:  # occasionally rotate the working set
                window[rng.randrange(size)] = rng.randrange(n)
            out.append(rng.choice(window))
        return out
    # repeated-extremes: alternate smallest and largest keys
    return [0 if k % 2 == 0 else n - 1 for k in range(m)]


@dataclass
class ExperimentConfig:
    seed: int = 0
    n: int = 64
    m: int = 512
    generator: str = "uniform"
    strategy: str = "oracle-witness"
    trials: int = 1
    output_path: str | None = None

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)
