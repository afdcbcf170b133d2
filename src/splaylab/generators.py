"""Random trees, query sequences, and a run's config, keyed by field name."""

from __future__ import annotations

import math
import random
import re

from .machine import _L, _R, _ROT, _U, MachineProgram, TreeState, tree_from_roots


def rng_for_trial(seed: int, trial: int) -> random.Random:
    """Each trial gets its own stream so results never depend on trial order."""
    return random.Random(f"{seed}:{trial}")


def root_picker(rng: random.Random):
    """pick(i, j): `rng.randrange(i, j)` with its unit-step path inlined, the
    rejection loop of `random.Random._randbelow` over `rng.getrandbits`.  The
    draws and the RNG state after them are the same as randrange's."""
    getrandbits = rng.getrandbits

    def pick(i: int, j: int) -> int:
        width = j - i
        k = width.bit_length()
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        return i + r

    return pick


def random_tree(n: int, rng: random.Random) -> TreeState:
    """Random tree on keys 0..n-1: every subtree's root is uniform over its keys.

    Roots are drawn in preorder (root, left subtree, right subtree).
    """
    return tree_from_roots(n, root_picker(rng))


def random_pair(n: int, rng: random.Random) -> tuple[TreeState, TreeState]:
    """Two independent random trees over the same keys 0..n-1."""
    return random_tree(n, rng), random_tree(n, rng)


def spine_tree(n: int, side: str) -> TreeState:
    """Path tree: keys 0..n-1, each node's single child on `side`."""
    if side == "right":
        return tree_from_roots(n, lambda i, j: i)
    if side == "left":
        return tree_from_roots(n, lambda i, j: j - 1)
    raise ValueError(f"side must be 'left' or 'right', not {side!r}")


def balanced_tree(n: int) -> TreeState:
    """Perfectly balanced tree over keys 0..n-1 (median roots)."""
    return tree_from_roots(n, lambda i, j: (i + j) // 2)


def random_t_program(tree: TreeState, rng: random.Random,
                     max_moves: int = 100, max_rotations: int = 50):
    """Random legal move/rotate program for `tree` (consumed by simulation).

    Each op is `rng.choice` over the legal kinds, listed in the order left,
    right, up (while moves remain), rotate (while rotations remain).  The
    cursor is held in a local and a rotation goes straight to `rotate_up`.
    Returns a MachineProgram; the tree passed in is not modified.
    """
    work = tree.copy()
    left, right, parent = work.left, work.right, work.parent
    cursor = work.cursor
    choice = rng.choice
    ops = []
    moves = rng.randrange(max_moves + 1)
    rotations = rng.randrange(max_rotations + 1)
    while moves or rotations:
        choices = []
        if moves:
            if left[cursor] is not None:
                choices.append(_L)
            if right[cursor] is not None:
                choices.append(_R)
            if parent[cursor] is not None:
                choices.append(_U)
        if rotations and parent[cursor] is not None:
            choices.append(_ROT)
        if not choices:
            break
        op = choice(choices)
        ops.append(op)
        if op is _ROT:
            work.rotate_up(cursor)
            rotations -= 1
        else:
            cursor = left[cursor] if op is _L else right[cursor] if op is _R else parent[cursor]
            moves -= 1
    return MachineProgram(tuple(ops))


_GENERATOR_RE = re.compile(r"^([a-z-]+)(?:\(([^)]*)\))?$")

GENERATOR_NAMES = ("uniform", "sequential", "zipf", "working-set", "repeated-extremes")


def parse_generator(text: str) -> tuple[str, float | None]:
    """Split a spec such as zipf(1.1) into its name and its argument, if any."""
    match = _GENERATOR_RE.match(text.strip())
    if not match or match.group(1) not in GENERATOR_NAMES:
        raise ValueError(f"--generator {text!r}: unknown name; names: {', '.join(GENERATOR_NAMES)}")
    name, arg = match.groups()
    if arg is None:
        return name, None
    try:
        value = float(arg)
    except ValueError:
        value = math.nan
    if name == "zipf" and 0 <= value < math.inf:
        return name, value
    if name == "working-set" and value >= 1 and value.is_integer():
        return name, value
    rule = {"zipf": "a finite exponent of at least 0", "working-set": "a positive integer size"}
    raise ValueError(f"--generator {text!r}: {name} takes {rule.get(name, 'no argument')}")


def _zipf_weight(rank: int, s: float) -> float:
    try:
        return 1.0 / rank ** s
    except OverflowError:  # rank ** s is past the float range: the weight is 0
        return 0.0


def generate_sequence(generator: str, n: int, m: int, rng: random.Random) -> list:
    """m queries against keys 0..n-1 under the named distribution."""
    name, arg = parse_generator(generator)
    if name == "uniform":
        return [rng.randrange(n) for _ in range(m)]
    if name == "sequential":
        return [k % n for k in range(m)]
    if name == "zipf":
        s = arg if arg is not None else 1.1
        weights = [_zipf_weight(k + 1, s) for k in range(n)]
        return rng.choices(range(n), weights=weights, k=m)
    if name == "working-set":
        size = int(arg) if arg is not None else max(1, n // 8)
        if size > n:
            raise ValueError(f"--generator {generator!r}: working-set size {size} exceeds --n {n}")
        window = list(range(size))
        out = []
        for _ in range(m):
            if rng.random() < 0.1:  # occasionally rotate the working set
                window[rng.randrange(size)] = rng.randrange(n)
            out.append(rng.choice(window))
        return out
    # repeated-extremes: alternate smallest and largest keys
    return [0 if k % 2 == 0 else n - 1 for k in range(m)]


# The JSON value types a config file may give each field.
CONFIG_TYPES = {
    "seed": (int, "an int"),
    "n": (int, "an int"),
    "m": (int, "an int"),
    "generator": (str, "a string"),
    "strategy": (str, "a string"),
    "trials": (int, "an int"),
    "output_path": ((str, type(None)), "a string or null"),
}


class ExperimentConfig:
    """One run's settings; a field's name is its key in a config file."""

    __slots__ = tuple(CONFIG_TYPES)

    def __init__(
        self,
        seed: int = 0,
        n: int = 64,
        m: int = 512,
        generator: str = "uniform",
        strategy: str = "oracle-witness",
        trials: int = 1,
        output_path: str | None = None,
    ):
        self.seed = seed
        self.n = n
        self.m = m
        self.generator = generator
        self.strategy = strategy
        self.trials = trials
        self.output_path = output_path

    @classmethod
    def from_dict(cls, data) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(data) - set(CONFIG_TYPES)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            kind, name = CONFIG_TYPES[key]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"config key {key!r} must be {name}, got {value!r}")
        return cls(**data)
