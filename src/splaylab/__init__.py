"""Verification laboratory for cursor-machine splay-tree cost accounting.

Callers import its submodules; the package root re-exports nothing for them.
"""

# splaybench/spans.py leaves the binding in `splaylab.splay` unwrapped, as a
# kernel loop, so this is the one binding of `splay_step` it can trace.
from .splay import splay_step
