"""Block Cellular Automata (Fig. 3 of the paper).

The classical way to avoid synchronous-update conflicts: partition the
sites into a regular pattern of contiguous, non-overlapping *blocks*
and apply a transition rule simultaneously and independently *within*
each block.  Information cannot cross block edges during a step, so in
the next step the block boundaries are *shifted* so the edges fall
elsewhere.

This module implements a generic 1-d/2-d block CA over deterministic
(or stochastic) *block rules*: a block rule receives the batch of all
blocks as an array ``(n_blocks, *block_shape)`` and returns the
updated batch.  The paper's Fig. 3 example — 9 sites, blocks of three,
rule "a site becomes 0 if at least one of its neighbours (within the
block) is 0" — is provided by
:func:`repro.models.majority.zero_spreads_block_rule` and reproduced
verbatim by ``python -m repro run fig3`` (``repro.experiments.fig3_bca``).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..core.lattice import Lattice

__all__ = ["BlockCA", "BlockRule"]

#: A block rule: (blocks, rng) -> updated blocks, where blocks has
#: shape (n_blocks, *block_shape).  Must not write outside its input.
BlockRule = Callable[[np.ndarray, np.random.Generator], np.ndarray]


class BlockCA:
    """A block cellular automaton with a shifting block partition.

    Parameters
    ----------
    lattice:
        The (1-d or 2-d) lattice.  Every side must be divisible by the
        corresponding block side.
    block_shape:
        Side lengths of a block, e.g. ``(3,)`` for Fig. 3.
    rule:
        The block rule applied to all blocks each step.
    shifts:
        The cyclic schedule of block-boundary shifts; defaults to
        stepping the boundary by one site per axis each step
        (Fig. 3 alternates between shift 0 and shift 1).
    seed:
        Seed for stochastic rules (deterministic rules ignore it).
    """

    def __init__(
        self,
        lattice: Lattice,
        block_shape: Sequence[int],
        rule: BlockRule,
        shifts: Sequence[Sequence[int]] | None = None,
        seed: int | None = None,
    ):
        block_shape = tuple(int(b) for b in block_shape)
        if len(block_shape) != lattice.ndim:
            raise ValueError("block shape must match lattice dimensionality")
        if any(b < 1 for b in block_shape):
            raise ValueError(f"invalid block shape {block_shape}")
        if any(s % b for s, b in zip(lattice.shape, block_shape)):
            raise ValueError(
                f"lattice {lattice.shape} is not divisible into blocks {block_shape}"
            )
        self.lattice = lattice
        self.block_shape = block_shape
        self.rule = rule
        if shifts is None:
            # step boundaries one site per step, cycling through a block
            period = max(block_shape)
            shifts = [
                tuple((k % b) for b in block_shape) if lattice.ndim > 1 else (k % block_shape[0],)
                for k in range(period)
            ]
        self.shifts = [tuple(int(x) for x in s) for s in shifts]
        if not self.shifts:
            raise ValueError("need at least one shift in the schedule")
        self.rng = np.random.default_rng(seed)
        self.step_no = 0

    # ------------------------------------------------------------------
    def _blocked_view(self, state: np.ndarray, shift: Sequence[int]) -> np.ndarray:
        """Batch of blocks ``(n_blocks, *block_shape)`` for a given shift.

        The state is rolled so blocks become axis-aligned, then reshaped
        (a copy — blocks are written back by :meth:`step`).
        """
        grid = self.lattice.as_grid(state)
        rolled = np.roll(grid, shift=[-s for s in shift], axis=tuple(range(grid.ndim)))
        if self.lattice.ndim == 1:
            (L,), (b,) = self.lattice.shape, self.block_shape
            return rolled.reshape(L // b, b).copy()
        (L0, L1), (b0, b1) = self.lattice.shape, self.block_shape
        tiled = rolled.reshape(L0 // b0, b0, L1 // b1, b1)
        return tiled.transpose(0, 2, 1, 3).reshape(-1, b0, b1).copy()

    def _write_back(self, state: np.ndarray, blocks: np.ndarray, shift: Sequence[int]) -> None:
        if self.lattice.ndim == 1:
            (L,), (b,) = self.lattice.shape, self.block_shape
            flat = blocks.reshape(L)
        else:
            (L0, L1), (b0, b1) = self.lattice.shape, self.block_shape
            flat = (
                blocks.reshape(L0 // b0, L1 // b1, b0, b1)
                .transpose(0, 2, 1, 3)
                .reshape(L0, L1)
            )
        unrolled = np.roll(
            flat, shift=list(shift), axis=tuple(range(flat.ndim))
        )
        state[:] = unrolled.reshape(-1)

    # ------------------------------------------------------------------
    def current_shift(self) -> tuple[int, ...]:
        """The boundary shift the *next* step will use."""
        return self.shifts[self.step_no % len(self.shifts)]

    def step(self, state: np.ndarray) -> np.ndarray:
        """Advance one BCA step in place; returns the state for chaining."""
        shift = self.current_shift()
        blocks = self._blocked_view(state, shift)
        updated = self.rule(blocks, self.rng)
        if updated.shape != blocks.shape:
            raise ValueError(
                f"block rule changed the batch shape {blocks.shape} -> {updated.shape}"
            )
        self._write_back(state, np.asarray(updated), shift)
        self.step_no += 1
        return state

    def run(self, state: np.ndarray, n_steps: int) -> list[np.ndarray]:
        """Run several steps; returns the state after every step (copies)."""
        history = []
        for _ in range(n_steps):
            self.step(state)
            history.append(state.copy())
        return history
