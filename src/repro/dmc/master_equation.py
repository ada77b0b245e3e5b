"""Exact integration of the Master Equation for tiny lattices.

The stochastic model underlying all DMC methods is the Master Equation
(paper, eq. 1)::

    dP(S, t)/dt = sum_{S'} [ k_{S S'} P(S', t) - k_{S' S} P(S, t) ]

For a lattice of ``N`` sites and ``|D|`` species the state space has
``|D|^N`` configurations — hopeless in general, but fully tractable
for the 4-8-site lattices used as *ground truth* in the correctness
tests: enumerate all configurations, assemble the (sparse) generator
``W`` with ``W[S', S] = sum of rates of reactions transforming S into
S'`` and the diagonal ``W[S, S] = -sum of outgoing rates``, and
integrate ``P(t) = expm(W t) P(0)`` with scipy.

Expected coverages ``<theta_X>(t) = sum_S P(S, t) * theta_X(S)`` are
then exact, and every correct DMC simulator must reproduce them in
ensemble average.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.lattice import Lattice
from ..core.model import Model
from ..core.state import Configuration

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["MasterEquation"]

#: refuse to enumerate state spaces larger than this
MAX_STATES = 2_000_000


class MasterEquation:
    """Exact Master-Equation propagator for a model on a tiny lattice."""

    def __init__(self, model: Model, lattice: Lattice):
        n_species = len(model.species)
        n_states = n_species ** lattice.n_sites
        if n_states > MAX_STATES:
            raise ValueError(
                f"state space {n_species}^{lattice.n_sites} = {n_states} "
                f"exceeds the limit {MAX_STATES}; use a smaller lattice"
            )
        self.model = model
        self.lattice = lattice
        self.compiled = model.compile(lattice)
        self.n_species = n_species
        self.n_states = n_states
        self._powers = n_species ** np.arange(lattice.n_sites, dtype=np.int64)
        self.generator = self._build_generator()

    # ------------------------------------------------------------------
    # configuration coding
    # ------------------------------------------------------------------
    def encode(self, state: np.ndarray) -> int:
        """Index of a configuration (flat ``uint8`` array of codes)."""
        return int(np.dot(state.astype(np.int64), self._powers))

    def decode(self, index: int) -> np.ndarray:
        """Configuration array of a state index."""
        out = np.empty(self.lattice.n_sites, dtype=np.uint8)
        for i in range(self.lattice.n_sites):
            out[i] = index % self.n_species
            index //= self.n_species
        return out

    def delta(self, config: Configuration) -> np.ndarray:
        """Probability vector concentrated on one configuration."""
        p = np.zeros(self.n_states)
        p[self.encode(config.array)] = 1.0
        return p

    # ------------------------------------------------------------------
    def _build_generator(self) -> sp.csc_matrix:
        import scipy.sparse as sp

        comp = self.compiled
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        diag = np.zeros(self.n_states)
        scratch = np.empty(self.lattice.n_sites, dtype=np.uint8)
        for c in range(self.n_states):
            state = self.decode(c)
            for i, ct in enumerate(comp.types):
                for s in range(self.lattice.n_sites):
                    if not comp.is_enabled(state, i, s):
                        continue
                    scratch[:] = state
                    comp.execute(scratch, i, s)
                    c2 = self.encode(scratch)
                    if c2 == c:
                        continue  # null transition contributes nothing
                    rows.append(c2)
                    cols.append(c)
                    vals.append(ct.rate)
                    diag[c] -= ct.rate
        w = sp.coo_matrix(
            (vals, (rows, cols)), shape=(self.n_states, self.n_states)
        ).tocsc()
        w += sp.diags(diag).tocsc()
        return w

    # ------------------------------------------------------------------
    def propagate(self, p0: np.ndarray, times: Sequence[float]) -> np.ndarray:
        """``P(t)`` at the given times (rows) starting from ``p0`` at t=0.

        Times must be non-negative and strictly increasing.
        """
        from scipy.sparse.linalg import expm_multiply

        times = np.asarray(times, dtype=np.float64)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("times must be a non-empty 1-d sequence")
        if np.any(times < 0) or np.any(np.diff(times) <= 0):
            raise ValueError("times must be non-negative and strictly increasing")
        p0 = np.asarray(p0, dtype=np.float64)
        if p0.shape != (self.n_states,):
            raise ValueError(f"p0 must have shape ({self.n_states},)")
        if not np.isclose(p0.sum(), 1.0):
            raise ValueError("p0 must be a probability vector (sum to 1)")
        out = np.empty((times.size, self.n_states))
        for k, t in enumerate(times):
            if t == 0.0:
                out[k] = p0
            else:
                out[k] = expm_multiply(self.generator * t, p0)
        return out

    def stationary(self) -> np.ndarray:
        """A stationary distribution (null vector of the generator)."""
        w = self.generator.toarray()
        evals, evecs = np.linalg.eig(w)
        k = int(np.argmin(np.abs(evals)))
        v = np.real(evecs[:, k])
        v = np.abs(v)
        return v / v.sum()

    # ------------------------------------------------------------------
    def coverage_vector(self, species: str) -> np.ndarray:
        """theta_X(S) for every configuration index S."""
        code = self.model.species.code(species)
        out = np.empty(self.n_states)
        for c in range(self.n_states):
            out[c] = np.count_nonzero(self.decode(c) == code) / self.lattice.n_sites
        return out

    def expected_coverage(self, p: np.ndarray, species: str) -> np.ndarray:
        """``<theta_X>`` under one or many probability vectors.

        ``p`` may be a single vector or a ``(n_times, n_states)`` array.
        """
        theta = self.coverage_vector(species)
        p = np.atleast_2d(np.asarray(p))
        out = p @ theta
        return out[0] if out.size == 1 else out
