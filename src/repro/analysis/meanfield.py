"""Automatic mean-field (site-approximation) equations for any model.

For a reaction type with rate ``k`` whose source pattern requires
species ``(X1, ..., Xn)`` on its n sites, the site approximation
replaces the joint occupation probability by the product of coverages:

    event rate per anchor site  ~  k * theta_X1 * ... * theta_Xn

and each event shifts the coverages by the type's stoichiometry
vector divided by the lattice size.  Summing over reaction types
yields a closed ODE system ``d theta / dt = F(theta)`` — the classical
mean-field kinetics of the model, derived *automatically* from the
same reaction-type objects the simulators execute.

Uses: fast qualitative exploration (the Pt(100) oscillatory regime was
located this way), sanity baselines for simulated coverages in the
low-correlation regime, and detecting when correlations matter (the
ZGB transitions famously shift between mean field and the lattice).

The site approximation ignores spatial correlations; diffusion-type
reactions (which only move particles) contribute exactly zero, as they
must.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..core.conservation import stoichiometry_matrix
from ..core.model import Model

__all__ = ["mean_field_rates", "mean_field_rhs_for", "integrate_mean_field"]


def mean_field_rates(model: Model, theta: np.ndarray) -> np.ndarray:
    """Per-site event rate of each reaction type at coverages ``theta``.

    ``theta`` holds one coverage per species (in registry order,
    summing to 1).  Returns ``k_i * prod(theta[src])`` per type.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (len(model.species),):
        raise ValueError(
            f"theta must have one entry per species "
            f"({len(model.species)}), got shape {theta.shape}"
        )
    out = np.empty(model.n_types)
    for i, rt in enumerate(model.reaction_types):
        r = rt.rate
        for c in rt.changes:
            r *= theta[model.species.code(c.src)]
        out[i] = r
    return out


def mean_field_rhs_for(model: Model) -> Callable[[np.ndarray], np.ndarray]:
    """The mean-field ODE right-hand side ``F(theta)`` of a model.

    Returns a function mapping coverages to their time derivative;
    ``sum(F) == 0`` identically (site count conservation), and every
    conserved quantity of the stoichiometry is conserved by ``F``.
    """
    s = stoichiometry_matrix(model).astype(np.float64)

    def rhs(theta: np.ndarray) -> np.ndarray:
        return mean_field_rates(model, theta) @ s

    return rhs


def integrate_mean_field(
    model: Model,
    theta0: Sequence[float] | dict[str, float],
    t_end: float,
    n_samples: int = 200,
    rtol: float = 1e-8,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Integrate the mean-field kinetics; returns (times, coverages).

    ``theta0`` is either a vector in species order or a dict (missing
    species get the remaining probability on the first absent one —
    pass a complete dict to be explicit).
    """
    from scipy.integrate import solve_ivp

    n_sp = len(model.species)
    if isinstance(theta0, dict):
        vec = np.zeros(n_sp)
        for name, v in theta0.items():
            vec[model.species.code(name)] = v
        rest = 1.0 - vec.sum()
        if abs(rest) > 1e-9:
            # assign the remainder to the first species not specified
            for j, name in enumerate(model.species.names):
                if name not in theta0:
                    vec[j] = rest
                    break
            else:
                raise ValueError("theta0 must sum to 1")
    else:
        vec = np.asarray(theta0, dtype=np.float64)
    if vec.shape != (n_sp,) or abs(vec.sum() - 1.0) > 1e-6 or (vec < 0).any():
        raise ValueError(f"invalid initial coverages {vec}")
    rhs = mean_field_rhs_for(model)
    sol = solve_ivp(
        lambda t, y: rhs(y),
        (0.0, float(t_end)),
        vec,
        t_eval=np.linspace(0.0, float(t_end), n_samples),
        rtol=rtol,
        atol=1e-10,
        max_step=max(t_end / 100.0, 1e-3),
    )
    if not sol.success:  # pragma: no cover - scipy failure surface
        raise RuntimeError(f"mean-field integration failed: {sol.message}")
    coverages = {
        name: sol.y[model.species.code(name)] for name in model.species.names
    }
    return sol.t, coverages
