"""The non-overlap rule, decided in one place.

Two sites ``s != t`` may share a chunk only if no reaction anchored at
one touches a cell that a reaction anchored at the other touches (paper,
section 5)::

    Nb_Rt(s)  ∩  Nb_Rt'(t)  =  ∅        for all reaction types Rt, Rt'

The two reactions touch a common cell iff ``t - s = a - b`` for an offset ``a`` in the footprint
of ``Rt`` and ``b`` in that of ``Rt'``.  The *conflict difference set*
``D = {a - b} \\ {0}`` is finite and independent of the lattice size,
and a partition's conflict-freedom depends on nothing but ``D`` and its
chunk labels, which is why
:meth:`~repro.partition.partition.Partition.is_conflict_free` caches its
verdict under :func:`conflict_key`.

For a modular tiling ``chunk(x) = (c . x) mod m``, sites ``s`` and
``s + d`` share a chunk on the infinite lattice iff
``(c . d) ≡ 0 (mod m)`` (:func:`residue_collides`).  Checking that for
every ``d in D`` proves the tiling for all aligned lattice sizes
(:func:`prove_tiling`); on one finite shape the periodic wrap adds a
borrow term, whose ``O(2^ndim)`` achievable values per displacement
decide the shape exactly without enumerating sites
(:func:`tiling_conflicts_on_shape`).  DESIGN.md §7.1 has the derivation.

Every refutation is a :class:`Conflict`: a concrete site pair, the
reaction pair anchored there and the overlapping lattice cell.
:mod:`repro.lint` reports them as ``SR00x`` diagnostics.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from ..core.lattice import Offset
from ..core.model import Model
from ..core.reaction import ReactionType

__all__ = [
    "Witness",
    "Conflict",
    "conflict_witnesses",
    "model_witnesses",
    "conflict_key",
    "conflict_at",
    "residue_collides",
    "TilingProof",
    "prove_tiling",
    "tiling_conflicts_on_shape",
]


@dataclass(frozen=True)
class Witness:
    """One realisation ``a - b = d`` of a conflict displacement.

    Reaction ``reaction_a`` anchored at ``s`` touches ``s + offset_a``;
    reaction ``reaction_b`` anchored at ``t = s + d`` touches
    ``t + offset_b`` — the same cell.
    """

    reaction_a: str
    offset_a: Offset
    reaction_b: str
    offset_b: Offset


@dataclass(frozen=True)
class Conflict:
    """A minimal counterexample to the non-overlap rule.

    Two distinct sites ``site_s`` and ``site_t`` share chunk ``chunk``
    although reactions ``reaction_a`` (anchored at ``site_s``) and
    ``reaction_b`` (anchored at ``site_t``) both touch the lattice
    ``cell``; ``displacement`` is ``site_t - site_s`` before periodic
    wrapping.
    """

    site_s: Offset
    site_t: Offset
    chunk: int
    displacement: Offset
    reaction_a: str
    offset_a: Offset
    reaction_b: str
    offset_b: Offset
    cell: Offset

    def describe(self) -> str:
        """Human-readable one-liner naming sites, reactions and cell."""
        return (
            f"sites {self.site_s} and {self.site_t} share chunk "
            f"{self.chunk} but {self.reaction_a}@{self.site_s} and "
            f"{self.reaction_b}@{self.site_t} both touch cell {self.cell} "
            f"(displacement {self.displacement})"
        )

    def to_dict(self) -> dict:
        """JSON-serialisable payload for :class:`~repro.lint.diagnostics.Diagnostic`."""
        return {
            "site_s": list(self.site_s),
            "site_t": list(self.site_t),
            "chunk": self.chunk,
            "displacement": list(self.displacement),
            "reaction_a": self.reaction_a,
            "offset_a": list(self.offset_a),
            "reaction_b": self.reaction_b,
            "offset_b": list(self.offset_b),
            "cell": list(self.cell),
        }


def conflict_witnesses(
    reaction_types: Iterable[ReactionType],
) -> dict[Offset, Witness]:
    """The conflict difference set of some reaction types, with witnesses.

    Maps every nonzero ``d = a - b`` (``a`` in the footprint of one of
    the given reaction types, ``b`` in the footprint of another — or
    the same) to a :class:`Witness` realising it.  Pass all of a
    model's reaction types for the non-overlap rule, or a single one
    for the type-partitioned CA's weaker condition (``SR005``).

    Witness preference: same-reaction pairs are kept only when no
    cross-reaction pair realises the displacement, and among candidates
    the lexicographically first (by reaction names, then offsets) wins
    — deterministic output for stable counterexamples.
    """
    out: dict[Offset, Witness] = {}
    rts = tuple(reaction_types)
    for rt_a in rts:
        for rt_b in rts:
            for a in rt_a.neighborhood:
                for b in rt_b.neighborhood:
                    d = tuple(x - y for x, y in zip(a, b))
                    if not any(d):
                        continue
                    cand = Witness(rt_a.name, a, rt_b.name, b)
                    prev = out.get(d)
                    if prev is None or _witness_key(cand) < _witness_key(prev):
                        out[d] = cand
    return out


def _witness_key(w: Witness) -> tuple:
    """Sort key preferring cross-reaction pairs, then lexicographic order."""
    return (w.reaction_a == w.reaction_b, w.reaction_a, w.reaction_b, w.offset_a, w.offset_b)


#: per model object: its witnesses and their frozen key set (models are
#: immutable, so an entry never goes stale; it dies with its model)
_BY_MODEL: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _model_entry(model: Model) -> tuple[dict[Offset, Witness], frozenset[Offset]]:
    entry = _BY_MODEL.get(model)
    if entry is None:
        witnesses = conflict_witnesses(model.reaction_types)
        entry = _BY_MODEL[model] = (witnesses, frozenset(witnesses))
    return entry


def model_witnesses(model: Model) -> dict[Offset, Witness]:
    """:func:`conflict_witnesses` of all the model's reaction types.

    Computed once per model object; callers must not mutate the result.
    """
    return _model_entry(model)[0]


def conflict_key(model: Model) -> frozenset[Offset]:
    """The model's conflict difference set ``D``, frozen.

    All that decides whether a partition is conflict-free for the
    model: two models with equal keys (``zgb_model(0.5)`` and
    ``zgb_model(0.51)``, say) share every verdict, two with different
    keys share none, whatever their names.
    """
    return _model_entry(model)[1]


def residue_collides(coeffs: Sequence[int], m: int, d: Sequence[int]) -> bool:
    """Do sites ``s`` and ``s + d`` share a residue class ``(c . x) mod m``?

    The infinite-lattice test of a modular tiling: true means the
    displacement collides on every lattice size (``SR001``); a conflict
    it does not predict comes from the periodic wrap of a misaligned
    shape (``SR002``).
    """
    return sum(int(c) * int(x) for c, x in zip(coeffs, d)) % m == 0


def _check_spec(model: Model, m: int, coeffs: Sequence[int]) -> tuple[int, ...]:
    """Validate a tiling spec against a model; returns coeffs as a tuple."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    coeffs = tuple(int(c) for c in coeffs)
    if len(coeffs) != model.ndim:
        raise ValueError(
            f"tiling has {len(coeffs)} coefficients but model "
            f"{model.name!r} is {model.ndim}-d"
        )
    return coeffs


def conflict_at(
    site_s: tuple[int, ...],
    d: Offset,
    w: Witness,
    chunk: int,
    shape: Sequence[int] | None,
) -> Conflict:
    """The counterexample anchored at ``site_s`` with displacement ``d``.

    Coordinates wrap periodically on ``shape``; ``None`` keeps them
    infinite-lattice (unwrapped).
    """

    def _wrap(x: tuple[int, ...]) -> tuple[int, ...]:
        if shape is None:
            return x
        return tuple(int(c) % int(s) for c, s in zip(x, shape))

    return Conflict(
        site_s=site_s,
        site_t=_wrap(tuple(s + dd for s, dd in zip(site_s, d))),
        chunk=chunk,
        displacement=d,
        reaction_a=w.reaction_a,
        offset_a=w.offset_a,
        reaction_b=w.reaction_b,
        offset_b=w.offset_b,
        cell=_wrap(tuple(s + a for s, a in zip(site_s, w.offset_a))),
    )


@dataclass(frozen=True)
class TilingProof:
    """A certificate that a modular tiling satisfies the non-overlap rule.

    Valid for **all** periodic lattices whose side ``L_k`` is a
    multiple of ``aligned_moduli[k]`` on every axis — in particular for
    every lattice the constructors in :mod:`repro.partition.tilings`
    recommend.  ``n_displacements`` records the size of the conflict
    difference set the residue criterion was checked against.
    """

    m: int
    coeffs: tuple[int, ...]
    n_displacements: int
    aligned_moduli: tuple[int, ...]

    def statement(self) -> str:
        """The proof as one sentence (printed by ``python -m repro lint``)."""
        sides = ", ".join(
            f"L{k} ≡ 0 (mod {mod})" for k, mod in enumerate(self.aligned_moduli)
        )
        return (
            f"proof: tiling (x . {self.coeffs}) mod {self.m} is conflict-free "
            f"for ALL periodic lattices with {sides} — residue (c . d) mod "
            f"{self.m} is nonzero for each of the {self.n_displacements} "
            f"conflict displacements"
        )


def prove_tiling(
    model: Model, m: int, coeffs: Sequence[int]
) -> tuple[TilingProof | None, list[Conflict]]:
    """Prove the tiling conflict-free for all aligned lattice sizes.

    Returns ``(proof, [])`` on success or ``(None, counterexamples)``
    with one minimal counterexample per violating displacement (anchor
    at the origin; coordinates are infinite-lattice, i.e. unwrapped).
    No lattice is ever enumerated.
    """
    coeffs = _check_spec(model, m, coeffs)
    witnesses = model_witnesses(model)
    origin = (0,) * model.ndim
    bad = [
        conflict_at(origin, d, witnesses[d], chunk=0, shape=None)
        for d in sorted(witnesses)
        if residue_collides(coeffs, m, d)
    ]
    if bad:
        return None, bad
    aligned = tuple(m // gcd(c % m, m) if c % m else 1 for c in coeffs)
    return TilingProof(m, coeffs, len(witnesses), aligned), []


def _borrow_ranges(d: Offset, shape: Sequence[int]) -> list[range]:
    """Achievable borrow values ``β_k = floor((s_k + d_k)/L_k)`` per axis."""
    return [range(dk // lk, (lk - 1 + dk) // lk + 1) for dk, lk in zip(d, shape)]


def tiling_conflicts_on_shape(
    model: Model,
    m: int,
    coeffs: Sequence[int],
    shape: Sequence[int],
    limit: int = 8,
) -> list[Conflict]:
    """All conflicts of a modular tiling on one finite periodic shape.

    Exact (no false positives or negatives) and symbolic: the borrow
    enumeration touches ``O(|D| * 2^ndim)`` residues, never the ``N``
    sites.  Returns at most one counterexample per displacement, at
    most ``limit`` in total; an empty list is a conflict-freedom proof
    for this shape.  ``chunk`` is the residue class of ``site_s``.
    """
    coeffs = _check_spec(model, m, coeffs)
    shape = tuple(int(s) for s in shape)
    if len(shape) != model.ndim:
        raise ValueError(f"shape {shape} does not match a {model.ndim}-d model")
    witnesses = model_witnesses(model)
    out: list[Conflict] = []
    for d in sorted(witnesses):
        if all(dk % lk == 0 for dk, lk in zip(d, shape)):
            continue  # wraps onto the anchor itself: not a site pair
        for beta in itertools.product(*_borrow_ranges(d, shape)):
            label_diff = sum(
                c * (dk - bk * lk) for c, dk, bk, lk in zip(coeffs, d, beta, shape)
            )
            if label_diff % m:
                continue
            site_s = tuple(
                max(0, bk * lk - dk) for dk, bk, lk in zip(d, beta, shape)
            )
            chunk = sum(c * x for c, x in zip(coeffs, site_s)) % m
            out.append(
                conflict_at(site_s, d, witnesses[d], chunk, shape)
            )
            break  # one witness per displacement suffices
        if len(out) >= limit:
            break
    return out
