"""Symmetry reduction: verified replication automorphisms of a network.

Architectures with replicated load (``k`` identical scenarios, each on its
own dedicated processor) induce an automorphism group on the compiled
network: permuting the replicas maps runs onto runs, so the exploration only
needs one representative per orbit of discrete states.  This module holds
the *network-level* half of the reduction:

* :func:`isomorphic_templates` -- the structural check that two automaton
  templates are identical up to a name substitution.  Detection
  (:mod:`repro.arch.symmetry`) *proposes* clone units from the architecture
  description; this check *disposes*: an orbit is only attached to the
  compiled network after every member verified isomorphic to the first, so
  soundness never rests on generator naming conventions.
* :class:`SymmetrySpec` -- the verified orbits with their index-level
  footprints, and the canonicalisation map the explorer applies to every
  discrete state before passed/waiting lookup.  Canonicalisation sorts the
  units of each orbit by their discrete signature (stable, so states that
  are already canonical pass through untouched) and applies the induced
  permutation to the location vector, the variable vector and -- via
  :func:`permute_zones` -- the zone.

Soundness: the attached permutations are verified automorphisms, so a state
and its canonical representative are related by a run-preserving bijection
of the whole transition system; reachability of any replica-symmetric
property (in particular the observed scenario's WCRT, whose observer is
never part of an orbit) is invariant under the folding.  The reduction is
disabled when traces are recorded, because a canonical trace is not a
genuine run of the unfolded network (``docs/reductions.md``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.automaton import TimedAutomaton
from repro.util.errors import ModelError

__all__ = ["SymmetryUnit", "SymmetrySpec", "isomorphic_templates", "permute_zones"]


def permute_zones(zones: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    """Relabel the clocks of every zone of a ``(count, dim, dim)`` array in place.

    Entry ``(i, j)`` of each zone receives the old ``(perm[i], perm[j])``.
    *perm* must be a permutation of ``0 .. dim-1`` fixing index 0 (the
    reference clock).  A consistent relabelling preserves the canonical
    form, so no re-closure is needed.  Maps a zone onto the canonical
    representative of its discrete state (:meth:`SymmetrySpec.canonicalize`).
    """
    p = np.asarray(perm, dtype=np.intp)
    if len(p) != zones.shape[1] or p[0] != 0:
        raise ModelError("permutation must cover every clock and fix the reference")
    zones[:] = zones[:, p[:, None], p[None, :]]
    return zones


@dataclass(frozen=True)
class SymmetryUnit:
    """The index-level footprint of one replicated architecture unit.

    The tuples of the units of one orbit are aligned positionally: entry
    ``m`` of one unit's ``instances``/``variables``/``clocks`` corresponds
    to entry ``m`` of every other unit's, under the verified isomorphism.
    """

    #: compiled instance indices belonging to the unit
    instances: tuple[int, ...]
    #: global variable-vector indices owned by the unit
    variables: tuple[int, ...]
    #: DBM clock indices owned by the unit
    clocks: tuple[int, ...]


class SymmetrySpec:
    """Verified replication symmetry of one compiled network."""

    def __init__(self, dim: int, orbits: Sequence[Sequence[SymmetryUnit]]):
        self.dim = dim
        self.orbits: tuple[tuple[SymmetryUnit, ...], ...] = tuple(
            tuple(units) for units in orbits
        )
        seen_instances: set[int] = set()
        seen_variables: set[int] = set()
        seen_clocks: set[int] = set()
        for units in self.orbits:
            if len(units) < 2:
                raise ModelError("a symmetry orbit needs at least two units")
            shape = (len(units[0].instances), len(units[0].variables), len(units[0].clocks))
            for unit in units:
                if (len(unit.instances), len(unit.variables), len(unit.clocks)) != shape:
                    raise ModelError("symmetry orbit units must have identical shapes")
                for pool, values, kind in (
                    (seen_instances, unit.instances, "instance"),
                    (seen_variables, unit.variables, "variable"),
                    (seen_clocks, unit.clocks, "clock"),
                ):
                    for value in values:
                        if value in pool:
                            raise ModelError(
                                f"symmetry units must be disjoint ({kind} {value} repeated)"
                            )
                        pool.add(value)
                if any(c <= 0 or c >= dim for c in unit.clocks):
                    raise ModelError("symmetry unit clock index out of range")
        #: canonicalisation memo per packed discrete key; bounded by the
        #: number of distinct discrete states of the exploration
        self._memo: dict[
            bytes, tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...] | None]
        ] = {}

    def canonicalize(
        self,
        locations: tuple[int, ...],
        variables: tuple[int, ...],
        dkey: bytes | None = None,
    ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...] | None]:
        """The orbit-canonical representative of a discrete state.

        Returns ``(locations, variables, clock_perm)``; ``clock_perm`` is
        ``None`` when the state is already canonical (the common case), else
        the permutation to feed :func:`permute_zones` so the
        zone follows its discrete state onto the representative.  Memoised
        per packed discrete key -- the map is a pure function of the
        discrete state.
        """
        key = dkey if dkey is not None else array("q", locations + variables).tobytes()
        cached = self._memo.get(key)
        if cached is None:
            cached = self._canonicalize(locations, variables)
            self._memo[key] = cached
        return cached

    def _canonicalize(
        self, locations: tuple[int, ...], variables: tuple[int, ...]
    ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...] | None]:
        new_locations: list[int] | None = None
        new_variables: list[int] | None = None
        perm: list[int] | None = None
        for units in self.orbits:
            signatures = [
                (
                    tuple(locations[i] for i in unit.instances),
                    tuple(variables[v] for v in unit.variables),
                )
                for unit in units
            ]
            order = sorted(range(len(units)), key=signatures.__getitem__)
            if order == list(range(len(units))):
                continue
            if new_locations is None:
                new_locations = list(locations)
                new_variables = list(variables)
                perm = list(range(self.dim))
            # the unit in canonical slot k takes the state of the unit
            # ranked k by discrete signature (stable sort: discretely equal
            # units keep their relative order)
            for slot, src in enumerate(order):
                target, source = units[slot], units[src]
                for a, b in zip(target.instances, source.instances):
                    new_locations[a] = locations[b]
                for a, b in zip(target.variables, source.variables):
                    new_variables[a] = variables[b]
                for a, b in zip(target.clocks, source.clocks):
                    perm[a] = b
        if new_locations is None:
            return (locations, variables, None)
        return (tuple(new_locations), tuple(new_variables), tuple(perm))


def isomorphic_templates(
    a: TimedAutomaton, b: TimedAutomaton, rename: Mapping[str, str]
) -> bool:
    """Structural equality of two automaton templates under a renaming.

    *rename* maps every name of *a* that differs in *b* -- typically the
    global variable, channel and location names that embed a replica's
    identity; template-local names are expected to coincide.  Declaration
    *order* must match too: the compiled index footprints of the units are
    aligned positionally, so a set-equal but reordered clone would break the
    induced index bijection.
    """

    def r(name: str) -> str:
        return rename.get(name, name)

    if [r(n) for n in a.clocks] != list(b.clocks):
        return False
    if [r(n) for n in a.variables] != list(b.variables):
        return False
    for var_a, var_b in zip(a.variables.values(), b.variables.values()):
        if (var_a.initial, var_a.domain) != (var_b.initial, var_b.domain):
            return False
    if {r(n): c.value for n, c in a.constants.items()} != {
        n: c.value for n, c in b.constants.items()
    }:
        return False
    if len(a.locations) != len(b.locations) or len(a.edges) != len(b.edges):
        return False
    if r(a.initial_location) != b.initial_location:
        return False
    for (name_a, loc_a), (name_b, loc_b) in zip(a.locations.items(), b.locations.items()):
        if r(name_a) != name_b:
            return False
        if loc_a.urgent != loc_b.urgent or loc_a.committed != loc_b.committed:
            return False
        if loc_a.invariant.rename(rename) != loc_b.invariant:
            return False
    for edge_a, edge_b in zip(a.edges, b.edges):
        if r(edge_a.source) != edge_b.source or r(edge_a.target) != edge_b.target:
            return False
        if edge_a.guard.rename(rename) != edge_b.guard:
            return False
        if (edge_a.sync is None) != (edge_b.sync is None):
            return False
        if edge_a.sync is not None and (
            r(edge_a.sync.channel) != edge_b.sync.channel
            or edge_a.sync.direction != edge_b.sync.direction
        ):
            return False
        if tuple(u.rename(rename) for u in edge_a.updates) != tuple(edge_b.updates):
            return False
        if tuple((r(c), v.rename(rename)) for c, v in edge_a.resets) != tuple(
            (c, v) for c, v in edge_b.resets
        ):
            return False
    return True
