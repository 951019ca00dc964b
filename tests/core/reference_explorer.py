"""An independent reference explorer: the textbook zone-graph algorithm.

The production engines -- the scalar loop and the layered core -- share the
successor generator, the federations and the zone kernels, so their
agreement with each other cannot reveal a bug in that shared code.  This
module is a second, deliberately naive implementation of the forward
zone-graph exploration (Bengtsson & Yi, "Timed Automata: Semantics,
Algorithms and Tools") that shares none of it:

* a zone is a tuple of row tuples of bounds; a bound is ``(c, weak)`` with
  ``weak`` 1 for ``<= c`` and 0 for ``< c``, so Python's tuple order is the
  bound order, and :data:`INF` is no bound;
* every operation that can break the canonical form ends in a full
  Floyd-Warshall closure;
* abstraction is the classical ``Extra_M`` over per-clock maximal constants;
* the passed store is one list of ``(locations, variables, zone)`` entries,
  searched linearly, and nothing is memoised.

It reads the :class:`~repro.core.network.CompiledNetwork` (edges, location
flags, channels, compiled constraint right-hand sides) and imports nothing
from the engine modules ``repro.core.{dbm, successors, federation, kernels,
reachability, shard}``.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import product

#: the absent bound (x_i - x_j unbounded)
INF = (math.inf, 0)
#: the bound (0, <=)
LE0 = (0, 1)


def add(a, b):
    """Sum of two bounds: values add, weak only when both are."""
    if a[0] == math.inf or b[0] == math.inf:
        return INF
    return (a[0] + b[0], a[1] & b[1])


def close(rows):
    """Floyd-Warshall closure of a zone given as lists; None when empty."""
    m = [list(row) for row in rows]
    n = len(m)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = add(m[i][k], m[k][j])
                if via < m[i][j]:
                    m[i][j] = via
    if any(m[i][i] < LE0 for i in range(n)):
        return None
    return tuple(tuple(row) for row in m)


def conjoin(zone, constraints):
    """``zone`` and every ``(i, j, bound)`` constraint; None when empty."""
    if not constraints:
        return zone
    m = [list(row) for row in zone]
    for i, j, b in constraints:
        if b < m[i][j]:
            m[i][j] = b
    return close(m)


def up(zone):
    """Delay: drop every clock's upper bound."""
    return tuple(row if i == 0 else (INF,) + row[1:] for i, row in enumerate(zone))


def reset(zone, clock, value):
    """``clock := value`` on a canonical zone."""
    m = [list(row) for row in zone]
    n = len(m)
    for j in range(n):
        m[clock][j] = add((value, 1), zone[0][j])
        m[j][clock] = add(zone[j][0], (-value, 1))
    m[clock][clock] = LE0
    return tuple(tuple(row) for row in m)


def extra_m(zone, bounds):
    """Classical maximal-constant extrapolation, then closure."""
    m = [list(row) for row in zone]
    n = len(m)
    for i in range(n):
        for j in range(n):
            b = m[i][j]
            if i == j or b == INF:
                continue
            if i != 0 and b > (bounds[i], 1):
                m[i][j] = INF
            elif j != 0 and b < (-bounds[j], 0):
                m[i][j] = (-bounds[j], 0)
    return close(m)


def included(zone, other):
    """Inclusion of canonical zones: entrywise ``<=``."""
    return all(a <= b for row_a, row_b in zip(zone, other) for a, b in zip(row_a, row_b))


def evaluate(constraints, variables):
    """Compiled clock constraints as ``(i, j, bound)`` under *variables*."""
    return [
        (c.i, c.j, (c.sign * int(c.rhs(variables)), 0 if c.strict else 1))
        for c in constraints
    ]


def max_constants(network, extra=None):
    """Per-clock largest constant of every guard and invariant (plus *extra*)."""
    domains = {
        name: network.variable_domains[index]
        for name, index in network.variable_index.items()
    }
    bounds = [0] * network.dim
    for instance in network.instances:
        constraints = [c for loc in instance.locations for c in loc.invariant]
        constraints += [
            c for edges in instance.outgoing for edge in edges for c in edge.clock_constraints
        ]
        for c in constraints:
            value = abs(c.rhs_const) if c.rhs_const is not None else c.source.max_constant(domains)
            for clock in (c.i, c.j):
                if clock:
                    bounds[clock] = max(bounds[clock], value)
    for clock, value in (extra or {}).items():
        bounds[clock] = max(bounds[clock], value)
    return bounds


class ReferenceExplorer:
    """Breadth-first forward exploration of a compiled network's zone graph."""

    def __init__(self, network, bounds=None):
        self.network = network
        self.bounds = bounds if bounds is not None else max_constants(network)

    # -- discrete semantics ---------------------------------------------------
    def _edges(self, instance, locations, variables, kind, channel=None):
        """Data-enabled edges of one instance: internal, sending or receiving."""
        out = []
        for edge in self.network.instances[instance].outgoing[locations[instance]]:
            if edge.data_guard is not None and not edge.data_guard(variables):
                continue
            if kind == "internal" and edge.channel is None:
                out.append(edge)
            elif edge.channel is not None and edge.direction == kind and (
                channel is None or edge.channel.name == channel
            ):
                out.append(edge)
        return out

    def _transitions(self, locations, variables):
        """Every fireable edge combination: internal, binary, broadcast."""
        n = len(self.network.instances)
        combos = [(edge,) for i in range(n) for edge in self._edges(i, locations, variables,
                                                                    "internal")]
        for i in range(n):
            for sender in self._edges(i, locations, variables, "!"):
                name = sender.channel.name
                others = [j for j in range(n) if j != i]
                if sender.channel.kind == "binary":
                    combos += [
                        (sender, receiver)
                        for j in others
                        for receiver in self._edges(j, locations, variables, "?", name)
                    ]
                else:
                    choices = [self._edges(j, locations, variables, "?", name) for j in others]
                    combos += [(sender, *picked) for picked in product(*[c for c in choices if c])]
        committed = {
            i for i, loc in enumerate(locations)
            if self.network.instances[i].locations[loc].committed
        }
        if committed:
            combos = [c for c in combos if any(edge.instance in committed for edge in c)]
        return combos

    def _urgent(self, locations, variables):
        """Time is frozen: an urgent or committed location, or an enabled
        synchronisation on an urgent channel."""
        n = len(self.network.instances)
        for i, loc in enumerate(locations):
            location = self.network.instances[i].locations[loc]
            if location.urgent or location.committed:
                return True
        for i in range(n):
            for sender in self._edges(i, locations, variables, "!"):
                if not sender.channel.urgent:
                    continue
                if sender.channel.kind == "broadcast":
                    return True
                name = sender.channel.name
                if any(self._edges(j, locations, variables, "?", name)
                       for j in range(n) if j != i):
                    return True
        return False

    def _invariant(self, locations, variables):
        constraints = []
        for instance, loc in zip(self.network.instances, locations):
            constraints += evaluate(instance.locations[loc].invariant, variables)
        return constraints

    def _settle(self, locations, variables, zone):
        """Target invariant, then (unless time is frozen) delay and invariant."""
        invariant = self._invariant(locations, variables)
        zone = conjoin(zone, invariant)
        if zone is not None and not self._urgent(locations, variables):
            zone = conjoin(up(zone), invariant)
        return zone

    def _fire(self, locations, variables, zone, edges):
        """The successor ``(locations, variables, zone)`` of one combination."""
        guard = [g for edge in edges for g in evaluate(edge.clock_constraints, variables)]
        zone = conjoin(zone, guard)
        if zone is None:
            return None
        new_variables = variables
        for edge in edges:
            if edge.update is not None:
                new_variables = edge.update(new_variables)
        self.network.check_variable_ranges(new_variables)
        for edge in edges:
            for clock, value in edge.resets:
                zone = reset(zone, clock, int(value(new_variables)))
        new_locations = list(locations)
        for edge in edges:
            new_locations[edge.instance] = edge.target
        new_locations = tuple(new_locations)
        new_variables = tuple(new_variables)
        zone = self._settle(new_locations, new_variables, zone)
        return None if zone is None else (new_locations, new_variables, zone)

    # -- the search --------------------------------------------------------------
    def explore(self):
        """Every stored symbolic state ``(locations, variables, zone)``."""
        network = self.network
        n = network.dim
        locations = network.initial_locations()
        variables = tuple(network.initial_variables)
        zero = tuple((LE0,) * n for _ in range(n))
        zone = self._settle(locations, variables, zero)
        if zone is None:
            raise ValueError("the initial state violates its invariant")
        initial = (locations, variables, extra_m(zone, self.bounds))
        passed = [initial]
        waiting = deque([initial])
        while waiting:
            locations, variables, zone = waiting.popleft()
            for edges in self._transitions(locations, variables):
                successor = self._fire(locations, variables, zone, edges)
                if successor is None:
                    continue
                key, zone_next = successor[:2], successor[2]
                if any(
                    (loc, var) == key and included(zone_next, stored)
                    for loc, var, stored in passed
                ):
                    continue
                state = (*key, extra_m(zone_next, self.bounds))
                passed.append(state)
                waiting.append(state)
        return passed


def reachable_discrete_states(states):
    """The ``(locations, variables)`` pairs of explored states."""
    return {(locations, variables) for locations, variables, _zone in states}


def sup_upper_bound(states, network, clock, instance, location):
    """Largest upper bound of *clock* over the states in which *instance* is
    at *location*, as a ``(c, weak)`` bound (None when no state is)."""
    instance_id = network.instance_id(instance)
    location_id = network.instances[instance_id].location_index[location]
    clock_id = network.clock_id(clock)
    bounds = [
        zone[clock_id][0] for locations, _variables, zone in states
        if locations[instance_id] == location_id
    ]
    return max(bounds) if bounds else None
