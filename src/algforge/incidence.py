"""Incidence patterns: reflexive, transitive, antisymmetric position sets.

A pattern describes which matrix units span an incidence algebra.  All
positions are 1-based (row, column) pairs and always include the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IncidencePattern:
    n: int
    positions: frozenset[tuple[int, int]]

    def __post_init__(self):
        pos = self.positions
        if not (type(self.n) is int
                and all(type(i) is int and type(j) is int for (i, j) in pos)):
            raise ValueError("pattern size and positions must be integers")
        for (i, j) in pos:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError("position out of range")
        for i in range(1, self.n + 1):
            if (i, i) not in pos:
                raise ValueError("pattern is not reflexive")
        for (i, j) in pos:
            if i != j and (j, i) in pos:
                raise ValueError("pattern is not antisymmetric")
        # transitive iff (i, j) in pos puts every successor of j among i's
        succ: dict[int, set[int]] = {i: set() for i in range(1, self.n + 1)}
        for (i, j) in pos:
            succ[i].add(j)
        if not all(succ[j] <= succ[i] for (i, j) in pos):
            raise ValueError("pattern is not transitive")

    @property
    def size(self) -> int:
        return len(self.positions)

    @property
    def is_upper_triangular(self) -> bool:
        return all(i <= j for (i, j) in self.positions)

    def strict(self) -> set[tuple[int, int]]:
        return {(i, j) for (i, j) in self.positions if i != j}

    def sorted_positions(self) -> list[tuple[int, int]]:
        return sorted(self.positions)

    def relabel(self, images: dict[int, int]) -> IncidencePattern:
        """Apply a bijection of {1..n} to both coordinates."""
        return IncidencePattern(self.n, frozenset(
            (images[i], images[j]) for (i, j) in self.positions))


def incidence_of_dimension(n: int, k: int) -> IncidencePattern:
    """A staircase incidence pattern with exactly k positions.

    The diagonal is filled first; the remaining k - n strict positions are
    taken row n-1 down to row 1, columns n down to the diagonal, which keeps
    every prefix transitive (complete suffix rows below one partial row).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not (n <= k <= n * (n + 1) // 2):
        raise ValueError("dimension out of range")
    pos = [(i, i) for i in range(1, n + 1)]
    need = k - n
    for r in range(n - 1, 0, -1):
        for c in range(n, r, -1):
            if need == 0:
                break
            pos.append((r, c))
            need -= 1
        if need == 0:
            break
    return IncidencePattern(n, frozenset(pos))


def triangularize_incidence(p: IncidencePattern) -> list[int]:
    """A topological order of the strict relation, as a list of 0-based
    original indices; conjugating by the matching permutation matrix makes
    the pattern upper-triangular.

    Deterministic: ties are broken by smallest index.
    """
    n = p.n
    succ: dict[int, set[int]] = {i: set() for i in range(1, n + 1)}
    indeg = {i: 0 for i in range(1, n + 1)}
    for (i, j) in p.strict():
        if j not in succ[i]:
            succ[i].add(j)
            indeg[j] += 1
    order: list[int] = []
    ready = sorted(i for i in indeg if indeg[i] == 0)
    while ready:
        v = ready.pop(0)
        order.append(v - 1)
        for w in sorted(succ[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
        ready.sort()
    if len(order) != n:
        raise ValueError("strict relation has a cycle")
    return order


def pattern_to_json(p: IncidencePattern) -> dict:
    return {"n": p.n, "positions": [list(t) for t in p.sorted_positions()]}


def pattern_from_json(obj: dict) -> IncidencePattern:
    """Load a pattern document; a malformed one raises ValueError naming
    the field at fault."""
    if not (isinstance(obj, dict) and "n" in obj and "positions" in obj):
        raise ValueError("expected an object with 'n' and 'positions'")
    positions = obj["positions"]
    if not (isinstance(positions, list) and all(
            isinstance(p, list) and len(p) == 2
            and type(p[0]) is int and type(p[1]) is int for p in positions)):
        raise ValueError("'positions' must be a list of [i, j] pairs of"
                         " integers")
    return IncidencePattern(obj["n"], frozenset(map(tuple, positions)))
