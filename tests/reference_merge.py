"""The scalar merge game: ``majoritylab.simulate_balance`` must agree with it
on every trajectory they share.

Components carry explicit part sizes and the true colour of part A, and one
merge is applied at a time, so each merge shape and its inferred-equality
tally can be checked by hand.  Checks raise, so they hold under ``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ComponentState:
    """One knowledge component: part sizes plus the true colour of part A."""

    a: int
    b: int = 0
    color_a: int = 0

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0:
            raise ValueError("part sizes must be nonnegative")
        if self.a + self.b < 1:
            raise ValueError("component must hold at least one ball")

    @property
    def size(self) -> int:
        return self.a + self.b

    @property
    def delta(self) -> int:
        return abs(self.a - self.b)

    @property
    def balance(self) -> int:
        return (self.a - self.b) ** 2

    @property
    def monochromatic(self) -> bool:
        return self.a == 0 or self.b == 0

    def part_color(self, side: str) -> int:
        return self.color_a if side == "a" else 1 - self.color_a

    def larger_side(self) -> str:
        return "a" if self.a >= self.b else "b"


@dataclass
class AdversaryWorld:
    """Mutable world state for the scalar merge process."""

    components: list[ComponentState]
    steps: int = 0
    inferred_edges: int = 0
    inferred_by_color: list[int] = field(default_factory=lambda: [0, 0])
    merges_mono_mono: int = 0
    merges_mixed: int = 0
    merges_di_di: int = 0

    def inferred_majority_edges(self) -> int:
        """Inferred-equality edges of the strict majority colour (0 on a tie)."""
        n = sum(c.size for c in self.components)
        zeros = sum(c.a if c.color_a == 0 else c.b for c in self.components)
        if zeros > n // 2:
            return self.inferred_by_color[0]
        if n - zeros > n // 2:
            return self.inferred_by_color[1]
        return 0


def merge_step(
    world: AdversaryWorld, i: int, j: int, sides: tuple[str, str] | None = None
) -> AdversaryWorld:
    """Compare a ball of component i against one of component j and merge.

    ``sides`` names the parts the compared balls come from ("a" or "b" for
    each); by default the larger part of each component.  The merged
    balance is (delta_i + delta_j)^2 when the compared colours agree and
    (delta_i - delta_j)^2 when they do not.  i == j is a no-op.

    Inferred edges follow the three merge shapes: two single-colour
    components infer nothing; a two-colour component absorbing a
    single-colour one on an unequal answer links the newcomer to its far
    part (one edge, the newcomer's colour); two two-colour components link
    their far sides, one edge on an equal answer and one per colour on an
    unequal answer.  The merged component takes the lower slot and the last
    component moves into the higher one.  Mutates ``world`` and returns it.
    """
    if i == j:
        return world
    ci, cj = world.components[i], world.components[j]
    si, sj = sides if sides is not None else (ci.larger_side(), cj.larger_side())
    if (ci.a if si == "a" else ci.b) == 0 or (cj.a if sj == "a" else cj.b) == 0:
        raise ValueError("compared side is empty")
    color_i, color_j = ci.part_color(si), cj.part_color(sj)
    equal = color_i == color_j

    if ci.monochromatic and cj.monochromatic:
        world.merges_mono_mono += 1
    elif ci.monochromatic or cj.monochromatic:
        world.merges_mixed += 1
        if not equal:
            world.inferred_edges += 1
            world.inferred_by_color[color_i if ci.monochromatic else color_j] += 1
    else:
        world.merges_di_di += 1
        if equal:
            world.inferred_edges += 1
            world.inferred_by_color[1 - color_i] += 1
        else:
            world.inferred_edges += 2
            world.inferred_by_color[0] += 1
            world.inferred_by_color[1] += 1

    near_i = ci.a if si == "a" else ci.b
    near_j = cj.a if sj == "a" else cj.b
    far_i, far_j = ci.size - near_i, cj.size - near_j
    if equal:
        merged = ComponentState(near_i + near_j, far_i + far_j, color_i)
    else:
        merged = ComponentState(near_i + far_j, far_i + near_j, color_i)

    low, high = min(i, j), max(i, j)
    world.components[low] = merged
    world.components[high] = world.components[-1]
    world.components.pop()
    world.steps += 1
    return world
