"""Built-in example systems used by checks, defaults, and the test suite."""

from __future__ import annotations

from .spaces import (SystemMap, circle_space, make_grid_interval_map,
                     make_multiply, make_rotation, one_point_system)


def quad_merge_map() -> SystemMap:
    """A fixed non-bijective 4-point map on the circle grid Z_4."""
    return SystemMap(circle_space(4), (1, 2, 0, 0), label="quadmerge")


def base_catalog() -> list[SystemMap]:
    """Finite-table example systems, smallest first."""
    return [
        one_point_system(),
        make_rotation(2, 1),
        make_rotation(3, 1),
        make_rotation(4, 1),
        make_rotation(5, 1),
        make_rotation(6, 1),
        make_rotation(6, 2),
        make_rotation(12, 1),
        make_multiply(5, 1),
        make_multiply(8, 2),
        make_multiply(9, 2),
        make_grid_interval_map("half", 4),
        make_grid_interval_map("half", 8),
        make_grid_interval_map("tent", 4, snap="nearest"),
        make_grid_interval_map("tent", 8, snap="nearest"),
        quad_merge_map(),
    ]


GENERATOR_KINDS = (
    "rotation:n,step",
    "multiply:n,a",
    "gridmap:shape,m[,snap]   shapes: half tent identity",
    "fullshift:symbols,resolution",
    "goldenmean:resolution",
    "point",
    "file:path.json",
)
