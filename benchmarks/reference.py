"""The benchmark's own reference: shape texts, path counts and admissibility.

Written with the standard library only and never imports ``skewcount``, so
a defect in the program cannot hide by also being in the check.

A shape is a pair ``(outer, inner)`` of weakly decreasing tuples of positive
parts. A monotone E/N path from (0, 0) to (width, n) lies in the shape when
its k-th north step (bottom-up) sits at an x between ``inner[n-k]`` and
``outer[n-k]``.
"""

from __future__ import annotations

Shape = tuple[tuple[int, ...], tuple[int, ...]]


def parse_shape(text: str) -> Shape:
    """``"9,7,6,2/3,1"`` -> ``((9, 7, 6, 2), (3, 1))``; ``"0"`` is the empty shape."""

    def parts(chunk: str) -> tuple[int, ...]:
        values = [int(t) for t in chunk.split(",")]
        if any(v < 0 for v in values) or any(b > a for a, b in zip(values, values[1:])):
            raise ValueError(f"not a partition: {chunk!r}")
        while values and values[-1] == 0:
            values.pop()
        return tuple(values)

    outer_text, _, inner_text = text.partition("/")
    outer = parts(outer_text)
    inner = parts(inner_text) if inner_text else ()
    if len(inner) > len(outer) or any(i > o for i, o in zip(inner, outer)):
        raise ValueError(f"inner not contained in outer: {text!r}")
    return outer, inner


def format_shape(shape: Shape) -> str:
    """Canonical text, the inverse of :func:`parse_shape`."""
    outer, inner = shape
    text = ",".join(map(str, outer)) or "0"
    return text + "/" + ",".join(map(str, inner)) if inner else text


def north_bounds(shape: Shape) -> list[tuple[int, int]]:
    """(lo, hi) x-range of each north step, bottom-up."""
    outer, inner = shape
    n = len(outer)
    return [
        (inner[n - k] if n - k < len(inner) else 0, outer[n - k])
        for k in range(1, n + 1)
    ]


def count_paths(shape: Shape) -> int:
    """Number of admissible paths, by prefix sums over the north-step positions."""
    bounds = north_bounds(shape)
    width = shape[0][0] if shape[0] else 0
    # ways[x]: admissible prefixes whose last north step sits at x
    ways = [1] + [0] * width
    for lo, hi in bounds:
        running = 0
        nxt = [0] * (width + 1)
        for x in range(width + 1):
            running += ways[x]
            if lo <= x <= hi:
                nxt[x] = running
        ways = nxt
    return sum(ways)


def is_admissible(shape: Shape, steps: str) -> bool:
    """True iff ``steps`` is an E/N path from (0, 0) to the far corner inside the shape."""
    bounds = north_bounds(shape)
    width = shape[0][0] if shape[0] else 0
    if set(steps) - {"E", "N"} or steps.count("E") != width or steps.count("N") != len(bounds):
        return False
    x = 0
    k = 0
    for s in steps:
        if s == "E":
            x += 1
        else:
            lo, hi = bounds[k]
            if not lo <= x <= hi:
                return False
            k += 1
    return True
