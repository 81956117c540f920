"""Knot-count bounds for scalar-input ReLU network architectures.

The exact bound for widths (n_1, ..., n_l) is

    (n_1 + 1) * (n_2 + 1) * ... * (n_l + 1) - 1.

It folds the per-layer recurrence m -> (n + 1) * m + n from m = 0: each
neuron of a layer can keep every incoming knot and can add at most one new
knot per affine piece, of which there are m + 1. In terms of pieces the
fold is (m + 1) -> (n + 1) * (m + 1), so the bound is the product of the
(n_i + 1), the number of linear regions of a scalar-input network in
Serra, Tjandraatmadja & Ramalingam 2018 (arXiv:1711.02114), less the one
region that has no knot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul


@dataclass(frozen=True, slots=True)
class Architecture:
    """Hidden-layer widths plus output dimension of a dense scalar-input network."""

    widths: tuple[int, ...]
    output_dim: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "widths", tuple(int(n) for n in self.widths))
        if not self.widths or any(n < 1 for n in self.widths):
            raise ValueError(f"widths must be positive: {self.widths}")
        if self.output_dim < 1:
            raise ValueError("output_dim must be positive")


def recurrence_step(m_prev: int, n_i: int) -> int:
    """Maximum knots after one more layer of width n_i: (n_i + 1) * m + n_i."""
    if m_prev < 0:
        raise ValueError("knot count cannot be negative")
    if n_i < 1:
        raise ValueError("layer width must be positive")
    return (n_i + 1) * m_prev + n_i


def bound_prefixes(arch: Architecture) -> list[int]:
    """Per-layer bounds m_1, ..., m_l: the running products of the (n_i + 1),
    less 1."""
    return [p - 1 for p in accumulate((n + 1 for n in arch.widths), mul)]


def knot_bound(arch: Architecture) -> int:
    """Exact maximum number of knots any network of this shape can produce."""
    return math.prod(n + 1 for n in arch.widths) - 1


def approx_bound(arch: Architecture) -> int:
    """Product of the widths; the leading term of the exact bound."""
    return math.prod(arch.widths)


def param_count(arch: Architecture) -> int:
    """Number of scalar weights and biases in a dense network of this shape."""
    widths = arch.widths
    total = 2 * widths[0]
    for n_in, n_out in zip(widths, widths[1:]):
        total += (n_in + 1) * n_out
    total += (widths[-1] + 1) * arch.output_dim
    return total


def tightness_eligibility(arch: Architecture) -> str | None:
    """Why no network of this shape attains the exact bound, or None when
    some network does.

    One hidden layer is always attainable: distinct knot locations suffice.
    Deeper networks need every non-final layer to support a sawtooth (width
    at least 3) and a final layer that can both keep and create knots (width
    at least 2). The reason names the first layer that falls short.
    """
    *early, last = arch.widths
    if not early:
        return None
    for i, n in enumerate(early, start=1):
        if n < 3:
            return (
                f"layer {i} has width {n} < 3: no affine combination of fewer than "
                "three units can alternate slope signs across every piece"
            )
    if last == 1:
        return (
            "final layer has width 1: a single unit cannot keep all incoming knots "
            "while also creating new ones"
        )
    return None
