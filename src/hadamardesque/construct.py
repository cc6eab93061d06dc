"""Build equal-modulus matrices realizing any prescribed pairwise row dots.

Given a rational target vector a (one value per row pair), the inverse
Walsh transform of the sparse spectrum that places a_L on the pair mask of
L yields a weight vector whose dot with every pair-product row is exactly
a_L.  Shifting by a multiple of the all-ones vector (which is orthogonal to
every pair-product row) makes the weights nonnegative without changing any
dot product; the result is realizable as a matrix.

Three realizations are provided:

* canonical - one column of scale sqrt(v_i) per nonzero weight v_i;
* uniform rational - every entry is +-1/d for a single integer d;
* uniform irrational - every entry is +-1/(d*sqrt(2)).

The uniform flavors exist only for rational targets: in a matrix whose
entries all have modulus r, every pairwise row dot product is an integer
multiple of r^2, so a target mixing nonzero rationals and irrationals is
rejected as infeasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .classify import HadamardesqueMatrix, RepresentationVector, PairwiseDots
from .errors import InfeasibleError
from .scalars import SqrtRational
from .walsh import _check_entries, _rational_numerators, fwht, pair_count, pair_to_mask

FLAVORS = ("canonical", "rational", "irrational")


@dataclass(frozen=True)
class ConstructionOptions:
    """Shift policy and realization flavor.

    shift: "minimal" (smallest exact shift), "minimal-integer" (smallest
    integer shift), or an explicit nonnegative-making value.
    """

    shift: object = "minimal"
    flavor: str = "canonical"

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValueError(f"flavor must be one of {FLAVORS}, got {self.flavor!r}")
        if isinstance(self.shift, str) and self.shift not in ("minimal", "minimal-integer"):
            raise ValueError(f"unknown shift policy {self.shift!r}")


_UNIFORM_REASON = (
    "every pairwise row dot of a uniform-modulus matrix is an integer multiple "
    "of the squared entry modulus, so this target is unrealizable"
)
_EXACT_REASON = "the exact constructor realizes rational targets only"


def _target_fractions(m: int, a, *, reason: str = _EXACT_REASON) -> list[Fraction]:
    if isinstance(a, PairwiseDots):
        if a.m != m:
            raise ValueError(f"target has m={a.m}, caller said m={m}")
        a = a.values
    values = list(a)
    if len(values) != pair_count(m):
        raise ValueError(
            f"target needs {pair_count(m)} coordinates for m={m}, got {len(values)}"
        )
    out = []
    for pos, value in enumerate(values, start=1):
        if isinstance(value, SqrtRational):
            if not value.is_rational:
                raise InfeasibleError(
                    f"target coordinate {pos} is irrational ({value}); {reason}"
                )
            value = value.as_fraction()
        out.append(Fraction(value))
    return out


def _resolve_shift(shift, floor: Fraction) -> Fraction:
    """The shift to add to the raw weights, given the minimal feasible value."""
    if shift == "minimal":
        return floor
    if shift == "minimal-integer":
        return Fraction(math.ceil(floor))
    value = Fraction(shift)
    if value < floor:
        raise ValueError(f"explicit shift {value} leaves negative weights (need >= {floor})")
    return value


def construct_crv(m: int, a: Sequence, options: ConstructionOptions | None = None) -> RepresentationVector:
    """Nonnegative weight vector whose pair-row dots equal the target exactly.

    A zero target short-circuits to the all-ones weights (realized by the
    full truth table), since the minimal shift would otherwise produce the
    empty zero vector.
    """
    opts = options or ConstructionOptions()
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    _check_entries(f"weight vector of order {m}", 1, m - 1)
    target = _target_fractions(m, a)
    n = 1 << (m - 1)
    explicit = not isinstance(opts.shift, str)
    if all(v == 0 for v in target) and not explicit:
        return RepresentationVector(m, (Fraction(1),) * n)
    # The raw weights are fwht(spectrum) / (n * den), kept as integer numerators.
    numerators, den = _rational_numerators(target)
    spectrum = [0] * n
    for L, value in enumerate(numerators, start=1):
        spectrum[pair_to_mask(m, L)] = value
    raw = fwht(spectrum)
    raw_den = n * den
    shift = _resolve_shift(opts.shift, Fraction(max(0, -min(raw)), raw_den))
    out_den = math.lcm(raw_den, shift.denominator)
    scale = out_den // raw_den
    offset = shift.numerator * (out_den // shift.denominator)
    return RepresentationVector(m, tuple(Fraction(w * scale + offset, out_den) for w in raw))


def _support(v: RepresentationVector) -> tuple[list[int], list[int], int]:
    """Truth column index and numerator of every nonzero weight, over their lcm d."""
    numerators, d = _rational_numerators(v.values)  # a zero weight's denominator is 1
    indices = [i for i, x in enumerate(numerators, start=1) if x]
    if not indices:
        raise ValueError("all-zero weight vector: a matrix needs at least one column")
    return indices, [x for x in numerators if x], d


def realize_canonical(v: RepresentationVector) -> HadamardesqueMatrix:
    """One column of scale sqrt(v_i) per nonzero weight."""
    indices, numerators, d = _support(v)
    return HadamardesqueMatrix._of_weights(v.m, indices, numerators, (1,) * len(indices), d)


def realize_uniform_rational(m: int, a: Sequence, options: ConstructionOptions | None = None) -> HadamardesqueMatrix:
    """Realize a rational target with every entry equal to +-1/d.

    With d the lcm of the nonzero weights' denominators, a weight x/d
    becomes x*d copies of its truth column at scale 1/d: squared scale
    1/d^2, so the weight, and hence every dot product, is unchanged.
    """
    opts = options or ConstructionOptions(flavor="rational")
    target = _target_fractions(m, a, reason=_UNIFORM_REASON)
    indices, numerators, d = _support(construct_crv(m, target, opts))
    ones = (1,) * len(indices)
    return HadamardesqueMatrix._of_weights(m, indices, ones, [x * d for x in numerators], d * d)


def realize_uniform_irrational(m: int, a: Sequence, options: ConstructionOptions | None = None) -> HadamardesqueMatrix:
    """Realize a rational target with every entry equal to +-1/(d*sqrt(2)).

    Doubles every column of the uniform rational realization and halves the
    squared scale; weights and dot products are unchanged, but the shared
    entry modulus sqrt(1/(2 d^2)) is irrational.
    """
    indices, ones, multiplicities, den = realize_uniform_rational(m, a, options)._weights
    return HadamardesqueMatrix._of_weights(m, indices, ones, [2 * k for k in multiplicities], 2 * den)


def construct_matrix(m: int, a: Sequence, options: ConstructionOptions | None = None):
    """Dispatch on the requested flavor; returns a HadamardesqueMatrix."""
    opts = options or ConstructionOptions()
    if opts.flavor == "canonical":
        return realize_canonical(construct_crv(m, a, opts))
    if opts.flavor == "rational":
        return realize_uniform_rational(m, a, opts)
    return realize_uniform_irrational(m, a, opts)
