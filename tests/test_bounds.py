from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relu_knots import (
    Architecture,
    approx_bound,
    bound_prefixes,
    knot_bound,
    param_count,
    recurrence_step,
    tightness_eligibility,
)

widths_strategy = st.lists(st.integers(1, 20), min_size=1, max_size=8).map(tuple)


class TestKnotBound:
    def test_reference_architecture(self):
        arch = Architecture((6, 3, 2))
        assert knot_bound(arch) == 83
        assert bound_prefixes(arch) == [6, 27, 83]

    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    def test_single_layer_equals_width(self, n):
        assert knot_bound(Architecture((n,))) == n

    def test_three_three_two(self):
        assert knot_bound(Architecture((3, 3, 2))) == 47


class TestRecurrence:
    def test_first_layer(self):
        assert recurrence_step(0, 9) == 9

    def test_reference_steps(self):
        assert recurrence_step(6, 3) == 27
        assert recurrence_step(27, 2) == 83

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            recurrence_step(-1, 3)
        with pytest.raises(ValueError):
            recurrence_step(4, 0)


class TestApproxBound:
    def test_product(self):
        assert approx_bound(Architecture((6, 3, 2))) == 36

    def test_exact_for_single_layer(self):
        assert approx_bound(Architecture((9,))) == knot_bound(Architecture((9,)))

    def test_equal_widths_power(self):
        assert approx_bound(Architecture((4, 4, 4))) == 4**3


class TestParamCount:
    def test_reference_architecture(self):
        assert param_count(Architecture((6, 3, 2), output_dim=2)) == 47

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_single_layer_closed_form(self, n):
        assert param_count(Architecture((n,))) == 3 * n + 1

    @pytest.mark.parametrize("n,l", [(4, 2), (5, 3), (3, 4)])
    def test_equal_width_closed_form(self, n, l):
        arch = Architecture((n,) * l)
        assert param_count(arch) == 2 * n + (n + 1) * (n * (l - 1) + 1)


class TestTightness:
    def test_reference_is_tight(self):
        assert tightness_eligibility(Architecture((6, 3, 2))) is None

    def test_narrow_early_layer_is_not(self):
        assert tightness_eligibility(Architecture((2, 5, 5))) is not None

    def test_single_layer_always_tight(self):
        for n in (1, 2, 4):
            assert tightness_eligibility(Architecture((n,))) is None

    def test_unit_final_layer_is_not(self):
        assert tightness_eligibility(Architecture((3, 1))) is not None

    def test_no_reason_exactly_when_the_sawtooth_fits(self):
        rng = random.Random(0)
        for _ in range(500):
            widths = tuple(rng.randint(1, 6) for _ in range(rng.randint(2, 5)))
            sawtooth_fits = all(n >= 3 for n in widths[:-1]) and widths[-1] >= 2
            assert (tightness_eligibility(Architecture(widths)) is None) == sawtooth_fits, widths

    def test_reason_names_the_offending_layer(self):
        reason = tightness_eligibility(Architecture((2, 5)))
        assert reason is not None and "layer 1" in reason and "2" in reason
        reason = tightness_eligibility(Architecture((3, 3, 1)))
        assert reason is not None and "final layer" in reason


class TestArchitectureValidation:
    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            Architecture(())
        with pytest.raises(ValueError):
            Architecture((3, 0))
        with pytest.raises(ValueError):
            Architecture((3,), output_dim=0)


@given(widths=widths_strategy)
@settings(max_examples=200)
def test_closed_form_equals_recurrence(widths):
    arch = Architecture(widths)
    folded = 0
    for n in widths:
        folded = recurrence_step(folded, n)
    assert knot_bound(arch) == folded


@given(widths=widths_strategy, index=st.integers(0, 7))
def test_bound_strictly_increases_in_each_width(widths, index):
    index %= len(widths)
    grown = list(widths)
    grown[index] += 1
    assert knot_bound(Architecture(tuple(grown))) > knot_bound(Architecture(widths))


@given(widths=widths_strategy, p=st.integers(1, 9))
def test_bound_ignores_output_dim(widths, p):
    assert knot_bound(Architecture(widths, output_dim=p)) == knot_bound(
        Architecture(widths)
    )


@given(widths=widths_strategy)
def test_width_product_never_exceeds_bound(widths):
    arch = Architecture(widths)
    assert approx_bound(arch) <= knot_bound(arch)
