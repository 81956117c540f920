"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).
All comparisons are exact unless a line states its tolerance explicitly.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction as Q

from conftest import affine_combine, combination, reference_layer, sawtooth_range
from relu_knots import (
    Architecture,
    build_tight_network,
    eval_canonical,
    evaluate,
    extract,
    knot_bound,
    recurrence_step,
    stress_bound,
    to_forward_facing,
)
from relu_knots.construct import build_first_layer_sawtooth, build_inductive_layer, example_tight_network
from relu_knots.verify import SamplingConfig, oracle_agreement, random_network


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_reference_network_reproduction():
    start = time.perf_counter()
    trace = extract(example_tight_network())
    counts = [len(u) for u in trace.per_layer_knot_union]
    output = len(trace.output_knot_union())
    elapsed = time.perf_counter() - start
    ok = counts[:2] == [6, 27] and output == 83 and elapsed < 1.0
    _report(
        1,
        ok,
        f"reference network: layer unions {counts}, output knots {output} "
        f"(expected [6, 27, ...] and 83), {elapsed:.3f}s",
    )


def test_criterion_2_bound_formula():
    start = time.perf_counter()
    ok = knot_bound(Architecture((6, 3, 2))) == 83
    ok &= all(knot_bound(Architecture((n,))) == n for n in range(1, 51))
    rng = random.Random(20_08)
    for _ in range(500):
        widths = tuple(rng.randint(1, 20) for _ in range(rng.randint(1, 8)))
        folded = 0
        for n in widths:
            folded = recurrence_step(folded, n)
        ok &= knot_bound(Architecture(widths)) == folded
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report(
        2,
        ok,
        f"closed form: 83 for (6,3,2), n for (n) up to 50, equals recurrence "
        f"on 500 random architectures, {elapsed:.3f}s",
    )


def _tightness_grid() -> list[tuple[int, ...]]:
    grid: list[tuple[int, ...]] = []
    for depth in range(1, 5):
        if depth == 1:
            grid.extend([(final,) for final in (2, 3)])
        else:
            grid.extend(
                widths + (final,)
                for widths in itertools.product((3, 4, 5), repeat=depth - 1)
                for final in (2, 3)
            )
    return grid


def test_criterion_3_tightness_grid():
    start = time.perf_counter()
    failures = []
    for widths in _tightness_grid():
        arch = Architecture(widths)
        achieved = len(extract(build_tight_network(arch)).output_knot_union())
        if achieved != knot_bound(arch):
            failures.append((widths, achieved, knot_bound(arch)))
    elapsed = time.perf_counter() - start
    largest = Architecture((5, 5, 5, 3))
    ok = not failures and knot_bound(largest) == 863 and elapsed < 30.0
    _report(
        3,
        ok,
        f"built {len(_tightness_grid())} architectures (largest bound 863), "
        f"all match the bound exactly, {elapsed:.1f}s; failures: {failures}",
    )


def test_criterion_4_shallow_equivalence():
    start = time.perf_counter()
    rng = random.Random(4)
    mismatches = 0
    for _ in range(200):
        arch = Architecture((rng.randint(1, 10),), output_dim=rng.randint(1, 3))
        net = random_network(rng, arch)
        form = to_forward_facing(net)
        for _ in range(1000):
            x = Q(rng.randint(-1000, 1000), rng.randint(1, 100))
            if evaluate(net, x) != eval_canonical(form, x):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    _report(
        4,
        ok,
        f"200 shallow networks x 1000 rational points: {mismatches} mismatches, "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_bound_universality():
    start = time.perf_counter()
    archs = [
        widths
        for depth in (1, 2, 3)
        for widths in itertools.product((1, 2, 3, 4, 5), repeat=depth)
    ]
    total_trials = 10_000
    base, extra = divmod(total_trials, len(archs))
    ran = 0
    worst_margin = None
    for i, widths in enumerate(archs):
        trials = base + (1 if i < extra else 0)
        report = stress_bound(Architecture(widths), trials=trials, seed=1000 + i)
        ran += report.trials
        margin = report.bound - report.max_observed
        if worst_margin is None or margin < worst_margin:
            worst_margin = margin
    elapsed = time.perf_counter() - start
    ok = ran == total_trials and elapsed < 60.0  # stress_bound raises on violation
    _report(
        5,
        ok,
        f"{ran} random networks over {len(archs)} architectures (depth <= 3, "
        f"widths <= 5): zero bound violations, smallest margin {worst_margin}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_sawtooth_invariants():
    ok = True
    details = []
    # first-layer waves: slope walk -1, 1/2, -1/2, ... (unscaled weights)
    for n1 in (3, 6, 8):
        layer, witness = build_first_layer_sawtooth(n1)
        units = reference_layer(layer)
        wave = affine_combine(
            [(a / 2, f) for a, f in zip(witness.combination_weights, units)]
        )
        expected = [Q(-1)] + [Q(1, 2) if i % 2 == 0 else Q(-1, 2) for i in range(n1)]
        here = wave.piece_slopes() == expected and sawtooth_range(wave) is not None
        ok &= here
        details.append(f"n1={n1}:{'ok' if here else 'BAD'}")
    # inductive layers: consecutive knot values move by exactly 1/(2n+1)
    for n_i in (3, 5, 7):
        first, witness = build_first_layer_sawtooth(3)
        layer, new_witness = build_inductive_layer(witness, n_i)
        new_units = reference_layer(layer, reference_layer(first))
        wave = combination(new_witness, new_units)
        values = wave.knot_values()
        step = Q(1, 2 * n_i + 1)
        here = (
            all(abs(b - a) == step for a, b in zip(values, values[1:]))
            and sawtooth_range(wave) is not None
        )
        ok &= here
        details.append(f"n_i={n_i}:{'ok' if here else 'BAD'}")
    _report(6, ok, "sawtooth slope walks and knot displacements exact: " + ", ".join(details))


def test_criterion_7_oracle_agreement():
    start = time.perf_counter()
    cfg = SamplingConfig((Q(-1), Q(6)), samples=100_000)
    report = oracle_agreement(example_tight_network(), cfg)
    elapsed = time.perf_counter() - start
    ok = (
        report.agree
        and len(report.detected) == 83
        and report.max_location_error is not None
        and report.max_location_error <= cfg.grid_step
        and elapsed < 5.0
    )
    _report(
        7,
        ok,
        f"sampling found {len(report.detected)} of 83 knots, worst location error "
        f"{report.max_location_error:.2e} <= one grid step {cfg.grid_step:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_unattainable_bound_evidence():
    report = stress_bound(Architecture((2, 2)), trials=10_000, seed=0)
    ok = (
        report.bound == 8
        and report.max_observed < 8
        and report.gap is not None
        and report.gap >= 1
        and "not proof" in report.note
    )
    _report(
        8,
        ok,
        f"(2, 2) search: best of 10000 random networks reached "
        f"{report.max_observed} < bound 8 (gap {report.gap}); "
        f"reported as evidence, not proof",
    )
