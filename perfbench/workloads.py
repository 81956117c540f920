"""The three workloads: inputs made from the seed, one round of operations,
and the checks of the round's outputs.

``ladder`` runs the README pipeline on tight sawtooth networks: many knots
with short rationals. ``random`` runs the seeded stress search over random
networks: few knots with long rationals. ``crosscheck`` runs the checks a
user makes to trust a result: exact point evaluation against the
forward-facing form, and the float sampling oracle. Every round of a
workload runs the same operations, so a run attempts whole rounds.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as Q
from pathlib import Path
from time import perf_counter

import checks
from speed import SpeedProbe

P = 2  # outputs of every ladder, random and reference network


@dataclass
class Round:
    """What one round did: wall and reference seconds per phase (see
    speed.py; none without a probe), operations and their outputs."""

    probe: SpeedProbe | None = None
    seconds: dict[str, float] = field(default_factory=dict)
    ref_seconds: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    differs: bool = False  # outputs differ from the first round's

    def timed(self, phase: str, fn, *args):
        """Run one operation, add its time to ``phase``; None if it raised."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a crash of the program is a failed operation
            result = None
            self.failed += 1
            self.errors.append(f"{phase}: {type(exc).__name__}: {exc}")
        end = perf_counter()
        wall, ref = self.probe.measure(start, end) if self.probe else (end - start, 0.0)
        self.seconds[phase] = self.seconds.get(phase, 0.0) + wall
        self.ref_seconds[phase] = self.ref_seconds.get(phase, 0.0) + ref
        return result


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """``relu-knots`` in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def seed_for(*parts) -> int:
    """A reproducible 32-bit seed from the run seed and a position."""
    return random.Random("/".join(map(str, parts))).getrandbits(32)


class Workload:
    name = ""
    layer_shape: tuple[int, ...] = ()
    # (metric, phase, unit, units of work per round or None for seconds)
    PHASES: list[tuple[str, str, str, int | None]] = []

    def __init__(self, program, seed: int, workdir: Path):
        self.rk = program  # the imported relu_knots package
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def counts(self) -> dict[str, int]:
        """Counts of the round's output, for the traced run."""
        return {"cli.csv_rows": 0}

    def cli(self, rnd: Round, phase: str, argv: list[str]) -> None:
        result = rnd.timed(phase, run_cli, self.rk.cli, argv)
        if result is not None and result[0] != 0:
            rnd.failed += 1
            rnd.errors.append(f"{' '.join(argv)}: exit {result[0]}")
        rnd.outputs.append(result)


class Ladder(Workload):
    """``build --out``, ``analyze --json`` and ``analyze --csv`` on tight shapes."""

    name = "ladder"
    SHAPES = ((6, 3, 2), (8, 8, 8), (6, 6, 6, 6), (5, 5, 5, 5, 5))
    layer_shape = SHAPES[-1]
    PHASES = [("build_s", "build_s", "s", None), ("analyze_s", "analyze_s", "s", None),
              ("analyze_csv_s", "analyze_csv_s", "s", None)]
    SAMPLE = 24  # knots and pieces certified per network

    def paths(self, shape):
        stem = self.workdir / "x".join(map(str, shape))
        return stem.with_suffix(".json"), stem.with_suffix(".csv")

    def run_round(self, probe: SpeedProbe | None) -> Round:
        rnd = Round(probe)
        for shape in self.SHAPES:
            net, table = map(str, self.paths(shape))
            self.cli(rnd, "build_s", ["build", *map(str, shape), "--p", str(P), "--out", net])
            self.cli(rnd, "analyze_s", ["analyze", net, "--json"])
            self.cli(rnd, "analyze_csv_s", ["analyze", net, "--csv", table])
        return rnd

    def counts(self):
        csvs = [p for _, p in map(self.paths, self.SHAPES) if p.exists()]
        return {"cli.csv_rows": sum(p.read_text().count("\n") - 1 for p in csvs)}

    def check(self, rounds: list[Round]) -> list[str]:
        problems = []
        rng = random.Random(seed_for(self.seed, "ladder-check"))
        outputs = iter(rounds[0].outputs)
        for shape in self.SHAPES:
            prefixes = checks.bound_prefixes(shape)
            bound = prefixes[-1]
            trio = next(outputs), next(outputs), next(outputs)
            if any(o is None or o[0] != 0 for o in trio):
                continue  # already counted as a failed operation
            (_, built), (_, report), _ = trio
            if f"knots: {bound} (bound {bound})" not in built:
                problems.append(f"{shape}: build reports {built!r}, bound {bound}")
            report = json.loads(report)
            expected = {
                "widths": list(shape), "p": P, "per_layer_knot_counts": prefixes,
                "output_knot_count": bound, "bound": bound, "meets_bound": True,
            }
            for key, value in expected.items():
                if report.get(key) != value:
                    problems.append(f"{shape}: analyze {key} = {report.get(key)}, expected {value}")
            net_path, csv_path = self.paths(shape)
            net = self.rk.load_network(net_path)
            copy = net_path.with_name("copy.json")
            self.rk.save_network(net, copy)
            if self.rk.load_network(copy) != net:
                problems.append(f"{shape}: load(save(net)) != net")
            tables, bad = checks.parse_csv(csv_path.read_text())
            problems += [f"{shape}: {p}" for p in bad]
            if len(tables) != P:
                problems.append(f"{shape}: CSV has {len(tables)} outputs")
                continue
            problems += [f"{shape}: {p}" for p in checks.check_count(tables, bound, exact=True)]
            found = checks.certify(
                lambda x: self.rk.evaluate(net, x), tables, rng, sample=self.SAMPLE
            )
            problems += [f"{shape}: {p}" for p in found]
        return problems


class RandomStress(Workload):
    """``verify.stress_bound`` over random networks; one stress seed per shape."""

    name = "random"
    SHAPES = ((8, 8, 8, 8), (16, 16, 16), (32, 32), (6, 6, 6, 6, 6, 6))
    layer_shape = SHAPES[1]
    TRIALS = 10  # networks per shape per round
    PHASES = [("stress_nets_per_s", "stress_s", "networks/s", TRIALS * len(SHAPES))]

    def arch(self, shape):
        return self.rk.Architecture(shape, output_dim=P)

    def stress_seed(self, i: int) -> int:
        return seed_for(self.seed, "stress", i)

    def setup(self) -> None:
        """Draws the networks the stress search of each shape will draw, for
        the checks; this relies on ``stress_bound`` drawing its networks in
        order with ``random_network`` from ``random.Random(seed)``."""
        super().setup()
        self.nets = []
        for i, shape in enumerate(self.SHAPES):
            rng = random.Random(self.stress_seed(i))
            arch = self.arch(shape)
            self.nets.append([self.rk.random_network(rng, arch) for _ in range(self.TRIALS)])

    def run_round(self, probe: SpeedProbe | None) -> Round:
        rnd = Round(probe)
        for i, shape in enumerate(self.SHAPES):
            report = rnd.timed("stress_s", self.rk.stress_bound, self.arch(shape), self.TRIALS,
                               self.stress_seed(i))
            rnd.attempted += self.TRIALS - 1  # one operation per network
            if report is None:
                rnd.failed += self.TRIALS - 1
            rnd.outputs.append(None if report is None else (i, report.bound, report.max_observed))
        return rnd

    def check(self, rounds: list[Round]) -> list[str]:
        problems = []
        rng = random.Random(seed_for(self.seed, "random-check"))
        # every network: its count is within the bound, and the report's
        # maximum is the largest count; one network per shape is certified
        # on every knot and every piece
        for output in rounds[0].outputs:
            if output is None:
                continue  # already counted as a failed operation
            i, bound, observed = output
            shape, fold = self.SHAPES[i], checks.bound_prefixes(self.SHAPES[i])[-1]
            if bound != fold or observed > fold:
                problems.append(f"{shape}: report {observed} of {bound}, bound {fold}")
            nets = self.nets[i]
            chosen = rng.randrange(len(nets))
            counts = []
            for j, net in enumerate(nets):
                tables = [table_of(f) for f in self.rk.extract(net).output_splines]
                counts.append(len({x for t in tables for x in t.xs()}))
                problems += [f"{shape}: {p}" for p in checks.check_count(tables, fold, exact=False)]
                if j == chosen:
                    found = checks.certify(
                        lambda x: self.rk.evaluate(net, x), tables, rng, sample=None
                    )
                    problems += [f"{shape} network {j}: {p}" for p in found]
            if max(counts) != observed:
                problems.append(f"{shape}: stress reports {observed}, largest count {max(counts)}")
        return problems


def table_of(f) -> checks.Table:
    """A checker table from a spline's public accessors."""
    slopes, values = f.piece_slopes(), f.knot_values()
    knots = [(x, values[i], slopes[i], slopes[i + 1]) for i, x in enumerate(f.knots())]
    right = (slopes[-1], knots[-1][1] - slopes[-1] * knots[-1][0]) if knots else None
    left = (f.initial_slope, f.initial_intercept)
    return checks.Table(knots, left, right or left)


class Crosscheck(Workload):
    """Exact evaluation against the forward-facing form, and the oracle."""

    name = "crosscheck"
    layer_shape = (8, 8, 8)
    NETS, POINTS = 40, 200  # shallow networks, rational points per network
    SUBSET = 8  # one point in SUBSET is also run through checks.forward
    SAMPLES = 100_001
    PHASES = [("exact_points_per_s", "exact_s", "points/s", NETS * POINTS),
              ("oracle_samples_per_s", "oracle_s", "samples/s", 2 * SAMPLES)]

    def setup(self) -> None:
        super().setup()
        rng = random.Random(seed_for(self.seed, "shallow"))
        self.shallow = [shallow_network(rng) for _ in range(self.NETS)]
        self.nets = [self.network(layers) for layers, _ in self.shallow]
        self.verify_targets = []
        for name, net in (
            ("reference.json", self.rk.example_tight_network()),
            ("8x8x8.json", self.rk.build_tight_network(self.rk.Architecture(self.layer_shape, P))),
        ):
            self.rk.save_network(net, self.workdir / name)
            self.verify_targets.append((self.workdir / name, net.widths))

    def network(self, layers):
        dense = [self.rk.DenseLayer(w, b) for w, b in layers]
        return self.rk.ScalarInputNetwork(tuple(dense[:-1]), dense[-1])

    def pair(self, net, points):
        form = self.rk.to_forward_facing(net)
        return [(self.rk.evaluate(net, x), self.rk.eval_canonical(form, x)) for x in points]

    def run_round(self, probe: SpeedProbe | None) -> Round:
        rnd = Round(probe)
        for net, (_, points) in zip(self.nets, self.shallow):
            rnd.outputs.append(rnd.timed("exact_s", self.pair, net, points))
        for path, _ in self.verify_targets:
            self.cli(rnd, "oracle_s", ["verify", str(path), "--samples", str(self.SAMPLES), "--json"])
        return rnd

    def check(self, rounds: list[Round]) -> list[str]:
        problems = []
        rng = random.Random(seed_for(self.seed, "crosscheck-check"))
        outputs = rounds[0].outputs
        for n, ((layers, points), pairs) in enumerate(zip(self.shallow, outputs)):
            for x, (exact, canonical) in zip(points, pairs or ()):
                if exact != canonical:
                    problems.append(f"net {n}: evaluate {exact} != eval_canonical {canonical} at {x}")
                if rng.randrange(self.SUBSET) == 0 and checks.forward(layers, x) != list(exact):
                    problems.append(f"net {n}: evaluate {exact} != plain forward pass at {x}")
        for (path, widths), result in zip(self.verify_targets, outputs[self.NETS:]):
            if result is None:
                continue
            code, text = result
            bound = checks.bound_prefixes(widths)[-1]
            report = json.loads(text) if code == 0 else {}
            step = Q(widths[0] + 1) / (self.SAMPLES - 1)
            error = report.get("max_location_error")
            ok = (
                report.get("agree") is True
                and report.get("detected") == report.get("exact") == bound
                and report.get("interval") == ["-1", str(widths[0])]
                and error is not None and Q(error) <= step
            )
            if not ok:
                problems.append(f"verify {path.name}: exit {code}, {text[:200]!r}, bound {bound}")
        return problems


def shallow_network(rng: random.Random):
    """Seeded one-hidden-layer network as plain Fraction layers, with its points.

    Same make-up as acceptance criterion 4: 1 to 10 units, 1 to 3 outputs,
    parameters num/den with |num| <= 100 and den <= 10, points num/den with
    |num| <= 1000 and den <= 100.
    """

    def value():
        return Q(rng.randint(-100, 100), rng.randint(1, 10))

    width, p = rng.randint(1, 10), rng.randint(1, 3)
    hidden = ([[value()] for _ in range(width)], [value() for _ in range(width)])
    output = ([[value() for _ in range(width)] for _ in range(p)], [value() for _ in range(p)])
    points = [Q(rng.randint(-1000, 1000), rng.randint(1, 100)) for _ in range(Crosscheck.POINTS)]
    return [hidden, output], points


WORKLOADS = {w.name: w for w in (Ladder, RandomStress, Crosscheck)}
