from __future__ import annotations

import csv
import dataclasses
import errno
import json
import os
import random
import stat
import subprocess
import sys
import threading
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    coefficients,
    fractions_built,
    network_layers,
    rational_arithmetic_calls,
    rationals,
    reference_extract,
    reference_spline_csv,
    seeded_points,
    to_network,
)
from relu_knots import (
    Architecture,
    CanonicalShallowForm,
    ScalarInputNetwork,
    evaluate,
    extract,
    format_rational,
    knot_bound,
    load_network,
    param_count,
    parse_rational,
    save_network,
    to_forward_facing,
)
from relu_knots import cli, network
from relu_knots.cli import main
from relu_knots.construct import build_tight_network, example_tight_network
from relu_knots.rational import format_ratio
from relu_knots.verify import random_network


@pytest.fixture
def reference_file(tmp_path):
    path = tmp_path / "reference.json"
    save_network(example_tight_network(), path)
    return str(path)


@pytest.fixture
def shallow_file(tmp_path):
    path = tmp_path / "shallow.json"
    path.write_text(
        json.dumps(
            {
                "p": 1,
                "hidden_layers": [
                    {"weights": [["1"], ["-1"]], "biases": ["0", "1"]}
                ],
                "output_layer": {"weights": [["1", "1"]], "biases": ["0"]},
            }
        )
    )
    return str(path)


@pytest.fixture
def narrow_file(tmp_path):
    # widths (2, 2): the bound 8 is unattainable, and the network has 2 knots
    path = tmp_path / "narrow.json"
    path.write_text(
        json.dumps(
            {
                "p": 1,
                "hidden_layers": [
                    {"weights": [["1"], ["2"]], "biases": ["0", "1"]},
                    {"weights": [["1", "1"], ["1", "-1"]], "biases": ["0", "0"]},
                ],
                "output_layer": {"weights": [["1", "1"]], "biases": ["0"]},
            }
        )
    )
    return str(path)


class TestBound:
    def test_reference_architecture(self, capsys):
        assert main(["bound", "6", "3", "2", "--p", "2"]) == 0
        assert capsys.readouterr().out == (
            "widths: [6, 3, 2]\n"
            "p: 2\n"
            "bound: 83\n"
            "per_layer_bounds: [6, 27, 83]\n"
            "approx_bound: 36\n"
            "param_count: 47\n"
            "tightness: tight\n"
        )

    def test_json_output(self, capsys):
        assert main(["bound", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bound"] == 4
        assert payload["tightness"] == "tight"

    def test_not_tight_shape(self, capsys):
        assert main(["bound", "2", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["tightness"] == "not_tight"

    def test_malformed_widths(self, capsys):
        assert main(["bound", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        with pytest.raises(SystemExit) as exc:
            main(["bound", "three"])
        assert exc.value.code == 2

    def test_module_entry_point(self):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "relu_knots.cli", *argv],
                env=env, capture_output=True, text=True, timeout=60,
            )

        done = run("bound", "6", "3", "2", "--p", "2", "--json")
        assert done.returncode == 0 and done.stderr == ""
        assert json.loads(done.stdout)["per_layer_bounds"] == [6, 27, 83]
        refused = run("bound", *[str(10**1000)] * 5)  # a bound of 5,001 digits
        assert refused.returncode == 2 and refused.stdout == ""
        limit = sys.get_int_max_str_digits()
        assert refused.stderr == f"error: an integer has more than {limit} digits\n"


class TestReportText:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "6", "3", "2", "--p", "2"],
            ["analyze", "NET"],
            ["analyze", "NET", "--layers"],
            ["verify", "NET", "--samples", "5001", "--trials", "20", "--seed", "3"],
        ],
        ids=["bound", "analyze", "analyze-layers", "verify-trials"],
    )
    def test_text_and_json_are_one_source(self, argv, narrow_file, capsys):
        argv = [narrow_file if arg == "NET" else arg for arg in argv]
        assert main(argv + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        lines = [line.split(": ", 1) for line in capsys.readouterr().out.splitlines()]
        assert [key for key, _ in lines] == list(payload)
        for key, text in lines:  # a string bare, any other value as JSON
            value = payload[key]
            assert (text if isinstance(value, str) else json.loads(text)) == value


class TestBuild:
    def test_round_trip_with_analyze(self, tmp_path, capsys):
        out_file = tmp_path / "net.json"
        assert main(["build", "3", "3", "2", "--out", str(out_file)]) == 0
        build_out = capsys.readouterr().out
        assert "knots: 47 (bound 47)" in build_out

        assert main(["analyze", str(out_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["output_knot_count"] == 47
        assert payload["meets_bound"] is True

    def test_one_extraction_per_command(self, tmp_path, monkeypatch, capsys):
        import relu_knots.cli as cli_mod
        import relu_knots.construct as construct_mod
        import relu_knots.network as network_mod

        real_extract = network_mod.extract
        calls = []

        def counting_extract(net):
            calls.append(net.widths)
            return real_extract(net)

        for module in (cli_mod, construct_mod, network_mod):
            monkeypatch.setattr(module, "extract", counting_extract, raising=False)
        out_file = tmp_path / "net.json"
        assert main(["build", "3", "2", "--out", str(out_file)]) == 0
        assert len(calls) == 1
        assert main(["analyze", str(out_file), "--csv", str(tmp_path / "s.csv")]) == 0
        assert len(calls) == 2

    def test_ladder_builds_rationals_per_parameter(self, tmp_path, monkeypatch, capsys):
        # The (5,5,5,5,5) p = 2 network has 142 parameters and 7,775 knots:
        # build --out, analyze --json and analyze --csv read the knots in
        # ints, so each command builds a few Fractions per parameter at most.
        arch = Architecture((5, 5, 5, 5, 5), output_dim=2)
        net, table = str(tmp_path / "net.json"), str(tmp_path / "splines.csv")
        counts = []
        for argv in (
            ["build", "5", "5", "5", "5", "5", "--p", "2", "--out", net],
            ["analyze", net, "--json"],
            ["analyze", net, "--csv", table],
        ):
            with fractions_built(monkeypatch) as built:
                assert main(argv) == 0
            counts += built
        assert max(counts) <= 3 * param_count(arch) < knot_bound(arch)
        # the load reads every parameter as an int pair, and verify's exact
        # side reads the trace's ints too: it builds the interval's two
        # ends, and exits 4, as (5,5,5,5,5) has knots closer than three
        # steps of the default grid
        with fractions_built(monkeypatch) as built:
            assert main(["verify", net, "--json"]) == 4
        assert built == [counts[1] + 2] == [2]

    def test_stdout_json_when_no_out(self, capsys):
        assert main(["build", "4"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["p"] == 1
        assert "knots: 4" in captured.err

    def test_ineligible_exits_3(self, capsys):
        assert main(["build", "2", "5"]) == 3
        err = capsys.readouterr().err
        assert "layer 1" in err and "2" in err

    def test_failed_construction_exits_1(self, monkeypatch, capsys):
        def broken(arch):
            raise RuntimeError("construction produced 82 knots, expected 83")

        monkeypatch.setattr(cli, "build_tight_network", broken)
        assert main(["build", "6", "3", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: construction produced 82 knots, expected 83\n"

    @pytest.mark.parametrize(
        "cut, message",
        [
            ("output-knot", "output 0 cancelled a knot: 82 of 83 kept"),
            ("grid-point", "construction produced 82 knots, expected 83"),
        ],
    )
    def test_construction_checks_its_extraction(self, cut, message, monkeypatch, capsys):
        import relu_knots.construct as construct_mod

        def cut_extract(net):
            trace = extract(net)
            if cut == "output-knot":  # output 0 loses its first knot
                (slope, c, knots, jumps), *rest = trace.outputs
                return dataclasses.replace(trace, outputs=((slope, c, knots[1:], jumps[1:]), *rest))
            # the last grid point goes, and every output's knot on it
            nums, dens = trace.grids[-1]
            return dataclasses.replace(
                trace,
                grids=(*trace.grids[:-1], (nums[:-1], dens[:-1])),
                outputs=tuple((s, c, knots[:-1], jumps[:-1]) for s, c, knots, jumps in trace.outputs),
            )

        monkeypatch.setattr(construct_mod, "extract", cut_extract)
        assert main(["build", "6", "3", "2", "--p", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_knot_limit_exits_2_before_building(self, monkeypatch, capsys):
        def no_build(arch):
            raise AssertionError("built a network above the knot limit")

        monkeypatch.setattr(cli, "build_tight_network", no_build)
        assert main(["build", "46", "46", "46"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: widths [46, 46, 46] ask for 103822 knots, "
            "above build's limit of 100000\n"
        )

    def test_output_knots_above_limit_exit_2_before_building(self, monkeypatch, capsys):
        def no_build(arch):
            raise AssertionError("built a network above the output knot limit")

        monkeypatch.setattr(cli, "build_tight_network", no_build)
        assert main(["build", "3", "--p", "1000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 1000000 outputs at bound 3 ask for 3000000 knots, "
            "above build's limit of 200000 over all outputs\n"
        )

    def test_unit_final_layer_exits_3(self, capsys):
        assert main(["build", "3", "1"]) == 3
        assert "final layer" in capsys.readouterr().err

    def test_reference_shape_emits_reference_parameters(self, tmp_path, capsys):
        out_file = tmp_path / "ref.json"
        assert main(["build", "6", "3", "2", "--p", "2", "--out", str(out_file)]) == 0
        assert "knots: 83 (bound 83)" in capsys.readouterr().out
        assert load_network(out_file) == example_tight_network()

    def test_round_trip_over_attainable_grid(self, tmp_path, capsys):
        # analyze must report exactly the count build printed, for every
        # shape in the acceptance grid.
        import itertools

        grid = [(f,) for f in (2, 3)]
        for depth in (2, 3, 4):
            grid.extend(
                w + (f,)
                for w in itertools.product((3, 4, 5), repeat=depth - 1)
                for f in (2, 3)
            )
        for widths in grid:
            out_file = tmp_path / ("net_" + "_".join(map(str, widths)) + ".json")
            args = [str(n) for n in widths]
            assert main(["build", *args, "--out", str(out_file)]) == 0
            built_line = capsys.readouterr().out.splitlines()[-1]
            assert main(["analyze", str(out_file), "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert f"knots: {payload['output_knot_count']}" in built_line
            assert payload["meets_bound"] is True


def reconstruct_csv_output(rows: list[dict]) -> "callable":
    """Rebuild one output's piecewise function from its CSV rows, exactly."""
    assert rows[0]["x_rational"] == "-inf" and rows[-1]["x_rational"] == "+inf"
    initial_slope = parse_rational(rows[0]["left_slope_rational"])
    initial_intercept = parse_rational(rows[0]["value_rational"])
    knots = [
        (
            parse_rational(r["x_rational"]),
            parse_rational(r["value_rational"]),
            parse_rational(r["right_slope_rational"]),
        )
        for r in rows[1:-1]
    ]

    def f(x: Q) -> Q:
        current = None
        for kx, value, right in knots:
            if kx <= x:
                current = (kx, value, right)
            else:
                break
        if current is None:
            return initial_slope * x + initial_intercept
        kx, value, right = current
        return value + right * (x - kx)

    return f


class TestAnalyzeCsv:
    def test_export_reproduces_evaluation_exactly(self, reference_file, tmp_path, capsys):
        csv_path = tmp_path / "splines.csv"
        assert main(["analyze", reference_file, "--csv", str(csv_path)]) == 0
        with open(csv_path, newline="") as handle:
            reader = csv.DictReader(handle)
            assert reader.fieldnames == [
                "output_index",
                "x_rational",
                "x_decimal",
                "value_rational",
                "value_decimal",
                "left_slope_rational",
                "right_slope_rational",
            ]
            rows = list(reader)
        net = load_network(reference_file)
        by_output: dict[int, list[dict]] = {}
        for row in rows:
            by_output.setdefault(int(row["output_index"]), []).append(row)
        assert set(by_output) == {0, 1}
        for index, output_rows in by_output.items():
            assert len(output_rows) == 83 + 2  # knots plus the two ray rows
            f = reconstruct_csv_output(output_rows)
            for x in seeded_points(100, 100):
                assert f(x) == evaluate(net, x)[index]

    def test_knot_rows_are_continuous_and_increasing(self, reference_file, tmp_path):
        csv_path = tmp_path / "splines.csv"
        main(["analyze", reference_file, "--csv", str(csv_path)])
        with open(csv_path, newline="") as handle:
            rows = [r for r in csv.DictReader(handle) if r["output_index"] == "0"]
        knots = rows[1:-1]
        xs = [parse_rational(r["x_rational"]) for r in knots]
        assert xs == sorted(xs) and len(set(xs)) == len(xs)
        # value at each knot equals the previous piece extended to that knot
        s0 = parse_rational(rows[0]["left_slope_rational"])
        c0 = parse_rational(rows[0]["value_rational"])
        first = knots[0]
        assert parse_rational(first["value_rational"]) == s0 * xs[0] + c0
        for prev, here in zip(knots, knots[1:]):
            left_value = parse_rational(prev["value_rational"]) + parse_rational(
                prev["right_slope_rational"]
            ) * (parse_rational(here["x_rational"]) - parse_rational(prev["x_rational"]))
            assert parse_rational(here["value_rational"]) == left_value
            assert parse_rational(here["left_slope_rational"]) == parse_rational(
                prev["right_slope_rational"]
            )

    def test_reference_report(self, reference_file, capsys):
        assert main(["analyze", reference_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["per_layer_knot_counts"] == [6, 27, 83]
        assert payload["output_knot_count"] == 83
        assert payload["bound"] == 83
        assert payload["meets_bound"] is True

    def test_layer_flag_lists_locations(self, reference_file, capsys):
        assert main(["analyze", reference_file, "--layers", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["per_layer_knots"][0] == ["0", "1", "2", "3", "4", "5"]
        assert len(payload["output_knots"]) == 83

    def test_layer_flag_text(self, narrow_file, capsys):
        assert main(["analyze", narrow_file, "--layers"]) == 0
        assert capsys.readouterr().out == (
            "widths: [2, 2]\n"
            "p: 1\n"
            "per_layer_knot_counts: [2, 2]\n"
            "output_knot_count: 2\n"
            "bound: 8\n"
            "meets_bound: false\n"
            "tightness: not_tight\n"
            'per_layer_knots: [["-1/2", "0"], ["-1/2", "0"]]\n'
            'output_knots: ["-1/2", "0"]\n'
        )

    def test_schema_violation_exits_2_with_path(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "p": 1,
                    "hidden_layers": [{"weights": [[0.5]], "biases": ["0"]}],
                    "output_layer": {"weights": [["1"]], "biases": ["0"]},
                }
            )
        )
        assert main(["analyze", str(path)]) == 2
        assert "hidden_layers[0].weights[0][0]" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["analyze", "/nonexistent/net.json"]) == 2

    def test_directory_exits_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_out_of_memory_exits_2(self, reference_file, monkeypatch, capsys):
        def exhausted(net):
            raise MemoryError

        monkeypatch.setattr(cli, "extract", exhausted)
        assert main(["analyze", reference_file, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory: the input is too large\n"

    def test_layer_above_knot_limit_exits_2(self, reference_file, monkeypatch, capsys):
        # the reference network's unions are 6, 27 and 83 knots
        monkeypatch.setattr(network, "KNOT_LIMIT", 50)
        assert main(["analyze", reference_file, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: hidden layer 3 has 83 knots, above the limit of 50\n"
        monkeypatch.setattr(network, "KNOT_LIMIT", 83)
        assert main(["analyze", reference_file, "--json"]) == 0


def ramp_network(rows, biases) -> ScalarInputNetwork:
    """The ramps relu(x), relu(-x), relu(x - 1/2), relu(x + 7/4), relu(x - 1/3)
    and relu(x - 11/2), as many as the longest row uses, then an output layer
    whose shorter rows are padded with zeros."""
    n = max(map(len, rows))
    hidden = ([[1], [-1], [1], [1], [1], [1]][:n], [0, 0, Q(-1, 2), Q(7, 4), Q(-1, 3), Q(-11, 2)][:n])
    return to_network([hidden, ([row + [0] * (n - len(row)) for row in rows], biases)])


# output rows over those ramps, relu(x) - relu(-x) being x:
# x/2 with a jump of -1/2 at 1/2, where the intercept right of the knot,
# 1/4, has a denominator beyond the jump's
HALF_THEN_FLAT = [Q(1, 2), Q(-1, 2), Q(-1, 2)]
# -3/7 x, no knot
NO_KNOTS = [Q(-3, 7), Q(3, 7)]
# 2/3 x with jumps of 1/6, -5/9 and 3/4 at -7/4, 1/3 and 11/2
THREE_KNOTS = [Q(2, 3), Q(-2, 3), 0, Q(1, 6), Q(-5, 9), Q(3, 4)]


def integer_knots() -> ScalarInputNetwork:
    """Knots at -2, 3 and 5, each with q == 1, and integer values."""
    return to_network([([[1], [1], [-1]], [2, -3, 5]), ([[2, -1, 3]], [1])])


def exponent_decimals() -> ScalarInputNetwork:
    """Knots at 10^-9 and 10^25, output weights 10^400/7 and 10^-400 and
    bias 10^-15: decimal cells at or past 10^20, and below 10^-6, are
    written in exponent form."""
    hidden = ([[1], [10**9]], [-(10**25), -1])
    return to_network([hidden, ([[Q(BIG, 7), Q(1, BIG)]], [Q(1, 10**15)])])


def zero_valued_knots() -> ScalarInputNetwork:
    """A hat, 0 at its knots 0 and 2 and 1 at its knot 1, flat outside."""
    return to_network([([[1], [1], [1]], [0, -1, -2]), ([[1, -2, 1]], [0])])


class TestDigitLimit:
    # knots of up to 15,057 bits, past Python's 4,300 digits for int to text
    @pytest.fixture
    def long_knots_file(self, tmp_path):
        arch = Architecture((8, 8, 8), output_dim=2)
        path = tmp_path / "long.json"
        save_network(random_network(random.Random(10), arch, 10**100, 10**100), path)
        return str(path)

    def test_format_ratio_names_the_limit(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ValueError, match=f"^an integer has more than {limit} digits$"):
            format_ratio(10**limit, 3)
        assert format_ratio(10 ** (limit - 1), 1) == "1" + "0" * (limit - 1)

    @pytest.mark.parametrize("flags", [["--layers", "--json"], ["--csv"]], ids=["layers", "csv"])
    def test_knots_past_the_limit_exit_2(self, flags, long_knots_file, tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = ["analyze", long_knots_file, *flags] + ([str(out)] if "--csv" in flags else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        limit = sys.get_int_max_str_digits()
        assert captured.err == f"error: an integer has more than {limit} digits\n"
        assert not out.exists()  # the CSV begun is removed, not left with its header

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("through_link", [False, True], ids=["fifo", "link-to-fifo"])
    def test_csv_leaves_a_path_it_did_not_create(self, through_link, long_knots_file, tmp_path, capsys):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        target = fifo
        if through_link:
            target = tmp_path / "link.csv"
            target.symlink_to(fifo)
        drained: list[bytes] = []  # the writer's open blocks until a reader opens
        reader = threading.Thread(target=lambda: drained.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(["analyze", long_knots_file, "--csv", str(target)]) == 2
        reader.join(timeout=30)
        limit = sys.get_int_max_str_digits()
        assert capsys.readouterr().err == f"error: an integer has more than {limit} digits\n"
        assert stat.S_ISFIFO(os.stat(target).st_mode)
        assert target.is_symlink() == through_link
        assert drained[0].startswith(b"output_index,")

    def test_csv_over_an_existing_file_keeps_it(self, long_knots_file, tmp_path, capsys):
        out = tmp_path / "out.csv"
        out.write_text("old\n")
        assert main(["analyze", long_knots_file, "--csv", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: an integer has more than ")
        assert out.read_text().startswith("output_index,")  # overwritten, not removed

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_bound_past_the_limit_exits_2(self, flags, capsys):
        # five widths of 10^1000: a bound of 5,001 digits
        assert main(["bound", *[str(10**1000)] * 5, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        limit = sys.get_int_max_str_digits()
        assert captured.err == f"error: an integer has more than {limit} digits\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze"],
            ["analyze", "--json"],
            ["analyze", "--csv"],
            ["verify", "--trials", "1", "--samples", "101", "--json"],
        ],
        ids=["analyze-text", "analyze-json", "analyze-csv", "verify-trials-json"],
    )
    def test_deep_bound_past_the_limit_exits_2(self, argv, tmp_path, capsys):
        # 2,200 layers of width 1: one knot, and a bound 2^2200 - 1 of 663 digits
        path, out = tmp_path / "deep.json", tmp_path / "out.csv"
        unit = {"weights": [["1"]], "biases": ["0"]}
        path.write_text(json.dumps({"p": 1, "hidden_layers": [unit] * 2200, "output_layer": unit}))
        argv = [argv[0], str(path), *argv[1:]] + ([str(out)] if "--csv" in argv else [])
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code = main(argv)
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: an integer has more than 640 digits\n"
        assert not out.exists()  # the report is refused before the CSV is begun

    def test_counts_alone_still_print(self, long_knots_file, capsys):
        assert main(["analyze", long_knots_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["output_knot_count"] == 33


class TestSplineCsv:
    """``write_spline_csv`` walks the trace's ints; the ``Fraction`` writer
    kept in ``conftest``, run on ``reference_extract``'s splines, says what
    it must write."""

    @staticmethod
    def same_as_reference(net, tmp_path) -> bool:
        cli.write_spline_csv(extract(net), tmp_path / "ints.csv")
        reference_spline_csv(reference_extract(net)[1], tmp_path / "fractions.csv")
        return (tmp_path / "ints.csv").read_bytes() == (tmp_path / "fractions.csv").read_bytes()

    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(layers=network_layers())
    def test_matches_fraction_reference(self, layers, tmp_path):
        assert self.same_as_reference(to_network(layers), tmp_path)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ramp_network([HALF_THEN_FLAT], [0]),
            lambda: ramp_network([NO_KNOTS], [Q(5, 2)]),
            lambda: ramp_network([HALF_THEN_FLAT, NO_KNOTS, THREE_KNOTS], [0, Q(5, 2), Q(-1, 5)]),
            example_tight_network,
            integer_knots,
            exponent_decimals,
            zero_valued_knots,
        ],
        ids=[
            "intercept-beyond-jump-denominators",
            "no-knots",
            "p=3",
            "reference-network",
            "integer-knots",
            "exponent-decimals",
            "zero-valued-knots",
        ],
    )
    def test_named_cases(self, make, tmp_path):
        assert self.same_as_reference(make(), tmp_path)

    @pytest.mark.parametrize(
        "make, column, cells",
        [
            (integer_knots, "x_rational", ["-2", "3", "5"]),
            (exponent_decimals, "x_decimal", ["1E-9", "1.0000000000000000000E+25"]),
            (zero_valued_knots, "value_rational", ["0", "1", "0"]),
        ],
        ids=["integer-knots", "exponent-decimals", "zero-valued-knots"],
    )
    def test_edge_cases_reach_their_cells(self, make, column, cells, tmp_path):
        # each edge case writes the cells it is named for, which
        # test_named_cases compares with the csv module's output
        path = tmp_path / "splines.csv"
        cli.write_spline_csv(extract(make()), path)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row[column] for row in rows[1:-1]] == cells

    def test_reference_network_first_lines(self, tmp_path):
        # the header and the first ray row, RFC 4180 line ends included
        path = tmp_path / "splines.csv"
        cli.write_spline_csv(extract(example_tight_network()), path)
        assert path.read_bytes().startswith(
            b"output_index,x_rational,x_decimal,value_rational,value_decimal,"
            b"left_slope_rational,right_slope_rational\r\n"
            b"0,-inf,-inf,-17/6,-2.8333333333333333333,-7,-7\r\n"
        )

    def test_writes_without_rational_arithmetic(self, tmp_path, monkeypatch):
        trace = extract(build_tight_network(Architecture((6, 6, 6, 6), output_dim=2)))
        with rational_arithmetic_calls(monkeypatch) as calls:
            cli.write_spline_csv(trace, tmp_path / "splines.csv")
        assert calls == []


class TestUnwritableOutput:
    """An output path that cannot be written is an input error: one
    ``error:`` line with the path, exit 2, no traceback."""

    @pytest.mark.parametrize(
        "command, target, code",
        [
            (["analyze", "NET", "--csv"], "missing/x.csv", errno.ENOENT),
            (["analyze", "NET", "--csv"], ".", errno.EISDIR),
            (["build", "3", "3", "--out"], "missing/n.json", errno.ENOENT),
        ],
        ids=["csv-in-missing-directory", "csv-onto-a-directory", "build-out-in-missing-directory"],
    )
    def test_exits_2_with_one_error_line(self, command, target, code, reference_file, tmp_path):
        target = tmp_path / target
        argv = [reference_file if arg == "NET" else arg for arg in command] + [str(target)]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
        run = subprocess.run(
            [sys.executable, "-m", "relu_knots.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr == f"error: {target}: {os.strerror(code)}\n"

    @pytest.mark.parametrize(
        "target, code",
        [
            ("missing/n.json", errno.ENOENT),
            ("a-file/n.json", errno.ENOTDIR),
            ("a-directory", errno.EISDIR),
            ("", errno.ENOENT),
        ],
        ids=["missing-directory", "file-as-directory", "is-a-directory", "empty"],
    )
    def test_build_refused_before_building(self, target, code, tmp_path, monkeypatch, capsys):
        def no_build(arch):
            raise AssertionError("built a network for an output it cannot write")

        monkeypatch.setattr(cli, "build_tight_network", no_build)
        (tmp_path / "a-file").write_text("")
        (tmp_path / "a-directory").mkdir()
        target = tmp_path / target if target else ""  # "" is no file name at all
        assert main(["build", "9", "9", "9", "9", "9", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {target}: {os.strerror(code)}\n"
        assert not Path(target).is_file() and (tmp_path / "a-file").read_text() == ""

    @pytest.mark.parametrize(
        "target, code",
        [
            ("missing/x.csv", errno.ENOENT),
            ("a-file/x.csv", errno.ENOTDIR),
            ("a-directory", errno.EISDIR),
            ("", errno.ENOENT),
        ],
        ids=["missing-directory", "file-as-directory", "is-a-directory", "empty"],
    )
    def test_csv_refused_before_extracting(
        self, target, code, reference_file, tmp_path, monkeypatch, capsys
    ):
        def no_extract(net):
            raise AssertionError("extracted for an output it cannot write")

        monkeypatch.setattr(cli, "extract", no_extract)
        (tmp_path / "a-file").write_text("")
        (tmp_path / "a-directory").mkdir()
        target = tmp_path / target if target else ""  # "" is no file name at all
        assert main(["analyze", reference_file, "--csv", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {target}: {os.strerror(code)}\n"
        assert not Path(target).is_file() and (tmp_path / "a-file").read_text() == ""


BIG = 10**400
# numerators and denominators up to 10^400: ends beyond the float range,
# ends that round to 0, and ends closer than the floats between them
HUGE_RATIONALS = st.builds(Q, st.integers(-BIG, BIG), st.integers(1, BIG))
E200 = 10**200  # a float holds it, but not its square


def one_ramp(weight, bias):
    """Layers of relu(weight*x + bias), output unscaled."""
    return [([[weight]], [bias]), ([[1]], [0])]


class TestVerify:
    def test_agreement_on_built_network(self, tmp_path, capsys):
        out_file = tmp_path / "net.json"
        main(["build", "3", "2", "--out", str(out_file)])
        capsys.readouterr()
        assert main(["verify", str(out_file), "--samples", "20001", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["agree"] is True
        assert payload["detected"] == payload["exact"] == 11

    def test_stress_mode_reports_gap(self, narrow_file, capsys):
        argv = ["verify", narrow_file, "--samples", "5001", "--trials", "100", "--seed", "3"]
        assert main(argv + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stress"]["bound"] == 8
        assert payload["stress"]["max_observed"] < 8
        assert payload["stress"]["gap"] >= 1

    def test_stress_mode_text(self, narrow_file, capsys):
        argv = ["verify", narrow_file, "--samples", "5001", "--trials", "100", "--seed", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            'interval: ["-1", "2"]\n'
            "samples: 5001\n"
            "detected: 2\n"
            "exact: 2\n"
            "exact_outside_interval: 0\n"
            "grid_step: 0.0006\n"
            "max_location_error: 0.0001\n"
            "agree: true\n"
            "crowded: 0\n"
            'stress: {"trials": 100, "seed": 3, "bound": 8, "max_observed": 6, "gap": 2, '
            '"note": "randomized search: evidence, not proof"}\n'
        )

    def test_corrupted_extraction_exits_4(self, reference_file, monkeypatch, capsys):
        import relu_knots.verify as verify_mod
        from relu_knots.network import extract as real_extract

        def lying_extract(net):
            trace = real_extract(net)
            # drop the first output knot and its jump: counts no longer
            # match detections
            slope, intercept, knots, jumps = trace.outputs[0]
            return dataclasses.replace(
                trace,
                outputs=((slope, intercept, knots[1:], jumps[1:]),),
            )

        monkeypatch.setattr(verify_mod, "extract", lying_extract)
        assert main(["verify", reference_file, "--samples", "20001"]) == 4

    def test_undersampling_exits_4(self, reference_file, capsys):
        # Grid too coarse to separate the knots: counts cannot match.
        assert main(["verify", reference_file, "--samples", "41"]) == 4
        err = capsys.readouterr().err
        assert "too coarse" in err
        assert "(0.0238)" in err  # smallest gap between exact knots, 1/42
        assert "--samples 884 or more" in err
        # the count the message names is enough
        assert main(["verify", reference_file, "--samples", "884"]) == 0

    def test_knots_on_end_points_name_no_sample_count(self, reference_file, capsys):
        # the reference network has knots at 0 and 1, which the grid's end
        # points can never detect: they are counted as not compared
        args = ["verify", reference_file, "--interval", "0", "1", "--samples", "5001"]
        assert main(args + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] == payload["detected"] == 11
        assert payload["exact_outside_interval"] == 72

    def test_negative_fraction_as_low_end(self, reference_file, capsys):
        args = ["verify", reference_file, "--interval", "-1/2", "3", "--samples", "5001"]
        assert main(args + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["interval"] == ["-1/2", "3"]

    def test_malformed_interval_exits_2(self, reference_file, capsys):
        assert main(["verify", reference_file, "--interval", "a", "b"]) == 2
        assert main(["verify", reference_file, "--interval", "1e3", "2000"]) == 2
        assert capsys.readouterr().err.endswith("error: invalid rational '1e3'\n")

    def test_long_interval_end_is_quoted_short(self, reference_file, capsys):
        assert main(["verify", reference_file, "--interval", "0", "1" * 5000]) == 2
        err = capsys.readouterr().err
        assert err == f"error: invalid rational {'1' * 40!r}... (5000 characters)\n"

    def test_negative_trials_exits_2(self, shallow_file, monkeypatch, capsys):
        def no_oracle(*args):
            raise AssertionError("the oracle ran before the trial count was checked")

        monkeypatch.setattr(cli, "oracle_agreement", no_oracle)
        assert main(["verify", shallow_file, "--samples", "1001", "--trials", "-3"]) == 2
        assert capsys.readouterr().err == "error: trials must be non-negative, got -3\n"

    @pytest.mark.parametrize(
        "layers, interval, samples, message",
        [
            (one_ramp(1, 0), ["0", str(BIG)], 5, "interval does not fit in a float: its ends "
             "and its length must be below 1.8e308"),
            (one_ramp(1, 0), [f"-1/{BIG}", f"1/{BIG}"], 5, "grid step 0 is not above the float "
             "spacing 4.94e-324 at 0: widen the interval or take fewer samples"),
            # the knot is at 1 + 10^-21, and every grid point rounds to 1.0
            (one_ramp(1, -Q(10**21 + 1, 10**21)), ["1", f"{10**21 + 2}/{10**21}"], 101, "grid "
             "step 2e-23 is not above the float spacing 2.22e-16 at 1: widen the interval or "
             "take fewer samples"),
            (one_ramp(BIG, 0), None, 5, "hidden layer 1 has a weight or bias too large for a float"),
            # every parameter fits in a float, but the second layer's values
            # reach 10^400 on most of the grid
            (
                [([[E200], [E200]], [0, -E200]), ([[E200, E200]], [0]), ([[1]], [0])],
                None,
                1001,
                "output 0 overflows a float on the sampling grid",
            ),
            # the constant 1, but the second hidden layer reaches inf twice
            # for x > 0, and the third gets inf - inf, a nan, from them
            (
                [([[E200]], [0]), ([[E200], [E200]], [0, 0]), ([[1, -1]], [1]), ([[1]], [0])],
                None,
                1001,
                "output 0 overflows a float on the sampling grid",
            ),
        ],
        ids=[
            "end-overflows",
            "ends-round-to-zero",
            "step-below-float-spacing",
            "huge-weight",
            "values-overflow",
            "hidden-values-cancel",
        ],
    )
    def test_input_a_float_cannot_hold_exits_2(
        self, tmp_path, capsys, layers, interval, samples, message
    ):
        path = tmp_path / "net.json"
        save_network(to_network(layers), path)
        argv = ["verify", str(path), "--samples", str(samples)]
        assert main(argv + (["--interval", *interval] if interval else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_outputs_whose_sum_overflows_are_compared(self, tmp_path, capsys):
        # relu(10^306 x) on [-1, 1]: every value fits in a float, their sum
        # over the grid does not
        path = tmp_path / "steep.json"
        save_network(to_network(one_ramp(10**306, 0)), path)
        assert main(["verify", str(path), "--samples", "1001"]) == 0
        assert capsys.readouterr().out == (
            'interval: ["-1", "1"]\n'
            "samples: 1001\n"
            "detected: 1\n"
            "exact: 1\n"
            "exact_outside_interval: 0\n"
            "grid_step: 0.002\n"
            "max_location_error: 0.0\n"
            "agree: true\n"
            "crowded: 0\n"
        )

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(low=HUGE_RATIONALS, width=HUGE_RATIONALS, samples=st.integers(3, 2000))
    def test_any_interval_ends_cleanly(self, reference_file, capsys, low, width, samples):
        # the high end is low + |width|: two ends drawn apart are out of
        # order half the time, and almost never closer than a float step
        high = low + abs(width)
        argv = ["verify", reference_file, "--samples", str(samples)]
        code = main(argv + ["--interval", format_rational(low), format_rational(high)])
        err = capsys.readouterr().err
        assert code in (0, 2, 4)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")

    def test_layer_above_knot_limit_exits_2(self, reference_file, monkeypatch, capsys):
        monkeypatch.setattr(network, "KNOT_LIMIT", 50)
        assert main(["verify", reference_file, "--samples", "1001", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: hidden layer 3 has 83 knots, above the limit of 50\n"

    def test_failed_stress_search_exits_1(self, shallow_file, monkeypatch, capsys):
        def broken(*args):
            raise RuntimeError("trial 0: 9 knots exceed the bound 8")

        monkeypatch.setattr(cli, "stress_bound", broken)
        assert main(["verify", shallow_file, "--samples", "1001", "--trials", "1"]) == 1
        assert capsys.readouterr().err == "error: trial 0: 9 knots exceed the bound 8\n"

    def test_stress_search_checks_the_bound(self, narrow_file, monkeypatch, capsys):
        import relu_knots.verify as verify_mod

        # the first (2, 2) network drawn from seed 0 has 3 knots
        monkeypatch.setattr(verify_mod, "knot_bound", lambda arch: 2)
        assert main(["verify", narrow_file, "--samples", "1001", "--trials", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bound violated: 3 > 2 for widths (2, 2) (seed 0, trial 0)\n"

    def test_oversized_sample_count_exits_2(self, reference_file):
        # refused before any grid point is computed; without a limit the run
        # would go on for hours and its value arrays would need about 1.6 TB
        argv = [sys.executable, "-m", "relu_knots.cli", "verify", reference_file]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
        run = subprocess.run(
            argv + ["--samples", "100000000000"], env=env, capture_output=True, text=True, timeout=30
        )
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr == "error: samples must be at most 10000001, got 100000000000\n"

    def test_knots_closer_than_the_limit_separates(self, tmp_path, capsys):
        # knots at 0 and 10^-8 on [-1, 1]: separating them takes 6 * 10^8
        # samples, above SAMPLE_LIMIT, so the message names no sample count
        path = tmp_path / "close.json"
        path.write_text(
            json.dumps(
                {
                    "p": 1,
                    "hidden_layers": [
                        {"weights": [["1"], ["1"]], "biases": ["0", "-1/100000000"]}
                    ],
                    "output_layer": {"weights": [["1", "1"]], "biases": ["0"]},
                }
            )
        )
        args = ["verify", str(path), "--interval", "-1", "1", "--samples", "1001"]
        assert main(args + ["--json"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert (payload["detected"], payload["exact"], payload["crowded"]) == (1, 2, 2)
        assert capsys.readouterr().err == ""
        assert main(args) == 4
        err = capsys.readouterr().err
        assert "(1e-08) is at most three grid steps (0.006)" in err
        assert err.endswith("; no sample count up to the limit of 10000001 separates them\n")

    def test_crowded_knots_reported(self, reference_file, tmp_path, capsys):
        # the reference network's knots are at least 1/42 apart: none is
        # within three grid steps (3 * 7/100000) of another
        assert main(["verify", reference_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["samples"], payload["exact"], payload["crowded"]) == (100_001, 83, 0)
        # (5,5,5,5,5) with p = 2: the exit-4 case the benchmark's README names
        path = tmp_path / "5x5x5x5x5.json"
        assert main(["build", "5", "5", "5", "5", "5", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["verify", str(path), "--json"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert (payload["detected"], payload["exact"], payload["crowded"]) == (7660, 7775, 139)
        assert payload["agree"] is False

    def test_constant_network_agrees_on_zero(self, tmp_path, capsys):
        path = tmp_path / "constant.json"
        path.write_text(
            json.dumps(
                {
                    "p": 1,
                    "hidden_layers": [{"weights": [["0"]], "biases": ["5"]}],
                    "output_layer": {"weights": [["1"]], "biases": ["2"]},
                }
            )
        )
        assert main(["verify", str(path), "--samples", "1001", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["detected"] == payload["exact"] == 0
        assert payload["exact_outside_interval"] == 0
        assert payload["agree"] is True


@st.composite
def shallow_layers(draw):
    """(weights, biases) of a hidden layer of 1-8 units and of an output
    layer of 1-3 rows. Weights are often 0, and units often share a knot
    from a pool of two. A unit may instead copy an earlier one, scaled by
    t > 0 and maybe reflected, with output weights -1/t times the
    earlier unit's: both ramps sit on one knot, and their slopes cancel in
    every output."""
    width, p = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    pool = draw(st.lists(rationals, min_size=1, max_size=2))
    w1: list[Q] = []
    b1: list[Q] = []
    w2: list[list[Q]] = [[] for _ in range(p)]
    for j in range(width):
        if j and draw(st.booleans()):
            i = draw(st.integers(0, j - 1))
            t = draw(rationals.filter(lambda q: q > 0))
            t_signed = t * draw(st.sampled_from((1, -1)))
            w1.append(t_signed * w1[i])
            b1.append(t_signed * b1[i])
            for row in w2:
                row.append(-row[i] / t)
            continue
        w = draw(coefficients)
        w1.append(w)
        b1.append(-draw(st.sampled_from(pool)) * w if draw(st.booleans()) else draw(coefficients))
        for row in w2:
            row.append(draw(coefficients))
    return [([[w] for w in w1], b1), (w2, [draw(coefficients) for _ in range(p)])]


class TestCanonicalize:
    def test_shallow_network(self, shallow_file, capsys):
        assert main(["canonicalize", shallow_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["knot_locations"] == ["0", "1"]
        assert payload["line_slope"] == ["-1"]
        assert payload["line_intercept"] == ["1"]
        assert payload["equivalence_check"] == {"matched": True}

    def test_deep_network_exits_5(self, reference_file, capsys):
        assert main(["canonicalize", reference_file]) == 5

    def test_seed_flag_is_refused(self, shallow_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["canonicalize", shallow_file, "--seed", "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "wrong",
        [
            CanonicalShallowForm(1, (0, 5000), 1, ((1, 2, 0, 0),)),
            CanonicalShallowForm(1, (0, 5001), 1, ((1, 1, 0, 0),)),
        ],
        ids=["doubled-slope", "moved-knot"],
    )
    def test_form_with_a_wrong_far_ramp_exits_4(self, wrong, tmp_path, monkeypatch, capsys):
        # relu(x) + relu(x - 5000), and forms whose second ramp has slope 2
        # or starts at 5001: each agrees with it on x <= 5000
        path = tmp_path / "far.json"
        save_network(to_network([([[1], [1]], [0, -5000]), ([[1, 1]], [0])]), path)
        monkeypatch.setattr(cli, "to_forward_facing", lambda net: wrong)
        assert main(["canonicalize", str(path)]) == 4
        captured = capsys.readouterr()
        assert json.loads(captured.out)["equivalence_check"] == {"matched": False}
        assert captured.err == "error: canonical form disagrees with the network\n"

    def test_builds_no_rational(self, tmp_path, monkeypatch, capsys):
        # the form is printed from its ints, as analyze prints its knots
        path = tmp_path / "wide.json"
        save_network(random_network(random.Random(2701), Architecture((40,), 3)), path)
        with fractions_built(monkeypatch) as built:
            assert main(["canonicalize", str(path)]) == 0
        assert built == [0]
        assert len(json.loads(capsys.readouterr().out)["knot_locations"]) > 30

    def test_extracts_once_and_never_evaluates(self, shallow_file, monkeypatch, capsys):
        calls = {"extract": 0, "evaluate": 0}

        def counting(name, function):
            def counted(*args):
                calls[name] += 1
                return function(*args)

            return counted

        monkeypatch.setattr(cli, "extract", counting("extract", cli.extract))
        for module in (cli, network):
            monkeypatch.setattr(
                module, "evaluate", counting("evaluate", evaluate), raising=False
            )
        assert main(["canonicalize", shallow_file]) == 0
        assert calls == {"extract": 1, "evaluate": 0}

    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(layers=shallow_layers(), data=st.data())
    def test_matches_and_any_changed_entry_exits_4(self, layers, data, tmp_path, capsys):
        path = tmp_path / "shallow.json"
        net = to_network(layers)
        save_network(net, path)
        assert main(["canonicalize", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["equivalence_check"] == {"matched": True}
        # one more 1/S on one ramp slope, c1 or c0 of one output changes
        # that output's function: a jump, the line's slope or its value
        form = to_forward_facing(net)
        k = data.draw(st.integers(0, len(form.scaled_rows) - 1))
        row = list(form.scaled_rows[k])
        row[data.draw(st.integers(0, len(row) - 1))] += 1
        rows = form.scaled_rows[:k] + (tuple(row),) + form.scaled_rows[k + 1 :]
        changed = dataclasses.replace(form, scaled_rows=rows)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "to_forward_facing", lambda net: changed)
            assert main(["canonicalize", str(path)]) == 4
        assert json.loads(capsys.readouterr().out)["equivalence_check"] == {"matched": False}

    def test_layer_above_knot_limit_exits_2(self, shallow_file, monkeypatch, capsys):
        # the shallow network's hidden roots are 0 and 1
        monkeypatch.setattr(network, "KNOT_LIMIT", 1)
        assert main(["canonicalize", shallow_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: hidden layer 1 has 2 knots, above the limit of 1\n"
