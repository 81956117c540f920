from __future__ import annotations

import json
from fractions import Fraction as Q

import pytest

from relu_knots import (
    SchemaError,
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)
from relu_knots.cli import main
from relu_knots.construct import example_tight_network


def minimal_doc() -> dict:
    return {
        "p": 1,
        "hidden_layers": [{"weights": [["1"], ["-1/2"]], "biases": ["0", "3"]}],
        "output_layer": {"weights": [["2", "1/3"]], "biases": ["-1"]},
    }


DELETE = object()  # a case's value that removes its key


class TestRoundTrip:
    def test_reference_network(self, tmp_path):
        net = example_tight_network()
        path = tmp_path / "net.json"
        save_network(net, path)
        assert load_network(path) == net

    def test_serialized_rationals_are_reduced_strings(self):
        doc = network_to_dict(example_tight_network())
        assert doc["p"] == 2
        assert doc["hidden_layers"][1]["biases"][0] == "-29/7"
        assert doc["output_layer"]["weights"][0] == ["1", "-1"]

    def test_plain_integers_accepted(self):
        doc = minimal_doc()
        doc["hidden_layers"][0]["weights"] = [[1], [-2]]
        net = network_from_dict(doc)
        assert net.hidden_layers[0].weights[1][0] == Q(-2)

    def test_signed_padded_and_unreduced_strings_accepted(self):
        doc = minimal_doc()
        doc["hidden_layers"][0]["biases"] = ["+1", " 2/4 "]
        doc["output_layer"]["biases"] = ["-007/14"]
        net = network_from_dict(doc)
        assert net.hidden_layers[0].biases == (Q(1), Q(1, 2))
        assert net.output_layer.biases == (Q(-1, 2),)


class TestSchemaErrors:
    def test_float_rejected_with_path(self):
        doc = minimal_doc()
        doc["hidden_layers"][0]["weights"][1][0] = 0.5
        with pytest.raises(SchemaError, match=r"hidden_layers\[0\].weights\[1\]\[0\]"):
            network_from_dict(doc)

    def test_bad_rational_string(self):
        # only what format_rational writes: no decimals, underscores or exponents
        for text in ("one", "1e3", "0.5", "1_000"):
            doc = minimal_doc()
            doc["output_layer"]["biases"][0] = text
            with pytest.raises(SchemaError, match=r"output_layer.biases\[0\]"):
                network_from_dict(doc)

    def test_zero_denominator(self):
        doc = minimal_doc()
        doc["output_layer"]["biases"][0] = "1/0"
        with pytest.raises(SchemaError, match=r"output_layer.biases\[0\]"):
            network_from_dict(doc)

    def test_missing_key(self):
        doc = minimal_doc()
        del doc["hidden_layers"][0]["biases"]
        with pytest.raises(SchemaError, match=r"hidden_layers\[0\]: missing key 'biases'"):
            network_from_dict(doc)

    def test_unknown_key(self):
        doc = minimal_doc()
        doc["output_layer"]["activation"] = "relu"
        with pytest.raises(SchemaError, match="unknown keys"):
            network_from_dict(doc)

    def test_ragged_rows(self):
        doc = minimal_doc()
        doc["hidden_layers"][0]["weights"] = [["1"], ["1", "2"]]
        with pytest.raises(SchemaError, match=r"hidden_layers\[0\]"):
            network_from_dict(doc)

    def test_p_mismatch(self):
        doc = minimal_doc()
        doc["p"] = 3
        with pytest.raises(SchemaError, match="p"):
            network_from_dict(doc)

    def test_width_chain_violation_reported(self):
        doc = minimal_doc()
        doc["output_layer"]["weights"] = [["1"]]  # expects 2 inputs
        with pytest.raises(SchemaError):
            network_from_dict(doc)

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_network(path)

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"\x89PNG\r\n", "$: not UTF-8 text ('utf-8' codec can't decode byte 0x89"),
            (b'{"p": ' + b"7" * 5000 + b"}", "$: an integer has more than 4300 digits"),
        ],
        ids=["not-utf-8", "integer-past-the-digit-limit"],
    )
    def test_unreadable_document_names_the_file(self, content, message, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_bytes(content)
        with pytest.raises(SchemaError) as exc:
            load_network(path)
        assert str(exc.value).startswith(message)
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {exc.value}\n"

    def test_long_rational_is_quoted_short(self):
        doc = minimal_doc()
        doc["output_layer"]["biases"][0] = "9" * 5000
        with pytest.raises(SchemaError) as exc:
            network_from_dict(doc)
        assert str(exc.value) == (
            f"output_layer.biases[0]: invalid rational {'9' * 40!r}... (5000 characters)"
        )

    def test_top_level_not_object(self):
        with pytest.raises(SchemaError, match=r"\$"):
            network_from_dict([1, 2, 3])

    @pytest.mark.parametrize(
        "keys, value, path",
        [
            (("hidden_layers", 0, "weights", 0, 0), True, "hidden_layers[0].weights[0][0]"),
            (("output_layer", "biases", 0), None, "output_layer.biases[0]"),
            (("hidden_layers", 0, "weights"), "1", "hidden_layers[0].weights"),
            (("hidden_layers", 0), [], "hidden_layers[0]"),
            (("output_layer", "weights"), DELETE, "output_layer"),
            (("p",), DELETE, "$"),
            (("hidden_layers",), [], "hidden_layers"),
            (("p",), 0, "p"),
            (("p",), True, "p"),
        ],
        ids=[
            "true-entry",
            "null-entry",
            "weights-not-an-array",
            "layer-not-an-object",
            "missing-weights",
            "missing-top-level-key",
            "empty-hidden-layers",
            "p-zero",
            "p-true",
        ],
    )
    def test_error_starts_with_its_path(self, keys, value, path, tmp_path, capsys):
        doc = minimal_doc()
        *parents, last = keys
        target = doc
        for key in parents:
            target = target[key]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
        with pytest.raises(SchemaError) as exc:
            network_from_dict(doc)
        assert str(exc.value).startswith(f"{path}: ")
        # analyze exits 2 with the message on one error line
        file = tmp_path / "net.json"
        file.write_text(json.dumps(doc))
        assert main(["analyze", str(file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {file}: {exc.value}\n"

    def test_round_trip_through_text(self, tmp_path):
        net = example_tight_network()
        text = json.dumps(network_to_dict(net))
        assert network_from_dict(json.loads(text)) == net
