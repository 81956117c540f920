"""Network JSON schema: loading with path-precise errors, and dumping.

Schema::

    {
      "p": 2,
      "hidden_layers": [
        {"weights": [["1", "-1/2"], ...], "biases": ["0", "3/4", ...]},
        ...
      ],
      "output_layer": {"weights": [...], "biases": [...]}
    }

Rationals are reduced ``"num/den"`` strings; plain integers (as strings or
JSON numbers) are accepted on input. JSON floats are rejected because they
do not denote exact values, and so are ``NaN`` and ``Infinity``, which are
not JSON.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from .network import DenseLayer, ScalarInputNetwork
from .rational import digit_limit_error, format_ratio, parse_ratio


class SchemaError(ValueError):
    """A network document violates the schema; the message carries the JSON path."""


# NaN, Infinity and -Infinity are not JSON: read as text, no rational parses
# them. One decoder, where json.loads with parse_constant builds one per call.
_DECODER = json.JSONDecoder(parse_constant=str)


def _fail(path: str, message: str) -> SchemaError:
    return SchemaError(f"{path}: {message}")


def _ratio_at(value: Any, path: str) -> tuple[int, int]:
    """The rational at ``path`` as the ints (num, den), den >= 1, not reduced."""
    if isinstance(value, bool):
        raise _fail(path, f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, float):
        if not math.isfinite(value):  # a JSON number such as 1e400
            raise _fail(path, "not finite: write a number this large as a 'num/den' string")
        raise _fail(path, f"floats are not exact; write {value!r} as a 'num/den' string")
    if isinstance(value, str):
        try:
            return parse_ratio(value)
        except ValueError as exc:
            raise _fail(path, str(exc)) from exc
    raise _fail(path, f"expected a rational string, got {type(value).__name__}")


def _list_at(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise _fail(path, f"expected an array, got {type(value).__name__}")
    return value


def _ratios_at(value: Any, path: str) -> list[tuple[int, int]]:
    return [_ratio_at(entry, f"{path}[{i}]") for i, entry in enumerate(_list_at(value, path))]


def _layer_at(value: Any, path: str) -> DenseLayer:
    if not isinstance(value, dict):
        raise _fail(path, f"expected an object, got {type(value).__name__}")
    unknown = set(value) - {"weights", "biases"}
    if unknown:
        raise _fail(path, f"unknown keys {sorted(unknown)}")
    if "weights" not in value:
        raise _fail(path, "missing key 'weights'")
    if "biases" not in value:
        raise _fail(path, "missing key 'biases'")
    rows = _list_at(value["weights"], f"{path}.weights")
    weights = [_ratios_at(row, f"{path}.weights[{i}]") for i, row in enumerate(rows)]
    biases = _ratios_at(value["biases"], f"{path}.biases")
    try:
        return DenseLayer.from_ratios(weights, biases)
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc


def network_from_dict(data: Any) -> ScalarInputNetwork:
    if not isinstance(data, dict):
        raise _fail("$", f"expected an object, got {type(data).__name__}")
    for key in ("p", "hidden_layers", "output_layer"):
        if key not in data:
            raise _fail("$", f"missing key {key!r}")
    layers_raw = _list_at(data["hidden_layers"], "hidden_layers")
    if not layers_raw:
        raise _fail("hidden_layers", "needs at least one layer")
    hidden = tuple(
        _layer_at(layer, f"hidden_layers[{i}]") for i, layer in enumerate(layers_raw)
    )
    output = _layer_at(data["output_layer"], "output_layer")
    p = data["p"]
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise _fail("p", f"expected a positive integer, got {p!r}")
    if p != output.size:
        raise _fail("p", f"declared p = {p} but output_layer has {output.size} rows")
    try:
        return ScalarInputNetwork(hidden, output)
    except ValueError as exc:
        raise _fail("$", str(exc)) from exc


def network_to_dict(net: ScalarInputNetwork) -> dict:
    def layer_dict(layer: DenseLayer) -> dict:
        lcd = layer.lcd  # format_ratio reduces each (L*w, L) to w's string
        return {
            "weights": [[format_ratio(w, lcd) for w in row] for row in layer.scaled_weights],
            "biases": [format_ratio(b, lcd) for b in layer.scaled_biases],
        }

    return {
        "p": net.output_dim,
        "hidden_layers": [layer_dict(layer) for layer in net.hidden_layers],
        "output_layer": layer_dict(net.output_layer),
    }


def load_network(path: str | Path) -> ScalarInputNetwork:
    try:
        data = _DECODER.decode(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"$: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"$: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise SchemaError("$: nested too deeply to parse") from exc
    except ValueError as exc:  # an int past Python's digit limit
        raise SchemaError(f"$: {digit_limit_error()}") from exc
    return network_from_dict(data)


def save_network(net: ScalarInputNetwork, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net), indent=2) + "\n")
