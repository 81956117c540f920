"""Exact spline extraction and knot-count bounds for scalar-input ReLU networks."""

from .bounds import (
    Architecture,
    approx_bound,
    bound_prefixes,
    knot_bound,
    param_count,
    recurrence_step,
    tightness_eligibility,
)
from .canonical import CanonicalShallowForm, eval_canonical, to_forward_facing
from .construct import (
    SawtoothWitness,
    build_final_layer,
    build_first_layer_sawtooth,
    build_inductive_layer,
    build_tight_network,
    example_tight_network,
)
from .jsonio import SchemaError, load_network, network_from_dict, network_to_dict, save_network
from .network import (
    DenseLayer,
    ExtractionTrace,
    ScalarInputNetwork,
    evaluate,
    extract,
)
from .rational import Rational, as_rational, format_rational, parse_rational
from .spline import LinearSpline
from .verify import (
    AgreementReport,
    SamplingConfig,
    SawtoothVerdict,
    StressReport,
    check_sawtooth,
    detect_knots_by_sampling,
    oracle_agreement,
    random_network,
    stress_bound,
)

__version__ = "0.1.0"

__all__ = [
    "Architecture",
    "AgreementReport",
    "CanonicalShallowForm",
    "DenseLayer",
    "ExtractionTrace",
    "LinearSpline",
    "Rational",
    "SamplingConfig",
    "SawtoothVerdict",
    "SawtoothWitness",
    "ScalarInputNetwork",
    "SchemaError",
    "StressReport",
    "approx_bound",
    "as_rational",
    "bound_prefixes",
    "build_final_layer",
    "build_first_layer_sawtooth",
    "build_inductive_layer",
    "build_tight_network",
    "check_sawtooth",
    "detect_knots_by_sampling",
    "eval_canonical",
    "evaluate",
    "example_tight_network",
    "extract",
    "format_rational",
    "knot_bound",
    "load_network",
    "network_from_dict",
    "network_to_dict",
    "oracle_agreement",
    "param_count",
    "parse_rational",
    "random_network",
    "recurrence_step",
    "save_network",
    "stress_bound",
    "tightness_eligibility",
    "to_forward_facing",
]
