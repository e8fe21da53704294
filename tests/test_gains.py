import json
import re

import numpy as np
import pytest

from anclab import (
    GainAssignment,
    SimConfig,
    check_feasible,
    downstream_gains,
    gains_from_dict,
    gains_to_dict,
    propagate_coefficients,
    simulate,
)
from anclab.oracle import path_coefficient
from anclab.presets import asymmetric_three_layer, diamond_network
from conftest import random_box_gains, random_network


def test_round_trip_exact():
    rng = np.random.default_rng(9)
    for _ in range(20):
        net = random_network(rng)
        gains = random_box_gains(rng, net, signed=True)
        data = json.loads(json.dumps(gains_to_dict(net, gains)))
        back = gains_from_dict(net, data)
        for got, want in zip(back.layers, gains.layers, strict=True):
            assert np.array_equal(got, want)


def test_source_gain_fixed_at_one():
    net = asymmetric_three_layer()
    gains = GainAssignment.from_layers([[0.1, 0.2], [0.3, 0.4]])
    assert list(propagate_coefficients(net, gains).betas[0]) == [1.0]
    extra = GainAssignment.from_layers([[0.1, 0.2], [0.3, 0.4], [0.5]])
    with pytest.raises(ValueError, match="^gain assignment has 3 relay layers, network has 2$"):
        extra.betas(net)


READERS = {
    "propagate_coefficients": propagate_coefficients,
    "path_coefficient": lambda net, g: path_coefficient(net, g, net.source, net.destination),
    "check_feasible": check_feasible,
    "simulate": lambda net, g: simulate(net, g, SimConfig(samples=2)),
    "gains_to_dict": gains_to_dict,
    "downstream_gains": lambda net, g: downstream_gains(net, g, 1),
}


@pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
@pytest.mark.parametrize(
    "layers, message",
    [
        ([[0.1, 0.2]], "gain assignment has 1 relay layers, network has 2"),
        ([[0.1, 0.2], [0.3, 0.4], [0.5]], "gain assignment has 3 relay layers, network has 2"),
        ([[0.1], [0.3, 0.4]], "gain assignment layer 1 has 1 entries, network expects 2"),
    ],
    ids=["one-layer-too-few", "one-layer-too-many", "short-layer"],
)
def test_mismatched_assignment_is_one_error(reader, layers, message):
    net = asymmetric_three_layer()  # two relay layers of two relays
    with pytest.raises(ValueError, match=f"^{message}$"):
        reader(net, GainAssignment.from_layers(layers))


def test_incomplete_assignment_rejected():
    net = asymmetric_three_layer()
    with pytest.raises(ValueError, match="every relay"):
        gains_from_dict(net, {"beta": {"1:0": 0.5}})


@pytest.mark.parametrize(
    "data, message",
    [
        ({"beta": {"1:1": 0.5, "1:-1": 0.25}}, "'1:-1' names no relay node"),
        ({"beta": {"1:0": 0.5, "1:7": 0.25}}, "'1:7' names no relay node"),
        ({"beta": {"0:0": 0.5, "1:0": 0.5, "1:1": 0.25}}, "'0:0' names no relay node"),
        ({"beta": {"2:0": 0.5, "1:0": 0.5, "1:1": 0.25}}, "'2:0' names no relay node"),
        ({"beta": {"1:0": 0.5, "01:0": 0.25, "1:1": 0.25}}, "'01:0' names relay 1:0 a second time"),
        ({"beta": {"1:0": 0.5, "1": 0.25}}, "'1' is not of the form layer:index"),
        ({"beta": [0.5, 0.25]}, '"beta" must map'),
        ([0.5, 0.25], "must be a JSON object"),
        ({"beta": {"1:0": "0.5", "1:1": 0.25}}, "gain '1:0': '0.5' is not a number"),
        ({"beta": {"1:0": True, "1:1": 0.25}}, "gain '1:0': True is not a number"),
    ],
)
def test_bad_gain_data_rejected(data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        gains_from_dict(diamond_network(), data)


def test_non_finite_gain_rejected():
    with pytest.raises(ValueError, match="finite"):
        GainAssignment.from_layers([[np.nan]])


def test_unknown_field_rejected():
    net = asymmetric_three_layer()
    with pytest.raises(ValueError, match="unknown"):
        gains_from_dict(net, {"beta": {}, "color": "red"})


def test_optimizer_report_fields_accepted():
    net = asymmetric_three_layer()
    gains = GainAssignment.from_layers([[0.1, 0.2], [0.3, 0.4]])
    data = gains_to_dict(net, gains)
    data["snr"] = 1.0
    data["rate"] = 0.5
    back = gains_from_dict(net, data)
    assert back.layers[1][1] == 0.4
