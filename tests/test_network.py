import json
import re

import numpy as np
import pytest

from anclab import (
    NetworkValidationError,
    NodeId,
    build_network,
    network_from_dict,
    network_to_dict,
)
from conftest import random_network


def test_minimal_diamond_builds():
    net = build_network([1, 2, 1], [[[1.0], [1.0]], [[1.0, 1.0]]], [1.0, 1.0], 1.0)
    assert net.num_layers == 2
    assert net.source == NodeId(0, 0)
    assert net.destination == NodeId(2, 0)
    assert list(net.relays()) == [NodeId(1, 0), NodeId(1, 1)]
    assert net.relay_budgets[0][1] == 1.0
    assert net.source_power == 1.0


def test_three_layer_shape_builds():
    net = build_network(
        [1, 2, 2, 1],
        [[[1.0], [1.0]], [[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0]]],
        [1.0] * 4,
        1.0,
    )
    assert net.layer_sizes == (1, 2, 2, 1)
    assert net.gain_matrices[1].shape == (2, 2)


def test_unreachable_relay_rejected():
    with pytest.raises(NetworkValidationError, match="unreachable"):
        build_network([1, 2, 1], [[[1.0], [0.0]], [[1.0, 1.0]]], [1.0, 1.0], 1.0)
    # the first offending node is named
    message = "^node 1:1 is unreachable: all incoming gains are zero$"
    with pytest.raises(NetworkValidationError, match=message):
        build_network([1, 3, 1], [[[1.0], [0.0], [0.0]], [[1.0, 1.0, 1.0]]], [1.0] * 3, 1.0)


def test_silent_relay_rejected():
    with pytest.raises(NetworkValidationError, match="silent"):
        build_network([1, 2, 1], [[[1.0], [1.0]], [[1.0, 0.0]]], [1.0, 1.0], 1.0)
    message = "^node 1:1 is silent: all outgoing gains are zero$"
    with pytest.raises(NetworkValidationError, match=message):
        build_network([1, 3, 1], [[[1.0], [1.0], [1.0]], [[1.0, 0.0, 0.0]]], [1.0] * 3, 1.0)


def test_shape_mismatch_rejected():
    with pytest.raises(NetworkValidationError, match="shape"):
        build_network([1, 2, 1], [[[1.0]], [[1.0, 1.0]]], [1.0, 1.0], 1.0)


@pytest.mark.parametrize("middle", [2.7, float("nan"), float("inf"), "2"])
def test_non_integer_layer_size_rejected(middle):
    # int() would silently turn 2.7 into 2; the sizes must be integers as given
    with pytest.raises(NetworkValidationError, match="integers"):
        build_network([1, middle, 1], [[[1.0], [1.0]], [[1.0, 1.0]]], [1.0, 1.0], 1.0)
    assert build_network([1, 2.0, 1], [[[1.0], [1.0]], [[1.0, 1.0]]], [1.0, 1.0], 1.0)


def test_nonpositive_power_rejected():
    with pytest.raises(NetworkValidationError, match="positive"):
        build_network([1, 2, 1], [[[1.0], [1.0]], [[1.0, 1.0]]], [1.0, 0.0], 1.0)
    with pytest.raises(NetworkValidationError, match="source power"):
        build_network([1, 2, 1], [[[1.0], [1.0]], [[1.0, 1.0]]], [1.0, 1.0], -2.0)


def test_wide_endpoint_layers_rejected():
    with pytest.raises(NetworkValidationError, match="exactly one node"):
        build_network([2, 2, 1], [np.ones((2, 2)), np.ones((1, 2))], [1.0, 1.0], 1.0)


def test_non_finite_gain_rejected():
    with pytest.raises(NetworkValidationError, match="finite"):
        build_network([1, 2, 1], [[[np.inf], [1.0]], [[1.0, 1.0]]], [1.0, 1.0], 1.0)


def test_neighbors_always_previous_layer():
    # a node's in-neighbors are the nonzero entries of its row of the hop
    # matrix into its layer, whose columns are the previous layer's nodes
    rng = np.random.default_rng(11)
    for _ in range(25):
        net = random_network(rng)
        for k in net.nodes():
            if k.layer == 0:
                continue
            h = net.gain_matrices[k.layer - 1]
            assert h.shape[1] == net.layer_sizes[k.layer - 1]
            assert np.flatnonzero(h[k.index]).size > 0


def test_json_round_trip_is_bit_exact():
    rng = np.random.default_rng(5)
    for _ in range(20):
        net = random_network(rng)
        data = json.loads(json.dumps(network_to_dict(net)))
        back = network_from_dict(data)
        assert back.layer_sizes == net.layer_sizes
        assert back.source_power == net.source_power
        for a, b in zip(back.gain_matrices, net.gain_matrices):
            assert np.array_equal(a, b)
        for a, b in zip(back.relay_budgets, net.relay_budgets):
            assert np.array_equal(a, b)


def test_unknown_json_field_rejected():
    net = build_network([1, 2, 1], [[[1.0], [1.0]], [[1.0, 1.0]]], [1.0, 1.0], 1.0)
    data = network_to_dict(net)
    data["noise_floor"] = 2.0
    with pytest.raises(NetworkValidationError, match="unknown"):
        network_from_dict(data)


def test_missing_json_field_rejected():
    net = build_network([1, 2, 1], [[[1.0], [1.0]], [[1.0, 1.0]]], [1.0, 1.0], 1.0)
    data = network_to_dict(net)
    del data["source_power"]
    with pytest.raises(NetworkValidationError, match="missing"):
        network_from_dict(data)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("power_budgets", ["2.0", 1.0], "power_budgets: '2.0' is not a number"),
        ("power_budgets", 2.0, "power_budgets: 2.0 is not a list"),
        ("source_power", True, "source_power: True is not a number"),
        ("source_power", "100", "source_power: '100' is not a number"),
        ("source_power", [100.0], "source_power: [100.0] is not a number"),
        ("source_power", None, "source_power: None is not a number"),
        ("layer_sizes", [True, 2, 1], "layer_sizes: True is not a number"),
        ("gain_matrices", [[["1.0"], [1.0]], [[1.0, 1.0]]], "gain_matrices: '1.0' is not a number"),
        ("gain_matrices", [[[1.0], [None]], [[1.0, 1.0]]], "gain_matrices: None is not a number"),
        ("gain_matrices", [[1.0, 1.0], [[1.0, 1.0]]], "gain_matrices: 1.0 is not a list"),
    ],
)
def test_json_field_of_wrong_type_rejected(field, value, message):
    net = build_network([1, 2, 1], [[[1.0], [1.0]], [[1.0, 1.0]]], [1.0, 1.0], 1.0)
    data = {**network_to_dict(net), field: value}
    with pytest.raises(NetworkValidationError, match=f"^{re.escape(message)}$"):
        network_from_dict(data)
