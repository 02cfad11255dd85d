"""Network parsing, validation and matrix views."""

import numpy as np
import pytest

from olfc.errors import ValidationError
from olfc.network import load_network, parse_network

from conftest import network_path


def quadratic_cost():
    return [{"x_min": None, "x_max": None, "a": 0.5, "b": 0.0, "c": 0.0}]


def two_bus_doc():
    return {
        "buses": [
            {"id": 0, "kind": "generator", "M": 0.2, "D": 1.0,
             "p_l_min": -1.0, "p_l_max": 1.0, "cost": quadratic_cost()},
            {"id": 1, "kind": "load", "D": 1.0,
             "p_l_min": -1.0, "p_l_max": 1.0, "cost": quadratic_cost()},
        ],
        "lines": [
            {"from": 0, "to": 1, "B": 2.0, "theta_min": -0.5, "theta_max": 0.5},
        ],
    }


def test_parse_minimal_network():
    model = parse_network(two_bus_doc())
    assert model.n == 2 and model.m == 1 and model.n_g == 1
    assert list(model.generator_index) == [0]
    assert list(model.load_index) == [1]
    assert np.allclose(model.damping, [1.0, 1.0])
    assert np.allclose(model.inertia_generators, [0.2])


def test_incidence_orientation_and_laplacian():
    model = parse_network(two_bus_doc())
    C = model.incidence
    assert C.shape == (2, 1)
    assert C[0, 0] == 1.0 and C[1, 0] == -1.0
    assert np.allclose(np.ones(2) @ C, 0.0)
    L = model.laplacian
    assert np.allclose(L, [[2.0, -2.0], [-2.0, 2.0]])
    assert np.allclose(L, L.T)
    assert np.allclose(L @ np.ones(2), 0.0)


def test_laplacian_psd_on_shipped_fixtures():
    for name in ("two_bus", "three_bus", "three_bus_congested", "nine_bus", "sixty_eight_bus"):
        model = load_network(network_path(name))
        w = np.linalg.eigvalsh(model.laplacian)
        assert w[0] == pytest.approx(0.0, abs=1e-9)
        assert np.all(w >= -1e-9)
        # exactly one zero eigenvalue: connected graph
        assert w[1] > 1e-6


def test_rejects_nonpositive_damping():
    doc = two_bus_doc()
    doc["buses"][1]["D"] = 0.0
    with pytest.raises(ValidationError, match="damping must be positive"):
        parse_network(doc)


def test_rejects_disconnected_graph():
    doc = two_bus_doc()
    doc["buses"].append({"id": 2, "kind": "load", "D": 1.0,
                         "p_l_min": -1.0, "p_l_max": 1.0, "cost": quadratic_cost()})
    with pytest.raises(ValidationError, match="graph not connected"):
        parse_network(doc)


def test_rejects_generator_without_inertia():
    doc = two_bus_doc()
    del doc["buses"][0]["M"]
    with pytest.raises(ValidationError, match="inertia"):
        parse_network(doc)


def test_rejects_load_with_inertia():
    doc = two_bus_doc()
    doc["buses"][1]["M"] = 0.1
    with pytest.raises(ValidationError, match="must not declare inertia"):
        parse_network(doc)


def test_rejects_unknown_fields():
    doc = two_bus_doc()
    doc["buses"][0]["inertia"] = 0.2
    with pytest.raises(ValidationError, match="unknown fields"):
        parse_network(doc)
    doc = two_bus_doc()
    doc["lines"][0]["rating"] = 1.0
    with pytest.raises(ValidationError, match="unknown fields"):
        parse_network(doc)
    doc = two_bus_doc()
    doc["buses"][1]["cost"][0]["d"] = 0.0
    with pytest.raises(ValidationError, match=r"buses\[1\]\.cost\[0\]: unknown fields \['d'\]"):
        parse_network(doc)
    doc = two_bus_doc()
    doc["buses"][0]["D"] = "1.0"
    with pytest.raises(ValidationError, match=r"buses\[0\]: field 'D' must be a number"):
        parse_network(doc)


def test_rejects_bad_ids_and_duplicates():
    doc = two_bus_doc()
    doc["buses"][1]["id"] = 5
    with pytest.raises(ValidationError, match="contiguous"):
        parse_network(doc)
    doc = two_bus_doc()
    doc["lines"].append({"from": 1, "to": 0, "B": 1.0, "theta_min": -0.5, "theta_max": 0.5})
    with pytest.raises(ValidationError, match="duplicate line"):
        parse_network(doc)


def test_rejects_self_loop_and_bad_bounds():
    doc = two_bus_doc()
    doc["lines"][0]["to"] = 0
    with pytest.raises(ValidationError, match="distinct buses"):
        parse_network(doc)
    doc = two_bus_doc()
    doc["lines"][0]["theta_min"] = 1.0
    with pytest.raises(ValidationError, match="angle bounds"):
        parse_network(doc)
    doc = two_bus_doc()
    doc["buses"][0]["p_l_min"] = 2.0
    with pytest.raises(ValidationError, match="load bounds"):
        parse_network(doc)


def test_json_error_reports_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"buses": [}')
    with pytest.raises(ValidationError, match=r"bad\.json:1:"):
        load_network(bad)


def test_matrix_views_are_write_protected():
    model = load_network(network_path("two_bus"))
    with pytest.raises(ValueError):
        model.incidence[0, 0] = 5.0
    with pytest.raises(ValueError):
        model.laplacian[0, 0] = 5.0
