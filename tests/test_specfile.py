import numpy as np
import pytest
import yaml

from fluidnet import fixtures
from fluidnet.errors import ParseError
from fluidnet.specfile import network_to_dict, network_to_yaml, parse_spec_file, parse_spec_text

TANDEM_YAML = """
classes: 2
stations: 2
alpha: [1.0, 0.0]
mu: [2.0, 3.0]
routing:
  - [0.0, 1.0]
  - [0.0, 0.0]
constituency:
  - [1, 0]
  - [0, 1]
discipline: work_conserving
"""


def test_parse_network():
    parsed = parse_spec_text(TANDEM_YAML)
    spec = parsed.network
    assert spec.K == 2 and spec.J == 2
    assert spec.alpha.tolist() == [1.0, 0.0]
    assert parsed.skorokhod is None


def test_round_trip():
    for make in [fixtures.tandem, fixtures.lu_kumar, fixtures.two_class_priority]:
        spec = make()
        back = parse_spec_text(network_to_yaml(spec)).network
        assert back.discipline == spec.discipline
        assert np.allclose(back.alpha, spec.alpha)
        assert np.allclose(back.routing, spec.routing)
        assert back.priority == spec.priority


def test_unknown_top_level_key_rejected():
    with pytest.raises(ParseError, match="unknown key 'color'"):
        parse_spec_text(TANDEM_YAML + "color: blue\n")


def test_unknown_section_key_rejected():
    text = TANDEM_YAML + "simulate:\n  x0: [1, 0]\n  speed: 3\n"
    with pytest.raises(ParseError, match="unknown key 'speed'"):
        parse_spec_text(text)


def test_missing_key():
    with pytest.raises(ParseError, match="missing key"):
        parse_spec_text("classes: 1\nstations: 1\n")


def test_malformed_yaml_reports_line():
    with pytest.raises(ParseError) as err:
        parse_spec_text("classes: 1\nalpha: [1.0\n")
    assert err.value.line is not None


def test_priority_order_round_trip():
    spec = fixtures.lu_kumar()
    doc = network_to_yaml(spec)
    assert "priority_order" in doc
    back = parse_spec_text(doc).network
    assert back.priority == spec.priority


def test_priority_order_validation():
    bad = TANDEM_YAML.replace("work_conserving", "priority") + "priority_order: [0, 0]\n"
    with pytest.raises(ParseError, match="priority_order"):
        parse_spec_text(bad)


def test_priority_order_on_work_conserving_rejected():
    with pytest.raises(ParseError):
        parse_spec_text(TANDEM_YAML + "priority_order: [0, 1]\n")


def test_skorokhod_only_file():
    text = "skorokhod:\n  theta: [-1.0]\n  reflection: [[1.0]]\n  z0: [1.0]\n"
    parsed = parse_spec_text(text)
    assert parsed.network is None
    assert parsed.skorokhod.J == 1
    assert parsed.skorokhod.theta.tolist() == [-1.0]


def test_queueing_section():
    text = TANDEM_YAML + "queueing:\n  interarrival: exponential\n  service: deterministic\n"
    parsed = parse_spec_text(text)
    assert parsed.queueing.service == ("deterministic", "deterministic")
    assert parsed.queueing.interarrival == ("exponential", "none")


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("alpha: [1.0, 0.0]", "alpha: [.nan, 0.0]", "alpha"),
        ("alpha: [1.0, 0.0]", "alpha: [.inf, 0.0]", "alpha"),
        ("mu: [2.0, 3.0]", "mu: [2.0, .inf]", "mu"),
        ("  - [0.0, 1.0]", "  - [0.0, -.inf]", "routing"),
        ("classes: 2", "classes: .inf", "classes"),
        ("stations: 2", "stations: .nan", "stations"),
        ("alpha: [1.0, 0.0]", "alpha: [fast, 0.0]", "alpha"),
    ],
)
def test_non_finite_or_text_network_value_names_key(old, new, key):
    with pytest.raises(ParseError, match=f"key '{key}'"):
        parse_spec_text(TANDEM_YAML.replace(old, new))


@pytest.mark.parametrize(
    "key, value",
    [
        ("priority_order", ["a", 0, 1, 2]),
        ("priority_order", [3.9, 0, 1, 2]),
        ("priority_order", [3, 0, 1, True]),
        ("priority_order", "3012"),
        ("classes", 4.7),
        ("classes", "four"),
        ("stations", 2.5),
        ("stations", [2]),
    ],
)
def test_non_integral_network_count_names_key(key, value):
    doc = network_to_dict(fixtures.lu_kumar())
    doc[key] = value
    with pytest.raises(ParseError, match=f"key '{key}'.*must be"):
        parse_spec_text(yaml.safe_dump(doc))


def test_integral_float_counts_accepted():
    doc = network_to_dict(fixtures.lu_kumar())
    doc["classes"] = 4.0
    doc["priority_order"] = [3.0, 0, 1, 2]
    assert parse_spec_text(yaml.safe_dump(doc)).network.priority == fixtures.lu_kumar().priority


@pytest.mark.parametrize(
    "section, key",
    [
        ("simulate:\n  x0: [.nan, 0.0]\n", "x0"),
        ("fluidlimit:\n  scales: [10.0, .inf]\n", "scales"),
        ("skorokhod:\n  theta: [-1.0]\n  reflection: [[1.0]]\n  z0: [.nan]\n", "z0"),
    ],
)
def test_non_finite_section_value_names_key(section, key):
    with pytest.raises(ParseError, match=f"key '{key}'"):
        parse_spec_text(TANDEM_YAML + section)


@pytest.mark.parametrize(
    "section, key",
    [
        ("simulate:\n  x0: []\n", "x0"),
        ("fluidlimit:\n  scales: []\n", "scales"),
        ("fluidlimit:\n  direction: []\n", "direction"),
    ],
)
def test_empty_section_list_rejected(section, key):
    with pytest.raises(ParseError, match=f"key '{key}'.*nonempty"):
        parse_spec_text(TANDEM_YAML + section)


@pytest.mark.parametrize("value", ["[1.0, 2.0]", "[]", "[1.0]"])
def test_push_bound_not_a_number_rejected(value):
    section = f"skorokhod:\n  theta: [-1.0]\n  reflection: [[1.0]]\n  z0: [1.0]\n  push_bound: {value}\n"
    with pytest.raises(ParseError, match="key 'push_bound'.*must be a number"):
        parse_spec_text(TANDEM_YAML + section)


def test_push_bound_number_accepted():
    section = "skorokhod:\n  theta: [-1.0]\n  reflection: [[1.0]]\n  z0: [1.0]\n  push_bound: 2\n"
    assert parse_spec_text(TANDEM_YAML + section).skorokhod.push_bound == 2.0


def test_absent_section_keys_left_out():
    parsed = parse_spec_text(TANDEM_YAML + "simulate: {}\nfluidlimit:\n  scales: [10]\n")
    assert parsed.simulate == {"selector": "max_drain"}
    assert parsed.fluidlimit == {"scales": [10.0]}


def test_parse_file(tmp_path):
    path = tmp_path / "net.yaml"
    path.write_text(TANDEM_YAML)
    assert parse_spec_file(path).network.K == 2
    with pytest.raises(ParseError, match="cannot read"):
        parse_spec_file(tmp_path / "missing.yaml")
