"""Config text parsing, key conversion, and validation hand-off."""

import pytest

from kgbreather import (
    ConfigParseError,
    InvalidParams,
    SimParams,
    parse_config,
    parse_config_text,
)


def test_empty_text_gives_defaults():
    assert parse_config_text("") == SimParams()
    assert parse_config_text("\n\n   \n") == SimParams()


def test_single_override():
    p = parse_config_text("amplitude = 0.02\n")
    assert p.amplitude == 0.02
    assert p.dt == SimParams().dt


def test_full_file_with_comments():
    text = """
# run setup
amplitude = 0.05   # initial height
dt = 0.25
t_end = 512        # shorter than usual
grid_points = 256
irk_stages = 3
laplacian_sign = as_written
dealias = none
probes = 2, 6
"""
    p = parse_config_text(text)
    assert p.amplitude == 0.05
    assert p.dt == 0.25
    assert p.t_end == 512.0
    assert p.grid_points == 256
    assert p.irk_stages == 3
    assert p.laplacian_sign == "as_written"
    assert p.dealias == "none"
    assert p.probes == (2.0, 6.0)


def test_probes_list_forms():
    assert parse_config_text("probes = 2, 6").probes == (2.0, 6.0)
    assert parse_config_text("probes = 2").probes == (2.0,)
    assert parse_config_text("probes =").probes == ()
    assert parse_config_text("probes =   ").probes == ()


def test_unknown_key_reports_line():
    with pytest.raises(ConfigParseError) as err:
        parse_config_text("dt = 0.125\nwibble = 3\n")
    assert err.value.line == 2
    assert err.value.key == "wibble"


def test_duplicate_key_rejected():
    with pytest.raises(ConfigParseError) as err:
        parse_config_text("dt = 0.125\ndt = 0.25\n")
    assert err.value.line == 2
    assert err.value.key == "dt"


def test_missing_equals_rejected():
    with pytest.raises(ConfigParseError) as err:
        parse_config_text("dt 0.125\n")
    assert err.value.line == 1


def test_bad_float_rejected():
    with pytest.raises(ConfigParseError) as err:
        parse_config_text("mu = small\n")
    assert err.value.key == "mu"


def test_bad_probes_rejected():
    with pytest.raises(ConfigParseError):
        parse_config_text("probes = 2, six\n")


def test_repeated_probes_rejected():
    with pytest.raises(InvalidParams) as err:
        parse_config_text("probes = 2, 2\n")
    assert any("distinct" in viol for viol in err.value.violations)


def test_int_keys_reject_floats():
    with pytest.raises(ConfigParseError) as err:
        parse_config_text("grid_points = 128.5\n")
    assert err.value.key == "grid_points"
    with pytest.raises(ConfigParseError):
        parse_config_text("irk_stages = 2.0\n")


def test_validation_failure_names_the_field():
    with pytest.raises(InvalidParams) as err:
        parse_config_text("dt = -1\n")
    assert any("dt" in viol for viol in err.value.violations)


def test_validation_failure_collects_every_violation():
    with pytest.raises(InvalidParams) as err:
        parse_config_text("dt = -1\nbeta = 0\nirk_stages = 9\n")
    assert len(err.value.violations) >= 3


def test_parse_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("amplitude = 0.01\nt_end = 64\n", encoding="utf-8")
    p = parse_config(path)
    assert p.amplitude == 0.01
    assert p.t_end == 64.0


def test_parse_config_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        parse_config(tmp_path / "absent.cfg")
