"""Config text parsing, key conversion, and validation hand-off."""

import dataclasses
import pathlib

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
probes = 2, 6
"""
    p = parse_config_text(text)
    assert p.amplitude == 0.05
    assert p.dt == 0.25
    assert p.t_end == 512.0
    assert p.grid_points == 256
    assert p.irk_stages == 3
    assert p.laplacian_sign == "as_written"
    assert p.probes == (2.0, 6.0)


def test_probes_list_forms():
    assert parse_config_text("probes = 2, 6").probes == (2.0, 6.0)
    assert parse_config_text("probes = 2").probes == (2.0,)
    assert parse_config_text("probes =").probes == ()
    assert parse_config_text("probes =   ").probes == ()


def test_retired_dealias_key_is_an_unknown_key():
    # the cube is always the padded one; a config that still sets dealias fails loudly
    with pytest.raises(ConfigParseError) as err:
        parse_config_text("dealias = pad2x")
    assert err.value.key == "dealias"
    assert err.value.line == 1


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


def test_domain_length_half_a_sine_period_off_is_invalid():
    # L/8 = 1e13 + 0.5: the profile is not periodic, so the config fails before a run starts
    with pytest.raises(InvalidParams) as err:
        parse_config_text("domain_length = 80000000000004.0\nprobes =\n")
    assert err.value.violations == [
        "domain_length must be a multiple of 8 for the sine profile, got 80000000000004.0"
    ]


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


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_config_rows():
    """(key, default) of each row of the README's config table."""
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index("| key | default | meaning |") + 2 :]:
        if not line.startswith("|"):
            break
        key, default = (cell.strip() for cell in line.strip("|").split("|")[:2])
        rows.append((key, default))
    return rows


def test_readme_config_table_gives_every_key_its_default():
    # the table is the only user-facing list of the options
    rows = readme_config_rows()
    keys = [key for key, _ in rows]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(SimParams))
    assert len(keys) == 14
    for key, default in rows:
        parsed = parse_config_text(f"{key} = {default}")
        assert getattr(parsed, key) == getattr(SimParams(), key), key
