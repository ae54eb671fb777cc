"""Config blocks read from the spec dataclasses: a normalized config is a
fixed point of load_config, and absent keys take the specs' defaults.  The
rejections, each naming its dotted field, are in test_cli's REJECTED."""

import copy

import pytest

from gpme.config import build_plan, load_config, merge_config
from gpme.errors import ConfigurationError
from gpme.presets import PRESETS, preset_names

TINY = {"preset": "heat_gaussian_1d", "problem": {"h": 0.5, "T": 0.1}}

# overrides of TINY that between them use every spec block
EVERY_BLOCK = {
    "table_phi_table_flux_split_measure": {"problem": {
        "phi": {"kind": "table", "table_u": [-1.0, 0.0, 1.0, 2.0],
                "table_phi": [-1.0, 0.0, 1.0, 3.0]},
        "flux": {"kind": "table", "u_range": [0.0, 1.0], "table_u": [0.0, 1.0],
                 "table_f": [0.0, 0.5], "numerical": "lax_friedrichs"},
        "operator": {"c": 0, "support_radius": 2.0, "measure": {
            "kind": "split", "alpha": 1.5, "beta": 0.5, "scale": 0.5,
            "truncation": 3.0, "weight_rule": "midpoint_density"}},
        "source": {"spatial": {"kind": "gaussian", "amplitude": 1.0, "spread": 0.5},
                   "temporal": {"kind": "linear", "slope": 2.0}},
        "exact": None,
    }, "solver": {"residual_tol": 1e-12}},
    "linear_flux_plane_custom_measure": {"problem": {
        "dim": 2, "phi": {"kind": "power", "exponent": 2.0},
        "flux": {"kind": "linear", "u_range": [0.0, 1.0], "velocity": [1.0, -0.5]},
        "operator": {"c": 1, "measure": {
            "kind": "custom", "form": "inverse_power", "exponent": 3.0}},
        "initial": {"kind": "gaussian", "amplitude": 1.0, "spread": 0.25},
        "dt": {"policy": "linear", "factor": 0.1}, "exact": None,
    }},
    "stefan_pole_measure": {"problem": {
        "phi": {"kind": "stefan", "latent": 0.5},
        "operator": {"c": 1, "measure": {"kind": "custom", "form": "pole",
                                         "location": 0.3, "alpha": 1.0}},
        "exact": None,
    }},
    # the data blocks: each temporal kind and none, and the plane's Gaussian
    # with and without its center
    "constant_source_without_temporal": {"problem": {
        "source": {"spatial": {"kind": "constant", "value": 0.5}}, "exact": None}},
    "indicator_source_constant_in_time": {"problem": {
        "source": {"spatial": {"kind": "indicator", "lo": -1.0, "hi": 1.0},
                   "temporal": {"kind": "constant", "value": 2.0}}, "exact": None}},
    "constant_source_linear_in_time": {"problem": {
        "source": {"spatial": {"kind": "constant", "value": 0.5},
                   "temporal": {"kind": "linear", "slope": 0.5}}, "exact": None}},
    "gaussian_plane_with_center": {"problem": {
        "dim": 2, "initial": {"center": [0.5, -0.25]}}},
    "gaussian_plane_without_center": {"problem": {"dim": 2}},
}


def _standalone(cfg):
    return {k: v for k, v in cfg.items() if k != "preset"}


@pytest.mark.parametrize("name", preset_names())
def test_preset_config_is_a_fixed_point(name):
    cfg = _standalone(load_config(name))
    assert load_config(cfg) == cfg


def _key_paths(block, prefix=()):
    for key, value in block.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _key_paths(value, (*prefix, key))


@pytest.mark.parametrize("name", preset_names())
def test_every_preset_key_is_a_choice(name):
    # a preset names only what its experiment chooses: without any one of
    # its keys, at any depth, the config loads differently or not at all
    preset = PRESETS[name]
    full = load_config(preset)
    defaults = []
    for path in _key_paths(preset):
        cfg = copy.deepcopy(preset)
        block = cfg
        for key in path[:-1]:
            block = block[key]
        del block[path[-1]]
        try:
            if load_config(cfg) == full:
                defaults.append(".".join(path))
        except ConfigurationError:
            pass
    assert defaults == []


@pytest.mark.parametrize("override", EVERY_BLOCK.values(), ids=EVERY_BLOCK.keys())
def test_every_spec_block_is_a_fixed_point(override):
    cfg = _standalone(load_config(merge_config(TINY, override)))
    assert load_config(cfg) == cfg
    # and the specs accept what the schema let through
    build_plan(cfg)


def test_absent_keys_take_the_spec_defaults():
    cfg = load_config({"problem": {
        "operator": {"measure": {"kind": "fractional", "alpha": 1.0}},
        "phi": {"kind": "linear"}, "flux": {"kind": "burgers", "u_range": [0, 1]},
        "initial": {"kind": "constant", "value": 0.5},
        "box_half_extent": 1.0, "h": 0.5, "T": 0.1,
        "dt": {"policy": "linear", "factor": 0.5}}})
    p = cfg["problem"]
    assert p["operator"]["c"] == 1 and p["operator"]["support_radius"] is None
    assert p["operator"]["measure"]["scale"] == 1.0
    assert p["operator"]["measure"]["weight_rule"] == "cell_mass"
    assert p["phi"]["slope"] == 1.0 and p["phi"]["table_u"] is None
    assert p["flux"]["numerical"] == "engquist_osher"
    assert p["flux"]["u_range"] == [0.0, 1.0]
    assert cfg["solver"] == {"residual_tol": 1e-13}


def test_absent_data_keys_take_their_defaults():
    plane = load_config(merge_config(TINY, EVERY_BLOCK["gaussian_plane_without_center"]))
    assert plane["problem"]["initial"]["center"] == [0.0, 0.0]
    source = load_config(merge_config(TINY, EVERY_BLOCK["constant_source_without_temporal"]))
    assert source["problem"]["source"]["temporal"] == {"kind": "constant", "value": 1.0,
                                                       "slope": 1.0}
    step = load_config({"preset": "burgers_riemann_1d", "problem": {
        "initial": {"position": None}}})
    assert step["problem"]["initial"]["position"] == 0.0
