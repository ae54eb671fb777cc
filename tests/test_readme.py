"""README keeps up with the names a config may use: every kind of phi and
of flux, every data kind, every exact reference with the data kind it
needs, and every preset."""

from pathlib import Path

import pytest

from gpme.elliptic_solver import PHI_KINDS
from gpme.evolution import FLUX_KINDS
from gpme.presets import preset_names
from gpme.profiles import EXACT, PROFILES

README = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())


@pytest.mark.parametrize("kind", PHI_KINDS)
def test_readme_names_every_phi_kind(kind):
    assert f"`{kind}`" in README


@pytest.mark.parametrize("kind", FLUX_KINDS)
def test_readme_names_every_flux_kind(kind):
    assert f"`{kind}`" in README


@pytest.mark.parametrize("kind", PROFILES)
def test_readme_names_every_data_kind(kind):
    assert f"`{kind}`" in README


@pytest.mark.parametrize("name", EXACT)
def test_readme_names_every_exact_reference_with_its_data(name):
    assert f"`{name}` needs `{EXACT[name][0]}`" in README


@pytest.mark.parametrize("name", preset_names())
def test_readme_names_every_preset(name):
    assert f"`{name}`" in README
