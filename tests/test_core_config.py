"""Unit tests for EMTSConfig and the paper presets."""

import pytest

from repro.core import EMTSConfig, emts5_config, emts10_config
from repro.exceptions import ConfigurationError


class TestPresets:
    def test_emts5_is_5_plus_25(self):
        c = emts5_config()
        assert (c.mu, c.lam, c.generations) == (5, 25, 5)
        assert c.name == "emts5"

    def test_emts10_is_10_plus_100(self):
        c = emts10_config()
        assert (c.mu, c.lam, c.generations) == (10, 100, 10)

    def test_paper_parameters(self):
        c = emts5_config()
        assert c.fm == 0.33
        assert c.sigma_stretch == 5.0
        assert c.sigma_shrink == 5.0
        assert c.shrink_probability == 0.2
        assert c.delta == 0.9
        assert c.selection == "plus"

    def test_default_seeds_are_papers(self):
        c = emts5_config()
        assert set(c.seed_heuristics) == {
            "mcpa",
            "hcpa",
            "delta-critical",
        }


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mu=0),
            dict(lam=0),
            dict(generations=0),
            dict(fm=0.0),
            dict(fm=1.5),
            dict(sigma_stretch=0.0),
            dict(sigma_shrink=-1.0),
            dict(shrink_probability=-0.1),
            dict(shrink_probability=1.1),
            dict(delta=2.0),
            dict(seed_heuristics=()),
            dict(selection="rank"),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            EMTSConfig(**kwargs)

    def test_with_updates(self):
        c = emts5_config().with_updates(generations=20)
        assert c.generations == 20
        assert c.mu == 5

    def test_frozen(self):
        with pytest.raises(AttributeError):
            emts5_config().mu = 99
