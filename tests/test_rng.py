"""Unit tests for repro.core.rng."""

import numpy as np
import pytest

from repro.core.rng import (
    draw_exponentials,
    draw_sites,
    draw_types,
    make_rng,
    spawn_rngs,
    types_from_uniforms,
)


class TestMakeRng:
    def test_from_int_reproducible(self):
        a = make_rng(7).random(5)
        b = make_rng(7).random(5)
        assert np.array_equal(a, b)

    def test_passthrough_generator(self):
        g = np.random.default_rng(0)
        assert make_rng(g) is g

    def test_none_allowed(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestSpawn:
    def test_independent_streams(self):
        a, b = spawn_rngs(3, 2)
        assert not np.array_equal(a.random(10), b.random(10))

    def test_reproducible(self):
        x = [g.random() for g in spawn_rngs(5, 3)]
        y = [g.random() for g in spawn_rngs(5, 3)]
        assert x == y

    def test_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestDraws:
    def test_draw_types_distribution(self):
        cum = np.array([0.25, 1.0])
        draws = draw_types(make_rng(0), cum, 40000)
        frac = (draws == 0).mean()
        assert frac == pytest.approx(0.25, abs=0.02)
        assert draws.dtype == np.intp

    @pytest.mark.parametrize("n_types", [3, 16, 17, 40])
    def test_types_from_uniforms_into_out(self, n_types):
        """``out=`` gives the fresh-array result on both paths: the
        edge sum (<= 16 edges) and ``searchsorted`` (> 16), even when
        the buffer holds stale indices."""
        rng = make_rng(n_types)
        rates = rng.random(n_types) + 0.1
        cum = np.cumsum(rates / rates.sum())
        cum[-1] = 1.0
        u = rng.random(5000)
        fresh = types_from_uniforms(cum, u)
        assert np.array_equal(fresh, np.searchsorted(cum, u, side="right"))
        out = np.full(u.size, 99, dtype=np.intp)
        got = types_from_uniforms(cum, u, out=out)
        assert got is out
        assert np.array_equal(out, fresh)
        # a view into a larger buffer, as the executor's workers pass
        buf = np.full(3 * u.size, -1, dtype=np.intp)
        types_from_uniforms(cum, u, out=buf[u.size:2 * u.size])
        assert np.array_equal(buf[u.size:2 * u.size], fresh)
        assert (buf[:u.size] == -1).all() and (buf[2 * u.size:] == -1).all()

    def test_draw_sites_range(self):
        s = draw_sites(make_rng(0), 50, 10000)
        assert s.min() >= 0 and s.max() < 50

    def test_draw_exponentials_mean(self):
        x = draw_exponentials(make_rng(0), rate=4.0, n=50000)
        assert x.mean() == pytest.approx(0.25, rel=0.05)
        assert (x >= 0).all()

    def test_draw_exponentials_validates(self):
        with pytest.raises(ValueError):
            draw_exponentials(make_rng(0), rate=0.0, n=5)
