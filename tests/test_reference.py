"""Reference network, zero connectors, and injection identity tests."""

import numpy as np
import pytest

from styleinpaint.diffusion import BLOCKS, ConditioningBundle, NSDModel
from styleinpaint.nn import ParameterSet, Tensor
from styleinpaint.reference import ZeroConnector, build_ref_input


def _model(seed=2, T=20):
    return NSDModel(seed, T=T)


# per-block feature shapes for a [1, 3, 16, 16] input, in BLOCKS order
SITE_SHAPES = [(1, 128, 8, 8), (1, 128, 4, 4), (1, 128, 4, 4), (1, 128, 4, 4),
               (1, 64, 8, 8)]


def _randomize(model, rng, prefixes=("den/", "sem/")):
    for path in model.params.paths():
        if path.startswith(prefixes):
            t = model.params[path]
            t.data[...] = (rng.standard_normal(t.data.shape) * 0.05).astype(t.data.dtype)


def _live_denoiser(seed):
    """A model with a random prior and fresh connectors, a [1,3,16,16]
    input and a semantic-only bundle."""
    m = _model()
    rng = np.random.default_rng(seed)
    _randomize(m, rng)
    x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
    return m, x, ConditioningBundle(m.encoder(np.array([[0, 3, 7]])), None, 0.0)


class TestBuildRefInput:
    def test_channel_order_round_trips(self):
        rng = np.random.default_rng(0)
        x_t = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
        x_mask = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
        m = rng.integers(0, 2, (2, 16, 16)).astype(np.float32)
        stacked = build_ref_input(x_t, x_mask, m)
        assert stacked.shape == (2, 7, 16, 16)
        np.testing.assert_array_equal(stacked[:, 0:3], x_t)
        np.testing.assert_array_equal(stacked[:, 3:6], x_mask)
        np.testing.assert_array_equal(stacked[:, 6], m)

    def test_empty_and_full_masks(self):
        rng = np.random.default_rng(1)
        clean = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        x_t = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        empty = np.zeros((1, 8, 8), np.float32)
        full = np.ones((1, 8, 8), np.float32)
        np.testing.assert_array_equal(
            build_ref_input(x_t, clean * (1 - empty[:, None]), empty)[:, 3:6], clean)
        np.testing.assert_array_equal(
            build_ref_input(x_t, clean * (1 - full[:, None]), full)[:, 3:6], 0.0)

    def test_shape_mismatch_raises(self):
        x_t = np.zeros((1, 3, 8, 8), np.float32)
        with pytest.raises(ValueError, match="disagree"):
            build_ref_input(x_t, np.zeros((1, 3, 4, 4), np.float32),
                            np.zeros((1, 8, 8), np.float32))
        with pytest.raises(ValueError, match="disagree"):
            build_ref_input(x_t, x_t, np.zeros((1, 4, 4), np.float32))
        unbatched = np.zeros((3, 8, 8), np.float32)
        with pytest.raises(ValueError, match="disagree"):
            build_ref_input(unbatched, unbatched, np.zeros((1, 8, 8), np.float32))


class TestReferenceNet:
    def test_site_count_and_resolutions(self):
        m = _model()
        x = np.random.default_rng(2).standard_normal((2, 7, 32, 32)).astype(np.float32)
        feats = m.refnet.features(x, 5)
        assert len(feats) == len(BLOCKS) == 5
        shapes = [f.shape for f in feats]
        assert shapes == [(2, 128, 16, 16), (2, 128, 8, 8), (2, 128, 8, 8),
                          (2, 128, 8, 8), (2, 64, 16, 16)]

    def test_deterministic_and_finite(self):
        m = _model()
        x = np.random.default_rng(3).standard_normal((1, 7, 16, 16)).astype(np.float32)
        for t in (0, m.schedule.T - 1):
            a = m.refnet.features(x, t)
            b = m.refnet.features(x, t)
            for fa, fb in zip(a, b):
                assert np.isfinite(fa.data).all()
                np.testing.assert_array_equal(fa.data, fb.data)

    def test_no_cross_attention_parameters(self):
        m = _model()
        assert not any("/ca/" in p for p in m.params.paths() if p.startswith("ref/"))

    def test_mirror_topology(self):
        # block-for-block the reference net repeats the denoiser's layout
        m = _model()
        den = {p.split("/", 1)[1] for p in m.params.paths()
               if p.startswith("den/") and "/ca/" not in p and not p.startswith("den/out")}
        ref = {p.split("/", 1)[1] for p in m.params.paths() if p.startswith("ref/")}
        assert den == ref


class TestZeroConnector:
    def test_zero_at_init(self):
        params = ParameterSet()
        con = ZeroConnector(params, "con/test", 8)
        feat = Tensor(np.random.default_rng(4).standard_normal((2, 8, 5, 5)).astype(np.float32))
        np.testing.assert_array_equal(con(feat).data, 0.0)

    def test_inject_identity_at_init(self):
        # arbitrary reference features through fresh connectors leave the
        # denoiser's prediction bit-identical
        m, x, bundle = _live_denoiser(5)
        rng = np.random.default_rng(6)
        refs = [con(Tensor(rng.standard_normal(shape).astype(np.float32)))
                for con, shape in zip(m.refnet.connectors, SITE_SHAPES)]
        np.testing.assert_array_equal(m.denoiser.predict_noise(x, 3, bundle, refs).data,
                                      m.denoiser.predict_noise(x, 3, bundle).data)

    def test_identity_connector_ignores_zero_reference(self):
        m, x, bundle = _live_denoiser(7)
        refs = []
        for con, shape in zip(m.refnet.connectors, SITE_SHAPES):
            c = shape[1]
            con.w.data[np.arange(c), np.arange(c), 0, 0] = 1.0
            refs.append(con(Tensor(np.zeros(shape, np.float32))))
        np.testing.assert_array_equal(m.denoiser.predict_noise(x, 3, bundle, refs).data,
                                      m.denoiser.predict_noise(x, 3, bundle).data)

    def test_gradient_reaches_connector(self):
        m = _model()
        x = np.random.default_rng(8).standard_normal((1, 7, 16, 16)).astype(np.float32)
        addends = m.refnet.connected_features(x, 3)
        (addends[0] * 1.0).sum().backward()
        g = m.params["con/d1/w"].grad
        assert g is not None and np.abs(g).max() > 0

    def test_inject_shape_mismatch(self):
        m, x, bundle = _live_denoiser(11)
        refs = [Tensor(np.zeros(shape, np.float32)) for shape in SITE_SHAPES]
        refs[2] = Tensor(np.zeros((1, 128, 2, 2), np.float32))
        with pytest.raises(ValueError, match="do not match"):
            m.denoiser.predict_noise(x, 3, bundle, refs)


class TestZeroInitIdentity:
    def test_predict_noise_unchanged_by_fresh_reference_path(self):
        m = _model()
        rng = np.random.default_rng(9)
        _randomize(m, rng)  # live prior, fresh (zero) connectors
        for i in range(5):
            x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
            mask = np.zeros((1, 1, 16, 16), np.float32)
            mask[:, :, 4:9, 4:9] = 1.0
            sem = m.encoder(np.array([[0, 3, 7]]))
            sty = Tensor(rng.standard_normal((1, 3, 64)).astype(np.float32))
            bundle = ConditioningBundle(sem, sty, 1.0)
            t = int(rng.integers(0, m.schedule.T))
            refs = m.refnet.connected_features(
                build_ref_input(x, x * (1 - mask), mask[:, 0]), t)
            with_ref = m.denoiser.predict_noise(x, t, bundle, refs)
            without = m.denoiser.predict_noise(x, t, bundle)
            np.testing.assert_array_equal(with_ref.data, without.data)

    def test_trained_connectors_change_predictions(self):
        m = _model()
        rng = np.random.default_rng(10)
        _randomize(m, rng)
        m.params["con/mid/w"].data[...] = rng.standard_normal((128, 128, 1, 1)).astype(np.float32) * 0.1
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        sem = m.encoder(np.array([[0, 3, 7]]))
        bundle = ConditioningBundle(sem, None, 0.0)
        refs = m.refnet.connected_features(
            build_ref_input(x, x, np.zeros((1, 1, 16, 16), np.float32)), 2)
        with_ref = m.denoiser.predict_noise(x, 2, bundle, refs)
        without = m.denoiser.predict_noise(x, 2, bundle)
        assert not np.array_equal(with_ref.data, without.data)
