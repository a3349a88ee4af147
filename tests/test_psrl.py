"""Style representation learning: encoder, projector, losses, training."""

import math

import numpy as np
import pytest

import oracles
from configs import full_config
from oracles import contrastive_loss, stats_loss
from styleinpaint.dataset import crop_patches, generate_dataset, mask_from_rect
from styleinpaint.errors import DataError
from styleinpaint.nn import Tensor, gradcheck, no_grad
from styleinpaint.psrl import (PSRLModel, StyleFeature, embed_style,
                               psrl_batch_loss, style_contrastive_loss,
                               train_psrl)
from styleinpaint.psrl.losses import _pairwise_stats_mean
from styleinpaint.psrl.model import _least_masked_windows
from styleinpaint.psrl.train import held_out_margin


def f64_model(seed=0):
    m = PSRLModel(seed)
    for _, t in m.params.items():
        t.data = t.data.astype(np.float64)
    return m


class TestEncoder:
    def test_constant_patch_gives_floor_sigma(self):
        model = PSRLModel(0)
        patch = np.full((1, 16, 16, 3), 0.5, dtype=np.float32)
        feat = model.encode(patch)
        np.testing.assert_allclose(feat.sigma.data, np.sqrt(1e-5), rtol=1e-4)

    def test_deterministic(self):
        model = PSRLModel(1)
        patch = np.random.default_rng(0).uniform(0, 1, (2, 16, 16, 3)).astype(np.float32)
        a = model.encode(patch)
        b = model.encode(patch)
        np.testing.assert_array_equal(a.mu.data, b.mu.data)
        np.testing.assert_array_equal(a.sigma.data, b.sigma.data)

    def test_too_small_patch_rejected(self):
        model = PSRLModel(2)
        with pytest.raises(ValueError, match="receptive minimum"):
            model.encode(np.zeros((1, 8, 8, 3), dtype=np.float32))

    def test_output_shape_larger_inputs(self):
        model = PSRLModel(3)
        feat = model.encode(np.zeros((1, 64, 64, 3), dtype=np.float32))
        assert feat.mu.shape == (1, 64) and feat.sigma.shape == (1, 64)

    def test_gradcheck_encode_stats(self):
        model = f64_model(4)
        rng = np.random.default_rng(0)
        x = Tensor(rng.uniform(0, 1, (1, 3, 16, 16)))
        w = rng.standard_normal(128)

        def f():
            feat = model.encode(x)
            from styleinpaint.nn import concat
            z = concat([feat.mu, feat.sigma], axis=1)
            return (z * w).sum()

        worst = gradcheck(f, [x], tol=1e-3, max_coords=40)
        assert worst <= 1e-3


class TestProjector:
    def test_unit_norm_100_inputs(self):
        model = PSRLModel(5)
        rng = np.random.default_rng(1)
        feat = StyleFeature(Tensor(rng.standard_normal((100, 64)).astype(np.float32)),
                            Tensor(rng.uniform(0.1, 2, (100, 64)).astype(np.float32)))
        emb = model.project(feat).data
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-5)

    def test_zero_projector_zero_bias_degenerate(self):
        model = PSRLModel(6)
        for name in model.projector_paths():
            model.params[name].data[...] = 0.0
        feat = StyleFeature(Tensor(np.ones((1, 64), np.float32)),
                            Tensor(np.ones((1, 64), np.float32)))
        with pytest.raises(ValueError, match="degenerate zero embedding"):
            model.project(feat)

    def test_cosine_equals_dot(self):
        model = PSRLModel(7)
        rng = np.random.default_rng(2)
        feat = StyleFeature(Tensor(rng.standard_normal((2, 64)).astype(np.float32)),
                            Tensor(rng.uniform(0.1, 1, (2, 64)).astype(np.float32)))
        e = model.project(feat).data
        dot = float(e[0] @ e[1])
        cos = dot / (np.linalg.norm(e[0]) * np.linalg.norm(e[1]))
        assert abs(dot - cos) < 1e-6


class TestStatsLoss:
    def _feat(self, mu, sigma):
        return StyleFeature(Tensor(np.asarray(mu, np.float64)),
                            Tensor(np.asarray(sigma, np.float64)))

    def test_identical_features_zero(self):
        rng = np.random.default_rng(3)
        mu = rng.standard_normal(64)
        sg = rng.uniform(0.1, 1, 64)
        val = stats_loss(self._feat(mu, sg), self._feat(mu, sg)).item()
        assert abs(val) < 1e-9

    def test_four_active_channels_forced_value(self):
        mu_i = np.zeros(64)
        mu_i[:4] = 1.0
        mu_j = np.zeros(64)
        sg = np.ones(64)
        val = stats_loss(self._feat(mu_i, sg), self._feat(mu_j, sg)).item()
        assert abs(val - 2.0) < 1e-7

    def test_random_pair_vs_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            mu_i, mu_j = rng.standard_normal((2, 64))
            sg_i, sg_j = rng.uniform(0.01, 2, (2, 64))
            got = stats_loss(self._feat(mu_i, sg_i), self._feat(mu_j, sg_j)).item()
            want = oracles.stats_pair_loops(mu_i, sg_i, mu_j, sg_j)
            assert abs(got - want) < 1e-9

    def test_symmetric_nonnegative(self):
        rng = np.random.default_rng(5)
        a = self._feat(rng.standard_normal(64), rng.uniform(0.1, 1, 64))
        b = self._feat(rng.standard_normal(64), rng.uniform(0.1, 1, 64))
        ab = stats_loss(a, b).item()
        ba = stats_loss(b, a).item()
        assert ab >= 0 and abs(ab - ba) < 1e-12

    def test_intra_n2_equals_single_pair(self):
        rng = np.random.default_rng(6)
        mu = rng.standard_normal((2, 64))
        sg = rng.uniform(0.1, 1, (2, 64))
        got = _pairwise_stats_mean(Tensor(mu), Tensor(sg)).item()
        want = stats_loss(self._feat(mu[0], sg[0]), self._feat(mu[1], sg[1])).item()
        assert abs(got - want) < 1e-9

    def test_intra_identical_patches_zero(self):
        mu = np.tile(np.arange(64.0), (4, 1))
        sg = np.ones((4, 64))
        val = _pairwise_stats_mean(Tensor(mu), Tensor(sg)).item()
        assert abs(val) < 1e-9

    def test_intra_n4_vs_pair_enumeration(self):
        rng = np.random.default_rng(7)
        mu = rng.standard_normal((4, 64))
        sg = rng.uniform(0.1, 1, (4, 64))
        got = _pairwise_stats_mean(Tensor(mu), Tensor(sg)).item()
        want = np.mean([oracles.stats_pair_loops(mu[i], sg[i], mu[j], sg[j])
                        for i in range(4) for j in range(i + 1, 4)])
        assert abs(got - want) < 1e-9


def unit_rows(rng, n, d=64):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestContrastiveLoss:
    def test_perfect_positive_orthogonal_negatives(self):
        d = 64
        a = np.zeros(d)
        a[0] = 1.0
        negs = np.eye(d)[1:5]
        got = contrastive_loss(a, a, negs, tau=0.07).item()
        want = math.log1p(4 * math.exp(-1 / 0.07))
        assert abs(got - want) < 1e-9
        assert got < 1e-5

    def test_uniform_similarities_log5(self):
        d = 64
        a = np.zeros(d)
        a[0] = 1.0
        other = np.zeros(d)
        other[1] = 1.0
        got = contrastive_loss(a, other, np.tile(other, (4, 1)), tau=0.07).item()
        assert abs(got - math.log(5)) < 1e-9

    def test_random_vs_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            vs = unit_rows(rng, 6)
            got = contrastive_loss(vs[0], vs[1], vs[2:], tau=0.07).item()
            want = oracles.nce_term_loops(vs[0], vs[1], vs[2:], tau=0.07)
            assert abs(got - want) < 1e-9

    def test_monotone_in_positive_similarity(self):
        rng = np.random.default_rng(9)
        d = 64
        a = np.zeros(d)
        a[0] = 1.0
        negs = unit_rows(rng, 4, d)
        vals = []
        for s in np.linspace(-1, 1, 9):
            p = np.zeros(d)
            p[0] = s
            p[1] = math.sqrt(1 - s * s)
            vals.append(contrastive_loss(a, p, negs, tau=0.07).item())
        assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))

    def test_empty_negatives_rejected(self):
        a = np.zeros(64)
        a[0] = 1.0
        with pytest.raises(ValueError, match="at least one negative"):
            contrastive_loss(a, a, np.zeros((0, 64)), tau=0.07)

    def test_extreme_logits_finite(self):
        a = np.zeros(64)
        a[0] = 1.0
        val = contrastive_loss(a, a, np.tile(a, (8, 1)), tau=0.07).item()
        assert np.isfinite(val) and abs(val - math.log(9)) < 1e-6


class TestBatchLoss:
    def test_lxy_matches_enumeration_oracle(self):
        # with two image pairs, each anchor's negatives are its own partner's
        # patches only, so the batch loss is the mean of the per-pair losses
        rng = np.random.default_rng(10)
        for b, n in ((1, 2), (1, 4), (2, 3)):
            ex = np.stack([unit_rows(rng, n) for _ in range(b)])
            ey = np.stack([unit_rows(rng, n) for _ in range(b)])
            got = style_contrastive_loss(Tensor(ex), Tensor(ey), tau=0.07).item()
            want = np.mean([oracles.lxy_loops(ex[i], ey[i], tau=0.07) for i in range(b)])
            assert abs(got - want) < 1e-9

    def test_coincident_embeddings_terms_hit_uniform_limit(self):
        model = PSRLModel(12)
        patch = np.random.default_rng(0).uniform(0, 1, (16, 16, 3)).astype(np.float32)
        x = np.tile(patch, (1, 4, 1, 1, 1))
        out = psrl_batch_loss(model, x, x.copy(), tau=0.07, stage=2)
        n = 4
        assert abs(out.l_x.item() - out.l_y.item()) < 1e-9
        assert abs(out.l_xy.item() - math.log(n + 1)) < 1e-4
        assert out.l_x.item() < 1e-6

    def test_shape_mismatch_rejected(self):
        model = PSRLModel(13)
        a = np.zeros((1, 2, 16, 16, 3), np.float32)
        b = np.zeros((1, 3, 16, 16, 3), np.float32)
        with pytest.raises(ValueError, match="shapes differ"):
            psrl_batch_loss(model, a, b, 0.07, 1)

    def test_stage1_total_excludes_lxy_and_projector_grads(self):
        model = PSRLModel(14)
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, (1, 2, 16, 16, 3)).astype(np.float32)
        y = rng.uniform(0, 1, (1, 2, 16, 16, 3)).astype(np.float32)
        out = psrl_batch_loss(model, x, y, 0.07, stage=1)
        assert abs(out.total.item() - out.l_x.item() - out.l_y.item()) < 1e-6
        out.total.backward()
        for name in model.projector_paths():
            assert model.params[name].grad is None
        for name in model.encoder_paths():
            assert model.params[name].grad is not None

    def test_stage1_total_independent_of_projector_weights(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, (1, 2, 16, 16, 3)).astype(np.float32)
        y = rng.uniform(0, 1, (1, 2, 16, 16, 3)).astype(np.float32)
        model = PSRLModel(15)
        before = psrl_batch_loss(model, x, y, 0.07, stage=1).total.item()
        for name in model.projector_paths():
            model.params[name].data += 0.5
        after = psrl_batch_loss(model, x, y, 0.07, stage=1).total.item()
        assert before == after

    def test_gradcheck_composite_micro_batch(self):
        model = f64_model(16)
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, (1, 2, 16, 16, 3))
        y = rng.uniform(0, 1, (1, 2, 16, 16, 3))
        inputs = [t for _, t in model.params.items()]

        def f():
            return psrl_batch_loss(model, x, y, 0.07, stage=2).total

        worst = gradcheck(f, inputs, tol=1e-3, max_coords=3,
                          rng=np.random.default_rng(0))
        assert worst <= 1e-3


class TestTraining:
    def _data(self, n_styles=4, count=8):
        return generate_dataset(seed=11, count=count, n_styles=n_styles)

    def test_smoke_run_finite_and_logged(self):
        samples = self._data()
        cfg = full_config("psrl", s1=4, s2=4, batch=2, n=4)
        model, rows = train_psrl(samples, cfg, seed=1)
        assert len(rows) == 8
        stages = [int(r.split(",")[1]) for r in rows]
        assert stages == [1] * 4 + [2] * 4
        for r in rows:
            vals = [float(v) for v in r.split(",")[2:]]
            assert all(np.isfinite(vals))

    def test_modes_stage_tags(self):
        samples = self._data()
        for mode, tag in (("contrastive_only", 2), ("stats_only", 1)):
            _, rows = train_psrl(samples, full_config("psrl", s1=2, s2=2, batch=1,
                                                      n=4, mode=mode), seed=2)
            assert all(int(r.split(",")[1]) == tag for r in rows)

    def test_single_style_dataset_rejected(self):
        samples = generate_dataset(seed=12, count=4, n_styles=1)
        with pytest.raises(DataError, match="at least 2 styles"):
            train_psrl(samples, full_config("psrl", s1=1, s2=0), seed=0)

    # the pairing, pooled-negative and frozen-encoder options are gone;
    # checkpoints written while they existed echo them
    OLD_ECHO = {"pairing": "distinct_style", "in_batch_negatives": 0,
                "freeze_encoder_stage2": 0}

    def _half_checkpoint(self, samples, path, **echo):
        """Interrupt emulation: train the first 3 steps, checkpoint, then
        rewrite the schedule echo to the full 3+3 plan."""
        from styleinpaint.checkpoint import PSRL_MAGIC, load_checkpoint, save_checkpoint

        train_psrl(samples, full_config("psrl", s1=3, s2=0, batch=2, n=4), seed=3,
                   checkpoint_path=path)
        cfg, tensors = load_checkpoint(path, PSRL_MAGIC)
        save_checkpoint(path, PSRL_MAGIC, dict(cfg, step=3, s1=3, s2=3, **echo), tensors)

    def _assert_resume_exact(self, tmp_path, **echo):
        samples = self._data()
        full, _ = train_psrl(samples, full_config("psrl", s1=3, s2=3, batch=2, n=4), seed=3)
        ck = tmp_path / "half.ckpt"
        self._half_checkpoint(samples, ck, **echo)
        resumed, _ = train_psrl(samples, {}, seed=3, resume=ck)
        for name, t in full.params.items():
            np.testing.assert_array_equal(t.data, resumed.params[name].data,
                                          err_msg=f"parameter {name} differs after resume")

    def test_resume_bit_exact(self, tmp_path):
        self._assert_resume_exact(tmp_path)

    def test_resume_old_echo_at_kept_values(self, tmp_path):
        self._assert_resume_exact(tmp_path, **self.OLD_ECHO)

    @pytest.mark.parametrize("key,value", [("pairing", "distinct_image"),
                                           ("in_batch_negatives", 1),
                                           ("freeze_encoder_stage2", 1)])
    def test_resume_rejects_removed_option(self, tmp_path, key, value):
        from styleinpaint.errors import UsageError

        samples = self._data()
        ck = tmp_path / "half.ckpt"
        self._half_checkpoint(samples, ck, **dict(self.OLD_ECHO, **{key: value}))
        with pytest.raises(UsageError, match=rf"psrl\.{key}={value!r}"):
            train_psrl(samples, {}, seed=3, resume=ck)

    def test_checkpoint_round_trip(self, tmp_path):
        samples = self._data()
        ck = tmp_path / "m.ckpt"
        model, _ = train_psrl(samples, full_config("psrl", s1=2, s2=2, batch=1, n=4),
                              seed=4, checkpoint_path=ck)
        loaded, cfg = PSRLModel.from_checkpoint(ck)
        assert cfg["step"] == 4
        for name, t in model.params.items():
            np.testing.assert_array_equal(t.data, loaded.params[name].data)

    def test_nan_guard(self, monkeypatch):
        import styleinpaint.psrl.train as train_mod
        from styleinpaint.errors import NumericsError
        from styleinpaint.psrl.losses import PsrlLossOutput

        def poisoned_loss(*args, **kwargs):
            bad = Tensor(np.float32(np.nan))
            return PsrlLossOutput(bad, bad, bad, bad, bad, bad, bad, bad)

        monkeypatch.setattr(train_mod, "psrl_batch_loss", poisoned_loss)
        with pytest.raises(NumericsError, match="step 0"):
            train_psrl(self._data(), full_config("psrl", s1=2, s2=0, batch=2, n=4), seed=5)

    def test_collapse_guard(self, monkeypatch):
        import styleinpaint.psrl.train as train_mod
        from styleinpaint.errors import NumericsError

        class DeadEncoder(PSRLModel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                # inputs lie in [0, 1]: this bias zeroes every final-block ReLU
                self.params["enc/b3/b"].data[...] = -1e3

        monkeypatch.setattr(train_mod, "PSRLModel", DeadEncoder)
        with pytest.raises(NumericsError, match="collapsed at step 0"):
            train_psrl(self._data(), full_config("psrl", s1=2, s2=0, batch=2, n=4), seed=5)

    def test_stats_only_stays_non_degenerate(self):
        # 300 stats_only steps at the recipe lr. Measured over seeds 0-4, the
        # scale-invariant stage 1 ends with 27-36% of final-block channels
        # dead on the held-out images and L_x >= 0.05, while a stage 1 that a
        # dead encoder minimizes ends with 89-95% dead and L_x ~ 0.
        model, rows = train_psrl(self._data(), full_config(
            "psrl", mode="stats_only", s1=300, s2=0, batch=4, n=4), seed=0)
        assert float(rows[-1].split(",")[2]) > 0.0
        held = generate_dataset(seed=23, count=6, n_styles=3)
        with no_grad():
            mu = model.encode(np.stack([s.pixels for s in held])).mu.data
        dead = float((~mu.any(axis=0)).mean())
        assert dead < 0.5, f"{dead:.0%} of final-block channels are dead"


class TestEmbedStyle:
    def _model_and_scene(self):
        model = PSRLModel(20)
        sample = generate_dataset(seed=21, count=1, n_styles=1)[0]
        return model, sample

    @staticmethod
    def _no_mask(sample):
        return np.zeros(sample.pixels.shape[:2], np.float32)

    def test_token_count_and_unit_norm(self):
        model, sample = self._model_and_scene()
        toks = embed_style(model, sample.pixels, self._no_mask(sample), k=4, rng_seed=0)
        assert toks.shape == (5, 64)
        np.testing.assert_allclose(np.linalg.norm(toks, axis=1), 1.0, atol=1e-5)

    def test_deterministic(self):
        model, sample = self._model_and_scene()
        a = embed_style(model, sample.pixels, self._no_mask(sample), k=4, rng_seed=7)
        b = embed_style(model, sample.pixels, self._no_mask(sample), k=4, rng_seed=7)
        np.testing.assert_array_equal(a, b)

    def test_empty_mask_equals_no_mask(self):
        # an all-zero mask places patches over the whole image, as an
        # unrestricted crop with the same seed does
        model, sample = self._model_and_scene()
        toks = embed_style(model, sample.pixels, self._no_mask(sample), k=3, rng_seed=1)
        patches = crop_patches(sample.pixels, 3, 16, 1).patches
        np.testing.assert_array_equal(toks[1:], model.embed_patches(patches))

    def test_mask_restricts_placement(self):
        model, sample = self._model_and_scene()
        mask = mask_from_rect(sample.pixels, (0, 0, 64, 40)).mask  # only rows 40+ free
        toks = embed_style(model, sample.pixels, mask, k=2, rng_seed=2)
        assert toks.shape == (3, 64)
        # cross-check determinism of the restricted draw
        again = embed_style(model, sample.pixels, mask, k=2, rng_seed=2)
        np.testing.assert_array_equal(toks, again)

    def test_tight_mask_falls_back_to_context_windows(self):
        model, sample = self._model_and_scene()
        mask = mask_from_rect(sample.pixels, (0, 0, 64, 56)).mask  # 8 free rows < patch
        toks = embed_style(model, sample.pixels, mask, k=2, rng_seed=0)
        assert toks.shape == (3, 64)
        np.testing.assert_allclose(np.linalg.norm(toks, axis=1), 1.0, atol=1e-5)
        # fallback windows overlap the mask, so they must read the background
        # composite: pixels hidden under the mask cannot influence the tokens
        scrambled = sample.pixels.copy()
        scrambled[:56] = 0.123
        again = embed_style(model, scrambled, mask, k=2, rng_seed=0)
        np.testing.assert_array_equal(toks, again)

    def test_tight_mask_windows_match_loop(self):
        # the least-masked ranking on masks that leave no fully visible
        # window, so embed_style takes this path; a 40x40 context holds at
        # most 4 disjoint windows, so k=6 also takes the fill-up step
        model, sample = self._model_and_scene()
        pixels = sample.pixels[:40, :40]
        for rect in [(0, 0, 40, 30), (0, 0, 30, 40), (3, 3, 35, 35),
                     (0, 6, 40, 26), (8, 0, 26, 40)]:
            mask = mask_from_rect(pixels, rect).mask
            for k in (2, 4, 6):
                with pytest.raises(ValueError, match="cannot place"):
                    crop_patches(pixels, k, 16, 0, allowed=mask == 0)
                want = oracles.least_masked_windows_loop(mask == 0, mask.shape, k, 16)
                assert _least_masked_windows(mask == 0, k, 16) == want
        assert len(set(want)) < 6
        source = pixels * (1.0 - mask[..., None])
        patches = np.stack([source[r:r + 16, c:c + 16] for r, c in want])
        toks = embed_style(model, pixels, mask, k=6, rng_seed=0)
        np.testing.assert_array_equal(toks[1:], model.embed_patches(patches))

    def test_image_below_patch_size_rejected(self):
        model, _ = self._model_and_scene()
        with pytest.raises(ValueError, match="below the"):
            embed_style(model, np.zeros((8, 8, 3), dtype=np.float32),
                        np.zeros((8, 8), dtype=np.float32), k=1, rng_seed=0)

    def test_margin_positive_after_short_training(self):
        samples = generate_dataset(seed=22, count=8, n_styles=4)
        model, _ = train_psrl(samples, full_config("psrl", s1=30, s2=30, batch=2, n=4), seed=6)
        held = generate_dataset(seed=23, count=6, n_styles=3)
        intra, inter, _, _ = held_out_margin(model, held, n=4, p=16, seed=0)
        assert intra > inter  # full-strength margin is covered by acceptance
