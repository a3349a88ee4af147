"""Scoring and benchmark tests, checked against the loop oracles."""

import math
import warnings

import numpy as np
import pytest

from styleinpaint import evaluation
from styleinpaint.dataset import generate_dataset
from styleinpaint.dataset.io import DatasetSample
from styleinpaint.dataset.scenes import crop_patches, mask_from_rect
from styleinpaint.diffusion.train import NSDModel
from styleinpaint.evaluation import (REPORT_HEADER, clustering_stats,
                                     export_projection, psnr_unmasked,
                                     run_benchmark, style_cosine_between,
                                     style_cosines, write_report)
from styleinpaint.psrl.model import PSRLModel
from styleinpaint.psrl.train import train_psrl
from styleinpaint.rng import derive

from configs import eval_config, full_config
from oracles import pca_loops, psnr_loops, silhouette_loops


@pytest.fixture(scope="module")
def encoder():
    return PSRLModel(0)


@pytest.fixture(scope="module")
def scene_samples():
    return generate_dataset(11, count=6, n_styles=3, size=64)


def self_cosine(image, mask, encoder, k, seed, foreign):
    """style_cosines' same-scene score, seeded as run_benchmark seeds task 0."""
    return style_cosines(image, mask, foreign, encoder, k, derive(seed, "eval-embed", 0))[0]


class TestStyleCosine:
    def test_identical_embeddings_score_one(self, encoder, scene_samples):
        img = np.full((64, 64, 3), 0.5, np.float32)
        mask = mask_from_rect(img, (8, 8, 24, 24)).mask
        score = self_cosine(img, mask, encoder, 3, 0, scene_samples[0])
        assert score == pytest.approx(1.0, abs=1e-5)

    def test_verbatim_copy_matches_intra_baseline(self, encoder, scene_samples):
        s = scene_samples[0]
        mask = mask_from_rect(s.pixels, s.mask_rect).mask
        score = self_cosine(s.pixels, mask, encoder, 4, 3, scene_samples[1])
        ps = crop_patches(s.pixels, 8, 16, 77, allowed=mask == 0)
        ctx = encoder.embed_patches(ps.patches)
        baseline = style_cosine_between(ctx[:4], ctx[4:])
        assert abs(score - baseline) <= 0.05

    def test_symmetric_and_order_invariant(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 8))
        b = rng.normal(size=(5, 8))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        fwd = style_cosine_between(a, b)
        assert fwd == pytest.approx(style_cosine_between(b, a), abs=1e-12)
        perm = rng.permutation(5)
        assert fwd == pytest.approx(style_cosine_between(a[perm], b), abs=1e-12)

    def test_deterministic(self, encoder, scene_samples):
        s = scene_samples[1]
        mask = mask_from_rect(s.pixels, s.mask_rect).mask
        one = style_cosines(s.pixels, mask, scene_samples[2], encoder, 4, derive(9, "e"))
        two = style_cosines(s.pixels, mask, scene_samples[2], encoder, 4, derive(9, "e"))
        assert one == two

    def test_mask_too_small(self, encoder, scene_samples):
        img = np.zeros((64, 64, 3), np.float32)
        mask = mask_from_rect(img, (4, 4, 8, 8)).mask
        with pytest.raises(ValueError, match="mask too small"):
            self_cosine(img, mask, encoder, 2, 0, scene_samples[0])

    def test_mask_too_large(self, encoder, scene_samples):
        img = np.zeros((64, 64, 3), np.float32)
        mask = mask_from_rect(img, (4, 4, 56, 56)).mask
        with pytest.raises(ValueError, match="cannot place 2 disjoint patches"):
            self_cosine(img, mask, encoder, 2, 0, scene_samples[0])

    def test_foreign_fill_scores_below_verbatim(self, scene_samples):
        model, _ = train_psrl(scene_samples,
                              full_config("psrl", s1=60, s2=60, batch=4, n=4), seed=2)
        s = scene_samples[0]
        foreign = scene_samples[1]  # next style in the cycle
        assert foreign.style_id != s.style_id
        rect = s.mask_rect
        mask = mask_from_rect(s.pixels, rect).mask
        self_score = self_cosine(s.pixels, mask, model, 6, 5, foreign)
        x, y, w, h = rect
        filled = s.pixels.copy()
        filled[y:y + h, x:x + w] = foreign.pixels[y:y + h, x:x + w]
        foreign_score = self_cosine(filled, mask, model, 6, 5, foreign)
        assert foreign_score < self_score


class TestPsnrUnmasked:
    def test_identical_images_hit_cap(self):
        img = np.random.default_rng(0).uniform(size=(16, 16, 3))
        mask = np.zeros((16, 16))
        assert psnr_unmasked(img, img, mask) == 99.0

    def test_uniform_difference_formula(self):
        ref = np.full((10, 10, 3), 0.5)
        gen = ref + 1.0 / 255.0
        got = psnr_unmasked(gen, ref, np.zeros((10, 10)))
        assert got == pytest.approx(20.0 * math.log10(255.0), abs=1e-9)

    def test_masked_region_content_ignored(self):
        rng = np.random.default_rng(1)
        ref = rng.uniform(size=(12, 12, 3))
        gen = ref + 0.01
        mask = np.zeros((12, 12))
        mask[3:7, 3:7] = 1
        base = psnr_unmasked(gen, ref, mask)
        wild = gen.copy()
        wild[3:7, 3:7] = 1.0 - wild[3:7, 3:7]
        assert psnr_unmasked(wild, ref, mask) == base

    def test_monotone_in_unmasked_mse(self):
        ref = np.full((8, 8, 3), 0.5)
        mask = np.zeros((8, 8))
        scores = [psnr_unmasked(ref + d, ref, mask) for d in (0.01, 0.05, 0.2)]
        assert scores[0] > scores[1] > scores[2]

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        ref = rng.uniform(size=(9, 9, 3))
        gen = rng.uniform(size=(9, 9, 3))
        mask = (rng.uniform(size=(9, 9)) < 0.3).astype(np.float32)
        keep = mask == 0
        assert psnr_unmasked(gen, ref, mask) == psnr_loops(gen[keep], ref[keep])

    def test_empty_unmasked_region(self):
        img = np.zeros((4, 4, 3))
        with pytest.raises(ValueError, match="empty unmasked region"):
            psnr_unmasked(img, img, np.ones((4, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            psnr_unmasked(np.zeros((4, 4, 3)), np.zeros((5, 5, 3)), np.zeros((4, 4)))


def _random_unit(rng, n, d):
    e = rng.normal(size=(n, d))
    return e / np.linalg.norm(e, axis=1, keepdims=True)


class TestClusteringStats:
    def test_orthogonal_tight_clusters(self):
        rng = np.random.default_rng(3)
        base = np.eye(2)
        e = np.concatenate([base[i] + rng.normal(scale=1e-3, size=(10, 2))
                            for i in (0, 1)])
        sil, intra, inter = clustering_stats(e, [0] * 10 + [1] * 10)
        assert sil > 0.95
        assert intra > inter

    def test_identical_embeddings_error(self):
        e = np.tile(np.array([0.6, 0.8]), (6, 1))
        with pytest.raises(ValueError, match="identical"):
            clustering_stats(e, [0, 0, 0, 1, 1, 1])

    def test_matches_loop_oracle_three_clusters(self):
        rng = np.random.default_rng(5)
        e = _random_unit(rng, 30, 6)
        labels = np.array([0] * 10 + [1] * 12 + [2] * 8)
        sil, _, _ = clustering_stats(e, labels)
        dist = 1.0 - (e @ e.T)
        assert abs(sil - silhouette_loops(dist, labels)) < 1e-10

    def test_matches_loop_oracle_n200(self):
        rng = np.random.default_rng(6)
        e = _random_unit(rng, 200, 5)
        labels = rng.integers(0, 5, size=200)
        sil, _, _ = clustering_stats(e, labels)
        dist = 1.0 - (e @ e.T)
        assert abs(sil - silhouette_loops(dist, labels)) < 1e-10

    def test_singleton_label_excluded_with_warning(self):
        rng = np.random.default_rng(7)
        e = _random_unit(rng, 7, 4)
        labels = np.array([0, 0, 0, 1, 1, 1, 2])
        with pytest.warns(UserWarning, match="singleton"):
            sil, _, _ = clustering_stats(e, labels)
        dist = 1.0 - (e @ e.T)
        assert abs(sil - silhouette_loops(dist, labels)) < 1e-10

    def test_silhouette_in_range(self):
        rng = np.random.default_rng(8)
        e = _random_unit(rng, 40, 3)
        sil, _, _ = clustering_stats(e, rng.integers(0, 3, size=40))
        assert -1.0 <= sil <= 1.0

    def test_intra_inter_cosines(self):
        e = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        sil, intra, inter = clustering_stats(e, [0, 0, 1, 1])
        assert intra == pytest.approx(1.0)
        assert inter == pytest.approx(0.0)
        assert sil == pytest.approx(1.0)

    def test_single_label_error(self):
        e = _random_unit(np.random.default_rng(9), 5, 3)
        with pytest.raises(ValueError, match="labels"):
            clustering_stats(e, [0, 0, 0, 0, 0])


class TestExportProjection:
    def test_matches_pca_oracle(self, tmp_path):
        rng = np.random.default_rng(10)
        e = rng.normal(size=(40, 5)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.1])
        proj = export_projection(e, list(range(40)), tmp_path / "p.csv")
        oracle_proj, _ = pca_loops(e, k=2)
        assert np.abs(proj - oracle_proj).max() < 1e-6

    def test_two_d_data_reproduced(self, tmp_path):
        rng = np.random.default_rng(11)
        e = rng.normal(size=(50, 2))
        e -= e.mean(axis=0)
        # orthogonalize the columns so the covariance is exactly diagonal,
        # then the eigenbasis is the identity up to the sign convention
        e[:, 1] -= e[:, 0] * (e[:, 0] @ e[:, 1]) / (e[:, 0] @ e[:, 0])
        e[:, 0] *= 4.0
        proj = export_projection(e, [0] * 50, tmp_path / "p.csv")
        assert np.abs(proj - e).max() < 1e-8

    def test_duplicate_points_duplicate_rows(self, tmp_path):
        e = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [4.0, 0.0, 1.0],
                      [0.0, 5.0, 2.0]])
        path = tmp_path / "p.csv"
        export_projection(e, ["a", "a", "b", "c"], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,label"
        assert lines[1] == lines[2]
        assert len(lines) == 5

    def test_too_few_samples(self, tmp_path):
        with pytest.raises(ValueError, match="at least 2 samples"):
            export_projection(np.zeros((1, 4)), ["a"], tmp_path / "p.csv")

    def test_too_few_dims(self, tmp_path):
        with pytest.raises(ValueError, match="dimension"):
            export_projection(np.zeros((5, 1)), list(range(5)), tmp_path / "p.csv")

    def test_rerun_bytes_identical(self, tmp_path):
        rng = np.random.default_rng(12)
        e = rng.normal(size=(20, 4))
        export_projection(e, list(range(20)), tmp_path / "a.csv")
        export_projection(e, list(range(20)), tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.fixture(scope="module")
def bench_setup(scene_samples):
    return NSDModel(1, T=10), PSRLModel(0), scene_samples


class TestRunBenchmark:
    CFG = eval_config(seed=4, count=2, k=2, steps=2)

    def test_empty_task_list(self, bench_setup, tmp_path):
        model, psrl, _ = bench_setup
        report = run_benchmark(model, psrl, [], self.CFG)
        assert report.rows == []
        assert report.aggregates == {"tasks": 0, "ok": 0}
        write_report(report, tmp_path / "r.csv", tmp_path / "s.txt")
        assert (tmp_path / "r.csv").read_text() == REPORT_HEADER + "\n"

    def test_rerun_bit_identical(self, bench_setup, tmp_path):
        model, psrl, samples = bench_setup
        for name in ("one", "two"):
            report = run_benchmark(model, psrl, samples, self.CFG)
            write_report(report, tmp_path / f"{name}.csv", tmp_path / f"{name}.txt")
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
        assert (tmp_path / "one.txt").read_bytes() == (tmp_path / "two.txt").read_bytes()

    def test_scores_and_aggregates(self, bench_setup):
        model, psrl, samples = bench_setup
        report = run_benchmark(model, psrl, samples, self.CFG)
        ok = [r for r in report.rows if r.status == "ok"]
        assert len(ok) == 2
        for r in ok:
            assert -1.0 <= r.style_cos_self <= 1.0
            assert -1.0 <= r.style_cos_foreign <= 1.0
            assert 0.0 < r.psnr_db <= 99.0
        wins = np.mean([r.style_cos_self > r.style_cos_foreign for r in ok])
        assert report.aggregates["win_rate"] == pytest.approx(float(wins))

    def test_bad_task_becomes_row_not_abort(self, bench_setup):
        model, psrl, samples = bench_setup
        tiny = DatasetSample(samples[0].pixels, (2, 2, 8, 8),
                             samples[0].tokens, samples[0].style_id, 0)
        report = run_benchmark(model, psrl, [tiny] + samples[:2],
                               dict(self.CFG, count=3))
        assert len(report.rows) == 3
        assert report.rows[0].status != "ok"
        assert report.rows[0].psnr_db is None
        assert sum(r.status == "ok" for r in report.rows) == 2

    def test_row_is_style_cosines_of_the_composite(self, bench_setup, monkeypatch):
        model, psrl, samples = bench_setup
        inner, fills = evaluation.sample_inpaint, []

        def keep(*args, **kwargs):
            fills.append(inner(*args, **kwargs))
            return fills[-1]

        monkeypatch.setattr(evaluation, "sample_inpaint", keep)
        report = run_benchmark(model, psrl, samples, self.CFG)
        for i, row in enumerate(report.rows):
            s = samples[i]
            mask = mask_from_rect(s.pixels, s.mask_rect).mask
            composite = np.where(mask[..., None] > 0, fills[i], s.pixels)
            foreign = next(f for f in samples[i + 1:] + samples if f.style_id != s.style_id)
            got = style_cosines(composite, mask, foreign, psrl, self.CFG["k"],
                                derive(self.CFG["seed"], "eval-embed", i))
            assert row.status == "ok"
            assert (row.style_cos_self, row.style_cos_foreign) == got

    def test_paste_background_hits_cap(self, bench_setup):
        model, psrl, samples = bench_setup
        cfg = dict(self.CFG, count=1, paste_background=1)
        report = run_benchmark(model, psrl, samples, cfg)
        assert report.rows[0].psnr_db == 99.0

    def test_report_csv_shape(self, bench_setup, tmp_path):
        model, psrl, samples = bench_setup
        report = run_benchmark(model, psrl, samples, dict(self.CFG, count=1))
        write_report(report, tmp_path / "r.csv", tmp_path / "s.txt")
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == REPORT_HEADER
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 5
        summary = dict(ln.split("=", 1) for ln in
                       (tmp_path / "s.txt").read_text().splitlines())
        assert summary["tasks"] == "1"
        assert "mean_psnr_db" in summary
