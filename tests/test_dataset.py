"""Texture dataset: styles, scenes, masks, patch placement, file round-trips."""

import dataclasses
import struct

import numpy as np
import pytest
from scipy import stats as scipy_stats

import oracles
from measures import peak_mib
from styleinpaint.dataset import (DatasetSample, MaskSpec, VOCAB, caption_of,
                                  crop_patches, dataset_read, dataset_write,
                                  generate_dataset, make_mask, mask_from_rect,
                                  place_disjoint, read_ppm, render_scene,
                                  style_from_id, valid_topleft, write_ppm)
from styleinpaint.dataset.scenes import first_fit
from styleinpaint.dataset.styles import FAMILIES, N_STYLE_IDS
from styleinpaint.errors import DataError
from styleinpaint.rng import derive

FULL_GRID = valid_topleft(np.ones((64, 64), dtype=bool), 16)


def sample_style(rng_seed: int):
    """Uniformly drawn style; families are equally likely across seeds."""
    rng = derive(rng_seed, "sample-style")
    return style_from_id(int(rng.integers(0, N_STYLE_IDS)))


class TestStyles:
    def test_same_seed_same_style(self):
        a = sample_style(1234)
        b = sample_style(1234)
        assert a.style_id == b.style_id
        np.testing.assert_array_equal(a.palette, b.palette)
        assert (a.family, a.frequency, a.orientation) == (b.family, b.frequency, b.orientation)

    def test_family_coverage_uniform(self):
        counts = {f: 0 for f in ("stripes", "checker", "dots", "value-noise")}
        for seed in range(1000):
            counts[sample_style(seed).family] += 1
        chi2, p = scipy_stats.chisquare(list(counts.values()))
        assert p > 0.01, f"family counts {counts} fail chi-square (p={p:.4f})"
        assert all(190 <= c <= 310 for c in counts.values())

    def test_negative_pair_constraint_all_distinct_ids(self):
        # distinct style_id must mean different family or palette L2 >= 0.3
        rng = np.random.default_rng(0)
        ids = rng.choice(65536, size=300, replace=False)
        styles = [style_from_id(int(i)) for i in ids]
        for i in range(len(styles)):
            for j in range(i + 1, len(styles)):
                a, b = styles[i], styles[j]
                distance = np.linalg.norm(a.palette.reshape(-1) - b.palette.reshape(-1))
                assert a.family != b.family or distance >= 0.3

    def test_adjacent_ids_same_family_distinct_palettes(self):
        # same family = ids congruent mod 4; exhaustive over a contiguous band
        seen = set()
        for sid in range(0, 4000, 4):
            key = style_from_id(sid).palette.tobytes()
            assert key not in seen
            seen.add(key)

    def test_fields_in_range(self):
        for seed in range(200):
            s = sample_style(seed)
            assert 2.0 <= s.frequency <= 16.0
            assert (s.palette >= 0).all() and (s.palette <= 1).all()
            assert 0 <= s.style_id < 65536


class TestScenes:
    def test_render_deterministic(self):
        style = style_from_id(77)
        a = render_scene(style, 42)
        b = render_scene(style, 42)
        np.testing.assert_array_equal(a.pixels, b.pixels)
        assert a.caption_tokens == b.caption_tokens

    def test_pixels_finite_in_unit_range(self):
        for seed in range(20):
            scene = render_scene(sample_style(seed), seed)
            assert np.isfinite(scene.pixels).all()
            assert scene.pixels.min() >= 0.0 and scene.pixels.max() <= 1.0
            assert scene.pixels.shape == (64, 64, 3)

    def test_layout_seed_changes_geometry_not_style(self):
        style = style_from_id(123)
        a = render_scene(style, 1)
        b = render_scene(style, 2)
        assert a.style.style_id == b.style.style_id
        assert not np.array_equal(a.pixels, b.pixels)

    def test_at_least_two_regions(self):
        for seed in range(20):
            scene = render_scene(sample_style(seed), seed)
            assert len(scene.region_layout) >= 2

    def test_region_means_near_palette_hull(self):
        # every pixel is a convex combination of palette colors, so region
        # means stay essentially on the hull; 0.15 is the contract bound
        for seed in range(100):
            scene = render_scene(sample_style(seed), seed + 5000)
            pal = scene.style.palette
            lo = pal.min(axis=0) - 0.15
            hi = pal.max(axis=0) + 0.15
            mean = scene.pixels.reshape(-1, 3).mean(axis=0)
            assert (mean >= lo).all() and (mean <= hi).all()

    def test_caption_template_and_vocab(self):
        for seed in range(50):
            scene = render_scene(sample_style(seed), seed)
            toks = caption_of(scene)
            assert len(toks) == 3
            assert all(0 <= t < len(VOCAB) for t in toks)
            assert VOCAB[toks[0]] in ("disc", "rect", "triangle")
            assert VOCAB[toks[1]] in ("red", "green", "blue", "gray")
            assert VOCAB[toks[2]] in ("stripes", "checker", "dots", "noise")

    # layout seed 144 paints a second shape over all of the first one
    ORACLE_SEEDS = [*range(40), 144]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_pass_matches_per_region_oracle(self, family):
        # the one-pass render gives each pixel its region's phase; per pixel
        # that is the arithmetic of rendering each region on its own
        counts, hidden = set(), 0
        for seed in self.ORACLE_SEEDS:
            style = style_from_id(4 * seed + FAMILIES.index(family))
            for size in (32, 64):
                scene = render_scene(style, seed, size)
                ref, region_map = oracles.render_scene_by_region(style, seed, size)
                np.testing.assert_array_equal(scene.pixels, ref.pixels)
                assert scene.pixels.tobytes() == ref.pixels.tobytes()
                assert scene.region_layout == ref.region_layout
                assert scene.caption_tokens == ref.caption_tokens
                counts.add((len(ref.region_layout) - 1, size))
                hidden += len(np.unique(region_map)) < len(ref.region_layout)
        assert counts == {(n, size) for n in (1, 2, 3) for size in (32, 64)}
        assert hidden, "no seed has a shape that a later one hides"


class TestMasks:
    def test_area_within_two_percent(self):
        scene = render_scene(sample_style(0), 0)
        for fraction in (0.1, 0.25, 0.5):
            m = make_mask(scene, fraction, 7)
            area = m.mask.sum()
            assert abs(area - fraction * 64 * 64) <= 0.02 * fraction * 64 * 64

    def test_mask_interior_and_binary(self):
        scene = render_scene(sample_style(1), 1)
        for seed in range(30):
            m = make_mask(scene, 0.3, seed)
            assert set(np.unique(m.mask)) <= {0.0, 1.0}
            assert m.mask[0, :].sum() == 0 and m.mask[-1, :].sum() == 0
            assert m.mask[:, 0].sum() == 0 and m.mask[:, -1].sum() == 0

    def test_same_seed_same_rect(self):
        scene = render_scene(sample_style(3), 3)
        assert make_mask(scene, 0.2, 9).rect == make_mask(scene, 0.2, 9).rect

    def test_fraction_out_of_range(self):
        scene = render_scene(sample_style(4), 4)
        with pytest.raises(ValueError, match="fraction"):
            make_mask(scene, 0.05, 0)
        with pytest.raises(ValueError, match="fraction"):
            make_mask(scene, 0.6, 0)


class TestPatches:
    def test_single_patch_in_bounds(self):
        scene = render_scene(sample_style(5), 5)
        ps = crop_patches(scene.pixels, 1, 16, 0)
        r, c = ps.coordinates[0]
        assert 0 <= r <= 48 and 0 <= c <= 48
        np.testing.assert_array_equal(ps.patches[0], scene.pixels[r:r + 16, c:c + 16])

    def test_eight_disjoint_patches_thousand_seeds(self):
        scene = render_scene(sample_style(6), 6)
        for seed in range(1000):
            coords = crop_patches(scene.pixels, 8, 16, seed).coordinates
            for i in range(8):
                for j in range(i + 1, 8):
                    dr = abs(coords[i, 0] - coords[j, 0])
                    dc = abs(coords[i, 1] - coords[j, 1])
                    assert dr >= 16 or dc >= 16, f"seed {seed}: patches {i},{j} overlap"

    def test_infeasible_count_raises(self):
        scene = render_scene(sample_style(7), 7)
        with pytest.raises(ValueError, match="cannot place 17 disjoint patches"):
            crop_patches(scene.pixels, 17, 16, 0)

    def test_deterministic_per_seed(self):
        scene = render_scene(sample_style(8), 8)
        a = crop_patches(scene.pixels, 8, 16, 3).coordinates
        b = crop_patches(scene.pixels, 8, 16, 3).coordinates
        np.testing.assert_array_equal(a, b)

    def test_allowed_region_respected(self):
        scene = render_scene(sample_style(9), 9)
        allowed = np.zeros((64, 64), dtype=bool)
        allowed[10:42, 20:52] = True  # 32x32 window: exactly fits 4 patches
        ps = crop_patches(scene.pixels, 4, 16, 11, allowed=allowed)
        for r, c in ps.coordinates:
            assert 10 <= r and r + 16 <= 42 and 20 <= c and c + 16 <= 52

    @staticmethod
    def _placements(positions, n, seed, **limits):
        """(kernel, loop) results for one case; a raise becomes its message."""
        out = []
        for place in (place_disjoint, oracles.place_disjoint_loop):
            try:
                out.append(place(positions, 16, n, derive(seed, "crop"), **limits))
            except ValueError as err:
                out.append(str(err))
        return out

    def test_place_disjoint_matches_loop(self):
        window = np.zeros((64, 64), dtype=bool)
        window[10:42, 20:52] = True  # 4 patches fit only by the first-fit fallback
        cases = [(FULL_GRID, 8, seed, {}) for seed in range(400)]
        cases += [(FULL_GRID, 8, seed, {"stall": 7, "max_attempts": 60})
                  for seed in range(100)]  # restarts and the cap mid-chunk
        cases += [(FULL_GRID, 4, seed, {"max_attempts": 5})
                  for seed in range(100)]  # finish just before, or fall back at, the cap
        for i in range(32):
            scene = render_scene(sample_style(i), i)
            for seed in range(16):
                mask = make_mask(scene, 0.15 + 0.0125 * seed, 100 * i + seed).mask
                cases.append((valid_topleft(mask == 0, 16), 4, seed, {}))
        cases += [(valid_topleft(window, 16), n, seed, {})
                  for n in (4, 5) for seed in range(4)]
        for positions, n, seed, limits in cases:
            got, want = self._placements(positions, n, seed, **limits)
            if isinstance(want, str):
                assert got == want == f"cannot place {n} disjoint patches"
            else:
                assert got.dtype == want.dtype == np.int64
                assert np.array_equal(got, want), (n, seed, limits)
        assert len(cases) >= 1000
        fallback = self._placements(valid_topleft(window, 16), 4, 0)[0]
        np.testing.assert_array_equal(fallback, [[10, 20], [10, 36], [26, 20], [26, 36]])

    def test_place_disjoint_restart_matches_loop(self):
        # 9 patches often jam the full grid; a loop run that differs from one
        # that never restarts must have cleared its accepted set
        restarted = 0
        for seed in range(20):
            got, want = self._placements(FULL_GRID, 9, seed)
            never = oracles.place_disjoint_loop(FULL_GRID, 16, 9, derive(seed, "crop"),
                                                stall=10 ** 9)
            restarted += not np.array_equal(want, never)
            np.testing.assert_array_equal(got, want)
        assert restarted >= 5

    @pytest.mark.parametrize("bound", [1, 7, 49, 2401, 2 ** 31 + 5])
    def test_chunked_draws_equal_single_draws(self, bound):
        # place_disjoint draws its attempts in chunks; this holds only while
        # numpy keeps the half-used 32-bit word in the bit generator
        sizes = [1, 3, 400, 2, 399, 7, 1]
        single = derive(5, "draws")
        chunked = derive(5, "draws")
        want = [int(single.integers(0, bound)) for _ in range(sum(sizes))]
        got = np.concatenate([chunked.integers(0, bound, size=k) for k in sizes])
        assert got.tolist() == want
        assert chunked.integers(0, 2 ** 40) == single.integers(0, 2 ** 40)

    def test_first_fit_matches_greedy_loop(self):
        # the fallback's scan, on the contexts too tight for random placement
        scene = render_scene(sample_style(12), 12)
        tight = 0
        for rect in [(0, 0, 64, 40), (8, 0, 56, 64), (0, 10, 40, 54), (16, 16, 48, 48),
                     (0, 20, 64, 24), (30, 0, 20, 64)]:
            positions = valid_topleft(mask_from_rect(scene.pixels, rect).mask == 0, 16)
            for n in range(1, 9):
                picked = first_fit(positions, 16, n)
                want = oracles.greedy_scan_loop(positions, 16, n)
                if want is None:
                    assert len(picked) < n
                    tight += 1
                else:
                    np.testing.assert_array_equal(positions[picked], want)
        assert tight > 0

    def test_valid_topleft_prefix_sums(self):
        allowed = np.zeros((8, 8), dtype=bool)
        allowed[2:6, 3:7] = True
        got = valid_topleft(allowed, 3)
        want = [(r, c) for r in range(6) for c in range(6)
                if allowed[r:r + 3, c:c + 3].all()]
        assert sorted(map(tuple, got.tolist())) == sorted(want)


class TestDatasetIO:
    def _samples(self, n=5):
        return generate_dataset(seed=99, count=n, n_styles=3)

    def test_round_trip_bit_exact(self, tmp_path):
        samples = self._samples()
        path = tmp_path / "d.bin"
        dataset_write(samples, path)
        back = dataset_read(path)
        assert len(back) == len(samples)
        for a, b in zip(samples, back):
            np.testing.assert_array_equal(a.pixels, b.pixels)
            assert a.mask_rect == tuple(b.mask_rect)
            assert list(a.tokens) == list(b.tokens)
            assert (a.style_id, a.render_seed) == (b.style_id, b.render_seed)

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.bin"
        dataset_write([], path)
        assert dataset_read(path) == []

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        dataset_write(self._samples(1), path)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="malformed dataset header"):
            dataset_read(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v3.bin"
        dataset_write(self._samples(1), path)
        blob = bytearray(path.read_bytes())
        blob[7] = ord("3")
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version mismatch"):
            dataset_read(path)

    def test_first_version_asks_for_gen_dataset(self, tmp_path):
        # S3IMTOY1, the layout before the shared container, holding no samples
        path = tmp_path / "v1.bin"
        path.write_bytes(b"S3IMTOY1" + struct.pack("<I", 0))
        with pytest.raises(DataError, match="version mismatch.*re-run gen-dataset"):
            dataset_read(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.bin"
        dataset_write(self._samples(2), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 100])
        with pytest.raises(DataError, match="truncated dataset"):
            dataset_read(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.bin"
        dataset_write(self._samples(1), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(DataError, match="1 bytes after the last array"):
            dataset_read(path)

    def test_declared_gigabyte_is_refused_unread(self, tmp_path):
        # one 1x1 sample whose pixels then declare [16384, 16384, 1] float32,
        # 1 GiB, in a file of a few hundred bytes
        path = tmp_path / "huge.bin"
        one = DatasetSample(np.zeros((1, 1, 3), np.float32), (0, 0, 1, 1), [0], 0, 0)
        dataset_write([one], path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-24] + struct.pack("<3I", 16384, 16384, 1) + blob[-12:])
        err, peak = peak_mib(dataset_read, path)
        assert isinstance(err, DataError) and "truncated dataset" in str(err)
        assert peak < 1.0

    @pytest.mark.parametrize("field, value, says", [
        ("mask_rect", (1, 2, 3), "'mask_rect'"), ("mask_rect", (1.0, 2, 3, 4), "'mask_rect'"),
        ("tokens", [True], "'tokens'"), ("tokens", [0, len(VOCAB)], "vocabulary"),
        ("style_id", "3", "'style_id'"), ("render_seed", 1.5, "'render_seed'"),
        ("mask_rect", (60, 0, 8, 8), "does not fit"),
        ("pixels", np.zeros((64, 64), np.float32), "pixels")],
        ids=["rect_of_3", "rect_float", "token_bool", "token_outside_vocab", "style_id_str",
             "render_seed_float", "rect_outside_image", "pixels_2d"])
    def test_bad_sample_field_is_data_error(self, tmp_path, field, value, says):
        path = tmp_path / "d.bin"
        samples = self._samples(2)
        samples[1] = dataclasses.replace(samples[1], **{field: value})
        dataset_write(samples, path)
        with pytest.raises(DataError, match="sample 1") as err:
            dataset_read(path)
        assert says in str(err.value)

    def test_generation_deterministic_and_reproducible_from_seeds(self):
        a = generate_dataset(seed=5, count=4, n_styles=2)
        b = generate_dataset(seed=5, count=4, n_styles=2)
        for s, t in zip(a, b):
            np.testing.assert_array_equal(s.pixels, t.pixels)
        # samples regenerate from their stored (style_id, render_seed) alone
        s0 = a[0]
        again = render_scene(style_from_id(s0.style_id), s0.render_seed)
        np.testing.assert_array_equal(s0.pixels, again.pixels)

    def test_ppm_round_trip(self, tmp_path):
        img = generate_dataset(seed=1, count=1, n_styles=1)[0].pixels
        path = tmp_path / "img.ppm"
        write_ppm(img, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P6\n64 64\n255\n")
        back = read_ppm(path)
        assert back.shape == (64, 64, 3)
        # quantization to u8 bounds the error by half a level
        assert np.abs(back - img).max() <= 0.5 / 255 + 1e-6
