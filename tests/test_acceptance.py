"""Acceptance gate: one test per criterion, one pass/fail line each.

The heavy criteria (style-encoder quality, ablation ordering, end-to-end
style consistency) train real models with the committed recipes, so this
file takes much longer than the unit suites. Thresholds marked "pilot"
were fixed from measured pilot runs before being frozen here.
"""

import os
import time

import numpy as np

import oracles
from configs import full_config
from styleinpaint import nn
from styleinpaint.cli import run as cli_run
from styleinpaint.dataset import generate_dataset
from styleinpaint.dataset.io import dataset_read, write_ppm
from styleinpaint.diffusion import (ConditioningBundle, NSDModel,
                                    build_schedule, dual_cross_attention,
                                    forward_noise, training_loss)
from styleinpaint.evaluation import clustering_stats, export_projection
from styleinpaint.nn import Tensor, functional as F, gradcheck
from styleinpaint.psrl import PSRLModel, psrl_batch_loss
from styleinpaint.psrl.losses import style_contrastive_loss
from styleinpaint.psrl.train import held_out_margin, train_psrl
from styleinpaint.reference import build_ref_input


def _f64(params):
    for _, t in params.items():
        t.data = t.data.astype(np.float64)


def _randomize_zero_tails(model, rng, skip_prefix="con/"):
    for path in model.params.paths():
        t = model.params[path]
        if not t.data.any() and not path.startswith(skip_prefix):
            t.data[...] = (rng.standard_normal(t.data.shape) * 0.05).astype(t.data.dtype)


def _primitive_cases(rng):
    """(name, fn, inputs) gradcheck cases over every autodiff primitive."""
    a = Tensor(rng.standard_normal((3, 4)))
    b = Tensor(rng.standard_normal((3, 4)))
    row = Tensor(rng.standard_normal((4,)))
    pos = Tensor(rng.uniform(0.5, 2.0, (3, 4)))
    x4 = Tensor(rng.standard_normal((1, 2, 6, 6)))
    w4 = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5)
    bias = Tensor(rng.standard_normal((3,)))
    wlin = Tensor(rng.standard_normal((5, 4)) * 0.5)
    blin = Tensor(rng.standard_normal((5,)))
    q = Tensor(rng.standard_normal((2, 5, 6)))
    k = Tensor(rng.standard_normal((2, 7, 6)))
    v = Tensor(rng.standard_normal((2, 7, 6)))
    m2 = Tensor(rng.standard_normal((4, 2)))
    idx = np.array([[0, 2, 2], [1, 0, 2]])
    return [
        ("add", lambda: nn.add(a, row).sum(), [a, row]),
        ("sub", lambda: nn.sub(a, b).sum(), [a, b]),
        ("mul", lambda: nn.mul(a, b).sum(), [a, b]),
        ("div", lambda: nn.div(a, pos).sum(), [a, pos]),
        ("power", lambda: nn.power(pos, 3.0).sum(), [pos]),
        ("exp", lambda: nn.exp(a).sum(), [a]),
        ("log", lambda: nn.log(pos).sum(), [pos]),
        ("sqrt", lambda: nn.sqrt(pos).sum(), [pos]),
        ("relu", lambda: nn.relu(a).sum(), [a]),
        ("sum_axis", lambda: (nn.tsum(a, axis=1) ** 2.0).sum(), [a]),
        ("mean", lambda: (nn.tmean(a, axis=0) ** 2.0).sum(), [a]),
        ("reshape", lambda: (nn.reshape(a, (4, 3)) ** 2.0).sum(), [a]),
        ("transpose", lambda: nn.mul(nn.transpose(a, (1, 0)),
                                     nn.transpose(b, (1, 0))).sum(), [a, b]),
        ("concat", lambda: (nn.concat([a, b], axis=0) ** 2.0).sum(), [a, b]),
        ("getitem", lambda: (nn.getitem(a, idx) ** 2.0).sum(), [a]),
        ("pad2d", lambda: (nn.pad2d(x4, 1) ** 2.0).sum(), [x4]),
        ("pad2d_edge",
         lambda: (nn.pad2d(x4, 1, mode="edge") ** 2.0).sum(), [x4]),
        ("upsample", lambda: (nn.upsample_nearest2x(x4) ** 2.0).sum(), [x4]),
        ("matmul", lambda: (nn.matmul(a, m2) ** 2.0).sum(), [a, m2]),
        ("softmax", lambda: (oracles.softmax(a, axis=1) * b).sum(), [a, b]),
        ("logsumexp", lambda: nn.logsumexp(a, axis=1).sum(), [a]),
        ("logaddexp", lambda: nn.logaddexp(a, b).sum(), [a, b]),
        ("conv2d", lambda: (F.conv2d(x4, w4, bias, stride=1, padding=1) ** 2.0).sum(),
         [x4, w4, bias]),
        ("conv2d_s2", lambda: (F.conv2d(x4, w4, bias, stride=2, padding=1) ** 2.0).sum(),
         [x4, w4, bias]),
        ("linear", lambda: (F.linear(a, wlin, blin) ** 2.0).sum(), [a, wlin, blin]),
        ("l2_normalize", lambda: (F.l2_normalize(a, axis=1) * b).sum(), [a, b]),
        ("channel_mean_std",
         lambda: (F.channel_mean_std(x4)[0] ** 2.0).sum()
         + (F.channel_mean_std(x4)[1] ** 2.0).sum(), [x4]),
        ("attention", lambda: (F.scaled_dot_attention(q, k, v) ** 2.0).sum(),
         [q, k, v]),
    ]


NSD_PICKS = ["den/in/w", "den/time/w1", "den/d1/entry/w", "den/d1/temb/b",
             "den/d1/res1/w", "den/d1/res2/w", "den/d1/sa/wq", "den/d1/sa/wo",
             "den/d1/ca/wq", "den/d1/ca/wo", "den/d1/ca/sem/wk",
             "den/d1/ca/sty/wv", "den/mid/res2/b", "den/u2/entry/w",
             "den/out/w", "sem/table", "sem/sa/wv", "ref/in/w",
             "ref/mid/res1/w", "ref/u1/sa/wk", "con/d1/w", "con/u2/b"]


def test_criterion_01_gradient_suite():
    """FD gradcheck: primitives <= 1e-4, composite losses <= 1e-3, 20 seeds."""
    t0 = time.monotonic()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for name, fn, inputs in _primitive_cases(rng):
            worst = gradcheck(fn, inputs, tol=1e-4, max_coords=3,
                              rng=np.random.default_rng(seed + 1))
            assert worst <= 1e-4, f"primitive {name} seed {seed}: {worst:.2e}"

    # composite style loss: rotate through the parameter list across seeds
    psrl = PSRLModel(3)
    _f64(psrl.params)
    psrl_paths = sorted(psrl.params.paths())
    rng = np.random.default_rng(40)
    x = rng.uniform(0, 1, (1, 2, 16, 16, 3))
    y = rng.uniform(0, 1, (1, 2, 16, 16, 3))
    for seed in range(20):
        pick = psrl.params[psrl_paths[seed % len(psrl_paths)]]
        worst = gradcheck(lambda: psrl_batch_loss(psrl, x, y, 0.07, stage=2).total,
                          [pick], tol=1e-3, max_coords=2,
                          rng=np.random.default_rng(seed))
        assert worst <= 1e-3, f"style loss seed {seed}: {worst:.2e}"

    # composite denoising loss with style and reference paths active
    m = NSDModel(11, T=10)
    _randomize_zero_tails(m, np.random.default_rng(12), skip_prefix="")
    _f64(m.params)
    rng = np.random.default_rng(13)
    images = rng.random((1, 16, 16, 3))
    toks = np.array([[0, 3, 7]])
    eps = rng.standard_normal((1, 3, 16, 16))
    sty = Tensor(rng.standard_normal((1, 3, 64)))
    masks = np.zeros((1, 16, 16), np.float32)
    masks[:, 4:10, 5:12] = 1.0

    def nsd_loss():
        return training_loss(m.denoiser, m.encoder, images, toks, m.schedule,
                             lam=1.0, style_tokens=sty, refnet=m.refnet,
                             masks=masks, t=np.array([4]), eps=eps)

    for seed in range(20):
        pick = m.params[NSD_PICKS[seed % len(NSD_PICKS)]]
        worst = gradcheck(nsd_loss, [pick], tol=1e-3, max_coords=1,
                          rng=np.random.default_rng(seed))
        assert worst <= 1e-3, f"denoising loss seed {seed}: {worst:.2e}"

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_02_oracle_equivalence():
    """conv/linear/attention/silhouette/PCA/contrastive match loop oracles."""
    t0 = time.monotonic()
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)

        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = (rng.standard_normal((4, 3, 3, 3)) * 0.3).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        stride = 1 + seed % 2
        got = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                       padding=1).data
        want = oracles.conv2d_loops(x, w, b, stride=stride, padding=1)
        assert np.abs(got - want).max() < 1e-5

        xl = rng.standard_normal((5, 7)).astype(np.float32)
        wl = rng.standard_normal((4, 7)).astype(np.float32)
        bl = rng.standard_normal(4).astype(np.float32)
        got = F.linear(Tensor(xl), Tensor(wl), Tensor(bl)).data
        assert np.abs(got - oracles.linear_loops(xl, wl, bl)).max() < 1e-5

        q = rng.standard_normal((2, 6, 8)).astype(np.float32)
        k = rng.standard_normal((2, 16, 8)).astype(np.float32)
        v = rng.standard_normal((2, 16, 8)).astype(np.float32)
        got = F.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v)).data
        assert np.abs(got - oracles.attention_loops(q, k, v)).max() < 1e-5

        e = rng.standard_normal((40, 6))
        e /= np.linalg.norm(e, axis=1, keepdims=True)
        labels = rng.integers(0, 4, size=40)
        sil, _, _ = clustering_stats(e, labels)
        want = oracles.silhouette_loops(1.0 - e @ e.T, labels)
        assert abs(sil - want) < 1e-5

        data = rng.standard_normal((30, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.2])
        proj = export_projection(data, list(range(30)),
                                 os.devnull)
        want_proj, _ = oracles.pca_loops(data, k=2)
        assert np.abs(proj - want_proj).max() < 1e-5

        anchor = rng.standard_normal(8).astype(np.float32)
        positive = rng.standard_normal(8).astype(np.float32)
        negatives = rng.standard_normal((5, 8)).astype(np.float32)
        got = oracles.contrastive_loss(anchor, positive, negatives, tau=0.1).item()
        assert abs(got - oracles.nce_term_loops(anchor, positive, negatives,
                                                tau=0.1)) < 1e-5

        ex = rng.standard_normal((3, 8)).astype(np.float32)
        ey = rng.standard_normal((3, 8)).astype(np.float32)
        got = style_contrastive_loss(Tensor(ex[None]), Tensor(ey[None]),
                                     tau=0.2).item()
        assert abs(got - oracles.lxy_loops(ex, ey, tau=0.2)) < 1e-5

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"


def test_criterion_03_zero_init_identity():
    """Fresh connectors leave predict_noise unchanged on 50 random inputs."""
    m = NSDModel(21, T=50)
    rng = np.random.default_rng(22)
    _randomize_zero_tails(m, rng)  # live prior, connectors stay zero
    for i in range(50):
        hw = int(rng.choice([16, 24, 32]))
        x = rng.standard_normal((1, 3, hw, hw)).astype(np.float32)
        mask = np.zeros((1, 1, hw, hw), np.float32)
        mask[:, :, 2:hw // 2, 3:hw // 2 + 2] = 1.0
        sem = m.encoder(rng.integers(0, 11, size=(1, 3)))
        sty = Tensor(rng.standard_normal((1, 4, 64)).astype(np.float32))
        t = int(rng.integers(0, m.schedule.T))
        refs = m.refnet.connected_features(
            build_ref_input(x, x * (1 - mask), mask[:, 0]), t)
        with_ref = m.denoiser.predict_noise(x, t, ConditioningBundle(sem, sty, 1.0),
                                            reference_features=refs)
        without = m.denoiser.predict_noise(x, t, ConditioningBundle(sem, sty, 1.0))
        assert np.abs(with_ref.data - without.data).max() <= 1e-6


def test_criterion_04_schedule_soundness():
    """Variance preservation and Monte-Carlo forward-marginal agreement."""
    t0 = time.monotonic()
    for kind in ("cosine", "linear"):
        s = build_schedule(100, kind)
        assert np.abs(s.alpha ** 2 + s.sigma ** 2 - 1.0).max() <= 1e-6

    s = build_schedule(100, "cosine")
    n = 10_000
    rng = np.random.default_rng(77)
    for t in (1, 50, 99):
        x0 = rng.uniform(-1.0, 1.0, size=n).astype(np.float32)  # Var = 1/3
        eps = rng.standard_normal(n).astype(np.float32)
        x_t = forward_noise(x0.reshape(n, 1, 1, 1), np.full(n, t),
                            eps.reshape(n, 1, 1, 1), s).reshape(n)
        want = s.alpha[t] ** 2 * x0.var() + s.sigma[t] ** 2
        got = x_t.var()
        assert abs(got - want) / want <= 0.03, f"t={t}: {got:.4f} vs {want:.4f}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"schedule suite took {elapsed:.1f}s"


def test_criterion_05_style_encoder_quality(tmp_path):
    """The committed progressive recipe separates held-out patches by image.

    Held-out images extend the training sequence (same style population,
    unseen images), mirroring what the eval command does.
    """
    out = str(tmp_path / "run")
    base = ["--out", out, "--seed", "100",
            "--set", "dataset.count=32", "--set", "dataset.styles=8"]
    assert cli_run(["gen-dataset"] + base) == 0
    t0 = time.monotonic()
    assert cli_run(["train-psrl"] + base) == 0
    elapsed = time.monotonic() - t0
    model, _ = PSRLModel.from_checkpoint(os.path.join(out, "psrl.ckpt"))
    heldout = generate_dataset(100, 40, 8, 64)[32:]
    intra, inter, emb, labels = held_out_margin(model, heldout, n=8, p=16,
                                                seed=4242)
    sil, _, _ = clustering_stats(emb, labels)
    assert elapsed <= 600.0, f"train-psrl took {elapsed:.0f}s (budget 600s)"
    assert sil >= 0.5, f"silhouette {sil:.3f} < 0.5"
    assert intra - inter >= 0.3, f"margin {intra - inter:.3f} < 0.3"


def test_criterion_06_progressive_ablation():
    """Equal 300-step budgets, 5 seeds: progressive must beat
    contrastive-only on the final train pos-neg margin in >= 4 seeds, and
    stats-only's held-out consistency score must lie between the two.

    Consistency is the held-out intra-image cosine of the normalized encoder
    statistics (held_out_margin with use_projector=False), the
    representation that every arm trains. stats_only never trains the
    projector, so a score taken through it would only measure that arm's
    random projector head."""
    t0 = time.monotonic()
    budget = 300
    full = generate_dataset(100, 40, 8, 64)
    train, heldout = full[:32], full[32:]
    arms = (("progressive", 50), ("contrastive_only", 0), ("stats_only", budget))
    final_margin = {}  # (mode, seed) -> final train pos-neg margin
    consistency = {}   # (mode, seed) -> held-out intra-style mean cosine
    for mode, s1 in arms:
        for seed in range(5):
            cfg = full_config("psrl", mode=mode, n=8, p=16, tau=0.07,
                              s1=s1, s2=budget - s1, lr=1e-4, batch=8)
            model, rows = train_psrl(train, cfg, seed=seed)
            last = rows[-1].split(",")
            final_margin[mode, seed] = float(last[6]) - float(last[7])
            intra, _, _, _ = held_out_margin(model, heldout, n=8, p=16,
                                             seed=4242, use_projector=False)
            consistency[mode, seed] = intra
    elapsed = time.monotonic() - t0
    table = "\n".join(
        f"seed {s}: margin prog {final_margin['progressive', s]:+.4f} "
        f"contr {final_margin['contrastive_only', s]:+.4f} | consistency "
        f"prog {consistency['progressive', s]:.4f} "
        f"stats {consistency['stats_only', s]:.4f} "
        f"contr {consistency['contrastive_only', s]:.4f}"
        for s in range(5))
    assert elapsed <= 1800.0, f"ablation took {elapsed:.0f}s (budget 1800s)"
    wins = sum(final_margin["progressive", s] > final_margin["contrastive_only", s]
               for s in range(5))
    assert wins >= 4, f"progressive won only {wins}/5 margins\n{table}"
    means = {mode: float(np.mean([consistency[mode, s] for s in range(5)]))
             for mode, _ in arms}
    lo, hi = sorted((means["progressive"], means["contrastive_only"]))
    assert lo < means["stats_only"] < hi, (
        "stats-only consistency must lie between progressive and "
        f"contrastive-only; measured means: prog {means['progressive']:.5f}, "
        f"stats {means['stats_only']:.5f}, contr {means['contrastive_only']:.5f}"
        f"\n{table}")


def test_criterion_08_lambda_contract():
    """lam=0 bit-equals the semantic path; the style term is additive in lam."""
    rng = np.random.default_rng(55)

    def w(shape):
        return Tensor(rng.standard_normal(shape).astype(np.float32) * 0.2)

    x_tokens = Tensor(rng.standard_normal((2, 9, 64)).astype(np.float32))
    sem = Tensor(rng.standard_normal((2, 3, 64)).astype(np.float32))
    sty = Tensor(rng.standard_normal((2, 5, 64)).astype(np.float32))
    wq, wk_sem, wv_sem = w((64, 64)), w((64, 64)), w((64, 64))
    wk_sty, wv_sty = w((64, 64)), w((64, 64))

    def fused(lam):
        bundle = ConditioningBundle(sem, sty if lam > 0 else None, lam)
        return dual_cross_attention(x_tokens, bundle, wq, wk_sem, wv_sem,
                                    wk_sty, wv_sty).data

    semantic_only = F.scaled_dot_attention(
        nn.matmul(x_tokens, wq), nn.matmul(sem, wk_sem),
        nn.matmul(sem, wv_sem)).data
    assert np.array_equal(fused(0.0), semantic_only)

    # providing style tokens at lam=0 must change nothing, bit for bit
    z0_with_sty = dual_cross_attention(
        x_tokens, ConditioningBundle(sem, sty, 0.0), wq, wk_sem, wv_sem,
        wk_sty, wv_sty).data
    assert np.array_equal(z0_with_sty, semantic_only)

    z0, z1, z2 = fused(0.0), fused(1.0), fused(2.0)
    assert np.abs((z2 - z1) - (z1 - z0)).max() <= 1e-5

    # whole-network check: a live model at lam=0 ignores style tokens exactly
    m = NSDModel(56, T=20)
    _randomize_zero_tails(m, rng, skip_prefix="")
    x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
    sem_e = m.encoder(np.array([[2, 4, 9]]))
    sty_e = Tensor(rng.standard_normal((1, 4, 64)).astype(np.float32))
    with_sty = m.denoiser.predict_noise(x, 3, ConditioningBundle(sem_e, sty_e, 0.0))
    without = m.denoiser.predict_noise(x, 3, ConditioningBundle(sem_e, None, 0.0))
    assert np.array_equal(with_sty.data, without.data)


SMOKE = ["--set", "dataset.count=4", "--set", "dataset.styles=2",
         "--set", "psrl.s1=3", "--set", "psrl.s2=3", "--set", "psrl.batch=2",
         "--set", "psrl.n=4",
         "--set", "nsd.T=10", "--set", "nsd.phase_a=2", "--set", "nsd.phase_b=2",
         "--set", "nsd.batch=1", "--set", "nsd.k=2",
         "--set", "sample.steps=2", "--set", "sample.k=2",
         "--set", "eval.count=1", "--set", "eval.k=2", "--set", "eval.steps=2",
         "--set", "viz.count=3", "--set", "viz.n=4"]


def test_criterion_10_cli_determinism(tmp_path):
    """Rerunning every command with the same config gives identical bytes."""
    scene = None
    outs = [str(tmp_path / n) for n in ("one", "two")]
    for out in outs:
        base = ["--out", out, "--seed", "13"] + SMOKE
        assert cli_run(["gen-dataset"] + base) == 0
        if scene is None:
            scene = str(tmp_path / "scene.ppm")
            write_ppm(dataset_read(f"{out}/dataset.s3im")[0].pixels, scene)
        assert cli_run(["train-psrl"] + base) == 0
        assert cli_run(["train-nsd"] + base) == 0
        assert cli_run(["inpaint", scene, "8,8,24,24", "disc red stripes"]
                       + base) == 0
        assert cli_run(["eval"] + base) == 0
        assert cli_run(["viz"] + base) == 0

    names = ["dataset.s3im", "dataset.s3im.manifest.txt", "psrl.ckpt",
             "psrl_log.csv", "nsd.ckpt", "nsd_log.csv", "inpaint.ppm",
             "report.csv", "summary.txt", "projection.csv"]
    for name in names:
        one = open(os.path.join(outs[0], name), "rb").read()
        two = open(os.path.join(outs[1], name), "rb").read()
        assert one == two, f"{name} differs between identical reruns"
