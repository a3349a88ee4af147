"""Flat key=value run configuration with namespaced keys and typed defaults.

A config file is plain text: one `key=value` per line, `#` starts a comment,
blank lines ignored. Every key below has a working default, so an empty file
(or none at all) is a valid configuration. Command-line flags override file
values, which override defaults.
"""

from __future__ import annotations

from .errors import UsageError

# the value's Python type doubles as the parse rule for that key
DEFAULTS = {
    "seed": 0,                  # global seed; every RNG derives from it
    "out": "runs",              # output directory for all artifacts

    "dataset.count": 64,        # scenes to render
    "dataset.styles": 8,        # distinct styles cycled through the scenes
    "dataset.size": 64,         # square image side, multiple of 4
    "dataset.mask_lo": 0.15,    # min mask area fraction
    "dataset.mask_hi": 0.35,    # max mask area fraction
    "dataset.file": "dataset.s3im",

    "psrl.mode": "progressive",  # progressive | contrastive_only | stats_only
    "psrl.n": 8,                # patches per image per step
    "psrl.p": 16,               # patch side in pixels
    "psrl.tau": 0.07,           # contrastive temperature, > 0
    "psrl.s1": 50,              # stage-1 steps (statistics warm-up)
    "psrl.s2": 550,             # stage-2 steps (adds the contrastive term)
    "psrl.lr": 1e-4,
    "psrl.batch": 8,            # images per step
    "psrl.checkpoint": "psrl.ckpt",
    "psrl.log": "psrl_log.csv",

    "nsd.T": 100,               # diffusion timesteps
    "nsd.kind": "cosine",       # cosine | linear noise schedule
    "nsd.phase_a": 600,         # prior-training steps (style path off)
    "nsd.phase_b": 400,         # style/reference fine-tuning steps
    "nsd.lr": 1e-4,
    "nsd.batch": 4,
    "nsd.lam": 1.0,             # style attention weight, >= 0
    "nsd.k": 4,                 # style patches per image
    "nsd.use_projector": 1,     # 0 embeds styles as raw feature statistics;
                                # only for scoring, so every used lam must be 0
    "nsd.checkpoint": "nsd.ckpt",
    "nsd.log": "nsd_log.csv",

    "sample.steps": 50,         # denoising steps, <= nsd.T
    "sample.lam": 1.0,
    "sample.k": 4,
    "sample.paste_background": 0,  # 1 copies unmasked input pixels verbatim
    "sample.file": "inpaint.ppm",

    "eval.count": 50,           # held-out tasks to score
    "eval.k": 4,                # patches per side of the cosine protocol
    "eval.steps": 50,
    "eval.lam": 1.0,
    "eval.paste_background": 0,
    "eval.report": "report.csv",
    "eval.summary": "summary.txt",

    "viz.count": 8,             # images to embed for the projection export
    "viz.n": 8,                 # patches per image
    "viz.file": "projection.csv",
}


def _coerce(key: str, raw) -> object:
    kind = type(DEFAULTS[key])
    if isinstance(raw, kind):
        return raw
    try:
        return kind(raw)
    except (TypeError, ValueError):
        raise UsageError(f"invalid value {raw!r} for config key '{key}' "
                         f"(expected {kind.__name__})") from None


def parse_assignment(line: str) -> tuple[str, str]:
    if "=" not in line:
        raise UsageError(f"malformed config line {line!r}, expected key=value")
    key, value = line.split("=", 1)
    return key.strip(), value.strip()


def load_config_file(path) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, value = parse_assignment(line)
            values[key] = value
    return values


def build_config(file_values: dict | None = None,
                 overrides: dict | None = None) -> dict:
    """Defaults <- file <- overrides, with unknown-key and type checks."""
    cfg = dict(DEFAULTS)
    for layer in (file_values or {}), (overrides or {}):
        for key, value in layer.items():
            if key not in DEFAULTS:
                raise UsageError(f"unknown config key '{key}'")
            cfg[key] = _coerce(key, value)
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    if cfg["psrl.tau"] <= 0:
        raise UsageError("psrl.tau must be > 0")
    for key in ("nsd.lam", "sample.lam", "eval.lam"):
        if cfg[key] < 0:
            raise UsageError(f"{key} must be >= 0")
    for key in ("seed", "dataset.count", "dataset.styles", "psrl.n", "psrl.p",
                "psrl.s1", "psrl.s2", "psrl.batch", "nsd.T", "nsd.phase_a",
                "nsd.phase_b", "nsd.batch", "nsd.k", "sample.steps",
                "sample.k", "eval.count", "eval.steps", "viz.count"):
        if cfg[key] < 0:
            raise UsageError(f"{key} must be >= 0")
    if cfg["dataset.styles"] < 1 and cfg["dataset.count"] + cfg["eval.count"] > 0:
        # scenes cycle through the styles: gen-dataset renders dataset.count
        # of them, eval dataset.count + eval.count
        raise UsageError("dataset.styles must be >= 1 when dataset.count or "
                         "eval.count is > 0")
    if cfg["dataset.size"] % 4 != 0 or cfg["dataset.size"] <= 0:
        raise UsageError("dataset.size must be a positive multiple of 4")
    if not cfg["dataset.mask_lo"] <= cfg["dataset.mask_hi"]:
        raise UsageError("dataset.mask_lo must be <= dataset.mask_hi")
    for key in ("dataset.mask_lo", "dataset.mask_hi"):
        if not 0.1 <= cfg[key] <= 0.5:
            raise UsageError(f"{key} must lie in [0.1, 0.5], the mask areas make_mask draws")
    if cfg["psrl.n"] < 2:
        # every PSRL step evaluates the same-image terms, L_xy included (it
        # is logged in every mode), and they compare patches in pairs
        raise UsageError("psrl.n must be >= 2")
    # scoring and viz always embed patches, a style-conditioned fill too
    if cfg["eval.k"] < 1:
        raise UsageError("eval.k must be >= 1")
    if cfg["sample.lam"] > 0 and cfg["sample.k"] < 1:
        raise UsageError("sample.lam > 0 needs sample.k >= 1")
    if cfg["viz.n"] < 1:
        raise UsageError("viz.n must be >= 1")
    if cfg["nsd.phase_a"] == 0 and cfg["nsd.phase_b"] > 0:
        # phase B freezes the zero-initialized output head, so on an
        # untrained prior every phase-B gradient is exactly zero
        raise UsageError("nsd.phase_b > 0 needs nsd.phase_a > 0")
    if cfg["nsd.phase_b"] > 0 and cfg["nsd.lam"] == 0:
        # phase B trains the style attention, which gets no gradient at lam=0
        raise UsageError("nsd.phase_b > 0 needs nsd.lam > 0")
    if cfg["nsd.phase_b"] > 0 and cfg["nsd.k"] == 0:
        # phase B embeds each image's style from k context patches
        raise UsageError("nsd.phase_b > 0 needs nsd.k > 0")
    if not cfg["nsd.use_projector"]:
        # raw [mu; sigma] statistics are wider than the projector's
        # embedding, the only style token the denoiser's keys take; phase B
        # is named rather than nsd.lam, since it cannot run at nsd.lam=0
        active = [k for k in ("sample.lam", "eval.lam") if cfg[k] > 0]
        if cfg["nsd.phase_b"] > 0:
            active.insert(0, "nsd.phase_b")
        if active:
            raise UsageError(f"nsd.use_projector=0 gives style tokens the "
                             f"denoiser cannot take; set {', '.join(active)} to 0")


def subconfig(cfg: dict, prefix: str) -> dict:
    """The keys under `prefix.` with the prefix stripped."""
    head = prefix + "."
    return {k[len(head):]: v for k, v in cfg.items() if k.startswith(head)}
