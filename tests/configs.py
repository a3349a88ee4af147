"""Full configs from the few keys a test sets; the rest take config.DEFAULTS."""

from __future__ import annotations

from styleinpaint.config import DEFAULTS, build_config, subconfig


def full_config(prefix: str, **values) -> dict:
    """The `prefix` subconfig as the CLI hands it to a trainer."""
    overrides = {f"{prefix}.{key}": value for key, value in values.items()}
    return subconfig(build_config(overrides=overrides), prefix)


def eval_config(seed: int = 0, **values) -> dict:
    """run_benchmark's config as the `eval` command builds it."""
    return dict(full_config("eval", **values), seed=seed,
                use_projector=DEFAULTS["nsd.use_projector"])
