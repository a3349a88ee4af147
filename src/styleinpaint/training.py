"""The step loop shared by the style-encoder and denoiser trainers.

A trainer builds its model and supplies a step function; this loop owns the
rest. It restores parameters and Adam moments on resume, aborts on a
non-finite loss, applies the update, and writes the checkpoint and CSV log.
Adam moments ride in the checkpoint under `opt.m.`/`opt.v.` paths and the
config echo carries `opt_step`, so a resumed run continues bit for bit.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

from .checkpoint import restore, save_checkpoint
from .errors import NumericsError
from .nn import AdamState, ParameterSet, Tensor, adam_step

# step -> (loss, row); `row` formats the step's log line and is called only
# once the loss is known to be finite, so it may read every loss term (and
# may raise the trainer's own NumericsError checks)
StepFn = Callable[[int], tuple[Tensor, Callable[[], str]]]


def run_steps(params: ParameterSet, config: dict, seed: int, total_steps: int,
              step_fn: StepFn, resumed: dict | None = None, *, magic: bytes,
              echo: tuple[str, ...], header: str, checkpoint_path=None,
              log_path=None) -> list[str]:
    """Run steps up to total_steps and return this call's log rows.

    With `resumed` (the checkpoint's tensors, `config` being its echo) the
    parameters and Adam moments are restored and training continues from
    the echoed step; `checkpoint.restore` consumes `resumed`, so the
    checkpoint is not held twice. The checkpoint echoes `seed`, the step
    count, and the `echo` keys of `config`. A resumed run's log keeps the
    rows of the file at `log_path` for the steps before the resumed one.
    """
    opt = AdamState(lr=config["lr"])
    start = 0
    if resumed is not None:
        opt.step, start = config["opt_step"], config["step"]
        restore(resumed, params, "resumed checkpoint", opt)

    rows = []
    for step in range(start, total_steps):
        loss, row = step_fn(step)
        if not np.isfinite(loss.data):
            raise NumericsError(f"non-finite loss at step {step}")
        rows.append(row())
        loss.backward()
        adam_step(params, opt)
    params.set_trainable(None)

    if checkpoint_path is not None:
        save_training_checkpoint(checkpoint_path, magic, params, opt, dict(
            {key: config[key] for key in echo}, seed=int(seed), step=total_steps))
    if log_path is not None:
        kept = []
        if start > 0 and os.path.exists(log_path):
            with open(log_path, "r", encoding="utf-8") as f:
                kept = [line for line in f.read().splitlines()[1:]
                        if int(line.split(",", 1)[0]) < start]
        with open(log_path, "w", encoding="utf-8", newline="\n") as f:
            f.write(header + "\n")
            for line in kept + rows:
                f.write(line + "\n")
    return rows


def save_training_checkpoint(path, magic: bytes, params: ParameterSet,
                             opt: AdamState, config: dict) -> None:
    """Parameters plus Adam moments (zeros where none exist yet), with
    `opt_step` added to the config echo."""
    tensors = {name: t.data for name, t in params.items()}
    for name, t in params.items():
        tensors["opt.m." + name] = opt.m.get(name, np.zeros_like(t.data))
        tensors["opt.v." + name] = opt.v.get(name, np.zeros_like(t.data))
    save_checkpoint(path, magic, dict(config, opt_step=opt.step), tensors)
