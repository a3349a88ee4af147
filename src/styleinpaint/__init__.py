"""Style-consistent text-guided inpainting on procedural texture scenes.

The package is organized around the pipeline stages:

- ``nn``: minimal reverse-mode autodiff over numpy arrays (tensors, conv,
  attention, Adam).
- ``dataset``: procedural scene generator where several semantic regions
  share one parameterized texture style, plus patch / mask / caption
  utilities and binary persistence.
- ``psrl``: progressive self-style representation learning (feature-
  statistics pretraining followed by a patch-contrastive projector).
- ``diffusion``: a small conditioned denoising diffusion model with two
  parallel cross-attention paths (semantic and style) and an ancestral
  inpainting sampler.
- ``reference``: the cross-attention-free context branch injected into the
  denoiser through zero-initialized 1x1 connectors.
- ``evaluation``: style-cosine consistency, masked PSNR, the 2-D
  projection export and benchmark reports.
- ``cli``: command-line entry point wiring everything together.
"""

__version__ = "0.1.0"
