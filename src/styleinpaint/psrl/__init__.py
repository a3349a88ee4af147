"""Progressive self-style representation learning."""

from .losses import PsrlLossOutput, psrl_batch_loss, style_contrastive_loss
from .model import PSRLModel, Projector, StyleEncoder, StyleFeature, embed_style
from .train import held_out_margin, save_psrl_checkpoint, train_psrl
