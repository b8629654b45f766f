"""Dual-stage data purification for noisy-label classification.

Stage 1 prunes low-quality samples via a learned per-sample weight branch;
stage 2 corrects mislabeled samples whose predictions are stable across
epochs; the final model trains on the purified dataset.
"""

from .dataset import (
    CorrectionEvent,
    Dataset,
    Sample,
    load_dataset,
    save_dataset,
    stratified_split,
)
from .model import SciuModel, init_model
from .pipeline import PipelineConfig, run_pipeline, sweep
from .synth import SynthConfig, generate
from .trainer import TrainConfig, train_stage

__version__ = "0.1.0"
