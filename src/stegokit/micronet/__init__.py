"""Learnable stage: minimal tensor layers with exact backward passes."""

from .model import (
    HybridConfig,
    HybridModel,
    build_hybrid_model,
    build_subnet,
    scaled_config,
)
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "HybridConfig",
    "HybridModel",
    "build_hybrid_model",
    "build_subnet",
    "load_checkpoint",
    "save_checkpoint",
    "scaled_config",
]
