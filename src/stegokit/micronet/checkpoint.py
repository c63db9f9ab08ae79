"""Checkpoint container: JSON header followed by little-endian f32 blobs, one
per parameter/state array, in header order. Bit-exact across platforms."""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .model import HybridConfig, HybridModel

MAGIC = b"SKPT"
FORMAT_VERSION = 1


def _entries(model: HybridModel):
    """Parameters first, then BN running stats, per layer, in model order."""
    for lname, layer in model.named_layers():
        for attr in layer.param_names():
            yield f"{lname}.{attr}", layer, attr
        for attr in layer.state_names():
            yield f"{lname}.{attr}", layer, attr


def save_checkpoint(model: HybridModel, path, iteration: int = 0) -> None:
    entries = list(_entries(model))
    header = {
        "format": FORMAT_VERSION,
        "arch": model.config.to_json_dict(),
        "iteration": int(iteration),
        "seed": int(model.seed),
        "qt_order": list(model.config.qt_labels),
        "layers": [
            {"name": name, "shape": list(getattr(layer, attr).shape)}
            for name, layer, attr in entries
        ],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, layer, attr in entries:
            fh.write(np.ascontiguousarray(getattr(layer, attr), dtype="<f4").tobytes())


def load_checkpoint(path, dtype=np.float32) -> tuple[HybridModel, dict]:
    """Rebuild the model skeleton from the header and fill in its arrays.

    Returns (model, header); the model comes back in eval mode.
    """
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    (length,) = struct.unpack_from("<I", data, 4)
    header = json.loads(data[8 : 8 + length].decode("utf-8"))
    if header["format"] != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint format {header['format']}")
    config = HybridConfig.from_json_dict(header["arch"])
    model = HybridModel(config, seed=header["seed"], dtype=dtype)
    offset = 8 + length
    by_name = {name: (layer, attr) for name, layer, attr in _entries(model)}
    for record in header["layers"]:
        layer, attr = by_name[record["name"]]
        shape = tuple(record["shape"])
        if getattr(layer, attr).shape != shape:
            raise ValueError(f"{path}: shape mismatch for {record['name']}")
        count = int(np.prod(shape)) if shape else 1
        values = np.frombuffer(data, dtype="<f4", count=count, offset=offset)
        if values.size != count:
            raise ValueError(f"{path}: truncated blob for {record['name']}")
        offset += 4 * count
        setattr(layer, attr, values.reshape(shape).astype(dtype))
    return model.eval_mode(), header
