"""Checkpoint container: JSON header followed by little-endian f32 blobs, one
per parameter/state array, in header order. Bit-exact across platforms."""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .model import HybridConfig, HybridModel, stored_values

MAGIC = b"SKPT"
FORMAT_VERSION = 1
HEADER_KEYS = ("format", "arch", "iteration", "seed", "qt_order", "layers")


class _NoDraw:
    # Init generator for a skeleton whose every array is read from the file.
    normal = staticmethod(lambda loc, scale, size: np.zeros(size, np.float32))


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

    Returns (model, header). The header must hold every key and
    architecture field, the arrays the architecture implies must fill the
    rest of the file (checked before the model is built), the records must
    name them in model order with their shapes, and every blob must be
    finite; any other file raises ValueError("<path>: <field>: ...").
    """
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise ValueError(f"{path}: magic: not a checkpoint file")
    length = struct.unpack_from("<I", data, 4)[0] if len(data) >= 8 else None
    if length is None or 8 + length > len(data):
        raise ValueError(f"{path}: header: truncated")
    try:
        header = json.loads(data[8 : 8 + length].decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: header: not JSON ({exc})") from None
    missing = [key for key in HEADER_KEYS if not isinstance(header, dict) or key not in header]
    if missing:
        raise ValueError(f"{path}: header: missing keys {missing}")
    if header["format"] != FORMAT_VERSION:
        raise ValueError(f"{path}: format: unsupported checkpoint format {header['format']}")
    if not isinstance(header["seed"], int) or header["seed"] < 0:
        raise ValueError(f"{path}: seed: not a non-negative integer: {header['seed']!r}")
    try:
        config = HybridConfig.from_json_dict(header["arch"])
        claimed, held = 4 * stored_values(config), len(data) - 8 - length
        if claimed != held:
            raise ValueError(f"its arrays take {claimed} bytes, the file holds {held}")
        model = HybridModel.__new__(HybridModel)
        model._build(config, header["seed"], _NoDraw, dtype)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: arch: {exc}") from None

    entries = list(_entries(model))
    records = header["layers"]
    if not isinstance(records, list):
        raise ValueError(f"{path}: layers: not a list")
    found = [r.get("name") if isinstance(r, dict) else None for r in records]
    expected = [name for name, _, _ in entries]
    if found != expected:
        pairs = zip(found, expected)
        i = next((i for i, (a, b) in enumerate(pairs) if a != b), min(len(found), len(expected)))
        got = repr(found[i]) if i < len(found) else "missing"
        want = repr(expected[i]) if i < len(expected) else "no record"
        raise ValueError(f"{path}: layers: record {i} is {got}, the model expects {want}")
    offset = 8 + length
    for (name, layer, attr), record in zip(entries, records):
        shape = getattr(layer, attr).shape
        if record.get("shape") != list(shape):
            raise ValueError(
                f"{path}: layers: {name} has shape {record.get('shape')}, "
                f"the model expects {list(shape)}"
            )
        count = int(np.prod(shape))
        values = np.frombuffer(data, dtype="<f4", count=count, offset=offset)
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: layers: {name}: non-finite values")
        offset += 4 * count
        setattr(layer, attr, values.reshape(shape).astype(dtype))
    return model, header
