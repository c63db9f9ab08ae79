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
HEADER_KEYS = ("format", "arch", "iteration", "seed", "qt_order", "layers")


class _NoDraw:
    # Init generator for a skeleton whose weights are read from the file: a
    # read-only zero-stride placeholder, so the skeleton costs O(channels)
    # memory whatever its header claims.
    normal = staticmethod(lambda loc, scale, size: np.broadcast_to(np.float32(0), size))


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


def load_checkpoint(path) -> tuple[HybridModel, dict]:
    """Rebuild the float32 model skeleton from the header and fill in its arrays.

    Returns (model, header). The header must hold every key, a valid arch
    and its qt_labels as qt_order; the arrays of the skeleton arch builds
    (read-only placeholders until filled) must fill the rest of the file, the
    records must name them in model order with their shapes, and every blob
    must be finite; any other file raises ValueError("<path>: <field>: ...").
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
    # JSON true/false are Python bools, which isinstance(..., int) accepts.
    if type(header["format"]) is not int or header["format"] != FORMAT_VERSION:
        raise ValueError(f"{path}: format: unsupported checkpoint format {header['format']}")
    for key in ("iteration", "seed"):
        if type(header[key]) is not int or header[key] < 0:
            raise ValueError(f"{path}: {key}: not a non-negative integer: {header[key]!r}")
    try:
        config = HybridConfig.from_json_dict(header["arch"])
        model = HybridModel.__new__(HybridModel)
        model._build(config, header["seed"], _NoDraw, np.float32)
        entries = list(_entries(model))
        claimed = 4 * sum(getattr(layer, attr).size for _, layer, attr in entries)
        held = len(data) - 8 - length
        if claimed != held:
            raise ValueError(f"its arrays take {claimed} bytes, the file holds {held}")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: arch: {exc}") from None
    if header["qt_order"] != list(config.qt_labels):
        raise ValueError(f"{path}: qt_order: {header['qt_order']!r} is not arch.qt_labels")

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
        setattr(layer, attr, values.reshape(shape).astype(np.float32))
    return model, header
