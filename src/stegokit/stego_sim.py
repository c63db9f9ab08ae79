"""Cover/stego dataset synthesis: JPEG-style cover preparation, seeded +-1
coefficient embedding, synthetic texture covers, and leak-free manifests."""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .codec import (
    BLOCK,
    DctGrid,
    ImagePlane,
    StegoNoiseGrid,
    forward_dct_blocks,
    quant_table_for_quality,
)
from .containers import read_jcg, read_pgm, write_jcg


class DatasetIntegrityError(RuntimeError):
    """Manifest violates the pairing/split contract."""


@dataclass(frozen=True)
class EmbedSpec:
    """Fraction of nonzero AC coefficients to modify, plus the RNG seed."""

    rate: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"embed rate must lie in (0, 1], got {self.rate!r}")


@dataclass(frozen=True)
class PairRecord:
    cover_path: str
    stego_path: str
    pair_id: int
    split: str  # "train" | "test"


@dataclass(frozen=True)
class DatasetManifest:
    config: dict
    records: tuple

    def split(self, name: str):
        return [r for r in self.records if r.split == name]


def prepare_cover(pixels: np.ndarray, qf: int) -> DctGrid:
    """Blockwise DCT of an 8-bit grayscale plane, quantized for quality qf."""
    coeff = forward_dct_blocks(ImagePlane(pixels))
    h, w = coeff.shape
    qt = quant_table_for_quality(qf)
    scaled = coeff.reshape(h // BLOCK, BLOCK, w // BLOCK, BLOCK) / qt[None, :, None, :]
    quantized = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    return DctGrid(coeffs=quantized.reshape(h, w).astype(np.int16), quant_table=qt)


def _ac_mask(shape) -> np.ndarray:
    mask = np.ones(shape, dtype=bool)
    mask[0::BLOCK, 0::BLOCK] = False
    return mask


def embed(cover: DctGrid, spec: EmbedSpec, rng=None) -> tuple[DctGrid, StegoNoiseGrid]:
    """Add +-1 to a seeded uniform sample of the cover's nonzero AC positions.

    Exactly floor(rate * #nonzero-AC) distinct positions change; DC and zero
    coefficients never do. Returns (stego grid, noise grid).
    """
    rng = np.random.default_rng(spec.seed) if rng is None else rng
    candidates = np.flatnonzero((cover.coeffs != 0) & _ac_mask(cover.coeffs.shape))
    if candidates.size == 0:
        raise ValueError("degenerate cover: no nonzero AC coefficients to modify")
    count = int(spec.rate * candidates.size)
    noise = np.zeros(cover.coeffs.size, dtype=np.int16)
    if count:
        chosen = rng.choice(candidates, size=count, replace=False)
        noise[chosen] = rng.integers(0, 2, size=count) * 2 - 1
    noise = noise.reshape(cover.coeffs.shape)
    stego = cover.coeffs.astype(np.int32) + noise
    if np.abs(stego).max() > 32767:
        raise ValueError("embedding overflows the signed 16-bit coefficient range")
    return (
        DctGrid(coeffs=stego.astype(np.int16), quant_table=cover.quant_table),
        StegoNoiseGrid(coeffs=noise),
    )


def _box_blur(values: np.ndarray, radius: int) -> np.ndarray:
    """Separable box blur with edge padding, window 2*radius + 1."""
    if radius < 1:
        return values
    win = 2 * radius + 1
    for axis in (0, 1):
        padded = np.pad(values, [(radius + 1, radius) if a == axis else (0, 0) for a in (0, 1)],
                        mode="edge")
        csum = padded.cumsum(axis=axis)
        if axis == 0:
            values = (csum[win:, :] - csum[:-win, :]) / win
        else:
            values = (csum[:, win:] - csum[:, :-win]) / win
    return values


def synthetic_cover(size: int, rng) -> np.ndarray:
    """Seeded smoothed-noise texture, 8-bit grayscale.

    Three box-blur passes of white noise give a roughly Gaussian-correlated
    field; a touch of fine noise keeps mid-frequency coefficients alive.
    """
    field = rng.normal(0.0, 1.0, (size, size))
    radius = int(rng.integers(1, 7))
    for _ in range(3):
        field = _box_blur(field, radius)
    std = field.std()
    if std < 1e-9:
        std = 1.0
    amplitude = rng.uniform(25.0, 60.0)
    fine = rng.normal(0.0, rng.uniform(1.0, 5.0), (size, size))
    level = rng.uniform(100.0, 156.0)
    pixels = level + amplitude * field / std + fine
    return np.clip(np.rint(pixels), 0, 255).astype(np.uint8)


def build_dataset(
    out_dir,
    spec: EmbedSpec,
    qf: int = 75,
    split_seed: int = 0,
    covers: list | None = None,
    synthetic: int | None = None,
    size: int = 256,
    workers: int = 1,
) -> DatasetManifest:
    """Write cover/stego JCG pairs plus a JSON Lines manifest.

    Covers come either from a list of (name, uint8 plane) pairs or from the
    synthetic texture generator. Pairs are split 50/50 into train/test by a
    seeded permutation; per-pair RNG streams derive from (spec.seed, pair_id)
    so parallel processing cannot perturb the outputs.
    """
    if (covers is None) == (synthetic is None):
        raise ValueError("exactly one of covers/synthetic must be given")
    if synthetic is not None:
        if synthetic < 2:
            raise ValueError("at least 2 covers required")
        names = [f"syn{idx:05d}" for idx in range(synthetic)]
    else:
        if len(covers) < 2:
            raise ValueError("at least 2 covers required")
        names = [name for name, _ in covers]
        if len(set(names)) != len(names):
            raise ValueError("duplicate cover names")

    out_dir = Path(out_dir)
    (out_dir / "covers").mkdir(parents=True, exist_ok=True)
    (out_dir / "stegos").mkdir(parents=True, exist_ok=True)

    n = len(names)
    order = np.random.default_rng(split_seed).permutation(n)
    split_of = {}
    for rank, pair_id in enumerate(order):
        split_of[int(pair_id)] = "train" if rank < (n + 1) // 2 else "test"

    def one_pair(pair_id: int) -> PairRecord:
        name = names[pair_id]
        if synthetic is not None:
            pixels = synthetic_cover(size, np.random.default_rng([spec.seed, 2, pair_id]))
        else:
            pixels = covers[pair_id][1]
        grid = prepare_cover(pixels, qf)
        stego, _ = embed(grid, spec, rng=np.random.default_rng([spec.seed, 3, pair_id]))
        cover_path = out_dir / "covers" / f"{name}.jcg"
        stego_path = out_dir / "stegos" / f"{name}.jcg"
        write_jcg(cover_path, grid)
        write_jcg(stego_path, stego)
        return PairRecord(
            cover_path=str(cover_path.relative_to(out_dir)),
            stego_path=str(stego_path.relative_to(out_dir)),
            pair_id=pair_id,
            split=split_of[pair_id],
        )

    with ThreadPoolExecutor(max_workers=workers) as pool:
        records = list(pool.map(one_pair, range(n)))

    manifest = DatasetManifest(
        config={
            "qf": int(qf),
            "rate": spec.rate,
            "seed": spec.seed,
            "split_seed": int(split_seed),
            "image_size": int(size if synthetic is not None else covers[0][1].shape[0]),
            "pairs": n,
        },
        records=tuple(records),
    )
    audit_manifest(manifest)
    write_manifest(out_dir / "manifest.jsonl", manifest)
    return manifest


def write_manifest(path, manifest: DatasetManifest) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps({"config": manifest.config}, sort_keys=True) + "\n")
        for r in manifest.records:
            fh.write(json.dumps(asdict(r), sort_keys=True) + "\n")


def read_manifest(path) -> DatasetManifest:
    """Inverse of write_manifest. Raises DatasetIntegrityError, naming the
    line and the field, unless line 1 is {"config": {...}} and every other
    line holds exactly the PairRecord fields with their types."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise DatasetIntegrityError(f"{path}: empty manifest")
    types = get_type_hints(PairRecord)
    header, records = None, []
    for lineno, line in enumerate(lines, start=1):
        where = f"{path}: line {lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetIntegrityError(f"{where}: bad JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise DatasetIntegrityError(f"{where}: expected a JSON object")
        if header is None:
            if set(obj) != {"config"} or not isinstance(obj["config"], dict):
                raise DatasetIntegrityError(f'{where}: expected {{"config": {{...}}}}')
            header = obj["config"]
            continue
        for name, kind in types.items():
            if name not in obj:
                raise DatasetIntegrityError(f"{where}: missing field {name!r}")
            if not isinstance(obj[name], kind):
                raise DatasetIntegrityError(f"{where}: field {name!r} must be {kind.__name__}")
        unknown = sorted(set(obj) - set(types))
        if unknown:
            raise DatasetIntegrityError(f"{where}: unknown fields {unknown}")
        records.append(PairRecord(**obj))
    return DatasetManifest(config=header, records=tuple(records))


def audit_manifest(manifest: DatasetManifest, source="manifest") -> None:
    """Raise DatasetIntegrityError on duplicate pairs, split leaks, or a
    lopsided split; each message starts with ``source``, the manifest's file."""
    ids = set()
    for r in manifest.records:
        if r.pair_id in ids:
            raise DatasetIntegrityError(f"{source}: duplicate pair_id {r.pair_id}")
        ids.add(r.pair_id)
    covers = {"train": set(), "test": set()}
    for r in manifest.records:
        if r.split not in covers:
            raise DatasetIntegrityError(f"{source}: unknown split {r.split!r}")
        covers[r.split].add(r.cover_path)
    leaked = covers["train"] & covers["test"]
    if leaked:
        raise DatasetIntegrityError(
            f"{source}: covers appear in both splits: {sorted(leaked)[:3]}"
        )
    n_train, n_test = len(covers["train"]), len(covers["test"])
    if abs(n_train - n_test) > 1:
        raise DatasetIntegrityError(
            f"{source}: split sizes {n_train}/{n_test} differ by more than 1"
        )


def load_split_grids(manifest_path, split: str):
    """(cover DctGrids, stego DctGrids) for one split, pair-aligned."""
    manifest_path = Path(manifest_path)
    manifest = read_manifest(manifest_path)
    audit_manifest(manifest, manifest_path)
    base = manifest_path.parent
    records = manifest.split(split)
    if not records:
        raise DatasetIntegrityError(f"{manifest_path}: no {split!r} records")
    covers = [read_jcg(base / r.cover_path) for r in records]
    stegos = [read_jcg(base / r.stego_path) for r in records]
    return covers, stegos


def load_covers_dir(path) -> list:
    """All PGM covers under a directory as (name, plane), sorted by name."""
    files = sorted(Path(path).glob("*.pgm"))
    if not files:
        raise ValueError(f"no .pgm covers found in {path}")
    return [(f.stem, read_pgm(f)) for f in files]
