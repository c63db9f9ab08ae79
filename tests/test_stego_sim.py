import numpy as np
import pytest

from stegokit import codec, stego_sim
from stegokit.stego_sim import (
    DatasetIntegrityError,
    DatasetManifest,
    EmbedSpec,
    PairRecord,
    audit_manifest,
    build_dataset,
    embed,
    prepare_cover,
    read_manifest,
    synthetic_cover,
    write_manifest,
)


class TestPrepareCover:
    def test_constant_128_gives_zero_coefficients(self):
        grid = prepare_cover(np.full((16, 16), 128, np.uint8), 75)
        assert np.abs(grid.coeffs).max() == 0

    def test_quality_100_rounds_unquantized_dct(self):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
        grid = prepare_cover(pixels, 100)
        raw = codec.forward_dct_blocks(codec.ImagePlane(pixels.astype(np.float64)))
        expect = np.sign(raw) * np.floor(np.abs(raw) + 0.5)
        assert np.array_equal(grid.coeffs, expect.astype(np.int16))

    def test_jpeg75_roundtrip_psnr(self):
        rng = np.random.default_rng(1)
        for pid in range(5):
            pixels = synthetic_cover(64, np.random.default_rng([7, pid]))
            plane = codec.decompress(prepare_cover(pixels, 75)).values
            mse = ((plane - pixels.astype(np.float64)) ** 2).mean()
            psnr = 10 * np.log10(255.0**2 / mse)
            assert psnr > 30.0, f"cover {pid}: PSNR {psnr:.1f} dB"

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            prepare_cover(np.zeros((10, 16), np.uint8), 75)


class TestEmbed:
    def grid(self, seed=0, size=32):
        pixels = synthetic_cover(size, np.random.default_rng(seed))
        return prepare_cover(pixels, 75)

    def test_exact_count_and_support(self):
        grid = self.grid()
        ac = (grid.coeffs != 0) & stego_sim._ac_mask(grid.coeffs.shape)
        n_ac = int(ac.sum())
        rate = 0.1
        stego, noise = embed(grid, EmbedSpec(rate=rate, seed=1))
        changed = noise.coeffs != 0
        assert changed.sum() == int(rate * n_ac)
        assert (changed <= ac).all()  # support within nonzero AC

    def test_dc_never_modified(self):
        grid = self.grid(seed=2)
        _, noise = embed(grid, EmbedSpec(rate=1.0, seed=2))
        assert np.abs(noise.coeffs[0::8, 0::8]).max() == 0

    def test_l1_distance_equals_count(self):
        grid = self.grid(seed=3)
        stego, noise = embed(grid, EmbedSpec(rate=0.25, seed=3))
        l1 = np.abs(stego.coeffs.astype(np.int32) - grid.coeffs.astype(np.int32)).sum()
        assert l1 == np.count_nonzero(noise.coeffs)

    def test_zero_count_returns_identical_cover(self):
        grid = self.grid(seed=4)
        n_ac = int(((grid.coeffs != 0) & stego_sim._ac_mask(grid.coeffs.shape)).sum())
        rate = 0.5 / n_ac  # floor(rate*n) == 0
        stego, noise = embed(grid, EmbedSpec(rate=rate, seed=4))
        assert np.array_equal(stego.coeffs, grid.coeffs)
        assert np.abs(noise.coeffs).max() == 0

    def test_degenerate_cover_rejected(self):
        grid = codec.DctGrid(
            coeffs=np.zeros((8, 8), np.int16),
            quant_table=codec.quant_table_for_quality(75),
        )
        with pytest.raises(ValueError):
            embed(grid, EmbedSpec(rate=0.5))

    def test_signs_are_zero_mean(self):
        grid = self.grid(seed=5, size=64)
        total, count = 0.0, 0
        for trial in range(40):
            _, noise = embed(grid, EmbedSpec(rate=0.5, seed=trial))
            total += noise.coeffs.sum()
            count += np.count_nonzero(noise.coeffs)
        # sum of n fair +-1 draws: zero mean, sd sqrt(n)
        assert abs(total) < 3.0 * np.sqrt(count)

    def test_seeded_reproducibility(self):
        grid = self.grid(seed=6)
        a = embed(grid, EmbedSpec(rate=0.3, seed=9))[1]
        b = embed(grid, EmbedSpec(rate=0.3, seed=9))[1]
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            EmbedSpec(rate=0.0)
        with pytest.raises(ValueError):
            EmbedSpec(rate=1.5)


class TestSyntheticCovers:
    def test_deterministic_given_rng_seed(self):
        a = synthetic_cover(32, np.random.default_rng(42))
        b = synthetic_cover(32, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_range_and_dtype(self):
        img = synthetic_cover(40, np.random.default_rng(0))
        assert img.dtype == np.uint8
        assert img.shape == (40, 40)

    def test_covers_have_usable_ac_content(self):
        for pid in range(10):
            img = synthetic_cover(64, np.random.default_rng([0, pid]))
            grid = prepare_cover(img, 75)
            ac = (grid.coeffs != 0) & stego_sim._ac_mask(grid.coeffs.shape)
            assert ac.sum() > 50, f"cover {pid} nearly empty"


class TestBuildDataset:
    def test_split_sizes_and_disjointness(self, tmp_path):
        manifest = build_dataset(
            tmp_path, EmbedSpec(rate=0.2, seed=1), qf=75, split_seed=5,
            synthetic=10, size=16,
        )
        train = manifest.split("train")
        test = manifest.split("test")
        assert len(train) == 5 and len(test) == 5
        assert not ({r.cover_path for r in train} & {r.cover_path for r in test})
        for rec in manifest.records:
            assert (tmp_path / rec.cover_path).exists()
            assert (tmp_path / rec.stego_path).exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            build_dataset(
                tmp_path / sub, EmbedSpec(rate=0.2, seed=1), split_seed=5,
                synthetic=6, size=16,
            )
        a = (tmp_path / "a" / "manifest.jsonl").read_text()
        b = (tmp_path / "b" / "manifest.jsonl").read_text()
        assert a == b
        for rec in read_manifest(tmp_path / "a" / "manifest.jsonl").records:
            pa = (tmp_path / "a" / rec.cover_path).read_bytes()
            pb = (tmp_path / "b" / rec.cover_path).read_bytes()
            assert pa == pb

    def test_parallel_build_matches_serial(self, tmp_path):
        build_dataset(tmp_path / "s", EmbedSpec(rate=0.2, seed=2), synthetic=6, size=16)
        build_dataset(
            tmp_path / "p", EmbedSpec(rate=0.2, seed=2), synthetic=6, size=16, workers=4
        )
        a = (tmp_path / "s" / "manifest.jsonl").read_text()
        b = (tmp_path / "p" / "manifest.jsonl").read_text()
        assert a == b
        for rec in read_manifest(tmp_path / "s" / "manifest.jsonl").records:
            assert (tmp_path / "s" / rec.stego_path).read_bytes() == (
                tmp_path / "p" / rec.stego_path
            ).read_bytes()

    def test_pgm_covers_accepted(self, tmp_path):
        from stegokit.containers import write_pgm

        cover_dir = tmp_path / "pgms"
        cover_dir.mkdir()
        for i in range(4):
            write_pgm(cover_dir / f"c{i}.pgm", synthetic_cover(16, np.random.default_rng(i)))
        covers = stego_sim.load_covers_dir(cover_dir)
        manifest = build_dataset(
            tmp_path / "out", EmbedSpec(rate=0.3, seed=0), covers=covers
        )
        assert len(manifest.records) == 4

    def test_too_few_covers_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            build_dataset(tmp_path, EmbedSpec(rate=0.2), synthetic=1, size=16)


GOOD_RECORD = '{"cover_path": "c.jcg", "pair_id": 0, "split": "train", "stego_path": "s.jcg"}'


class TestManifest:
    def test_roundtrip(self, tmp_path):
        manifest = build_dataset(
            tmp_path, EmbedSpec(rate=0.2, seed=1), synthetic=4, size=16
        )
        back = read_manifest(tmp_path / "manifest.jsonl")
        assert back.config == manifest.config
        assert back.records == manifest.records

    def test_record_bytes(self, tmp_path):
        # dataset hashes depend on this exact layout
        manifest = DatasetManifest(
            config={"qf": 75}, records=(PairRecord("covers/a.jcg", "stegos/a.jcg", 0, "train"),)
        )
        write_manifest(tmp_path / "m.jsonl", manifest)
        assert (tmp_path / "m.jsonl").read_text() == (
            '{"config": {"qf": 75}}\n'
            '{"cover_path": "covers/a.jcg", "pair_id": 0, "split": "train", '
            '"stego_path": "stegos/a.jcg"}\n'
        )

    @pytest.mark.parametrize("lineno, text, expected", [
        (1, '{"settings": {}}', "line 1"),
        (2, '{"cover_path": "c.jcg", "pair_id": 0, "split": "train"}',
         "line 2: missing field 'stego_path'"),
        (2, GOOD_RECORD[:-1] + ', "extra": 1}', "line 2: unknown fields"),
        (2, GOOD_RECORD.replace('"pair_id": 0', '"pair_id": "0"'),
         "line 2: field 'pair_id' must be int"),
        (3, GOOD_RECORD[:-1], "line 3: bad JSON"),
        (3, "[1, 2]", "line 3: expected a JSON object"),
    ], ids=["header", "missing-field", "unknown-field", "wrong-type", "bad-json", "not-an-object"])
    def test_malformed_line_names_path_line_and_field(self, lineno, text, expected, tmp_path):
        lines = ['{"config": {}}', GOOD_RECORD, GOOD_RECORD]
        lines[lineno - 1] = text
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetIntegrityError, match=expected) as exc:
            read_manifest(path)
        assert str(path) in str(exc.value)

    def test_empty_manifest_is_an_integrity_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DatasetIntegrityError, match="empty manifest") as exc:
            read_manifest(path)
        assert str(path) in str(exc.value)

    def test_duplicate_pair_id_names_file_and_id(self, tmp_path):
        path = tmp_path / "m.jsonl"
        manifest = DatasetManifest(config={}, records=(
            PairRecord("covers/a.jcg", "stegos/a.jcg", 7, "train"),
            PairRecord("covers/b.jcg", "stegos/b.jcg", 7, "test"),
        ))
        write_manifest(path, manifest)
        with pytest.raises(DatasetIntegrityError, match="duplicate pair_id 7") as exc:
            stego_sim.load_split_grids(path, "train")
        assert str(path) in str(exc.value)

    def test_audit_detects_duplicated_cover_across_splits(self):
        records = (
            PairRecord("covers/a.jcg", "stegos/a.jcg", 0, "train"),
            PairRecord("covers/a.jcg", "stegos/b.jcg", 1, "test"),
        )
        with pytest.raises(DatasetIntegrityError, match="both splits"):
            audit_manifest(DatasetManifest(config={}, records=records))

    def test_audit_detects_duplicate_pair_ids(self):
        records = (
            PairRecord("covers/a.jcg", "stegos/a.jcg", 0, "train"),
            PairRecord("covers/b.jcg", "stegos/b.jcg", 0, "test"),
        )
        with pytest.raises(DatasetIntegrityError, match="pair_id"):
            audit_manifest(DatasetManifest(config={}, records=records))

    def test_audit_detects_lopsided_split(self):
        records = tuple(
            PairRecord(f"covers/{i}.jcg", f"stegos/{i}.jcg", i, "train") for i in range(4)
        )
        with pytest.raises(DatasetIntegrityError, match="split sizes"):
            audit_manifest(DatasetManifest(config={}, records=records))

    def test_audit_detects_unknown_split(self):
        records = (PairRecord("covers/a.jcg", "stegos/a.jcg", 0, "validation"),)
        with pytest.raises(DatasetIntegrityError, match="unknown split"):
            audit_manifest(DatasetManifest(config={}, records=records))

    def test_load_split_grids(self, tmp_path):
        build_dataset(tmp_path, EmbedSpec(rate=0.2, seed=1), synthetic=6, size=16)
        covers, stegos = stego_sim.load_split_grids(tmp_path / "manifest.jsonl", "train")
        assert len(covers) == len(stegos) == 3
        assert covers[0].coeffs.shape == (16, 16)

    def test_write_then_audit_corrupted(self, tmp_path):
        manifest = build_dataset(
            tmp_path, EmbedSpec(rate=0.2, seed=1), synthetic=4, size=16
        )
        # corrupt: point a test record at a train cover
        records = list(manifest.records)
        train_rec = next(r for r in records if r.split == "train")
        idx = next(i for i, r in enumerate(records) if r.split == "test")
        records[idx] = PairRecord(train_rec.cover_path, records[idx].stego_path,
                                  records[idx].pair_id, "test")
        bad = DatasetManifest(config=manifest.config, records=tuple(records))
        write_manifest(tmp_path / "bad.jsonl", bad)
        with pytest.raises(DatasetIntegrityError):
            stego_sim.load_split_grids(tmp_path / "bad.jsonl", "test")
