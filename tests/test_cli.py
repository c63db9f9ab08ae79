import json
import tracemalloc

import numpy as np
import pytest

from stegokit import cli
from stegokit.micronet import checkpoint, load_checkpoint
from stegokit.micronet.model import HybridConfig, HybridModel
from stegokit.residual import dct_basis, front_stage_batch, parse_qt_specs
from stegokit.trainer import ensemble_vote


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = cli.main(
        ["make-dataset", "--synthetic", "12", "--size", "16", "--rate", "0.3",
         "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    return out


TINY_TRAIN = [
    "--width-scale", "0.125", "--batch-size", "4", "--max-iter", "4",
    "--eval-every", "2", "--stepsize", "2",
]


@pytest.fixture(scope="module")
def trained_dir(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = cli.main(
        ["train", "--data", str(dataset_dir / "manifest.jsonl"), "--out", str(out),
         "--seed", "5", *TINY_TRAIN]
    )
    assert code == 0
    return out


class TestMakeDataset:
    def test_split_summary(self, dataset_dir, capsys):
        code, out, _ = run(
            ["make-dataset", "--synthetic", "8", "--size", "16", "--rate", "0.2",
             "--out", str(dataset_dir.parent / "d2")], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["train_pairs"] == 4 and report["test_pairs"] == 4

    def test_rerun_identical_manifest(self, tmp_path, capsys):
        args = ["make-dataset", "--synthetic", "6", "--size", "16", "--rate", "0.2",
                "--seed", "3"]
        assert run(args + ["--out", str(tmp_path / "a")], capsys)[0] == 0
        assert run(args + ["--out", str(tmp_path / "b")], capsys)[0] == 0
        assert (tmp_path / "a" / "manifest.jsonl").read_bytes() == (
            tmp_path / "b" / "manifest.jsonl"
        ).read_bytes()

    def test_bad_rate_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            ["make-dataset", "--synthetic", "4", "--rate", "1.5", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "rate" in err

    def test_missing_source_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["make-dataset", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_covers_dir_missing_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            ["make-dataset", "--covers", str(tmp_path / "nope"), "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 2  # surfaced as "no .pgm covers found"

    def test_corrupt_cover_exits_2_naming_the_file(self, tmp_path, capsys):
        covers = tmp_path / "covers"
        covers.mkdir()
        (covers / "cut.pgm").write_bytes(b"P5\n2")
        code, _, err = run(
            ["make-dataset", "--covers", str(covers), "--out", str(tmp_path / "o")], capsys
        )
        assert code == 2
        assert str(covers / "cut.pgm") in err and "height" in err


class TestTrain:
    def test_outputs_exist(self, trained_dir, capsys):
        assert (trained_dir / "model.ckpt").exists()
        lines = (trained_dir / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "iteration,train_loss,test_accuracy,cover_acc,stego_acc,lr,seconds"
        assert len(lines) == 4  # evals at iterations 2 and 4

    def test_single_qt_group(self, dataset_dir, tmp_path, capsys):
        code, out, _ = run(
            ["train", "--data", str(dataset_dir / "manifest.jsonl"),
             "--out", str(tmp_path), "--qt", "4:2", *TINY_TRAIN], capsys
        )
        assert code == 0
        from stegokit.micronet import load_checkpoint

        model, header = load_checkpoint(tmp_path / "model.ckpt")
        assert header["qt_order"] == ["4:2"]
        assert len(model.subnets) == 1

    def test_no_bn_flag(self, dataset_dir, tmp_path, capsys):
        code, _, _ = run(
            ["train", "--data", str(dataset_dir / "manifest.jsonl"),
             "--out", str(tmp_path), "--no-bn", *TINY_TRAIN], capsys
        )
        assert code == 0
        from stegokit.micronet import load_checkpoint

        model, _ = load_checkpoint(tmp_path / "model.ckpt")
        names = [n for n, _ in model.named_layers()]
        assert not any(".bn" in n for n in names)

    def test_missing_manifest_exits_3(self, tmp_path, capsys):
        code, _, _ = run(
            ["train", "--data", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path),
             *TINY_TRAIN], capsys
        )
        assert code == 3

    def test_corrupt_split_exits_4(self, dataset_dir, tmp_path, capsys):
        manifest = (dataset_dir / "manifest.jsonl").read_text().splitlines()
        # rewrite every record as train -> lopsided split
        rows = [manifest[0]]
        for line in manifest[1:]:
            rec = json.loads(line)
            rec["split"] = "train"
            rows.append(json.dumps(rec, sort_keys=True))
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(rows) + "\n")
        code, _, err = run(
            ["train", "--data", str(bad), "--out", str(tmp_path), *TINY_TRAIN], capsys
        )
        assert code == 4
        assert "integrity" in err

    def test_config_file_defaults(self, dataset_dir, tmp_path, capsys):
        cfg = {"width_scale": 0.125, "batch_size": 4, "max_iter": 2, "eval_every": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run(
            ["train", "--data", str(dataset_dir / "manifest.jsonl"),
             "--out", str(tmp_path / "o"), "--config", str(cfg_path),
             "--max-iter", "4"], capsys  # explicit flag beats config file
        )
        assert code == 0
        report = json.loads(out)
        assert report["config"]["max_iter"] == 4
        assert report["config"]["batch_size"] == 4

    def test_config_file_supplies_required_flags(self, dataset_dir, tmp_path, capsys):
        cfg = {"data": str(dataset_dir / "manifest.jsonl"), "out": str(tmp_path / "o"),
               "width_scale": 0.125, "batch_size": 4, "max_iter": 2, "eval_every": 2}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run(["train", "--config", str(cfg_path)], capsys)
        assert code == 0
        assert json.loads(out)["config"]["data"] == cfg["data"]
        assert (tmp_path / "o" / "model.ckpt").exists()

        # a required group (make-dataset's --covers | --synthetic) counts too
        cfg_path.write_text(json.dumps(
            {"synthetic": 4, "size": 16, "out": str(tmp_path / "d")}
        ))
        code, out, _ = run(["make-dataset", "--config", str(cfg_path)], capsys)
        assert code == 0
        assert json.loads(out)["train_pairs"] == 2

    @pytest.mark.parametrize("command, cfg", [
        ("train", {"batch_size": None}),
        ("train", {"batch_size": [4]}),
        ("train", {"batch_size": "four"}),
        ("train", {"first_stride": 3}),
        ("train", {"no_bn": "false"}),
        ("train", {"subnet": "type3"}),
        ("ensemble", {"checkpoints": "model.ckpt"}),
    ], ids=["null", "list-for-scalar", "not-an-int", "not-a-choice", "string-for-bool",
            "not-a-subnet", "scalar-for-list"])
    def test_bad_config_value_exits_2_naming_file_and_key(
        self, command, cfg, dataset_dir, tmp_path, capsys
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        extra = ["--out", str(tmp_path / "o"), *TINY_TRAIN] if command == "train" else []
        code, _, err = run(
            [command, "--data", str(dataset_dir / "manifest.jsonl"), *extra,
             "--config", str(cfg_path)], capsys
        )
        assert code == 2
        (key,) = cfg
        assert str(cfg_path) in err and key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("no_bn", [False, True])
    def test_config_bool_sets_store_true_flag(self, no_bn, dataset_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"no_bn": no_bn}))
        code, out, _ = run(
            ["train", "--data", str(dataset_dir / "manifest.jsonl"), "--out", str(tmp_path),
             "--config", str(cfg_path), *TINY_TRAIN], capsys
        )
        assert code == 0
        assert json.loads(out)["config"]["bn"] is not no_bn

    def test_run_config_keys(self, trained_dir):
        # line 1 of the metrics CSV; criterion 8 compares it between runs
        line = (trained_dir / "metrics.csv").read_text().splitlines()[0]
        assert sorted(json.loads(line[2:])) == [
            "base_lr", "batch_size", "bn", "checkpoint_every", "data", "eval_every",
            "first_stride", "gamma", "input_size", "kernels", "max_iter", "momentum",
            "qt", "seed", "stepsize", "subnet", "weight_decay", "width_scale",
        ]

    def test_unknown_config_key_exits_2(self, dataset_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"nonsense": 1}))
        code, _, err = run(
            ["train", "--data", str(dataset_dir / "manifest.jsonl"),
             "--out", str(tmp_path), "--config", str(cfg_path)], capsys
        )
        assert code == 2
        assert "nonsense" in err


@pytest.fixture(scope="module")
def ensemble_ckpts(dataset_dir, trained_dir, tmp_path_factory):
    """Three checkpoints with two front ends: trained_dir's (5x5 bank, Q&T
    4:1,4:2,4:4), a 3x3 bank with Q&T 4:2,4:1, and the first front end again."""
    paths = [trained_dir / "model.ckpt"]
    for seed, front in ((6, ["--kernels", "3", "--qt", "4:2,4:1"]), (7, [])):
        out = tmp_path_factory.mktemp(f"run{seed}")
        assert cli.main(
            ["train", "--data", str(dataset_dir / "manifest.jsonl"), "--out", str(out),
             "--seed", str(seed), *front, *TINY_TRAIN]
        ) == 0
        paths.append(out / "model.ckpt")
    return paths


class TestEvalAndEnsemble:
    def test_eval_reports_accuracy(self, dataset_dir, trained_dir, capsys):
        code, out, _ = run(
            ["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
             "--data", str(dataset_dir / "manifest.jsonl"), "--batch-size", "4"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert 0.0 <= report["accuracy"] <= 1.0
        assert report["pairs"] == 6

    def test_eval_missing_checkpoint_exits_3(self, dataset_dir, tmp_path, capsys):
        code, _, _ = run(
            ["eval", "--checkpoint", str(tmp_path / "missing.ckpt"),
             "--data", str(dataset_dir / "manifest.jsonl")], capsys
        )
        assert code == 3

    def test_ensemble_of_identical_checkpoints_matches_single(
        self, dataset_dir, trained_dir, capsys
    ):
        ck = str(trained_dir / "model.ckpt")
        code, single_out, _ = run(
            ["eval", "--checkpoint", ck, "--data", str(dataset_dir / "manifest.jsonl"),
             "--batch-size", "4"], capsys
        )
        single = json.loads(single_out)["accuracy"]
        code, out, _ = run(
            ["ensemble", "--checkpoints", ck, ck, ck, ck, ck,
             "--data", str(dataset_dir / "manifest.jsonl"), "--batch-size", "4"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert np.isclose(report["ensemble_accuracy"], single)
        assert report["single_accuracies"] == [single] * 5

    def test_single_accuracies_equal_eval(self, dataset_dir, ensemble_ckpts, capsys):
        data = str(dataset_dir / "manifest.jsonl")
        evals = []
        for ck in ensemble_ckpts:
            code, out, _ = run(["eval", "--checkpoint", str(ck), "--data", data,
                                "--batch-size", "4"], capsys)
            assert code == 0
            evals.append(json.loads(out)["accuracy"])
        code, out, _ = run(["ensemble", "--checkpoints", *map(str, ensemble_ckpts),
                            "--data", data, "--batch-size", "4"], capsys)
        assert code == 0
        assert json.loads(out)["single_accuracies"] == evals

    def test_mixed_front_ends_match_per_checkpoint_reference(
        self, dataset_dir, ensemble_ckpts, capsys
    ):
        manifest = dataset_dir / "manifest.jsonl"
        split = cli._load_planes(manifest, "test")
        planes = np.concatenate([split.covers, split.stegos])
        labels = np.repeat([0, 1], len(split))
        votes = []
        for ck in ensemble_ckpts:  # every plane at once, each with its own front end
            model, _ = load_checkpoint(ck)
            specs = parse_qt_specs(",".join(model.config.qt_labels))
            votes.append(model.predict(
                front_stage_batch(planes, dct_basis(model.config.kernel_size), specs)))
        code, out, _ = run(["ensemble", "--checkpoints", *map(str, ensemble_ckpts),
                            "--data", str(manifest), "--batch-size", "5"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["single_accuracies"] == [float((v == labels).mean()) for v in votes]
        voted = ensemble_vote(np.stack(votes))
        assert report["ensemble_accuracy"] == float((voted == labels).mean())

    def test_corrupt_last_checkpoint_exits_2_before_any_forward_pass(
        self, dataset_dir, ensemble_ckpts, tmp_path, capsys, monkeypatch
    ):
        bad = tmp_path / "last.ckpt"
        bad.write_bytes(ensemble_ckpts[-1].read_bytes()[:-4])
        forwards = []
        monkeypatch.setattr(HybridModel, "forward", lambda *a, **k: forwards.append(a))
        code, _, err = run(
            ["ensemble", "--checkpoints", *map(str, ensemble_ckpts[:2]), str(bad),
             "--data", str(dataset_dir / "manifest.jsonl")], capsys
        )
        assert code == 2
        assert str(bad) in err
        assert forwards == []

    @pytest.mark.parametrize("command", ["eval", "ensemble"])
    def test_input_size_mismatch_names_both_sizes(
        self, command, trained_dir, tmp_path, capsys
    ):
        data = tmp_path / "d32"
        assert cli.main(["make-dataset", "--synthetic", "4", "--size", "32", "--rate", "0.3",
                         "--out", str(data)]) == 0
        ck = str(trained_dir / "model.ckpt")
        checkpoints = ["--checkpoint", ck] if command == "eval" else ["--checkpoints", ck, ck, ck]
        code, _, err = run(
            [command, *checkpoints, "--data", str(data / "manifest.jsonl")], capsys
        )
        assert code == 2
        assert "16x16px" in err and "32x32px" in err

    def test_malformed_manifest_exits_4(self, dataset_dir, tmp_path, capsys):
        lines = (dataset_dir / "manifest.jsonl").read_text().splitlines()
        rec = json.loads(lines[1])
        del rec["split"]
        lines[1] = json.dumps(rec)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(["verify-prop1", "--data", str(bad)], capsys)
        assert code == 4
        assert f"{bad}: line 2: missing field 'split'" in err

    def test_even_checkpoint_count_exits_2(self, dataset_dir, trained_dir, capsys):
        ck = str(trained_dir / "model.ckpt")
        code, _, err = run(
            ["ensemble", "--checkpoints", ck, ck,
             "--data", str(dataset_dir / "manifest.jsonl")], capsys
        )
        assert code == 2
        assert "odd" in err


def _edit_header(data: bytes, edit) -> bytes:
    """Checkpoint bytes with edit(header) applied to the JSON header."""
    length = int.from_bytes(data[4:8], "little")
    header = json.loads(data[8 : 8 + length])
    edit(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return data[:4] + len(blob).to_bytes(4, "little") + blob + data[8 + length :]


def _drop_last_record(data: bytes) -> bytes:
    """A consistent-looking file whose header lacks the last record."""
    length = int.from_bytes(data[4:8], "little")
    last = json.loads(data[8 : 8 + length])["layers"][-1]
    size = 4 * int(np.prod(last["shape"]))
    return _edit_header(data[:-size], lambda h: h["layers"].pop())


def _nan_first_blob(data: bytes) -> bytes:
    """The file with its first stored value replaced by a NaN."""
    start = 8 + int.from_bytes(data[4:8], "little")
    return data[:start] + np.float32("nan").astype("<f4").tobytes() + data[start + 4 :]


def _rename_record(header):
    header["layers"][0]["name"] = "g0.b1.conv.x"


def _kernel_size_7(data: bytes) -> bytes:
    """A self-consistent file for 7x7 front-end kernels: 49 b1 input channels."""
    length = int.from_bytes(data[4:8], "little")
    records = json.loads(data[8 : 8 + length])["layers"]
    blobs, offset = [], 8 + length
    for record in records:
        size = 4 * int(np.prod(record["shape"]))
        blobs.append(data[offset : offset + size])
        offset += size
        if record["name"].endswith("b1.conv.w"):
            record["shape"][1] = 49
            blobs[-1] = bytes(4 * int(np.prod(record["shape"])))

    def edit(header):
        header["arch"]["kernel_size"] = 7
        header["layers"] = records

    return _edit_header(data[: 8 + length] + b"".join(blobs), edit)


def _true_first_width(data: bytes) -> bytes:
    """A self-consistent file (zero arrays) for the trained arch with a first
    conv width of 1, whose header then gives that width as JSON true."""
    length = int.from_bytes(data[4:8], "little")
    arch = json.loads(data[8 : 8 + length])["arch"]
    arch["widths"][0] = 1
    entries = list(checkpoint._entries(HybridModel(HybridConfig.from_json_dict(arch))))
    blobs = b"".join(bytes(4 * getattr(layer, attr).size) for _, layer, attr in entries)

    def edit(header):
        header["arch"] = dict(arch, widths=[True, *arch["widths"][1:]])
        header["layers"] = [
            {"name": name, "shape": list(getattr(layer, attr).shape)}
            for name, layer, attr in entries
        ]

    return _edit_header(data[: 8 + length] + blobs, edit)


CORRUPTIONS = {
    "truncated": lambda d: d[:-4],
    "over-long": lambda d: d + b"\0\0\0\0",
    "missing-record": _drop_last_record,
    "unknown-record": lambda d: _edit_header(d, _rename_record),
    "unknown-arch-key": lambda d: _edit_header(d, lambda h: h["arch"].update(dropout=0.5)),
    "missing-arch-field": lambda d: _edit_header(d, lambda h: h["arch"].pop("widths")),
    "missing-header-key": lambda d: _edit_header(d, lambda h: h.pop("seed")),
    "bad-seed": lambda d: _edit_header(d, lambda h: h.update(seed="x")),
    "bad-magic": lambda d: b"JUNK" + d[4:],
    "non-finite": _nan_first_blob,
    "int-qt-labels": lambda d: _edit_header(d, lambda h: h["arch"].update(qt_labels=[1, 2, 3])),
    "bad-qt-label": lambda d: _edit_header(
        d, lambda h: h["arch"].update(qt_labels=["4:1", "4:2", "x:y"])
    ),
    "kernel-size-7": _kernel_size_7,
    "qt-order-mismatch": lambda d: _edit_header(d, lambda h: h["qt_order"].reverse()),
    "bad-iteration": lambda d: _edit_header(d, lambda h: h.update(iteration="lots")),
    "negative-iteration": lambda d: _edit_header(d, lambda h: h.update(iteration=-5)),
    "bool-iteration": lambda d: _edit_header(d, lambda h: h.update(iteration=True)),
    "bool-seed": lambda d: _edit_header(d, lambda h: h.update(seed=False)),
    "bool-format": lambda d: _edit_header(d, lambda h: h.update(format=True)),
    "float-format": lambda d: _edit_header(d, lambda h: h.update(format=1.0)),
    "bool-width": _true_first_width,
    # type1's arrays do not depend on the first stride, so the file stays consistent.
    "bool-first-stride": lambda d: _edit_header(d, lambda h: h["arch"].update(first_stride=True)),
    "string-use-bn": lambda d: _edit_header(d, lambda h: h["arch"].update(use_bn="false")),
}
#: The field a corruption's message names right after the file, where checked.
NAMED_FIELD = {
    "int-qt-labels": "arch: qt_labels",
    "bad-qt-label": "arch: qt_labels",
    "kernel-size-7": "arch: kernel_size",
    "qt-order-mismatch": "qt_order",
    "bad-iteration": "iteration",
    "negative-iteration": "iteration",
    "bool-iteration": "iteration",
    "bool-seed": "seed",
    "bool-format": "format",
    "float-format": "format",
    "bool-width": "arch: widths",
    "bool-first-stride": "arch: first_stride",
    "string-use-bn": "arch: use_bn",
}


class TestCorruptCheckpoint:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_eval_exits_2_naming_the_file(
        self, corruption, dataset_dir, trained_dir, tmp_path, capsys
    ):
        bad = tmp_path / f"{corruption}.ckpt"
        bad.write_bytes(CORRUPTIONS[corruption]((trained_dir / "model.ckpt").read_bytes()))
        code, _, err = run(
            ["eval", "--checkpoint", str(bad), "--data", str(dataset_dir / "manifest.jsonl")],
            capsys,
        )
        assert code == 2
        assert f"{bad}: {NAMED_FIELD.get(corruption, '')}" in err

    def test_oversized_arch_claim_exits_2_before_building_the_model(
        self, dataset_dir, trained_dir, tmp_path, capsys
    ):
        # A small file whose header claims a model of hundreds of MB.
        def claim(header):
            header["arch"].update(widths=[16, 64, 4096], head_widths=[3000, 400, 200])

        bad = tmp_path / "claim.ckpt"
        bad.write_bytes(_edit_header((trained_dir / "model.ckpt").read_bytes(), claim))
        code, _, err = run(
            ["eval", "--checkpoint", str(bad), "--data", str(dataset_dir / "manifest.jsonl")],
            capsys,
        )
        assert code == 2
        assert f"{bad}: arch:" in err and "bytes" in err
        # The size check counts a skeleton of placeholders, not of its weights.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="arch: its arrays take"):
                load_checkpoint(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_many_group_claim_exits_2_before_building_the_subnets(
        self, trained_dir, tmp_path
    ):
        # The skeleton holds real per-channel arrays, up to 0.5 MB per group
        # at the widest widths, so the group count is bounded before it is built.
        def claim(header):
            labels = [f"4:{q}" for q in range(1, 1001)]
            header["arch"].update(widths=[8192] * 3, qt_labels=labels)
            header["qt_order"] = labels

        bad = tmp_path / "groups.ckpt"
        bad.write_bytes(_edit_header((trained_dir / "model.ckpt").read_bytes(), claim))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"{bad}: arch: qt_labels"):
                load_checkpoint(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestVerifyProp1:
    def test_report_fields(self, dataset_dir, tmp_path, capsys):
        out_path = tmp_path / "prop1.json"
        plot_path = tmp_path / "prop1.dat"
        code, out, _ = run(
            ["verify-prop1", "--data", str(dataset_dir / "manifest.jsonl"),
             "--out", str(out_path), "--plot", str(plot_path)], capsys
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["ratio_mean"] > 0
        assert report["max_energy_gap"] < 1e-9
        assert "dominance_median_ratio" in report
        lines = plot_path.read_text().splitlines()
        assert lines[0].startswith("# {")
        assert len(lines) > 100
        cols = lines[1].split()
        assert len(cols) == 2

    def test_missing_data_exits_3(self, tmp_path, capsys):
        code, _, _ = run(["verify-prop1", "--data", str(tmp_path / "x.jsonl")], capsys)
        assert code == 3

    def _edited_manifest(self, dataset_dir, tmp_path, edit):
        """A copy of the dataset's manifest, next to its files, with edit(records) applied."""
        lines = (dataset_dir / "manifest.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        edit(records)
        bad = dataset_dir / f"{tmp_path.name}.jsonl"
        bad.write_text("\n".join([lines[0], *map(json.dumps, records)]) + "\n")
        return bad

    def test_duplicate_pair_ids_exit_4(self, dataset_dir, tmp_path, capsys):
        def zero_ids(records):
            for rec in records:
                rec["pair_id"] = 0

        bad = self._edited_manifest(dataset_dir, tmp_path, zero_ids)
        code, _, err = run(["verify-prop1", "--data", str(bad)], capsys)
        assert code == 4
        assert f"{bad}: duplicate pair_id 0" in err

    def test_swapped_stegos_exit_4_naming_the_pair(self, dataset_dir, tmp_path, capsys):
        def swap(records):
            records[0]["stego_path"], records[1]["stego_path"] = (
                records[1]["stego_path"], records[0]["stego_path"])

        bad = self._edited_manifest(dataset_dir, tmp_path, swap)
        pair_id = json.loads(bad.read_text().splitlines()[1])["pair_id"]
        code, _, err = run(["verify-prop1", "--data", str(bad)], capsys)
        assert code == 4
        assert f"{bad}: pair_id {pair_id}: stego is not its cover" in err


class TestVerifyProp2:
    def test_default_scan_reports_zero(self, tmp_path, capsys):
        code, out, _ = run(
            ["verify-prop2", "--points", "5000", "--out", str(tmp_path / "p2.json"),
             "--plot", str(tmp_path / "p2.dat")], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert [s["fraction_nonzero"] for s in report["scans"]] == [0.0, 0.0, 0.0]
        assert np.isclose(report["straddle_probe"]["finite_difference"], 5.0)
        assert (tmp_path / "p2.dat").exists()

    def test_bad_qt_exits_2(self, capsys):
        code, _, _ = run(["verify-prop2", "--qt", "garbage"], capsys)
        assert code == 2


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("STEGOKIT_THREADS", "3")
        assert cli.worker_count() == 3

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("STEGOKIT_THREADS", "zero")
        with pytest.raises(ValueError):
            cli.worker_count()
