"""End-to-end checks for the command-line pipeline.

A tiny classifier is trained once per session and the artifact-producing
subcommands run against it in throwaway directories.
"""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from helpers import run_cli, write_ckpt, write_idx

from gfbs import cli
from gfbs.cli import main
from gfbs.data import _DESCRIPTORS
from gfbs.netgraph import build_network, load_checkpoint, parse_spec, save_checkpoint
from gfbs.saliency import CRITERIA, CSV_HEADER
from gfbs.surgeon import plan_prune
from gfbs.trainer import TrainConfig

DATA = "shapes:n_train=192,n_test=48,size=12,seed=3"
SPEC_TEXT = """\
name clitiny
input 1 12 12
conv_bn_relu 8 3 1 1
pool 0 2 2 0
conv_bn_relu 8 3 1 1
flatten
linear 10
"""


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "net.spec"
    spec_path.write_text(SPEC_TEXT)
    rc = main(["train", "--spec", str(spec_path), "--data", DATA,
               "--epochs", "4", "--batch-size", "32", "--lr", "0.05",
               "--seed", "1", "--out", str(root / "train")])
    assert rc == 0
    return root


@pytest.fixture(scope="session")
def saliency_dir(workdir):
    out = workdir / "sal"
    rc = main(["saliency", "--ckpt", str(workdir / "train" / "baseline.ckpt"),
               "--data", DATA, "--seed", "1", "--out", str(out)])
    assert rc == 0
    return out


class TestTrainCommand:
    def test_artifacts_written(self, workdir):
        out = workdir / "train"
        assert (out / "baseline.ckpt").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "manifest.json").exists()

    def test_manifest_records_command_and_seed(self, workdir):
        doc = json.loads((workdir / "train" / "manifest.json").read_text())
        assert doc["command"] == "train"
        assert doc["seed"] == 1
        assert "git_describe" in doc and "written_at" in doc

    def test_checkpoint_loads(self, workdir):
        net = load_checkpoint(workdir / "train" / "baseline.ckpt")
        assert net.spec.name == "clitiny"

    def test_epoch_override_trims_stale_milestones(self, workdir):
        # the classify preset schedules decays at epochs 40 and 50; a
        # 4-epoch run must not refuse those milestones, just drop them
        doc = json.loads((workdir / "train" / "manifest.json").read_text())
        assert doc["args"]["epochs"] == 4


class TestSaliencyCommand:
    def test_csv_written(self, saliency_dir):
        text = (saliency_dir / "saliency.csv").read_text()
        assert text.startswith("layer,channel,gamma,")
        assert len(text.strip().splitlines()) == 17  # header + 16 channels

    def test_lossless_records_file(self, saliency_dir):
        docs = json.loads((saliency_dir / "records.json").read_text())
        assert len(docs) == 16
        assert {"layer", "channel", "weight_l1", "has_relu", "score"} <= set(docs[0])

    def test_repeat_run_is_byte_identical(self, workdir, saliency_dir):
        out2 = workdir / "sal2"
        rc = main(["saliency", "--ckpt", str(workdir / "train" / "baseline.ckpt"),
                   "--data", DATA, "--seed", "1", "--out", str(out2)])
        assert rc == 0
        a = (saliency_dir / "saliency.csv").read_bytes()
        b = (out2 / "saliency.csv").read_bytes()
        assert a == b

    def test_criterion_flag_changes_scores(self, workdir, saliency_dir):
        out2 = workdir / "sal_gamma"
        rc = main(["saliency", "--ckpt", str(workdir / "train" / "baseline.ckpt"),
                   "--data", DATA, "--seed", "1", "--criterion", "gamma_only",
                   "--out", str(out2)])
        assert rc == 0
        assert (saliency_dir / "saliency.csv").read_bytes() != \
            (out2 / "saliency.csv").read_bytes()


class TestOracleCommand:
    def test_summary_has_agreement_stats(self, workdir, saliency_dir):
        out = workdir / "oracle"
        rc = main(["oracle", "--ckpt", str(workdir / "train" / "baseline.ckpt"),
                   "--data", DATA, "--saliency", str(saliency_dir / "saliency.csv"),
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "summary.json").read_text())
        assert -1.0 <= doc["spearman"] <= 1.0
        assert doc["zero_equivalence_max_diff"] < 1e-5
        assert (out / "oracle.csv").exists()


class TestPruneCommand:
    def test_plan_and_checkpoint(self, workdir, saliency_dir):
        out = workdir / "prune"
        rc = main(["prune", "--ckpt", str(workdir / "train" / "baseline.ckpt"),
                   "--saliency", str(saliency_dir / "saliency.csv"),
                   "--tau", "0.5", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "plan.json").read_text())
        assert doc["tau"] == 0.5
        assert len(doc["removed"]) == 8
        pruned = load_checkpoint(out / "pruned.ckpt")
        assert pruned.spec.blocks[0].channels == 4
        assert (out / "flops.txt").read_text().startswith("baseline total")

    def test_finetune_then_eval(self, workdir, saliency_dir, capsys):
        prune_out = workdir / "prune_ft"
        main(["prune", "--ckpt", str(workdir / "train" / "baseline.ckpt"),
              "--saliency", str(saliency_dir / "saliency.csv"),
              "--tau", "0.5", "--out", str(prune_out)])
        ft_out = workdir / "ft"
        rc = main(["finetune", "--ckpt", str(prune_out / "pruned.ckpt"),
                   "--data", DATA, "--epochs", "2", "--seed", "1",
                   "--out", str(ft_out)])
        assert rc == 0
        rc = main(["eval", "--ckpt", str(ft_out / "finetuned.ckpt"),
                   "--data", DATA, "--out", str(workdir / "eval")])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "accuracy" in printed
        doc = json.loads((workdir / "eval" / "eval.json").read_text())
        assert 0.0 <= doc["metric"] <= 1.0


    def prune_removed(self, ckpt, csv, out, *flags):
        rc = main(["prune", "--ckpt", str(ckpt), "--saliency", str(csv),
                   "--tau", "0.25", "--out", str(out), *flags])
        assert rc == 0
        doc = json.loads((out / "plan.json").read_text())
        return doc, [(r["layer"], r["channel"]) for r in doc["removed"]]

    def test_lambda_flag_rescores(self, workdir, tmp_path):
        # crafted so the shift decides: the Taylor term rises with the row
        # index k while beta_n falls with it; the CSV's own scores are all 0
        csv = tmp_path / "crafted.csv"
        rows = [",".join(CSV_HEADER)]
        for k, (layer, ch) in enumerate([(0, c) for c in range(8)] + [(2, c) for c in range(8)]):
            rows.append(f"{layer},{ch},1,1,1,1,{(k + 1) / 16},1,{(15 - k) / 16},1,0,{k},{k}")
        csv.write_text("\n".join(rows) + "\n")
        ckpt = workdir / "train" / "baseline.ckpt"
        doc0, removed0 = self.prune_removed(ckpt, csv, tmp_path / "lam0", "--lambda", "0")
        doc9, removed9 = self.prune_removed(ckpt, csv, tmp_path / "lam9", "--lambda", "9")
        assert (doc0["lambda"], doc9["lambda"]) == (0.0, 9.0)
        assert removed0 == [(0, 0), (0, 1), (0, 2), (0, 3)]
        assert removed9 == [(2, 4), (2, 5), (2, 6), (2, 7)]

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_ranks_from_the_csv_alone(self, workdir, saliency_dir, tmp_path, criterion):
        # scaling each filter by its own factor changes every filter norm of
        # the checkpoint; the plan must follow the norms the CSV recorded
        ckpt = workdir / "train" / "baseline.ckpt"
        net = load_checkpoint(ckpt)
        for i in net.bn_blocks():
            w = net.params[i].weight.data
            w *= (10.0 ** np.arange(len(w), dtype=w.dtype))[:, None, None, None]
        save_checkpoint(net, tmp_path / "rescaled.ckpt")
        csv = saliency_dir / "saliency.csv"
        flags = ("--criterion", criterion)
        self.prune_removed(ckpt, csv, tmp_path / "a", *flags)
        self.prune_removed(tmp_path / "rescaled.ckpt", csv, tmp_path / "b", *flags)
        assert (tmp_path / "a" / "plan.json").read_bytes() == \
            (tmp_path / "b" / "plan.json").read_bytes()

    def test_plan_failing_validation_makes_no_out(self, workdir, saliency_dir, tmp_path,
                                                  monkeypatch, capsys):
        def bad_plan(net, records, cfg):  # claims a floor its kept lists break
            return dataclasses.replace(plan_prune(net, records, cfg), min_keep=99)

        monkeypatch.setattr(cli, "plan_prune", bad_plan)
        rc = main(["prune", "--ckpt", str(workdir / "train" / "baseline.ckpt"),
                   "--saliency", str(saliency_dir / "saliency.csv"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "plan failed validation" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_layer_narrower_than_min_keep_is_kept_whole(self, tmp_path):
        # block 0 has 2 channels, below the default --min-keep of 4: no plan
        # can touch it, so it must not count as collapsed either
        spec = tmp_path / "narrow.spec"
        spec.write_text(SPEC_TEXT.replace("conv_bn_relu 8 3 1 1\npool",
                                          "conv_bn_relu 2 3 1 1\npool"))
        data = "shapes:n_train=32,n_test=8,size=12,seed=3"
        assert main(["train", "--spec", str(spec), "--data", data, "--epochs", "1",
                     "--out", str(tmp_path / "train")]) == 0
        ckpt = tmp_path / "train" / "baseline.ckpt"
        assert main(["saliency", "--ckpt", str(ckpt), "--data", data,
                     "--batch-size", "16", "--out", str(tmp_path / "sal")]) == 0
        assert main(["prune", "--ckpt", str(ckpt), "--saliency", str(tmp_path / "sal" /
                     "saliency.csv"), "--tau", "0.3", "--out", str(tmp_path / "prune")]) == 0
        doc = json.loads((tmp_path / "prune" / "plan.json").read_text())
        assert doc["kept_per_layer"][0] == [0, 1]
        assert doc["removed"]  # the wider layer was pruned

    def test_l1_filter_follows_filter_norms(self, workdir, saliency_dir, tmp_path):
        ckpt = workdir / "train" / "baseline.ckpt"
        csv = saliency_dir / "saliency.csv"
        doc, removed = self.prune_removed(ckpt, csv, tmp_path / "l1", "--criterion", "l1_filter")
        _, removed_gfbs = self.prune_removed(ckpt, csv, tmp_path / "gfbs")
        net = load_checkpoint(ckpt)
        norms = []
        for layer in (0, 2):
            l1 = np.abs(net.params[layer].weight.data).sum(axis=(1, 2, 3)).astype(np.float64)
            norms += [(v / np.linalg.norm(l1), layer, c) for c, v in enumerate(l1)]
        expected = sorted((layer, c) for _, layer, c in sorted(norms)[:4])
        assert doc["criterion"] == "l1_filter"
        assert removed == expected
        assert removed != removed_gfbs


class TestReportCommand:
    def test_aggregates_existing_artifacts(self, workdir, saliency_dir):
        prune_out = workdir / "prune_rep"
        main(["prune", "--ckpt", str(workdir / "train" / "baseline.ckpt"),
              "--saliency", str(saliency_dir / "saliency.csv"),
              "--tau", "0.5", "--out", str(prune_out)])
        out = workdir / "report"
        rc = main(["report", "--dir", str(workdir), "--out", str(out)])
        assert rc == 0
        text = (out / "report.md").read_text()
        assert "## Plan" in text
        assert "| layer slot | kept channels |" in text

    @pytest.mark.parametrize("name,text", [
        ("metrics.csv", "epoch,split,loss,metric\n0,test\n"),  # too few fields
        ("metrics.csv", "epoch,split,loss,metric\n0,test,\xff,1\n"),  # not UTF-8
        ("plan.json", '{"spec_name": '),  # invalid JSON
        ("plan.json", "[1, 2]"),  # top level not an object
        ("plan.json", '{"spec_name": "x", "criterion": "gfbs", "lambda": 0.05}'),
        ("plan.json", '{"spec_name": "x", "criterion": "gfbs", "lambda": 0.05, "tau": 0.5, '
                      '"achieved_ratio": "half", "flops_ratio": 1, "kept_per_layer": []}'),
        ("summary.json", '{"groups": 4, "spearman": 0.5}'),  # lacks the overlap keys
    ], ids=["short_metrics_row", "non_utf8_metrics", "invalid_plan_json", "plan_not_object",
            "plan_missing_key", "plan_value_of_wrong_type", "summary_missing_key"])
    def test_malformed_artifact_is_format_error(self, tmp_path, name, text):
        run = tmp_path / "run" / "step"
        run.mkdir(parents=True)
        (run / name).write_bytes(text.encode("latin-1"))
        out = run_cli("report", "--dir", tmp_path / "run", "--out", tmp_path / "report")
        assert_one_line_error(out, 4)

    def sweep(self, workdir, out):
        return main(["report", "--sweep-lambda", "--ckpt", str(workdir / "train" / "baseline.ckpt"),
                     "--data", DATA, "--lambdas", "0,0.5", "--tau", "0.25", "--epochs", "1",
                     "--out", str(out)])

    def test_sweep_writes_plan_and_flops_per_lambda(self, workdir, tmp_path):
        assert self.sweep(workdir, tmp_path / "sweep") == 0
        for lam in ("0", "0.5"):
            sub = tmp_path / "sweep" / f"lambda_{lam}"
            doc = json.loads((sub / "plan.json").read_text())
            lines = (sub / "flops.txt").read_text().splitlines()
            assert lines[0].startswith("baseline total ")
            assert lines[2] == f"ratio {doc['flops_ratio']:.6f}"
            assert len(lines) == 3 + 5  # totals and ratio, then one line per block

    def test_sweep_stops_at_a_plan_failing_validation(self, workdir, tmp_path, monkeypatch,
                                                      capsys):
        def bad_plan(net, records, cfg):  # claims a floor its kept lists break
            return dataclasses.replace(plan_prune(net, records, cfg), min_keep=99)

        monkeypatch.setattr(cli, "plan_prune", bad_plan)
        assert self.sweep(workdir, tmp_path / "sweep") == 2
        assert "plan failed validation" in capsys.readouterr().err
        assert not (tmp_path / "sweep" / "lambda_0" / "plan.json").exists()
        assert not (tmp_path / "sweep" / "report.md").exists()
        assert not (tmp_path / "sweep").exists()  # the first plan failed: nothing was made

    def test_sweep_metric_is_the_finetune_final_test_pass(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "evaluate", lambda *a: pytest.fail("extra test pass"))
        assert self.sweep(workdir, tmp_path / "sweep") == 0
        monkeypatch.undo()
        rows = [line for line in (tmp_path / "sweep" / "report.md").read_text().splitlines()
                if line.startswith("| 0")]
        for row, lam in zip(rows, ("0", "0.5")):
            net = load_checkpoint(tmp_path / "sweep" / f"lambda_{lam}" / "finetuned.ckpt")
            assert row.endswith(f"| {cli.evaluate(net, cli.open_dataset(DATA)).metric:.4f} |")

    @pytest.mark.parametrize("argv", [
        ["report", "--sweep-lambda", "--lambdas", "0.1,abc"],
        ["report", "--sweep-lambda", "--lambdas", "0.1,-1"],
        ["report", "--sweep-lambda", "--lambdas", "0.1,nan"],
        ["prune", "--lambda", "nan"],
        ["saliency", "--lambda", "inf"],
    ], ids=["sweep_not_a_number", "sweep_negative", "sweep_nan", "prune_nan", "saliency_inf"])
    def test_bad_lambda_is_one_line_config_error(self, workdir, saliency_dir, tmp_path, argv):
        inputs = {"report": ["--ckpt", workdir / "train" / "baseline.ckpt", "--data", DATA,
                             "--epochs", "1"],
                  "prune": ["--ckpt", workdir / "train" / "baseline.ckpt",
                            "--saliency", saliency_dir / "saliency.csv"],
                  "saliency": ["--ckpt", workdir / "train" / "baseline.ckpt", "--data", DATA]}
        out = run_cli(*argv, *inputs[argv[0]], "--out", tmp_path / "out")
        assert_one_line_error(out, 2)
        assert "lambda" in out.stderr
        assert not (tmp_path / "out").exists()  # no lambda_* directory, no artifact

    def test_report_dir_that_is_not_a_directory(self, tmp_path):
        out = run_cli("report", "--dir", tmp_path / "missing", "--out", tmp_path / "out")
        assert_one_line_error(out, 2)
        assert "not a directory" in out.stderr
        assert not (tmp_path / "out").exists()

    def test_report_without_dir_errors(self):
        with pytest.raises(SystemExit) as exc:
            main(["report"])
        assert exc.value.code == 2


class TestExitCodes:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_checkpoint_is_config_error(self, tmp_path, capsys):
        rc = main(["eval", "--ckpt", str(tmp_path / "nope.ckpt"), "--data", DATA])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_checkpoint_is_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint at all")
        rc = main(["eval", "--ckpt", str(bad), "--data", DATA])
        assert rc == 4

    def test_checkpoint_dims_outside_the_spec_are_a_format_error(self, tmp_path):
        # (0, 2**31, 2**31) declares 0 bytes: only the spec's layout rejects it
        ckpt = tmp_path / "zero.ckpt"
        write_ckpt(ckpt, SPEC_TEXT, [("b0.weight", 0, (0, 2**31, 2**31), b"")])
        out = run_cli("eval", "--ckpt", ckpt, "--data", DATA)
        assert_one_line_error(out, 4)

    def test_bad_tau_is_config_error(self, workdir, saliency_dir, capsys):
        rc = main(["prune", "--ckpt", str(workdir / "train" / "baseline.ckpt"),
                   "--saliency", str(saliency_dir / "saliency.csv"),
                   "--tau", "1.5", "--out", str(workdir / "never")])
        assert rc == 2
        assert "tau" in capsys.readouterr().err

    def test_malformed_spec_is_format_error(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("input 1 8 8\nconv_bn_relu eight 3 1 1\n")
        rc = main(["train", "--spec", str(spec), "--data", DATA,
                   "--out", str(tmp_path / "out")])
        assert rc == 4


    @pytest.mark.parametrize("text", [
        '{"epochs": ',  # invalid JSON
        '[{"epochs": 2}]',  # not an object
        '{"epochs": "2"}',  # wrong field type
        '{"lr_milestones": 3}',
        '{"weight_decay": NaN}',
        '{"lr_decay": Infinity, "lr_milestones": [1]}',
        '{"momentum": -5}',
        '{"eval_every": 0}',
    ])
    def test_bad_config_file_is_one_line_config_error(self, workdir, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = run_cli("train", "--spec", workdir / "net.spec", "--data", DATA,
                      "--config", cfg, "--out", tmp_path / "out")
        assert_one_line_error(out, 2)
        assert not (tmp_path / "out" / "baseline.ckpt").exists()

    @pytest.mark.parametrize("flags", [
        ["--data", DATA, "--lr", "nan"],
        ["--data", "denoise:n_train=16,n_test=4,size=12,sigma=nan"],
        ["--data", "idx:images={dir}/imgs.idx,labels={dir}/labs.idx,test_fraction=0"],
        ["--data", "idx:images={dir}/imgs.idx,labels={dir}/labs.idx,test_fraction=-1"],
    ], ids=["lr_nan", "sigma_nan", "test_fraction_0", "test_fraction_negative"])
    def test_bad_setting_is_one_line_config_error(self, workdir, tmp_path, flags):
        write_idx(tmp_path, np.zeros((20, 12, 12)), np.arange(20) % 10)
        out = run_cli("train", "--spec", workdir / "net.spec", "--epochs", "1",
                      *(f.format(dir=tmp_path) for f in flags), "--out", tmp_path / "out")
        assert_one_line_error(out, 2)
        assert not (tmp_path / "out" / "baseline.ckpt").exists()

    @pytest.mark.parametrize("argv, code", [
        (["train", "--spec", "{work}/net.spec", "--data", DATA, "--lr", "nan"], 2),
        (["finetune", "--ckpt", "{ckpt}", "--data", DATA, "--epochs", "0"], 2),
        (["saliency", "--ckpt", "{ckpt}", "--data", DATA, "--batch-size", "1"], 2),
        (["oracle", "--ckpt", "{ckpt}", "--data", DATA, "--saliency", "{tmp}/missing.csv"], 2),
        (["oracle", "--ckpt", "{ckpt}", "--data", DATA, "--batch-size", "1"], 2),
        (["prune", "--ckpt", "{ckpt}", "--saliency", "{sal}", "--tau", "1.5"], 2),
        (["report", "--sweep-lambda", "--ckpt", "{ckpt}", "--data", DATA,
          "--lambdas", "0.1,abc"], 2),
        (["report", "--dir", "{tmp}/run"], 4),  # its plan.json is not a JSON object
    ], ids=["train", "finetune", "saliency", "oracle", "oracle_batch", "prune", "sweep",
            "report"])
    def test_refused_input_makes_no_out(self, workdir, saliency_dir, tmp_path, argv, code):
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "plan.json").write_text("[1, 2]")
        paths = dict(work=workdir, ckpt=workdir / "train" / "baseline.ckpt",
                     sal=saliency_dir / "saliency.csv", tmp=tmp_path)
        out = run_cli(*(a.format(**paths) for a in argv), "--out", tmp_path / "out")
        assert_one_line_error(out, code)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["saliency", "--ckpt", "{ckpt}", "--data", DATA],
        ["report", "--sweep-lambda", "--ckpt", "{ckpt}", "--data", DATA, "--lambdas", "0.5",
         "--epochs", "1"],
    ], ids=["saliency", "sweep"])
    def test_factory_default_net_is_one_warning_line(self, tmp_path, argv):
        ckpt = tmp_path / "net.ckpt"
        save_checkpoint(build_network(parse_spec(SPEC_TEXT), seed=0), ckpt)
        out = run_cli(*(a.format(ckpt=ckpt) for a in argv), "--out", tmp_path / "out")
        assert out.returncode == 0, out.stderr
        assert out.stderr == ("warning: scoring a network with factory-default norm "
                              "parameters; saliencies will be uninformative\n")

    @pytest.mark.filterwarnings("ignore:scoring a network with factory-default")
    @pytest.mark.parametrize("spec, error", [
        (SPEC_TEXT, "spearman undefined for constant input"),
        ("input 1 12 12\nconv_bn_relu 1 3 1 1\nflatten\nlinear 10\n",
         "spearman needs at least 2 items"),
    ], ids=["constant_scores", "one_group"])
    def test_oracle_refused_after_probing_makes_no_out(self, tmp_path, spec, error):
        # beta_only scores every channel of a factory-default net 0
        ckpt = tmp_path / "net.ckpt"
        save_checkpoint(build_network(parse_spec(spec), seed=0), ckpt)
        assert main(["saliency", "--ckpt", str(ckpt), "--data", DATA, "--criterion",
                     "beta_only", "--out", str(tmp_path / "sal")]) == 0
        out = run_cli("oracle", "--ckpt", ckpt, "--data", DATA,
                      "--saliency", tmp_path / "sal" / "saliency.csv", "--out", tmp_path / "out")
        assert_one_line_error(out, 2)
        assert error in out.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("data, flags", [
        ("shapes:n_train=1,n_test=4,size=12", []),
        (DATA, ["--batch-size", "1"]),
        ("idx:images={tmp}/imgs.idx,labels={tmp}/labs.idx", []),
        ("idx:images={tmp}/imgs.idx,labels={tmp}/labs.idx,test_fraction=0.5", []),
    ], ids=["one_training_sample", "batch_size_1", "idx_one_sample", "idx_two_samples"])
    def test_run_that_trains_nothing_is_refused(self, workdir, tmp_path, data, flags):
        n = 2 if data.endswith("test_fraction=0.5") else 1
        write_idx(tmp_path, np.zeros((n, 12, 12)), np.arange(n))
        out = run_cli("train", "--spec", workdir / "net.spec", "--epochs", "1",
                      "--data", data.format(tmp=tmp_path), *flags, "--out", tmp_path / "out")
        assert_one_line_error(out, 2)
        assert ("no training samples" if n == 1 and "idx" in data
                else "no batch can reach 2 samples") in out.stderr
        assert not (tmp_path / "out").exists()  # so no checkpoint and no metrics.csv

    def test_trailing_one_sample_batch_is_skipped(self, tmp_path):
        # the last block normalizes a 1x1 map, so a 1-sample batch there would
        # have a single value per channel: 9 samples at batch 8 still train
        spec = tmp_path / "deep.spec"
        spec.write_text("input 1 8 8\nconv_bn_relu 4 3 1 1\npool 0 2 2 0\npool 0 2 2 0\n"
                        "pool 0 2 2 0\nconv_bn_relu 4 1 1 0\nflatten\nlinear 10\n")
        assert main(["train", "--spec", str(spec), "--data", "shapes:n_train=9,n_test=4,size=8",
                     "--epochs", "1", "--batch-size", "8", "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "baseline.ckpt").exists()

    def test_non_utf8_spec_is_format_error(self, tmp_path):
        spec = tmp_path / "latin1.spec"
        spec.write_bytes(SPEC_TEXT.replace("clitiny", "cl\xeftiny").encode("latin-1"))
        out = run_cli("train", "--spec", spec, "--data", DATA, "--out", tmp_path / "out")
        assert_one_line_error(out, 4)

    @pytest.mark.parametrize("command", ["prune", "oracle"])
    def test_non_utf8_saliency_csv_is_format_error(self, workdir, saliency_dir, tmp_path,
                                                   command):
        csv = tmp_path / "latin1.csv"
        csv.write_bytes((saliency_dir / "saliency.csv").read_bytes() + b"\xff\xfe\n")
        flags = ["--data", DATA] if command == "oracle" else []
        out = run_cli(command, "--ckpt", workdir / "train" / "baseline.ckpt",
                      "--saliency", csv, *flags, "--out", tmp_path / "out")
        assert_one_line_error(out, 4)


    def test_non_finite_saliency_is_format_error(self, workdir, saliency_dir, tmp_path):
        lines = (saliency_dir / "saliency.csv").read_text().splitlines()
        for i in (1, 2, 3):  # grad_gamma and grad_gamma_n of channels (0,0), (0,1), (0,2)
            row = lines[i].split(",")
            row[3] = row[7] = "nan"
            lines[i] = ",".join(row)
        csv = tmp_path / "nan.csv"
        csv.write_text("\n".join(lines) + "\n")
        out = run_cli("prune", "--ckpt", workdir / "train" / "baseline.ckpt",
                      "--saliency", csv, "--tau", "0.3", "--out", tmp_path / "out")
        assert_one_line_error(out, 4)
        assert "nan.csv:2: non-finite grad_gamma, grad_gamma_n" in out.stderr
        assert not (tmp_path / "out" / "plan.json").exists()

    def test_repeated_saliency_row_is_format_error(self, workdir, saliency_dir, tmp_path):
        lines = (saliency_dir / "saliency.csv").read_text().splitlines()
        csv = tmp_path / "twice.csv"
        csv.write_text("\n".join(lines + [lines[1]]) + "\n")
        out = run_cli("prune", "--ckpt", workdir / "train" / "baseline.ckpt",
                      "--saliency", csv, "--tau", "0.3", "--out", tmp_path / "out")
        assert_one_line_error(out, 4)
        assert f"twice.csv:{len(lines) + 1}: repeated row for channel 0 of block 0" in out.stderr

    def test_probe_batch_below_one_is_config_error(self, workdir, tmp_path):
        out = run_cli("oracle", "--ckpt", workdir / "train" / "baseline.ckpt", "--data", DATA,
                      "--batch-size", "-1", "--out", tmp_path / "out")
        assert_one_line_error(out, 2)
        assert "capture batch must lie in [1, 192] (the train size), got -1" in out.stderr

    @pytest.mark.parametrize("argv", [
        ["train", "--spec", "net.spec", "--data", DATA, "--preset", "classify"],
        ["finetune", "--ckpt", "a.ckpt", "--data", DATA, "--preset", "classify_finetune"],
        ["report", "--dir", ".", "--preset", "auto_finetune"],
        ["eval", "--ckpt", "a.ckpt", "--data", DATA, "--seed", "1"],
    ], ids=["train_preset", "finetune_preset", "report_preset", "eval_seed"])
    def test_deleted_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_saliency_missing_a_channel_is_config_error(self, workdir, saliency_dir, tmp_path):
        csv = tmp_path / "short.csv"
        csv.write_text("".join((saliency_dir / "saliency.csv").read_text().splitlines(True)[:-1]))
        out = run_cli("oracle", "--ckpt", workdir / "train" / "baseline.ckpt", "--data", DATA,
                      "--saliency", csv, "--out", tmp_path / "out")
        assert_one_line_error(out, 2)
        assert "channel ChannelRef(layer=2, channel=7)" in out.stderr


def assert_one_line_error(out, code):
    assert out.returncode == code, out.stderr
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error:") and out.stderr.count("\n") == 1


def test_console_script_help():
    out = run_cli("--help")
    assert out.returncode == 0
    for name in ("train", "saliency", "oracle", "prune", "finetune", "report"):
        assert name in out.stdout


@pytest.mark.parametrize("command", ["train", "finetune", "report", "eval"])
def test_help_omits_deleted_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "--preset" not in text
    assert ("--seed" in text) == (command != "eval")


def formats_section(title):
    text = (Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_formats_doc_lists_every_setting():
    """docs/formats.md names exactly TrainConfig's fields and each
    descriptor kind's keys, with the defaults open_dataset applies."""
    fields = re.findall(r"^\| `(\w+)` \|", formats_section("Training config (`--config`)"),
                        re.MULTILINE)
    assert fields == [f.name for f in dataclasses.fields(TrainConfig)]
    shown = {kind: dict(re.findall(r"`(\w+)(?:=([^`]*))?`", keys))
             for kind, keys in re.findall(r"^- `(\w+):` (.*)$",
                                          formats_section("Dataset descriptors"), re.MULTILINE)}
    assert shown == {kind: {k: "" if d is None else f"{d:g}" for k, d in keys.items()}
                     for kind, keys in _DESCRIPTORS.items()}
