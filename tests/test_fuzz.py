"""Seeded fuzz of every file reader: flipped, truncated and inserted bytes
must come back as a GfbsError (or parse), never as any other exception,
and through the command line as exit 0, 2 or 4 with no traceback. A
checkpoint whose weights overflow the norm's statistics or the squared
error exits 3."""

import shutil

import numpy as np
import pytest
from helpers import run_cli, write_idx

from gfbs import cli
from gfbs.data import load_idx
from gfbs.errors import FormatError, GfbsError, open_text
from gfbs.netgraph import build_network, load_checkpoint, parse_spec, save_checkpoint
from gfbs.saliency import PruneConfig, read_saliency_csv, saliency_records, write_saliency_csv
from gfbs.surgeon import plan_prune, write_plan
from gfbs.trainer import Metrics, read_metrics, write_metrics

SPEC = """\
name fuzz
input 1 8 8
conv_bn_relu 4 3 1 1
pool 0 2 2 0
residual_begin
conv_bn_relu 4 3 1 1
conv_bn 4 3 1 1
residual_add
flatten
linear 3
"""
MUTATIONS = 200
SEED = 20240601
IDX_IMAGES = np.random.default_rng(0).integers(0, 256, (12, 8, 8))
IDX_LABELS = np.arange(12) % 3


def mutate(raw: bytes, rng: np.random.Generator) -> bytes:
    """One byte flip, truncation or insertion at a random offset."""
    pos = int(rng.integers(0, len(raw) + 1))
    kind = rng.integers(3)
    if kind == 0 and pos < len(raw):
        return raw[:pos] + bytes([raw[pos] ^ int(rng.integers(1, 256))]) + raw[pos + 1:]
    if kind == 1:
        return raw[:pos]
    return raw[:pos] + rng.integers(0, 256, int(rng.integers(1, 9)), dtype=np.uint8).tobytes() \
        + raw[pos:]


def spec_file(path):
    path.write_text(SPEC)
    return lambda p: parse_spec(open_text(p).read())


def checkpoint_file(path):
    save_checkpoint(build_network(parse_spec(SPEC), seed=0), path)
    return load_checkpoint


def scored_net():
    net = build_network(parse_spec(SPEC), seed=0)
    x = np.random.default_rng(0).standard_normal((4, 1, 8, 8)).astype(np.float32)
    return net, saliency_records(net, x, np.arange(4) % 3, "cross_entropy", PruneConfig())


def saliency_file(path):
    net, records = scored_net()
    write_saliency_csv(records, path)
    return lambda p: read_saliency_csv(p, net.spec)


def metrics_file(path):
    write_metrics([Metrics(e, split, 1.0 / (e + 1), 0.5) for e in range(3)
                   for split in ("train", "test")], path)
    return read_metrics


def idx_images_file(path):
    images, labels = write_idx(path.parent, IDX_IMAGES, IDX_LABELS)
    images.rename(path)
    return lambda p: load_idx(p, labels)


def idx_labels_file(path):
    images, labels = write_idx(path.parent, IDX_IMAGES, IDX_LABELS)
    labels.rename(path)
    return lambda p: load_idx(images, p)


def report_reads(name):
    """``report --dir`` run in-process over a directory holding the file as
    ``name``: exit 4 is raised as a FormatError, and any exit but 0 or 4
    fails the test."""
    def read(path):
        run = path.parent / "report_input"
        run.mkdir(exist_ok=True)
        shutil.copyfile(path, run / name)
        code = cli.main(["report", "--dir", str(run), "--out", str(path.parent / "report")])
        if code == 4:
            raise FormatError(f"report --dir exited 4 on {name}")
        assert code == 0, f"report --dir exited {code} on {name}"
    return read


def plan_file(path):
    net, records = scored_net()
    write_plan(plan_prune(net, records, PruneConfig(tau=0.3, min_keep=1)), path)
    return report_reads("plan.json")


def summary_file(path):
    """summary.json of an oracle run correlated against a saliency CSV."""
    root, data = path.parent, "shapes:n_train=16,n_test=4,size=8"
    ckpt = root / "net10.ckpt"
    save_checkpoint(build_network(parse_spec(SPEC.replace("linear 3", "linear 10")), seed=0),
                    ckpt)
    assert cli.main(["saliency", "--ckpt", str(ckpt), "--data", data, "--batch-size", "8",
                     "--out", str(root / "sal")]) == 0
    assert cli.main(["oracle", "--ckpt", str(ckpt), "--data", data, "--batch-size", "8",
                     "--saliency", str(root / "sal" / "saliency.csv"),
                     "--out", str(root / "oracle")]) == 0
    (root / "oracle" / "summary.json").rename(path)
    return report_reads("summary.json")


@pytest.mark.filterwarnings("ignore:scoring a network with factory-default")
@pytest.mark.parametrize("make", [spec_file, checkpoint_file, saliency_file, metrics_file,
                                  idx_images_file, idx_labels_file, plan_file, summary_file])
def test_mutated_bytes_raise_only_gfbs_errors(tmp_path, make):
    valid = tmp_path / "valid"
    read = make(valid)
    read(valid)  # the unmutated file parses
    raw = valid.read_bytes()
    rng = np.random.default_rng(SEED)
    mutated = tmp_path / "mutated"
    for i in range(MUTATIONS):
        data = mutate(raw, rng)
        mutated.write_bytes(data)
        try:
            read(mutated)
        except GfbsError:
            pass
        except Exception as exc:  # any other escape is a contract breach
            pytest.fail(f"mutation {i} ({len(data)} bytes) escaped as "
                        f"{type(exc).__name__}: {exc}")


def prune_argv(tmp_path, mutated):
    save_checkpoint(build_network(parse_spec(SPEC), seed=0), tmp_path / "net.ckpt")
    return ["prune", "--ckpt", tmp_path / "net.ckpt", "--saliency", mutated,
            "--out", tmp_path / "out"]


def report_argv(name):
    def argv(tmp_path, mutated):
        (tmp_path / "run").mkdir()
        mutated.rename(tmp_path / "run" / name)
        return ["report", "--dir", tmp_path / "run", "--out", tmp_path / "out"]
    return argv


def train_argv(tmp_path, mutated):
    (tmp_path / "net.spec").write_text(SPEC)
    return ["train", "--spec", tmp_path / "net.spec",
            "--data", f"idx:images={mutated},labels={tmp_path / 'labs.idx'}",
            "--epochs", "1", "--batch-size", "4", "--out", tmp_path / "out"]


@pytest.mark.filterwarnings("ignore:scoring a network with factory-default")
@pytest.mark.parametrize("make,argv", [(saliency_file, prune_argv),
                                       (metrics_file, report_argv("metrics.csv")),
                                       (idx_images_file, train_argv),
                                       (plan_file, report_argv("plan.json")),
                                       (summary_file, report_argv("summary.json"))],
                         ids=["saliency_csv", "metrics_csv", "idx_pair", "plan_json",
                              "summary_json"])
def test_mutated_file_through_the_cli(tmp_path, make, argv):
    """The command that reads the file, given the first seeded mutation the
    reader rejects, exits 0, 2 or 4, and prints one error line if not 0."""
    valid = tmp_path / "valid"
    read = make(valid)
    raw = valid.read_bytes()
    rng = np.random.default_rng(SEED)
    mutated = tmp_path / "mutated"
    for _ in range(MUTATIONS):
        mutated.write_bytes(mutate(raw, rng))
        try:
            read(mutated)
        except GfbsError:
            break
    else:
        pytest.fail(f"no mutation of {make.__name__} was rejected")
    out = run_cli(*argv(tmp_path, mutated))
    assert out.returncode in (0, 2, 4), out.stderr
    assert "Traceback" not in out.stderr
    if out.returncode:
        assert out.stderr.startswith("error:") and out.stderr.count("\n") == 1


DENOISE_SPEC = ("name dn\ninput 1 8 8\nresidual_begin\n" + "conv_bn_relu 4 3 1 1\n" * 2
                + "conv 1 3 1 1\nresidual_add\n")
# case -> (spec, the block whose weights are scaled by 1e20, dataset)
OVERFLOWS = {
    "variance": (SPEC.replace("linear 3", "linear 10"), 0, "shapes:n_train=16,n_test=4,size=8"),
    "mse": (DENOISE_SPEC, 3, "denoise:n_train=16,n_test=4,size=8"),
}
MSE_ERROR = "non-finite values produced by mse\n"


@pytest.mark.parametrize("command, case, stderr", [
    pytest.param("saliency", "variance", "error: batchnorm: batch variance is not finite\n",
                 id="saliency"),
    pytest.param("oracle", "variance", "error: batchnorm: batch variance is not finite\n",
                 id="oracle"),
    pytest.param("eval", "mse", "error: " + MSE_ERROR, id="mse-eval"),
    pytest.param("saliency", "mse", "error: " + MSE_ERROR, id="mse-saliency"),
    pytest.param("oracle", "mse", "error: " + MSE_ERROR, id="mse-oracle"),
    pytest.param("finetune", "mse", "error: divergence at epoch 0 batch 0: " + MSE_ERROR,
                 id="mse-finetune"),
])
def test_overflowing_checkpoint_is_one_line_numeric_error(tmp_path, command, case, stderr):
    """Weights scaled by 1e20 overflow the train-mode batch variance (first
    conv of a classifier) or the squared error (last conv of a denoiser):
    exit 3 with one error line, no overflow warnings, no --out."""
    spec, block, data = OVERFLOWS[case]
    net = build_network(parse_spec(spec), seed=0)
    rng = np.random.default_rng(0)
    for i in net.bn_blocks():  # not factory-default, so no untrained-net warning
        c = net.params[i].out_channels
        net.params[i].gamma.data[:] = rng.uniform(0.5, 1.5, c)
        net.params[i].beta.data[:] = rng.normal(0.0, 0.3, c)
    net.params[block].weight.data *= 1e20
    save_checkpoint(net, tmp_path / "big.ckpt")
    batch = () if command == "eval" else ("--batch-size", "8")
    out = run_cli(command, "--ckpt", tmp_path / "big.ckpt", *batch, "--data", data,
                  "--out", tmp_path / "out")
    assert out.returncode == 3, out.stderr
    assert out.stderr == stderr
    assert not (tmp_path / "out").exists()
