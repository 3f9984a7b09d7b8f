"""Seeded fuzz of every file reader: flipped, truncated and inserted bytes
must come back as a GfbsError (or parse), never as any other exception."""

import numpy as np
import pytest

from gfbs.errors import GfbsError, open_text
from gfbs.netgraph import build_network, load_checkpoint, parse_spec, save_checkpoint
from gfbs.saliency import PruneConfig, read_saliency_csv, saliency_records, write_saliency_csv
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


def saliency_file(path):
    net = build_network(parse_spec(SPEC), seed=0)
    x = np.random.default_rng(0).standard_normal((4, 1, 8, 8)).astype(np.float32)
    write_saliency_csv(saliency_records(net, x, np.arange(4) % 3, "cross_entropy",
                                        PruneConfig()), path)
    return lambda p: read_saliency_csv(p, net.spec)


def metrics_file(path):
    write_metrics([Metrics(e, split, 1.0 / (e + 1), 0.5) for e in range(3)
                   for split in ("train", "test")], path)
    return read_metrics


@pytest.mark.filterwarnings("ignore:scoring a network with factory-default")
@pytest.mark.parametrize("make", [spec_file, checkpoint_file, saliency_file, metrics_file])
def test_mutated_bytes_raise_only_gfbs_errors(tmp_path, make):
    valid = tmp_path / "valid"
    read = make(valid)
    read(valid)  # the unmutated file parses
    raw = valid.read_bytes()
    rng = np.random.default_rng(20240601)
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
