"""Tests for spec parsing, network building, forward, FLOPs, groups, I/O."""

import ast
from pathlib import Path

import numpy as np
import pytest

from gfbs.autograd import Tape, Tensor, batchnorm, conv2d, flatten as op_flatten, linear as op_linear, loss, maxpool2d, relu
from gfbs.errors import ConfigError, FormatError
from gfbs.netgraph import (
    CONV_KINDS,
    BlockSpec,
    ChannelRef,
    NetworkSpec,
    build_coupling_groups,
    build_network,
    count_flops,
    format_spec,
    forward_full,
    from_arrays,
    group_lookup,
    infer_shapes,
    load_checkpoint,
    parse_spec,
    run_blocks,
    save_checkpoint,
)
from gfbs.surgeon import PrunePlan, apply_prune

from helpers import WALKER_SPECS, gradcheck, walker_net, write_ckpt

TINY = """\
name tiny
input 2 8 8
conv_bn_relu 4 3 1 1
pool 0 2 2 0
flatten
linear 3
"""

RESNETTY = """\
input 3 8 8
conv_bn_relu 8 3 1 1
residual_begin
conv_bn_relu 8 3 1 1
conv_bn 8 3 1 1
residual_add
flatten
linear 5
"""

# an inner residual pair inside an outer one; the joins see different streams
NESTED = """\
input 2 8 8
conv_bn_relu 8 3 1 1
residual_begin
conv_bn_relu 6 3 1 1
conv_bn_relu 6 3 1 1
residual_begin
conv_bn_relu 4 3 1 1
conv_bn 6 3 1 1
residual_add
conv_bn 8 3 1 1
residual_add
flatten
linear 3
"""

# both begins save the same stream, so the two joins share one group
NESTED_SHARED = """\
input 2 8 8
conv_bn_relu 4 3 1 1
residual_begin
residual_begin
conv_bn_relu 4 3 1 1
conv_bn 4 3 1 1
residual_add
conv_bn 4 3 1 1
residual_add
flatten
linear 3
"""


# one block of every kind; the residual pair wraps a conv_bn
ALL_KINDS_SPEC = """\
name allkinds
input 2 8 8
conv_bn_relu 4 3 1 1
residual_begin
conv_bn 4 3 1 1
residual_add
conv 3 1 1 0
pool 0 2 2 0
flatten
linear 5
"""


class TestSpecText:
    def test_format_spec_text_exact(self):
        spec = parse_spec("# every kind\n" + ALL_KINDS_SPEC.replace(" 1 1\n", " 1  1\n"))
        assert format_spec(spec) == ALL_KINDS_SPEC

    @pytest.mark.parametrize("line, n", [
        ("conv_bn_relu 4 3 1", 4), ("conv_bn 4 3 1 1 1", 4), ("conv 4", 4),
        ("residual_begin 1", 0), ("residual_add 1", 0), ("pool 0 2 2", 4),
        ("flatten 1", 0), ("linear 3 3", 1)])
    def test_wrong_arity_per_kind(self, line, n):
        kind = line.split()[0]
        with pytest.raises(FormatError, match=rf"^line 3: {kind} takes {n} integer"):
            parse_spec(f"name x\ninput 1 4 4\n{line}\n")

    def test_round_trip(self):
        spec = parse_spec(TINY)
        assert spec.name == "tiny"
        assert spec.input_shape == (2, 8, 8)
        assert [b.kind for b in spec.blocks] == ["conv_bn_relu", "pool", "flatten", "linear"]
        assert parse_spec(format_spec(spec)) == spec

    def test_comments_and_blanks_ignored(self):
        spec = parse_spec("# hi\n\ninput 1 4 4  # inline\nconv 2 3 1 1\n")
        assert spec.blocks[0] == BlockSpec("conv", 2, 3, 1, 1)

    def test_missing_input_line(self):
        with pytest.raises(FormatError):
            parse_spec("conv_bn_relu 4 3 1 1\n")

    def test_unknown_kind(self):
        with pytest.raises(FormatError):
            parse_spec("input 1 4 4\nswish 4 3 1 1\n")

    def test_wrong_arity(self):
        with pytest.raises(FormatError):
            parse_spec("input 1 4 4\nconv_bn_relu 4 3\n")

    def test_non_integer(self):
        with pytest.raises(FormatError):
            parse_spec("input 1 4 4\nconv_bn_relu four 3 1 1\n")


class TestShapes:
    def test_conv_pool_arithmetic(self):
        spec = parse_spec(TINY)
        assert infer_shapes(spec) == [(4, 8, 8), (4, 4, 4), (64,), (3,)]

    def test_residual_mismatch_rejected(self):
        bad = "input 3 8 8\nresidual_begin\nconv_bn_relu 5 3 1 1\nresidual_add\nflatten\nlinear 2\n"
        with pytest.raises(FormatError):
            parse_spec(bad)

    def test_unmatched_begin_rejected(self):
        with pytest.raises(FormatError):
            parse_spec("input 3 8 8\nresidual_begin\nconv_bn_relu 3 3 1 1\nflatten\nlinear 2\n")

    def test_conv_after_flatten_rejected(self):
        with pytest.raises(FormatError):
            parse_spec("input 1 8 8\nflatten\nconv 2 3 1 1\n")

    @pytest.mark.parametrize("text, ok", [
        ("input 1 1 1\nconv 1048576 1 1 0\n", True),
        ("input 1 1 1\nconv 1048577 1 1 0\n", False),
        ("input 1024 1 1\nflatten\nlinear 65536\n", True),  # a 2^26-element weight
        ("input 1024 1 1\nflatten\nlinear 65537\n", False),
    ], ids=["width_at_limit", "width_over", "weight_at_limit", "weight_over"])
    def test_size_limit_is_a_config_error_naming_the_block(self, text, ok):
        if ok:
            parse_spec(text)
            return
        with pytest.raises(ConfigError, match=r"^block \d \((conv|linear)\) exceeds the size "
                                               r"limit of 1048576 channels and 67108864") as exc:
            parse_spec(text)
        assert not isinstance(exc.value, FormatError)

    def test_kernel_too_large(self):
        with pytest.raises(FormatError):
            parse_spec("input 1 2 2\nconv 2 5 1 0\nflatten\nlinear 2\n")


class TestBuild:
    def test_param_shapes(self):
        net = build_network(parse_spec(TINY), seed=1)
        p = net.params[0]
        assert p.weight.shape == (4, 2, 3, 3)
        assert p.gamma.shape == (4,)
        np.testing.assert_array_equal(p.gamma.data, np.ones(4, np.float32))
        np.testing.assert_array_equal(p.beta.data, np.zeros(4, np.float32))
        assert net.params[3].weight.shape == (64, 3)

    def test_same_seed_identical(self):
        spec = parse_spec(TINY)
        a = build_network(spec, seed=7)
        b = build_network(spec, seed=7)
        for (na, ta), (nb, tb) in zip(a.named_tensors().items(), b.named_tensors().items()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_clone_is_deep(self):
        net = build_network(parse_spec(TINY), seed=1)
        twin = net.clone()
        twin.params[0].weight.data[:] = 0
        assert not np.allclose(net.params[0].weight.data, 0)

    def test_zeroed_is_a_copy_with_the_named_channels_zero(self):
        net = walker_net("res")
        before = {k: v.data.copy() for k, v in net.named_tensors().items()}
        refs = [ChannelRef(0, 1), ChannelRef(2, 3)]
        what_if = net.zeroed(refs, ("gamma", "weight"))
        for name, t in what_if.named_tensors().items():
            assert not np.shares_memory(t.data, net.named_tensors()[name].data)
            want = before[name].copy()
            block, field_name = name[1:].split(".")
            for ref in refs:
                if ref.layer == int(block) and field_name in ("gamma", "weight"):
                    want[ref.channel] = 0.0
            np.testing.assert_array_equal(t.data, want)
        for name, t in net.named_tensors().items():
            np.testing.assert_array_equal(t.data, before[name])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_network_keeps_its_tensors_dtype(self, tmp_path, dtype):
        spec = parse_spec(TINY)
        net = build_network(spec, seed=1, dtype=dtype)
        save_checkpoint(net, tmp_path / "net.ckpt")
        plan = PrunePlan(base_spec=spec, kept_per_layer={0: (1, 3)}, shortfall=False, tau=0.5,
                         min_keep=1, criterion="gfbs", lam=0.0)
        for other in (net, load_checkpoint(tmp_path / "net.ckpt"), net.clone(),
                      net.zeroed([ChannelRef(0, 1)], ("gamma",)), apply_prune(net, plan)):
            assert other.dtype == np.dtype(dtype)

    def test_a_network_without_tensors_is_float32(self):
        spec = parse_spec("input 1 8 8\npool 0 2 2 0\n")
        assert build_network(spec, dtype=np.float64).dtype == np.dtype(np.float32)

    def test_from_arrays_holds_the_arrays_given(self):
        spec = parse_spec(TINY)
        arrays = {n: t.data for n, t in build_network(spec, seed=1, dtype=np.float64)
                  .named_tensors().items()}
        net = from_arrays(spec, arrays)
        assert [type(p).__name__ for p in net.params] == \
            ["ParamSet", "NoneType", "NoneType", "LinearParams"]
        for name, t in net.named_tensors().items():
            assert t.data is arrays[name]

    @pytest.mark.parametrize("edit,match", [
        ("missing", r"missing \['b0.running_var'\]"),
        ("extra", r"extra \['b1.weight'\]"),
        ("misshapen", r"shape mismatch for b3.weight"),
        ("negative_running_var", r"block 0: running_var must be non-negative"),
        ("mixed_dtypes", r"tensor set mixes dtypes float32 and float64"),
    ])
    def test_from_arrays_rejects_a_bad_tensor_set(self, edit, match):
        spec = parse_spec(TINY)
        arrays = {n: t.data for n, t in build_network(spec, seed=1).named_tensors().items()}
        if edit == "missing":
            del arrays["b0.running_var"]
        elif edit == "extra":
            arrays["b1.weight"] = np.zeros(3, np.float32)
        elif edit == "negative_running_var":
            arrays["b0.running_var"][1] = -1.0
        elif edit == "mixed_dtypes":
            arrays["b0.gamma"] = arrays["b0.gamma"].astype(np.float64)
        else:
            arrays["b3.weight"] = np.zeros((63, 3), np.float32)
        with pytest.raises(ConfigError, match=match):
            from_arrays(spec, arrays)


class TestForward:
    def test_zero_input_nonpositive_beta_gives_zero(self):
        spec = parse_spec("input 1 4 4\nconv_bn_relu 3 3 1 1\nflatten\nlinear 2\n")
        net = build_network(spec, seed=0)
        net.params[0].beta.data[:] = [-0.5, 0.0, -1.0]
        net.params[2].bias.data[:] = 0
        out = forward_full(net, Tensor(np.zeros((2, 1, 4, 4), np.float32)), "eval")
        np.testing.assert_array_equal(out.data, 0)

    def test_eval_batch_composition_invariant(self):
        net = build_network(parse_spec(TINY), seed=3)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 2, 8, 8)).astype(np.float32)
        full = forward_full(net, Tensor(x), "eval").data
        solo = forward_full(net, Tensor(x[:1]), "eval").data
        np.testing.assert_allclose(full[:1], solo, atol=1e-6)

    def test_train_forward_matches_hand_composition(self):
        spec = parse_spec(TINY)
        net = build_network(spec, seed=9, dtype=np.float64)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 2, 8, 8))
        got = forward_full(net, Tensor(x), "train", update_stats=False).data

        twin = build_network(spec, seed=9, dtype=np.float64)
        h = conv2d(Tensor(x), twin.params[0], stride=1, padding=1)
        h = relu(batchnorm(h, twin.params[0], "train", update_stats=False))
        h = maxpool2d(h, 2, 2)
        h = op_flatten(h)
        h = op_linear(h, twin.params[3].weight, twin.params[3].bias)
        np.testing.assert_array_equal(got, h.data)

    def test_residual_forward_and_gradcheck(self):
        spec = parse_spec(RESNETTY)
        labels = np.array([0, 2])
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((2, 3, 8, 8))
        net = build_network(spec, seed=11, dtype=np.float64)
        w0 = net.params[0].weight.data.copy()
        g3 = net.params[3].gamma.data.copy()

        def build(ts, tape):
            net.params[0].weight = ts[0]
            net.params[3].gamma = ts[1]
            out = forward_full(net, Tensor(x0), "train", tape=tape, update_stats=False)
            return loss(out, labels, "cross_entropy", tape=tape)

        gradcheck(build, [w0, g3])

    def test_shape_mismatch_raises(self):
        net = build_network(parse_spec(TINY), seed=0)
        with pytest.raises(ConfigError):
            forward_full(net, Tensor(np.zeros((1, 3, 8, 8), np.float32)), "eval")

    def test_batch_of_another_dtype_raises(self):
        net = build_network(parse_spec(TINY), seed=0, dtype=np.float64)
        with pytest.raises(ConfigError, match=r"batch float32 \(1, 2, 8, 8\) does not match "
                                              r"input float64 \(2, 8, 8\)"):
            forward_full(net, Tensor(np.zeros((1, 2, 8, 8), np.float32)), "eval")


class TestBlockWalker:
    """Resuming at a conv block from its conv output, with the conv
    skipped, or at any other block from its input, gives the full pass's
    output, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("name", sorted(WALKER_SPECS))
    def test_resume_at_every_block_matches_forward_full(self, name, mode, dtype):
        net = walker_net(name, dtype)
        x = Tensor(np.random.default_rng(2).standard_normal((5,) + net.spec.input_shape),
                   dtype=dtype)
        resume = {}
        full = forward_full(net, x, mode, update_stats=False, resume=resume).data
        np.testing.assert_array_equal(forward_full(net, x, mode, update_stats=False).data, full)
        assert sorted(resume) == [n.index for n in net.spec.nodes if n.block.kind in CONV_KINDS]
        for i, (pre, stack) in resume.items():
            out = run_blocks(net, pre, mode, i, stack, update_stats=False)
            np.testing.assert_array_equal(out.data, full, err_msg=f"from block {i}'s conv")
            assert len(stack) == _open_residuals(net.spec, i)

    def test_resuming_leaves_the_entries_intact(self):
        net = walker_net("res")
        x = Tensor(np.random.default_rng(3).standard_normal((4, 1, 8, 8)))
        resume = {}
        forward_full(net, x, "train", update_stats=False, resume=resume)
        kept = {i: (pre.data.copy(), [t.data.copy() for t in stack])
                for i, (pre, stack) in resume.items()}
        for i, (pre, stack) in resume.items():
            run_blocks(net, pre, "train", i, stack, update_stats=False)
        for i, (pre, stack) in resume.items():
            np.testing.assert_array_equal(pre.data, kept[i][0])
            assert len(stack) == len(kept[i][1])
            for t, saved in zip(stack, kept[i][1]):
                np.testing.assert_array_equal(t.data, saved)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_resume_at_a_block_input(self, mode):
        # chain: conv_bn_relu, pool, conv_bn, flatten, linear; block 0's
        # normed output is the pool's input, and a walk that starts past
        # the last block returns its input
        net = walker_net("chain")
        x = Tensor(np.random.default_rng(4).standard_normal((5, 2, 8, 8)))
        resume = {}
        full = forward_full(net, x, mode, update_stats=False, resume=resume).data
        pre, stack = resume[0]
        pool_in = relu(batchnorm(pre, net.params[0], mode, update_stats=False))
        np.testing.assert_array_equal(
            run_blocks(net, pool_in, mode, 1, stack, update_stats=False).data, full)
        np.testing.assert_array_equal(run_blocks(net, Tensor(full), mode, 5).data, full)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("name", sorted(WALKER_SPECS))
    def test_stop_returns_the_input_of_the_stop_block(self, name, mode, dtype):
        # from each conv block s to the first non-pool block t after it
        net = walker_net(name, dtype)
        blocks = net.spec.blocks
        x = Tensor(np.random.default_rng(5).standard_normal((5,) + net.spec.input_shape),
                   dtype=dtype)
        resume = {}
        full = forward_full(net, x, mode, resume=resume).data
        for s, (pre, stack) in resume.items():
            t = next((u for u in range(s + 1, len(blocks)) if blocks[u].kind != "pool"),
                     len(blocks))
            stopped = run_blocks(net, pre, mode, s, stack, stop=t)
            if t < len(blocks) and blocks[t].kind in CONV_KINDS:
                got = conv2d(stopped, net.params[t], stride=blocks[t].stride,
                             padding=blocks[t].padding)
                np.testing.assert_array_equal(got.data, resume[t][0].data, err_msg=f"{s}->{t}")
            else:
                np.testing.assert_array_equal(run_blocks(net, stopped, mode, t, stack).data,
                                              full, err_msg=f"{s}->{t}")

    @pytest.mark.parametrize("name", sorted(WALKER_SPECS))
    def test_forward_passes_leave_the_running_statistics(self, name):
        # only training writes them, and it asks with update_stats=True
        net = walker_net(name)
        x = Tensor(np.random.default_rng(6).standard_normal((5,) + net.spec.input_shape))
        before = {k: v.data.copy() for k, v in net.named_tensors().items()
                  if k.endswith(("running_mean", "running_var"))}
        resume = {}
        forward_full(net, x, "train", tape=Tape(), resume=resume)
        for i, (pre, stack) in resume.items():
            run_blocks(net, pre, "train", i, stack)
        run_blocks(net, x, "train")
        assert before
        for k, v in before.items():
            np.testing.assert_array_equal(net.named_tensors()[k].data, v, err_msg=k)


BLOCK_OPS = {"batchnorm", "relu", "maxpool2d", "add", "flatten", "linear"}
SRC = Path(__file__).resolve().parents[1] / "src" / "gfbs"


def _block_op_calls(path: Path) -> list[tuple[int, str]]:
    """(line, op) of every call in ``path`` to an autograd op that runs a
    block, whether imported by name or called through the module."""
    tree = ast.parse(path.read_text())
    local = {op: op for op in BLOCK_OPS} if path.name == "autograd.py" else {}
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("autograd", "gfbs.autograd"):
            local.update((a.asname or a.name, a.name) for a in node.names if a.name in BLOCK_OPS)
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "gfbs"):
            modules.update(a.asname or a.name for a in node.names if a.name == "autograd")
        elif isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.name == "gfbs.autograd" and a.asname)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in local:
            calls.append((node.lineno, local[f.id]))
        elif (isinstance(f, ast.Attribute) and f.attr in BLOCK_OPS
              and isinstance(f.value, ast.Name) and f.value.id in modules):
            calls.append((node.lineno, f.attr))
    return calls


def test_only_run_blocks_runs_blocks():
    """Block execution lives in ``netgraph.run_blocks`` alone; elsewhere the
    oracle's delta ``conv2d`` is the only op a module may call itself."""
    assert {op for _, op in _block_op_calls(SRC / "netgraph.py")} == BLOCK_OPS
    stray = {path.name: calls for path in sorted(SRC.glob("*.py"))
             if path.name != "netgraph.py" and (calls := _block_op_calls(path))}
    assert not stray, f"block ops called outside run_blocks: {stray}"


@pytest.mark.parametrize("cls, home", [("Network", "netgraph.py"), ("DatasetHandle", "data.py")])
def test_only_its_own_module_constructs(cls, home):
    """A network's ``dtype`` and a dataset's ``task`` are stored, not derived:
    only the constructors of their own module, which work them out, may
    call the class."""
    callers = sorted(path.name for path in SRC.glob("*.py") if any(
        isinstance(node, ast.Call)
        and cls in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in ast.walk(ast.parse(path.read_text()))))
    assert callers == [home]


def _open_residuals(spec, i):
    """How many residual streams are saved on entry to block ``i``."""
    kinds = [b.kind for b in spec.blocks[:i]]
    return kinds.count("residual_begin") - kinds.count("residual_add")


class TestFlops:
    def test_hand_derived_minimal_conv(self):
        spec = parse_spec("input 1 1 1\nconv 1 1 1 0\nflatten\nlinear 1\n")
        rep = count_flops(spec)
        # conv: 2*1*1*1*1*1 + 1 = 3; linear on 1 feature: 2*1*1 + 1 = 3
        assert rep.entries[0].flops == 3
        assert rep.total == 6

    def test_vgg_style_block_counts(self):
        spec = parse_spec("input 3 8 8\nconv_bn_relu 4 3 1 1\nflatten\nlinear 2\n")
        rep = count_flops(spec)
        conv = 2 * 8 * 8 * 4 * 9 * 3 + 8 * 8 * 4
        bn = 2 * 4 * 8 * 8
        relu_cost = 4 * 8 * 8
        lin = 2 * 256 * 2 + 2
        assert rep.entries[0].flops == conv + bn + relu_cost
        assert rep.total == conv + bn + relu_cost + lin
        assert rep.total == sum(e.flops for e in rep.entries)

    def test_half_channels_quarter_conv_flops(self):
        full = parse_spec("input 4 8 8\nconv_bn_relu 8 3 1 1\nconv_bn_relu 8 3 1 1\nflatten\nlinear 2\n")
        # halve every conv width; first conv keeps its input width (the image)
        half = parse_spec("input 4 8 8\nconv_bn_relu 4 3 1 1\nconv_bn_relu 4 3 1 1\nflatten\nlinear 2\n")
        f, h = count_flops(full), count_flops(half)
        # second conv has both sides halved -> 1/4; first only output -> 1/2
        e_full = [e.flops for e in f.entries]
        e_half = [e.flops for e in h.entries]
        c2_full = 2 * 8 * 8 * 8 * 9 * 8
        c2_half = 2 * 8 * 8 * 4 * 9 * 4
        assert c2_half * 4 == c2_full
        assert e_half[1] < e_full[1] / 3  # bn/relu terms keep it slightly above 1/4

    def test_every_kind_flops_and_detail(self):
        rep = count_flops(parse_spec(ALL_KINDS_SPEC))
        assert [(e.flops, e.detail) for e in rep.entries] == [
            (2 * 64 * 4 * 9 * 2 + 256 + 2 * 256 + 256, "2->4 k3 @8x8"),  # conv, bias, bn, relu
            (0, ""),
            (2 * 64 * 4 * 9 * 4 + 256 + 2 * 256, "4->4 k3 @8x8"),  # conv, bias, bn
            (4 * 8 * 8, "@8x8"),
            (2 * 64 * 3 * 4 + 192, "4->3 k1 @8x8"),
            (2 * 2 * 3 * 4 * 4, "k2 @4x4"),
            (0, ""),
            (2 * 48 * 5 + 5, "48->5")]
        assert rep.total == 32101

    def test_self_ratio_is_one(self):
        rep = count_flops(parse_spec(TINY))
        assert rep.ratio_vs(rep) == 1.0


class TestCompiledNodes:
    def test_producers_of_each_block(self):
        nodes = parse_spec(NESTED).nodes
        assert [n.src for n in nodes] == [-1, 0, 0, 2, 3, 3, 5, 6, 6, 8, 8, 8]
        assert [n.skip_src for n in nodes if n.skip_src is not None] == [3, 0]
        assert nodes[10].in_shape == (8, 8, 8) and nodes[10].out_shape == (512,)

    def test_nodes_stay_out_of_equality_and_repr(self):
        spec = parse_spec(NESTED)
        assert spec == parse_spec(format_spec(spec))
        assert hash(spec) == hash(parse_spec(format_spec(spec)))
        assert "nodes" not in repr(spec) and "groups" not in repr(spec)


class TestCouplingGroups:
    def test_plain_chain_all_singletons(self):
        spec = parse_spec(TINY)
        groups = build_coupling_groups(spec)
        assert len(groups) == 4
        assert all(len(g.members) == 1 for g in groups)
        assert groups[0].members == (ChannelRef(0, 0),)

    def test_residual_groups_pairwise(self):
        spec = parse_spec(RESNETTY)
        groups = build_coupling_groups(spec)
        # block 0 pairs with block 3 positionwise; block 2 is free
        paired = [g for g in groups if len(g.members) == 2]
        single = [g for g in groups if len(g.members) == 1]
        assert len(paired) == 8 and len(single) == 8
        for g in paired:
            layers = {m.layer for m in g.members}
            chans = {m.channel for m in g.members}
            assert layers == {0, 3} and len(chans) == 1
        total = 8 * 3
        assert len(groups) == total - sum(len(g.members) - 1 for g in groups)

    def test_chained_residuals_merge_transitively(self):
        text = ("input 3 8 8\nconv_bn_relu 8 3 1 1\n"
                "residual_begin\nconv_bn_relu 8 3 1 1\nconv_bn 8 3 1 1\nresidual_add\n"
                "residual_begin\nconv_bn_relu 8 3 1 1\nconv_bn 8 3 1 1\nresidual_add\n"
                "flatten\nlinear 4\n")
        groups = build_coupling_groups(parse_spec(text))
        triples = [g for g in groups if len(g.members) == 3]
        assert len(triples) == 8
        for g in triples:
            assert {m.layer for m in g.members} == {0, 3, 7}

    def test_input_coupled_group_is_unprunable(self):
        text = ("input 1 8 8\nresidual_begin\nconv_bn_relu 4 3 1 1\nconv 1 3 1 1\n"
                "residual_add\nflatten\nlinear 2\n")
        groups = build_coupling_groups(parse_spec(text))
        # the plain conv joins the input stream: dropped; inner 4 channels stay
        assert len(groups) == 4
        assert all(g.members[0].layer == 1 for g in groups)

    def test_nested_joins_form_their_own_groups(self):
        groups = build_coupling_groups(parse_spec(NESTED))
        layer_sets = [tuple(sorted({m.layer for m in g.members})) for g in groups]
        assert layer_sets.count((3, 6)) == 6  # inner join
        assert layer_sets.count((0, 8)) == 8  # outer join
        assert layer_sets.count((2,)) == 6 and layer_sets.count((5,)) == 4
        assert len(groups) == 24
        for g in groups:
            assert len({m.channel for m in g.members}) == 1

    def test_nested_joins_on_one_stream_merge(self):
        groups = build_coupling_groups(parse_spec(NESTED_SHARED))
        triples = [g for g in groups if len(g.members) == 3]
        assert len(triples) == 4
        assert all({m.layer for m in g.members} == {0, 4, 6} for g in triples)

    def test_lookup_covers_every_member(self):
        groups = build_coupling_groups(parse_spec(RESNETTY))
        table = group_lookup(groups)
        assert len(table) == sum(len(g.members) for g in groups)
        for g in groups:
            for m in g.members:
                assert table[m] == g.group_id


def _tiny_records(seed=0):
    net = build_network(parse_spec(TINY), seed=seed)
    return format_spec(net.spec), [(name, 0, t.shape, t.data.tobytes())
                                   for name, t in net.named_tensors().items()]


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = build_network(parse_spec(TINY), seed=123)
        net.params[0].running_mean.data[:] = [0.1, -0.2, 0.3, 0.0]
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(net, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for name, t in net.named_tensors().items():
            np.testing.assert_array_equal(t.data, loaded.named_tensors()[name].data)
        assert loaded.spec == net.spec

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.ckpt"
        net = build_network(parse_spec(TINY), seed=0)
        save_checkpoint(net, p)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"NOPE"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(p)

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "x.ckpt"
        save_checkpoint(build_network(parse_spec(TINY), seed=0), p)
        p.write_bytes(p.read_bytes()[:-7])
        with pytest.raises(FormatError):
            load_checkpoint(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"")
        with pytest.raises(FormatError):
            load_checkpoint(p)

    def test_struct_writer_matches_save(self, tmp_path):
        spec_text, records = _tiny_records(seed=3)
        write_ckpt(tmp_path / "a.ckpt", spec_text, records)
        save_checkpoint(build_network(parse_spec(TINY), seed=3), tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_huge_dims_are_a_format_error(self, tmp_path):
        # 2**31 * 2**31 * 2**31 * 4 elements wrap to 0 in int64
        spec_text, _ = _tiny_records()
        p = tmp_path / "huge.ckpt"
        write_ckpt(p, spec_text, [("b0.weight", 0, (2**31, 2**31, 2**31, 4), b"\0" * 64)])
        with pytest.raises(FormatError, match="declares"):
            load_checkpoint(p)

    @pytest.mark.parametrize("record, match", [
        (("b9.weight", 0, (4,), b"\0" * 16), "spec lacks"),
        (("b0.weight", 0, (0, 2**31, 2**31), b""), "declares"),  # 0 bytes declared
        (("b0.bias", 0, (3,), b"\0" * 12), "declares"),
    ])
    def test_record_outside_the_spec_rejected(self, tmp_path, record, match):
        spec_text, _ = _tiny_records()
        p = tmp_path / "odd.ckpt"
        write_ckpt(p, spec_text, [record])
        with pytest.raises(FormatError, match=match):
            load_checkpoint(p)

    def test_duplicate_tensor_name_rejected(self, tmp_path):
        spec_text, records = _tiny_records()
        name, tag, dims, raw = records[1]
        p = tmp_path / "dup.ckpt"
        write_ckpt(p, spec_text, records + [(name, tag, dims, bytes(len(raw)))])
        with pytest.raises(FormatError, match="twice"):
            load_checkpoint(p)

    def test_mixed_dtypes_rejected(self, tmp_path):
        spec_text, records = _tiny_records()
        name, _, dims, raw = records[2]
        wide = np.frombuffer(raw, dtype=np.float32).astype(np.float64).tobytes()
        records[2] = (name, 1, dims, wide)
        p = tmp_path / "mixed.ckpt"
        write_ckpt(p, spec_text, records)
        with pytest.raises(FormatError, match="mixes dtypes"):
            load_checkpoint(p)

    def test_negative_running_var_rejected(self, tmp_path):
        net = build_network(parse_spec(TINY), seed=0)
        net.params[0].running_var.data[1] = -1.0
        p = tmp_path / "neg.ckpt"
        save_checkpoint(net, p)
        with pytest.raises(FormatError, match="running_var must be non-negative"):
            load_checkpoint(p)

    def test_float64_round_trip(self, tmp_path):
        net = build_network(parse_spec(TINY), seed=4, dtype=np.float64)
        p = tmp_path / "d.ckpt"
        save_checkpoint(net, p)
        loaded = load_checkpoint(p)
        assert loaded.params[0].weight.dtype == np.float64
