"""Checkpoint format 1, read by the format-2 loader.

tests/data holds a format-1 checkpoint of the (4, 8, 8) net on the
16x16x8 grid of scripts/cli_artifacts.py, one masked synthetic frame and
the eval logits that the format-1 code gave on it.  Format 1 stored a bias
for every conv; these were written, from the repository's src/ before
format 2 (commit ba75736, whose OccupancyNet still had buffers()), by:

    import numpy as np
    from rmae import pointcloud, radial_mask, voxelizer
    from rmae.occupancy_net import NetConfig, OccupancyNet, save_checkpoint
    from rmae.occupancy_net.network import visible_features

    geom = voxelizer.GridGeometry(
        (-6.4, -6.4, -1.6), (0.8, 0.8, 0.8), (16, 16, 8)
    )
    spec = pointcloud.SceneSpec(ground_extent=6.0, box_count=3, seed=3)
    grid = voxelizer.voxelize(pointcloud.synth_scene(spec), geom)
    mask = radial_mask.apply_mask(grid, radial_mask.MaskConfig(m=0.5, seed=7))
    frame = visible_features(grid, mask.visible)
    net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8)))
    rng = np.random.default_rng(13)
    for path, arr in net.parameters() + net.buffers():
        if path.endswith((".bias", ".running_mean")):
            arr[...] = rng.normal(0.0, 0.5, arr.shape)
        elif path.endswith(".running_var"):
            arr[...] = rng.uniform(0.5, 2.0, arr.shape)
    save_checkpoint(net, "tests/data/net_v1.rmae")
    np.savez("tests/data/net_v1_frame.npz", coords=frame.coords,
             feats=frame.feats)
    np.save("tests/data/net_v1_logits.npy", net.forward(frame)[0].logits)
"""

import dataclasses
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from rmae import cli
from rmae.errors import MalformedFile
from rmae.occupancy_net import (
    NetConfig,
    OccupancyNet,
    SparseFeatureMap,
    load_checkpoint,
    save_checkpoint,
)
from rmae.occupancy_net.checkpoint import VERSION, _Reader
from conftest import net_buffers
from test_cli import TINY, _with_header

DATA = Path(__file__).parent / "data"
V1 = DATA / "net_v1.rmae"


def frame() -> SparseFeatureMap:
    data = np.load(DATA / "net_v1_frame.npz")
    return SparseFeatureMap((16, 16, 8), data["coords"], data["feats"])


def layer_records(raw: bytes):
    """(the bytes before the layers, each layer's bytes, and per layer its
    name and {tensor name: array}) of a checkpoint."""
    r = _Reader(raw, "checkpoint")
    r.take(8)
    r.take(r.u("<I"))
    n_layers = r.u("<I")
    head = raw[: r.pos]
    records, tensors = [], {}
    for _ in range(n_layers):
        start = r.pos
        name, _ = r.string(), r.string()
        tensors[name] = {}
        for _ in range(r.u("<I")):
            tname = r.string()
            ndim = r.u("<B")
            shape = struct.unpack(f"<{ndim}I", r.take(4 * ndim))
            count = int(np.prod(shape))
            data = np.frombuffer(r.take(8 * count), "<f8").reshape(shape)
            tensors[name][tname] = data
        records.append(raw[start : r.pos])
    return head, records, tensors


def test_the_fixture_is_format_1():
    raw = V1.read_bytes()
    assert raw[:4] == b"RMAE"
    assert struct.unpack("<I", raw[4:8]) == (1,)
    _, _, tensors = layer_records(raw)
    biases = [name for name, t in tensors.items() if "bias" in t]
    assert len(biases) == 12  # every conv, the head among them


def test_loads_to_the_format_2_net():
    net = load_checkpoint(V1)
    params = net.parameters()
    assert len(params) == 35
    assert [path for path, _ in params if path.endswith("bias")] == [
        "head.bias"
    ]


def test_eval_logits_match_the_format_1_code():
    net = load_checkpoint(V1)
    expect = np.load(DATA / "net_v1_logits.npy")
    logits = net.forward(frame())[0].logits
    err = np.abs(logits - expect).max()
    assert err <= 1e-6 * np.abs(expect).max()


def test_each_dead_bias_is_folded_into_the_batch_norm_after_it():
    _, _, stored = layer_records(V1.read_bytes())
    net = load_checkpoint(V1)
    layers = net.named_layers()
    for (conv, _), (bn_name, bn) in zip(layers[::2], layers[1::2]):
        expect = stored[bn_name]["running_mean"] - stored[conv]["bias"]
        assert bn.running_mean.tobytes() == expect.tobytes(), bn_name
    assert net.head.bias.tobytes() == stored["head"]["bias"].tobytes()


def test_layer_order_in_the_file_does_not_matter(tmp_path):
    head, records, _ = layer_records(V1.read_bytes())
    shuffled = tmp_path / "reversed.rmae"
    shuffled.write_bytes(head + b"".join(records[::-1]))
    a, b = load_checkpoint(V1), load_checkpoint(shuffled)
    for (pa, x), (pb, y) in zip(
        a.parameters() + net_buffers(a), b.parameters() + net_buffers(b)
    ):
        assert pa == pb
        assert x.tobytes() == y.tobytes(), pa


def test_a_loaded_format_1_net_saves_as_format_2(tmp_path):
    net = load_checkpoint(V1)
    path = tmp_path / "v2.rmae"
    save_checkpoint(net, path)
    raw = path.read_bytes()
    assert struct.unpack("<I", raw[4:8]) == (VERSION,) == (2,)
    back = load_checkpoint(path)
    for (pa, x), (pb, y) in zip(
        net.parameters() + net_buffers(net),
        back.parameters() + net_buffers(back),
    ):
        assert pa == pb
        assert x.tobytes() == y.tobytes(), pa


def test_a_bias_where_format_2_has_none_is_malformed(tmp_path):
    raw = V1.read_bytes()
    bad = tmp_path / "v1-as-v2.rmae"
    bad.write_bytes(raw[:4] + struct.pack("<I", 2) + raw[8:])
    with pytest.raises(MalformedFile, match="tensor count"):
        load_checkpoint(bad)


class TestEvalCommand:
    def test_eval_on_the_format_1_checkpoint(self, tmp_path):
        out = tmp_path / "out"
        argv = ["eval", "--out", str(out), "--checkpoint", str(V1)]
        assert cli.main(argv + TINY) == 0
        assert (out / "eval.json").exists()

    def test_version_3_is_malformed(self, tmp_path, capsys):
        raw = V1.read_bytes()
        bad = tmp_path / "v3.rmae"
        bad.write_bytes(raw[:4] + struct.pack("<I", 3) + raw[8:])
        argv = ["eval", "--out", str(tmp_path / "out"), "--checkpoint", str(bad)]
        assert cli.main(argv + TINY) == cli.EXIT_MALFORMED == 4
        assert "unsupported version 3" in capsys.readouterr().err


class TestHeader:
    """The config header is read as the net section of a run config is:
    a key NetConfig lacks, or a value that does not fit its field, exits 4
    and names the key."""

    def eval_of(self, header: bytes, tmp_path) -> int:
        """eval's exit code on TINY's untrained net with header as its
        config json."""
        good = tmp_path / "good.rmae"
        save_checkpoint(OccupancyNet(NetConfig(stage_channels=(4, 8, 8))), good)
        bad = tmp_path / "bad.rmae"
        bad.write_bytes(_with_header(good.read_bytes(), header))
        argv = ["eval", "--out", str(tmp_path / "out"), "--checkpoint", str(bad)]
        return cli.main(argv + TINY)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", "x"),
            ("bn_eps", math.inf),
            ("bn_momentum", True),
            ("zzz", 1),
            # an int NetConfig caps: refused before any layer is allocated
            ("in_channels", 10**12),
        ],
    )
    def test_a_value_that_does_not_fit_names_its_key(
        self, key, value, tmp_path, capsys
    ):
        config = dataclasses.asdict(NetConfig(stage_channels=(4, 8, 8)))
        header = json.dumps({**config, key: value}).encode()
        assert self.eval_of(header, tmp_path) == cli.EXIT_MALFORMED == 4
        err = capsys.readouterr().err
        assert "error: MalformedFile: " in err
        # a value of its field's type is named by NetConfig's own message
        named = f"net: {key} " if key == "in_channels" else f"net.{key}"
        assert f"{tmp_path / 'bad.rmae'}: {named}" in err
        assert not (tmp_path / "out" / "eval.json").exists()

    @pytest.mark.parametrize(
        "header",
        [b"[4, [4, 8, 8]]", b'{"stage_channels": [4, 8, 8], "seed": -1}'],
        ids=["list", "seed-minus-1"],
    )
    def test_a_list_or_a_seed_numpy_refuses_is_malformed(
        self, header, tmp_path, capsys
    ):
        assert self.eval_of(header, tmp_path) == cli.EXIT_MALFORMED == 4
        assert "error: MalformedFile: " in capsys.readouterr().err
