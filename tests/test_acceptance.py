"""End-to-end acceptance checks, one test per guarantee the package makes.

Each test prints its own PASS/FAIL line via the conftest hook.  The
comparative-training check is the slow one (~90 seconds); everything else
is seconds.
"""

import csv
import json

import numpy as np
import pytest
from oracles import (
    block_window_mask,
    brute_attention_distance,
    brute_neighborhood,
    brute_similarity,
    masked_full_attention_oracle,
)

from pswa.attention import WindowSpec, window_attention
from pswa.block import BridgeParams, bridge_branch
from pswa.cli import main
from pswa.config import RunConfig
from pswa.diagnostics import (
    attention_distance,
    feature_spectrum,
    flops_report,
    hf_band_fraction,
    measured_flops,
)
from pswa.diffusion import q_sample, train_model
from pswa.model import ToyDiT, ToyDiTConfig
from pswa.numerics import Rng, Tensor, no_grad
from pswa import gradsuite


# ---------------------------------------------------------------------------
# 1. windowed fast path == masked dense oracle (zero position bias)
# ---------------------------------------------------------------------------

def test_window_attention_matches_masked_oracle():
    gen = np.random.default_rng(0)
    tol = 1e-10
    grids = [(2, 2), (4, 4), (8, 8), (4, 8), (8, 4), (6, 6)]
    window_menu = [(1, 1), (2, 2), (4, 4), None]  # None = full grid
    instances = 0
    for h, w in grids:
        for win in window_menu:
            wh, ww = win if win is not None else (h, w)
            if h % wh or w % ww:
                continue
            for rep in range(5):
                channels = int(gen.choice([4, 8]))
                heads = int(gen.choice([1, 2, 4]))
                spec = WindowSpec.create(wh, ww, channels, heads, Rng(1000 * instances + rep))  # bias table all zero
                x = gen.normal(size=(2, h, w, channels))
                fast, _ = window_attention(Tensor(x), spec)
                mask = block_window_mask(h, w, wh, ww)
                slow = masked_full_attention_oracle(x.reshape(2, h * w, channels), spec, mask)
                err = np.abs(fast.data.reshape(2, h * w, channels) - slow).max()
                assert err < tol, f"grid {h}x{w} window {wh}x{ww}: err {err:.3e}"
                instances += 1
    assert instances >= 100, f"only {instances} instances exercised"


# ---------------------------------------------------------------------------
# 2. finite-difference gradient suite, ops and end-to-end
# ---------------------------------------------------------------------------

def test_gradient_suite_all_cases():
    failures = []
    for case in gradsuite.ALL_CASES:
        report = gradsuite.run_case(case, seed=0)
        if not report.ok(case.tol):
            failures.append(f"{case.module}.{case.name}: {report.max_err:.3e} > {case.tol:.0e}")
    assert not failures, "; ".join(failures)


# ---------------------------------------------------------------------------
# 3. attention distance: oracle agreement, exact uniform case, window bound
# ---------------------------------------------------------------------------

def test_attention_distance_oracle_and_window_bound():
    gen = np.random.default_rng(1)
    checked = 0
    for width, n in [(2, 4), (3, 9), (4, 16)]:
        for _ in range(334):
            a = np.exp(gen.normal(size=(n, n)))
            a /= a.sum(axis=1, keepdims=True)
            got = attention_distance(a, width)
            want = brute_attention_distance(a, width)
            assert abs(got[0] - want[0]) < 1e-12 and abs(got[1] - want[1]) < 1e-12
            checked += 1
    assert checked >= 1000

    # the uniform map on a 2x2 grid lands exactly on (1/2, 1/2)
    assert attention_distance(np.full((4, 4), 0.25), 2) == (0.5, 0.5)

    # maps produced inside a window can never travel a full window side
    for wh, ww, h, w in [(2, 2, 4, 4), (2, 4, 4, 8), (4, 4, 8, 8), (1, 1, 2, 2)]:
        spec = WindowSpec.create(wh, ww, 4, 2, Rng(wh * 10 + ww))
        x = Tensor(gen.normal(size=(2, h, w, 4)))
        _, maps = window_attention(x, spec)
        for g in range(maps.shape[0]):
            for head in range(maps.shape[1]):
                d_row, d_col = attention_distance(maps.data[g, head], ww)
                assert d_row < wh and d_col < ww


# ---------------------------------------------------------------------------
# 4. order-K similarity vs brute force, via the bridge's depthwise correlation
# ---------------------------------------------------------------------------

def test_neighborhood_and_similarity_oracles(bridge_correlation):
    # read at i and j, the correlation is each side's alpha-weighted order-K
    # aggregation, so its inner product is the order-K similarity; every
    # center, so each clipped edge and corner neighborhood is compared
    gen = np.random.default_rng(2)
    for order in range(1, 6):
        side = 2 * order - 1
        for extents in [(16, 16), (5, 7), (1, 1), (16, 3)]:
            feats = gen.normal(size=(*extents, 2))
            alpha = gen.normal(size=(side, side))
            agg = bridge_correlation(feats, alpha)
            for r in range(extents[0]):
                for c in range(extents[1]):
                    i, j = (r, c), (extents[0] - 1 - r, c)
                    got = float(agg[i] @ agg[j])
                    assert abs(got - brute_similarity(feats, i, j, order, alpha)) < 1e-12

    for order in (1, 2, 3):
        side = 2 * order - 1
        feats = gen.normal(size=(8, 8, 6))
        alpha = gen.normal(size=(side, side))
        agg = bridge_correlation(feats, alpha)
        for _ in range(40):
            i = (int(gen.integers(8)), int(gen.integers(8)))
            j = (int(gen.integers(8)), int(gen.integers(8)))
            got = float(agg[i] @ agg[j])
            assert abs(got - brute_similarity(feats, i, j, order, alpha)) < 1e-12

    # order 1 with a unit stencil over projected maps is the plain logit
    spec = WindowSpec.create(1, 1, 6, 1, Rng(3))
    x = gen.normal(size=(4, 4, 6))
    q = (x.reshape(16, 6) @ spec.w_q.data).reshape(4, 4, 6)
    k = (x.reshape(16, 6) @ spec.w_k.data).reshape(4, 4, 6)
    unit = np.ones((1, 1))
    q_agg, k_agg = bridge_correlation(q, unit), bridge_correlation(k, unit)
    for i_flat, j_flat in [(0, 15), (7, 7), (3, 12)]:
        i, j = divmod(i_flat, 4), divmod(j_flat, 4)
        got = float(q_agg[i] @ k_agg[j])
        assert abs(got - float(q[i] @ k[j])) < 1e-12
        assert abs(got - brute_similarity(q, i, j, 1, unit, psi_features=k)) < 1e-12


# ---------------------------------------------------------------------------
# 5. bridge impulse response covers exactly the order-K neighborhood
# ---------------------------------------------------------------------------

def test_bridge_impulse_support_equals_neighborhood():
    channels = 3
    for order in range(1, 6):
        k = 2 * order - 1
        params = BridgeParams(
            Tensor(np.ones((channels, k, k))),
            Tensor(np.eye(channels)),
            Tensor(np.zeros(channels)),
        )
        for center in [(5, 5), (0, 0), (10, 2)]:
            x = np.zeros((1, 11, 11, channels))
            x[0, center[0], center[1], 1] = 1.0
            out = bridge_branch(Tensor(x), params).data[0]
            support = {tuple(p) for p in np.argwhere(np.abs(out).sum(axis=-1) > 0)}
            want = set(brute_neighborhood(center, order, (11, 11)))
            assert support == want, f"order {order} center {center}"


# ---------------------------------------------------------------------------
# 6. FLOPs: pair-term scaling and instrumented agreement
# ---------------------------------------------------------------------------

def test_flops_ratio_and_instrumented_agreement():
    # dense/window pair cost ratio is exactly tokens / window size, read off
    # the report rows of otherwise identical configs; the dense config's
    # window is the whole grid (a 1 x 16 grid is a plain token sequence)
    for image_hw, windows in [((16, 16), [(1, 1), (2, 2), (2, 4), (4, 4)]), ((2, 32), [(1, 1), (1, 4), (1, 8)])]:
        base = dict(image_h=image_hw[0], image_w=image_hw[1], patch=2, d_model=16, depth=2,
                    num_heads=2, fractions=(0.5, 1.0), mlp_ratio=1.0)
        grid = (image_hw[0] // 2, image_hw[1] // 2)
        n = grid[0] * grid[1]
        dense = flops_report(ToyDiTConfig(window=grid, **base)).by_component()
        for wh, ww in windows:
            windowed = flops_report(ToyDiTConfig(window=(wh, ww), **base)).by_component()
            for l in range(2):
                row_w = windowed[f"block{l}.window_pairs"].flops
                row_d = dense[f"block{l}.window_pairs"].flops
                assert row_w > 0 and row_d * (wh * ww) == row_w * n

    # the instrumented counter reproduces the closed form exactly
    configs = [
        ToyDiTConfig(image_h=8, image_w=8, patch=4, d_model=8, depth=2,
                     num_heads=2, window=(2, 2), order=2, mlp_ratio=1.0, max_timesteps=10),
        ToyDiTConfig(image_h=8, image_w=8, patch=4, d_model=8, depth=2, num_heads=2,
                     window=(2, 2), fractions=(0.0, 1.0), mlp_ratio=1.0, max_timesteps=10),
        ToyDiTConfig(image_h=8, image_w=8, patch=4, d_model=8, depth=1, num_heads=2,
                     window=(2, 2), class_count=3, mlp_ratio=1.0, max_timesteps=10),
        ToyDiTConfig(image_h=8, image_w=8, patch=4, d_model=8, depth=2, num_heads=4,
                     window=(1, 1), order=1, mlp_ratio=1.0, max_timesteps=10),
        ToyDiTConfig(image_h=16, image_w=16, patch=2, d_model=16, depth=3, num_heads=2,
                     window=(4, 4), order=3, mlp_ratio=2.0, max_timesteps=10),
    ]
    for cfg in configs:
        model = ToyDiT(cfg, Rng(0))
        assert measured_flops(model) == flops_report(cfg).total_flops


# ---------------------------------------------------------------------------
# 7. after the smoke train, the split model keeps more high frequency
#    in its mid-layer features than an attention-only twin
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_trained_split_model_keeps_more_high_frequency():
    def train_arm(fractions, window):
        raw = {"model": {"window": list(window)}}
        if fractions is not None:
            raw["pcca"] = {"fractions": fractions}
        cfg = RunConfig.from_dict(raw)
        model = ToyDiT(cfg.build_model_config(), Rng(0))
        dataset = cfg.build_dataset(Rng(1))
        schedule = cfg.build_noise_schedule()
        train_model(model, dataset, schedule, Rng(2), steps=cfg.training.steps,
                    lr=cfg.training.lr, batch_size=cfg.training.batch_size)
        return model, dataset, schedule

    split_model, dataset, schedule = train_arm(None, (2, 2))
    dense_model, _, _ = train_arm([1.0, 1.0, 1.0, 1.0], (8, 8))

    eval_rng = Rng(77)
    images = dataset.batch(eval_rng.split("batch"), 16)
    t = schedule.timesteps // 2
    noisy = q_sample(images, t, eval_rng.split("noise").normal(images.shape), schedule)

    def mid_layer_fraction(model):
        grabbed: list = []
        with no_grad():
            model.forward(Tensor(noisy), np.full(16, t, dtype=np.int64), collect_tokens=grabbed)
        _, profile = feature_spectrum(grabbed[model.cfg.depth // 2])
        return hf_band_fraction(profile)

    split_frac = mid_layer_fraction(split_model)
    dense_frac = mid_layer_fraction(dense_model)
    assert split_frac > dense_frac, (
        f"high-frequency fraction {split_frac:.6f} (split) <= {dense_frac:.6f} (attention-only)"
    )


# ---------------------------------------------------------------------------
# 8. the five channel-allocation arms are reachable from config alone
# ---------------------------------------------------------------------------

def test_five_allocation_arms_from_config():
    def config_from(pcca: dict):
        raw = {"pcca": pcca} if pcca else {}
        return RunConfig.from_dict(raw).build_model_config()

    configs = [
        config_from({"fractions": [0.0, 0.0, 0.0, 0.0]}),  # no window branch
        config_from({"fractions": [1.0, 1.0, 1.0, 1.0]}),  # no bridge
        config_from({"fractions": [0.75, 0.5, 0.5, 0.25]}),  # decreasing
        config_from({"fractions": [0.5, 0.5, 0.5, 0.5]}),  # constant
        config_from({}),  # the default arm: increasing
    ]
    widths = [cfg.window_widths for cfg in configs]
    assert len(set(widths)) == 5, f"arms not pairwise distinct: {widths}"
    no_window, no_bridge, decreasing, constant, increasing = widths

    def steps(hs):
        return list(zip(hs, hs[1:]))

    assert no_window == (0, 0, 0, 0)
    assert no_bridge == (32, 32, 32, 32)
    assert not all(a <= b for a, b in steps(decreasing))
    assert all(a == b for a, b in steps(constant))
    assert all(a <= b for a, b in steps(increasing))
    assert increasing[0] < increasing[-1]
    assert increasing == (8, 16, 16, 24)

    # the built model and the cost model both follow the config's allocation
    for cfg, hs in zip(configs, widths):
        model = ToyDiT(cfg, Rng(0))
        assert tuple(layer.window_channels for layer in model.layer_configs) == hs
        assert tuple(layer.bridge_channels for layer in model.layer_configs) == tuple(32 - h for h in hs)
        rows = flops_report(cfg).by_component()
        for l, h in enumerate(hs):
            assert rows[f"block{l}.projection"].flops == 8 * cfg.tokens * h * h
            assert rows[f"block{l}.projection"].params == 4 * h * h


# ---------------------------------------------------------------------------
# 9. bit-identical metrics for identical (seed, config) on the 64-bit path
# ---------------------------------------------------------------------------

def test_metrics_bitwise_determinism(tmp_path):
    cfg = {
        "seed": 5,
        "precision": "f64",
        "model": {"image_h": 8, "image_w": 8, "patch": 4, "d_model": 8,
                  "depth": 2, "num_heads": 2, "mlp_ratio": 1.0},
        "schedule": {"timesteps": 10},
        "training": {"steps": 10, "lr": 1e-3, "batch_size": 4,
                     "dataset_size": 8, "log_every": 0},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    columns = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        # all columns but wall-clock elapsed_ms participate in the promise
        columns.append([row[:3] for row in rows])
    assert columns[0] == columns[1]