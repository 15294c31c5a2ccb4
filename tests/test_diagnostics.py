import csv
import weakref

import numpy as np
import pytest
from oracles import brute_attention_distance, brute_radial_profile

from pswa.diagnostics import (
    SPECTRUM_BINS,
    attention_distance,
    distance_histogram,
    distance_survey,
    feature_spectrum,
    flops_report,
    hf_band_fraction,
    measured_flops,
    write_distance_csv,
    write_flops_csv,
    write_spectrum_csv,
)
from pswa.diffusion import NoiseSchedule, q_sample
from pswa.errors import ConfigurationError, DegenerateMapError, DimensionError, NumericsError
from pswa.model import ToyDiT, ToyDiTConfig
from pswa.numerics import Rng, Tensor, no_grad


def tiny_cfg(**kw):
    base = dict(
        image_h=8,
        image_w=8,
        image_channels=1,
        patch=4,
        d_model=8,
        depth=2,
        num_heads=2,
        window=(2, 2),
        order=2,
        mlp_ratio=1.0,
        max_timesteps=10,
    )
    base.update(kw)
    return ToyDiTConfig(**base)


# ---------------------------------------------------------------------------
# attention distance
# ---------------------------------------------------------------------------

def test_distance_matches_brute(np_rng):
    for width, n in [(2, 4), (4, 16), (3, 12)]:
        for _ in range(20):
            logits = np_rng.normal(size=(n, n))
            a = np.exp(logits)
            a /= a.sum(axis=1, keepdims=True)
            got = attention_distance(a, width)
            want = brute_attention_distance(a, width)
            np.testing.assert_allclose(got, want, atol=1e-12)
    # a [G, heads, N, N] stack gives every map's distances, bit-for-bit as one call per map
    stack = np.exp(np_rng.normal(size=(5, 3, 16, 16)))
    stack /= stack.sum(axis=-1, keepdims=True)
    d_row, d_col = attention_distance(stack, 4)
    assert d_row.shape == d_col.shape == (5, 3)
    for g in range(5):
        for h in range(3):
            assert (d_row[g, h], d_col[g, h]) == attention_distance(stack[g, h], 4)


def test_distance_exact_cases():
    # self-attention travels nowhere
    assert attention_distance(np.eye(4), 2) == (0.0, 0.0)
    # uniform attention on a 2x2 grid: half the pairs differ by one
    # row (resp. column), so both means are 0.5
    uniform = np.full((4, 4), 0.25)
    np.testing.assert_allclose(attention_distance(uniform, 2), (0.5, 0.5), atol=1e-15)
    # all mass on the farthest column neighbour
    a = np.zeros((4, 4))
    a[:, 3] = 1.0
    d_row, d_col = attention_distance(a, 4)  # 1x4 grid
    assert d_row == 0.0
    np.testing.assert_allclose(d_col, (3 + 2 + 1 + 0) / 4)


def test_distance_input_validation():
    with pytest.raises(DimensionError):
        attention_distance(np.zeros((3, 4)), 2)
    with pytest.raises(ConfigurationError):
        attention_distance(np.eye(4), 3)
    with pytest.raises(DimensionError):
        attention_distance(np.full((4, 4), -0.25), 2)
    with pytest.raises(DegenerateMapError):
        attention_distance(np.zeros((4, 4)), 2)
    with pytest.raises(NumericsError):
        attention_distance(np.full((4, 4), np.nan), 2)
    one_inf = np.full((4, 4), 0.25)
    one_inf[1, 2] = np.inf
    with pytest.raises(NumericsError):
        attention_distance(one_inf, 2)


def test_distance_histogram_edges():
    rows = distance_histogram([0.0, 0.5, 1.0, 1.0, 2.0], buckets=2)
    assert len(rows) == 2
    (lo0, hi0, n0), (lo1, hi1, n1) = rows
    assert (lo0, hi0) == (0.0, 1.0) and (lo1, hi1) == (1.0, 2.0)
    # top edge inclusive: the 2.0 lands in the last bucket, the 1.0s in the second
    assert (n0, n1) == (2, 3)
    assert sum(n for _, _, n in rows) == 5
    with pytest.raises(ConfigurationError):
        distance_histogram([1.0], buckets=0)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_radial_spectrum_matches_brute_dft(np_rng):
    edges = np.linspace(0.0, np.sqrt(0.5), SPECTRUM_BINS + 1)
    for h, w in [(4, 4), (8, 8), (5, 7), (6, 9)]:
        m = np_rng.normal(size=(h, w))
        centers, profile = feature_spectrum(m)
        np.testing.assert_allclose(centers, 0.5 * (edges[:-1] + edges[1:]), atol=1e-15)
        np.testing.assert_allclose(profile, brute_radial_profile(m, SPECTRUM_BINS), atol=1e-9)


def test_constant_map_is_dc_only():
    _, profile = feature_spectrum(np.full((8, 8), 3.0))
    assert profile[0] > 0.0
    np.testing.assert_array_equal(profile[1:], 0.0)
    assert hf_band_fraction(profile) == 0.0


def test_checkerboard_is_pure_high_frequency():
    r, c = np.indices((8, 8))
    board = np.where((r + c) % 2 == 0, 1.0, -1.0)
    _, profile = feature_spectrum(board)
    # a single peak at the corner frequency (1/2, 1/2), radius sqrt(.5)
    assert profile[-1] > 0.0
    np.testing.assert_array_equal(profile[:-1], 0.0)
    assert hf_band_fraction(profile) == 1.0


def test_feature_spectrum_rank_handling(np_rng):
    m = np_rng.normal(size=(8, 8))
    _, p2 = feature_spectrum(m)
    _, p3 = feature_spectrum(m[:, :, None])
    _, p4 = feature_spectrum(m[None, :, :, None])
    np.testing.assert_array_equal(p2, p3)
    np.testing.assert_array_equal(p3, p4)
    # multi-channel input averages the per-slice profiles
    a, b = np_rng.normal(size=(8, 8)), np_rng.normal(size=(8, 8))
    _, pa = feature_spectrum(a)
    _, pb = feature_spectrum(b)
    _, pab = feature_spectrum(np.stack([a, b], axis=-1))
    np.testing.assert_array_equal(pab, (pa + pb) / 2)


def test_hf_band_fraction_validation():
    with pytest.raises(DegenerateMapError):
        hf_band_fraction(np.zeros(SPECTRUM_BINS))
    with pytest.raises(DimensionError):
        hf_band_fraction(np.ones(4))


def test_spectrum_rejects_bad_rank(np_rng):
    with pytest.raises(DimensionError):
        feature_spectrum(np_rng.normal(size=(2, 2, 4, 4, 1)))
    for empty in [np.zeros((0, 8, 8, 2)), np.zeros((2, 8, 8, 0)), np.zeros((8, 0))]:
        with pytest.raises(DimensionError):
            feature_spectrum(empty)
    nan = np_rng.normal(size=(2, 8, 8, 3))
    nan[1, 2, 3, 0] = np.nan
    for bad in [nan, np.full((4, 4), np.inf)]:
        with pytest.raises(NumericsError):
            feature_spectrum(bad)


# ---------------------------------------------------------------------------
# distance survey
# ---------------------------------------------------------------------------

def test_survey_is_seed_deterministic(np_rng):
    cfg = tiny_cfg()
    model = ToyDiT(cfg, Rng(5))
    schedule = NoiseSchedule.linear(10)
    images = np_rng.normal(size=(2, 1, 8, 8))
    a = distance_survey(model, images, schedule, Rng(11), num_samples=6)
    b = distance_survey(model, images, schedule, Rng(11), num_samples=6)
    assert a == b
    c = distance_survey(model, images, schedule, Rng(12), num_samples=6)
    assert a != c
    assert len(a) == 6
    for rec in a:
        assert 0 <= rec.timestep < 10
        assert rec.d_row >= 0.0 and rec.d_col >= 0.0
        # window is 2x2, so distances are bounded by the window side
        assert rec.d_row < 2.0 and rec.d_col < 2.0


def test_survey_skips_bridge_only_layers(np_rng):
    cfg = tiny_cfg(fractions=(0.0, 1.0))
    model = ToyDiT(cfg, Rng(5))
    schedule = NoiseSchedule.linear(10)
    images = np_rng.normal(size=(1, 1, 8, 8))
    records = distance_survey(model, images, schedule, Rng(0), num_samples=12)
    assert all(rec.layer == 1 for rec in records)
    # a model with no window branch anywhere cannot be surveyed
    nowin = ToyDiT(tiny_cfg(fractions=(0.0, 0.0)), Rng(5))
    with pytest.raises(ConfigurationError):
        distance_survey(nowin, images, schedule, Rng(0), num_samples=4)


def test_survey_holds_one_timestep_of_maps_and_keeps_the_draw_order(monkeypatch):
    model = ToyDiT(tiny_cfg(patch=2), Rng(5))  # 4x4 tokens, four 2x2 windows per image
    schedule = NoiseSchedule.linear(10)
    images = Rng(7).normal((2, 1, 8, 8))
    forward, refs, alive, timesteps = model.forward, [], [], []

    def spy(x, t, labels=None, collect_maps=None, **kw):
        alive.append(sum(ref() is not None for ref in refs))  # earlier timesteps' maps still alive
        out = forward(x, t, labels, collect_maps=collect_maps, **kw)
        refs.extend(weakref.ref(m.data) for m in collect_maps)
        timesteps.append(int(t[0]))
        return out

    monkeypatch.setattr(model, "forward", spy)
    records = distance_survey(model, images, schedule, Rng(11), num_samples=12)
    monkeypatch.undo()
    assert len(timesteps) >= 3 and timesteps == sorted(set(timesteps))
    assert alive == [0] * len(timesteps)

    # brute: redraw the picks, then one forward per record at its timestep
    eligible = [(l, h) for l in range(2) for h in range(model.layer_configs[l].window_spec.num_heads)]
    pick = Rng(11).split("survey-picks")
    want = []
    for _ in range(12):
        layer, head = eligible[int(pick.integers(0, len(eligible)))]
        t = int(pick.integers(0, schedule.timesteps))
        x_t = q_sample(images, t, Rng(11).split("survey-noise").split(t).normal(images.shape), schedule)
        maps = []
        with no_grad():
            model.forward(Tensor(x_t), np.full(2, t, dtype=np.int64), collect_maps=maps)
        per_window = [brute_attention_distance(m, 2) for m in maps[layer].data[:, head]]
        want.append((layer, head, t, *np.mean(per_window, axis=0)))
    assert [(r.layer, r.head, r.timestep) for r in records] == [w[:3] for w in want]
    np.testing.assert_allclose([(r.d_row, r.d_col) for r in records], [w[3:] for w in want], rtol=1e-12, atol=0)


def test_survey_and_spectrum_known_answers():
    # recorded from the per-window / per-slice implementation on a seeded,
    # perturbed tiny model (4x4 tokens, four 2x2 windows per image)
    model = ToyDiT(tiny_cfg(patch=2), Rng(5))
    noise = Rng(5).split("perturb")
    model.load_state({n: p.data + noise.split(n).normal(p.shape, std=0.1) for n, p in model.named_parameters().items()})
    images = Rng(7).normal((2, 1, 8, 8))
    records = distance_survey(model, images, NoiseSchedule.linear(10), Rng(11), num_samples=6)
    assert [(r.layer, r.head, r.timestep) for r in records] == [(1, 0, 4), (1, 1, 0), (1, 0, 6), (1, 1, 6), (0, 0, 0), (0, 0, 0)]
    np.testing.assert_allclose([(r.d_row, r.d_col) for r in records], [
        (0.5219799115899515, 0.5013566754114704),
        (0.511059345613143, 0.5040765794445234),
        (0.5223428750075831, 0.500417707303203),
        (0.512686757859043, 0.5059422647485108),
        (0.5243358349351044, 0.5090585057575516),
        (0.5243358349351044, 0.5090585057575516),
    ], rtol=1e-12, atol=0)
    tokens: list = []
    with no_grad():
        model.forward(Tensor(images), np.full(2, 5, dtype=np.int64), collect_tokens=tokens)
    hf = [hf_band_fraction(feature_spectrum(block)[1]) for block in tokens]
    np.testing.assert_allclose(hf, [0.5267220167065831, 0.5079487218927585], rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# FLOPs
# ---------------------------------------------------------------------------

def test_flops_report_frozen_small_config():
    # hand-computed for the tiny config: 4 tokens, patch_dim 16, d=8,
    # schedule [4, 8], window tokens 4, bridge kernel 3, hidden 8
    report = flops_report(tiny_cfg())
    by = report.by_component()
    assert by["patch_embed"].flops == 2 * 4 * 16 * 8
    assert by["t_embed"].flops == 2 * (2 * 8 * 8)
    assert by["block0.projection"].flops == 8 * 4 * 4 * 4
    assert by["block0.window_pairs"].flops == 4 * 4 * 4 * 4
    assert by["block0.bridge_depthwise"].flops == 2 * 4 * 9 * 4
    assert by["block0.bridge_pointwise"].flops == 2 * 4 * 4 * 4
    assert by["block0.mlp"].flops == 4 * 4 * 8 * 8
    assert by["block0.modulation"].flops == 2 * 8 * 48
    assert by["block1.projection"].flops == 8 * 4 * 8 * 8
    assert by["block1.bridge_depthwise"].flops == 0
    assert by["head"].flops == 2 * 4 * 8 * 16
    assert report.total_flops == 9632
    # parameter count agrees with the live model
    model = ToyDiT(tiny_cfg(), Rng(0))
    live = sum(int(np.prod(t.shape)) for t in model.named_parameters().values())
    assert report.total_params == live


def test_measured_flops_equals_closed_form():
    for cfg in [tiny_cfg(), tiny_cfg(fractions=(0.0, 1.0)), tiny_cfg(depth=1, class_count=3)]:
        model = ToyDiT(cfg, Rng(1))
        assert measured_flops(model) == flops_report(cfg).total_flops


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

def test_distance_csv_roundtrip(tmp_path):
    rows = distance_histogram([0.1, 0.4, 0.9], buckets=3)
    path = write_distance_csv(tmp_path / "hist.csv", rows)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["bucket_lo", "bucket_hi", "count"]
    assert len(got) == 4
    assert [int(r[2]) for r in got[1:]] == [1, 1, 1]


def test_spectrum_csv_roundtrip(tmp_path, np_rng):
    centers, profile = feature_spectrum(np_rng.normal(size=(8, 8)))
    path = write_spectrum_csv(tmp_path / "spec.csv", centers, profile)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["radius", "log_magnitude"]
    back = np.array([[float(a), float(b)] for a, b in got[1:]])
    np.testing.assert_array_equal(back[:, 0], centers)
    np.testing.assert_array_equal(back[:, 1], profile)


def test_flops_csv_roundtrip(tmp_path):
    report = flops_report(tiny_cfg())
    path = write_flops_csv(tmp_path / "flops.csv", report)
    text = path.read_text().splitlines()
    assert text[0].startswith("# ")
    rows = list(csv.reader(text[1:]))
    assert rows[0] == ["component", "flops", "params"]
    assert rows[-1][0] == "total"
    assert int(rows[-1][1]) == report.total_flops
    assert int(rows[-1][2]) == report.total_params
    assert len(rows) == 2 + len(report.rows)