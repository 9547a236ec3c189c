import itertools
import os

import numpy as np
import pytest

from glyphsvm.errors import InvalidConfigError
from glyphsvm.features import skeleton_topology
from glyphsvm.pgm import read_pgm
from glyphsvm.preprocess import preprocess_character
from glyphsvm.synth import (
    GLYPH_LIBRARY,
    MAX_ROTATION_DEG,
    MAX_TRANSLATION_PX,
    SCALE_BOUNDS,
    SynthConfig,
    generate_synthetic_dataset,
    render_glyph_mask,
    render_sample,
)


def listing(root):
    out = {}
    for cls in sorted(os.listdir(root)):
        cls_dir = os.path.join(root, cls)
        out[cls] = sorted(os.listdir(cls_dir))
    return out


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        SynthConfig(classes=1, per_class=5)
    with pytest.raises(InvalidConfigError):
        SynthConfig(classes=len(GLYPH_LIBRARY) + 1, per_class=5)
    with pytest.raises(InvalidConfigError):
        SynthConfig(classes=2, per_class=5, noise_rate=0.2)
    with pytest.raises(InvalidConfigError):
        SynthConfig(classes=2, per_class=0)
    # both used to be accepted, then end in a bare TypeError while writing
    with pytest.raises(InvalidConfigError, match="classes must be an integer"):
        SynthConfig(classes=2.5, per_class=2)
    with pytest.raises(InvalidConfigError, match="per_class must be an integer"):
        SynthConfig(classes=2, per_class=1.5)
    with pytest.raises(InvalidConfigError, match="seed must be >= 0"):
        SynthConfig(classes=2, per_class=5, seed=-1)


@pytest.mark.parametrize("seed", [1.5, 2.0, "3", None])
def test_a_seed_that_is_no_integer_is_invalid_config(seed):
    # numpy's "seed must be integer" TypeError used to escape from render_sample
    with pytest.raises(InvalidConfigError, match="seed must be an integer"):
        SynthConfig(classes=2, per_class=1, seed=seed)


def test_file_counts_and_layout(tmp_path):
    config = SynthConfig(classes=4, per_class=6, seed=7)
    written = generate_synthetic_dataset(config, tmp_path)
    assert written == 24
    tree = listing(tmp_path)
    assert sorted(tree) == ["0", "1", "2", "3"]
    assert all(len(files) == 6 for files in tree.values())


def test_byte_identical_reruns(tmp_path):
    config = SynthConfig(classes=3, per_class=4, seed=11)
    first = tmp_path / "a"
    second = tmp_path / "b"
    generate_synthetic_dataset(config, first)
    generate_synthetic_dataset(config, second)
    for cls, files in listing(first).items():
        for name in files:
            a = (first / cls / name).read_bytes()
            b = (second / cls / name).read_bytes()
            assert a == b


def test_samples_do_not_touch_border():
    config = SynthConfig(classes=len(GLYPH_LIBRARY), per_class=8, seed=3, noise_rate=0.0)
    for cls in range(config.classes):
        for idx in range(config.per_class):
            gray = render_sample(config, cls, idx)
            ink = gray == 0
            assert not ink[0].any() and not ink[-1].any()
            assert not ink[:, 0].any() and not ink[:, -1].any()


@pytest.mark.parametrize("cls", range(len(GLYPH_LIBRARY)))
def test_worst_case_jitter_does_not_touch_border(cls):
    """Every glyph at the extremes of each jitter range (rotation, scale and
    translation on each axis) stays inside the canvas border."""
    rotations = np.linspace(-MAX_ROTATION_DEG, MAX_ROTATION_DEG, 5)
    shifts = (-MAX_TRANSLATION_PX, MAX_TRANSLATION_PX)
    for rotation in rotations:
        for scale in SCALE_BOUNDS:
            for translate in itertools.product(shifts, shifts):
                ink = render_glyph_mask(cls, rotation, scale, translate)
                assert ink.any()
                assert not ink[0].any() and not ink[-1].any()
                assert not ink[:, 0].any() and not ink[:, -1].any()


def test_noise_rate_applied(tmp_path):
    noisy = SynthConfig(classes=2, per_class=1, seed=5, noise_rate=0.05)
    clean = SynthConfig(classes=2, per_class=1, seed=5, noise_rate=0.0)
    g_noisy = render_sample(noisy, 0, 0)
    g_clean = render_sample(clean, 0, 0)
    diff = np.mean(g_noisy != g_clean)
    assert 0.0 < diff < 0.1


def topology_of(gray):
    """The (endpoints, branch points, cross points) of one glyph image's skeleton."""
    return tuple(skeleton_topology(preprocess_character(gray).skeleton[None])[0].tolist())


def test_topology_stable_for_first_two_classes():
    """Noise-free jittered samples keep their base glyph's topology triple."""
    config = SynthConfig(classes=2, per_class=25, seed=13, noise_rate=0.0)
    for cls in (0, 1):
        base_gray = np.where(render_glyph_mask(cls), 0, 255).astype(np.uint8)
        base = topology_of(base_gray)
        for idx in range(config.per_class):
            assert topology_of(render_sample(config, cls, idx)) == base


def test_first_glyphs_have_distinct_topologies():
    triples = []
    for cls in range(6):
        gray = np.where(render_glyph_mask(cls), 0, 255).astype(np.uint8)
        triples.append(topology_of(gray))
    assert len(set(triples)) == len(triples)


def test_glyph_names_align_with_library():
    names = [name for name, _ in GLYPH_LIBRARY]
    assert len(set(names)) == len(names)
    assert names[0] == "ring"


def test_pgm_output_decodable(tmp_path):
    config = SynthConfig(classes=2, per_class=2, seed=1)
    generate_synthetic_dataset(config, tmp_path)
    img = read_pgm(tmp_path / "0" / "0_0000.pgm")
    assert img.shape == (64, 64)
    assert img.min() == 0 and img.max() == 255


def test_noise_free_classes_reach_perfect_training_accuracy(tmp_path):
    """Sanity floor for the benchmark: rbf gamma=2^-3, C=2^6 fits all classes."""
    from glyphsvm.data import load_dataset
    from glyphsvm.multiclass import predict_batch, train_one_vs_all
    from glyphsvm.svm import KernelSpec

    config = SynthConfig(classes=10, per_class=12, seed=17, noise_rate=0.0)
    generate_synthetic_dataset(config, tmp_path)
    data = load_dataset(tmp_path)
    model = train_one_vs_all(
        data.vectors, data.labels, KernelSpec(kind="rbf", gamma=0.125), 64.0
    )
    assert predict_batch(model, data.vectors) == data.labels
