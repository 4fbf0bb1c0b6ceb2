import csv
import hashlib
import importlib
import json
import math
import pkgutil
import re
import tempfile
from dataclasses import fields, is_dataclass
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import debiaskit
from debiaskit.data import (GLYPH_SIDE, ConfigError, GenConfig, LabeledDataset,
                            _draw_labels_and_bias, color_palette,
                            estimate_p_y_given_b, generate_colored_glyphs,
                            generate_two_factor, glyph_masks, load_dataset,
                            save_dataset, unbiased_config, write_csv)

from conftest import split

# frozen at first build; any generator change must be deliberate
GLYPH_SHA = "2756339a18e4cf02268174abd38687e3a4495a86fc91f92911d0c8d74e40bb23"
TWOFACT_SHA = "bf60d5c8e588e68d6e82530ac77fc6146f4488b14c7f65581ae2967f645c6203"
SPLIT_SHA = "137bcfeecdae5266ab632f4f33f03fc7b202d296bc627d11fd61ec01d4eff637"


def _digest(ds):
    return hashlib.sha256(
        ds.features.tobytes() + ds.labels.tobytes() + ds.bias.tobytes()
    ).hexdigest()


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(num_classes=1, n=10, bc_ratio=0.1)
    with pytest.raises(ValueError):
        GenConfig(num_classes=3, n=10, bc_ratio=0.0)
    with pytest.raises(ValueError):
        GenConfig(num_classes=3, n=10, bc_ratio=1.0)
    with pytest.raises(ValueError):
        GenConfig(num_classes=11, n=10, bc_ratio=0.1, kind="colored-glyphs")


@pytest.mark.parametrize("n", [0, -3])
def test_config_rejects_an_empty_dataset(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        GenConfig(n=n)


# --- the config schema: every field's type comes from its annotation --------

def _config_classes() -> list[type]:
    """Every ``*Config`` dataclass defined in a debiaskit module."""
    found = []
    for info in pkgutil.iter_modules(debiaskit.__path__):
        module = importlib.import_module(f"debiaskit.{info.name}")
        found += [obj for name, obj in vars(module).items()
                  if name.endswith("Config") and is_dataclass(obj)
                  and obj.__module__ == module.__name__]
    return sorted(found, key=lambda cls: cls.__name__)


# the smallest valid keyword arguments of the classes that need some
_REQUIRED = {"VcaeConfig": {"num_classes": 3}, "RunConfig": {"dataset": GenConfig()}}


def _wrong_values(hint) -> list:
    """Values of the wrong type for a field annotated ``hint``: a str, a bool,
    a float for an int, a bare int for a sequence, and so on."""
    if get_origin(hint) is UnionType:  # X | None: X's wrong values, None is right
        return [v for a in get_args(hint) if a is not NoneType
                for v in _wrong_values(a) if v is not None]
    if get_origin(hint) in (tuple, list):
        return ["1", 1, None, [True], ["1"], [1.5]]
    if is_dataclass(hint):
        return [{}, "x", None]
    return {int: ["1", True, 1.5, None], float: ["1.0", True, None],
            str: [1, True, None], bool: [1, "true", None]}[hint]


def _wrong_typed_cases():
    for cls in _config_classes():
        hints = get_type_hints(cls)
        for name in (f.name for f in fields(cls)):
            for value in _wrong_values(hints[name]):
                yield pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")


def test_every_config_class_is_discovered():
    names = {cls.__name__ for cls in _config_classes()}
    assert names == {"GenConfig", "TrainConfig", "AnnealConfig",
                     "VcaeConfig", "RunConfig"}


@pytest.mark.parametrize("cls,name,value", list(_wrong_typed_cases()))
def test_config_rejects_a_wrong_typed_field(cls, name, value):
    kwargs = _REQUIRED.get(cls.__name__, {})
    cls(**kwargs)  # the base is valid
    with pytest.raises(ConfigError, match=rf"^{cls.__name__}\.{name} must be "):
        cls(**{**kwargs, name: value})


def test_config_fields_take_numpy_ints_and_ints_for_floats_unconverted():
    cfg = GenConfig(n=np.int64(50), seed=np.uint32(7), bc_ratio=0.5, sigma_u=1)
    assert cfg.n == 50 and type(cfg.sigma_u) is int
    with pytest.raises(ConfigError, match=r"^GenConfig\.bc_ratio must be float, got '0.1'$"):
        GenConfig(bc_ratio="0.1")


@pytest.mark.parametrize("over", [{"seed": -1}, {"sigma_u": -0.1}, {"sigma_b": -1},
                                  {"sigma_u": float("nan")}, {"sigma_b": float("inf")}])
def test_config_rejects_negative_seed_and_noise_scale(over):
    with pytest.raises(ConfigError):
        GenConfig(**over)


def test_stored_gen_block_is_type_checked(tmp_path):
    save_dataset(generate_two_factor(GenConfig(num_classes=3, n=20, seed=1)), tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta["gen"]["seed"] = "1"
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ConfigError, match=r"GenConfig\.seed must be int"):
        load_dataset(tmp_path)


def test_two_factor_near_zero_rho_all_aligned():
    ds = generate_two_factor(GenConfig(num_classes=10, n=100, bc_ratio=1e-9, seed=0))
    assert ds.aligned.all()


def test_two_factor_exact_conditional_structure():
    # by construction P(y=c|b=c) = 1-rho and P(y=c'|b=c) = rho/(C-1);
    # P(b=c) = 1/C so the bias marginal stays uniform
    c, rho = 10, 0.005
    table_diag = 1.0 - rho
    table_off = rho / (c - 1)
    assert abs(table_diag + (c - 1) * table_off - 1.0) < 1e-15


def test_two_factor_bc_count_binomial():
    c, n, rho = 10, 10000, 0.01
    ds = generate_two_factor(GenConfig(num_classes=c, n=n, bc_ratio=rho, seed=5))
    bc = int((~ds.aligned).sum())
    bound = 3 * np.sqrt(n * rho * (1 - rho))
    assert abs(bc - n * rho) <= bound


def test_two_factor_dimensions_and_flags():
    ds = generate_two_factor(GenConfig(num_classes=4, n=50, bc_ratio=0.2, seed=1))
    assert ds.features.shape == (50, 8)
    np.testing.assert_array_equal(ds.aligned, ds.labels == ds.bias)


def test_two_factor_golden_hash():
    ds = generate_two_factor(GenConfig(num_classes=10, n=500, bc_ratio=0.01, seed=7))
    assert _digest(ds) == TWOFACT_SHA


def test_bias_marginal_uniform():
    c, n = 10, 20000
    ds = generate_two_factor(GenConfig(num_classes=c, n=n, bc_ratio=0.3, seed=11))
    counts = np.bincount(ds.bias, minlength=c)
    sigma = np.sqrt(n * (1 / c) * (1 - 1 / c))
    assert np.all(np.abs(counts - n / c) <= 3 * sigma)


def test_glyphs_near_zero_rho_background_matches_label():
    ds = generate_colored_glyphs(
        GenConfig(num_classes=10, n=40, bc_ratio=1e-9, seed=2, kind="colored-glyphs"))
    np.testing.assert_array_equal(ds.bias, ds.labels)


def test_glyphs_noise_free_pixels_exact():
    cfg = GenConfig(num_classes=10, n=30, bc_ratio=0.3, sigma_u=0.0, sigma_b=0.0,
                    seed=3, kind="colored-glyphs")
    ds = generate_colored_glyphs(cfg)
    palette = color_palette()
    masks = glyph_masks()
    img = ds.features.reshape(30, 16, 16, 3)
    for i in range(30):
        m = masks[ds.labels[i]]
        assert np.all(img[i][m] == 1.0)
        np.testing.assert_array_equal(img[i][~m], np.broadcast_to(
            palette[ds.bias[i]], img[i][~m].shape))


def test_glyphs_values_in_unit_interval_and_shape():
    ds = generate_colored_glyphs(
        GenConfig(num_classes=10, n=20, bc_ratio=0.3, seed=4, kind="colored-glyphs"))
    assert ds.features.shape == (20, 768)
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0


def test_glyphs_golden_hash():
    ds = generate_colored_glyphs(
        GenConfig(num_classes=10, n=64, bc_ratio=0.05, seed=42, kind="colored-glyphs"))
    assert _digest(ds) == GLYPH_SHA


def test_glyphs_equal_the_np_where_formula():
    """The in-place generator gives the bytes of the formula it replaced,
    np.where(mask, 1.0 + noise, img), from the same seeded draws."""
    for seed in range(3):
        cfg = GenConfig(num_classes=10, n=3000, bc_ratio=0.05, seed=seed, kind="colored-glyphs")
        rng = np.random.default_rng(seed)
        y, b = _draw_labels_and_bias(cfg, rng)
        img = np.empty((cfg.n, GLYPH_SIDE, GLYPH_SIDE, 3))
        img[:] = color_palette()[b][:, None, None, :]
        img += rng.normal(0.0, cfg.sigma_b, size=img.shape)
        noise = rng.normal(0.0, cfg.sigma_u, size=img.shape)
        img = np.clip(np.where(glyph_masks()[y][..., None], 1.0 + noise, img), 0.0, 1.0)
        assert generate_colored_glyphs(cfg).features.tobytes() == img.tobytes(), seed


def test_glyph_masks_distinct():
    masks = glyph_masks()
    flat = masks.reshape(10, -1)
    for i in range(10):
        for j in range(i + 1, 10):
            assert np.any(flat[i] != flat[j])


def test_estimator_single_class():
    ds = LabeledDataset(np.zeros((5, 2)), np.zeros(5, dtype=int), num_classes=1,
                        bias=np.zeros(5, dtype=int))
    est = estimate_p_y_given_b(ds)
    assert est[0, 0] == 1.0


def test_estimator_identity_when_b_equals_y():
    y = np.arange(12) % 3
    ds = LabeledDataset(np.zeros((12, 2)), y, num_classes=3, bias=y.copy())
    est = estimate_p_y_given_b(ds)
    np.testing.assert_array_equal(est, np.eye(3))


def test_estimator_converges_to_construction():
    c, n, rho = 10, 100000, 0.01
    ds = generate_two_factor(GenConfig(num_classes=c, n=n, bc_ratio=rho, seed=6))
    est = estimate_p_y_given_b(ds)
    np.testing.assert_allclose(np.diag(est), 1 - rho, atol=0.005)
    np.testing.assert_allclose(est.sum(axis=0), 1.0, atol=1e-12)


def test_estimator_errors():
    ds = LabeledDataset(np.zeros((5, 2)), np.zeros(5, dtype=int), num_classes=2)
    with pytest.raises(ValueError):
        estimate_p_y_given_b(ds)
    ds2 = LabeledDataset(np.zeros((5, 2)), np.zeros(5, dtype=int), num_classes=2,
                         bias=np.zeros(5, dtype=int))
    with pytest.raises(ValueError):
        estimate_p_y_given_b(ds2)  # bias value 1 never occurs


def test_split_sizes_and_union():
    ds = generate_two_factor(GenConfig(num_classes=5, n=100, bc_ratio=0.1, seed=8))
    tr, te = split(ds, 0.5, seed=0)
    assert len(tr) == 50 and len(te) == 50
    merged = np.sort(np.concatenate([tr.labels, te.labels]))
    np.testing.assert_array_equal(merged, np.sort(ds.labels))


def test_split_deterministic_golden():
    ds = generate_two_factor(GenConfig(num_classes=10, n=500, bc_ratio=0.01, seed=7))
    tr, te = split(ds, 0.8, seed=3)
    h = hashlib.sha256(tr.labels.tobytes() + te.labels.tobytes()).hexdigest()
    assert h == SPLIT_SHA
    tr2, te2 = split(ds, 0.8, seed=3)
    np.testing.assert_array_equal(tr.features, tr2.features)


def test_split_rejects_degenerate_fraction():
    ds = generate_two_factor(GenConfig(num_classes=3, n=10, bc_ratio=0.1, seed=0))
    for frac in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            split(ds, frac, seed=0)


def test_aligned_flag_consistency_enforced():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 1]), num_classes=2,
                       bias=np.array([0, 1]), aligned=np.array([True, False]))


def test_unbiased_config_bc_fraction():
    # b independent of y: conflicting fraction is (C-1)/C, i.e. 90% for C=10
    cfg = unbiased_config(GenConfig(num_classes=10, n=5000, bc_ratio=0.01, seed=1),
                          n=5000, seed=2)
    ds = generate_two_factor(cfg)
    frac = (~ds.aligned).mean()
    assert abs(frac - 0.9) < 0.02
    counts = np.zeros((10, 10))
    np.add.at(counts, (ds.labels, ds.bias), 1)


def test_roundtrip_bit_exact(tmp_path):
    ds = generate_colored_glyphs(
        GenConfig(num_classes=6, n=25, bc_ratio=0.2, seed=9, kind="colored-glyphs"))
    save_dataset(ds, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert back.features.tobytes() == ds.features.tobytes()
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.bias, ds.bias)
    np.testing.assert_array_equal(back.aligned, ds.aligned)
    assert back.cfg == ds.cfg


@given(st.integers(2, 10), st.floats(0.01, 0.5))
@settings(max_examples=20, deadline=None)
def test_generated_invariants(c, rho):
    ds = generate_two_factor(GenConfig(num_classes=c, n=200, bc_ratio=rho, seed=1))
    assert np.all((ds.labels >= 0) & (ds.labels < c))
    assert np.all((ds.bias >= 0) & (ds.bias < c))
    np.testing.assert_array_equal(ds.aligned, ds.labels == ds.bias)
    assert np.all(np.isfinite(ds.features))


def test_load_dataset_rejects_truncated_data(tmp_path):
    ds = generate_two_factor(GenConfig(num_classes=3, n=10, bc_ratio=0.2, seed=1))
    save_dataset(ds, tmp_path / "d")
    path = tmp_path / "d" / "data.f64le"
    path.write_bytes(path.read_bytes()[:-16])
    expected = 8 * (10 * ds.dim + 3 * 10)
    with pytest.raises(ValueError, match=rf"data\.f64le.*expected {expected} bytes"
                                         rf".*found {expected - 16}"):
        load_dataset(tmp_path / "d")


def test_load_dataset_rejects_wrong_schema_version(tmp_path):
    ds = generate_two_factor(GenConfig(num_classes=3, n=10, bc_ratio=0.2, seed=1))
    save_dataset(ds, tmp_path / "d")
    meta_path = tmp_path / "d" / "meta.json"
    meta_path.write_text(meta_path.read_text().replace('"schema_version": 1',
                                                       '"schema_version": 0'))
    with pytest.raises(ValueError, match=r"meta\.json.*schema_version"):
        load_dataset(tmp_path / "d")


# --- stored datasets are checked where they enter -----------------------------

@pytest.mark.parametrize("column,value", [("labels", -1), ("labels", 3), ("labels", 2.7),
                                          ("labels", np.nan), ("bias", -1), ("bias", 3)])
def test_dataset_rejects_labels_and_bias_outside_the_classes(column, value):
    kw = {"labels": np.array([0.0, 1, 2, 0]), "bias": np.array([0.0, 1, 2, 1])}
    kw[column][1] = value
    with pytest.raises(ValueError, match=rf"^{column} must be integers in \[0, 3\)$"):
        LabeledDataset(np.zeros((4, 2)), num_classes=3, **kw)


def _store(tmp_path):
    ds = generate_two_factor(GenConfig(num_classes=3, n=10, bc_ratio=0.2, seed=1))
    save_dataset(ds, tmp_path)
    return ds


def _poke(tmp_path, ds, column, row, value):
    """Overwrite one stored value of the labels, bias or aligned column."""
    path = tmp_path / "data.f64le"
    raw = np.frombuffer(path.read_bytes(), dtype="<f8").copy()
    block = ("labels", "bias", "aligned").index(column)
    raw[len(ds) * (ds.dim + block) + row] = value
    path.write_bytes(raw.tobytes())


@pytest.mark.parametrize("column,value", [
    ("bias", -1), ("bias", 3), ("labels", 3), ("labels", 2.7), ("labels", np.inf),
    ("aligned", 0.5), ("aligned", 2)])
def test_load_dataset_rejects_stored_values_outside_their_range(tmp_path, column, value):
    ds = _store(tmp_path)
    row = int(np.flatnonzero(ds.aligned)[0])  # an aligned row, so its flag is 1
    _poke(tmp_path, ds, column, row, value)
    message = ("aligned flags inconsistent with bias == label" if column == "aligned"
               else f"{column} must be integers in [0, 3)")
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path}: {message}")):
        load_dataset(tmp_path)


@pytest.mark.parametrize("key", ["n", "feature_dim", "num_classes", "columns"])
def test_load_dataset_names_a_missing_meta_key_and_the_file(tmp_path, key):
    _store(tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    del meta[key]
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'meta.json'}: "
                                                   f"missing key(s) ['{key}']")):
        load_dataset(tmp_path)


def test_load_dataset_names_a_missing_gen_key(tmp_path):
    _store(tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    del meta["gen"]["sigma_u"]
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'meta.json'}: gen: "
                                                   "missing key(s) ['sigma_u']")):
        load_dataset(tmp_path)


def test_load_dataset_rejects_a_class_count_unlike_its_generator(tmp_path):
    _store(tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta["gen"]["num_classes"] = 5
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=r"meta\.json: num_classes 3 != gen\.num_classes 5"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("gen,message", [
    ({"n": 7}, "n 60 != gen.n 7"),
    ({"kind": "colored-glyphs"}, "feature_dim 6 != 768, the width of gen.kind colored-glyphs "
                                 "at 3 classes"),
    ({"n": "60"}, "GenConfig.n must be int, got '60'"),
    ({"sigma_u": -1.0}, "sigmas must be >= 0, got (-1.0, 0.1)"),
], ids=["n", "kind", "wrong-type", "out-of-range"])
def test_load_dataset_checks_the_gen_block_naming_the_file(tmp_path, gen, message):
    """A 60-row two-factor dataset at 3 classes (6 features) whose stored gen
    block disagrees with meta.json or is malformed fails before its data is read."""
    save_dataset(generate_two_factor(GenConfig(num_classes=3, n=60, seed=1)), tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta["gen"].update(gen)
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    (tmp_path / "data.f64le").unlink()
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'meta.json'}: {message}")):
        load_dataset(tmp_path)


# --- the CSV writer writes csv.writer's bytes ------------------------------------

_UNQUOTED = st.text(st.characters(max_codepoint=0x7F, blacklist_characters=',"\r\n'))
_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e17, 5e-324,
                2.2250738585072014e-308 / 3, 0.1, 1 / 3]
_CELLS = st.one_of(
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(-2**31, 2**31 - 1).map(np.int32),
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
    st.floats().map(np.float64),
    st.sampled_from(_EDGE_FLOATS).map(np.float64),
    st.floats(width=32).map(np.float32),
    _UNQUOTED,
)


@st.composite
def _tables(draw):
    """A header and its columns: each column cycles through a few drawn
    cells, so that 2,048 and 2,049 rows cost no more to draw than 3."""
    width = draw(st.integers(1, 4))
    cells = _CELLS.filter(lambda c: c != "") if width == 1 else _CELLS  # "" alone is quoted
    n = draw(st.sampled_from([0, 1, 2, 3, 2047, 2048, 2049]))
    header = draw(st.lists(_UNQUOTED.filter(bool), min_size=width, max_size=width))
    columns = []
    for _ in range(width):
        pool = draw(st.lists(cells, min_size=1, max_size=5))
        columns.append([pool[i % len(pool)] for i in range(n)])
    return header, columns


@settings(max_examples=150, deadline=None)
@given(_tables())
def test_write_csv_writes_the_bytes_of_csv_writer(table):
    header, columns = table
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours.csv", Path(tmp) / "theirs.csv"
        write_csv(ours, header, columns)
        with theirs.open("w", newline="") as fh:
            csv.writer(fh).writerows([header, *zip(*columns)])
        assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize("header,columns,message", [
    (["a", "b"], [[1, None], [2, 3]], "type ['NoneType']"),
    (["a", "b"], [[1, 2], ["x", "y,z"]], "'y,z' unquoted"),
    (["a", "b"], [[1, 2], ["x", 'y"z']], "'y\"z' unquoted"),
    (["a", "b"], [[1, 2], ["x", "y\rz"]], "'y\\rz' unquoted"),
    (["a", "b"], [[1, 2], ["x", "y\nz"]], "'y\\nz' unquoted"),
    (["a"], [["x", ""]], "'' unquoted"),
    ([""], [["x"]], "'' unquoted"),
    (["a,b"], [[1]], "'a,b' unquoted"),
    (["a", "b"], [[1, 2], [(1, 2), 3]], "type ['tuple']"),
    (["a", "b"], [[1, 2], [3]], "columns of unequal lengths [2, 1]"),
    (["a", "b"], [[1, 2]], "2 header names but 1 columns"),
], ids=["none", "comma", "quote", "cr", "lf", "empty-alone", "empty-header", "header-comma",
        "tuple", "ragged", "missing-column"])
def test_write_csv_refuses_what_csv_writer_writes_otherwise(tmp_path, header, columns, message):
    path = tmp_path / "out" / "t.csv"
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
        write_csv(path, header, columns)
    assert not path.parent.exists()
