"""Procedural generation of biased datasets with a known bias structure.

Every sample carries a class label ``y`` and (optionally) a bias label
``b``. During generation, ``b`` equals ``y`` with probability ``1 - rho``
(bias-aligned) and is uniform over the remaining classes otherwise
(bias-conflicting), so the exact conditional is
P(y=c | b=c) = 1 - rho and P(y=c' | b=c) = rho / (C - 1).
An unbiased split (b independent of y) is the special case
rho = (C - 1) / C.

Below the generators: the config schema (``check_fields``; ``take_fields``, the
one reader of a config object) and the reader and writer of each file format.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

KINDS = ("two-factor", "colored-glyphs")

GLYPH_SIDE = 16
PALETTE_SIZE = 10


@dataclass
class GenConfig:
    num_classes: int = 10
    n: int = 10000
    bc_ratio: float = 0.01
    sigma_u: float = 0.5
    sigma_b: float = 0.1
    seed: int = 0
    kind: str = "two-factor"

    def __post_init__(self):
        check_fields(self)
        if self.num_classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if not 0.0 < self.bc_ratio < 1.0:
            raise ConfigError(f"bc_ratio must be in (0,1), got {self.bc_ratio}")
        if not all(s >= 0.0 for s in (self.sigma_u, self.sigma_b)):
            raise ConfigError(f"sigmas must be >= 0, got {self.sigma_u, self.sigma_b}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}")
        if self.kind == "colored-glyphs" and self.num_classes > PALETTE_SIZE:
            raise ConfigError(f"colored-glyphs supports at most {PALETTE_SIZE} classes")


@dataclass
class LabeledDataset:
    features: np.ndarray          # (N, D) float64
    labels: np.ndarray            # (N,) int64 in [0, C)
    num_classes: int
    bias: np.ndarray | None = None      # (N,) int64 in [0, C)
    aligned: np.ndarray | None = None   # (N,) bool, aligned[n] == (bias[n] == labels[n])
    cfg: GenConfig | None = None

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        n, c = self.features.shape[0], self.num_classes
        for name in ("labels", "bias"):
            a = getattr(self, name)
            if a is None:
                continue
            a = np.asarray(a)
            if a.shape != (n,):
                raise ValueError(f"{name} length mismatch")
            if not np.all((a >= 0) & (a < c) & (np.floor(a) == a)):  # NaN fails too
                raise ValueError(f"{name} must be integers in [0, {c})")
            setattr(self, name, np.asarray(a, dtype=np.int64))
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite feature values")
        if self.bias is not None:
            expected = self.bias == self.labels
            # compared before any cast to bool, so a flag of 0.5 or 2 fails
            if self.aligned is not None and not np.array_equal(self.aligned, expected):
                raise ValueError("aligned flags inconsistent with bias == label")
            self.aligned = expected

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _draw_labels_and_bias(cfg: GenConfig, rng: np.random.Generator):
    c, n, rho = cfg.num_classes, cfg.n, cfg.bc_ratio
    y = rng.integers(0, c, size=n)
    conflict = rng.random(n) < rho
    b = y.copy()
    # uniform over the other C-1 classes for conflicting samples
    offsets = rng.integers(1, c, size=n)
    b[conflict] = (y[conflict] + offsets[conflict]) % c
    return y.astype(np.int64), b.astype(np.int64)


def generate_two_factor(cfg: GenConfig) -> LabeledDataset:
    """Concatenated noisy one-hots: [onehot(y) + N(0, sigma_u^2) | onehot(b) + N(0, sigma_b^2)]."""
    rng = np.random.default_rng(cfg.seed)
    y, b = _draw_labels_and_bias(cfg, rng)
    c, n = cfg.num_classes, cfg.n
    x = np.zeros((n, 2 * c))
    x[np.arange(n), y] = 1.0
    x[np.arange(n), c + b] = 1.0
    x[:, :c] += rng.normal(0.0, cfg.sigma_u, size=(n, c))
    x[:, c:] += rng.normal(0.0, cfg.sigma_b, size=(n, c))
    return LabeledDataset(x, y, num_classes=c, bias=b, cfg=cfg)


def color_palette() -> np.ndarray:
    """``PALETTE_SIZE`` hue-equispaced fully saturated RGB colors."""
    import colorsys  # here, not at the top: only glyph data needs it
    k = PALETTE_SIZE
    return np.array([colorsys.hsv_to_rgb(i / k, 1.0, 1.0) for i in range(k)])


def glyph_masks() -> np.ndarray:
    """Ten fixed 16x16 binary glyphs, one per class. Pure functions of pixel coords."""
    s = GLYPH_SIDE
    yy, xx = np.mgrid[0:s, 0:s]
    cy = cx = (s - 1) / 2.0
    masks = np.zeros((PALETTE_SIZE, s, s), dtype=bool)
    border = (yy >= 2) & (yy < s - 2) & (xx >= 2) & (xx < s - 2)
    inner = (yy >= 5) & (yy < s - 5) & (xx >= 5) & (xx < s - 5)
    masks[0] = border & ~inner                                  # square ring
    masks[1] = (xx >= 6) & (xx < 10)                            # vertical bar
    masks[2] = (yy >= 6) & (yy < 10)                            # horizontal bar
    masks[3] = np.abs(yy - xx) <= 1                             # diagonal
    masks[4] = np.abs(yy + xx - (s - 1)) <= 1                   # anti-diagonal
    masks[5] = ((xx >= 6) & (xx < 10)) | ((yy >= 6) & (yy < 10))  # cross
    masks[6] = ((yy // 4) + (xx // 4)) % 2 == 0                 # checkerboard
    masks[7] = (yy - cy) ** 2 + (xx - cx) ** 2 <= 5.5 ** 2      # disk
    masks[8] = yy < s // 2                                      # top half
    masks[9] = xx < s // 2                                      # left half
    return masks


def generate_colored_glyphs(cfg: GenConfig) -> LabeledDataset:
    """16x16 RGB images: class glyph in white on a bias-colored background."""
    rng = np.random.default_rng(cfg.seed)
    y, b = _draw_labels_and_bias(cfg, rng)
    n = cfg.n
    palette = color_palette()
    masks = glyph_masks()
    img = np.empty((n, GLYPH_SIDE, GLYPH_SIDE, 3))
    img[:] = palette[b][:, None, None, :]
    img += rng.normal(0.0, cfg.sigma_b, size=img.shape)
    # glyph pixels 1.0 + N(0, sigma_u^2): loc + scale * z is 1.0 + (0.0 + scale * z) to the bit
    np.copyto(img, rng.normal(1.0, cfg.sigma_u, size=img.shape), where=masks[y][..., None])
    np.clip(img, 0.0, 1.0, out=img)
    return LabeledDataset(img.reshape(n, -1), y, num_classes=cfg.num_classes,
                          bias=b, cfg=cfg)


def generate(cfg: GenConfig) -> LabeledDataset:
    if cfg.kind == "two-factor":
        return generate_two_factor(cfg)
    return generate_colored_glyphs(cfg)


def unbiased_config(cfg: GenConfig, n: int, seed: int) -> GenConfig:
    """Config for a test split where b is independent of y (uniform)."""
    c = cfg.num_classes
    return replace(cfg, n=n, seed=seed, bc_ratio=(c - 1) / c)


def estimate_p_y_given_b(ds: LabeledDataset) -> np.ndarray:
    """Nonparametric estimate of p(y|b): the (C, C) table[y, b], whose
    columns sum to 1."""
    if ds.bias is None:
        raise ValueError("dataset has no bias labels; cannot condition on b")
    c = ds.num_classes
    counts = np.zeros((c, c), dtype=np.int64)
    np.add.at(counts, (ds.labels, ds.bias), 1)
    col = counts.sum(axis=0)
    if np.any(col == 0):
        missing = np.flatnonzero(col == 0).tolist()
        raise ValueError(f"cannot condition: bias value(s) {missing} never occur")
    return counts / col


# --- config schema and the on-disk formats: JSON, CSV, little-endian doubles ---

SCHEMA_VERSION = 1  # of every meta.json, model.json and run config


class ConfigError(ValueError):
    """A config value of the wrong type, out of range or in conflict with another."""


def _fits(value, hint) -> bool:
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # X | None
        return any(_fits(value, a) for a in args)
    if origin in (tuple, list):  # tuple[X, ...] also takes a JSON list
        kinds = (list, tuple) if origin is tuple else list
        return isinstance(value, kinds) and all(_fits(v, args[0]) for v in value)
    if hint in (int, float):  # an int passes as a float; a bool, NaN and inf as neither
        if isinstance(value, (float, np.floating)):
            return hint is float and math.isfinite(value)
        return isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return isinstance(value, hint)  # str, bool, None, a nested config dataclass


def check_fields(obj) -> None:
    """Raise ``ConfigError`` unless each field of config dataclass ``obj``
    holds a value of its annotated type; a float must be finite, as JSON has no
    NaN or inf. Converts nothing: an int stays an int."""
    hints = get_type_hints(type(obj))
    for f in fields(obj):
        value, hint = getattr(obj, f.name), hints[f.name]
        if not _fits(value, hint):
            kind = hint.__name__ if isinstance(hint, type) and not get_args(hint) else hint
            if hint is float and isinstance(value, (float, np.floating)):
                kind = "a finite float"
            raise ConfigError(f"{type(obj).__name__}.{f.name} must be {kind}, got {value!r}")


def take_fields(raw, cls, where: str, *extra: str) -> dict:
    """JSON object ``raw`` as keyword arguments of ``cls``; ``extra`` names other keys."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {raw!r}")
    if unknown := set(raw) - {*(f.name for f in fields(cls)), *extra}:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    return dict(raw)


def read_meta(path: Path, types: dict[str, type]) -> dict:
    """The JSON object in ``path`` at ``SCHEMA_VERSION``, each key of ``types`` of that type."""
    try:
        meta = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(meta).__name__}")
    if (version := meta.get("schema_version")) != SCHEMA_VERSION:
        raise ValueError(f"{path}: schema_version must be {SCHEMA_VERSION}, got {version!r}")
    _require(types, meta, str(path))
    for key, kind in types.items():
        if not isinstance(meta[key], kind) or isinstance(meta[key], bool):
            raise ValueError(f"{path}: {key} must be {kind.__name__}, got {meta[key]!r}")
    return meta


def read_f64le(path: Path, count: int) -> np.ndarray:
    """Exactly ``count`` little-endian doubles from ``path``, as float64."""
    if (size := path.stat().st_size) != 8 * count:
        raise ValueError(f"{path}: expected {8 * count} bytes ({count} doubles), "
                         f"found {size}")
    return np.fromfile(path, dtype="<f8", count=count).astype(np.float64, copy=False)


def write_json(path: Path, obj) -> None:
    """``obj`` as indented strict JSON (``ValueError`` on a NaN or infinity)
    plus a newline; makes the parent directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n")


# rows joined per write: bounds the text held at once, and the 5,000-row
# weights files of scripts/output_digest.py cross a chunk boundary
CSV_CHUNK_ROWS = 2048

_PLAIN_CELLS = (int, float, str, np.integer, np.floating, np.bool_)
_QUOTED_CHARS = re.compile(r'[,"\r\n]')


def _check_cells(path: Path, header: list[str], columns) -> None:
    """Raise ``ValueError`` on a cell whose ``str`` is not what ``csv.writer``
    writes: one not an int, float or str (``None`` among them), a str that
    ``csv`` would quote, or an empty str alone on its line."""
    if len(columns) != len(header):
        raise ValueError(f"{path}: {len(header)} header names but {len(columns)} columns")
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"{path}: columns of unequal lengths {[len(c) for c in columns]}")
    for col in (header, *columns):
        kinds = set(map(type, col))
        if odd := [k.__name__ for k in kinds if not issubclass(k, _PLAIN_CELLS)]:
            raise ValueError(f"{path}: cannot write cells of type {sorted(odd)}")
        if not any(issubclass(k, str) for k in kinds):
            continue
        for text in set(col):
            if isinstance(text, str) and (_QUOTED_CHARS.search(text)
                                          or (not text and len(header) == 1)):
                raise ValueError(f"{path}: cannot write {text!r} unquoted")


def write_csv(path: Path, header: list[str], columns) -> None:
    """The one CSV writer; makes the parent directory. ``columns`` holds one
    sequence of cells per header name, all of one length.

    Writes the bytes ``csv.writer`` writes, CRLF line ends included: that is
    ``str`` of each cell for ints, Python and numpy floats (their shortest
    round-trip repr, nan and inf too) and strs that need no quoting. Any other
    cell raises ``ValueError`` before the file is opened. Rows are joined
    ``CSV_CHUNK_ROWS`` at a time from the columns: a 10,000-row weights file
    takes 4.9 ms against ``csv.writer.writerows``'s 6.7 ms (2 cores, AMD EPYC)."""
    _check_cells(path, header, columns)
    n = len(columns[0]) if columns else 0
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for a in range(0, n, CSV_CHUNK_ROWS):
            b = a + CSV_CHUNK_ROWS
            fh.write("\r\n".join(map(",".join, zip(*(map(str, c[a:b]) for c in columns))))
                     + "\r\n")


def write_f64le(path: Path, a: np.ndarray) -> None:
    """``a`` as little-endian doubles in C order, the format ``read_f64le`` reads."""
    np.ascontiguousarray(a, dtype="<f8").tofile(path)


def save_dataset(ds: LabeledDataset, out_dir: str | Path) -> None:
    out = Path(out_dir)
    columns = ["features", "labels"]
    blocks = [ds.features.ravel(), ds.labels.astype(np.float64)]
    if ds.bias is not None:
        columns += ["bias", "aligned"]
        blocks += [ds.bias.astype(np.float64), ds.aligned.astype(np.float64)]
    meta = {
        "schema_version": SCHEMA_VERSION,
        "n": len(ds),
        "feature_dim": ds.dim,
        "num_classes": ds.num_classes,
        "columns": columns,
    }
    if ds.cfg is not None:
        meta["gen"] = asdict(ds.cfg)
    write_json(out / "meta.json", meta)
    write_f64le(out / "data.f64le", np.concatenate(blocks))


def _require(keys, d: dict, where: str) -> None:
    if missing := [k for k in keys if k not in d]:
        raise ValueError(f"{where}: missing key(s) {missing}")


def load_dataset(in_dir: str | Path) -> LabeledDataset:
    """The dataset that ``save_dataset`` wrote; a malformed one raises ValueError."""
    src = Path(in_dir)
    path = src / "meta.json"
    meta = read_meta(path, {"n": int, "feature_dim": int, "num_classes": int,
                            "columns": list})
    n, d, c = meta["n"], meta["feature_dim"], meta["num_classes"]
    if n < 1 or d < 1 or c < 2:  # GenConfig's bounds, checked before data.f64le is read
        raise ValueError(f"{path}: need n >= 1, feature_dim >= 1 and num_classes >= 2, "
                         f"got {n}, {d} and {c}")
    cfg = None
    if "gen" in meta:
        gen = take_fields(meta["gen"], GenConfig, f"{path}: gen")
        _require([f.name for f in fields(GenConfig)], gen, f"{path}: gen")
        try:
            cfg = GenConfig(**gen)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        if cfg.num_classes != c:
            raise ValueError(f"{path}: num_classes {c} != gen.num_classes {cfg.num_classes}")
        if cfg.n != n:
            raise ValueError(f"{path}: n {n} != gen.n {cfg.n}")
        width = 2 * c if cfg.kind == "two-factor" else 3 * GLYPH_SIDE ** 2
        if width != d:
            raise ValueError(f"{path}: feature_dim {d} != {width}, the width of "
                             f"gen.kind {cfg.kind} at {c} classes")
    n_columns = 4 if "bias" in meta["columns"] else 2
    raw = read_f64le(src / "data.f64le", n * d + (n_columns - 1) * n)
    pos = 0

    def take(count):
        nonlocal pos
        block = raw[pos:pos + count]
        pos += count
        return block

    features, labels = take(n * d).reshape(n, d), take(n)
    bias = aligned = None
    if "bias" in meta["columns"]:
        bias, aligned = take(n), take(n)  # as stored: LabeledDataset checks before casting
    try:
        return LabeledDataset(features, labels, num_classes=c, bias=bias,
                              aligned=aligned, cfg=cfg)
    except ValueError as exc:
        raise ValueError(f"{src}: {exc}") from None
