"""Scenario configuration: strict JSON schema, defaults, and resolution.

One JSON file drives every experiment. The schema is closed: any key not in
the default tree is a fatal error naming its full path, so configs cannot
silently drift. ``null`` at the marked leaves means "derive from the other
settings" (noted per field below).

Sections:
    platform    which built-in boards to run and their frequency floor
    link        radio link budget parameters (shared carrier, both powers)
    grid        OFDM resource grid and ARQ timing
    isl         relay path between satellites
    experiment  deadline, reliability target, seeds, figure sweeps
"""

import copy
import json
import math
import numbers
from dataclasses import dataclass, replace

from .channel import IslPath, LinkParams, OfdmGrid, db_to_linear, ring_chord_m
from .compute import BUILTIN_PLATFORMS, Platform
from .errors import ConfigError
from .numerics import normal_quantile
from .rand import BIT_GENERATORS

DEFAULT_CONFIG = {
    "platform": {
        "names": ["nano", "agx"],
        "f_min_fraction": 0.3,
    },
    "link": {
        "carrier_hz": 2.0e9,
        "bandwidth_hz": 180.0e3,
        "noise_psd_dbm_hz": -176.31,
        "tx_power_ul_w": 0.2,
        "gain_sat_dbi": 30.0,
        "gain_ue_dbi": 0.0,
        "pointing_loss_db": 0.3,
        "shadow_sigma_db": 4.0,
        # experiments budget for shadowing at this quantile of the log-normal
        # fade; 0.5 selects the median channel (no margin)
        "shadow_quantile": 0.95,
        "altitude_m": 600.0e3,
    },
    "grid": {
        "subcarriers": 12,
        "symbols_per_slot": 14,
        "subcarrier_spacing_hz": 15.0e3,
        "blocklength": 672,
        "rate_bits_per_use": 2.23,
        "nack_delay_s": None,  # null -> one slot: symbols_per_slot / SCS
    },
    "isl": {
        # relay hops on the serving path; 0 = process on the receiving
        # satellite (the operating point of the batch/elevation sweeps)
        "hops": 0,
        "n_sats_in_ring": 12,
        "hop_distance_m": None,  # null -> ring chord from n_sats + altitude
        "symbol_time_s": None,   # null -> uplink symbol time
        "subcarriers": None,     # null -> uplink subcarrier count
    },
    "experiment": {
        "t_e2e_s": 0.5,
        "rho_th": 0.95,
        "seed": 20260816,
        "bit_generator": "philox",
        "elevation_deg": 90.0,
        "elevation_sweep_deg": {"start": 90.0, "stop": 5.0, "step": 1.0},
        "ground_truth": {
            "cv": 0.10,
            "n_images": 56,
            "image_sigma": 0.15,
            "variance_model": "structural",
        },
        "fit": {
            "n_frequencies": 8,
            "degree": 3,
        },
        "fig3": {
            "n_img": {"nano": 4, "agx": 8},
            "sample_sizes": [10, 30, 100, 300, 1000, 3000, 10000],
            "k_replicates": 100,
        },
        "fig4": {
            "n_img_max": 64,
        },
        "fig5": {
            "n_img": {"nano": [2, 4], "agx": [4, 8]},
        },
    },
}

# leaves replaced wholesale on merge instead of recursed into: open mappings
# keyed by platform name, and the sweep definition
_WHOLESALE_PATHS = {
    "platform.names",
    "experiment.elevation_sweep_deg",
    "experiment.fig3.n_img",
    "experiment.fig3.sample_sizes",
    "experiment.fig5.n_img",
}


def default_config() -> dict:
    return copy.deepcopy(DEFAULT_CONFIG)


def _merge(base: dict, user: dict, path: str) -> None:
    for key, value in user.items():
        here = f"{path}.{key}" if path else str(key)
        if key not in base:
            raise ConfigError(f"{here}: unknown key")
        if (isinstance(base[key], dict) and here not in _WHOLESALE_PATHS):
            if not isinstance(value, dict):
                raise ConfigError(f"{here}: expected an object")
            _merge(base[key], value, here)
        else:
            base[key] = copy.deepcopy(value)


def merge_config(user: dict) -> dict:
    """Overlay a user tree onto the defaults, rejecting unknown keys."""
    if not isinstance(user, dict):
        raise ConfigError("top level: expected a JSON object")
    cfg = default_config()
    _merge(cfg, user, "")
    return cfg


def load_config(path=None) -> dict:
    """Read a JSON config file (or take pure defaults) and merge strictly."""
    if path is None:
        return default_config()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return merge_config(user)


def _num(cfg, path, lo=None, hi=None, open_lo=False, open_hi=False):
    v = cfg
    for part in path.split("."):
        v = v[part]
    if not isinstance(v, numbers.Real) or isinstance(v, bool) or not math.isfinite(float(v)):
        raise ConfigError(f"{path}: expected a finite number, got {v!r}")
    v = float(v)
    if lo is not None and (v <= lo if open_lo else v < lo):
        raise ConfigError(f"{path}: must be {'>' if open_lo else '>='} {lo}, got {v}")
    if hi is not None and (v >= hi if open_hi else v > hi):
        raise ConfigError(f"{path}: must be {'<' if open_hi else '<='} {hi}, got {v}")
    return v


def _int(cfg, path, lo=None, hi=None):
    v = cfg
    for part in path.split("."):
        v = v[part]
    if not isinstance(v, numbers.Integral) or isinstance(v, bool):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    v = int(v)
    if lo is not None and v < lo:
        raise ConfigError(f"{path}: must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(f"{path}: must be <= {hi}, got {v}")
    return v


@dataclass(frozen=True)
class Scenario:
    """A fully resolved experiment setup plus the raw config it came from."""

    platforms: tuple
    link_ul: LinkParams
    grid: OfdmGrid
    isl: IslPath
    altitude_m: float
    shadow_margin_db: float
    t_e2e_s: float
    rho_th: float
    seed: int
    bit_generator: str
    elevation_deg: float
    elevation_sweep_deg: tuple
    gt_cv: float
    gt_n_images: int
    gt_image_sigma: float
    gt_variance_model: str
    fit_n_frequencies: int
    fit_degree: int
    fig3_n_img: dict
    fig3_sample_sizes: tuple
    fig3_k_replicates: int
    fig4_n_img_max: int
    fig5_n_img: dict
    raw: dict

    def platform_named(self, name: str) -> Platform:
        for p in self.platforms:
            if p.name == name:
                return p
        raise ConfigError(f"platform {name!r} is not part of this scenario")


def _resolve_platforms(cfg) -> tuple:
    names = cfg["platform"]["names"]
    if (not isinstance(names, list) or not names
            or not all(isinstance(n, str) for n in names)):
        raise ConfigError("platform.names: expected a nonempty list of names")
    if len(set(names)) != len(names):
        raise ConfigError("platform.names: duplicate name")
    frac = _num(cfg, "platform.f_min_fraction", lo=0.0, hi=1.0,
                open_lo=True, open_hi=True)
    platforms = []
    for name in names:
        if name not in BUILTIN_PLATFORMS:
            raise ConfigError(
                f"platform.names: unknown platform {name!r}; "
                f"built-ins are {sorted(BUILTIN_PLATFORMS)}")
        base = BUILTIN_PLATFORMS[name]
        platforms.append(replace(base, f_min_hz=frac * base.f_max_hz))
    return tuple(platforms)


def _resolve_sweep(cfg) -> tuple:
    start = _num(cfg, "experiment.elevation_sweep_deg.start", lo=0.0, hi=90.0,
                 open_lo=True)
    stop = _num(cfg, "experiment.elevation_sweep_deg.stop", lo=0.0, hi=90.0,
                open_lo=True)
    step = _num(cfg, "experiment.elevation_sweep_deg.step", lo=0.0, open_lo=True)
    if stop > start:
        raise ConfigError("experiment.elevation_sweep_deg: stop must be <= start")
    count = int(math.floor((start - stop) / step + 1e-9)) + 1
    return tuple(start - i * step for i in range(count))


def _resolve_n_img_map(cfg, path, names, want_list) -> dict:
    node = cfg
    for part in path.split("."):
        node = node[part]
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object keyed by platform name")
    for key in node:
        if key not in names:
            raise ConfigError(f"{path}.{key}: not in platform.names")
    out = {}
    for name in names:
        if name not in node:
            raise ConfigError(f"{path}: missing entry for platform {name!r}")
        val = node[name]
        if want_list:
            if (not isinstance(val, list) or not val
                    or not all(isinstance(v, numbers.Integral)
                               and not isinstance(v, bool) and v >= 1 for v in val)):
                raise ConfigError(f"{path}.{name}: expected a list of integers >= 1")
            out[name] = [int(v) for v in val]
        else:
            if not isinstance(val, numbers.Integral) or isinstance(val, bool) or val < 1:
                raise ConfigError(f"{path}.{name}: expected an integer >= 1")
            out[name] = int(val)
    return out


def resolve(cfg: dict) -> Scenario:
    """Validate a merged config tree and build the domain objects."""
    platforms = _resolve_platforms(cfg)
    names = [p.name for p in platforms]

    carrier = _num(cfg, "link.carrier_hz", lo=0.0, open_lo=True)
    bandwidth = _num(cfg, "link.bandwidth_hz", lo=0.0, open_lo=True)
    noise_psd_dbm = _num(cfg, "link.noise_psd_dbm_hz")
    p_ul = _num(cfg, "link.tx_power_ul_w", lo=0.0, open_lo=True)
    g_sat = db_to_linear(_num(cfg, "link.gain_sat_dbi"))
    g_ue = db_to_linear(_num(cfg, "link.gain_ue_dbi"))
    pointing = db_to_linear(_num(cfg, "link.pointing_loss_db", lo=0.0))
    shadow_sigma = _num(cfg, "link.shadow_sigma_db", lo=0.0)
    shadow_q = _num(cfg, "link.shadow_quantile", lo=0.0, hi=1.0,
                    open_lo=True, open_hi=True)
    altitude = _num(cfg, "link.altitude_m", lo=0.0, open_lo=True)
    noise_w = db_to_linear(noise_psd_dbm - 30.0) * bandwidth

    link_ul = LinkParams(carrier_hz=carrier, tx_power_w=p_ul, gain_tx=g_ue,
                         gain_rx=g_sat, pointing_loss=pointing,
                         noise_power_w=noise_w)

    subcarriers = _int(cfg, "grid.subcarriers", lo=1)
    symbols_per_slot = _int(cfg, "grid.symbols_per_slot", lo=1)
    scs = _num(cfg, "grid.subcarrier_spacing_hz", lo=0.0, open_lo=True)
    symbol_time = 1.0 / scs
    blocklength = _int(cfg, "grid.blocklength", lo=1)
    rate = _num(cfg, "grid.rate_bits_per_use", lo=0.0, open_lo=True)
    nack = cfg["grid"]["nack_delay_s"]
    if nack is None:
        nack = symbols_per_slot * symbol_time
    else:
        nack = _num(cfg, "grid.nack_delay_s", lo=0.0)
    grid = OfdmGrid(subcarriers=subcarriers, symbol_time_s=symbol_time,
                    blocklength=blocklength, rate=rate, nack_delay_s=nack)

    hops = _int(cfg, "isl.hops", lo=0)
    n_sats = _int(cfg, "isl.n_sats_in_ring", lo=2)
    hop_d = cfg["isl"]["hop_distance_m"]
    if hop_d is None:
        hop_d = ring_chord_m(n_sats, altitude)
    else:
        hop_d = _num(cfg, "isl.hop_distance_m", lo=0.0, open_lo=True)
    isl_symbol = cfg["isl"]["symbol_time_s"]
    if isl_symbol is None:
        isl_symbol = symbol_time
    else:
        isl_symbol = _num(cfg, "isl.symbol_time_s", lo=0.0, open_lo=True)
    isl_sc = cfg["isl"]["subcarriers"]
    if isl_sc is None:
        isl_sc = subcarriers
    else:
        isl_sc = _int(cfg, "isl.subcarriers", lo=1)
    isl = IslPath(hop_distances_m=tuple([hop_d] * hops),
                  symbol_time_s=isl_symbol, subcarriers=isl_sc)

    t_e2e = _num(cfg, "experiment.t_e2e_s", lo=0.0, open_lo=True)
    rho_th = _num(cfg, "experiment.rho_th", lo=0.0, hi=1.0,
                  open_lo=True, open_hi=True)
    seed = _int(cfg, "experiment.seed", lo=0)
    bit_gen = cfg["experiment"]["bit_generator"]
    if bit_gen not in BIT_GENERATORS:
        raise ConfigError(
            f"experiment.bit_generator: unknown generator {bit_gen!r}; "
            f"choose one of {sorted(BIT_GENERATORS)}")
    elevation = _num(cfg, "experiment.elevation_deg", lo=0.0, hi=90.0,
                     open_lo=True)
    sweep = _resolve_sweep(cfg)

    cv = _num(cfg, "experiment.ground_truth.cv", lo=0.0, hi=1.0,
              open_lo=True, open_hi=True)
    n_images = _int(cfg, "experiment.ground_truth.n_images", lo=1)
    image_sigma = _num(cfg, "experiment.ground_truth.image_sigma", lo=0.0)
    variance_model = cfg["experiment"]["ground_truth"]["variance_model"]
    if variance_model not in ("structural", "constant"):
        raise ConfigError(
            "experiment.ground_truth.variance_model: must be 'structural' "
            f"or 'constant', got {variance_model!r}")

    degree = _int(cfg, "experiment.fit.degree", lo=1)
    n_freq = _int(cfg, "experiment.fit.n_frequencies", lo=degree + 1)

    fig3_n_img = _resolve_n_img_map(cfg, "experiment.fig3.n_img", names, False)
    sizes = cfg["experiment"]["fig3"]["sample_sizes"]
    if (not isinstance(sizes, list) or not sizes
            or not all(isinstance(s, numbers.Integral)
                       and not isinstance(s, bool) and s >= 2 for s in sizes)):
        raise ConfigError(
            "experiment.fig3.sample_sizes: expected a list of integers >= 2")
    k_reps = _int(cfg, "experiment.fig3.k_replicates", lo=1)
    fig4_max = _int(cfg, "experiment.fig4.n_img_max", lo=1)
    fig5_n_img = _resolve_n_img_map(cfg, "experiment.fig5.n_img", names, True)

    margin_db = (normal_quantile(shadow_q) * shadow_sigma if shadow_q != 0.5
                 else 0.0)

    return Scenario(
        platforms=platforms, link_ul=link_ul, grid=grid, isl=isl,
        altitude_m=altitude, shadow_margin_db=margin_db, t_e2e_s=t_e2e,
        rho_th=rho_th, seed=seed, bit_generator=bit_gen, elevation_deg=elevation,
        elevation_sweep_deg=sweep, gt_cv=cv, gt_n_images=n_images,
        gt_image_sigma=image_sigma, gt_variance_model=variance_model,
        fit_n_frequencies=n_freq,
        fit_degree=degree, fig3_n_img=fig3_n_img,
        fig3_sample_sizes=tuple(int(s) for s in sizes),
        fig3_k_replicates=k_reps, fig4_n_img_max=fig4_max,
        fig5_n_img=fig5_n_img, raw=copy.deepcopy(cfg))


def load_scenario(path=None, seed_override=None) -> Scenario:
    """Load, merge, and resolve in one step (CLI entry path)."""
    cfg = load_config(path)
    if seed_override is not None:
        if not isinstance(seed_override, numbers.Integral) or seed_override < 0:
            raise ConfigError(
                f"--seed: expected a nonnegative integer, got {seed_override!r}")
        cfg["experiment"]["seed"] = int(seed_override)
    return resolve(cfg)
