"""Normalized demand/generation profile series: synthetic generator and CSV IO.

The shipped fixtures use synthetic profiles because the measured utility
datasets behind the study are not redistributable.  Shapes are deliberately
simple (diurnal demand mixes, a clouded clear-sky solar arc, smoothed wind)
but seeded and reproducible, which is what the determinism guarantees need.

Profiles CSV format: header ``timestep,<profile_id>,...``, one row per
timestep, values normalized to [0, 1].
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import ValidationError


def _daily_grid(days, steps_per_day):
    t = np.arange(days * steps_per_day)
    return t, (t % steps_per_day) / steps_per_day  # fraction of day in [0,1)


def _bump(frac, center, width):
    return np.exp(-0.5 * ((frac - center) / width) ** 2)


def synthetic_profiles(days=2, steps_per_day=48, seed=7):
    """Named normalized series of length days * steps_per_day."""
    if days < 1 or steps_per_day < 1:
        raise ValidationError("days and steps_per_day must be positive")
    rng = np.random.default_rng(seed)
    t, frac = _daily_grid(days, steps_per_day)
    n = len(t)

    def _normalize(x):
        x = np.clip(x, 0.0, None)
        peak = x.max()
        return x / peak if peak > 0 else x

    res_a = 0.35 + 0.25 * _bump(frac, 0.33, 0.08) + 0.85 * _bump(frac, 0.76, 0.09)
    res_b = 0.30 + 0.35 * _bump(frac, 0.36, 0.10) + 0.70 * _bump(frac, 0.80, 0.08)
    com = 0.25 + 0.9 * _bump(frac, 0.52, 0.16)
    ind = 0.55 + 0.25 * _bump(frac, 0.5, 0.25)
    day_scale = 1.0 + 0.08 * np.sin(2 * np.pi * np.floor(t / steps_per_day) / 7.0)
    out = {}
    for name, base in (
        ("residential_a", res_a),
        ("residential_b", res_b),
        ("commercial", com),
        ("industrial", ind),
    ):
        noisy = base * day_scale * (1.0 + 0.05 * rng.standard_normal(n))
        out[name] = _normalize(noisy)

    # solar: clear-sky arc clipped to a daylight window, per-day cloud factor
    daylight = np.clip(np.sin(np.pi * (frac - 0.25) / 0.5), 0.0, None)
    cloud = np.repeat(0.35 + 0.65 * rng.beta(4.0, 1.6, size=days), steps_per_day)
    wobble = 1.0 + 0.10 * rng.standard_normal(n)
    out["solar"] = _normalize(daylight**1.3 * cloud * np.clip(wobble, 0.0, None))

    # wind: smoothed AR(1) squashed to [0, 1]
    ar = np.empty(n)
    ar[0] = rng.standard_normal()
    for i in range(1, n):
        ar[i] = 0.96 * ar[i - 1] + 0.28 * rng.standard_normal()
    kernel = np.ones(5) / 5.0
    # the centred n samples of the full convolution; mode="same" would
    # return max(n, 5) of them
    smooth = np.convolve(ar, kernel)[2 : 2 + n]
    out["wind"] = _normalize(1.0 / (1.0 + np.exp(-1.4 * smooth)) - 0.08)
    return out


def write_profiles_csv(path, profiles):
    names = list(profiles)
    n = len(next(iter(profiles.values())))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestep"] + names)
        for i in range(n):
            writer.writerow([i] + [f"{profiles[name][i]:.10g}" for name in names])


def read_profiles_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"profiles file {path} is empty") from None
        if not header or header[0] != "timestep":
            raise ValidationError(
                f"profiles file {path} must start with a 'timestep' column"
            )
        names = header[1:]
        cols = {name: [] for name in names}
        for row_num, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValidationError(
                    f"profiles file {path} line {row_num}: expected {len(header)} fields"
                )
            for name, val in zip(names, row[1:]):
                try:
                    num = float(val)
                except ValueError:
                    num = np.nan
                if not np.isfinite(num):
                    raise ValidationError(
                        f"profiles file {path} line {row_num}: bad number {val!r}"
                    )
                cols[name].append(num)
    out = {name: np.asarray(vals) for name, vals in cols.items()}
    for name, series in out.items():
        if np.any(series < 0):
            raise ValidationError(f"profile {name!r} has negative multipliers")
    return out
