"""Run configuration defaults and reproducibility constants."""

from __future__ import annotations

import os

DEFAULT_N = 256
DEFAULT_SEED = 0
ENV_WINDOW = "DIRICHLET_N"

# bounds for the exhaustive atom-soundness search: candidate factors and
# certified atoms draw their entries from ATOM_COEFFS on a support of at
# most ATOM_SUPPORT_BOUND indices, and certificates are only enumerated
# for norms up to ATOM_NORM_BOUND
ATOM_SUPPORT_BOUND = 12
ATOM_NORM_BOUND = 6
ATOM_COEFFS = (-1, 0, 1)

FORMATS = ("json", "csv", "table")
MODES = ("exact", "float")


def default_window() -> int:
    """The configured default window; the environment can override it."""
    raw = os.environ.get(ENV_WINDOW)
    if raw is None:
        return DEFAULT_N
    value = int(raw)
    if value < 1:
        raise ValueError(f"{ENV_WINDOW} must be a positive integer")
    return value

