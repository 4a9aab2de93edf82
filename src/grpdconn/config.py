"""Tolerance constants and the line-oriented ``key = value`` configuration format.

Every numeric threshold used by the library lives here, namespaced by the
module that consumes it. Defaults can be overridden from a config file or
programmatically; reports embed a snapshot of the values they ran with.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Config:
    # numeric core
    numeric_tol_fd: float = 1e-5        # analytic-vs-finite-difference agreement
    numeric_fd_step: float = 1e-6       # central finite-difference step
    numeric_ode_tol: float = 1e-8       # Richardson disagreement per step
    numeric_h_ode: float = 1e-3         # nominal fixed RK4 step
    numeric_blowup_bound: float = 1e6   # coordinate-norm escape threshold
    numeric_excl_radius: float = 1e-3   # default radius of excluded-point balls
    numeric_rank_tol: float = 1e-9      # singular-value cutoff for ranks
    numeric_tol_time: float = 1e-9      # completed-horizon time tolerance

    # groupoid core
    groupoid_tol_alg: float = 1e-9      # structure-identity residual bound
    groupoid_tol_compose: float = 1e-7  # composability distance bound
    groupoid_cover_tol: float = 1e-2    # star-surjectivity nearest-distance bound
    groupoid_sv_tol: float = 1e-6       # min singular value for submersion checks
    groupoid_fiber_grid: int = 512      # grid size for source-fibre coverage probes

    # connections
    conn_tol_mult: float = 1e-6         # multiplicativity pass band
    conn_angle_tol: float = 1e-6        # minimal principal angle to the vertical

    # transport
    transport_drift_tol: float = 1e-6   # projection drift bound on completed lifts
    transport_hol_tol: float = 1e-6     # loop/reverse-transport residual bound
    transport_probe_h_ode: float = 2e-2  # coarser step used by completeness probes
    transport_horizon: float = 1.0      # probe transport horizon

    # constructions
    constr_node_count: int = 256        # circle-fibre quadrature nodes
    constr_quad_tol: float = 1e-9       # quadrature normalization/invariance bound
    constr_atlas_margin: float = 1e-2   # required closure(U) to V margin
    constr_box: float = 2.5             # half-width of the certification box

    def with_overrides(self, overrides: dict[str, float | str]) -> "Config":
        """Return a copy with dotted-key overrides applied.

        Every value must read as a finite positive number, integral for the
        integer fields; anything else raises ``ValueError`` naming the key.
        """
        kwargs = {}
        for key, value in overrides.items():
            attr = key.replace(".", "_")
            if not any(f.name == attr for f in fields(self)):
                raise KeyError(f"unknown configuration key: {key}")
            kind = type(getattr(self, attr))
            try:
                value = float(value)
            except ValueError:
                raise ValueError(f"{key} must be a number, got {value!r}") from None
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{key} must be finite and positive, got {value!r}")
            if kind is int and not value.is_integer():
                raise ValueError(f"{key} must be an integer, got {value!r}")
            kwargs[attr] = kind(value)
        return replace(self, **kwargs)

    def snapshot(self) -> dict[str, str]:
        """Dotted-key view of all values, for report serialization."""
        out = {}
        for f in sorted(fields(self), key=lambda f: f.name):
            key = f.name.replace("_", ".", 1)
            out[key] = repr(getattr(self, f.name))
        return out


DEFAULT = Config()


def parse_config_file(path: str) -> Config:
    """Parse a line-oriented ``key = value`` file into a Config.

    Blank lines and lines starting with ``#`` are ignored. Keys are dotted
    (``transport.drift_tol``). A malformed line, an unknown key or a value
    that ``Config.with_overrides`` rejects raises ``ValueError`` prefixed with
    ``path:lineno``.
    """
    cfg = DEFAULT
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            try:
                cfg = cfg.with_overrides({key.strip(): value.strip()})
            except (KeyError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc.args[0]}") from exc
    return cfg
