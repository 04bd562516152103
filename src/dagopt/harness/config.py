"""Experiment configuration: flat key-value sections, named schedule
presets, and a content hash used by the run manifest.

The file format is INI (configparser).  Every field has an embedded
default; ``config_to_text`` dumps the fully resolved configuration so a
manifest is diff-able and re-parseable.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, replace

from ..errors import ConfigError
from ..network import (
    Topology,
    WeightMatrix,
    build_weight_matrix,
    complete_topology,
    generate_k_regular,
    ring_topology,
)
from ..problems import AggregativeProblem, desk_ev_spec, ev_problem, synthetic_problem
from ..problems.ev import K_SLOTS
from ..schedules import DecayProfile, NoiseSchedule, ScheduleSet

# Named schedule presets:
#   exponents (u, v, w1, w2, varsigma_zeta, varsigma_xi) with all bases 1.0
#   unless the preset overrides them.  The truthful preset uses a gamma_2
#   base of 4.0 so that the budget constant c1 is well defined with the
#   desk-scale network (w_hat * gamma_2 must exceed u - w1 - w2).
PRESETS: dict[str, dict[str, float]] = {
    "corollary1-sc": dict(u=0.95, v=0.95, w1=0.1, w2=0.24, varsigma_zeta=0.84, varsigma_xi=0.95),
    "corollary1-cvx": dict(u=0.51, v=0.53, w1=0.01, w2=0.01, varsigma_zeta=0.57, varsigma_xi=0.79),
    "corollary1-ncvx": dict(u=0.51, v=0.27, w1=0.01, w2=0.01, varsigma_zeta=0.57, varsigma_xi=0.5),
    "sec5-convergence": dict(u=0.51, v=0.53, w1=0.01, w2=0.01, varsigma_zeta=0.57, varsigma_xi=0.79),
    "sec5-truthful": dict(u=3.1, v=2.0, w1=1.2, w2=0.4, varsigma_zeta=0.19, varsigma_xi=0.2, gamma2=4.0),
}

_SCHEDULE_FIELDS = (
    "lambda0",
    "u",
    "alpha0",
    "v",
    "gamma1",
    "w1",
    "gamma2",
    "w2",
    "sigma_zeta",
    "varsigma_zeta",
    "sigma_xi",
    "varsigma_xi",
)

EXPERIMENT_KINDS = ("convergence", "robustness", "truthfulness", "privacy-report", "gradcheck", "validate-graph")
PROBLEM_KINDS = ("ev", "strongly-convex", "convex", "nonconvex")
TOPOLOGY_KINDS = ("ring", "complete", "k-regular")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = "convergence"
    T: int = 10_000
    stride: int = 10
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    output_dir: str = "out"
    workers: int = 1
    # problem
    problem: str = "ev"
    m: int = 20
    n: int = 13
    d: int = 13
    problem_seed: int = 0
    # topology
    topology: str = "k-regular"
    degree: int = 4
    # 0.12 keeps every degree-4 graph inside the eigenvalue band (-1, 0], by
    # the degree bound build_weight_matrix checks: 0.12 * (4 + 4) = 0.96 < 1
    edge_weight: float = 0.12
    topology_seed: int = 0
    # schedules (flat decimal fields; preset fills exponents)
    preset: str = ""
    lambda0: float = 1.0
    u: float = 0.51
    alpha0: float = 1.0
    v: float = 0.53
    gamma1: float = 1.0
    w1: float = 0.01
    gamma2: float = 1.0
    w2: float = 0.01
    sigma_zeta: float = 1.0
    varsigma_zeta: float = 0.57
    sigma_xi: float = 1.0
    varsigma_xi: float = 0.79
    noise_enabled: bool = True
    x0_policy: str = "project-zero"
    # robustness
    baseline_lambda: float = 0.01
    # truthfulness
    untruthful_agents: tuple[int, ...] = (2, 3)
    shift_fraction: float = 0.4
    pivot_slot: int = 3
    truthful_T: int = 4_000

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; choose from {EXPERIMENT_KINDS}")
        if self.problem not in PROBLEM_KINDS:
            raise ConfigError(f"unknown problem kind {self.problem!r}; choose from {PROBLEM_KINDS}")
        if self.topology not in TOPOLOGY_KINDS:
            raise ConfigError(f"unknown topology kind {self.topology!r}; choose from {TOPOLOGY_KINDS}")
        if self.preset and self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; choose from {sorted(PRESETS)}")
        if self.T < 0 or self.stride <= 0:
            raise ConfigError("T must be >= 0 and stride >= 1")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if not (0 < self.edge_weight < math.inf):
            raise ConfigError(f"edge_weight must be finite and > 0, got {self.edge_weight}")
        # inputs a run would ignore: the EV instance always has K_SLOTS hourly
        # slots, and the truthfulness experiment always runs the EV instance
        if self.problem == "ev" and (self.n, self.d) != (K_SLOTS, K_SLOTS):
            raise ConfigError(f"problem = ev has {K_SLOTS} hourly slots: n = d = {K_SLOTS}, got {self.n}, {self.d}")
        if self.kind == "truthfulness" and self.problem != "ev":
            raise ConfigError(f"kind = truthfulness runs the EV instance: problem must be ev, got {self.problem!r}")


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def apply_preset(cfg: ExperimentConfig, name: str) -> ExperimentConfig:
    """Overlay a named preset's exponents (and any base overrides) onto cfg."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    vals = PRESETS[name]
    return replace(cfg, preset=name, **vals)


_SECTIONS = {
    "experiment": ("kind", "T", "stride", "seeds", "output_dir", "workers"),
    "problem": ("problem", "m", "n", "d", "problem_seed"),
    "topology": ("topology", "degree", "edge_weight", "topology_seed"),
    "schedules": ("preset",) + _SCHEDULE_FIELDS + ("noise_enabled", "x0_policy"),
    "robustness": ("baseline_lambda",),
    "truthfulness": ("untruthful_agents", "shift_fraction", "pivot_slot", "truthful_T"),
}


def _format_value(v) -> str:
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def config_to_text(cfg: ExperimentConfig) -> str:
    """Fully resolved, deterministic dump (the --print-config output)."""
    lines = []
    for section, keys in _SECTIONS.items():
        lines.append(f"[{section}]")
        for k in keys:
            lines.append(f"{k} = {_format_value(getattr(cfg, k))}")
        lines.append("")
    return "\n".join(lines)


_BOOLS = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}


def _parse_int_tuple(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.replace(" ", "").split(",") if x != "")


def parse_config(text_or_path) -> ExperimentConfig:
    """Parse an INI config from a path or a literal string; unknown keys are
    rejected, missing keys take defaults, and the preset (if any) is applied
    before explicit schedule overrides from the file."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keys are case-sensitive (e.g. T vs t)
    text = text_or_path
    try:
        if "\n" not in str(text_or_path) and "=" not in str(text_or_path):
            with open(text_or_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        cp.read_string(text)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config: {exc}") from None

    key_to_section = {k: s for s, keys in _SECTIONS.items() for k in keys}
    raw: dict[str, str] = {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for k, v in cp.items(section):
            if key_to_section.get(k) != section:
                raise ConfigError(f"unknown key {k!r} in section [{section}]")
            raw[k] = v

    cfg = default_config()
    preset = raw.pop("preset", "")
    if preset:
        cfg = apply_preset(cfg, preset)

    kwargs = {}
    for k, v in raw.items():
        current = getattr(cfg, k)
        try:
            if isinstance(current, bool):
                kwargs[k] = _BOOLS[v.strip().lower()]
            elif isinstance(current, tuple):
                kwargs[k] = _parse_int_tuple(v)
            elif isinstance(current, int):
                kwargs[k] = int(float(v)) if ("e" in v or "." in v) else int(v)
            elif isinstance(current, float):
                kwargs[k] = float(v)
            else:
                kwargs[k] = v.strip()
        except (ValueError, KeyError):
            raise ConfigError(f"{k} = {v!r} is not a valid {type(current).__name__}") from None
    return replace(cfg, **kwargs)


def manifest_hash(cfg: ExperimentConfig) -> str:
    """Content hash of the resolved config; changes iff any field changes."""
    return hashlib.sha256(config_to_text(cfg).encode()).hexdigest()


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_schedules(cfg: ExperimentConfig, dim: int | None = None) -> ScheduleSet:
    d = dim if dim is not None else cfg.d
    return ScheduleSet(
        lam=DecayProfile(cfg.lambda0, cfg.u),
        alpha=DecayProfile(cfg.alpha0, cfg.v),
        gamma1=DecayProfile(cfg.gamma1, cfg.w1),
        gamma2=DecayProfile(cfg.gamma2, cfg.w2),
        noise=NoiseSchedule(
            zeta=DecayProfile(cfg.sigma_zeta, cfg.varsigma_zeta),
            xi=DecayProfile(cfg.sigma_xi, cfg.varsigma_xi),
            dim=d,
        ),
    )


def build_topology(cfg: ExperimentConfig) -> Topology:
    if cfg.topology == "ring":
        return ring_topology(cfg.m)
    if cfg.topology == "complete":
        return complete_topology(cfg.m)
    return generate_k_regular(cfg.m, cfg.degree, cfg.topology_seed)


def build_network(cfg: ExperimentConfig) -> WeightMatrix:
    return build_weight_matrix(build_topology(cfg), cfg.edge_weight)


def build_problem(cfg: ExperimentConfig) -> AggregativeProblem:
    if cfg.problem == "ev":
        return ev_problem(desk_ev_spec(cfg.m))
    return synthetic_problem(cfg.problem, cfg.m, cfg.n, cfg.d, cfg.problem_seed)


def build_instance(cfg: ExperimentConfig) -> tuple[AggregativeProblem, WeightMatrix, ScheduleSet]:
    """The problem, network and schedules every run of ``cfg`` shares."""
    problem = build_problem(cfg)
    return problem, build_network(cfg), build_schedules(cfg, dim=problem.d)
