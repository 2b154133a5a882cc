"""Scenario configuration, ground-truth/measurement simulation, serialization.

Measurement sets are stored as ordered lists purely for serialization;
downstream code must not depend on the order of elements within a scan.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, _matrix, _members, check_int, check_real
from .gaussians import (
    GaussianMixture,
    LinearMotionModel,
    _psd_root,
    make_cv_model,
)
from .models import BirthModel, ClutterModel, MeasurementModel, make_position_measurement
from .trajectory import Trajectory, trajectory_from_jsonable, trajectory_to_jsonable


@dataclass(frozen=True)
class GroundTruth:
    trajectories: tuple[Trajectory, ...]
    k_max: int

    def __post_init__(self):
        for tr in self.trajectories:
            if tr.last_time > self.k_max:
                raise ContractError(
                    f"trajectory ending at {tr.last_time} exceeds horizon {self.k_max}"
                )
        object.__setattr__(self, "trajectories", tuple(self.trajectories))


@dataclass(frozen=True)
class ScenarioConfig:
    k_max: int
    motion: LinearMotionModel
    measurement: MeasurementModel
    clutter: ClutterModel
    birth: BirthModel
    init_ppp: GaussianMixture
    births: tuple[int, ...]
    deaths: tuple[int, ...]
    init_means: tuple[np.ndarray, ...]
    init_cov: np.ndarray
    seed: int


@dataclass(frozen=True)
class Scenario:
    truth: GroundTruth
    measurements: list  # k_max lists of (n_z,) arrays
    motion: LinearMotionModel
    measurement: MeasurementModel
    clutter: ClutterModel
    birth: BirthModel
    init_ppp: GaussianMixture
    seed: int

    @property
    def k_max(self) -> int:
        return self.truth.k_max


def _field(cfg: dict, path: str, key: str, expected=None):
    if key not in cfg:
        raise ConfigError(f"missing field {path}.{key}")
    value = cfg[key]
    if expected is not None and not isinstance(value, expected):
        raise ConfigError(f"field {path}.{key} has wrong type {type(value).__name__}")
    return value


def _region(path: str, value, dim_z: int) -> np.ndarray:
    """A clutter region: (dim_z, 2) rows of [low, high] with low < high on every axis."""
    region = _matrix(path, value, (dim_z, 2))
    if not np.all(region[:, 0] < region[:, 1]):
        raise ConfigError(f"{path} must have low < high on every axis, got {value!r}")
    return region


def _motion(path: str, f, q, ps: float) -> LinearMotionModel:
    """x' ~ N(F x, Q) with F and Q (d, d), d the number of rows of F."""
    dim = len(f)
    return LinearMotionModel(
        _matrix(f"{path}.F", f, (dim, dim)), _matrix(f"{path}.Q", q, (dim, dim)), ps
    )


def _measurement(path: str, h, r, pd: float, dim_x: int) -> MeasurementModel:
    """z ~ N(H x, R) with H (n_z, dim_x) and R (n_z, n_z)."""
    h = _matrix(f"{path}.H", h, (None, dim_x))
    return MeasurementModel(h, _matrix(f"{path}.R", r, (len(h), len(h))), pd)


def _mixture_from_jsonable(data: dict, path: str, dim: int | None = None) -> GaussianMixture:
    """The mixture `{"weights", "means", "covs"}` of a config or an artifact.

    Means are (dim,), of any length when dim is None, and each covariance matches its mean.
    """
    weights = _field(data, path, "weights", list)
    means = _field(data, path, "means", list)
    covs = _field(data, path, "covs", list)
    if not len(weights) == len(means) == len(covs):
        raise ConfigError(f"{path}: weights/means/covs lengths differ")
    means = _members(f"{path}.means[{{}}]", means, (dim,))
    covs = _members(f"{path}.covs[{{}}]", covs, means.shape[1:] * 2)
    weights = [check_real(f"{path}.weights[{k}]", w, "[0, inf)") for k, w in enumerate(weights)]
    return GaussianMixture.of(np.array(weights, dtype=float), means, covs)


@contextmanager
def _overflow(fields: str):
    """ConfigError naming `fields` when building a model from them overflows a float."""
    try:
        with np.errstate(over="raise"):
            yield
    except (OverflowError, FloatingPointError):
        raise ConfigError(f"{fields}: the noise covariance overflows") from None


def load_scenario_config(cfg: dict) -> ScenarioConfig:
    """Parse a scenario config from its decoded JSON object."""
    if not isinstance(cfg, dict):
        raise ConfigError("scenario config must be a JSON object")

    k_max = check_int("K", _field(cfg, "", "K"), 1)
    seed = check_int("seed", _field(cfg, "", "seed"), 0)

    mo = _field(cfg, "", "motion", dict)
    ps = check_real("motion.pS", _field(mo, "motion", "pS"), "[0, 1]")
    if mo.get("model") == "cv":
        ts = float(check_real("motion.Ts", _field(mo, "motion", "Ts"), "(0, inf)"))
        sigma_q = float(check_real("motion.sigma_q", _field(mo, "motion", "sigma_q"), "[0, inf)"))
        dims = check_int("motion.dims", mo.get("dims", 2), 1)
        with _overflow(f"motion.Ts {ts!r} with motion.sigma_q {sigma_q!r}"):
            motion = make_cv_model(ts, sigma_q, ps, dims=dims)
    else:
        motion = _motion(
            "motion", _field(mo, "motion", "F", list), _field(mo, "motion", "Q", list), ps
        )

    me = _field(cfg, "", "measurement", dict)
    pd = check_real("measurement.pD", _field(me, "measurement", "pD"), "[0, 1]")
    if me.get("model") == "position":
        if motion.dim % 2 != 0:
            raise ConfigError("measurement.model=position needs (pos, vel) state pairs")
        sigma_r = float(check_real(
            "measurement.sigma_r", _field(me, "measurement", "sigma_r"), "[0, inf)"
        ))
        with _overflow(f"measurement.sigma_r {sigma_r!r}"):
            measurement = make_position_measurement(motion.dim // 2, sigma_r, pd)
    else:
        measurement = _measurement(
            "measurement",
            _field(me, "measurement", "H", list),
            _field(me, "measurement", "R", list),
            pd,
            motion.dim,
        )

    cl = _field(cfg, "", "clutter", dict)
    clutter = ClutterModel(
        float(check_real("clutter.rate", _field(cl, "clutter", "rate"), "[0, inf)")),
        _region("clutter.region", _field(cl, "clutter", "region", list), measurement.dim_z),
    )

    bi = _field(cfg, "", "birth", dict)
    uniform = check_real("birth.uniform_density", bi.get("uniform_density", 0.0), "[0, inf)")
    birth = BirthModel(_mixture_from_jsonable(bi, "birth", motion.dim), float(uniform))
    init_ppp = birth.intensity
    if "init_ppp" in cfg:
        init_ppp = _mixture_from_jsonable(cfg["init_ppp"], "init_ppp", motion.dim)

    sc = _field(cfg, "", "schedule", dict)
    births = tuple(
        check_int(f"schedule.births[{i}]", b, 1)
        for i, b in enumerate(_field(sc, "schedule", "births", list))
    )
    deaths = tuple(
        check_int(f"schedule.deaths[{i}]", d, 1)
        for i, d in enumerate(_field(sc, "schedule", "deaths", list))
    )
    init_means = tuple(_members(
        "schedule.init_means[{}]", _field(sc, "schedule", "init_means", list), (motion.dim,)
    ))
    if not len(births) == len(deaths) == len(init_means):
        raise ConfigError("schedule: births/deaths/init_means lengths differ")
    for i, (b, d) in enumerate(zip(births, deaths)):
        if d < b:
            raise ConfigError(f"schedule: object {i} dies at {d} before birth {b}")
        if b < 1 or d > k_max:
            raise ConfigError(f"schedule: object {i} interval {b}:{d} outside 1:{k_max}")
    if "init_cov" in sc:
        init_cov = _matrix("schedule.init_cov", sc["init_cov"], (motion.dim, motion.dim))
    elif len(birth.intensity) > 0:
        init_cov = birth.intensity.covs[0]
    else:
        raise ConfigError("schedule.init_cov required when birth mixture is empty")

    return ScenarioConfig(
        k_max=k_max,
        motion=motion,
        measurement=measurement,
        clutter=clutter,
        birth=birth,
        init_ppp=init_ppp,
        births=births,
        deaths=deaths,
        init_means=init_means,
        init_cov=init_cov,
        seed=seed,
    )


def generate_truth(config: ScenarioConfig, rng: np.random.Generator) -> GroundTruth:
    """Sample object trajectories on the configured birth/death schedule.

    Initial states are N(init_mean, init_cov) draws; subsequent states follow
    x_{k+1} ~ N(F x_k, Q) until the scheduled death.
    """
    root_f = _psd_root(config.init_cov)
    root_q = _psd_root(config.motion.Q)
    trajectories = []
    for b, d, mean in zip(config.births, config.deaths, config.init_means):
        x = mean + root_f @ rng.standard_normal(config.motion.dim)
        states = [x]
        for _ in range(b, d):
            x = config.motion.F @ x + root_q @ rng.standard_normal(config.motion.dim)
            states.append(x)
        trajectories.append(Trajectory(b, np.array(states)))
    return GroundTruth(tuple(trajectories), config.k_max)


def generate_measurements(
    truth: GroundTruth,
    mm: MeasurementModel,
    cm: ClutterModel,
    rng: np.random.Generator,
) -> list[list[np.ndarray]]:
    """Detections (probability pd, noise R) plus Poisson-uniform clutter per scan."""
    root_r = _psd_root(mm.R)
    scans = []
    for k in range(1, truth.k_max + 1):
        scan = []
        for tr in truth.trajectories:
            if tr.alive_at(k) and rng.random() < mm.pd:
                scan.append(mm.H @ tr.state_at(k) + root_r @ rng.standard_normal(mm.dim_z))
        scan.extend(cm.sample(rng))
        scans.append(scan)
    return scans


def simulate_scenario(config: ScenarioConfig) -> Scenario:
    """Full scenario draw from the config's seed (truth first, then measurements)."""
    rng = np.random.default_rng(config.seed)
    truth = generate_truth(config, rng)
    measurements = generate_measurements(truth, config.measurement, config.clutter, rng)
    return Scenario(
        truth=truth,
        measurements=measurements,
        motion=config.motion,
        measurement=config.measurement,
        clutter=config.clutter,
        birth=config.birth,
        init_ppp=config.init_ppp,
        seed=config.seed,
    )


def _mixture_to_jsonable(mix: GaussianMixture) -> dict:
    return {"weights": mix.weights.tolist(), "means": mix.means.tolist(), "covs": mix.covs.tolist()}


def scenario_to_jsonable(sc: Scenario) -> dict:
    return {
        "k_max": sc.k_max,
        "seed": sc.seed,
        "models": {
            "motion": {"F": sc.motion.F.tolist(), "Q": sc.motion.Q.tolist(), "ps": sc.motion.ps},
            "measurement": {
                "H": sc.measurement.H.tolist(),
                "R": sc.measurement.R.tolist(),
                "pd": sc.measurement.pd,
            },
            "clutter": {"rate": sc.clutter.rate, "region": sc.clutter.region.tolist()},
            "birth": {
                **_mixture_to_jsonable(sc.birth.intensity),
                "uniform_density": sc.birth.uniform_density,
            },
            "init_ppp": _mixture_to_jsonable(sc.init_ppp),
        },
        "truth": {
            "trajectories": [trajectory_to_jsonable(tr) for tr in sc.truth.trajectories]
        },
        "measurements": [[z.tolist() for z in scan] for scan in sc.measurements],
    }


def scenario_from_jsonable(data: dict) -> Scenario:
    models = data["models"]
    mo, me, cl, birth = models["motion"], models["measurement"], models["clutter"], models["birth"]
    ps = float(check_real("models.motion.ps", mo["ps"], "[0, 1]"))
    motion = _motion("models.motion", mo["F"], mo["Q"], ps)
    truth = GroundTruth(
        tuple(
            trajectory_from_jsonable(tr, f"truth.trajectories[{i}]", motion.dim)
            for i, tr in enumerate(data["truth"]["trajectories"])
        ),
        check_int("k_max", data["k_max"], 1),
    )
    measurement = _measurement(
        "models.measurement", me["H"], me["R"],
        float(check_real("models.measurement.pd", me["pd"], "[0, 1]")), motion.dim,
    )
    return Scenario(
        truth=truth,
        measurements=[
            list(_members(f"measurements[{k}][{{}}]", scan, (measurement.dim_z,)))
            for k, scan in enumerate(data["measurements"])
        ],
        motion=motion,
        measurement=measurement,
        clutter=ClutterModel(
            float(check_real("models.clutter.rate", cl["rate"], "[0, inf)")),
            _region("models.clutter.region", cl["region"], measurement.dim_z),
        ),
        birth=BirthModel(
            _mixture_from_jsonable(birth, "models.birth", motion.dim),
            float(check_real(
                "models.birth.uniform_density", birth.get("uniform_density", 0.0), "[0, inf)"
            )),
        ),
        init_ppp=_mixture_from_jsonable(models["init_ppp"], "models.init_ppp", motion.dim),
        seed=check_int("seed", data["seed"], 0),
    )
