"""The benchmark's workloads: each is a closed loop of items run back to back.

A workload turns the run's seed into per-item seeds, prepares the items'
inputs during set-up, and runs one item at a time through trajsmooth's
public API or its CLI entry point. Each item reports whether its output
checks passed, its quality numbers and, after the timed section, the bytes of
its artifacts so that two runs of the same item can be compared.

Why each workload exists is in README.md beside this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from trajsmooth import backward, cli, oracle
from trajsmooth.forward import BernoulliComponent, FilterLog, PMBDensity
from trajsmooth.gaussians import GaussianDensity, GaussianMixture, LinearMotionModel
from trajsmooth.models import BirthModel

TV_MAX = 0.02  # criterion 04's threshold for sampler-vs-oracle total variation


@dataclass
class Outcome:
    problem: str | None  # None when every output check of the item passed
    quality: dict[str, float]
    artifacts: Callable[[], dict[str, bytes]] | None  # read after the timed section
    bytes_written: int = 0
    sample: object = None  # what a run-level check pools across items


def _means(outcomes: list[Outcome]) -> dict[str, float]:
    keys = {k for o in outcomes for k in o.quality}
    return {k: statistics.fmean(o.quality[k] for o in outcomes if k in o.quality) for k in sorted(keys)}


@dataclass
class Item:
    index: int
    seed: int
    inputs: dict = field(default_factory=dict)


def item_seeds(workload: str, seed: int, count: int) -> list[int]:
    """Distinct per-item seeds from the run seed; the last item repeats the first."""
    seeds = []
    for i in range(count - 1):
        digest = hashlib.sha256(f"{workload}:{seed}:{i}".encode()).digest()
        seeds.append(int.from_bytes(digest[:4], "big"))
    return seeds + seeds[:1]


def _files(outdir: Path) -> Callable[[], dict[str, bytes]]:
    return lambda: {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def _bytes_in(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.iterdir())


class DeskMC:
    """One `trajsmooth mc` run of configs/desk_mc.json (mc_runs=1) per item."""

    name = "desk_mc"
    sizes = {
        "full": {"particles": 100, "nominal_s": 3.5},
        "tiny": {"particles": 4, "K": 10, "nominal_s": 1.0},
    }

    def __init__(self, root: Path, size: dict):
        self.root = root
        self.size = size

    def prepare(self, seeds: list[int], workdir: Path) -> list[Item]:
        cfg_path = self.root / "configs" / "desk_mc.json"
        cfg = json.loads(cfg_path.read_text())
        cfg["scenario"] = json.loads((cfg_path.parent / cfg["scenario"]).read_text())
        cfg["mc_runs"] = 1
        cfg["smoother"]["T"] = self.size["particles"]
        if "K" in self.size:
            cfg["scenario"]["K"] = self.size["K"]
            cfg["scenario"]["schedule"]["deaths"] = [self.size["K"]] * 3
        items = []
        for i, seed in enumerate(seeds):
            cfg["seed"] = seed
            path = workdir / f"desk_mc-{i}.json"
            path.write_text(json.dumps(cfg))
            items.append(Item(i, seed, {"config": path}))
        return items

    def run(self, item: Item, outdir: Path) -> Outcome:
        code = cli.main(["mc", "--config", str(item.inputs["config"]), "--out", str(outdir)])
        if code != 0:
            return Outcome(f"mc exited {code}", {}, lambda: {})
        report = outdir / "report.json"
        agg = json.loads(report.read_text())["aggregate"]
        quality = {
            "filter_gospa": agg["filter_mean_gospa"],
            "smoothed_gospa": agg["smoothed_mean_gospa"],
        }
        # timings.json holds wall-clock time, so only the report must repeat exactly
        return Outcome(None, quality, lambda: {"report.json": report.read_bytes()},
                       _bytes_in(outdir))

    def summarize(self, outcomes: list[Outcome]) -> tuple[dict[str, float], str | None]:
        """Mean GOSPA over the items; the paper's claim is smoothed < filter (criterion 07)."""
        quality = _means(outcomes)
        if not quality["smoothed_gospa"] < quality["filter_gospa"]:
            return quality, "mean smoothed GOSPA is not below mean filter GOSPA"
        return quality, None


class Scenario1CLI:
    """simulate -> filter -> smooth -> evaluate on configs/scenario1.json per item."""

    name = "scenario1_cli"
    sizes = {
        "full": {"particles": 10, "nominal_s": 6.5},
        "tiny": {"particles": 2, "K": 12, "objects": 3, "filter_m_best": 5, "nominal_s": 1.0},
    }

    def __init__(self, root: Path, size: dict):
        self.root = root
        self.size = size

    def prepare(self, seeds: list[int], workdir: Path) -> list[Item]:
        cfg = json.loads((self.root / "configs" / "scenario1.json").read_text())
        if "K" in self.size:
            n = self.size["objects"]
            cfg["K"] = self.size["K"]
            sched = cfg["schedule"]
            sched["births"] = sched["births"][:n]
            sched["deaths"] = [self.size["K"]] * n
            sched["init_means"] = sched["init_means"][:n]
        items = []
        for i, seed in enumerate(seeds):
            cfg["seed"] = seed
            path = workdir / f"scenario1-{i}.json"
            path.write_text(json.dumps(cfg))
            items.append(Item(i, seed, {"config": path}))
        return items

    def run(self, item: Item, outdir: Path) -> Outcome:
        sc, fl = outdir / "scenario.json", outdir / "filterlog.json"
        pt, bp = outdir / "particles.json", outdir / "best.json"
        rep, csv = outdir / "report.json", outdir / "metrics.csv"
        filter_flags = (
            ["--filter-m-best", str(self.size["filter_m_best"])]
            if "filter_m_best" in self.size else []
        )
        stages = [
            ["simulate", "--config", str(item.inputs["config"]), "--out", str(sc)],
            ["filter", "--scenario", str(sc), "--out", str(fl), *filter_flags],
            ["smooth", "--scenario", str(sc), "--filterlog", str(fl), "--out", str(pt),
             "--best-out", str(bp), "--particles", str(self.size["particles"])],
            ["evaluate", "--scenario", str(sc), "--filterlog", str(fl), "--best", str(bp),
             "--out", str(rep), "--csv", str(csv)],
        ]
        for argv in stages:
            code = cli.main(argv)
            if code != 0:
                return Outcome(f"{argv[0]} exited {code}", {}, lambda: {})
        sources = json.loads(rep.read_text())["sources"]
        if set(sources) != {"filter", "smoothed"}:
            return Outcome("GOSPA report lacks a source", {}, lambda: {})
        quality = {
            "filter_gospa": sources["filter"]["gospa_total"],
            "smoothed_gospa": sources["smoothed"]["gospa_total"],
        }
        return Outcome(None, quality, _files(outdir), _bytes_in(outdir))

    def summarize(self, outcomes: list[Outcome]) -> tuple[dict[str, float], str | None]:
        return _means(outcomes), None


def _g(mean: float, var: float) -> GaussianDensity:
    return GaussianDensity(np.array([mean]), np.array([[var]]))


def criterion04_toy(sigma2: float = 1e-8):
    """K=3 scalar filter log with near-Dirac densities and every hypothesis family.

    Means are multiples of 0.1, so states quantized at 0.1 identify the
    discrete structure of a trajectory set exactly.
    """
    motion = LinearMotionModel([[1.0]], [[0.25]], ps=0.9)
    birth = BirthModel(GaussianMixture(((0.1, _g(0.0, 25.0)),)))
    posteriors = [
        PMBDensity(
            GaussianMixture(((0.2, _g(2.2, sigma2)),)),
            (BernoulliComponent(0.6, _g(0.5, sigma2)),),
        ),
        PMBDensity(
            GaussianMixture(((0.3, _g(2.8, sigma2)),)),
            (BernoulliComponent(0.9, _g(0.2, sigma2)), BernoulliComponent(0.5, _g(2.5, sigma2))),
        ),
        PMBDensity(
            GaussianMixture(),
            (BernoulliComponent(0.8, _g(0.0, sigma2)), BernoulliComponent(0.7, _g(3.0, sigma2))),
        ),
    ]
    log = FilterLog(k_max=len(posteriors))
    for p in posteriors:
        log.posteriors.append(p)
        log.predicted_ppps.append(p.ppp)
        log.estimates.append([])
    return log, birth, motion


def structure_counts(trajectory_sets, resolution: float = 0.1) -> Counter:
    return Counter(oracle.structure_signature(ts, resolution) for ts in trajectory_sets)


def total_variation(counts: Counter, post, resolution: float = 0.1) -> float:
    """TV distance between sampled structure counts and the exact structure distribution."""
    exact = defaultdict(float)
    for hyp in post.hypotheses:
        exact[oracle.structure_signature(hyp.trajectories, resolution)] += math.exp(hyp.log_weight)
    n = sum(counts.values())
    return 0.5 * sum(abs(counts.get(s, 0) / n - exact.get(s, 0.0)) for s in set(counts) | set(exact))


class OracleToy:
    """exact_smooth, then backward_simulate, then TV against the oracle, per item.

    One item's TV is dominated by sampling noise at this particle count, so
    the criterion-04 check runs on the particles of all distinct items pooled.
    """

    name = "oracle_toy"
    sizes = {
        "full": {"particles": 10_000, "nominal_s": 5.0},
        "tiny": {"particles": 300, "nominal_s": 1.0},
    }

    def __init__(self, root: Path, size: dict):
        self.size = size

    def prepare(self, seeds: list[int], workdir: Path) -> list[Item]:
        toy = criterion04_toy()
        return [Item(i, seed, {"toy": toy}) for i, seed in enumerate(seeds)]

    def run(self, item: Item, outdir: Path) -> Outcome:
        log, birth, motion = item.inputs["toy"]
        post = oracle.exact_smooth(log, birth, motion, prune=1e-10)
        params = backward.SmootherParams(
            num_particles=self.size["particles"], m_best=64, gate_prob=1.0,
            w_hyp_min=0.0, dirac_mode=False, seed=item.seed,
        )
        particles = backward.backward_simulate(log, birth, motion, params)
        counts = structure_counts(p.trajectories for p in particles)
        tv = total_variation(counts, post)

        def artifacts():
            dump = lambda d: json.dumps(d, sort_keys=True, separators=(",", ":")).encode()
            return {
                "particles": dump(backward.particles_to_jsonable(particles)),
                "oracle": dump(oracle.posterior_to_jsonable(post)),
            }

        return Outcome(None, {"item_tv": tv}, artifacts, sample=(counts, post))

    def summarize(self, outcomes: list[Outcome]) -> tuple[dict[str, float], str | None]:
        pooled = sum((o.sample[0] for o in outcomes), Counter())
        tv = total_variation(pooled, outcomes[0].sample[1])
        quality = {"tv_oracle": tv, **_means(outcomes)}
        return quality, None if tv < TV_MAX else f"pooled TV {tv:.4f} >= {TV_MAX}"


WORKLOADS = {w.name: w for w in (DeskMC, Scenario1CLI, OracleToy)}
