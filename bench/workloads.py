"""The benchmark workloads: inputs made from a seed, one op, and its checks.

Each workload is a closed loop with one client: the next op starts when
the previous one returns. Inputs are generated with ``trajshift.simulate``
from the workload seed during set-up; ops see only those inputs. Every op
result is checked (labels, K range, shifts on the grid at a usable cell,
termination reason, metric files) and digested as the bytes of its
``result.csv``, so later changes can show that results stay identical.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

simulate = importlib.import_module("trajshift.simulate")
dataset = importlib.import_module("trajshift.dataset")
evaluate = importlib.import_module("trajshift.evaluate")
# ``trajshift.register`` is the re-exported function; the module must be
# looked up by its full name.
register_mod = importlib.import_module("trajshift.register")
cli = importlib.import_module("trajshift.cli")

STOP_REASONS = (
    register_mod.EARLY_QUALITY,
    register_mod.STABILIZED,
    register_mod.ITER_CAP,
)
RESULT_HEADER = "subject_id,shift,cluster\n"
# span names (see spans.py) each workload's traced pass must call at least once
IN_MEMORY_LAYERS = (
    "simulate.generate",
    "register.register",
    "spline.build_embedding",
    "spline.ridge_fit",
    "register.register_embedded",
    "cluster.select_k",
    "cluster.distance_matrix",
    "cluster.kmedoids",
    "cluster.silhouette",
    "register.trimmed_centroid",
    "register.update_shifts",
    "register.finalize",
)
CLI_LAYERS = IN_MEMORY_LAYERS + (
    "simulate.corrupt",
    "cli.main",
    "dataset.load_cohort",
    "dataset.read_cohort_csv",
    "cluster.kmeans",
    "evaluate.recovery",
    "evaluate.agreement",
)


def child_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def scenario(scenario_id: int, seed: int, num: int, den: int) -> simulate.ScenarioSpec:
    """Standard scenario with every group size scaled by num/den."""
    spec = simulate.ScenarioSpec.standard(scenario_id, seed=seed)
    groups = tuple(replace(g, size=max(1, g.size * num // den)) for g in spec.groups)
    return replace(spec, groups=groups)


def usable_cells(data, shifts, min_obs: int) -> np.ndarray:
    """(N, L) flags: a cell is usable when >= min_obs shifted times stay in the window."""
    lo, hi = data.window
    out = np.empty((len(data), len(shifts)), dtype=bool)
    for i, tr in enumerate(data.trajectories):
        for j, s in enumerate(shifts):
            t = tr.times + s
            out[i, j] = np.count_nonzero((t >= lo) & (t <= hi)) >= min_obs
    return out


def result_text(ids, shifts, labels) -> str:
    """The exact bytes ``trajshift register`` writes to result.csv."""
    rows = (f"{sid},{float(s)!r},{int(c)}\n" for sid, s, c in zip(ids, shifts, labels))
    return RESULT_HEADER + "".join(rows)


def parse_result(text: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    lines = text.splitlines()
    if not lines or lines[0] + "\n" != RESULT_HEADER:
        raise ValueError("result.csv header")
    ids, shifts, labels = [], [], []
    for line in lines[1:]:
        sid, s, c = line.split(",")
        ids.append(sid)
        shifts.append(float(s))
        labels.append(int(c))
    return ids, np.asarray(shifts), np.asarray(labels, dtype=int)


def check_result(case, config, ids, shifts, labels, k, reason) -> list[str]:
    """Output contract of one registration; returns the violations found."""
    problems = []
    if list(ids) != list(case.data.subject_ids):
        problems.append("subject ids differ from the cohort")
        return problems
    if not 2 <= k <= config.max_clusters:
        problems.append(f"K={k} outside [2, {config.max_clusters}]")
    if labels.min() < 0 or labels.max() >= k or np.any(np.bincount(labels, minlength=k) == 0):
        problems.append(f"labels are not 0..{k - 1} with every cluster nonempty")
    grid = {float(s): j for j, s in enumerate(config.shift_grid)}
    idx = np.asarray([grid.get(float(s), -1) for s in shifts])
    if np.any(idx < 0):
        problems.append("shift off the grid")
    elif not case.usable(config)[np.arange(idx.size), idx].all():
        problems.append("shift at an unusable cell")
    if reason not in STOP_REASONS:
        problems.append(f"unknown termination reason {reason!r}")
    return problems


@dataclass
class Case:
    """One generated cohort with its planted truth."""

    data: object
    truth: object
    csv: Path | None = None
    truth_csv: Path | None = None
    _usable: dict = field(default_factory=dict)

    def usable(self, config) -> np.ndarray:
        key = (config.shift_grid, config.min_obs_per_fit)
        if key not in self._usable:
            self._usable[key] = usable_cells(self.data, config.shift_grid, config.min_obs_per_fit)
        return self._usable[key]


@dataclass
class OpResult:
    seconds: float
    subjects: int
    problems: list
    digest: str = ""
    exact_rate: float = float("nan")
    ari: float = float("nan")


def _score(case, shifts, labels) -> tuple[float, float]:
    rec = evaluate.recovery(case.truth.shifts, shifts)
    return rec.exact_rate, evaluate.agreement(case.truth.groups, labels).ari


class InMemory:
    """Ops call ``register()`` on cohorts held in memory."""

    layers = IN_MEMORY_LAYERS

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.cases: list[Case] = []

    def cycle(self) -> list[int]:
        return list(range(len(self.specs())))

    def prepare(self) -> None:
        self.cases = [Case(*simulate.generate(spec)) for spec in self.specs()]

    def run(self, op: int) -> OpResult:
        case = self.cases[op]
        config = self.config
        t0 = time.perf_counter()
        result = register_mod.register(case.data, config)
        seconds = time.perf_counter() - t0
        out = OpResult(seconds, len(case.data), [])
        out.problems = check_result(
            case, config, result.subject_ids, result.shifts, np.asarray(result.labels),
            result.selected_k, result.termination_reason,
        )
        text = result_text(result.subject_ids, result.shifts, result.labels)
        out.digest = hashlib.sha256(text.encode()).hexdigest()
        out.exact_rate, out.ari = _score(case, result.shifts, result.labels)
        return out


class ProtocolN1000(InMemory):
    op = (
        "register() on one in-memory N=1000 cohort; ops cycle through scenarios 2, 5, 9, "
        "six cohorts of each per cycle; config: defaults with max_iters=1 (1 or 2 iterations)"
    )
    draws = 6
    # max_iters=1 caps scenarios 5 and 9 at exactly two iterations: under the
    # default cap their iteration count ranges from 3 to 11 with the seed,
    # which makes op time vary threefold between seeds.
    config = register_mod.RegistrationConfig(max_iters=1)

    def specs(self):
        den = 10 if self.smoke else 1
        return [
            scenario(sc, child_seed(self.seed, draw, sc), 1, den)
            for draw in range(self.draws)
            for sc in (2, 5, 9)
        ]


class LargeN4000(InMemory):
    op = "register() on one in-memory N=4000 scenario-2 cohort (every group size x4); default config, 1 iteration"
    config = register_mod.RegistrationConfig()

    def specs(self):
        den = 10 if self.smoke else 1
        return [scenario(2, child_seed(self.seed, 0, 2), 4, den)]


class SmallCohortsCsv:
    """Ops run the CLI in process: register a cohort CSV, then evaluate it."""

    layers = CLI_LAYERS
    op = (
        "cli.main register on a quarter-size cohort CSV of scenarios 1-8, then cli.main evaluate; "
        "every third op on a cohort with random_deletion 0.3, every other op with "
        "--config clustering_method=kmeans, boundary_policy=global; six cohorts of each "
        "scenario per cycle"
    )
    combos = 24  # lcm of the 8 scenarios, the 1-in-3 deletion and the 1-in-2 config
    # Distinct cohorts per run, so that means over ops (exact_rate, ari,
    # subjects_per_s) do not hinge on one cohort per scenario.
    draws = 6
    kmeans_fields = {"clustering_method": "kmeans", "boundary_policy": "global"}
    default_config = register_mod.RegistrationConfig()
    kmeans_config = register_mod.RegistrationConfig(**kmeans_fields)

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.den = 40 if smoke else 4
        self.workdir = workdir
        self.setups = 0
        self.cases: dict[tuple[int, int, bool], Case] = {}

    def cycle(self) -> list[int]:
        return list(range(self.combos * self.draws))

    def _op(self, op: int) -> tuple[int, int, bool, bool]:
        """(draw, scenario, deleted, kmeans config) of op number ``op``."""
        draw, i = divmod(op, self.combos)
        return draw, 1 + i % 8, i % 3 == 2, i % 2 == 1

    def prepare(self) -> None:
        # Each set-up writes new files: truncating and rewriting a file can
        # make the filesystem flush it on close, which would time the disk.
        self.setups += 1
        inputs = self.workdir / f"inputs{self.setups}"
        inputs.mkdir()
        cases = {}
        for draw in range(self.draws):
            for sc in range(1, 9):
                spec = scenario(sc, child_seed(self.seed, draw, sc), 1, self.den)
                data, truth = simulate.generate(spec)
                truth_csv = inputs / f"truth{draw}-{sc}.csv"
                simulate.save_ground_truth(truth, truth_csv)
                deletion = simulate.CorruptionSpec(
                    "random_deletion", 0.3, seed=child_seed(self.seed, draw, sc, 1)
                )
                deleted = simulate.corrupt(data, deletion)
                for flag, cohort in ((False, data), (True, deleted)):
                    path = inputs / f"cohort{draw}-{sc}{'d' if flag else ''}.csv"
                    dataset.save_cohort(cohort, path)
                    cases[draw, sc, flag] = Case(cohort, truth, path, truth_csv)
        config_path = inputs / "kmeans.json"
        config_path.write_text(json.dumps(self.kmeans_fields))
        self.config_path = config_path
        self.cases = cases

    def run(self, op: int) -> OpResult:
        draw, sc, deleted, use_kmeans = self._op(op)
        case = self.cases[draw, sc, deleted]
        config = self.kmeans_config if use_kmeans else self.default_config
        reg_dir = self.workdir / "register"
        eval_dir = self.workdir / "evaluate"
        for stale in (reg_dir, eval_dir):  # no stale outputs, no file rewritten in place
            shutil.rmtree(stale, ignore_errors=True)
        argv = ["register", str(case.csv), "--out", str(reg_dir)]
        if use_kmeans:
            argv += ["--config", str(self.config_path)]
        t0 = time.perf_counter()
        code = cli.main(argv)
        if code == 0:
            code = cli.main(
                ["evaluate", str(case.truth_csv), str(reg_dir / "result.csv"), "--out", str(eval_dir)]
            )
        seconds = time.perf_counter() - t0
        out = OpResult(seconds, len(case.data), [])
        if code != 0:
            out.problems.append(f"cli exit code {code}")
            return out
        text = (reg_dir / "result.csv").read_text()
        out.digest = hashlib.sha256(text.encode()).hexdigest()
        ids, shifts, labels = parse_result(text)
        manifest = json.loads((reg_dir / "manifest.json").read_text())
        out.problems = check_result(
            case, config, ids, shifts, labels,
            manifest["selected_k"], manifest["termination_reason"],
        )
        if out.problems:
            return out
        metrics = dict(
            line.split(",") for line in (eval_dir / "metrics.csv").read_text().splitlines()[1:]
        )
        out.exact_rate, out.ari = _score(case, shifts, labels)
        if float(metrics["exact_rate"]) != out.exact_rate or float(metrics["ari"]) != out.ari:
            out.problems.append("metrics.csv disagrees with recovery()/agreement() on result.csv")
        return out


WORKLOADS = {
    "protocol_n1000": ProtocolN1000,
    "small_cohorts_csv": SmallCohortsCsv,
    "large_n4000": LargeN4000,
}
