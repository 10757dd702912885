"""The three benchmark workloads: their inputs, operations and checks.

Each workload builds its inputs from the seed in ``setup``, lists the
operations of one round in ``ops`` (each a call into the public htpriv API),
and checks the results of every round in ``check``.  The operations of a
round are the same in every round and every run, so the share of failed
operations does not depend on the seed or the run length.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import checks as ref
from htpriv import adversary, cli, instances, regions, schemes
from htpriv.probcore import Channel, JointPmf, Pmf

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INSTANCE_DIR = os.path.join(ROOT, "instances")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


@dataclass
class Op:
    """One call into the program.  ``phase`` names the task metric its time
    goes to; ``units`` counts trials or samples for throughput metrics."""

    name: str
    phase: str
    run: Callable[[], Any]
    units: float = 0.0


@dataclass
class Phase:
    name: str
    unit: str
    per_unit: bool = False      # units / seconds instead of seconds


@dataclass
class Outcome:
    """Result of one op in one round: its value or the exception it raised.
    ``check`` sets ``known_fault`` when a failure is exactly the one that a
    named program fault gives every time."""

    value: Any = None
    error: str | None = None
    seconds: float = 0.0
    failures: list[str] = field(default_factory=list)
    known_fault: str | None = None


def _instance(name: str) -> str:
    return os.path.join(INSTANCE_DIR, name)


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.strip("\n").split("\n")
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def _run_cli(argv: list[str], out: str) -> tuple[int, str]:
    rc = cli.main(argv + ["--out", out])
    text = ""
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(out)
    return rc, text


def _close(a: float, b: float, tol: float) -> bool:
    return (math.isinf(a) and math.isinf(b) and a == b) or abs(a - b) <= tol


# ---------------------------------------------------------------------------
# frontier
# ---------------------------------------------------------------------------

class Frontier:
    """README frontier command on the binary cascade, plus taci_frontier on
    a ternary conditional-independence instance, both with a search small
    enough that a run makes several rounds."""

    phases = (Phase("frontier_binary_s", "s"),
              Phase("frontier_ternary_s", "s"))
    # the ternary instance is fixed: its search cost varies about twofold
    # between random instances, which would swamp run-to-run spread; the
    # seed drives the searches of both frontiers instead
    TERNARY_INSTANCE_SEED = 0
    # random hill climbs per |W|: with the README command's default of 200
    # (about 17 s) and 10 for the ternary search (about 11 s), a 30 s run
    # timed a single round, so its wall_s was no median
    BINARY_RANDOM_SEEDS = 10
    TERNARY_RANDOM_SEEDS = 2

    def setup(self, seed: int) -> dict:
        binary = instances.load_instance(_instance("example1_taci.json"))
        rng = np.random.default_rng(self.TERNARY_INSTANCE_SEED)
        p = rng.gamma(1.0, 1.0, (2, 3, 2, 2))
        p /= p.sum()
        q_cond = rng.gamma(1.0, 1.0, (3, 2, 2, 2))
        q_cond /= q_cond.sum(axis=-1, keepdims=True)
        ternary = JointPmf((("S", 2), ("U", 3), ("Y", 2), ("Z", 2)), p)
        ctx = {"seed": seed, "binary": binary, "ternary": ternary,
               "ternary_q": q_cond, "captured": [], "round": {"readme": 0, "ternary": 0}}
        self._capture(ctx)
        return ctx

    @staticmethod
    def _search_seed(ctx: dict, op: str) -> int:
        """Search seed of the op's next round k: each round draws a new
        search, so the median over rounds is not one search's cost, and
        round k is the same in every run of one seed."""
        k = ctx["round"][op]
        ctx["round"][op] += 1
        return int(np.random.SeedSequence([ctx["seed"], k]).generate_state(1)[0])

    def ops(self, ctx: dict) -> list[Op]:
        out = os.path.join(OUT_DIR, f"frontier-{os.getpid()}.csv")

        def readme():
            ctx["captured"].clear()
            argv = ["run", "--experiment", "frontier", "--instance",
                    _instance("example1_taci.json"), "--seed", str(self._search_seed(ctx, "readme")),
                    "--param", "w_sizes=2", "--param", f"random_seeds={self.BINARY_RANDOM_SEEDS}"]
            rc, text = _run_cli(argv, out)
            return rc, text, list(ctx["captured"][-1]) if ctx["captured"] else []

        def ternary():
            cfg = regions.FrontierConfig(random_seeds=self.TERNARY_RANDOM_SEEDS,
                                         rng_seed=self._search_seed(ctx, "ternary"))
            return regions.taci_frontier(ctx["ternary"], ctx["ternary_q"], cfg)

        return [Op("frontier_readme", "frontier_binary_s", readme),
                Op("frontier_ternary", "frontier_ternary_s", ternary)]

    @staticmethod
    def _capture(ctx: dict) -> None:
        """Keep the points the CLI's taci_frontier call returns, so the checks
        can recompute each emitted channel (the CSV holds only their ids)."""
        original = regions.taci_frontier

        def keep(*args, **kwargs):
            points = original(*args, **kwargs)
            ctx["captured"].append(points)
            return points

        regions.taci_frontier = keep

    @staticmethod
    def _front_failures(points, p_suyz: np.ndarray) -> tuple[list[str], np.ndarray]:
        """Failures of the checks on one emitted front, and each channel's
        coordinates as recomputed here (nats)."""
        if not points:
            return ["empty front"], np.zeros((0, 3))
        fails = []
        coords = np.array([(pt.rate, pt.exponent, pt.privacy0) for pt in points])
        for pt in points:
            rows = pt.channel.rows
            if np.abs(rows.sum(axis=1) - 1.0).max() > 1e-12 or rows.min() < 0:
                fails.append(f"{pt.channel_id}: channel rows are not a pmf")
        recomputed = np.array([ref.taci_coords(p_suyz, pt.channel.rows) for pt in points])
        worst = float(np.abs(recomputed - coords).max())
        if worst > 1e-9:
            fails.append(f"recomputed coordinates differ by {worst:.3g} nats")
        dominated = ref.dominated_count(coords)
        if dominated:
            fails.append(f"{dominated} emitted points are dominated")
        i_uy, h_suyz, h_syz = ref.taci_bounds(p_suyz)
        if (coords[:, 1] > i_uy + 1e-12).any():
            fails.append("I(W;Y|Z) exceeds I(U;Y|Z)")
        if (coords[:, 2] < h_suyz - 1e-12).any() or (coords[:, 2] > h_syz + 1e-12).any():
            fails.append("H(S|W,Y,Z) outside [H(S|U,Y,Z), H(S|Y,Z)]")
        return fails, recomputed

    def check(self, ctx: dict, rounds: list[dict[str, Outcome]]) -> dict:
        p_bin = ctx["binary"].p.probs
        p_cross, q_cross = ref.cascade_params(p_bin)
        hashes = []
        volume = 0.0
        for outcomes in rounds:
            o = outcomes["frontier_readme"]
            if o.error is None:
                rc, text, points = o.value
                hashes.append(hashlib.sha256(text.encode()).hexdigest())
                if rc != 0:
                    o.failures.append(f"cli exit status {rc}")
                else:
                    header, rows = _csv_rows(text)
                    fails, recomputed = self._front_failures(points, p_bin)
                    o.failures += fails
                    if header != ["rate_bits", "exponent_bits", "privacy0", "privacy1", "channel_id"]:
                        o.failures.append(f"unexpected CSV header {header}")
                    elif len(rows) != len(points) or any(
                            r[4] != pt.channel_id for r, pt in zip(rows, points)):
                        o.failures.append("CSV rows do not match the emitted channels")
                    elif points:
                        csv_bits = np.array([[float(x) for x in r[:3]] for r in rows])
                        gap = float(np.abs(csv_bits - recomputed / ref.LN2).max())
                        if gap > 1e-9:
                            o.failures.append(f"CSV rows differ from recomputation by {gap:.3g} bits")
                        cf = ref.closed_form_gap(csv_bits, p_cross, q_cross)
                        if cf >= 1e-3:
                            o.failures.append(f"front is {cf:.3g} bits from the closed form")
                        volume = ref.hypervolume(csv_bits, (1.0, 0.0, 0.0))
            o = outcomes["frontier_ternary"]
            if o.error is None:
                o.failures += self._front_failures(o.value, ctx["ternary"].probs)[0]
        return {"front_volume_bits3": (volume, "bits3"),
                # round k searches with the same seed in every run of one seed, and
                # every run makes a first round: steady.py compares its hash
                "csv_sha256": (hashes[0][:16] if hashes else "", "")}


# ---------------------------------------------------------------------------
# coupling
# ---------------------------------------------------------------------------

SHIPPED = ("counterexample_binary.json", "example1_suv.json", "example1_taci.json",
           "example2_tai.json", "zero_rate_binary.json")


def _uv_arrays(pair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Null (S,U,V) with V flattened, and the (U,V) laws of both hypotheses."""
    nu = pair.u_size()
    p = pair.p.probs.reshape(pair.p.axis_size("S"), nu, -1)
    q = pair.q.probs.reshape(p.shape)
    return p, p.sum(axis=0), q.sum(axis=0)


class Coupling:
    """The constrained KL minimizations: the inner bound over a rate grid
    with no entropy floor binding, zero-rate exponents, entropy-floor-active
    exponent_e2 solves and two support-boundary problems."""

    phases = (Phase("inner_bound_s", "s"),
              Phase("floor_solve_s", "s"),
              Phase("support_solve_s", "s"))
    # auxiliary channels under which no entropy floor binds on any shipped
    # instance (the checks confirm the floor is met; the traced run counts
    # the solve classes)
    CHANNELS = {
        2: ([[0.9, 0.1], [0.2, 0.8]], [[0.7, 0.3], [0.4, 0.6]], [[0.95, 0.05], [0.05, 0.95]]),
        4: ([[0.9, 0.1], [0.1, 0.9], [0.8, 0.2], [0.3, 0.7]],
            [[0.6, 0.4], [0.2, 0.8], [0.5, 0.5], [0.7, 0.3]],
            [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
    }
    RATE_STEP, RATES = 0.04, 20
    # draws 4 and 5 of generator seed 11 are the first whose floor binds;
    # check() confirms that it does
    FLOOR_SEED, FLOOR_DRAWS = 11, (4, 5)
    FLOOR_GRID = 80
    SUPPORT = {
        # the only feasible point lies on the support boundary; min = log(5/3)
        "support_a": (np.array([[0.4, 0.3], [0.3, 0.0]]), np.array([0.5, 0.5]),
                      np.array([0.5, 0.5]), math.log(5.0 / 3.0)),
        # the diagonal support cannot carry unequal marginals: +inf
        "support_b": (np.array([[0.5, 0.0], [0.0, 0.5]]), np.array([0.5, 0.5]),
                      np.array([0.2, 0.8]), math.inf),
    }
    SUPPORT_A_FAULT = ("solve_coupling returns +inf once the 200k-sweep cap of _ipf "
                       "runs out on a support-boundary optimum")

    def setup(self, seed: int) -> dict:
        pairs = {name: instances.load_instance(_instance(name)) for name in SHIPPED}
        offset = float(np.random.default_rng(seed).uniform(0.0, self.RATE_STEP))
        rates = [offset + k * self.RATE_STEP for k in range(self.RATES)]
        return {"pairs": pairs, "rates": rates, "floor": self._floor_problems()}

    def _floor_problems(self) -> list:
        """The draws FLOOR_DRAWS of a fixed generator of (P, Q, channel)."""
        rng = np.random.default_rng(self.FLOOR_SEED)
        axes = (("S", 2), ("U", 2), ("V", 2))
        out = []
        for i in range(max(self.FLOOR_DRAWS) + 1):
            p, q, rows = rng.gamma(1, 1, (2, 2, 2)), rng.gamma(1, 1, (2, 2, 2)), rng.gamma(1, 1, (2, 2))
            if i in self.FLOOR_DRAWS:
                p, q, rows = p / p.sum(), q / q.sum(), rows / rows.sum(axis=1, keepdims=True)
                pair = regions.HypothesisPair(JointPmf(axes, p), JointPmf(axes, q))
                out.append((pair, Channel(rows), self._frame(pair, rows)))
        return out

    @staticmethod
    def _frame(pair, rows: np.ndarray) -> dict:
        """Reference, marginal targets and entropy floor of both exponent
        programs on axes (U, V, W), from the instance and the channel."""
        p_suv, p_uv, q_uv = _uv_arrays(pair)
        p_uvw = p_uv[:, :, None] * rows[:, None, :]
        p_u, p_v = p_uv.sum(axis=1), p_uv.sum(axis=0)
        return {
            "ref": q_uv[:, :, None] * rows[:, None, :],
            "cons_e1": [((0, 2), ref.marginal(p_uvw, (0, 2))), ((1, 2), ref.marginal(p_uvw, (1, 2)))],
            "cons_e2": [((0, 2), ref.marginal(p_uvw, (0, 2))), ((1,), p_v)],
            "floor": ref.cond_entropy(p_uvw, (2,), (1,)),
            "i_uw": ref.cond_mutual_info(p_uvw, (0,), (2,)),
            "i_uw_v": ref.cond_mutual_info(p_uvw, (0,), (2,), (1,)),
            "i_vw": ref.cond_mutual_info(p_uvw, (1,), (2,)),
            "i_wu_v": ref.cond_mutual_info(p_uvw, (2,), (0,), (1,)),
            "p_suvw": p_suv[..., None] * rows[None, :, None, :],
            "ci": bool(np.abs(q_uv - np.outer(p_u, p_v)).max() < 1e-12),
        }

    def ops(self, ctx: dict) -> list[Op]:
        out = []
        for name, pair in ctx["pairs"].items():
            for ci, rows in enumerate(self.CHANNELS[pair.u_size()]):
                chan = Channel(rows)
                for k, rate in enumerate(ctx["rates"]):
                    tag = f"{name}/ch{ci}/r{k}"
                    out += [
                        Op(f"theorem1:{tag}", "inner_bound_s",
                           lambda p=pair, c=chan, r=rate: regions.theorem1_point(p, c, r)),
                        Op(f"theorem2:{tag}", "inner_bound_s",
                           lambda p=pair, c=chan, r=rate: regions.theorem2_point(p, c, r)),
                        Op(f"kappa:{tag}", "inner_bound_s",
                           lambda p=pair, c=chan, r=rate: regions.kappa_star(r, p, c)),
                    ]
        for name, pair in ctx["pairs"].items():
            _, p_uv, q_uv = _uv_arrays(pair)
            q = JointPmf((("U", p_uv.shape[0]), ("V", p_uv.shape[1])), q_uv)
            out.append(Op(f"zero_rate:{name}", "inner_bound_s",
                          lambda a=Pmf(p_uv.sum(axis=1)), b=Pmf(p_uv.sum(axis=0)), q=q:
                          regions.zero_rate_exponent(a, b, q)))
        for i, (pair, chan, _frame) in enumerate(ctx["floor"]):
            out.append(Op(f"floor:{i}", "floor_solve_s",
                          lambda p=pair, c=chan: regions.exponent_e2_solution(0.0, p, c)))
        for name, (reference, rows, cols, _want) in self.SUPPORT.items():
            problem = regions.CouplingProblem(reference, (((0,), rows), ((1,), cols)))
            out.append(Op(name, "support_solve_s",
                          lambda pr=problem: regions.solve_coupling(pr)))
        return out

    @staticmethod
    def _solution_failures(sol, reference: np.ndarray, cons) -> list[str]:
        if sol is None or math.isinf(sol.objective):
            return []
        x = sol.coupling.reshape(reference.shape)
        fails = []
        err = ref.max_marginal_error(x, cons)
        if err > 1e-9:
            fails.append(f"marginals missed by {err:.3g}")
        obj = ref.kl(x, reference)
        if not _close(obj, sol.objective, 1e-9):
            fails.append(f"objective {sol.objective} != KL(coupling||reference) {obj}")
        return fails

    def _inner_expected(self, ctx: dict) -> dict:
        """Per (instance, channel): E1, the rate-free part of E2 and the
        privacy levels, each checked against the solver's own argmin."""
        out = {}
        for name, pair in ctx["pairs"].items():
            for ci, rows in enumerate(self.CHANNELS[pair.u_size()]):
                chan, rows = Channel(rows), np.asarray(rows, dtype=float)
                fr = self._frame(pair, rows)
                e1 = regions.exponent_e1_solution(pair, chan)
                fails = self._solution_failures(e1, fr["ref"], fr["cons_e1"])
                if fr["ci"] and not _close(e1.objective, fr["i_vw"], 1e-6):
                    fails.append(f"E1 {e1.objective} != I(V;W) {fr['i_vw']} on a CI instance")
                e2 = None
                if fr["i_uw"] > 0:
                    _, sol = regions.exponent_e2_solution(0.0, pair, chan)
                    fails += self._solution_failures(sol, fr["ref"], fr["cons_e2"])
                    if sol is not None and sol.coupling is not None:
                        h = ref.cond_entropy(sol.coupling.reshape(fr["ref"].shape), (2,), (1,))
                        if h < fr["floor"] - 1e-8:
                            fails.append(f"entropy floor missed by {fr['floor'] - h:.3g}")
                    e2 = sol.objective if sol is not None else math.inf
                p_suvw = fr["p_suvw"]
                d = pair.distortion
                cells = ref.marginal(p_suvw, (0, 2, 3)).reshape(d.shape[0], -1)
                out[(name, ci)] = {
                    "e1": e1.objective, "e2": e2, "fr": fr, "fails": fails,
                    "eq0": ref.cond_entropy(p_suvw, (0,), (2, 3)),
                    "dist0": float((d.T @ cells).min(axis=0).sum()),
                }
        return out

    def check(self, ctx: dict, rounds: list[dict[str, Outcome]]) -> dict:
        from htpriv import oracle

        expected = self._inner_expected(ctx)
        grid, unbound = {}, set()
        for i, (_pair, _chan, fr) in enumerate(ctx["floor"]):
            # the floor binds: the I-projection without it has H(W|V) below it
            if ref.cond_entropy(ref.ipf(fr["ref"], fr["cons_e2"]), (2,), (1,)) >= fr["floor"] - 1e-6:
                unbound.add(i)
            budget = oracle.OracleBudget(grid_resolution=self.FLOOR_GRID)
            grid[i] = oracle.grid_min_kl(fr["ref"], fr["cons_e2"],
                                         entropy_floor=((2,), (1,), fr["floor"]), budget=budget)
        for outcomes in rounds:
            for op_name, o in outcomes.items():
                if o.error is not None:
                    continue
                kind, _, rest = op_name.partition(":")
                if kind in ("theorem1", "theorem2", "kappa"):
                    name, ch, r = rest.split("/")
                    exp = expected[(name, int(ch[2:]))]
                    rate = ctx["rates"][int(r[1:])]
                    fr = exp["fr"]
                    e2 = math.inf if fr["i_uw"] <= rate or exp["e2"] is None \
                        else exp["e2"] + rate - fr["i_uw_v"]
                    kappa = min(exp["e1"], e2)
                    o.failures += exp["fails"]
                    value = o.value if kind == "kappa" else o.value.exponent
                    if not _close(value, kappa, 1e-9):
                        o.failures.append(f"exponent {value} != min(E1, E2) {kappa}")
                    if kind != "kappa":
                        want = exp["eq0"] if kind == "theorem1" else exp["dist0"]
                        if not _close(o.value.privacy0, want, 1e-9):
                            o.failures.append(f"privacy0 {o.value.privacy0} != {want}")
                        if o.value.feasible != (rate >= fr["i_wu_v"] - 1e-12):
                            o.failures.append("feasibility flag disagrees with I(W;U|V)")
                elif kind == "zero_rate":
                    pair = ctx["pairs"][rest]
                    _, p_uv, q_uv = _uv_arrays(pair)
                    cons = [((0,), p_uv.sum(axis=1)), ((1,), p_uv.sum(axis=0))]
                    p_u, p_v = Pmf(p_uv.sum(axis=1)), Pmf(p_uv.sum(axis=0))
                    q = JointPmf((("U", q_uv.shape[0]), ("V", q_uv.shape[1])), q_uv)
                    sol = regions.zero_rate_exponent_solution(p_u, p_v, q)
                    o.failures += self._solution_failures(sol, q_uv, cons)
                    if not _close(o.value, sol.objective, 0.0):
                        o.failures.append("zero_rate_exponent disagrees with its solution")
                elif kind == "floor":
                    _pair, _chan, fr = ctx["floor"][int(rest)]
                    value, sol = o.value
                    if int(rest) in unbound:
                        o.failures.append("the entropy floor of this problem does not bind")
                    o.failures += self._solution_failures(sol, fr["ref"], fr["cons_e2"])
                    if sol is None or sol.coupling is None:
                        o.failures.append("no finite solution for a feasible problem")
                        continue
                    h = ref.cond_entropy(sol.coupling, (2,), (1,))
                    if h < fr["floor"] - 1e-8:
                        o.failures.append(f"entropy floor missed by {fr['floor'] - h:.3g}")
                    if sol.objective > grid[int(rest)] + 1e-6:
                        o.failures.append(f"objective {sol.objective} above the grid oracle "
                                          f"{grid[int(rest)]}")
                    if not _close(value, sol.objective - fr["i_uw_v"], 1e-9):
                        o.failures.append("E2 != KL minimum - I(U;W|V) at rate 0")
                elif kind.startswith("support"):
                    reference, rows, cols, want = self.SUPPORT[op_name]
                    cons = [((0,), rows), ((1,), cols)]
                    o.failures += self._solution_failures(o.value, reference, cons)
                    if not _close(o.value.objective, want, 1e-9):
                        o.failures.append(f"objective {o.value.objective}, expected {want}")
                        # the named fault shows as +inf, with nothing else wrong
                        if op_name == "support_a" and o.value.objective == math.inf \
                                and len(o.failures) == 1:
                            o.known_fault = self.SUPPORT_A_FAULT
        return {}


# ---------------------------------------------------------------------------
# blocklength
# ---------------------------------------------------------------------------

class Blocklength:
    """README simulate and counterexample commands, trial runs of the three
    schemes, exact privacy audits and Monte Carlo privacy estimates."""

    phases = (Phase("typicality_trials_per_s", "trials/s", per_unit=True),
              Phase("likelihood_trials_per_s", "trials/s", per_unit=True),
              Phase("audit_s", "s"),
              Phase("mc_privacy_samples_per_s", "samples/s", per_unit=True))
    # the README commands share delta (and epsilon*) with the trial runs
    ZERO_RATE_DELTA, TIMESHARE_DELTA, TIMESHARE_EPS = 0.15, 0.2, 0.25
    SIMULATE = ["run", "--experiment", "simulate", "--param", "scheme=zero_rate",
                "--param", "n=6", "--param", f"delta={ZERO_RATE_DELTA}",
                "--param", "trials=100000", "--param", "privacy=exact"]
    COUNTEREXAMPLE = ["run", "--experiment", "counterexample",
                      "--param", f"epsilon_star={TIMESHARE_EPS}", "--param", "n_list=2,4,6",
                      "--param", f"delta={TIMESHARE_DELTA}"]
    # statistical checks (3 sigma, 4 standard errors) use fixed simulation
    # seeds, so their verdict cannot change with --seed; the seed drives the
    # likelihood scheme's codebook and trials, whose check is exact
    TYPICALITY_SEED, MC_SEED = 13, 5
    TYPICALITY_N, TYPICALITY_TRIALS = 16, 100_000
    LIKELIHOOD_N, LIKELIHOOD_TRIALS = 8, 600
    PARITY_EQ_N, PARITY_DIST_N, MC_PARITY_N, MC_SAMPLES = (3, 4, 5, 6), (3, 4, 5), 5, 2000

    def setup(self, seed: int) -> dict:
        ex2 = instances.example2_pair()
        parity = {n: adversary.message_map_model(4, n, lambda s: tuple(x % 2 for x in s))
                  for n in sorted(set(self.PARITY_EQ_N) | {self.MC_PARITY_N})}
        lik_cfg = schemes.SchemeConfig(scheme="likelihood", delta=0.3, eta=0.05, rate_nats=1.0,
                                       w_channel=Channel([[0.9, 0.1], [0.1, 0.9]]))
        return {
            "seed": seed, "ex2": ex2, "parity": parity,
            "zr": instances.load_instance(_instance("zero_rate_binary.json")),
            "ce": instances.load_instance(_instance("counterexample_binary.json")),
            "ex1": instances.example1_pair(0.2, 0.0), "lik_cfg": lik_cfg,
            "zr_cfg": schemes.SchemeConfig(scheme="zero_rate", delta=self.ZERO_RATE_DELTA),
            "ts_cfg": schemes.SchemeConfig(scheme="timeshare", delta=self.TIMESHARE_DELTA,
                                           epsilon_star=self.TIMESHARE_EPS),
            "models": {},
        }

    def ops(self, ctx: dict) -> list[Op]:
        out_csv = os.path.join(OUT_DIR, f"blocklength-{os.getpid()}.csv")
        seed, n_t, trials = ctx["seed"], self.TYPICALITY_N, self.TYPICALITY_TRIALS
        ex2, models = ctx["ex2"], ctx["models"]

        def likelihood_law():
            models["likelihood"] = adversary.scheme_model_for(
                ctx["lik_cfg"], ctx["ex1"], self.LIKELIHOOD_N, seed)
            return models["likelihood"]

        ops = [
            Op("simulate", "audit_s", lambda: _run_cli(
                self.SIMULATE + ["--instance", _instance("zero_rate_binary.json")], out_csv)),
            Op("counterexample", "audit_s", lambda: _run_cli(
                self.COUNTEREXAMPLE + ["--instance", _instance("counterexample_binary.json")],
                out_csv)),
            Op("trials:zero_rate", "typicality_trials_per_s", lambda: schemes.run_trials(
                ctx["zr_cfg"], ctx["zr"], n_t, trials, self.TYPICALITY_SEED), units=2 * trials),
            Op("trials:timeshare", "typicality_trials_per_s", lambda: schemes.run_trials(
                ctx["ts_cfg"], ctx["ce"], n_t, trials, self.TYPICALITY_SEED), units=2 * trials),
            Op("trials:likelihood", "likelihood_trials_per_s", lambda: schemes.run_trials(
                ctx["lik_cfg"], ctx["ex1"], self.LIKELIHOOD_N, self.LIKELIHOOD_TRIALS, seed),
               units=2 * self.LIKELIHOOD_TRIALS),
        ]
        for n in self.PARITY_EQ_N:
            ops.append(Op(f"parity_eq:{n}", "audit_s", lambda n=n: adversary.exact_equivocation(
                ctx["parity"][n], ex2, n, 0)))
        for n in self.PARITY_DIST_N:
            ops.append(Op(f"parity_dist:{n}", "audit_s",
                          lambda n=n: adversary.exact_causal_distortion(ctx["parity"][n], ex2, n, 0)))
        ops += [
            Op("likelihood_law", "audit_s", likelihood_law),
            Op("likelihood_eq", "audit_s", lambda: adversary.exact_equivocation(
                models["likelihood"], ctx["ex1"], self.LIKELIHOOD_N, 0)),
            Op("mc:parity", "mc_privacy_samples_per_s", lambda: adversary.mc_privacy_estimate(
                ctx["parity"][self.MC_PARITY_N], ex2, self.MC_PARITY_N, 0, self.MC_SAMPLES,
                self.MC_SEED), units=self.MC_SAMPLES),
            Op("mc:likelihood", "mc_privacy_samples_per_s", lambda: adversary.mc_privacy_estimate(
                models["likelihood"], ctx["ex1"], self.LIKELIHOOD_N, 0, self.MC_SAMPLES,
                self.MC_SEED), units=self.MC_SAMPLES),
        ]
        return ops

    def _typicality_exact(self, pair, scheme: str, n: int) -> tuple[float, float]:
        """Exact (alpha, beta) of the zero-rate or timeshare detector by
        summing over the joint types of (u^n, v^n)."""
        _, p_uv, q_uv = _uv_arrays(pair)
        p_u, p_v = p_uv.sum(axis=1), p_uv.sum(axis=0)

        def accept(counts):
            if scheme == "zero_rate":
                d = self.ZERO_RATE_DELTA
                return float(np.abs(counts.sum(axis=1) / n - p_u).max() <= d + 1e-15
                             and np.abs(counts.sum(axis=0) / n - p_v).max() <= d + 1e-15)
            d = self.TIMESHARE_DELTA
            ok = (np.abs(counts.sum(axis=1) / n - p_u).max() <= d + 1e-15
                  and np.abs(counts / n - p_uv).max() <= 2 * d + 1e-15)
            return (1.0 - self.TIMESHARE_EPS) * float(ok)

        return ref.joint_type_errors(p_uv, q_uv, n, accept)

    def check(self, ctx: dict, rounds: list[dict[str, Outcome]]) -> dict:
        from htpriv import oracle

        ex2 = ctx["ex2"]
        a2 = _uv_arrays(ex2)[0]
        d2 = ex2.distortion
        p_sy = a2.sum(axis=1)
        h_s_y = ref.cond_entropy(p_sy, (0,), (1,))
        dist_s_y = float((d2.T @ p_sy).min(axis=0).sum())
        exact_typ = {s: self._typicality_exact(ctx["zr" if s == "zero_rate" else "ce"], s,
                                               self.TYPICALITY_N)
                     for s in ("zero_rate", "timeshare")}

        # simulate: zero-rate law at n=6 under both hypotheses, by enumeration
        zr = ctx["zr"]
        _, zr_puv, zr_quv = _uv_arrays(zr)
        zr_law = ref.zero_rate_law(zr_puv.sum(axis=1), 6, self.ZERO_RATE_DELTA)
        zr_alpha, zr_beta = self._typicality_exact(zr, "zero_rate", 6)
        sim_priv = {}
        for hyp, law_arr in ((0, zr.p.probs), (1, zr.q.probs)):
            letter = law_arr.reshape(2, 2, -1)
            t = ref.block_message_table(letter, zr_law, 6)
            sim_priv[hyp] = (ref.equivocation(t) / 6 / ref.LN2,
                             ref.causal_distortion(t, zr.distortion, 2, 6) / 6)

        # counterexample: equivocation by enumeration, alpha from the oracle
        ce = ctx["ce"]
        a_ce = _uv_arrays(ce)[0]
        ce_p_uv = a_ce.sum(axis=0)
        delta, eps = self.TIMESHARE_DELTA, self.TIMESHARE_EPS
        h_suv = ref.cond_entropy(a_ce, (0,), (1, 2))
        h_sv = ref.cond_entropy(a_ce, (0,), (2,))
        ce_expect = {}
        for n in (2, 4, 6):
            law = ref.timeshare_law(ce_p_uv.sum(axis=1), n, delta, eps)
            eq = ref.equivocation(ref.block_message_table(a_ce, law, n)) / n / ref.LN2
            model = adversary.quantize_timeshare_model(Pmf(ce_p_uv.sum(axis=1)), n, delta, eps)
            ublocks = ref.all_blocks(2, n)

            def accepts(label, vblock, n=n, ublocks=ublocks):
                if label == "error":
                    return False
                counts = np.zeros((2, 2))
                np.add.at(counts, (ublocks[label[1]], np.asarray(vblock)), 1.0)
                return bool(np.abs(counts / n - ce_p_uv).max() <= 2 * delta + 1e-15)

            alpha, _ = oracle.exact_error_probabilities(model, accepts, ce, n)
            ce_expect[n] = (alpha, eq)

        lik_seen = set()
        for outcomes in rounds:
            for op_name, o in outcomes.items():
                if o.error is not None:
                    continue
                if op_name in ("likelihood_eq", "mc:likelihood") and outcomes["likelihood_law"].error:
                    o.failures.append("no likelihood message law to check against")
                    continue
                kind, _, rest = op_name.partition(":")
                if kind == "simulate":
                    self._check_simulate(o, zr_alpha, zr_beta, sim_priv)
                elif kind == "counterexample":
                    self._check_counterexample(o, ce_expect, h_suv, h_sv)
                elif kind == "trials" and rest in exact_typ:
                    alpha, beta = exact_typ[rest]
                    st = o.value
                    for label, est, exact in (("alpha", st.alpha_hat, alpha), ("beta", st.beta_hat, beta)):
                        if not ref.within_sigmas(est, exact, st.trials):
                            o.failures.append(f"{label} {est} is beyond 3 sigma of exact {exact}")
                elif kind == "trials":
                    lik_seen.add((o.value.type1_errors, o.value.type2_errors))
                elif kind == "parity_eq":
                    n = int(rest)
                    if not _close(o.value, n * h_s_y, 1e-9):
                        o.failures.append(f"equivocation {o.value} != n H(S|Y) {n * h_s_y}")
                elif kind == "parity_dist":
                    n = int(rest)
                    if not _close(o.value, n * dist_s_y, 1e-9):
                        o.failures.append(f"distortion {o.value} != n min E d {n * dist_s_y}")
                elif kind == "likelihood_eq":
                    law = outcomes["likelihood_law"].value.law
                    t = ref.block_message_table(_uv_arrays(ctx["ex1"])[0], law, self.LIKELIHOOD_N)
                    want = ref.equivocation(t)
                    if not _close(o.value, want, 1e-9):
                        o.failures.append(f"equivocation {o.value} != enumeration {want}")
                elif kind == "mc":
                    o.failures += self._check_mc(ctx, outcomes, rest, h_s_y, dist_s_y)
        # every distinct count of the run: steady.py compares runs of one seed
        return {"likelihood_errors": (" ".join(f"{a}/{b}" for a, b in sorted(lik_seen)), "")}

    @staticmethod
    def _check_simulate(o: Outcome, alpha: float, beta: float, priv: dict) -> None:
        rc, text = o.value
        if rc != 0:
            o.failures.append(f"cli exit status {rc}")
            return
        header, rows = _csv_rows(text)
        rec = dict(zip(header, zip(*rows)))
        trials = int(rec["trials"][0])
        for label, est, exact in (("alpha", float(rec["alpha_hat"][0]), alpha),
                                  ("beta", float(rec["beta_hat"][0]), beta)):
            if not ref.within_sigmas(est, exact, trials):
                o.failures.append(f"simulate {label} {est} is beyond 3 sigma of exact {exact}")
        for i, hyp in ((1, 0), (2, 1)):
            eq, dist = float(rec["equivocation_bits_per_letter"][i]), float(rec["distortion_per_letter"][i])
            want_eq, want_dist = priv[hyp]
            if abs(eq - want_eq) > 1e-9 or abs(dist - want_dist) > 1e-9:
                o.failures.append(f"simulate privacy (h{hyp}) {eq}, {dist} != "
                                  f"enumeration {want_eq}, {want_dist}")

    @staticmethod
    def _check_counterexample(o: Outcome, expect: dict, h_suv: float, h_sv: float) -> None:
        rc, text = o.value
        if rc != 0:
            o.failures.append(f"cli exit status {rc}")
            return
        _, rows = _csv_rows(text)
        if [int(r[0]) for r in rows] != sorted(expect):
            o.failures.append("counterexample rows do not cover n_list")
            return
        for r in rows:
            n, alpha, eq, weak, none = int(r[0]), *(float(x) for x in r[1:])
            want_alpha, want_eq = expect[n]
            if abs(alpha - want_alpha) > 1e-9:
                o.failures.append(f"n={n}: alpha {alpha} != oracle {want_alpha}")
            if abs(eq - want_eq) > 1e-9:
                o.failures.append(f"n={n}: equivocation {eq} != enumeration {want_eq}")
            if not h_suv / ref.LN2 - 1e-12 <= eq <= h_sv / ref.LN2 + 1e-12:
                o.failures.append(f"n={n}: equivocation {eq} outside [H(S|U,V), H(S|V)]")
            if abs(weak - h_suv / ref.LN2) > 1e-9 or abs(none - h_sv / ref.LN2) > 1e-9:
                o.failures.append(f"n={n}: reference levels differ from H(S|U,V), H(S|V)")

    def _check_mc(self, ctx, outcomes, which: str, h_s_y: float, dist_s_y: float) -> list[str]:
        rep = outcomes[f"mc:{which}"].value
        if which == "parity":
            want_eq, want_dist = h_s_y, dist_s_y
        else:
            n = self.LIKELIHOOD_N
            t = ref.block_message_table(_uv_arrays(ctx["ex1"])[0],
                                        outcomes["likelihood_law"].value.law, n)
            want_eq = ref.equivocation(t) / n
            want_dist = ref.causal_distortion(t, ctx["ex1"].distortion, 2, n) / n
        fails = []
        if rep.biased:
            fails.append("estimate flagged as biased")
        for label, est, se, want in (
                ("equivocation", rep.equivocation_per_letter, rep.equivocation_stderr, want_eq),
                ("distortion", rep.causal_distortion_per_letter, rep.distortion_stderr, want_dist)):
            if est is None or abs(est - want) > 4 * se + 1e-12:
                fails.append(f"MC {label} {est} (se {se}) is beyond 4 se of exact {want}")
        return fails


WORKLOADS = {"frontier": Frontier, "coupling": Coupling, "blocklength": Blocklength}
