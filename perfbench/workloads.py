"""The four workloads: their inputs, the timed work of one pass, and the checks
on that pass's outputs.

Inputs come from a fixed suite: scenario j of a workload is generated from
scenario seed ``suite_base + j`` and its channel gains are then scaled by
``exp(GAIN_JITTER * z)``, z standard normal drawn from ``--seed``. Fully
re-drawn scenarios would make the cost of a pass vary two- to four-fold from
seed to seed (iteration counts follow the draw), which no run of a few tens of
seconds averages out; a 0.1% re-measurement of the same channels changes every
output digit but keeps the work nearly constant.

``work`` is the only timed (and traced) part of a pass; ``check`` runs after
it, untimed, and turns the raw outputs into a ``PassResult``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import uplinkgame as ug
import uplinkgame.cli  # noqa: F401  (binds ug.cli)
from uplinkgame import trace as ug_trace

GAIN_JITTER = 1e-3
EPS_EQ = ug.JaspaConfig().eps_eq
JOINT = ("jaspa", "se_jaspa", "si_jaspa", "j_jaspa")


@dataclass
class Op:
    """One timed call into the package; ``error`` is set when it raised."""

    label: str
    value: object
    error: str | None
    seconds: float


@dataclass
class PassResult:
    wall_s: float = 0.0
    solve_s: list = field(default_factory=list)  # one entry per top-level solve
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # failed operations
    errors: list = field(default_factory=list)  # failed correctness checks
    profiles: int = 0  # association profiles solved to a power equilibrium
    ratios: list = field(default_factory=list)  # sum rate / throughput reference
    counts: dict = field(default_factory=dict)  # deterministic per-pass counts
    digest: str = ""

    def attempt(self, label: str, ok: bool, why: str = "", count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures.append(f"{label}: {why}")


def suite_scenario(n: int, w: int, k: int, scenario_seed: int, seed: int):
    sc = ug.generate_scenario(
        ug.ScenarioGenParams(num_mus=n, num_aps=w, num_channels=k, seed=scenario_seed)
    )
    rng = np.random.default_rng([seed, scenario_seed])
    gains = sc.gain_sq * np.exp(GAIN_JITTER * rng.standard_normal(sc.gain_sq.shape))
    return dataclasses.replace(sc, gain_sq=gains)


def potential_error(scenario, table: dict, association, powers, eps: float = EPS_EQ):
    """None when the profile's association is in the exhaustive table and its
    potential is within ``eps`` of the table's equilibrium potential."""
    key = tuple(int(a) for a in association)
    rec = table.get(key)
    if rec is None:
        return f"association {key} missing from the exhaustive table"
    gap = abs(ug.system_potential(scenario, np.asarray(key), powers) - rec.potential)
    if not gap <= eps:
        return f"association {key}: potential off the table's by {gap:.3g} (> {eps:g})"
    return None


def coalition_stats(associations, num_aps: int) -> dict:
    """Coalition-memory traffic of one j_jaspa run, replayed from the
    associations of its recorded iterations: every iteration stores the
    coalition of each AP (empty ones too), then looks up the coalitions of the
    next association's occupied APs."""
    seen = set()
    updates = lookups = hits = 0
    for now, nxt in zip(associations[:-1], associations[1:]):
        for ap in range(num_aps):
            seen.add((ap, tuple(i for i, a in enumerate(now) if a == ap)))
            updates += 1
        for ap in range(num_aps):
            members = tuple(i for i, a in enumerate(nxt) if a == ap)
            if members:
                lookups += 1
                hits += (ap, members) in seen
    return {"updates": updates, "lookups": lookups, "hits": hits, "entries": len(seen)}


def _digest(parts) -> str:
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


def _summary_fields(summary: dict) -> dict:
    """Summary JSON without the fields that name paths or measure time."""
    return {k: v for k, v in summary.items() if k not in ("scenario", "trace", "wall_time_s")}


def _trace_errors(rows, trace_path: Path, summary: dict) -> list:
    """Read-back checks shared by the CLI workloads."""
    errors = []
    lines = trace_path.read_bytes().count(b"\n") - 1
    if len(rows) != lines:
        errors.append(f"read_trace returned {len(rows)} rows, file has {lines}")
    if not rows or rows[-1].inner_iter != -1 or rows[-1].sum_rate != summary["final_sum_rate"]:
        errors.append("last trace row does not carry the summary's final sum rate")
    return errors


class Workload:
    name = ""
    sizes: dict = {}  # "full" / "smoke" -> (N, W, K, scenario count)
    suite_base = 0  # default first scenario seed

    def __init__(self, outdir: Path, seed: int, suite_base=None, smoke: bool = False):
        self.outdir = Path(outdir)
        self.seed = seed
        if suite_base is not None:
            self.suite_base = suite_base
        self.n, self.w, self.k, self.count = self.sizes["smoke" if smoke else "full"]
        self.paths: list[Path] = []
        self.clock = time.perf_counter  # the runner swaps in a sampler's clock
        self._bound = None

    def op(self, label: str, fn, *args, **kwargs) -> Op:
        start = self.clock()
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            return Op(label, None, f"{type(exc).__name__}: {exc}", self.clock() - start)
        return Op(label, value, None, self.clock() - start)

    def cli(self, label: str, argv: list[str]) -> Op:
        """In-process CLI call; value is (exit code, captured output)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            op = self.op(label, lambda: ug.cli.main(argv))
        if op.error is None:
            op.value = (op.value, out.getvalue())
        return op

    @property
    def scenario_seeds(self) -> list[int]:
        return [self.suite_base + j for j in range(self.count)]

    def setup(self) -> None:
        """Generate, perturb and save the suite scenarios."""
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for j, s in enumerate(self.scenario_seeds):
            path = self.outdir / f"{self.name}{j}.scn"
            ug.save_scenario(suite_scenario(self.n, self.w, self.k, s, self.seed), path)
            self.paths.append(path)

    def bound(self) -> float:
        """Pooled-AP capacity bound of the first scenario, the throughput
        reference where T* is out of reach; computed once, untimed."""
        if self._bound is None:
            self._bound = ug.virtual_ap_bound(ug.load_scenario(self.paths[0])).capacity_bound
        return self._bound

    def work(self):
        raise NotImplementedError

    def check(self, raw) -> PassResult:
        raise NotImplementedError


class DeskSweep(Workload):
    """The compare-default Monte-Carlo comparison: per scenario, exhaustive
    search, closest AP then a_iwf, and the four joint dynamics."""

    name = "desk_sweep"
    sizes = {"full": (8, 2, 16, 6), "smoke": (4, 2, 8, 1)}

    def work(self):
        out = []
        for path, s in zip(self.paths, self.scenario_seeds):
            sc = ug.load_scenario(path)
            ops = {"exhaustive": self.op("exhaustive", ug.exhaustive_search, sc)}
            assoc = ug.closest_ap(sc)
            ops["closest_ap"] = self.op("closest_ap", ug.a_iwf, sc, assoc)
            for algo in JOINT:
                config = ug.JaspaConfig(memory_len=self.n, seed=s)
                ops[algo] = self.op(algo, getattr(ug, algo), sc, config)
            out.append((s, sc, ops))
        return out

    def check(self, raw) -> PassResult:
        res = PassResult()
        outer = {algo: [] for algo in JOINT}
        coal = {"updates": 0, "lookups": 0, "hits": 0, "entries_max": 0}
        gate_accepts = 0
        parts = []
        for s, sc, ops in raw:
            label = f"scenario {s}"
            ex = ops["exhaustive"]
            rows = sc.num_aps**sc.num_mus
            if ex.error:
                res.attempt(f"{label} exhaustive", False, ex.error, rows)
                table, tstar = {}, None
            else:
                for rec in ex.value.table:
                    res.attempt(f"{label} profile {rec.association}", rec.converged, "not converged")
                table = {rec.association: rec for rec in ex.value.table}
                tstar = ex.value.best_sum_rate
                res.profiles += len(ex.value.table)
                parts.append([s, "exhaustive", ex.value.best_association, repr(tstar),
                              ex.value.max_potential_association])
            cl = ops["closest_ap"]
            res.attempt(f"{label} closest_ap", cl.error is None and cl.value.converged,
                        cl.error or "a_iwf not converged")
            if cl.error is None:
                res.profiles += 1
                parts.append([s, "closest_ap", cl.value.iterations, repr(float(cl.value.trace.sum_rate[-1]))])
            for algo in JOINT:
                op = ops[algo]
                res.solve_s.append(op.seconds)
                if op.error:
                    res.attempt(f"{label} {algo}", False, op.error)
                    continue
                run = op.value
                ok = run.converged and run.jep_report.is_equilibrium
                why = "not converged" if not run.converged else "final profile fails verify_jep"
                res.attempt(f"{label} {algo}", ok, why)
                outer[algo].append(run.outer_iterations)
                total = ug.sum_rate(sc, run.association, run.powers)
                if run.converged and table:
                    err = potential_error(sc, table, run.association, run.powers)
                    if err:
                        res.errors.append(f"{label} {algo}: {err}")
                if tstar:
                    res.ratios.append(total / tstar)
                if algo == "jaspa":
                    res.profiles += run.outer_iterations - 1
                if algo in ("jaspa", "si_jaspa"):
                    gate_accepts += run.converged
                if algo == "j_jaspa":
                    st = coalition_stats([rec.association for rec in run.detail], sc.num_aps)
                    for key in ("updates", "lookups", "hits"):
                        coal[key] += st[key]
                    coal["entries_max"] = max(coal["entries_max"], st["entries"])
                parts.append([s, algo, [int(a) for a in run.association], run.outer_iterations,
                              bool(run.converged), repr(total)])
        res.counts = {
            **{f"{algo}.outer_iters_p50": statistics.median(v) if v else 0 for algo, v in outer.items()},
            "gate_accepts": gate_accepts,
            **{f"coalition_{k}": v for k, v in coal.items()},
        }
        res.digest = _digest([parts, res.counts])
        return res


class PaperRun(Workload):
    """CLI ``run --algo jaspa`` with the default a_iwf inner solver."""

    name = "paper_run"
    sizes = {"full": (16, 4, 48, 1), "smoke": (4, 2, 8, 1)}
    # Scenario 1 takes about 12 s; scenarios 0 and 2 take 27 and 29 s, too
    # long for two passes in one run.
    suite_base = 1

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trace_path = self.outdir / "paper.trace.csv"
        self.summary_path = self.outdir / "paper.summary.json"

    def work(self):
        argv = ["run", "--algo", "jaspa", "--scenario", str(self.paths[0]), "--m", str(self.n),
                "--seed", str(self.suite_base), "--out-trace", str(self.trace_path),
                "--out-summary", str(self.summary_path)]
        return self.cli("cli run jaspa", argv)

    def check(self, op) -> PassResult:
        res = PassResult(solve_s=[op.seconds])
        code = op.value[0] if op.error is None else None
        if op.error or code != 0:
            res.attempt(op.label, False, op.error or f"exit code {code}: {op.value[1].strip()}")
            res.digest = _digest(["failed"])
            return res
        summary = json.loads(self.summary_path.read_text())
        ok = summary["converged"] and summary["jep"]["is_equilibrium"]
        res.attempt(op.label, ok, "not converged" if not summary["converged"]
                    else "final profile fails verify_jep")
        rows = ug_trace.read_trace(self.trace_path)
        res.errors += _trace_errors(rows, self.trace_path, summary)
        outer_rows = sum(1 for r in rows if r.inner_iter == -1)
        if outer_rows != summary["outer_iterations"] - 1:
            res.errors.append(f"{outer_rows} outer trace rows for "
                              f"{summary['outer_iterations']} outer iterations")
        res.profiles = summary["outer_iterations"] - 1
        res.ratios = [summary["final_sum_rate"] / self.bound()]
        res.counts = {"jaspa.outer_iters_p50": summary["outer_iterations"],
                      "gate_accepts": int(summary["converged"]), "trace_rows": len(rows)}
        trace_sha = hashlib.sha256(self.trace_path.read_bytes()).hexdigest()
        res.digest = _digest([_summary_fields(summary), trace_sha, res.counts])
        return res


class LargeCertify(Workload):
    """CLI ``generate`` at scale, then ``run --algo s_iwf --assoc closest``,
    whose summary carries a verify_jep verdict on the closest-AP profile."""

    name = "large_certify"
    sizes = {"full": (200, 10, 256, 1), "smoke": (12, 3, 24, 1)}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gen_path = self.outdir / "generated.scn"
        self.trace_path = self.outdir / "large.trace.csv"
        self.summary_path = self.outdir / "large.summary.json"

    def work(self):
        gen = self.cli("cli generate", [
            "generate", "--n", str(self.n), "--w", str(self.w), "--k", str(self.k),
            "--seed", str(self.suite_base), "--out", str(self.gen_path)])
        run = self.cli("cli run s_iwf", [
            "run", "--algo", "s_iwf", "--assoc", "closest", "--scenario", str(self.paths[0]),
            "--seed", str(self.suite_base), "--out-trace", str(self.trace_path),
            "--out-summary", str(self.summary_path)])
        return gen, run

    def check(self, raw) -> PassResult:
        gen, run = raw
        res = PassResult(solve_s=[run.seconds])
        parts = []
        for op in (gen, run):
            code = op.value[0] if op.error is None else None
            if op.error or code != 0:
                res.attempt(op.label, False, op.error or f"exit code {code}: {op.value[1].strip()}")
        if gen.error is None and gen.value[0] == 0:
            res.attempt(gen.label, True)
            sha = hashlib.sha256(self.gen_path.read_bytes()).hexdigest()
            if f"sha256={sha}" not in gen.value[1]:
                res.errors.append("generate printed a digest that does not match its file")
            parts.append(sha)
        if run.error is None and run.value[0] == 0:
            summary = json.loads(self.summary_path.read_text())
            res.attempt(run.label, summary["converged"], "s_iwf not converged")
            rows = ug_trace.read_trace(self.trace_path)
            res.errors += _trace_errors(rows, self.trace_path, summary)
            if len(rows) != summary["inner_iterations"] + 2:
                res.errors.append(f"{len(rows)} trace rows for {summary['inner_iterations']} rounds")
            res.profiles = 1
            res.ratios = [summary["final_sum_rate"] / self.bound()]
            res.counts = {"s_iwf_rounds": summary["inner_iterations"], "trace_rows": len(rows),
                          "closest_is_jep": bool(summary["jep"]["is_equilibrium"])}
            parts += [_summary_fields(summary),
                      hashlib.sha256(self.trace_path.read_bytes()).hexdigest()]
        res.digest = _digest([parts, res.counts])
        return res


class GroundTruthW3(Workload):
    """Exhaustive search at W=3, the pooled-AP bound, and verify_jep on the
    max-potential witness."""

    name = "ground_truth_w3"
    sizes = {"full": (7, 3, 12, 3), "smoke": (4, 3, 6, 1)}

    def work(self):
        out = []
        for path, s in zip(self.paths, self.scenario_seeds):
            sc = ug.load_scenario(path)
            ops = {"exhaustive": self.op("exhaustive", ug.exhaustive_search, sc)}
            ops["virtual_bound"] = self.op("virtual_bound", ug.virtual_ap_bound, sc)
            if ops["exhaustive"].error is None:
                witness = np.asarray(ops["exhaustive"].value.max_potential_association)
                ops["witness"] = self.op("witness", ug.InnerConfig().run, sc, witness)
                if ops["witness"].error is None:
                    ops["verify"] = self.op("verify_jep", ug.verify_jep, sc, witness,
                                           ops["witness"].value.powers)
            out.append((s, sc, ops))
        return out

    def check(self, raw) -> PassResult:
        res = PassResult()
        parts = []
        for s, sc, ops in raw:
            label = f"scenario {s}"
            ex = ops["exhaustive"]
            res.solve_s.append(ex.seconds)
            if ex.error:
                res.attempt(f"{label} exhaustive", False, ex.error, sc.num_aps**sc.num_mus)
                continue
            for rec in ex.value.table:
                res.attempt(f"{label} profile {rec.association}", rec.converged, "not converged")
            res.profiles += len(ex.value.table)
            tstar = ex.value.best_sum_rate
            parts.append([s, [(r.association, repr(r.sum_rate), repr(r.potential)) for r in ex.value.table]])
            vb = ops["virtual_bound"]
            res.attempt(f"{label} virtual_bound", vb.error is None and vb.value.converged,
                        vb.error or "not converged")
            if vb.error is None:
                res.profiles += 1
                if not tstar <= vb.value.capacity_bound + 1e-9:
                    res.errors.append(f"{label}: T*={tstar!r} above the pooled bound "
                                      f"{vb.value.capacity_bound!r}")
                parts.append([s, repr(vb.value.capacity_bound)])
            wit, ver = ops.get("witness"), ops.get("verify")
            if wit is None or wit.error or ver is None or ver.error:
                res.attempt(f"{label} witness", False, (wit and wit.error) or (ver and ver.error))
                continue
            res.profiles += 1
            res.attempt(f"{label} witness", ver.value.is_equilibrium,
                        "max-potential witness is not a joint equilibrium")
            potential = float(wit.value.trace.potential[-1])
            if not abs(potential - ex.value.max_potential) <= EPS_EQ:
                res.errors.append(f"{label}: witness potential {potential!r} differs from the "
                                  f"table's {ex.value.max_potential!r}")
            res.ratios.append(float(wit.value.trace.sum_rate[-1]) / tstar)
            parts.append([s, bool(ver.value.is_equilibrium), repr(potential)])
        res.digest = _digest(parts)
        return res


WORKLOADS = {cls.name: cls for cls in (DeskSweep, PaperRun, LargeCertify, GroundTruthW3)}
