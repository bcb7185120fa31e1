"""The three benchmark workloads: oc-ladder, slopes-cli and cert-verify.

Each workload turns its seed into one fixed list of operations, a round,
and runs whole rounds closed-loop: one operation in flight at a time, so
at most one child process. The same seed gives the same round. Every
output is checked by oracles.py, which shares no code with slopewalk.

slopewalk is imported only by load_slopewalk(), so that set-up can time
the imports. Calls into slopewalk go through module attributes (never
names bound here), so the traced run's patches are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

import oracles
from oracles import CheckFailed

CHILD_TIMEOUT_S = 120
SETUP_PROBES = 9  # in-process workloads: set-ups timed per run, in child processes


def load_slopewalk(root: Path) -> types.SimpleNamespace:
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import slopewalk.cache
    import slopewalk.cli
    import slopewalk.overconvergent
    import slopewalk.pingpong
    import slopewalk.serialize

    return types.SimpleNamespace(
        cache=slopewalk.cache,
        cli=slopewalk.cli,
        overconvergent=slopewalk.overconvergent,
        pingpong=slopewalk.pingpong,
        serialize=slopewalk.serialize,
    )


def child_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("SLOPEWALK_CACHE_DIR", None)
    return env


def run_child(root: Path, args: list[str]) -> subprocess.CompletedProcess:
    """One child Python process, waited for (killed and reaped on timeout)."""
    return subprocess.run(
        [sys.executable, *args], cwd=root, env=child_env(root),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )


class Workload:
    """One round of operations, run in this process unless a subclass says
    otherwise. Subclasses define generate() and execute()."""

    name = ""
    tail_percentile = 50.0
    min_samples = 1  # the tail percentile keeps at least ten samples beyond it
    tail_per_round = False  # latency_tail_ms: the run's percentile, or the mean of each round's

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.errors: list[str] = []
        self.sw = load_slopewalk(root)
        self.ops = self.generate(seed)

    @classmethod
    def generate(cls, seed: int) -> list:
        raise NotImplementedError

    def execute(self, op) -> tuple[float, bool]:
        """Run one operation; (latency in s, whether it failed)."""
        raise NotImplementedError

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except (CheckFailed, KeyError, IndexError, TypeError, ValueError) as exc:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def setup_times(self) -> list[float]:
        """Imports plus input generation, timed in fresh child processes."""
        times = []
        for _ in range(SETUP_PROBES):
            proc = run_child(self.root, [str(Path(__file__).with_name("run.py")), "--probe-setup",
                                         "--workload", self.name, "--seed", str(self.seed)])
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
            times.append(float(proc.stdout.split()[-1]))
        return times

    def round_inprocess(self) -> tuple[float, int, int, int]:
        """One round in this process: (time, attempted, failed, CLI processes
        it stands for)."""
        total, failed = 0.0, 0
        for op in self.ops:
            latency, op_failed = self.execute(op)
            total += latency
            failed += op_failed
        return total, len(self.ops), failed, 0

    def trace_extras(self) -> dict[str, float]:
        """Start-up cost of one CLI process, which slopes-cli's in-process
        rounds skip: a bare interpreter, and importing slopewalk.cli on top."""
        bare, full = [], []
        for _ in range(5):
            t0 = perf_counter()
            run_child(self.root, ["-c", "pass"])
            bare.append(perf_counter() - t0)
            t0 = perf_counter()
            run_child(self.root, ["-c", "import slopewalk.cli"])
            full.append(perf_counter() - t0)
        bare.sort()
        full.sort()
        return {"cli.interpreter_s": bare[2], "cli.import_s": full[2] - bare[2]}

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class OcLadder(Workload):
    """u2_matrix_weight0(N, 2N+8) then oc_slopes, for each N of one
    contiguous range in seeded order. Five sizes put p50 and p90 at the
    middle of a size's cluster of latencies, never between two."""

    name = "oc-ladder"
    tail_percentile = 90.0
    min_samples = 100
    SIZES = range(30, 35)

    @classmethod
    def generate(cls, seed: int) -> list:
        sizes = list(cls.SIZES)
        random.Random(f"oc-ladder:{seed}").shuffle(sizes)
        return sizes

    def execute(self, n: int) -> tuple[float, bool]:
        ov = self.sw.overconvergent
        t0 = perf_counter()
        try:
            report = ov.oc_slopes(ov.u2_matrix_weight0(n, 2 * n + 8))
        except Exception:
            return perf_counter() - t0, True
        latency = perf_counter() - t0
        self.check(oracles.check_oc_slopes, n, report.slopes, report.zero_root_multiplicity)
        return latency, False


class CertVerify(Workload):
    """connect, json_dumps_stable, json.loads and verify_certificate_json
    on seeded pairs; a third of them get one numeric field mutated and must
    be rejected. Six malformed documents, the same for every seed, end each
    round: verify_certificate_json raises AttributeError on each of them,
    so each round fails exactly six operations."""

    name = "cert-verify"
    tail_percentile = 99.0
    min_samples = 1000
    VALID, MUTANT = 48, 24
    MAX_INDEX = 64
    DELTAS = (-3, -2, -1, 1, 2, 3)
    MALFORMED = ("[]", '"x"', "null", "5", "slope-not-string", "assumption-not-object")

    @classmethod
    def generate(cls, seed: int) -> list:
        rng = random.Random(f"cert-verify:{seed}")
        ops = []
        while len(ops) < cls.VALID + cls.MUTANT:
            i, j = rng.randint(1, cls.MAX_INDEX), rng.randint(1, cls.MAX_INDEX)
            if i == j:
                continue  # a one-move walk is a different, much cheaper operation
            if len(ops) < cls.VALID:
                ops.append(("valid", i, j))
            else:
                ops.append(("mutant", i, j, rng.randrange(1 << 30), rng.choice(cls.DELTAS)))
        rng.shuffle(ops)
        return ops + [("malformed", kind) for kind in cls.MALFORMED]

    def _certificate(self, i: int, j: int) -> dict:
        pp, ser = self.sw.pingpong, self.sw.serialize
        return json.loads(ser.json_dumps_stable(pp.connect(i, j).to_json_obj()))

    def _malformed(self, kind: str):
        if kind == "slope-not-string":
            doc = self._certificate(3, 5)
            doc["moves"][0]["from"]["slope"] = 6
            return doc
        if kind == "assumption-not-object":
            doc = self._certificate(3, 5)
            doc["assumptions"][0] = "x"
            return doc
        return json.loads(kind)

    @staticmethod
    def mutate(doc: dict, pick: int, delta: int) -> None:
        """Change one numeric field: an endpoint, or a k, m, slope
        numerator or slope denominator of a move's point."""
        fields = [("endpoints", 0), ("endpoints", 1)] + [
            (t, side, name)
            for t in range(len(doc["moves"]))
            for side in ("from", "to")
            for name in ("k", "m", "num", "den")
        ]
        field = fields[pick % len(fields)]
        if field[0] == "endpoints":
            doc["endpoints"][field[1]] += delta
            return
        t, side, name = field
        point = doc["moves"][t][side]
        if name in ("k", "m"):
            point[name] += delta
            return
        num, den = (int(x) for x in point["slope"].split("/"))
        point["slope"] = f"{num + delta}/{den}" if name == "num" else f"{num}/{den + delta}"

    def execute(self, op) -> tuple[float, bool]:
        pp = self.sw.pingpong
        kind = op[0]
        t0 = perf_counter()
        try:
            if kind == "malformed":
                violations = pp.verify_certificate_json(self._malformed(op[1]))
            else:
                doc = self._certificate(op[1], op[2])
                if kind == "mutant":
                    self.mutate(doc, op[3], op[4])
                violations = pp.verify_certificate_json(doc)
        except Exception:
            return perf_counter() - t0, True
        latency = perf_counter() - t0
        if kind == "valid":
            self.check(oracles.check_certificate, doc, op[1], op[2])
            self.check(oracles.check_accepted, violations)
        else:
            self.check(oracles.check_rejected, violations)
        return latency, False


class SlopesCli(Workload):
    """Fresh `python -m slopewalk.cli` processes over a result cache private
    to the run. Set-up fills the cache cold (one miss and one write per
    weight, three levels); the round is mostly warm hits, with a
    --verify-cache recompute per weight and one hatada sweep."""

    name = "slopes-cli"
    tail_percentile = 75.0
    min_samples = 40
    # a round's p75 lies between its cheapest recomputes (about 320 ms) and
    # the next ones up (about 410 ms); a percentile over the whole run mixes
    # copies of those operations from fast and slow phases of the host and
    # jumps within that gap, where the mean of each round's p75 moves with
    # the host's speed alone
    tail_per_round = True
    FILLS = 3  # cold fills per run; setup_s is their median
    # three narrow strata per level keep every seed's work alike; the sl2z
    # weights all have dim S_k >= 3, where rational_roots goes through sympy
    STRATA = {
        ("gamma0_2", "u2"): ((46, 48, 50), (66, 68, 70), (86, 88, 90)),
        ("gamma1_4", "u2"): ((23, 24, 25), (33, 34, 35), (43, 44, 45)),
        ("sl2z", "t2"): ((40, 42, 44), (52, 54, 56), (64, 66, 68)),
    }
    HATADA_KMAX = (58, 60, 62)

    def __init__(self, root: Path, seed: int, workdir: Path):
        super().__init__(root, seed, workdir)
        self.weights = sorted({arg for kind, arg in self.ops if kind == "hit"})
        self.payloads: dict[tuple, str] = {}
        self.cache_dir: Path | None = None
        self._fills = 0
        self._code_version = self.sw.cache.code_version  # the memoized original, never a trace wrapper

    @classmethod
    def generate(cls, seed: int) -> list:
        rng = random.Random(f"slopes-cli:{seed}")
        weights = [(level, op, rng.choice(stratum))
                   for (level, op), strata in cls.STRATA.items() for stratum in strata]
        ops = [("hit", w) for w in weights] * 2 + [("verify", w) for w in weights]
        ops.append(("hatada", rng.choice(cls.HATADA_KMAX)))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def argv(op, cache: Path) -> list[str]:
        kind, arg = op
        if kind == "hatada":
            return ["hatada", "--kmax", str(arg)]
        level, operator, k = arg
        args = ["slopes", "--level", level, "--k", str(k), "--op", operator, "--cache-dir", str(cache)]
        return args + ["--verify-cache"] if kind == "verify" else args

    def _fresh_cache(self) -> Path:
        self._fills += 1
        path = self.workdir / f"cache{self._fills}"
        path.mkdir(parents=True)
        return path

    def _fill(self, run, cache: Path, payloads: dict) -> float:
        """Cold `slopes` for every weight; the time of the runs, checks
        excluded. The first payload seen for a weight is the reference."""
        total = 0.0
        for w in self.weights:
            latency, rc, out = run(self.argv(("fill", w), cache))
            total += latency
            self.check(oracles.check_cli_run, rc, out, payloads.get(w))
            self.check(lambda: oracles.check_slopes_payload(w[0], w[2], json.loads(out)))
            payloads.setdefault(w, out)
        self.check(oracles.require, len(list(cache.glob("*.json"))) == len(self.weights),
                   "the cold fill did not write one cache entry per weight")
        return total

    def _check_output(self, op, rc: int, out: str, payloads: dict) -> None:
        kind, arg = op
        if kind == "hatada":
            self.check(oracles.check_cli_run, rc, out, None)
            self.check(lambda: oracles.check_hatada_payload(arg, json.loads(out)))
        else:
            self.check(oracles.check_cli_run, rc, out, payloads[arg])

    # -- fresh processes (the untraced run) ---------------------------------

    def _spawn(self, args: list[str]) -> tuple[float, int, str]:
        t0 = perf_counter()
        proc = run_child(self.root, ["-m", "slopewalk.cli", *args])
        return perf_counter() - t0, proc.returncode, proc.stdout

    def setup_times(self) -> list[float]:
        times = []
        for _ in range(self.FILLS):
            self.cache_dir = self._fresh_cache()
            times.append(self._fill(self._spawn, self.cache_dir, self.payloads))
        return times

    def execute(self, op) -> tuple[float, bool]:
        try:
            latency, rc, out = self._spawn(self.argv(op, self.cache_dir))
        except subprocess.TimeoutExpired:
            return CHILD_TIMEOUT_S, True
        self._check_output(op, rc, out, self.payloads)
        return latency, False

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    # -- in process, through cli.main (the traced run) ----------------------

    def _main(self, args: list[str]) -> tuple[float, int, str]:
        """cli.main(argv) with stdout captured. The memoized code_version is
        dropped first, as a fresh process would not have it; sympy, which
        rational_roots imports, stays loaded after its first use."""
        self._code_version.cache_clear()
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = self.sw.cli.main(args)
        return perf_counter() - t0, rc, buf.getvalue()

    def round_inprocess(self) -> tuple[float, int, int, int]:
        """The cold fill and then the round, all through cli.main."""
        cache = self._fresh_cache()
        payloads: dict[tuple, str] = {}
        total = self._fill(self._main, cache, payloads)
        for op in self.ops:
            latency, rc, out = self._main(self.argv(op, cache))
            total += latency
            self._check_output(op, rc, out, payloads)
        shutil.rmtree(cache, ignore_errors=True)
        n = len(self.weights) + len(self.ops)
        return total, n, 0, n


WORKLOADS = {w.name: w for w in (OcLadder, SlopesCli, CertVerify)}
