"""The benchmark's three workloads: their inputs, one pass each, and checks.

Every workload takes the freshly imported ``quivrep`` package as an
argument and looks functions up on it at call time, so the wrappers that
``tracing`` installs are the ones that run.  Inputs come only from the run
seed and from generators defined here, never from the repository's tests,
so editing a test cannot change a workload.

A pass returns a :class:`PassResult`; an op is one grid pair, one
certificate or one CLI invocation.  When a pass is given a
:class:`hostspeed.SpeedProbe`, it probes the host's speed between ops,
outside every op's latency.  An op fails on an unexpected
exception, a wrong exit code, or output that differs from the pinned
reference in ``refs.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from random import Random

from tracing import patch_everywhere, resolve, restore


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class PassResult:
    latencies: list = field(default_factory=list)  # seconds, one per op
    starts: list = field(default_factory=list)  # perf_counter at each op's start
    wall: float = 0.0
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


# -- grid -------------------------------------------------------------------


def grid_key(params) -> str:
    return ",".join(str(x) for x in params)


def row_digests(kv: str) -> dict:
    """Digest of the key-value lines of each grid row, by row index."""
    rows = defaultdict(list)
    for line in kv.splitlines():
        if line.startswith("row."):
            rows[int(line.split(".", 2)[1])].append(line)
    return {i: digest("\n".join(lines)) for i, lines in rows.items()}


def grid_mismatches(kv: str, text: str, pins: dict) -> list:
    """Indices of rows whose report differs from the pins; all rows when the
    report differs outside its rows."""
    got = row_digests(kv)
    bad = [i for i, want in enumerate(pins["rows"]) if got.get(i) != want]
    if not bad and (digest(kv) != pins["kv"] or digest(text) != pins["text"]
                    or len(got) != len(pins["rows"])):
        bad = list(range(len(pins["rows"])))
    return bad


def grid_fact_problems(report, facts: dict) -> list:
    """The documented outcome, checked on the report object itself."""
    problems = []
    if len(report.rows) != facts["rows"]:
        problems.append(f"grid has {len(report.rows)} rows, expected {facts['rows']}")
    if report.expected_total != facts["bound"]:
        problems.append(f"bound a(d) = {report.expected_total}, expected {facts['bound']}")
    failing = [[r.u, r.v, r.direct] for r in report.rows
               if r.status(report.expected_total) != "ok"]
    if failing != facts["failing"]:
        problems.append(f"failing pairs {failing}, expected {facts['failing']}")
    return problems


# The README's documented outcome per grid, asserted independently of the
# pinned digests: row count, the bound a(d), and the failing (u, v, direct).
GRID_FACTS = {
    "2,2,2,2,2": {"rows": 63, "bound": 10,
                  "failing": [["alpha2", "xi2", 11], ["gamma2", "delta2", 11]]},
    "1,1,1,1,1": {"rows": 30, "bound": 5, "failing": []},
}


class Grid:
    """``verify_family`` in process; a pair's latency runs from one entry
    into ``constrained_cocycles`` to the next, or to the return."""

    def __init__(self, q, seed: int, refs: dict, params=(2, 2, 2, 2, 2)):
        self.q = q
        self.seed = seed
        self.params = q.FamilyParams(*params)
        self.pins = refs["grid"][grid_key(params)]
        self.facts = GRID_FACTS[grid_key(params)]
        # Exact calls per pass that show the wrappers fire where predicted.
        self.predicted_calls = {"geometry.constrained_cocycles.calls": self.facts["rows"],
                                "family.verify_family.calls": 1}

    def run_pass(self, k: int = 0, probe=None) -> PassResult:
        q = self.q
        entries, exits = [], []
        current = resolve("quivrep.geometry", "constrained_cocycles")

        def entry_clock(*args, **kwargs):
            exits.append(time.perf_counter())
            if probe is not None:
                probe.probe()
            entries.append(time.perf_counter())
            return current(*args, **kwargs)

        undo = patch_everywhere(current, entry_clock)
        report, error = None, None
        start = time.perf_counter()
        try:
            report = q.verify_family(self.params, seed=self.seed)
        except (q.InequalityViolated, q.DecompositionMismatch) as exc:
            report, error = exc.report, type(exc).__name__
        except Exception as exc:  # an op failure, reported below
            error = f"{type(exc).__name__}: {exc}"
        finally:
            end = time.perf_counter()
            restore(undo)
        out = PassResult(wall=end - start, starts=entries)
        out.latencies = [b - a for a, b in zip(entries, exits[1:] + [end])]
        rows = self.facts["rows"]
        if len(out.latencies) != rows:
            out.problems.append(f"constrained_cocycles entered {len(entries)} times, "
                                f"expected once per pair ({rows})")
            out.latencies = [(end - start) / rows] * rows
            out.starts = [start + i * (end - start) / rows for i in range(rows)]
        if (error or "ok") != self.pins["outcome"] or report is None:
            out.problems.append(f"grid outcome {error or 'ok'}, expected {self.pins['outcome']}")
            out.failed = rows
            return out
        out.failed = len(grid_mismatches(report.to_kv(), report.to_text(), self.pins))
        out.problems.extend(grid_fact_problems(report, self.facts))
        return out

    trace_pass = run_pass

    def close(self) -> None:
        pass


# -- survey -----------------------------------------------------------------

SURVEY_SHAPES = 300
SURVEY_VARIANTS = 8


@dataclass(frozen=True)
class Shape:
    hereditary: bool
    bq: object
    dims: object
    zeroed: frozenset


def _acyclic_quiver(q, rng: Random):
    """At most 5 vertices and 6 arrows, every arrow from a higher to a lower index."""
    n = rng.randint(2, 5)
    vertices = [f"v{i}" for i in range(1, n + 1)]
    arrows = []
    for k in range(rng.randint(1, 6)):
        j = rng.randint(2, n)
        i = rng.randint(1, j - 1)
        arrows.append((f"a{k + 1}", f"v{j}", f"v{i}"))
    return q.Quiver.build(vertices, arrows)


def _paths_by_endpoints(quiver) -> list:
    """Paths of length 2 and 3 grouped by endpoints, in a fixed order."""
    into = defaultdict(list)
    for arrow in quiver.arrows:
        into[arrow.target].append(arrow)
    groups = defaultdict(list)
    chains = [(a.name,) for a in quiver.arrows]
    while chains:
        longer = []
        for chain in chains:
            for arrow in into[quiver.arrow(chain[-1]).source]:
                path = chain + (arrow.name,)
                groups[(arrow.source, quiver.arrow(path[0]).target)].append(path)
                if len(path) < 3:
                    longer.append(path)
        chains = longer
    return [groups[key] for key in sorted(groups)]


def survey_shape(q, i: int) -> Shape:
    """Quiver, at most two admissible relations, dimensions 0..3, and the
    arrows zeroed so that every relation term vanishes (a hitting set)."""
    rng = Random(f"perfbench-survey-shape:{i}")
    hereditary = rng.random() < 0.25
    quiver = _acyclic_quiver(q, rng)
    relations = []
    groups = [] if hereditary else _paths_by_endpoints(quiver)
    if groups:
        for _ in range(rng.randint(0, 2)):
            paths = rng.choice(groups)
            terms = rng.sample(paths, k=min(len(paths), rng.randint(1, 2)))
            relations.append(q.Relation.of(
                [(rng.choice([-2, -1, 1, 2]), quiver.path(t)) for t in terms]))
    bq = q.BoundQuiver.of(quiver, relations)
    dims = q.DimVector.of(quiver, {v: rng.randint(0, 3) for v in quiver.vertices})
    zeroed = set()
    for rel in relations:
        for _, path in rel.terms:
            if not zeroed & set(path.arrow_names):
                zeroed.add(rng.choice(path.arrow_names))
    return Shape(hereditary, bq, dims, frozenset(zeroed))


def survey_point(q, shape: Shape, i: int, variant: int):
    """A variety point of the shape: dense integer entries in [-3, 3]."""
    rng = Random(f"perfbench-survey-point:{i}:{variant}")
    dims = shape.dims
    mats = {a.name: [[rng.randint(-3, 3) for _ in range(dims[a.source])]
                     for _ in range(dims[a.target])]
            for a in shape.bq.quiver.arrows
            if a.name not in shape.zeroed and dims[a.source] and dims[a.target]}
    return q.make_rep(shape.bq.quiver, dims, mats)


def cert_digest(cert) -> str:
    return digest("\n".join(cert.lines()))


class Survey:
    """``regularity_certificate(m, bq, assert_gldim2=True)`` on random points.

    Shape i (quiver, relations, dimensions) is fixed; the seed chooses the
    order of the shapes and, per pass, which of the pinned entry variants
    each point uses, so every seed sees different points of similar cost.
    """

    def __init__(self, q, seed: int, refs: dict, count: int = SURVEY_SHAPES):
        self.q = q
        self.predicted_calls = {"geometry.constrained_cocycles.calls": 0,
                                "family.verify_family.calls": 0,
                                "geometry.regularity_certificate.calls": count}
        self.pins = refs["survey"]
        rng = Random(f"perfbench-survey:{seed}")
        self.order = rng.sample(range(count), count)
        self.offset = [rng.randrange(SURVEY_VARIANTS) for _ in range(count)]
        self.shapes = [survey_shape(q, i) for i in range(count)]

    def run_pass(self, k: int = 0, probe=None) -> PassResult:
        points = []
        for i in self.order:
            variant = (self.offset[i] + k) % SURVEY_VARIANTS
            points.append((i, variant, survey_point(self.q, self.shapes[i], i, variant)))
        certify = self.q.regularity_certificate
        clock = time.perf_counter
        out = PassResult()
        certs = []
        start = clock()
        for i, _, m in points:
            if probe is not None:
                probe.maybe()
            t0 = clock()
            try:
                cert = certify(m, self.shapes[i].bq, assert_gldim2=True)
            except Exception as exc:  # an op failure, reported below
                cert = exc
            out.latencies.append(clock() - t0)
            out.starts.append(t0)
            certs.append(cert)
        out.wall = clock() - start
        for (i, variant, _), cert in zip(points, certs):
            if isinstance(cert, Exception):
                out.failed += 1
                out.problems.append(f"shape {i} variant {variant}: {cert!r}")
                continue
            irregular = self.shapes[i].hereditary and cert.verdict != "CertifiedRegular"
            if irregular:
                out.problems.append(f"hereditary shape {i} variant {variant}: {cert.verdict}")
            if irregular or cert_digest(cert) != self.pins[i][variant]:
                out.failed += 1
        return out

    trace_pass = run_pass

    def close(self) -> None:
        pass


# -- cli --------------------------------------------------------------------

CLI_FAMILIES = ((1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (1, 2, 1, 2, 1), (2, 2, 2, 2, 2))
CLI_H1_LABELS = ("2", "1/2", "alpha1", "beta1")
CLI_H2_LABELS = ("3", "-1", "xi1")
CLI_EPISODES = [(params, u, v) for params in CLI_FAMILIES
                for u in CLI_H1_LABELS for v in CLI_H2_LABELS]
# Families of a script's episodes, as indices into CLI_FAMILIES: the
# smallest and the largest twice, the others once, so every seed's script
# costs about the same.
CLI_SCRIPT_FAMILIES = (0, 0, 1, 2, 3, 3)
BROKEN_QUIVER = "vertex a\narrow x a b\n"  # arrow target never declared


@dataclass(frozen=True)
class CliOp:
    key: str      # names the op's pinned reference
    argv: tuple
    writes: tuple  # files the op must write, relative to the work directory


def episode_ops(e: int) -> list:
    """Emit a family's files with ``family``, then read them back."""
    params, u, v = CLI_EPISODES[e]
    arms = []
    for name, value in zip("pqrst", params):
        arms += [f"--{name}", str(value)]
    quiver, simple, h1, h2 = (f"e{e}.quiver", f"e{e}_s.rep", f"e{e}_h1.rep", f"e{e}_h2.rep")
    argvs = [
        (["family", *arms, "--emit-quiver", quiver, "--emit-simple", simple], (quiver, simple)),
        (["family", *arms, "--emit-h1", u, h1, "--emit-h2", v, h2], (h1, h2)),
        (["validate", "--quiver", quiver, "--rep", h1], ()),
        (["invariants", "--quiver", quiver, "--rep", h1, "--rep2", h2, "--assume-gldim2"], ()),
        (["certify", "--quiver", quiver, "--rep", h1, "--assume-gldim2"], ()),
        (["bisect", "--quiver", quiver, "--rep", simple, "--rep2", h2], ()),
        (["iso", "--quiver", quiver, "--rep", h2, "--rep2", h2, "--seed", "1"], ()),
        (["euler", "--quiver", quiver, "--dim", "a=1,b=2,c=1", "--dim2", "b=1,c=1",
          "--assume-tame-quasitilted"], ()),
    ]
    return [CliOp(f"e{e}.{j}", tuple(argv), writes) for j, (argv, writes) in enumerate(argvs)]


FIXED_OPS = [
    CliOp("paper-verify", ("paper-verify", "--p", "1", "--q", "1", "--r", "1", "--s", "1",
                           "--t", "1", "--out", "pv.kv"), ("pv.kv",)),
    CliOp("parse-error", ("validate", "--quiver", "broken.quiver"), ()),
    CliOp("usage-error", ("certify", "--quiver", "broken.quiver"), ()),
]


def cli_script(seed: int) -> list:
    """One ``paper-verify``, six seeded episodes, then the two error cases.

    The seed picks the labels of each family's episodes and their order.
    """
    rng = Random(f"perfbench-cli:{seed}")
    per_family = len(CLI_H1_LABELS) * len(CLI_H2_LABELS)
    episodes = []
    for f in sorted(set(CLI_SCRIPT_FAMILIES)):
        labels = rng.sample(range(per_family), CLI_SCRIPT_FAMILIES.count(f))
        episodes += [f * per_family + j for j in labels]
    rng.shuffle(episodes)
    return FIXED_OPS[:1] + [op for e in episodes for op in episode_ops(e)] + FIXED_OPS[1:]


def op_outcome(op: CliOp, code: int, stdout: str, work) -> dict:
    files = {}
    for name in op.writes:
        path = os.path.join(work, name)
        files[name] = digest(open(path).read()) if os.path.exists(path) else None
    return {"exit": code, "stdout": digest(stdout), "files": files}


class Cli:
    """``python -m quivrep.cli`` as sequential subprocesses, one at a time.

    The traced pass replays the same script through ``quivrep.cli.main``
    in this process, with stdout captured, so that its time can be split
    between layers.
    """

    def __init__(self, q, seed: int, refs: dict, root, work, limit: int | None = None):
        self.q = q
        self.pins = refs["cli"]
        self.script = cli_script(seed)[:limit]
        self.predicted_calls = {"cli.main.calls": len(self.script)}
        self.work = str(work)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._fresh_work()

    def _fresh_work(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        with open(os.path.join(self.work, "broken.quiver"), "w") as fh:
            fh.write(BROKEN_QUIVER)

    def _check(self, out: PassResult, op: CliOp, code, stdout: str) -> None:
        got = op_outcome(op, code, stdout, self.work)
        if got != self.pins[op.key]:
            out.failed += 1
            out.problems.append(f"cli {op.key} {' '.join(op.argv)}: {got} != {self.pins[op.key]}")

    def run_pass(self, k: int = 0, probe=None) -> PassResult:
        self._fresh_work()
        out = PassResult()
        command = [sys.executable, "-m", "quivrep.cli"]
        start = time.perf_counter()
        for op in self.script:
            if probe is not None:
                probe.probe()
            t0 = time.perf_counter()
            out.starts.append(t0)
            proc = subprocess.run(command + list(op.argv), cwd=self.work, env=self.env,
                                  capture_output=True, text=True, timeout=60)
            out.latencies.append(time.perf_counter() - t0)
            self._check(out, op, proc.returncode, proc.stdout)
        out.wall = time.perf_counter() - start
        return out

    def trace_pass(self, k: int = 0) -> PassResult:
        self._fresh_work()
        out = PassResult()
        cli = sys.modules["quivrep.cli"]
        here = os.getcwd()
        os.chdir(self.work)
        start = time.perf_counter()
        try:
            for op in self.script:
                stdout = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        code = cli.main(list(op.argv))
                    except SystemExit as exc:  # argparse usage errors
                        code = exc.code
                out.latencies.append(time.perf_counter() - t0)
                self._check(out, op, code, stdout.getvalue())
        finally:
            os.chdir(here)
        out.wall = time.perf_counter() - start
        return out

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
