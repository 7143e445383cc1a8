"""The three workloads, their correctness checks and their samples.

Every workload runs its main operations for at least the requested number of
seconds, checks each output against what the catalog or the input's
construction says it must be, and records the wall interval of each timed
operation.  ``Run.finish`` turns the intervals into reference seconds with
the run's ``Clock`` (see clock.py).  Operations whose kind the main loop
lacks are measured on a small fixed probe, spread over the run in bundles,
so that every end-to-end metric exists on every workload (see
perfbench/README.md).
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

from clock import Clock
from inputs import DocPools, cert_block, engine_catalog

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
GOLDEN = os.path.join(HERE, "golden.json")
BUNDLED = os.path.join(SRC, "factorix", "data", "catalog.json")

# Fresh set-up processes per run, spread over it with the probes.
SETUP_SAMPLES = 6
# The refutation probe: units of REFUTE_PROBE_REPS repetitions of the two
# cheap catalog refutations (285 and 15 instances, about 2.5 ms together).
REFUTE_PROBE = ("refute-a4-232", "refute-a5-2-15-2")
REFUTE_PROBE_UNITS = 8
REFUTE_PROBE_REPS = 40
# The case3 searches stop at their first solution, and the number of graphs
# they build before it depends on the labelling: case3-lemma-4.6 takes 2 to 5
# builds, 0.1 to 3 s.  Every run times them on this many relabelling variants
# of its seed and reports the mean, so that search_s follows the labelling
# mix and not one draw of it.  The case1 and case2 searches enumerate their
# whole space, and their work does not depend on the labelling.
CASE3_VARIANTS = 5
# cert-stream's search probe: repetitions of the case1/case2 searches but the
# 6 s one, at one thread.
SEARCH_PROBE_UNITS = 4
SEARCH_PROBE_SKIP = ("search-lemma-3.3",)
STREAM_MIN_BLOCKS = 2
# Probe units run in this many bundles spread over the run: one before the
# main loop, one at each of its first boundaries, the rest after it.  The
# host's speed drifts over tens of seconds, so samples from many points of a
# run vary less from run to run than samples from its two ends.
PROBE_BUNDLES = 6
# A fresh-process verify is the noisiest stream operation, and block 0 holds
# only 5: the certificate probe runs each of them this many times.
PROBE_CLI_REPEATS = 3
# cert-stream's main loop has a boundary every this many stream operations.
STREAM_STEP_OPS = 30
CLI_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked (missing sources, bad catalog)."""


def import_factorix():
    init = os.path.join(SRC, "factorix", "__init__.py")
    if not os.path.isfile(init) or not os.path.isfile(BUNDLED):
        raise BenchError(f"no factorix sources under {SRC}")
    sys.path.insert(0, SRC)
    import factorix
    if os.path.dirname(os.path.abspath(factorix.__file__)) != os.path.dirname(init):
        raise BenchError(f"imported factorix from {factorix.__file__}, not {SRC}")
    from factorix import catalog, certify, driver
    return catalog, certify, driver


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("FACTORIX_CATALOG", None)
    return env


def bundled_data() -> dict:
    with open(BUNDLED, encoding="utf-8") as fh:
        return json.load(fh)


def write_engine_catalog(bundled: dict, seed: int, variant: int = 0) -> str:
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"catalog-s{seed}-v{variant}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(engine_catalog(bundled, seed, variant), fh, indent=1, sort_keys=True)
    return path


def median(xs):
    return statistics.median(xs) if xs else 0.0


def p90(xs):
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10)[-1]


@dataclass
class Run:
    clock: Clock = field(default_factory=Clock)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    # key -> samples; a sample is the list of wall intervals it sums
    timed: dict = field(default_factory=lambda: defaultdict(list))
    values: dict = field(default_factory=lambda: defaultdict(list))
    rows: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def op(self, fn):
        """Run ``fn`` between clock ticks; returns (result, wall interval)."""
        self.clock.tick()
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
        self.clock.tick()
        return out, (t0, t1)

    def time(self, key: str, intervals) -> None:
        self.timed[key].append(list(intervals))

    def finish(self) -> tuple[dict, dict]:
        """(reference seconds, wall seconds) of every timed sample."""
        self.clock.calibrate()
        ref = {k: [self.clock.seconds(s) for s in v] for k, v in self.timed.items()}
        wall = {k: [sum(b - a for a, b in s) for s in v] for k, v in self.timed.items()}
        return ref, wall


# ------------------------------------------------------------------- set-up


def warm(workload: str, cat, bundled: dict) -> None:
    """Resolve what the workload's measured loop reuses, so that lazy table
    builds land in set-up and every measured pass does the same work."""
    if workload == "search-t2":
        for sid in cat.ids("searches"):
            spec = cat.search(sid)
            group = cat.group(spec["group"])
            cat.anchor(group, spec["first"])
            cat.anchor(group, spec["last"])
    elif workload == "cert-stream":
        for cid in BuildSources.cert_ids(bundled):
            cat.certificate(cid)
        for sub in BuildSources.subgroup_ids(bundled):
            cat.subgroup(sub)


def setup_child(workload: str, catalog_path: str) -> None:
    """Body of one fresh set-up process; prints its own phase split."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import factorix.cli  # noqa: F401  (the import users pay for)
    from factorix.catalog import open_catalog
    t1 = time.perf_counter()
    cat = open_catalog(catalog_path)
    t2 = time.perf_counter()
    warm(workload, cat, bundled_data())
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "open_s": t2 - t1, "warm_s": t3 - t2}))


def setup_units(run: Run, workload: str, engine_path: str) -> list:
    catalog_path = BUNDLED if workload == "cert-stream" else engine_path
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-child", workload,
           "--catalog", catalog_path]

    def unit():
        proc, span = run.op(lambda: subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                                   text=True, timeout=CLI_TIMEOUT_S))
        if run.check(proc.returncode == 0, f"setup child exited {proc.returncode}: {proc.stderr[-300:]}"):
            run.time("setup_s", [span])
            run.values["import_s"].append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
    return [unit] * SETUP_SAMPLES


# ------------------------------------------------------------------- engines


class Recorder:
    """Times driver.run_search / run_refutation from outside, between clock
    ticks, including the CPU of pool children, and keeps each result for
    checking."""

    def __init__(self, driver, run: Run):
        self.driver = driver
        self.run = run
        self.calls: list[dict] = []
        self._orig = {}

    def install(self) -> None:
        for name in ("run_search", "run_refutation"):
            fn = getattr(self.driver, name)
            self._orig[name] = fn
            setattr(self.driver, name, self._timed(name, fn))

    def uninstall(self) -> None:
        for name, fn in self._orig.items():
            setattr(self.driver, name, fn)
        self._orig.clear()

    def _timed(self, kind, fn):
        calls, run = self.calls, self.run

        def timed(cat, entry_id, *args, **kwargs):
            kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu0 = time.process_time()
            out, span = run.op(lambda: fn(cat, entry_id, *args, **kwargs))
            cpu = time.process_time() - cpu0
            kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
            calls.append({
                "kind": kind, "id": entry_id, "span": span, "wall": span[1] - span[0], "cpu": cpu,
                "child_cpu": (kids1.ru_utime - kids0.ru_utime) + (kids1.ru_stime - kids0.ru_stime),
                "threads": kwargs.get("threads", 1), "result": out,
            })
            return out
        return timed

    def take(self) -> list[dict]:
        out, self.calls[:] = list(self.calls), []
        return out


def check_search(run: Run, bundled: dict, res: dict, seed: int, golden: dict, variant: int = 0) -> None:
    """Counts, spaces and build caps against the bundled catalog."""
    sid = res["id"]
    spec = bundled["searches"][sid]
    checks = res["checks"]
    ok = res["pass"]
    if "expected_solutions" in spec:
        ok = ok and checks["solutions"]["got"] == spec["expected_solutions"]
    if "expected_space" in spec:
        ok = ok and checks["space"]["got"] == spec["expected_space"]
    if "min_solutions" in spec:
        ok = ok and checks["found"]["got"] >= spec["min_solutions"]
    if "max_builds" in spec:
        builds = checks["builds"]["got"]
        ok = ok and builds <= spec["max_builds"]
        if seed == 0 and variant == 0:
            ok = ok and builds == golden["case3_builds"][sid]
    run.check(ok, f"search {sid} (variant {variant}): {checks}")


def check_refutation(run: Run, bundled: dict, res: dict, golden: dict) -> None:
    rid = res["id"]
    ok = (res["pass"] and res["verdict"] == bundled["refutations"][rid]["expected"]
          and res["instances"] == golden["refute_instances"][rid])
    run.check(ok, f"refutation {rid}: {res['verdict']} after {res['instances']} instances")


def solutions_digest(res: dict) -> str:
    return hashlib.sha256(json.dumps(res["solutions"], sort_keys=True).encode()).hexdigest()


def _mask_builds(detail: str) -> str:
    return " ".join("builds=*" if w.startswith("builds=") else w for w in detail.split(" "))


def check_rows(run: Run, rows: list[dict], golden: dict, seed: int) -> None:
    """Rows minus wall_s equal the seed-0 golden; under another seed only
    the find-first case3 build counts may differ (their caps are checked on
    the search results)."""
    want = golden["rows"]
    if not run.check([r["id"] for r in rows] == [w["id"] for w in want], "repro row ids differ from golden"):
        return
    for got, exp in zip(rows, want):
        a, b = got["detail"], exp["detail"]
        if seed != 0:
            a, b = _mask_builds(a), _mask_builds(b)
        run.check(got["status"] == exp["status"] and a == b,
                  f"row {got['id']}: {got['status']} {got['detail']!r}, golden {exp['detail']!r}")


def case3_ids(bundled: dict) -> list[str]:
    return [s for s, spec in sorted(bundled["searches"].items()) if spec["engine"] == "case3"]


def pool_ids(bundled: dict) -> list[str]:
    return [s for s, spec in sorted(bundled["searches"].items()) if spec["engine"] != "case3"]


def time_search(run: Run, sid: str, variant: int, span) -> None:
    run.time(f"search/{sid}/{variant}", [span])


def case3_variant(ctx, variant: int, threads: int, reference=None) -> None:
    """The case3 searches on a fresh, unwarmed catalog of one relabelling
    variant, in catalog order, as repro runs them: each is the first user of
    its relabelled group, so each pays its group's table build.  With
    ``reference`` (solution digests of a serial run of the same catalog)
    the solution lists are compared with it."""
    cat = ctx.catalog.open_catalog(write_engine_catalog(ctx.bundled, ctx.seed, variant))
    for sid in case3_ids(ctx.bundled):
        res, span = ctx.run.op(lambda: ctx.driver.run_search(cat, sid, threads=threads,
                                                             with_solutions=reference is not None))
        check_search(ctx.run, ctx.bundled, res, ctx.seed, ctx.golden, variant)
        if reference is not None:
            ctx.run.check(solutions_digest(res) == reference[sid],
                          f"search {sid}: threads={threads} solutions differ from the serial run")
        time_search(ctx.run, sid, variant, span)


def search_total(ref: dict) -> float:
    """search_s: over the 7 searches, the mean over relabelling variants of
    each variant's median call."""
    by_search = defaultdict(list)
    for key, xs in ref.items():
        if key.startswith("search/"):
            _, sid, _ = key.split("/")
            by_search[sid].append(median(xs))
    return sum(statistics.fmean(v) for v in by_search.values())


def refute_units(ctx, cat) -> list:
    """Probe: units of repetitions of the two cheap catalog refutations."""
    def unit():
        spans = []
        for _ in range(REFUTE_PROBE_REPS):
            for rid in REFUTE_PROBE:
                res, span = ctx.run.op(lambda: ctx.driver.run_refutation(cat, rid))
                check_refutation(ctx.run, ctx.bundled, res, ctx.golden)
                spans.append(span)
        ctx.run.time("refute_probe", spans)
    return [unit] * REFUTE_PROBE_UNITS


class Probes:
    """Probe units in PROBE_BUNDLES bundles, each a mix of every kind."""

    def __init__(self, units: list):
        self.bundles = [units[i::PROBE_BUNDLES] for i in range(PROBE_BUNDLES)]

    def step(self) -> None:
        """Run the next bundle, if any is left."""
        if self.bundles:
            for unit in self.bundles.pop(0):
                unit()

    def around(self, main) -> None:
        """Run ``main``, which calls ``step`` at its boundaries, with one
        bundle before it and what is left after it."""
        self.step()
        main()
        while self.bundles:
            self.step()


def search_pass(run: Run, driver, cat, bundled, ids, seed, golden, threads, reference=None):
    """One pass over catalog searches; returns (spans by id, solution
    digests)."""
    digests, spans = {}, {}
    for sid in ids:
        res, spans[sid] = run.op(lambda: driver.run_search(cat, sid, threads=threads, with_solutions=True))
        check_search(run, bundled, res, seed, golden)
        digests[sid] = solutions_digest(res)
        if reference is not None:
            run.check(digests[sid] == reference[sid],
                      f"search {sid}: threads={threads} solutions differ from the serial run")
    return spans, digests


# ------------------------------------------------------------------- cert ops


class BuildSources:
    """In-memory certificates and recipes the build operations start from."""

    @staticmethod
    def cert_ids(bundled: dict) -> list[str]:
        certs = bundled["certificates"]
        return [c for c in sorted(certs) if certs[c]["group"] in ("group-a6", "group-168")]

    @staticmethod
    def recipes(bundled: dict, kind: str) -> list[dict]:
        out = []
        for table in bundled["multifold"].values():
            out += [r for _, r in sorted(table["classes"].items()) if r["type"] == kind]
        return out

    @staticmethod
    def subgroup_ids(bundled: dict) -> list[str]:
        subs = {r["subgroup"] for r in BuildSources.recipes(bundled, "lift")}
        for r in BuildSources.recipes(bundled, "sandwich"):
            subs |= {r["a"], r["b"]}
        return sorted(subs)

    def __init__(self, bundled: dict, cat, certify):
        self.bundled = bundled
        self.cat = cat
        self.certify = certify
        self.plain = self.cert_ids(bundled)
        self.lifts = self.recipes(bundled, "lift")
        self.sandwiches = self.recipes(bundled, "sandwich")

    def _pattern(self, cert_id):
        return list(self.bundled["certificates"][cert_id]["pattern"])

    def _order(self, sub_id):
        return self.bundled["subgroups"][sub_id]["order"]

    def _group_order(self, sub_id):
        return self.bundled["groups"][self.bundled["subgroups"][sub_id]["group"]]["order"]

    def ops(self, rng: random.Random) -> list[dict]:
        """One build of every source: reverse, normalize and merge_adjacent
        of each order-168 and A6 catalog certificate, each lift recipe on
        both sides and each sandwich recipe, with the pattern the
        construction must give."""
        cat, certify = self.cat, self.certify
        out = []

        def add(kind, label, run, expect):
            out.append({"op": "build", "kind": kind, "label": label, "run": run,
                        "expect": expect, "normalized": kind == "normalize"})

        for cid in self.plain:
            p = self._pattern(cid)
            add("reverse", f"reverse {cid}", lambda cid=cid: certify.reverse(cat.certificate(cid)), p[::-1])
            add("normalize", f"normalize {cid}", lambda cid=cid: certify.normalize(cat.certificate(cid)), p)
            i = rng.randrange(len(p) - 1)
            add("merge", f"merge {cid} at {i}",
                lambda cid=cid, i=i: certify.merge_adjacent(cat.certificate(cid), i),
                p[:i] + [p[i] * p[i + 1]] + p[i + 2:])
        for r in self.lifts:
            index = self._group_order(r["subgroup"]) // self._order(r["subgroup"])
            p = self._pattern(r["certificate"])
            for side in ("left", "right"):
                add("lift", f"lift {r['certificate']} by {r['subgroup']} ({side})",
                    lambda r=r, side=side: certify.lift_by_transversal(
                        cat.certificate(r["certificate"]), cat.subgroup(r["subgroup"]), side=side),
                    p + [index] if side == "right" else [index] + p)
        for r in self.sandwiches:
            a, b = r["a"], r["b"]
            pa = self._pattern(r["a_certificate"]) if r.get("a_certificate") else [self._order(a)]
            pb = self._pattern(r["b_certificate"]) if r.get("b_certificate") else [self._order(b)]
            n_dc = self._group_order(a) // (self._order(a) * self._order(b))

            def run(r=r):
                return certify.compose_sandwich(
                    cat.subgroup(r["a"]), cat.subgroup(r["b"]),
                    a_cert=cat.certificate(r["a_certificate"]) if r.get("a_certificate") else None,
                    b_cert=cat.certificate(r["b_certificate"]) if r.get("b_certificate") else None,
                )
            add("sandwich", f"sandwich {a} {b}", run, pa + pb if n_dc == 1 else pa + [n_dc] + pb)
        return out


def classify(exc: BaseException) -> str:
    names = {c.__name__ for c in type(exc).__mro__}
    if "ElementNotInGroup" in names:
        return "foreign"
    if "MalformedCertificate" in names:
        return "malformed"
    return f"error {type(exc).__name__}: {exc}"


def _check(certify, op: dict) -> tuple[bool, str]:
    try:
        cert = certify.load_json(op["text"])
        got = "valid" if cert.verify().valid else "invalid"
    except Exception as exc:  # a verdict to compare, not a crash
        got = classify(exc)
    return got == op["expect"], f"check {op['name']} ({op['stratum']} {op['kind']}): {got}, want {op['expect']}"


def _cli(cli_cmd, op: dict) -> tuple[bool, str]:
    proc = subprocess.run(cli_cmd(op), cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)
    head = f"VALID pattern ({','.join(map(str, op['pattern']))})"
    ok = proc.returncode == 0 and proc.stdout.startswith(head)
    return ok, f"cli verify {op['id']}: exit {proc.returncode} {proc.stdout[:80]!r} {proc.stderr[-200:]!r}"


def _build(certify, op: dict) -> tuple[bool, str]:
    try:
        cert = op["run"]()
        verdict = certify.verify_certificate(cert)
    except Exception as exc:  # a failed op, counted in ok_frac
        return False, f"build {op['label']}: {type(exc).__name__}: {exc}"
    ok = (verdict.valid and list(cert.pattern) == op["expect"]
          and (not op["normalized"] or cert.is_normalized))
    return ok, f"build {op['label']}: valid={verdict.valid} pattern={list(cert.pattern)}, want {op['expect']}"


def run_cert_op(run: Run, op: dict, certify, cli_cmd) -> tuple[float, float]:
    kind = op["op"]
    if kind == "check":
        (ok, what), span = run.op(lambda: _check(certify, op))
    elif kind == "cli":
        (ok, what), span = run.op(lambda: _cli(cli_cmd, op))
    else:
        (ok, what), span = run.op(lambda: _build(certify, op))
    if run.check(ok, what):
        run.time(kind, [span])
    run.time("cert_op", [span])
    return span


def plain_cli_cmd(op: dict) -> list[str]:
    return [sys.executable, "-m", "factorix.cli", "verify", op["id"]]


def assembled_docs(driver, certify, cat) -> dict[str, list[dict]]:
    out = {}
    for gid in ("group-168", "group-a6"):
        rep = driver.multifold(cat, gid)
        out[gid] = [certify.to_dict(c.certificate) for c in rep.classes if c.certificate is not None]
        for d in out[gid]:
            d.pop("normalized", None)
    return out


# ------------------------------------------------------------------- runs


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------------- workloads


@dataclass
class Context:
    seed: int
    seconds: float
    catalog: object
    certify: object
    driver: object
    bundled: dict
    golden: dict
    engine_path: str
    tracer: object = None
    run: Run = field(default_factory=Run)
    recorder: Recorder = None

    def __post_init__(self):
        self.recorder = Recorder(self.driver, self.run)

    @property
    def tracing(self) -> bool:
        return self.tracer is not None

    def traced(self, fn):
        """Run ``fn`` with the tracer and the recorder installed (the
        recorder goes on top so that it times the traced functions)."""
        self.tracer.install(EXTRACT)
        self.recorder.install()
        try:
            return fn()
        finally:
            self.recorder.uninstall()
            self.tracer.uninstall()

    def compare_passes(self, base, traced) -> None:
        """Time the untraced pass ``base``, the traced pass ``traced`` and
        ``base`` again (samples ``base_pass`` and ``traced_pass``), with a
        calibration before and after each; the two untraced passes bracket
        the traced one, so that a drift of the host's speed cancels."""
        clock = self.run.clock
        traced_fn = lambda: self.traced(traced)  # noqa: E731
        for key, fn in (("base_pass", base), ("traced_pass", traced_fn), ("base_pass", base)):
            clock.calibrate()
            t0 = time.perf_counter()
            fn()
            self.run.time(key, [(t0, time.perf_counter())])
        clock.calibrate()


def _attr(name, default=0):
    return lambda a, k, o: getattr(o, name, default)


EXTRACT = {
    "indset.independent_sets_of_size": lambda a, k, o: (a[1] if len(a) > 1 else k.get("n", 0), bool(o)),
    "search.case3_build_graph": lambda a, k, o: len(getattr(o, "vertices", ())),
    "search.refute": _attr("instances_examined"),
    "search.case2_search": lambda a, k, o: (getattr(o, "candidates_examined", 0), len(getattr(o, "solutions", ()))),
    "search.case3_search": _attr("graph_builds"),
    "search.generic_search": _attr("candidates_examined"),
    "group.generate_group": _attr("order"),
}


def _replay_once(ctx: Context, op_hook: bool) -> tuple:
    """One ``repro all`` on a fresh catalog, with the recorder installed;
    returns (wall interval, engine calls).  With ``op_hook`` each span is
    tagged with its repro row."""
    driver = ctx.driver
    hook = getattr(driver, "_scope_matches", None) if op_hook else None
    if hook is not None:
        def marking(scope, row_id):
            hit = hook(scope, row_id)
            if hit:
                ctx.tracer.op = row_id
            return hit
        driver._scope_matches = marking
    try:
        if ctx.tracing and op_hook:
            ctx.tracer.op = "replay"
        res, span = ctx.run.op(lambda: driver.repro(ctx.catalog.open_catalog(ctx.engine_path), "all", threads=1))
    finally:
        if hook is not None:
            driver._scope_matches = hook
    run = ctx.run
    run.rows = res["rows"]
    check_rows(run, res["rows"], ctx.golden, ctx.seed)
    run.check(res["pass"], "repro all did not pass")
    calls = ctx.recorder.take()
    for c in calls:
        if c["kind"] == "run_search":
            check_search(run, ctx.bundled, c["result"], ctx.seed, ctx.golden)
        else:
            check_refutation(run, ctx.bundled, c["result"], ctx.golden)
        run.values["engine_calls"].append(c)
    run.check(len(calls) == len(ctx.bundled["searches"]) + len(ctx.bundled["refutations"]),
              f"repro made {len(calls)} search and refutation calls")
    return span, calls


def replay(ctx: Context) -> None:
    run = ctx.run
    if ctx.tracing:
        def base():
            kept = len(run.values["engine_calls"])
            ctx.recorder.install()
            try:
                _replay_once(ctx, False)
            finally:
                ctx.recorder.uninstall()
            del run.values["engine_calls"][kept:]
        ctx.compare_passes(base, lambda: _replay_once(ctx, True))
        return

    probes = Probes(setup_units(run, "replay", ctx.engine_path) + cert_units(ctx))

    def main():
        start = time.perf_counter()
        while True:
            ctx.recorder.install()
            try:
                span, calls = _replay_once(ctx, False)
            finally:
                ctx.recorder.uninstall()
            run.time("pass_s", [span])
            run.time("refute_s", [c["span"] for c in calls if c["kind"] == "run_refutation"])
            for c in calls:
                if c["kind"] == "run_search":
                    time_search(run, c["id"], 0, c["span"])
            probes.step()
            if time.perf_counter() - start >= ctx.seconds:
                break
        for variant in range(1, CASE3_VARIANTS):
            case3_variant(ctx, variant, threads=1)
            probes.step()
    probes.around(main)


def search_t2(ctx: Context) -> None:
    """Passes of the case1/case2 searches at 2 threads on the seed's
    labelling, until the run's seconds are measured, and the case3 searches
    on CASE3_VARIANTS labellings.  The solution lists at 2 threads on the
    seed's labelling are compared with a serial run of the same catalog."""
    run = ctx.run
    pool = pool_ids(ctx.bundled)
    every = sorted(ctx.bundled["searches"])
    first = ctx.catalog.open_catalog(ctx.engine_path)
    warm("search-t2", first, ctx.bundled)
    reference = search_pass(run, ctx.driver, first, ctx.bundled, every, ctx.seed, ctx.golden, threads=1)[1]

    def one_pass(ids):
        return search_pass(run, ctx.driver, first, ctx.bundled, ids, ctx.seed, ctx.golden,
                           threads=2, reference=reference)[0]

    if ctx.tracing:
        def traced_pass():
            ctx.tracer.op = "search-t2"
            one_pass(every)
        ctx.compare_passes(lambda: one_pass(every), traced_pass)
        run.values["engine_calls"] = ctx.recorder.take()
        return

    probes = Probes(setup_units(run, "search-t2", ctx.engine_path) + cert_units(ctx)
                    + refute_units(ctx, first))

    def main():
        measured = 0.0
        while measured < ctx.seconds:
            spans = one_pass(pool)
            for sid, span in spans.items():
                time_search(run, sid, 0, span)
            run.time("pass_s", spans.values())
            measured += sum(b - a for a, b in spans.values())
            probes.step()
        for variant in range(CASE3_VARIANTS):
            case3_variant(ctx, variant, threads=2, reference=reference if variant == 0 else None)
            probes.step()
    probes.around(main)


def _stream_inputs(ctx: Context):
    cat = ctx.catalog.open_catalog(BUNDLED)
    warm("cert-stream", cat, ctx.bundled)
    pools = DocPools(ctx.bundled, assembled_docs(ctx.driver, ctx.certify, cat))
    return pools, BuildSources(ctx.bundled, cat, ctx.certify)


def _run_block(ctx: Context, ops, cli_cmd=plain_cli_cmd, step=None) -> list:
    """Run a block's ops, calling ``step`` every STREAM_STEP_OPS ops;
    returns the ops' wall intervals."""
    spans = []
    for i, op in enumerate(ops, 1):
        if ctx.tracing:
            ctx.tracer.op = op["name"]
        spans.append(run_cert_op(ctx.run, op, ctx.certify, cli_cmd))
        if step is not None and i % STREAM_STEP_OPS == 0:
            step()
    return spans


def child_cli_cmd(trace: int):
    """A fresh-process verify through ``run.py --cli-child``, with the
    tracer on or off in the child; traced runs use it for both passes, so
    that the two differ only in the tracer."""
    def cmd(op: dict) -> list[str]:
        out = os.path.join(WORK, f"cli-child-{op['name']}.json")
        return [sys.executable, os.path.join(HERE, "run.py"), "--cli-child", out,
                "--trace", str(trace), "verify", op["id"]]
    return cmd


def cli_child(out_path: str, trace: bool, argv: list[str]) -> int:
    """Body of a fresh-process ``factorix verify`` for traced runs: with
    ``trace`` the tracer runs in the child too, and its spans are merged into
    the parent's trace."""
    from tracer import Tracer
    sys.path.insert(0, SRC)
    import factorix.cli
    if not trace:
        return factorix.cli.main(argv)
    tracer = Tracer()
    tracer.install(EXTRACT)
    tracer.op = "cli"
    code = factorix.cli.main(argv)
    tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.closed_spans(), "results": tracer.results}, fh)
    return code


def merge_cli_children(tracer) -> None:
    for name in sorted(os.listdir(WORK)):
        if not name.startswith("cli-child-"):
            continue
        path = os.path.join(WORK, name)
        with open(path, encoding="utf-8") as fh:
            child = json.load(fh)
        os.remove(path)
        op = name[len("cli-child-"):-len(".json")]
        base = len(tracer.spans)
        for s_name, t0, t1, parent, _ in child["spans"]:
            tracer.spans.append((s_name, t0, t1, parent + base if parent >= 0 else -1, op))
        for key, vals in child["results"].items():
            tracer.results[key] += [tuple(v) if isinstance(v, list) else v for v in vals]


def cert_units(ctx: Context) -> list:
    """Probe: block 0 of the certificate stream, its CLI verifies
    PROBE_CLI_REPEATS times, for workloads whose main loop has no
    certificate operations."""
    pools, sources = _stream_inputs(ctx)
    ops = cert_block(pools, sources, ctx.seed, 0)
    ops += [op for op in ops if op["op"] == "cli"] * (PROBE_CLI_REPEATS - 1)
    return [lambda op=op: run_cert_op(ctx.run, op, ctx.certify, plain_cli_cmd) for op in ops]


def search_units(ctx: Context) -> list:
    """Probe: the case1/case2 searches but search-lemma-3.3, at one thread
    on the seed's labelling."""
    ids = [s for s in pool_ids(ctx.bundled) if s not in SEARCH_PROBE_SKIP]
    cat = ctx.catalog.open_catalog(ctx.engine_path)
    warm("search-t2", cat, ctx.bundled)

    def unit():
        spans = search_pass(ctx.run, ctx.driver, cat, ctx.bundled, ids, ctx.seed, ctx.golden, threads=1)[0]
        ctx.run.time("search_probe", spans.values())
    return [unit] * SEARCH_PROBE_UNITS


def cert_stream(ctx: Context) -> None:
    run = ctx.run
    pools, sources = _stream_inputs(ctx)
    if ctx.tracing:
        ops = cert_block(pools, sources, ctx.seed, 0)
        _run_block(ctx, ops, child_cli_cmd(0))  # warm: certificates, subgroup caches
        run.timed.clear()
        ctx.compare_passes(lambda: _run_block(ctx, ops, child_cli_cmd(0)),
                           lambda: _run_block(ctx, ops, child_cli_cmd(1)))
        merge_cli_children(ctx.tracer)
        return

    refutes = ctx.catalog.open_catalog(ctx.engine_path)
    probes = Probes(setup_units(run, "cert-stream", ctx.engine_path) + search_units(ctx)
                    + refute_units(ctx, refutes))

    def main():
        measured = 0.0
        index = 0
        while measured < ctx.seconds or index < STREAM_MIN_BLOCKS:
            spans = _run_block(ctx, cert_block(pools, sources, ctx.seed, index), step=probes.step)
            run.time("pass_s", spans)
            measured += sum(b - a for a, b in spans)
            index += 1
    probes.around(main)


WORKLOADS = {"replay": replay, "search-t2": search_t2, "cert-stream": cert_stream}
