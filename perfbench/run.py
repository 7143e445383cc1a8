"""factorix benchmark: one command per workload, metrics on the last line.

    python3 perfbench/run.py --workload replay|search-t2|cert-stream \
        --seed N --seconds S --trace 0|1

Run from the root of a factorix checkout; the program is imported from its
``src`` directory.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics, timed from outside with no tracing, in reference
seconds (see clock.py).  With ``--trace 1``
it carries the per-layer metrics of one traced pass, and the spans, per-op
times and run record go to ``.perfbench_work/trace-<workload>-s<seed>.json``.
Every run appends its record (git sha or source digest, Python version,
core count, load average, within-run spread) to
``.perfbench_work/runs.jsonl``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402
from clock import Clock  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

TRANSFORMS = ("reverse", "normalize", "merge_adjacent", "replace_factor", "strip_singletons",
              "lift_by_transversal", "lift_by_quotient", "compose_sandwich")
CATALOG_METHODS = ("group", "subgroup", "certificate", "factor_set", "anchor", "search",
                   "refutation", "multifold_table", "load_entry", "section_of", "ids")


def end_to_end(run: wl.Run, ref: dict) -> dict:
    """The metrics from the run's samples in reference seconds; where the
    main loop lacks an op kind, from its probe (perfbench/README.md)."""
    med = wl.median

    def get(key):
        return ref.get(key, [])
    if any(k.startswith("search/") for k in ref):
        search_s = wl.search_total(ref)
    else:
        search_s = med(get("search_probe"))
    if "refute_s" in ref:
        refute_s = med(get("refute_s"))
    else:
        refute_s = med(get("refute_probe")) / wl.REFUTE_PROBE_REPS
    cert_ops = get("cert_op")
    return {
        "setup_s": (med(get("setup_s")), "s"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        "ok_frac": ((run.attempted - run.failed) / max(run.attempted, 1), "ratio"),
        "replay_s": (med(get("pass_s")), "s"),
        "search_s": (search_s, "s"),
        "refute_s": (refute_s, "s"),
        "check_p50_ms": (1000 * med(get("check")), "ms"),
        "check_p90_ms": (1000 * wl.p90(get("check")), "ms"),
        "build_p50_ms": (1000 * med(get("build")), "ms"),
        "cli_verify_p50_ms": (1000 * med(get("cli")), "ms"),
        "certs_per_s": (len(cert_ops) / sum(cert_ops) if cert_ops else 0.0, "1/s"),
    }


def per_layer(ctx: wl.Context, ref: dict) -> dict:
    tr = ctx.tracer
    tot = tr.totals()
    res = tr.results

    def calls(name):
        return tot.get(name, {}).get("calls", 0)

    def total(*names):
        return sum(tot.get(n, {}).get("total_s", 0.0) for n in names)

    ind = res["indset.independent_sets_of_size"]
    refute_instances = sum(res["search.refute"])
    c2 = res["search.case2_search"]
    c2_examined = sum(e for e, _ in c2)
    engine = [c for c in ctx.run.values["engine_calls"] if c["kind"] == "run_search"]
    busy = sum(c["wall"] * c["threads"] for c in engine)
    m = {
        "indset.solve_calls": (calls("indset.independent_sets_of_size"), "count"),
        "indset.solve_s": (total("indset.independent_sets_of_size"), "s"),
        "indset.vertices": (sum(n for n, _ in ind), "count"),
        "indset.hit_ratio": (sum(hit for _, hit in ind) / len(ind) if ind else 0.0, "ratio"),
        "search.graph_builds": (calls("search.case3_build_graph"), "count"),
        "search.graph_build_s": (total("search.case3_build_graph"), "s"),
        "search.adjacency_s": (total("search.CompatibilityGraph.adjacency"), "s"),
        "search.graph_vertices": (sum(res["search.case3_build_graph"]), "count"),
        "search.refute_instances": (refute_instances, "count"),
        "search.refute_build_ratio": (
            tr.count_under("search.case3_build_graph", "search.refute") / refute_instances
            if refute_instances else 0.0, "ratio"),
        "search.case2_s": (tot.get("search.case2_search", {}).get("self_s", 0.0), "s"),
        "search.case2_examined": (c2_examined, "count"),
        "search.case2_yield": (sum(n for _, n in c2) / c2_examined if c2_examined else 0.0, "ratio"),
        "search.case3_builds": (sum(res["search.case3_search"]), "count"),
        "search.generic_nodes": (sum(res["search.generic_search"]), "count"),
        "search.child_cpu_s": (float(sum(c["child_cpu"] for c in engine)), "s"),
        "search.cpu_util": (sum(c["cpu"] + c["child_cpu"] for c in engine) / busy if busy else 0.0, "ratio"),
        "group.tables_built": (calls("group.generate_group"), "count"),
        "group.table_entries": (sum(n * n for n in res["group.generate_group"]), "count"),
        "group.build_s": (total("group.generate_group"), "s"),
        "perm.parse_calls": (calls("perm.parse_cycles"), "count"),
        "perm.parse_s": (total("perm.parse_cycles"), "s"),
        "certify.verify_calls": (calls("certify.verify_certificate"), "count"),
        "certify.verify_s": (total("certify.verify_certificate"), "s"),
        "certify.product_calls": (calls("certify.product_distinct"), "count"),
        "certify.load_s": (total("certify.load_json"), "s"),
        "certify.transform_s": (tr.outermost(f"certify.{n}" for n in TRANSFORMS), "s"),
        "structure.double_coset_s": (total("structure.double_cosets"), "s"),
        "structure.conj_trivial_s": (total("structure.conjugate_intersection_trivial"), "s"),
        "structure.transversal_calls": (
            calls("structure.right_transversal") + calls("structure.left_transversal"), "count"),
        "structure.transversal_s": (total("structure.right_transversal", "structure.left_transversal"), "s"),
        "structure.coset_map_calls": (calls("structure.coset_index_map"), "count"),
        "catalog.open_s": (total("catalog.open_catalog"), "s"),
        "catalog.resolve_s": (tr.outermost(f"catalog.Catalog.{n}" for n in CATALOG_METHODS), "s"),
        "driver.recipe_s": (tr.outermost(["driver.build_recipe"]), "s"),
        "cli.import_s": (wl.median(ctx.run.values["import_s"]), "s"),
    }
    for layer, secs in tr.layer_self().items():
        m[f"{layer}.self_s"] = (secs, "s")
    m["trace.overhead_s"] = (wl.median(ref["traced_pass"]) - wl.median(ref["base_pass"]), "s")
    return m


# ------------------------------------------------------------------ records


def source_id() -> dict:
    out = {"git_sha": None, "src_sha256": None}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            out["git_sha"] = proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(wl.SRC, "factorix")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, wl.SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    out["src_sha256"] = digest.hexdigest()
    return out


def spread(xs) -> dict | None:
    if len(xs) < 2:
        return None
    xs = sorted(xs)
    return {"n": len(xs), "min": xs[0], "median": wl.median(xs), "max": xs[-1]}


def run_record(args, run: wl.Run, ref: dict, walls: dict, wall: float) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **source_id(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(), "wall_s": wall,
        "attempted": run.attempted, "failed": run.failed, "failures": run.failures[:20],
        "calibrations": run.clock.calibrations,
        "samples": {k: len(v) for k, v in ref.items()},
        "within_run_spread": {k: spread(v) for k, v in ref.items() if spread(v)},
        "wall_median_s": {k: wl.median(v) for k, v in walls.items()},
        "engine_calls": [{k: c[k] for k in ("kind", "id", "wall", "cpu", "child_cpu", "threads")}
                         for c in run.values["engine_calls"]],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", metavar="WORKLOAD", help=argparse.SUPPRESS)
    p.add_argument("--catalog", help=argparse.SUPPRESS)
    p.add_argument("--cli-child", metavar="OUT", help=argparse.SUPPRESS)
    p.add_argument("--write-golden", action="store_true",
                   help="replay seed 0 and store its rows and counts as perfbench/golden.json")
    args, rest = p.parse_known_args(argv)
    if args.setup_child:
        wl.setup_child(args.setup_child, args.catalog)
        return 0
    if args.cli_child:
        return wl.cli_child(args.cli_child, bool(args.trace), rest)
    if rest:
        p.error(f"unrecognized arguments: {' '.join(rest)}")
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        p.error("--workload is required")

    started = time.perf_counter()
    try:
        catalog, certify, driver = wl.import_factorix()
        bundled = wl.bundled_data()
        golden = wl.load_golden()
    except (wl.BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    ctx = wl.Context(
        seed=args.seed, seconds=args.seconds, catalog=catalog, certify=certify, driver=driver,
        bundled=bundled, golden=golden, engine_path=wl.write_engine_catalog(bundled, args.seed),
        tracer=Tracer() if args.trace else None,
        run=wl.Run(clock=Clock(every=math.inf)) if args.trace else wl.Run(),
    )
    if args.trace:  # for cli.import_s; untraced runs take these around their main loop
        for unit in wl.setup_units(ctx.run, args.workload, ctx.engine_path):
            unit()
    wl.WORKLOADS[args.workload](ctx)
    run = ctx.run
    ref, walls = run.finish()
    metrics = per_layer(ctx, ref) if args.trace else end_to_end(run, ref)
    record = run_record(args, run, ref, walls, time.perf_counter() - started)
    os.makedirs(wl.WORK, exist_ok=True)
    with open(os.path.join(wl.WORK, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**record, "metrics": metrics}) + "\n")
    if args.trace:
        write_trace(ctx, args, record, metrics, ref)
    for failure in run.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {run.attempted} checked, {run.failed} failed, "
          f"samples {record['samples']}, load {record['loadavg']}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def write_trace(ctx: wl.Context, args, record: dict, metrics: dict, ref: dict) -> None:
    tr = ctx.tracer
    per_op = tr.per_op()
    rows = [{**r, "trace": per_op.get(r["id"])} for r in ctx.run.rows]
    path = os.path.join(wl.WORK, f"trace-{args.workload}-s{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "record": record,
            "layers": LAYERS,
            "wrapped": tr.wrapped,
            "absent": tr.absent,
            "metrics": metrics,
            "base_pass_s": wl.median(ref["base_pass"]),
            "traced_pass_s": wl.median(ref["traced_pass"]),
            "rows": rows,
            "ops": per_op,
            "totals": tr.totals(),
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": tr.closed_spans(),
        }, fh)
    if tr.absent:
        print(f"perfbench: absent from this checkout: {', '.join(tr.absent)}", file=sys.stderr)


def write_golden() -> int:
    catalog, _, driver = wl.import_factorix()
    bundled = wl.bundled_data()
    cat = catalog.open_catalog(wl.write_engine_catalog(bundled, 0))
    rec = wl.Recorder(driver, wl.Run())
    rec.install()
    try:
        res = driver.repro(cat, "all", threads=1)
    finally:
        rec.uninstall()
    if not res["pass"]:
        print("perfbench: repro all does not pass; golden not written", file=sys.stderr)
        return 1
    golden = {
        "rows": [{"id": r["id"], "status": r["status"], "detail": r["detail"]} for r in res["rows"]],
        "refute_instances": {c["id"]: c["result"]["instances"] for c in rec.calls
                             if c["kind"] == "run_refutation"},
        "case3_builds": {c["id"]: c["result"]["checks"]["builds"]["got"] for c in rec.calls
                         if c["kind"] == "run_search" and "builds" in c["result"]["checks"]},
    }
    with open(wl.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
