"""Seeded inputs for the benchmark workloads.

Everything here works on catalog JSON and cycle-notation strings, never on
factorix objects, so the program under test only ever sees the files and
documents generated from a seed.

* ``engine_catalog`` relabels the groups, subgroups and inline anchors that
  the searches and refutations use by a point permutation sigma_d of each
  degree d (seed 0 gives the identity).  Conjugating a whole group and its
  anchors by sigma is an isomorphism, so every count, space and verdict the
  catalog pins must survive it.  The verify, double-coset and multifold
  sections stay on the bundled data: their recipes and representative lists
  name canonical least-index elements, which a relabelling moves.
* ``cert_block`` draws one block of the certificate stream: checks and
  fresh-process verifies drawn from the document pools in proportion to
  their sizes, and one build of every build source.  Expected outcomes are
  fixed by construction; the seed chooses the documents, corruptions,
  relabellings and order.
"""
from __future__ import annotations

import copy
import json
import random
import re

ENGINE_SUFFIX = "@seeded"

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


# ------------------------------------------------------------ cycle strings


def _cycles(text: str) -> list[list[int]]:
    return [[int(t) for t in body.split(",")] for body in _CYCLE_RE.findall(text) if body]


def _images(text: str, degree: int) -> list[int]:
    """Image list of a cycle string, composing cycles left to right."""
    img = list(range(degree + 1))
    for cyc in _cycles(text):
        step = list(range(degree + 1))
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            step[a] = b
        img = [step[img[i]] for i in range(degree + 1)]
    return img


def _format(img: list[int]) -> str:
    seen = set()
    out = []
    for start in range(1, len(img)):
        if start in seen or img[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        nxt = img[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = img[nxt]
        out.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


def canonical(text: str, degree: int) -> str:
    return _format(_images(text, degree))


def relabel(text: str, sigma: list[int]) -> str:
    """sigma^-1 * p * sigma: every point x in the cycles becomes sigma[x]."""
    degree = len(sigma) - 1
    img = _images(text, degree)
    out = list(range(degree + 1))
    for x in range(1, degree + 1):
        out[sigma[x]] = sigma[img[x]]
    return _format(out)


def is_odd(text: str) -> bool:
    return sum(len(c) - 1 for c in _cycles(text)) % 2 == 1


def sigma_for(rng: random.Random, degree: int) -> list[int]:
    pts = list(range(1, degree + 1))
    rng.shuffle(pts)
    return [0] + pts


def engine_sigmas(seed: int, degrees, variant: int = 0) -> dict[int, list[int]]:
    """sigma_d for each degree; seed 0, variant 0 is the identity.  Workloads
    that replay the searches several times in one run use one variant per
    pass."""
    out = {}
    for d in sorted(set(degrees)):
        if seed == 0 and variant == 0:
            out[d] = list(range(d + 1))
        else:
            out[d] = sigma_for(random.Random(f"engine/{seed}/{variant}/{d}"), d)
    return out


# ------------------------------------------------------------ engine catalog


def engine_catalog(bundled: dict, seed: int, variant: int = 0) -> dict:
    """The bundled catalog with the search and refutation sections moved onto
    relabelled copies of their groups and anchors (ids get ENGINE_SUFFIX)."""
    data = copy.deepcopy(bundled)
    groups = bundled["groups"]
    used = {s["group"] for s in bundled["searches"].values()}
    used |= {r["group"] for r in bundled["refutations"].values()}
    sigmas = engine_sigmas(seed, (groups[g]["degree"] for g in used), variant)

    def sigma_of(group_id: str) -> list[int]:
        return sigmas[groups[group_id]["degree"]]

    for gid in sorted(used):
        spec = dict(groups[gid])
        spec["generators"] = [relabel(t, sigma_of(gid)) for t in spec["generators"]]
        data["groups"][gid + ENGINE_SUFFIX] = spec

    def anchor(ref, gid: str):
        if isinstance(ref, str):
            sub = dict(bundled["subgroups"][ref])
            sub["group"] = gid + ENGINE_SUFFIX
            sub["generators"] = [relabel(t, sigma_of(gid)) for t in sub["generators"]]
            data["subgroups"][ref + ENGINE_SUFFIX] = sub
            return ref + ENGINE_SUFFIX
        return [relabel(t, sigma_of(gid)) for t in ref]

    for sid, spec in bundled["searches"].items():
        new = dict(spec)
        gid = spec["group"]
        new["group"] = gid + ENGINE_SUFFIX
        new["first"] = anchor(spec["first"], gid)
        new["last"] = anchor(spec["last"], gid)
        data["searches"][sid] = new
    for rid, spec in bundled["refutations"].items():
        data["refutations"][rid] = dict(spec, group=spec["group"] + ENGINE_SUFFIX)
    return data


# ------------------------------------------------------------ certificate docs


def catalog_doc(bundled: dict, cert_id: str) -> dict:
    spec = bundled["certificates"][cert_id]
    g = spec["group"]
    group = bundled["groups"][g] if isinstance(g, str) else g
    return {
        "group": {"degree": int(group["degree"]), "generators": list(group["generators"])},
        "pattern": list(spec["pattern"]),
        "factors": [list(f) for f in spec["factors"]],
    }


def relabel_doc(doc: dict, sigma: list[int]) -> dict:
    return {
        "group": {
            "degree": doc["group"]["degree"],
            "generators": [relabel(t, sigma) for t in doc["group"]["generators"]],
        },
        "pattern": list(doc["pattern"]),
        "factors": [[relabel(t, sigma) for t in f] for f in doc["factors"]],
    }


def lift_to_s6(doc: dict, odd: str, side: str) -> dict:
    """S6 = A6 * {e, t} = {e, t} * A6 for any odd t: A6 has index 2."""
    coset = ["()", odd]
    factors = doc["factors"] + [coset] if side == "right" else [coset] + doc["factors"]
    pattern = doc["pattern"] + [2] if side == "right" else [2] + doc["pattern"]
    return {
        "group": {"degree": 6, "generators": ["(1,2,3,4,5,6)", "(1,2)"]},
        "pattern": pattern,
        "factors": factors,
    }


def corrupt(doc: dict, kind: str, rng: random.Random) -> dict | None:
    """A corrupted copy of a valid document, or None when the construction
    does not apply to it.  The verdict each kind must get is fixed here:

    repeated  - factors i, i+1 both hold e; put a non-identity a of factor i
                into factor i+1, so e*a = a*e and the product repeats: INVALID
    foreign   - put a transposition into a group generated by even
                permutations, which holds none: ELEMENT NOT IN GROUP
    size      - declare one factor one element larger than listed: MALFORMED
    dropped   - leave out the last factor (size >= 2), so the product has
                fewer than |G| elements: INVALID
    """
    deg = doc["group"]["degree"]
    factors = [list(f) for f in doc["factors"]]
    pattern = list(doc["pattern"])
    if kind == "repeated":
        spots = [
            i for i in range(len(factors) - 1)
            if "()" in factors[i] and "()" in factors[i + 1]
            and len(factors[i]) >= 2 and len(factors[i + 1]) >= 2
        ]
        if not spots:
            return None
        i = rng.choice(spots)
        a = rng.choice([t for t in factors[i] if t != "()"])
        if canonical(a, deg) in {canonical(t, deg) for t in factors[i + 1]}:
            return None
        victims = [j for j, t in enumerate(factors[i + 1]) if t != "()"]
        factors[i + 1][rng.choice(victims)] = a
    elif kind == "foreign":
        if any(is_odd(t) for t in doc["group"]["generators"]):
            return None
        i = rng.randrange(len(factors))
        victims = [j for j, t in enumerate(factors[i]) if t != "()"]
        if not victims:
            return None
        x, y = sorted(rng.sample(range(1, deg + 1), 2))
        factors[i][rng.choice(victims)] = f"({x},{y})"
    elif kind == "size":
        i = rng.randrange(len(pattern))
        pattern[i] += 1
    elif kind == "dropped":
        if len(factors) < 2 or pattern[-1] < 2:
            return None
        factors.pop()
        pattern.pop()
    else:
        raise ValueError(kind)
    return {"group": dict(doc["group"]), "pattern": pattern, "factors": factors}


EXPECTED = {None: "valid", "repeated": "invalid", "foreign": "foreign",
            "size": "malformed", "dropped": "invalid"}


# ------------------------------------------------------------ stream blocks

# A block draws from each pool in proportion to its size (the largest
# remainder rounds the quotas): 22 check slots, a quarter of the 88 check
# sources, and in 5 of them, an eighth of the 41 catalog certificates, a
# fresh-process verify of a catalog id instead of an in-process check on the
# same stratum.  So every block has the same make-up, and a percentile falls
# on the same rank of the same stratum in every run.  Block i draws the same
# members under every seed, because checks on one group differ in cost by
# document: the seed relabels the members, picks the corruptions, the S6
# lifts and the order.
BLOCK_CHECKS = 22
BLOCK_CLI = 5
# Each block corrupts one drawn document with each kind.  Every kind keeps
# the table build, so a corrupted check costs what a valid one of its group
# does and the block's make-up is unchanged.
CORRUPTIONS = ("repeated", "foreign", "size", "dropped")


def quotas(pools: dict[str, list], k: int) -> dict[str, int]:
    """Each pool's share of k, rounded by largest remainder (ties to the
    larger pool)."""
    total = sum(len(v) for v in pools.values())
    exact = {s: k * len(v) / total for s, v in pools.items()}
    counts = {s: int(q) for s, q in exact.items()}
    extra = k - sum(counts.values())
    for s in sorted(pools, key=lambda s: (counts[s] - exact[s], -len(pools[s])))[:extra]:
        counts[s] += 1
    return counts


def draw(pools: dict[str, list], counts: dict[str, int], rng: random.Random) -> list[tuple[str, object]]:
    return [(s, x) for s in pools for x in rng.sample(pools[s], counts.get(s, 0))]


class DocPools:
    """Check sources by stratum, and catalog certificate ids by stratum.

    small: catalog certificates on groups of order 6 to 60 (inline groups, A5)
    168:   catalog and multifold-assembled certificates on the order-168 group
    a6:    catalog and multifold-assembled certificates on A6
    s6:    the catalog's A6 certificates, lifted into S6 when drawn
    """

    def __init__(self, bundled: dict, assembled: dict[str, list[dict]]):
        certs = bundled["certificates"]

        def gid(c):
            g = certs[c]["group"]
            return g if isinstance(g, str) else None

        def ids(*groups):
            return [c for c in sorted(certs) if gid(c) in groups]

        def docs(*groups):
            return [catalog_doc(bundled, c) for c in ids(*groups)]

        self.docs = {
            "small": docs(None, "group-a5"),
            "168": docs("group-168") + assembled["group-168"],
            "a6": docs("group-a6") + assembled["group-a6"],
            "s6": docs("group-a6"),
        }
        self.cli_ids = {"small": ids(None, "group-a5"), "168": ids("group-168"), "a6": ids("group-a6")}
        self.patterns = {c: list(certs[c]["pattern"]) for c in certs}


def cert_block(pools: DocPools, build_sources, seed: int, index: int) -> list[dict]:
    """Operations of block ``index`` in seed order: its checks and CLI
    verifies, and one build of every build source.  Each op carries the
    outcome its construction fixes."""
    members = random.Random(f"members/{index}")
    rng = random.Random(f"stream/{seed}/{index}")
    cli_counts = quotas(pools.cli_ids, BLOCK_CLI)
    check_counts = quotas(pools.docs, BLOCK_CHECKS)
    for stratum, n in cli_counts.items():
        check_counts[stratum] -= n
    drawn = []
    for stratum, doc in draw(pools.docs, check_counts, members):
        if stratum == "s6":
            x, y = sorted(rng.sample(range(1, 7), 2))
            doc = lift_to_s6(doc, f"({x},{y})", rng.choice(("left", "right")))
        drawn.append([stratum, None, relabel_doc(doc, sigma_for(rng, doc["group"]["degree"]))])
    for kind in CORRUPTIONS:
        for slot in rng.sample(drawn, len(drawn)):
            bad = corrupt(slot[2], kind, rng) if slot[1] is None else None
            if bad is not None:
                slot[1:] = [kind, bad]
                break
    ops = [{"op": "check", "stratum": stratum, "kind": kind or "valid",
            "expect": EXPECTED[kind], "text": json.dumps(doc)} for stratum, kind, doc in drawn]
    for stratum, cid in draw(pools.cli_ids, cli_counts, members):
        ops.append({"op": "cli", "stratum": stratum, "id": cid,
                    "pattern": pools.patterns[cid], "expect": "valid"})
    ops += build_sources.ops(rng)
    rng.shuffle(ops)
    for pos, op in enumerate(ops):
        op["name"] = f"b{index}.{pos}.{op['op']}"
    return ops
