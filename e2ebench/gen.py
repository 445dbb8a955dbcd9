"""Seeded bundle generator for the end-to-end benchmark.

Emits `.cpm` model bundles whose verdicts are known by construction, plus
the expected answer for each: the scenario count, and every hazardous
scenario with its id, its fault set and the requirements it violates. The
program under test only ever sees the emitted bundle text.

Two families:

search   a tree of components, one `fail` mode each, rooted at an
         equipment component that every fault reaches within three hops.
         The root's behaviour carries the choice-gated loop bank and the
         jam-gated pigeonhole of bench_perf_epa's cdcl block, so the static
         prefilter cannot settle the behavioural stage and the solver must
         refute the `jam` branch. `boom` holds exactly when a watched
         component's fault is injected, so a scenario is a hazard iff its
         fault set meets the watched set.

frontier one `fail` mode on each component and a planted hazard
         formula in disjunctive form over `active_fault` literals of leaf
         components, one term gated by a negation so the polarity
         certificate is `mixed` and the exhaustive sweep evaluates the
         whole lattice. The expected answer
         is the antichain of inclusion-minimal hazardous fault sets, found
         here by brute force over the formula.
"""

import itertools
import random

LOOP_BANK = """\
#program base.
sidx(1..12).
ping(N) :- pong(N), sidx(N).
pong(N) :- ping(N), sidx(N).
ping(N) :- jam, sidx(N).
{ jam }.
pigeon(1..7). hole(1..6).
{ place(P, H) } :- pigeon(P), hole(H).
:- place(P, H), not jam.
placed(P) :- place(P, H).
:- jam, pigeon(P), not placed(P).
:- place(P1, H), place(P2, H), P1 < P2.
"""

ELEMENT_TYPES = ["controller", "sensor", "actuator", "node"]


def comp_id(i):
    return "c%02d" % i


def scenario_ids(universe, max_faults):
    """Ids the program's scenario space assigns to fault combinations:
    `S<n>` numbered in depth-first order over the mutation universe, every
    non-empty subset of at most `max_faults` mutations."""
    ids = {}
    counter = [0]

    def choose(start, picked):
        if picked:
            counter[0] += 1
            ids[tuple(picked)] = "S%d" % counter[0]
        if len(picked) >= max_faults:
            return
        for i in range(start, len(universe)):
            choose(i + 1, picked + [universe[i]])

    choose(0, [])
    return ids


def search_bundle(rng, name, n, max_faults):
    depth = {0: 0}
    lines = ["# generated search bundle %s" % name,
             "component c00 equipment name=\"Plant\" asset=VH"]
    relations = []
    for i in range(1, n):
        parent = rng.choice([p for p in range(i) if depth[p] < 3])
        depth[i] = depth[parent] + 1
        lines.append("component %s %s asset=%s" % (comp_id(i), rng.choice(ELEMENT_TYPES),
                                                   rng.choice(["L", "M", "H"])))
        relations.append("relation %s signal_flow %s" % (comp_id(i), comp_id(parent)))
    for i in range(n):
        lines.append("fault %s fail corruption severity=%s likelihood=%s" % (
            comp_id(i), rng.choice(["M", "H"]), rng.choice(["L", "M"])))
    lines += relations
    watched = sorted(rng.sample(range(1, n), 3))
    lines.append("behavior c00 <<<")
    lines.append(LOOP_BANK.rstrip())
    lines.append(" ".join("watched(%s)." % comp_id(w) for w in watched))
    lines.append("#program always.")
    lines.append("boom :- injected_fault(C, _), watched(C), not jam.")
    lines.append(">>>")
    lines.append("requirement rb never boom")
    lines.append("requirement rt protects c00")

    universe = [comp_id(i) + ".fail" for i in range(n)]
    watched_ids = {comp_id(w) + ".fail" for w in watched}
    hazards = []
    ids = scenario_ids(universe, max_faults)
    for subset, sid in ids.items():
        if watched_ids.intersection(subset):
            hazards.append({"id": sid, "mutations": list(subset), "violated": ["rb"]})
    return "\n".join(lines) + "\n", {"scenarios": len(ids), "hazards": hazards}


def frontier_bundle(rng, name, n):
    comps = [comp_id(i) for i in range(n)]
    # Element types are fixed and the formula avoids the root, so seeds
    # differ only in which leaves the formula names, not in the work.
    picks = rng.sample(range(1, n), 8)
    # Terms of the planted hazard formula: (positive literals, negated ones).
    terms = [
        ([picks[0]], []),
        ([picks[1], picks[2]], []),
        ([picks[3], picks[4]], [picks[5]]),  # the negation gate
        ([picks[6], picks[7], picks[1]], []),
    ]
    lines = ["# generated frontier bundle %s" % name,
             "component c00 equipment name=\"Plant\" asset=VH"]
    for i in range(1, n):
        element = ELEMENT_TYPES[i % len(ELEMENT_TYPES)]
        lines.append("component %s %s asset=M" % (comps[i], element))
    for i in range(n):
        lines.append("fault %s fail corruption severity=H likelihood=L" % comps[i])
    for i in range(1, n):
        lines.append("relation %s signal_flow c00" % comps[i])
    lines.append("behavior c00 <<<")
    lines.append("#program always.")
    for pos, neg in terms:
        body = ["active_fault(%s, fail)" % comps[p] for p in pos]
        body += ["not active_fault(%s, fail)" % comps[q] for q in neg]
        lines.append("hz :- %s." % ", ".join(body))
    lines.append(">>>")
    lines.append("requirement rh never hz")

    def hazardous(members):
        return any(all(p in members for p in pos) and not any(q in members for q in neg)
                   for pos, neg in terms)

    hazardous_sets = [frozenset(s) for k in range(n + 1)
                      for s in itertools.combinations(range(n), k) if hazardous(set(s))]
    minimal = [s for s in hazardous_sets if not any(t < s for t in hazardous_sets)]
    hazards = []
    for s in sorted(minimal, key=lambda s: sorted(s)):
        mutations = [comps[i] + ".fail" for i in sorted(s)]
        hazards.append({"id": "exh:" + "+".join(mutations), "mutations": mutations,
                        "violated": ["rh"]})
    return "\n".join(lines) + "\n", {"scenarios": 2 ** n, "hazards": hazards}


def generate(family, seed, sizes, max_faults=2):
    """One bundle of `family` per entry of `sizes` (components for search,
    fault modes for frontier, at least 9), seeded by `seed`:
    [(name, text, expected)]. Sizes are fixed by the caller so that the seed
    varies structure, not the amount of work."""
    rng = random.Random("%s:%d" % (family, seed))
    out = []
    for k, n in enumerate(sizes):
        name = "%s%d" % (family, k)
        if family == "search":
            text, expected = search_bundle(rng, name, n, max_faults)
        else:
            text, expected = frontier_bundle(rng, name, n)
        out.append((name, text, expected))
    return out
