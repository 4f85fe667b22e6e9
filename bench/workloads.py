"""The benchmark's four workloads.

Each workload builds its inputs from a seed (setup), lists one round of
operations through the library's public API (operations), checks a round's
results against the paper or a property the method must have (check), and
runs the slower checks once per run (verify). check and verify return a
list of problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

from lyident import evallab, freealg, liftgen, pipeline, symrep
from lyident._data import data_text
from lyident.exactla import GF101, QQ

HERE = Path(__file__).resolve().parent

# The paper's degree-8 identity: (deglex index of the binary association
# type among all 354 degree-8 types, coefficient), alternated over S_8.
PUBLISHED_D8 = (
    (335, 1), (338, Fraction(-3, 2)), (340, -1), (341, 1),
    (345, 2), (349, 3), (351, 2), (352, -2),
)

# Degree-7 generators drawn per seed for the filter workload, by stratum
# (seed identity / last lifting step). Fixed counts per stratum keep both
# binary and ternary liftings in every sample and keep the rank the sample
# reaches, which sets the filter's cost, close from seed to seed.
FILTER_STRATA = {
    "f/binary-sub": 2, "f/binary-mul": 1, "g1/binary-sub": 1, "f/ternary-sub": 1, "f/ternary-mul": 1,
}

# All 15 degree-7 partitions take about 80 s; a round covers these six.
# The first, second and last two are cross-checked over Q in verify.
SCAN7_PARTITIONS = ("7", "6+1", "5+2", "4+1^3", "2+1^5", "1^7")
SCAN7_QQ_CHECKED = ("7", "6+1", "2+1^5", "1^7")

BUNDLED = ("zero", "cross_product", "nilpotent_leibniz", "nonlie_leibniz")
# Generators checked per round on each bundled algebra, drawn per seed:
# degree -> {seed identity of the lineage: how many}. Every seed family is
# checked at degree 6; lifting keeps the number of terms, so fixed counts
# per family keep the cost of a round close from seed to seed.
ORACLE_SAMPLE = {6: {"f": 1, "g1": 1, "g2": 1, "h": 1}, 7: {"h": 1}}
# check_identity draws its assignments from this fixed seed, so the exact
# rational arithmetic they need is the same in every run
ORACLE_CHECK_SEED = 0
ORACLE_TRIALS = 2


def _no_problems(*_) -> list[str]:
    return []


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], dict]
    operations: Callable[[dict], list[tuple[str, Callable[[], object]]]]
    check: Callable[[dict, dict], list[str]]
    verify: Callable[[dict, dict], list[str]] = _no_problems
    # run once after set-up; a problem refuses the inputs
    gate: Callable[[dict], list[str]] = _no_problems


# -- shared inputs ----------------------------------------------------------------


def published_identity() -> pipeline.ExplicitIdentity:
    offset = freealg.count_types(8).all - len(freealg.binary_types(8))
    return pipeline.ExplicitIdentity(8, tuple((t - offset, Fraction(c)) for t, c in PUBLISHED_D8))


def load_lineages() -> dict[int, list[tuple]]:
    doc = json.loads((HERE / "lineages.json").read_text(encoding="utf-8"))
    return {int(n): [tuple(tuple(step) for step in lin) for lin in lins] for n, lins in doc.items()}


def lineages_text(lineages: dict[int, list[tuple]]) -> str:
    """The lineages.json format: one lineage per line, by degree."""
    blocks = []
    for n, lins in sorted(lineages.items()):
        rows = ",\n".join("    " + json.dumps([list(step) for step in lin]) for lin in lins)
        blocks.append(f'  "{n}": [\n{rows}\n  ]')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def replay_filtered(lineages: list[tuple], degree: int) -> liftgen.GenerationSet:
    """The filtered generation set rebuilt from its stored lineages."""
    ids = tuple(liftgen.Identity(liftgen.replay(lin), lin) for lin in lineages)
    if any(i.degree != degree for i in ids):
        raise ValueError(f"stored lineage does not replay to degree {degree}")
    return liftgen.GenerationSet(degree, ids, filtered=True)


def jacobi() -> freealg.Polynomial:
    return freealg.expand([(1, (2, (2, 1, 2), 3)), (1, (2, (2, 2, 3), 1)), (1, (2, (2, 3, 1), 2))])


def _with_prefix(results: dict, prefix: str) -> list:
    return [v for k, v in results.items() if k.startswith(prefix)]


# -- filter -----------------------------------------------------------------------


def stratified_sample(gen: liftgen.GenerationSet, seed: int) -> liftgen.GenerationSet:
    strata: dict[str, list[int]] = {}
    for k, ident in enumerate(gen.identities):
        strata.setdefault(f"{ident.lineage[0][1]}/{ident.lineage[-1][0]}", []).append(k)
    rng = random.Random(seed)
    picked = sorted(k for key in sorted(FILTER_STRATA) for k in rng.sample(strata[key], FILTER_STRATA[key]))
    return liftgen.GenerationSet(gen.degree, tuple(gen.identities[k] for k in picked))


def filter_setup(seed: int) -> dict:
    return {"inputs": (liftgen.generate(6), stratified_sample(liftgen.generate(7), seed))}


def filter_operations(inp: dict):
    return [(f"filter_redundant/{g.degree}", partial(liftgen.filter_redundant, g)) for g in inp["inputs"]]


def is_subsequence(kept, full) -> bool:
    it = iter(full)
    return all(any(k == x for x in it) for k in kept)


def filter_check(inp: dict, results: dict) -> list[str]:
    problems = []
    for gen in inp["inputs"]:
        kept = results.get(f"filter_redundant/{gen.degree}")
        if kept is None:
            continue
        if not is_subsequence(kept.identities, gen.identities):
            problems.append(f"degree {gen.degree}: kept set is not an order-preserving subsequence")
        if not kept.filtered or set(kept.ranks or ()) != set(symrep.partitions(gen.degree)):
            problems.append(f"degree {gen.degree}: filter reports no rank for some partition")
    return problems


def kept_rank_problems(kept: liftgen.GenerationSet) -> list[str]:
    """The kept set must reach, in every partition, the rank the filter
    reported for its whole input."""
    problems = []
    for pi, rank in kept.ranks.items():
        red, status = pipeline.reduce_identities(kept, pi, GF101)
        if status != "ok" or red.rank != rank:
            problems.append(f"degree {kept.degree} {pi.render()}: kept rank {red.rank}, input rank {rank}")
    return problems


def filter_verify(inp: dict, results: dict) -> list[str]:
    return [p for kept in _with_prefix(results, "filter_redundant/") for p in kept_rank_problems(kept)]


# -- scan7 ------------------------------------------------------------------------


def scan7_setup(seed: int) -> dict:
    return {"gen": replay_filtered(load_lineages()[7], 7)}


def scan7_operations(inp: dict):
    return [
        (f"analyze/7/{p}", partial(pipeline.analyze_degree, 7, GF101, [symrep.parse_partition(p)],
                                   generation=inp["gen"]))
        for p in SCAN7_PARTITIONS
    ]


def verdict_problems(reports) -> list[str]:
    """Below degree 8 every partition must be 'contained' (the paper), and
    A_pi cannot outrank the skew relations it is measured against."""
    problems = []
    for rep in reports:
        name = f"degree {rep.partition.n} {rep.partition.render()}"
        if rep.status != "ok" or rep.contains is not True:
            problems.append(f"{name}: verdict {rep.status}/{rep.contains}, expected contained")
        elif rep.a_rank > rep.c_rank:
            problems.append(f"{name}: a_rank {rep.a_rank} > c_rank {rep.c_rank}")
    return problems


def scan7_check(inp: dict, results: dict) -> list[str]:
    return verdict_problems([r for reps in _with_prefix(results, "analyze/7/") for r in reps])


def scan7_verify(inp: dict, results: dict) -> list[str]:
    problems = []
    for p in SCAN7_QQ_CHECKED:
        gf = results.get(f"analyze/7/{p}")
        if gf is None:
            continue
        qq = pipeline.analyze_degree(7, QQ, [symrep.parse_partition(p)], generation=inp["gen"])[0]
        if (qq.a_rank, qq.c_rank, qq.contains) != (gf[0].a_rank, gf[0].c_rank, gf[0].contains):
            problems.append(f"degree 7 {p}: GF(101) ranks {gf[0].a_rank}/{gf[0].c_rank}, "
                            f"Q ranks {qq.a_rank}/{qq.c_rank}")
    return problems


# -- sign8 ------------------------------------------------------------------------


def sign8_setup(seed: int) -> dict:
    lin = load_lineages()
    filtered = {6: replay_filtered(lin[6], 6), 7: replay_filtered(lin[7], 7)}
    return {"gen": liftgen.generate(8, filtered), "identity": published_identity()}


def sign8_operations(inp: dict):
    gen = inp["gen"]
    return [
        ("analyze/8/sign/QQ", partial(pipeline.analyze_degree, 8, QQ, "sign", generation=gen)),
        ("certify_new/QQ", partial(pipeline.certify_new, inp["identity"], 8, QQ, generation=gen)),
        ("analyze/8/sign/GF101", partial(pipeline.analyze_degree, 8, GF101, "sign", generation=gen)),
    ]


def even_skew_types(degree: int) -> int:
    """Binary types whose alternation the skew relations kill: those with an
    even skew generator (iota + sigma is then 2 in the sign representation)."""
    return sum(
        any(g.sign == 1 for g in freealg.skew_generators(t)) for t in freealg.binary_types(degree)
    )


def _mod(x, p: int) -> int:
    f = Fraction(x)
    return f.numerator * pow(f.denominator, p - 2, p) % p


def sign_problems(qq, gf, identity: pipeline.ExplicitIdentity) -> list[str]:
    problems = []
    if qq is not None:
        if qq.c_rank != even_skew_types(8):
            problems.append(f"sign8: c_rank {qq.c_rank}, expected {even_skew_types(8)}")
        if len(qq.new_rows) != 1:
            problems.append(f"sign8: {len(qq.new_rows)} new rows over Q, expected 1")
        elif pipeline.reconstruct_identity(qq.new_rows[0], 8).terms != identity.terms:
            problems.append("sign8: the new row over Q is not the published identity")
    if qq is not None and gf is not None:
        if (gf.a_rank, gf.c_rank) != (qq.a_rank, qq.c_rank):
            problems.append(f"sign8: GF(101) ranks {gf.a_rank}/{gf.c_rank}, Q ranks {qq.a_rank}/{qq.c_rank}")
        p = gf.field.characteristic
        if [tuple(r) for r in gf.new_rows] != [tuple(_mod(x, p) for x in r) for r in qq.new_rows]:
            problems.append("sign8: the GF(101) row is not the Q row mod 101")
    return problems


def sign8_check(inp: dict, results: dict) -> list[str]:
    qq = results.get("analyze/8/sign/QQ", [None])[0]
    gf = results.get("analyze/8/sign/GF101", [None])[0]
    problems = sign_problems(qq, gf, inp["identity"])
    cert = results.get("certify_new/QQ")
    if cert is not None and (cert.not_anticommutative_consequence, cert.is_LY_consequence) != (True, True):
        problems.append(f"sign8: certify_new gave {cert}, expected (True, True)")
    return problems


# -- oracle -----------------------------------------------------------------------


def load_so5() -> evallab.AlgebraSC:
    return evallab.load_algebra((HERE / "so5_cartan.json").read_text(encoding="utf-8"))


def oracle_setup(seed: int) -> dict:
    rng = random.Random(seed)
    generators = []
    for n, by_family in ORACLE_SAMPLE.items():
        identities = liftgen.generate(n).identities
        for family, k in sorted(by_family.items()):
            members = [i.polynomial for i in identities if i.lineage[0][1] == family]
            generators += rng.sample(members, k)
    algebras = {name: evallab.load_algebra(data_text(f"algebras/{name}.json")) for name in BUNDLED}
    return {"algebras": algebras, "so5": load_so5(), "generators": generators,
            "identity": published_identity()}


def oracle_gate(inp: dict) -> list[str]:
    """Set-up refuses the so(5) algebra unless it satisfies LY1-LY6."""
    return [f"so5_cartan: {v.render()}" for v in evallab.validate(inp["so5"])]


def oracle_operations(inp: dict):
    seed = ORACLE_CHECK_SEED
    # so5_cartan is validated by the gate, once per set-up
    ops = [(f"validate/{name}", partial(evallab.validate, alg)) for name, alg in inp["algebras"].items()]
    ops += [
        (f"check/g{k}/{name}", partial(evallab.check_identity, poly, alg, trials=ORACLE_TRIALS, seed=seed))
        for k, poly in enumerate(inp["generators"])
        for name, alg in inp["algebras"].items()
    ]
    ops.append(("check/theorem/so5_cartan",
                partial(evallab.check_identity, inp["identity"], inp["so5"], trials=1, seed=seed)))
    return ops


def oracle_check(inp: dict, results: dict) -> list[str]:
    problems = []
    for label, value in results.items():
        if label.startswith("validate/") and value:
            problems.append(f"{label}: {value[0].render()}")
        if label.startswith("check/") and not value.passed:
            problems.append(f"{label}: nonzero value {value.value} at {value.witness}")
    return problems


def negative_control_problems(result: evallab.CheckResult, poly, alg) -> list[str]:
    """The oracle must be able to fail: Jacobi fails on so(5) > Cartan with a
    witness whose re-evaluation gives the reported nonzero value."""
    if result.passed or result.witness is None or not any(result.value):
        return ["oracle: the Jacobi polynomial passed on so5_cartan"]
    if evallab.evaluate(poly, alg, result.witness) != result.value:
        return ["oracle: re-evaluating the Jacobi witness disagrees with the reported value"]
    return []


def oracle_verify(inp: dict, results: dict) -> list[str]:
    jac = jacobi()
    result = evallab.check_identity(jac, inp["so5"], trials=ORACLE_TRIALS, seed=ORACLE_CHECK_SEED)
    return negative_control_problems(result, jac, inp["so5"])


WORKLOADS = {
    "filter": Workload(filter_setup, filter_operations, filter_check, filter_verify),
    "scan7": Workload(scan7_setup, scan7_operations, scan7_check, scan7_verify),
    "sign8": Workload(sign8_setup, sign8_operations, sign8_check),
    "oracle": Workload(oracle_setup, oracle_operations, oracle_check, oracle_verify, oracle_gate),
}
