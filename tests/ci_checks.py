"""The heavy checks of the CI workflow, one step each, each run from the
repository root in an interpreter of its own, so its peak RSS is its own:

    RUNNER_TEMP=<scratch dir> python3 tests/ci_checks.py <step> [space]

A step prints what it measured and exits non-zero with one line per failed
check.  Standard library and tautring only: the genus2 job installs no test
extra.  Tier-1 shares the digest, coefficient counter and genus-2 checks."""

import hashlib
import json
import os
import pathlib
import resource
import sys
import time
from collections import Counter
from fractions import Fraction

from star_census import star_census
from tautring import graphs, relations
from tautring.relations import RelationDatabase, boundary_expression, monomial_class
from tautring.strata import boundary_divisor_class


def digest(data) -> str:
    """SHA-256 of the canonical JSON text of data, hashed in slices: no byte
    copy of a coefficient's whole (ASCII) text joins data in the peak RSS."""
    text = relations._canonical(data)
    sha = hashlib.sha256()
    for start in range(0, len(text), 1 << 16):
        sha.update(text[start:start + (1 << 16)].encode())
    return sha.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def count_coefficients(setattr=setattr) -> list:
    """The monomial of every relations.dr_relation_coefficient call from now
    on, its wrapper installed with setattr (monkeypatch.setattr in tier-1)."""
    calls = []
    inner = relations.dr_relation_coefficient

    def counting(g, a_monomial, *args, **kwargs):
        calls.append(tuple(a_monomial))
        return inner(g, a_monomial, *args, **kwargs)
    setattr(relations, "dr_relation_coefficient", counting)
    return calls


# the requests, as the full elimination writes them (v2 lines), space by space
GENUS_TWO_RECORDS = pathlib.Path(__file__).parent / "data" / "genus2_records.jsonl"
GENUS_TWO_SHA256 = {
    (2, 0, "kappa1"): "92d0abf48dcf340d40bd05271f30b9ead26a3a1035d0d5867518449f21c03649",
    (2, 1, "psi1^2"): "f63c0b53503e1bc5595da8b6c1ecb4ff10e84dc7f7b529c9ec3f16c9e83e2bbf",
    (2, 1, "kappa2"): "2cfb6acc38e52db7447812266b018d931858ab224d7a45eac211c08437c54d76",
    (2, 1, "psi1*kappa1"): "f48e7ac094e8fdbdf2faef388c2422cea216da184fce57fa83f2572ef0dd865c",
    (2, 2, "psi1^2"): "5b8ae3a2438acba91d920ccfb571a1c449304fddaf5076412223661ece818345",
    (2, 2, "psi1*psi2"): "4474ddc5731d54ee1aea3117306370b8b743bb89982298248f7e7bca3173dc76",
}

# (n, monomial): term count and SHA-256 of the star reduction on (2, n), whose
# strata carry loops and parallel edges that canonical labeling flips and permutes
GENUS_TWO_STAR_SHA256 = {
    (1, "psi1^2"): (5, "2df42cbacfaccf0e074f0ea9d75debb5da505c828a8b2310b4851932d5c877df"),
    (1, "kappa2"): (5, "797f1d18fb0cb03ad64c41e479bfa0e61cad5bdda3bf78f7b00d9879e5e3a5d7"),
    (1, "psi1*kappa1"): (5, "efe25a51362d467fdd6b7fae8e078fa9ff450ac7126bfd78af2e3e815e222830"),
    (2, "psi1^2"): (10, "f45b894395c663a17a8cc6f893ebe8e6d3189ebb5850ea4edd8ef6fd25c153f2"),
    (2, "psi1*psi2"): (15, "893d19dd38b7651ac0c4e352ff03e9f98bd50a529581c608b6b5051a860745f3"),
}

# (g, n, max edges): counts by h1, RSS bound in MB, SHA-256 of the graphs with their
# automorphism counts; kept candidates (270 MB) or tuple copies (56, 111 MB) break a bound
ENUMERATIONS = {
    (2, 7, 3): ({0: 46045, 1: 13821, 2: 376}, 45,
                "a8ba287c3f021052ced60a68417f239c5fcfa80acaab173ef00728a12a66a27e"),
    (3, 7, 3): ({0: 110230, 1: 29462, 2: 760, 3: 1}, 80,
                "d9a8b8b19f60e8ff0bf54fa9cce0147c8f674dfc0c28cb649a2a5c6004c861ac"),
}

DR_COEFFICIENT_SHA256 = {
    (6, 0, 0, 0, 0, 0): "a6ae74ba3956244653810857f61aa0e1cebd4b45c44081aa00b4df1b1153e27f",
    (1, 1, 1, 1, 1, 1): "3831b47bd34ddf39355ea1b77bebcea0c357f0270ef67ea8c13398e81934ca10",
}

# Hain's formula: on compact type Pixton's class is exp(theta_A), and theta^3 is
# homogeneous of degree 6 in A, so at A = (1, 0, 0, 0, 0, 0, -1) it is the compact-type
# part of the a1^6 coefficient: theta^3's term count and SHA-256
THETA_CUBED = (11452, "20fe84affea761ee018472d132e12122de6b265db1820b92d8f0d3437ab4f109")

# (g, n): the number of strata and SHA-256 of the census lines
STAR_CENSUS = {
    (2, 0): (25, "6f6f77b710ccd1084bee9332ac09ccecd07fa69a9ec6b5fb3dd465fb00e2fe80"),
    (2, 1): (158, "2b90ac8822e9d2dfb73364865922868953859b433a397facf20cbe5a6fdc6840"),
    (2, 2): (1458, "9725a87e87b4c2c4846620ca88ca7951d61175d99acd203e8a2313b62783183c"),
}


def _temp(name: str) -> str:
    return os.path.join(os.environ["RUNNER_TEMP"], name)


def enumeration(space: str):
    """A space "g,n,max_edges" of ENUMERATIONS, its automorphism counts equal to
    graph_classes', the peak RSS read before the digest's JSON text is built."""
    space = tuple(map(int, space.split(",")))
    recorded_h1, bound_mb, recorded = ENUMERATIONS[space]
    start = time.perf_counter()
    found = graphs.enumerate_stable_graphs(*space)
    enumerate_s = time.perf_counter() - start
    counts = [graphs.automorphism_count(g) for g in found]
    automorphism_s = time.perf_counter() - start - enumerate_s
    by_h1 = dict(sorted(Counter(g.h1 for g in found).items()))
    peak_mb = peak_rss_mb()
    sha = digest([[graphs.graph_to_json(g), c] for g, c in zip(found, counts)])
    print(f"{space}: {len(found)} graphs, by h1 {by_h1}, enumerated in {enumerate_s:.1f} s, "
          f"automorphisms in {automorphism_s:.1f} s, peak RSS {peak_mb:.1f} MB, sha256 {sha}")
    if by_h1 != recorded_h1:
        yield f"graph counts differ from {recorded_h1}"
    if peak_mb >= bound_mb:
        yield f"peak RSS {peak_mb:.1f} MB is not below {bound_mb} MB"
    if sha != recorded:
        yield f"the {space} graphs or automorphism counts differ from their recorded digest"
    if list(graphs.graph_classes(*space)) != list(zip(found, counts)):
        yield f"graph_classes{space} differs from automorphism_count on the enumerated graphs"


def dr_coefficients():
    for monomial, recorded in DR_COEFFICIENT_SHA256.items():
        start = time.perf_counter()
        coefficient = relations.dr_relation_coefficient(2, monomial)
        wall_s = time.perf_counter() - start
        sha = digest(coefficient.to_json())
        peak_mb = peak_rss_mb()
        print(f"{monomial} on (2, 7): {len(coefficient.terms)} terms in {wall_s:.1f} s, "
              f"peak RSS {peak_mb:.1f} MB, sha256 {sha}")
        if sha != recorded:
            yield f"the {monomial} coefficient differs from its recorded digest"
        if monomial == (6, 0, 0, 0, 0, 0):
            yield from hain_theta_cubed(coefficient)
            peak_mb = peak_rss_mb()
        if peak_mb >= 200:
            yield f"peak RSS {peak_mb:.1f} MB is not below 200 MB"


def hain_theta_cubed(coefficient):
    """theta^3 on (2, 7) at A = (1, 0, 0, 0, 0, 0, -1), from divisor products
    alone, against THETA_CUBED and the a1^6 coefficient's compact-type part."""
    start = time.perf_counter()
    theta = relations.theta_power_relation(2, 7, (1, 0, 0, 0, 0, 0, -1))
    wall_s = time.perf_counter() - start
    sha = digest(theta.to_json())
    print(f"theta^3 on (2, 7) at A = (1, 0, 0, 0, 0, 0, -1): {len(theta.terms)} terms in "
          f"{wall_s:.1f} s, peak RSS {peak_rss_mb():.1f} MB, sha256 {sha}")
    if (len(theta.terms), sha) != THETA_CUBED:
        yield "theta^3 on (2, 7) differs from its recorded digest"
    if coefficient.restrict("compact-type") != theta:
        yield "the compact-type part of the a1^6 coefficient is not theta^3 (Hain's formula)"


def psi1_squared():
    """psi1^2 on (2, 1), fresh: its core psi1^2*psi7 and two open monomials."""
    calls = count_coefficients()
    start = time.perf_counter()
    be = boundary_expression(2, 1, "psi1^2", RelationDatabase(_temp("psi1sq.jsonl")))
    wall_s = time.perf_counter() - start
    peak_mb = peak_rss_mb()
    sha = digest(be.to_json())
    print(f"psi1^2 on (2, 1): {len(be.value.terms)} terms from {len(calls)} DR coefficients "
          f"{calls} in {wall_s:.1f} s, peak RSS {peak_mb:.1f} MB, sha256 {sha}")
    if len(calls) != 3:
        yield f"{len(calls)} DR coefficients, not the 3 the psi1^2 core needs"
    if sha != GENUS_TWO_SHA256[(2, 1, "psi1^2")]:
        yield "psi1^2 on (2, 1) differs from its recorded digest"


def genus_two_checks(db, calls, genus_two_calls: int):
    """Yield a line per failed check of the GENUS_TWO_SHA256 requests on db and
    the GENUS_TWO_STAR_SHA256 reductions.  (2, 0) and (2, 1) make genus_two_calls
    DR coefficients (6 fresh, none on GENUS_TWO_RECORDS), their reductions then
    kappa1's and psi1's on (1, 1), and (2, 2), through _induct_n_route, none."""
    start = time.perf_counter()
    for n in (0, 1, 2):
        for g, _, key in (k for k in GENUS_TWO_SHA256 if k[1] == n):
            be = boundary_expression(g, n, key, db)
            sha = digest(be.to_json())
            at_s = time.perf_counter() - start
            print(f"{key} on ({g}, {n}): {len(be.value.terms)} terms at {at_s:.1f} s, "
                  f"{len(calls)} DR coefficients so far, sha256 {sha}")
            if sha != GENUS_TWO_SHA256[g, n, key]:
                yield f"{key} on ({g}, {n}) differs from its recorded digest"
        if n == 1 and len(calls) != genus_two_calls:
            yield f"{len(calls)} DR coefficients, not the {genus_two_calls} expected"
        for _, key in (k for k in GENUS_TWO_STAR_SHA256 if k[0] == n):
            reduced = relations.theorem_star_reduce(monomial_class(2, n, key), db)
            starred = all(map(relations.has_property_star, reduced.terms))
            sha = digest(reduced.to_json())
            print(f"star reduction of {key} on (2, {n}): {len(reduced.terms)} terms, "
                  f"all with property star: {starred}, sha256 {sha}")
            if not starred or (len(reduced.terms), sha) != GENUS_TWO_STAR_SHA256[n, key]:
                yield f"the star reduction of {key} on (2, {n}) changed"
    if calls[genus_two_calls:] != [(1, 1, 1, 1), (2, 1, 1, 0)]:
        yield f"DR coefficients {calls[genus_two_calls:]} after the genus-2 ones"
    # Mumford (1983): kappa1 = 12 lambda1 - delta, 10 lambda1 = delta_irr + 2 delta_1
    if boundary_expression(2, 0, "kappa1", db).value != \
            boundary_divisor_class(2, 0, ("irr",)) * Fraction(1, 5) \
            + boundary_divisor_class(2, 0, ("sep", 1, ())) * Fraction(7, 5):
        yield "kappa1 on (2, 0) is not delta_irr/5 + 7 delta_1/5"


def genus2_requests():
    """genus_two_checks on a fresh genus2.jsonl holding each GENUS_TWO_RECORDS line."""
    calls = count_coefficients()
    db = RelationDatabase(_temp("genus2.jsonl"))
    start = time.perf_counter()
    yield from genus_two_checks(db, calls, 6)
    with open(db.path, "rb") as stored, open(GENUS_TWO_RECORDS, "rb") as golden:
        for line in set(golden) - set(stored):
            yield f"golden record {json.loads(line)['key']} is not a recomputed line"
    wall_s = time.perf_counter() - start
    peak_mb = peak_rss_mb()
    print(f"{len(calls)} DR coefficients {calls}, wall {wall_s:.1f} s, peak RSS "
          f"{peak_mb:.1f} MB, database {os.path.getsize(db.path) / 2**20:.1f} MiB")
    if peak_mb >= 300:
        yield f"peak RSS {peak_mb:.1f} MB is not below 300 MB"


def decode_round_trip():
    """Reopen genus2.jsonl: every record must re-encode to its stored value text."""
    path = _temp("genus2.jsonl")
    start = time.perf_counter()
    db = RelationDatabase(path)
    open_s = time.perf_counter() - start
    stored = {}
    with open(path, "rb") as handle:
        for key, text in ((r["key"], r["value"]) for r in map(json.loads, handle)):
            stored.setdefault((key["g"], key["n"], key["monomial"]), text)
    decode_s, lemma = 0.0, []
    for key, text in stored.items():
        start = time.perf_counter()
        value = db.get(*key).value
        decode_s += time.perf_counter() - start
        if key[:2] == (2, 7):
            lemma.append(len(value.terms))
        if relations._canonical(value.to_json()) != text:
            yield f"record {key} does not re-encode to its stored text"
    print(f"{len(stored)} records, {len(lemma)} of them genus-2 elimination records of "
          f"{min(lemma)}-{max(lemma)} terms: open {open_s:.1f} s, decode {decode_s:.1f} s, "
          f"peak RSS {peak_rss_mb():.1f} MB")


def star_census_step():
    """The star census of each space of STAR_CENSUS on genus2.jsonl."""
    calls = count_coefficients()
    db = RelationDatabase(_temp("genus2.jsonl"))
    start = time.perf_counter()
    for (g, n), recorded in STAR_CENSUS.items():
        count, sha = star_census(g, n, db)
        print(f"star census of ({g}, {n}): {count} strata at "
              f"{time.perf_counter() - start:.1f} s, sha256 {sha}")
        if (count, sha) != recorded:
            yield f"the star census of ({g}, {n}) changed"
    print(f"{len(calls)} new DR coefficients {calls}, wall "
          f"{time.perf_counter() - start:.1f} s, peak RSS {peak_rss_mb():.1f} MB")


# in workflow order; enumeration runs once per space of ENUMERATIONS
STEPS = {"enumeration": enumeration, "dr-coefficients": dr_coefficients,
         "psi1-squared": psi1_squared, "genus2-requests": genus2_requests,
         "decode-round-trip": decode_round_trip, "star-census": star_census_step}

if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in STEPS:
        sys.exit(f"usage: ci_checks.py {{{','.join(STEPS)}}} [space]")
    sys.exit("\n".join(STEPS[sys.argv[1]](*sys.argv[2:])) or None)
