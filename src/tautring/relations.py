"""Relation pipelines: theta-divisor powers, each factor one call of
strata.mul_divisor_sum (the one divisor product) on the generators that
theta_generators sums through strata._generator_sums, double-ramification
relation coefficients, the descending Gaussian elimination producing boundary
expressions for psi-monomials, the general boundary-expression recursion, and
the property-star reduction, backed by a persistent relation database.

The double-ramification relation in degree g+1 is normalized as
(g+1)! times the degree-(g+1) part of the constant-term class, so that its
compact-type restriction is literally the (g+1)-st theta power.  Coefficients
of top-degree ramification monomials are extracted on the (2g+3)-marked space
by exact finite differences over integer evaluations only, before any
multiplication or pushforward.  The difference is taken graph by graph on the
per-graph scalars of the Pixton layer (pixton.weighted_constant_term), so no
DR class is built at a stencil point and none is cached; dr_relation takes
the same per-graph route at the one point A, uncached.  Symbolic
ramification variables appear solely in compact-type theta computations,
where polynomiality is manifest.

_lemma_record reads and writes the elimination records (degree-(g+1)
psi-monomials on the (2g+3)-marked space) and boundary_expression every other
record; no other route stores, and where genus 0 and 1 give an elimination
key a second route, each refuses the other's record.  psi1 and kappa1 on the
one-marked genus-one space each come from one pushed DR coefficient.  Every
solve of one relation for its target monomial, in the elimination, in each
route and in solve_monomial_relations, is _solve_for_target.
"""

from __future__ import annotations

import fcntl
import hashlib
import itertools
import json
import math
import os
import re
from fractions import Fraction

from .algebra import MultiPoly, bounded_tuples, finite_difference_stencil
from .graphs import is_stable_pair, trivial_graph
from .pixton import validate_ramification, weighted_constant_term
from .strata import (
    StrataTerm,
    TautClass,
    _generator_sums,
    _splice,
    boundary_divisor_class,
    check_exponents,
    check_monomial,
    mul_divisor_sum,
)


class RelationPipelineError(RuntimeError):
    """A structural guarantee of the elimination failed (internal defect)."""


class CacheIntegrityError(RuntimeError):
    """A stored relation record failed its content-hash check or did not
    decode: on opening the file, or when its key is first read or stored."""


class CacheConsistencyError(RuntimeError):
    """A recomputed relation differs from the stored record."""


# ---------------------------------------------------------------------------
# Theta divisor and its powers
# ---------------------------------------------------------------------------

def theta_generators(g: int, n: int, A=None):
    """The theta pullback as a list of (generator, coefficient) pairs.

    Generators are ('psi', i) or canonical separating divisors, the psi part
    first; coefficients are Fractions for an integer ramification vector A,
    or polynomials in a1..an when A is None.  strata._generator_sums merges
    the (h, P) <-> (g-h, complement) double count of the defining sum and
    turns its unstable divisors into psi classes.
    """
    if A is not None:
        A = validate_ramification(A)
        if len(A) != n:
            raise ValueError("ramification vector length differs from n")
        a, zero = A, Fraction(0)
    else:
        variables = tuple(f"a{i}" for i in range(1, n + 1))
        a = [MultiPoly.variable(variables, v) for v in variables]
        zero = MultiPoly(variables)

    terms = []
    for h in range(g + 1):
        for size in range(n + 1):
            for P in itertools.combinations(range(1, n + 1), size):
                lin = sum((a[i - 1] for i in P), zero)
                terms.append((("sep", h, P), lin * lin * Fraction(-1, 4)))
    return [(key, coeff) for part in _generator_sums(g, n, terms)
            for key, coeff in part.items() if coeff != 0]


def theta_divisor(g: int, n: int, A=None) -> TautClass:
    """Pullback of the theta divisor along the Abel-Jacobi section."""
    return mul_divisor_sum(TautClass.fundamental(g, n), theta_generators(g, n, A))


def theta_power_relation(g: int, n: int, A=None) -> TautClass:
    """The (g+1)-st power of the theta pullback; its compact-type restriction
    is a relation."""
    gens = theta_generators(g, n, A)
    out = TautClass.fundamental(g, n)
    for _ in range(g + 1):
        out = mul_divisor_sum(out, gens)
    return out


# ---------------------------------------------------------------------------
# Double-ramification relations and coefficient extraction
# ---------------------------------------------------------------------------

def dr_relation(g: int, A) -> TautClass:
    """(g+1)! times the degree-(g+1) part of the constant-term class on the
    space with len(A) markings (per-graph route); zero in the Chow ring."""
    return weighted_constant_term(g, [(A, 1)], g + 1) * math.factorial(g + 1)


def dr_relation_coefficient(g: int, a_monomial, psi_multiplier=None,
                            forget=()) -> TautClass:
    """Coefficient of a ramification monomial in the pushed relation.

    a_monomial lists exponents of a_1..a_{2g+2} (a_{2g+3} is eliminated as
    minus the sum); the monomial must have total degree 2g+2.  The multiplier
    is a psi-monomial applied upstairs before forgetting the legs in
    `forget`, which must be the top labels down to the target.  Every step is
    linear, so the coefficient is taken once upstairs, by exact finite
    differences of the DR relation over integer A-points (on per-graph
    scalars, never on classes at the points), and only that one class is
    multiplied and pushed forward.
    """
    n_up = 2 * g + 3
    a_monomial = tuple(a_monomial)
    if len(a_monomial) != 2 * g + 2:
        raise ValueError("monomial must list exponents of a_1..a_{2g+2}")
    check_exponents(a_monomial)
    if sum(a_monomial) != 2 * g + 2:
        raise ValueError("monomial degree must be exactly 2g+2")
    mult = dict(psi_multiplier or {})
    if any(type(i) is not int or not 1 <= i <= n_up for i in mult):
        raise ValueError(f"multiplier labels {list(mult)} must be ints in 1..{n_up}")
    check_exponents(mult.values())
    forget = tuple(forget)
    target_n = n_up - len(forget)
    if any(type(i) is not int for i in forget) or \
            sorted(forget) != list(range(target_n + 1, n_up + 1)):
        raise ValueError(f"forgotten legs {forget} must be the int labels "
                         f"{target_n + 1}..{n_up}")
    for i in forget:
        if i != n_up and mult.get(i, 0) < 1:
            raise ValueError(
                f"multiplier must contain psi_{i} to forget leg {i}")
    stencil = [(point + (-sum(point),), weight) for point, weight
               in finite_difference_stencil(a_monomial, 2 * g + 2)]
    upstairs = weighted_constant_term(g, stencil, g + 1) * math.factorial(g + 1)
    return upstairs.mul_monomial(psi_exps=mult).pushforward_to(target_n)


# ---------------------------------------------------------------------------
# Monomial bookkeeping
# ---------------------------------------------------------------------------

def monomial_key(psi_exps: dict, kappas: dict) -> str:
    bits = []
    for i in sorted(k for k, v in psi_exps.items() if v):
        e = psi_exps[i]
        bits.append(f"psi{i}" + (f"^{e}" if e > 1 else ""))
    for a in sorted(k for k, v in kappas.items() if v):
        x = kappas[a]
        bits.append(f"kappa{a}" + (f"^{x}" if x > 1 else ""))
    return "*".join(bits) if bits else "1"


def parse_monomial(text: str):
    psi: dict = {}
    kappa: dict = {}
    text = text.strip()
    if text in ("", "1"):
        return psi, kappa
    for piece in text.split("*"):
        m = re.fullmatch(r"(psi|kappa)(\d+)(?:\^(\d+))?", piece.strip())
        if not m:
            raise ValueError(f"cannot parse monomial piece {piece!r}")
        store = psi if m.group(1) == "psi" else kappa
        idx = int(m.group(2))
        store[idx] = store.get(idx, 0) + int(m.group(3) or 1)
    return psi, kappa


def open_monomial_decomposition(c: TautClass):
    """Decompose the edgeless part of a class as {monomial key: coefficient};
    also returns the boundary remainder."""
    open_part = {}
    boundary = TautClass(c.g, c.n)
    for term, coeff in c.terms.items():
        if term.graph.n_edges == 0:
            psi = {i + 1: e for i, e in enumerate(term.psi_leg) if e}
            kappa = {a: x for a, x in term.kappa[0]}
            open_part[monomial_key(psi, kappa)] = coeff
        else:
            boundary._accumulate(term, coeff)
    return open_part, boundary


def monomial_class(g: int, n: int, key: str) -> TautClass:
    psi, kappa = parse_monomial(key)
    return TautClass.monomial(g, n, psi_exps=psi, kappas=kappa)


# ---------------------------------------------------------------------------
# Relation database
# ---------------------------------------------------------------------------

class BoundaryExpression:
    """A class supported on the boundary plus the provenance of how it was
    produced."""

    __slots__ = ("value", "provenance")

    def __init__(self, value: TautClass, provenance):
        for term in value.terms:
            if term.graph.n_edges == 0:
                raise RelationPipelineError(
                    "boundary expression contains an edgeless stratum")
        self.value = value
        self.provenance = list(provenance)
        if not value.is_zero() and not self.provenance:
            raise RelationPipelineError("nonzero boundary expression without provenance")

    def to_json(self) -> dict:
        return {"value": self.value.to_json(), "provenance": self.provenance}

    @classmethod
    def from_json(cls, data: dict) -> "BoundaryExpression":
        return cls(TautClass.from_json(data["value"]), data["provenance"])


# what a record that is not valid JSON, or not a valid class, raises on decoding
_UNREADABLE = (ValueError, LookupError, TypeError, ArithmeticError,
               AttributeError, RelationPipelineError)


def _canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _record_hash(key_json: dict, value_json: dict) -> str:
    """The SHA-256 of a v1 record: its key and decoded value, not its
    provenance."""
    return hashlib.sha256(
        _canonical({"key": key_json, "value": value_json}).encode()).hexdigest()


def _text_hash(key_json: dict, provenance, value_text: str) -> str:
    """The SHA-256 of a v2 record: its key, its provenance and the exact
    text of its value."""
    blob = _canonical([key_json, provenance]) + "\n" + value_text
    return hashlib.sha256(blob.encode()).hexdigest()


def _read_record(line: bytes) -> tuple:
    """A stored line checked against its SHA-256, as ((g, n, monomial), its
    canonical value text, its provenance): the one reader of record versions."""
    rec = json.loads(line)
    key_json, provenance = rec["key"], rec["provenance"]
    if "v" not in rec:
        value_text = _canonical(rec["value"])
        digest = _record_hash(key_json, rec["value"])
    elif rec["v"] == 2 and type(rec["v"]) is int:
        # a value that is not text fails the concatenation: TypeError
        value_text = rec["value"]
        digest = _text_hash(key_json, provenance, value_text)
    else:
        raise ValueError(f"unknown record version {rec['v']!r}")
    if digest != rec["sha256"]:
        raise ValueError(f"corrupt record for key {key_json}")
    key = (key_json["g"], key_json["n"], key_json["monomial"])
    # a float or bool g or n would match the int key
    if [type(x) for x in key] != [int, int, str]:
        raise ValueError(f"key {key_json} is not two ints and a monomial")
    if type(provenance) is not list or any(type(p) is not str for p in provenance):
        raise ValueError(f"provenance {provenance!r} is not a list of strings")
    return key, value_text, provenance


def _check_space(key: tuple, value: TautClass) -> None:
    if (value.g, value.n) != key[:2]:
        raise ValueError(f"record for key {key} holds a class on "
                         f"({value.g}, {value.n})")


class RelationDatabase:
    """Append-only, content-addressed store of boundary expressions keyed by
    (g, n, monomial); recomputation must reproduce stored values bit-exactly
    or fail loudly.

    Each line is one record, written as `{"key": {"g", "n", "monomial"},
    "provenance": [...], "sha256": ..., "v": 2, "value": "<canonical JSON
    text of the class>"}` and hashed over its key, provenance and exact
    value text.  A line without "v" is a v1 record, its class inline and
    hashed with its key but not its provenance; it is read, never written.
    Any other "v" is corrupt.

    Only the open knows versions.  It checks every line's JSON, SHA-256, key
    (two ints and a monomial) and provenance (a list of strings), and keeps
    per key the line number, the canonical value text (a v1 value
    re-serialized) and the provenance; a key on two lines must hold one
    text, and its first line is kept.  That text is decoded into a class on
    the key's space when the key is first read or stored.  A failure at
    either time is a `CacheIntegrityError`.  A missing file is an empty
    database, but a missing directory fails the open with FileNotFoundError.
    A store reads its own line back first: one the open refuses is a ValueError."""

    def __init__(self, path=None):
        self.path = path
        self.records: dict = {}
        if path is None:
            return
        try:
            # bytes: json.loads decodes each line, so an undecodable line is
            # reported like every other corrupt record
            handle = open(path, "rb")
        except FileNotFoundError:
            # a new database is created by its first store; a missing
            # directory would only fail there, after the work is done
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise
            return
        with handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                # a torn or hand-edited line is corruption, not bad input
                try:
                    key, value_text, provenance = _read_record(line)
                    first = self.records.setdefault(
                        key, (lineno, value_text, provenance))
                    if first[1] != value_text:
                        raise ValueError(f"key {key} holds another value "
                                         f"than on line {first[0]}")
                except _UNREADABLE as exc:
                    raise self._unreadable(lineno, exc) from exc

    def _unreadable(self, lineno: int, exc: Exception) -> CacheIntegrityError:
        return CacheIntegrityError(
            f"unreadable record on line {lineno} of {self.path}: {exc!r}")

    def get(self, g: int, n: int, monomial: str):
        key = (g, n, monomial)
        entry = self.records.get(key)
        if type(entry) is tuple:
            lineno, value_text, provenance = entry
            try:
                entry = BoundaryExpression.from_json(
                    {"value": json.loads(value_text), "provenance": provenance})
                _check_space(key, entry.value)
            except _UNREADABLE as exc:
                raise self._unreadable(lineno, exc) from exc
            self.records[key] = entry
        return entry

    def store(self, g: int, n: int, monomial: str,
              expression: BoundaryExpression) -> BoundaryExpression:
        key = (g, n, monomial)
        if key in self.records:
            stored = self.get(g, n, monomial)
            if stored is not expression and stored.value != expression.value:
                raise CacheConsistencyError(
                    f"recomputed value for {key} differs from the stored record")
            return stored
        key_json = {"g": g, "n": n, "monomial": monomial}
        value_text = _canonical(expression.value.to_json())
        rec = {"v": 2, "key": key_json, "provenance": expression.provenance,
               "sha256": _text_hash(key_json, expression.provenance, value_text),
               "value": value_text}
        line = (json.dumps(rec, sort_keys=True) + "\n").encode("utf-8")
        # a line the open or get would refuse poisons the file: refused first
        _read_record(line)
        _check_space(key, expression.value)
        self.records[key] = expression
        if self.path is not None:
            # one locked write per record: processes sharing the file cannot
            # interleave their lines, and a last line left without its
            # newline gets one before this line follows it
            with open(self.path, "a+b") as handle:
                fcntl.flock(handle, fcntl.LOCK_EX)
                end = handle.seek(0, os.SEEK_END)
                if end and os.pread(handle.fileno(), 1, end - 1) != b"\n":
                    line = b"\n" + line
                handle.write(line)
        return expression


# ---------------------------------------------------------------------------
# The descending elimination on the (2g+3)-marked space
# ---------------------------------------------------------------------------

def _psi_monomial_key(exps: tuple) -> str:
    return monomial_key({i + 1: e for i, e in enumerate(exps) if e}, {})


def _elimination_monomial(g: int, K: tuple, k: int) -> tuple:
    """The ramification monomial isolating Psi_K psi_{2g+3}^{k-1}."""
    width = 2 * g + 2
    I_K = [i for i in range(1, width + 1) if K[i - 1] == 0]
    if len(I_K) < 2 * (k - 1):
        raise RelationPipelineError("too few zero slots for the elimination step")
    j = I_K[2 * (k - 1) - 1] if k >= 2 else 0
    m = []
    for i in range(1, width + 1):
        if K[i - 1]:
            m.append(2 * K[i - 1])
        elif i <= j:
            m.append(1)
        else:
            m.append(0)
    if sum(m) != width:
        raise RelationPipelineError("elimination monomial has the wrong degree")
    return tuple(m)


def psi_boundary_lemma(g: int, db: RelationDatabase | None = None) -> dict:
    """Boundary expressions for every degree-(g+1) psi-monomial on the
    (2g+3)-marked space of genus g, by descending elimination on the power of
    the last psi-class, stage by stage; records already in db are read, not
    recomputed.  Returns {monomial key: BoundaryExpression}."""
    db = db or RelationDatabase()
    width = 2 * g + 2
    targets = [(0,) * width + (g + 1,)] + [
        K + (k - 1,) for k in range(g + 1, 0, -1)
        for K in _compositions(g + 2 - k, width)]
    return {_psi_monomial_key(t): _lemma_record(g, t, db) for t in targets}


def _lemma_record(g: int, exps: tuple, db: RelationDatabase) -> BoundaryExpression:
    """The boundary expression of the degree-(g+1) psi-monomial with exponents
    exps on the (2g+3)-marked space: read from db, or solved from its
    elimination coefficient and stored, after the other open monomials of
    that coefficient (each with a higher power of psi_{2g+3}) are."""
    n = 2 * g + 3
    key = _psi_monomial_key(exps)
    stored = db.get(g, n, key)
    if stored is not None:
        _check_writer(g, n, key, stored, elimination=True)
        return stored
    if g == 0:
        # every degree-one psi-monomial on the three-marked space already
        # exceeds the dimension, so the expressions are zero
        return db.store(g, n, key, BoundaryExpression(TautClass(g, n), []))
    k = exps[-1] + 1
    m = _elimination_monomial(g, exps[:-1], k)
    # The doubled-divisor normalization 2^{g+1} (g+1)! [omega]_{g+1} makes
    # every pivot the literal multinomial coefficient of the squared bracket;
    # the produced boundary expressions are scale-independent.
    rel = dr_relation_coefficient(g, m) * Fraction(2 ** (g + 1))
    open_part, boundary = open_monomial_decomposition(rel)
    # base (k = g+2): the all-ones monomial isolates psi_{2g+3}^{g+1}
    if k == g + 2 and open_part != {key: math.factorial(2 * g + 2)}:
        raise RelationPipelineError(f"base step expected (2g+2)! {key}, got {open_part}")
    _check_key_observation(g, m, open_part)
    c_k = open_part.get(key, 0)
    if not (c_k > 0 and c_k.denominator == 1):
        raise RelationPipelineError(
            f"pivot for {key} is not a positive integer: {c_k}")

    def fetch(other_key):
        other = _psi_exps_from_key(other_key, n)
        if other[-1] < k:
            raise RelationPipelineError(
                f"unresolved open monomial {other_key} in step {key}")
        return _lemma_record(g, other, db)

    value = _solve_for_target(open_part, boundary, key, fetch, [])
    stage = "base step" if k == g + 2 else f"stage k={k}"
    return db.store(g, n, key, BoundaryExpression(
        value, [f"dr-coefficient g={g} monomial={m} ({stage})"]))


def _check_writer(g, n, key, stored, elimination) -> None:
    """Refuse a stored record of an elimination key that the other route
    wrote: genus 0 and 1 give those keys two different valid values.  A zero
    record with no provenance belongs to both routes."""
    if stored.provenance and elimination != stored.provenance[0].startswith(
            f"dr-coefficient g={g} "):
        raise CacheConsistencyError(
            f"stored record for {(g, n, key)} was written by another route")


def _compositions(total: int, width: int):
    """Exponent tuples of the given width summing to total, in
    lexicographic order."""
    return (t for t in bounded_tuples(width, total) if sum(t) == total)


def _psi_exps_from_key(key: str, n: int) -> tuple:
    psi, kappa = parse_monomial(key)
    if kappa:
        raise RelationPipelineError(f"unexpected kappa factor in {key}")
    return tuple(psi.get(i, 0) for i in range(1, n + 1))


def _check_key_observation(g: int, m: tuple, open_part: dict):
    """Structural filter: the coefficient of a monomial that is not a multiple
    of a_j^{2k} contains no psi-monomial multiple of psi_j^k."""
    n = 2 * g + 3
    for key in open_part:
        exps = _psi_exps_from_key(key, n)
        for j in range(1, 2 * g + 3):  # the last label is unconstrained
            if exps[j - 1] > m[j - 1] // 2:
                raise RelationPipelineError(
                    f"monomial {key} violates the divisibility observation for j={j}")


# ---------------------------------------------------------------------------
# Boundary expressions on general spaces
# ---------------------------------------------------------------------------

def boundary_expression(g: int, n: int, monomial, db: RelationDatabase | None = None,
                        _active=None) -> BoundaryExpression:
    """Express a psi/kappa monomial of degree k as a boundary class.

    Requires k >= g for n >= 1 (k >= 1 in genus zero, k >= g-1 for n = 0);
    classes of degree beyond the dimension are zero.  The result and every
    expression it requests are memoized here or, for elimination records,
    in _lemma_record; no other route stores.
    """
    if not is_stable_pair(g, n):
        raise ValueError(f"(g, n) = ({g}, {n}) is not a stable pair")
    db = db or RelationDatabase()
    if isinstance(monomial, str):
        psi, kappa = parse_monomial(monomial)
    else:
        psi, kappa = dict(monomial[0]), dict(monomial[1])
    check_monomial(n, psi, kappa)
    psi = {i: e for i, e in psi.items() if e}
    kappa = {a: x for a, x in kappa.items() if x}
    key = monomial_key(psi, kappa)
    deg = sum(psi.values()) + sum(a * x for a, x in kappa.items())
    threshold = 1 if g == 0 else (g - 1 if n == 0 else g)
    if deg < threshold:
        raise ValueError(
            f"degree {deg} below the vanishing threshold {threshold} on ({g},{n})")
    cached = db.get(g, n, key)
    if cached is not None:
        if g <= 1 and n == 2 * g + 3 and not kappa and deg == g + 1:
            _check_writer(g, n, key, cached, elimination=False)
        return cached
    if deg > 3 * g - 3 + n:
        return db.store(g, n, key, BoundaryExpression(TautClass(g, n), []))
    _active = set() if _active is None else _active
    token = (g, n, key)
    if token in _active:
        raise RelationPipelineError(f"cyclic boundary-expression request {token}")
    _active.add(token)
    try:
        be = _boundary_expression_route(g, n, psi, kappa, db, _active)
    finally:
        _active.discard(token)
    return db.store(g, n, key, be)


def _solve_for_target(open_part: dict, boundary: TautClass, target_key: str,
                      fetch, provenance: list) -> TautClass:
    """The one solve step: the Chow-zero relation open_part + boundary solved
    for its target.  The boundary, scaled by -1/pivot into a class of its
    own, gets fetch(key) * coeff of each other open monomial added in order,
    and each fetched provenance is appended; fetched records stay as stored."""
    pivot = open_part.pop(target_key, 0)
    if pivot == 0:
        raise RelationPipelineError(
            f"relation lost its target {target_key} (zero pivot)")
    scale = Fraction(-1) / pivot
    acc = boundary * scale
    for key, coeff in open_part.items():
        sub = fetch(key)
        provenance.extend(sub.provenance)
        acc._add_in_place(sub.value * (coeff * scale))
    return acc


def _solve_by_requests(g, n, relation, target_key, provenance, db, _active):
    """_solve_for_target on (g, n), the other open monomials requested."""
    value = _solve_for_target(*open_monomial_decomposition(relation), target_key,
                              lambda key: boundary_expression(g, n, key, db, _active),
                              provenance)
    return BoundaryExpression(value, provenance)


def _boundary_expression_route(g, n, psi, kappa, db, _active) -> BoundaryExpression:
    if (g, n) == (1, 1):
        # psi1 or kappa1: every other monomial here exceeds the dimension
        return _one_marked_base(monomial_key(psi, kappa), db, _active)
    if g <= 1 and psi:
        if not kappa and list(psi.values()) == [1]:
            return _psi_pullback_route(g, n, min(psi), db, _active)
        return _peel_psi_route(g, n, psi, kappa, db, _active)
    if g == 0:
        return _genus0_kappa_route(n, kappa, db, _active)
    if n == 0:
        return _unmarked_route(g, kappa, db, _active)
    if n == 2 * g + 3 and not kappa and sum(psi.values()) == g + 1:
        # genus >= 2: the elimination alone writes these records
        return _lemma_record(g, tuple(psi.get(i, 0) for i in range(1, n + 1)), db)
    if n >= 2 and any(psi.get(i, 0) == 0 for i in range(1, n + 1)):
        return _induct_n_route(g, n, psi, kappa, db, _active)
    return _p_route(g, n, psi, kappa, db, _active)


def _psi_pullback_route(g, n, i, db, _active) -> BoundaryExpression:
    """psi_i in genus 0 and 1 by pullback induction: the pullback of psi_i
    from one fewer marking plus the bubble carrying i and n."""
    if i == n:
        return _relabel_route(g, n, {n: 1}, {}, 1, db, _active)
    inner = boundary_expression(g, n - 1, ({i: 1}, {}), db, _active)
    bubble = boundary_divisor_class(g, n, ("sep", 0, (i, n)))
    return BoundaryExpression(inner.value.forget_pullback() + bubble,
                              inner.provenance + [f"pullback psi{i} from ({g},{n-1})"])


def _relabel_route(g, n, psi, kappa, i, db, _active) -> BoundaryExpression:
    """The monomial with labels i and n swapped, relabeled back."""
    swap = {j: j for j in range(1, n + 1)}
    swap[i], swap[n] = n, i
    swapped = {swap[j]: e for j, e in psi.items()}
    inner = boundary_expression(g, n, (swapped, kappa), db, _active)
    return BoundaryExpression(inner.value.relabel_legs(swap),
                              inner.provenance + [f"relabel {i}<->{n}"])


def _genus0_kappa_route(n, kappa, db, _active) -> BoundaryExpression:
    """kappa-monomials in genus 0: kappa_a - pi_*(B), B the boundary expression
    of psi_{n+1}^{a+1}, solved for kappa_a, times the rest.  kappa_a is its
    only open monomial: all of psi_{n+1}^{a+1} sits on the vertex carrying
    n+1, and a three-pointed genus-0 bubble carries no decoration, so pi_*
    contracts no edge of B."""
    a = min(kappa)
    rest = dict(kappa)
    rest[a] -= 1
    upstairs = boundary_expression(0, n + 1, ({n + 1: a + 1}, {}), db, _active)
    provenance = list(upstairs.provenance) + [f"pushforward of psi{n+1}^{a+1}"]
    relation = TautClass.kappa(0, n, a) - upstairs.value.forget_pushforward()
    solved = _solve_by_requests(0, n, relation, monomial_key({}, {a: 1}),
                                provenance, db, _active)
    value = solved.value.mul_monomial(kappas={k: v for k, v in rest.items() if v})
    return BoundaryExpression(value, provenance +
                              [f"multiply by {monomial_key({}, rest)}"])


def _peel_psi_route(g, n, psi, kappa, db, _active) -> BoundaryExpression:
    """Genus 0 and 1: one psi factor as a boundary class times the rest of
    the monomial."""
    i = min(psi)
    base = boundary_expression(g, n, ({i: 1}, {}), db, _active)
    rest_psi = dict(psi)
    rest_psi[i] -= 1
    value = base.value.mul_monomial(psi_exps=rest_psi, kappas=kappa)
    return BoundaryExpression(value, base.provenance +
                              [f"multiply by {monomial_key(rest_psi, kappa)}"])


def _formal_monomial_pullback(g, n, psi, kappa) -> TautClass:
    """forget_pullback, from n-1 to n markings, of an edgeless monomial.

    Its one-vertex stratum is built without canonical_term's dimension filter
    (the trivial graph is its own canonical form), so the expansion on the
    larger space is valid even when the monomial itself vanishes on the
    smaller space for dimension reasons (the expansion is then a relation)."""
    stratum = StrataTerm(trivial_graph(g, n - 1),
                         (tuple(sorted((a, x) for a, x in kappa.items() if x)),),
                         tuple(psi.get(i, 0) for i in range(1, n)), ())
    return TautClass(g, n - 1, {stratum: Fraction(1)}).forget_pullback()


def _induct_n_route(g, n, psi, kappa, db, _active) -> BoundaryExpression:
    """Pull a monomial missing some psi back from one fewer marking."""
    if psi.get(n, 0):
        missing = next(i for i in range(1, n + 1) if psi.get(i, 0) == 0)
        return _relabel_route(g, n, psi, kappa, missing, db, _active)
    inner = boundary_expression(g, n - 1, (psi, kappa), db, _active)
    pulled = inner.value.forget_pullback()
    provenance = list(inner.provenance) + [f"pullback from ({g},{n-1})"]
    # the formal pullback expansion is the monomial plus corrections with
    # positive psi_n or an extra bubble, and it equals the pulled boundary
    # expression even when the monomial vanishes on the smaller space
    relation = _formal_monomial_pullback(g, n, psi, kappa) - pulled
    return _solve_by_requests(g, n, relation, monomial_key(psi, kappa),
                              provenance, db, _active)


def _one_marked_base(key: str, db, _active) -> BoundaryExpression:
    """psi1 or kappa1 on the one-marked genus-one space, from one coefficient
    of the pushed degree-two relation: a1a2a3a4 holds 144 kappa1 as its only
    open part, a1^2a2a3 holds 72 kappa1 + 24 psi1 (kappa1 is requested)."""
    monomial, label = {"kappa1": ((1, 1, 1, 1), "a1a2a3a4"),
                       "psi1": ((2, 1, 1, 0), "a1^2a2a3")}[key]
    relation = dr_relation_coefficient(1, monomial, {2: 1, 3: 1, 4: 1}, (2, 3, 4, 5))
    return _solve_by_requests(1, 1, relation, key,
                              [f"coefficient {label} of the pushed relation"],
                              db, _active)


def solve_monomial_relations(relations) -> dict:
    """Exact Gaussian elimination over the edgeless monomials of the given
    Chow-zero relations; returns boundary expressions for every monomial the
    system determines.  Rows are kept as sparse {monomial: Fraction} maps
    with a boundary class on the right-hand side.  No route calls it."""
    rows = []
    for rel, label in relations:
        open_part, boundary = open_monomial_decomposition(rel)
        if "1" in open_part:
            raise RelationPipelineError("relation with a fundamental-class term")
        rows.append([dict(open_part), -boundary, [label]])
    solved: dict = {}
    while True:
        rows = [r for r in rows if r[0]]
        if not rows:
            break
        row = min(rows, key=lambda r: len(r[0]))
        rows.remove(row)
        coeffs, rhs, provenance = row
        pivot_key = sorted(coeffs)[0]
        pivot = coeffs.pop(pivot_key)
        inv = Fraction(1) / pivot
        coeffs = {m: c * inv for m, c in coeffs.items()}
        rhs = rhs * inv
        for other in rows:
            factor = other[0].pop(pivot_key, None)
            if factor is None:
                continue
            for m, c in coeffs.items():
                val = other[0].get(m, Fraction(0)) - c * factor
                if val == 0:
                    other[0].pop(m, None)
                else:
                    other[0][m] = val
            other[1]._add_in_place(rhs * -factor)
            other[2] = other[2] + provenance
        solved[pivot_key] = (coeffs, rhs, provenance)
    out: dict = {}

    def resolve(mkey):
        if mkey not in solved:
            raise RelationPipelineError(f"system does not determine {mkey}")
        if mkey not in out:
            coeffs, rhs, provenance = solved[mkey]
            # the row reads mkey + sum c * m - rhs = 0; solved[mkey] stays as it is
            provenance = list(provenance)
            out[mkey] = BoundaryExpression(_solve_for_target(
                {mkey: 1, **coeffs}, -rhs, mkey, resolve, provenance), provenance)
        return out[mkey]

    for mkey in list(solved):
        resolve(mkey)
    return out


def _p_route(g, n, psi, kappa, db, _active) -> BoundaryExpression:
    """Boundary expression through a pushed psi-monomial from the
    (2g+3)-marked space (the kappa-producing pushforward route)."""
    width = 2 * g + 3
    kappas_sorted = sorted(kappa.items())
    slots = []
    for a, x in kappas_sorted:
        slots.extend([a] * x)
    if n + len(slots) > 2 * g + 2:
        # too many kappa factors for the slot count: peel one off; the
        # remaining monomial still has degree >= g by the dimension bound
        a = slots[-1]
        rest = dict(kappa)
        rest[a] -= 1
        inner = boundary_expression(
            g, n, (psi, {k: v for k, v in rest.items() if v}), db, _active)
        return BoundaryExpression(inner.value.mul_kappa(a),
                                  inner.provenance + [f"multiply by kappa{a}"])
    exps = [0] * width
    for i in range(1, n + 1):
        exps[i - 1] = psi.get(i, 0)
    for j, a in enumerate(slots):
        exps[n + j] = a + 1
    for j in range(n + len(slots), 2 * g + 2):
        exps[j] = 1
    exps[width - 1] = 1
    K = _choose_core(g, n, tuple(exps))
    core = _lemma_record(g, K, db)
    mult = {i + 1: e - K[i] for i, e in enumerate(exps) if e - K[i] > 0}
    pushed = core.value.mul_monomial(psi_exps=mult).pushforward_to(n)
    provenance = core.provenance + [
        f"push core {_psi_monomial_key(K)} * {monomial_key(mult, {})} down to n={n}"]
    direct = TautClass.monomial(g, width, psi_exps={
        i + 1: e for i, e in enumerate(exps) if e}).pushforward_to(n)
    relation = direct - pushed        # Chow-zero with edgeless lead terms
    return _solve_by_requests(g, n, relation, monomial_key(psi, kappa),
                              provenance, db, _active)


def _choose_core(g, n, exps: tuple) -> tuple:
    """A degree-(g+1) sub-exponent vector satisfying the elimination-side
    constraints for the pushforward route."""
    width = 2 * g + 3
    ranges = []
    for i in range(width):
        upper = exps[i] if (i < n or i == width - 1) else max(exps[i] - 1, 0)
        ranges.append(range(min(upper, g + 1) + 1))
    for K in itertools.product(*ranges):
        if sum(K) != g + 1:
            continue
        zero_low = sum(1 for i in range(n) if K[i] == 0)
        if min(1, zero_low) <= K[width - 1]:
            return K
    raise RelationPipelineError("no admissible core decomposition exists")


def _unmarked_route(g, kappa, db, _active) -> BoundaryExpression:
    """kappa-monomials on the unmarked space via the proper one-marked
    pushforward."""
    if not kappa:
        raise ValueError("the fundamental class has no boundary expression")
    upstairs = boundary_expression(g, 1, ({1: 1}, kappa), db, _active)
    provenance = list(upstairs.provenance) + ["pushforward to the unmarked space"]
    direct = TautClass.monomial(g, 1, psi_exps={1: 1}, kappas=kappa)
    relation = direct.forget_pushforward() - upstairs.value.forget_pushforward()
    return _solve_by_requests(g, 0, relation, monomial_key({}, kappa),
                              provenance, db, _active)


# ---------------------------------------------------------------------------
# Property-star reduction
# ---------------------------------------------------------------------------

def _unstarred_vertex(term):
    """The first vertex whose decoration degree exceeds max(genus-1, 0), or
    None when the term has property star."""
    return next((v for v, (d, gv) in enumerate(zip(term.vertex_degrees(),
                                                  term.graph.genera))
                 if d > max(gv - 1, 0)), None)


def has_property_star(term) -> bool:
    return _unstarred_vertex(term) is None


def theorem_star_reduce(c: TautClass, db: RelationDatabase | None = None) -> TautClass:
    """Rewrite until every stratum has the per-vertex degree bound
    deg <= max(genus-1, 0); output strata of codimension k then carry at
    least k - g + 1 genus-zero vertices.

    A worklist of (stratum, coefficient): the first vertex over the bound
    is rewritten by its boundary expression, whose terms are spliced in
    place of that vertex (_rewrite_vertex), and the results go back on the
    worklist; every other vertex keeps its decoration untouched."""
    db = db or RelationDatabase()
    out = TautClass(c.g, c.n)
    work = list(c.terms.items())
    while work:
        term, coeff = work.pop()
        bad = _unstarred_vertex(term)
        if bad is None:
            expected = term.degree - c.g + 1
            rational = sum(1 for gv in term.graph.genera if gv == 0)
            if rational < expected:
                raise RelationPipelineError(
                    "output stratum is short of rational components")
            out._accumulate(term, coeff)
            continue
        replaced = _rewrite_vertex(term, bad, db)
        for t2, c2 in replaced.terms.items():
            work.append((t2, coeff * c2))
    return out


def _vertex_monomial(term, v, tags):
    """The decoration at vertex v, with attachment tags, as (psi by local
    marking rank, kappa), the markings ranked as in StableGraph.attachments."""
    psi = {}
    for rank, tag in enumerate(tags, start=1):
        e = term.psi_at(tag)
        if e:
            psi[rank] = e
    return psi, {a: x for a, x in term.kappa[v]}


def _rewrite_vertex(term, v, db) -> TautClass:
    """The stratum with vertex v's decoration replaced by its boundary
    expression: each local term is spliced in place of v (strata._splice),
    in the expression's sorted term order, with its coefficient."""
    graph = term.graph
    tags = graph.attachments()[v]
    local = boundary_expression(graph.genera[v], len(tags),
                                _vertex_monomial(term, v, tags), db)
    decoration = (term.kappa, term.psi_leg, term.psi_edge)
    out = TautClass(graph.genus, graph.n_legs)
    for local_term, coeff in local.value.sorted_terms():
        out.add_term(*_splice(graph, decoration, v, local_term), coeff)
    return out


# ---------------------------------------------------------------------------
# Genus-zero recursion report
# ---------------------------------------------------------------------------

def trr_report(n: int, i: int = 1, db: RelationDatabase | None = None) -> dict:
    """Compare the pullback-derived boundary expression for psi_i on the
    genus-zero n-marked space with the literal recursion sum over all
    subsets of size n-2 containing i, which overcounts; the classical
    two-point-fixing form is included as the consistent variant."""
    db = db or RelationDatabase()
    derived = boundary_expression(0, n, ({i: 1}, {}), db).value
    literal = mul_divisor_sum(TautClass.fundamental(0, n), [
        (("sep", 0, I), Fraction(1))
        for I in itertools.combinations(range(1, n + 1), n - 2) if i in I])
    j, k = [x for x in range(1, n + 1) if x != i][:2]
    fixed = mul_divisor_sum(TautClass.fundamental(0, n), [
        (("sep", 0, I), Fraction(1)) for size in range(2, n - 1)
        for I in itertools.combinations(range(1, n + 1), size)
        if i in I and j not in I and k not in I])
    return {
        "derived": derived,
        "literal_recursion": literal,
        "two_point_fixed": fixed,
        "literal_matches_derived": literal == derived,
        "fixed_matches_derived": fixed == derived,
    }
