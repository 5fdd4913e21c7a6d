import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from tautring import cli, pixton
from tautring.cli import main
from tautring.relations import (CacheIntegrityError, RelationDatabase,
                                RelationPipelineError, _canonical, _record_hash,
                                _text_hash, psi_boundary_lemma)
from tautring.strata import TautClass, boundary_divisor_class


def run(argv):
    return main(argv)


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_enumerate_four_marked(tmp_path):
    out = tmp_path / "graphs.json"
    code = run(["enumerate", "--genus", "0", "--markings", "4",
                "--max-edges", "1", "--out", str(out)])
    assert code == 0
    data = read_json(out)
    assert len(data["graphs"]) == 4


def test_enumerate_three_marked(tmp_path):
    out = tmp_path / "graphs.json"
    assert run(["enumerate", "--genus", "0", "--markings", "3",
                "--max-edges", "2", "--out", str(out)]) == 0
    assert len(read_json(out)["graphs"]) == 1


def test_enumerate_invalid_pair_exits_one(capsys):
    assert run(["enumerate", "--genus", "0", "--markings", "2",
                "--max-edges", "1"]) == 1


def test_negative_genus_or_markings_exit_one(tmp_path, capsys):
    db = tmp_path / "db.jsonl"
    for argv in (
            ["enumerate", "--genus", "2", "--markings", "-1", "--max-edges", "1"],
            ["boundary-expression", "--genus", "-1", "--markings", "5",
             "--monomial", "psi1", "--db", str(db)],
            ["boundary-expression", "--genus", "2", "--markings", "-1",
             "--monomial", "kappa1^2"]):
        assert run(argv) == 1, argv
        err = capsys.readouterr().err
        assert "is not a stable pair" in err
        assert "Traceback" not in err
    assert not db.exists()


def test_enumerate_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["enumerate", "--genus", "1", "--markings", "2", "--max-edges", "2",
         "--out", str(a)])
    run(["enumerate", "--genus", "1", "--markings", "2", "--max-edges", "2",
         "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_omega_command(tmp_path):
    out = tmp_path / "omega.json"
    code = run(["omega", "--genus", "1", "--ramification", "0",
                "--degree", "1", "--out", str(out)])
    assert code == 0
    cls = TautClass.from_json(read_json(out)["class"])
    expected = TautClass.fundamental(1, 1) + \
        boundary_divisor_class(1, 1, ("irr",)) * Fraction(-1, 12)
    assert cls == expected


def test_omega_rejects_bad_ramification(tmp_path):
    assert run(["omega", "--genus", "1", "--ramification", "1,2",
                "--degree", "1"]) == 1


def test_malformed_or_missing_flags_exit_one(capsys):
    # argparse itself would exit 2, the code for a verification mismatch
    assert run(["omega", "--genus", "1", "--ramification", "1,x",
                "--degree", "1"]) == 1
    assert run(["enumerate", "--genus", "1", "--markings", "1"]) == 1
    assert run(["--help"]) == 0
    assert "usage: tautring" in capsys.readouterr().out


def test_omega_with_explicit_samples(tmp_path):
    out = tmp_path / "omega.json"
    code = run(["omega", "--genus", "1", "--ramification", "0",
                "--degree", "1", "--r-samples",
                ",".join(str(r) for r in range(3, 17)), "--out", str(out)])
    # the sample list does not sum to zero, but it is a modulus list
    assert code == 0


def test_omega_rejects_unusable_samples():
    base = ["omega", "--genus", "1", "--ramification", "1,-1", "--degree", "1",
            "--r-samples"]
    # an odd count: the largest modulus would be dropped
    assert run(base + ["3,4,5,6,7,8,1000000"]) == 1
    # moduli below minimum_modulus((1, -1)) = 3
    assert run(base + [",".join(str(r) for r in range(1, 11))]) == 1
    # a repeated modulus: the run would use fewer moduli than it was given
    assert run(base + ["3,3,4,4," + ",".join(str(r) for r in range(5, 15))]) == 1


def test_omega_rejects_negative_degree(capsys):
    base = ["omega", "--genus", "1", "--ramification", "0", "--degree", "-1"]
    for argv in (base, base + ["--r-samples", "3,4"]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "degree must be >= 0" in err
        assert "Traceback" not in err


def test_failed_sample_check_exits_two_with_one_line(capsys, monkeypatch):
    # windows {3, 4} and {5, 6} fit lines, but the degree-1 coefficients are
    # quadratic in r: a certification failure, not an input error; so is a
    # default schedule whose every pair disagrees
    base = ["omega", "--genus", "1", "--ramification", "1,-1", "--degree", "1"]
    progress = "computing the constant-term class for A=(1, -1) up to degree 1"
    mismatch = "verification mismatch: disjoint sample sets disagree; " \
        "enlarge the degree bound"
    assert run(base + ["--r-samples", "3,4,5,6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [progress, mismatch]
    monkeypatch.setattr(pixton, "_windows",
                        lambda r_min, top: [(range(3, 5), range(5, 7))] * 3)
    assert run(base) == 2
    assert capsys.readouterr().err.splitlines() == [progress, mismatch]


def test_weighting_system_error_exits_two_with_one_line(capsys, monkeypatch):
    # an inconsistent weighting system is an internal defect: a mismatch,
    # not a traceback
    def failing(graph, A):
        raise pixton.WeightingSystemError("vertex condition violated")

    monkeypatch.setattr(pixton, "weighting_map", failing)
    assert run(["omega", "--genus", "1", "--ramification", "1,-1",
                "--degree", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[1:] == [
        "internal check failed: vertex condition violated"]


def test_malformed_samples_are_named_in_the_message(capsys):
    assert run(["omega", "--genus", "1", "--ramification", "0", "--degree",
                "1", "--r-samples", "3,x"]) == 1
    err = capsys.readouterr().err
    assert "bad sample moduli '3,x'" in err
    assert "ramification" not in err.splitlines()[-1]


def test_boundary_expression_command_memoizes(tmp_path):
    out1 = tmp_path / "be1.json"
    out2 = tmp_path / "be2.json"
    db = tmp_path / "db.jsonl"
    assert run(["boundary-expression", "--genus", "0", "--markings", "4",
                "--monomial", "psi1", "--db", str(db), "--out", str(out1)]) == 0
    assert run(["boundary-expression", "--genus", "0", "--markings", "4",
                "--monomial", "psi1", "--db", str(db), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert db.exists()


def test_boundary_expression_refuses_low_degree(tmp_path):
    assert run(["boundary-expression", "--genus", "2", "--markings", "1",
                "--monomial", "psi1"]) == 1


def test_kappa_zero_exits_one_before_any_route(tmp_path, capsys):
    # kappa indices start at 1; the request is refused before the routes
    # compute and store records it would then not use
    db = tmp_path / "db.jsonl"
    for g, n in ((1, 3), (0, 7)):
        assert run(["boundary-expression", "--genus", str(g), "--markings", str(n),
                    "--monomial", "kappa0*psi1^2", "--db", str(db)]) == 1, (g, n)
        assert "kappa index" in capsys.readouterr().err
    assert not db.exists()


def test_corrupt_cache_exits_three(tmp_path, capsys):
    db = tmp_path / "db.jsonl"
    run(["boundary-expression", "--genus", "0", "--markings", "4",
         "--monomial", "psi1", "--db", str(db)])
    good = db.read_text()
    argv = ["boundary-expression", "--genus", "0", "--markings", "4",
            "--monomial", "psi1", "--db", str(db)]
    # a record whose content no longer matches its hash, named by line and
    # file like every other corrupt record
    db.write_text(good.replace('"psi1"', '"psi9"', 1))
    capsys.readouterr()
    assert run(argv) == 3
    lineno = next(i for i, line in enumerate(good.splitlines(), start=1)
                  if '"psi1"' in line)
    err = capsys.readouterr().err
    assert f"on line {lineno} of {db}" in err and "psi9" in err, err
    # a torn last line, as left by an interrupted append
    db.write_text(good + good.splitlines()[-1][:40])
    assert run(argv) == 3
    # a record missing its value
    record = json.loads(good.splitlines()[-1])
    del record["value"]
    db.write_text(good + json.dumps(record) + "\n")
    assert run(argv) == 3
    # a v1 record (no "v", the decoded value inline, hashed without its
    # provenance) for a nonzero value whose unhashed provenance was emptied:
    # it opens, and fails on first read
    record = json.loads(good.splitlines()[-1])
    key, value = record["key"], json.loads(record["value"])
    assert value["terms"]
    v1 = {"key": key, "value": value, "provenance": [],
          "sha256": _record_hash(key, value)}
    db.write_text(json.dumps(v1) + "\n")
    assert run(argv) == 3
    # v2 records fail at open: a provenance emptied or edited under its
    # hash, one whitespace byte inserted in the value text (the same JSON),
    # a torn line, an unknown or missing version, a value that is an object
    # rather than text
    def alone(record):
        db.write_text(json.dumps(record) + "\n")
        with pytest.raises(CacheIntegrityError):
            RelationDatabase(str(db))
        return run(argv)

    record = json.loads(good.splitlines()[-1])
    for provenance in ([], record["provenance"] + ["hand-edited"]):
        assert alone({**record, "provenance": provenance}) == 3, provenance
    spaced = record["value"].replace(",", ", ", 1)
    assert json.loads(spaced) == json.loads(record["value"])
    assert alone({**record, "value": spaced}) == 3
    db.write_text(good + good.splitlines()[-1][:-60] + "\n")
    assert run(argv) == 3
    for version in (3, 1, "2", None):
        assert alone({**record, "v": version}) == 3, version
    assert alone({k: v for k, v in record.items() if k != "v"}) == 3
    assert alone({**record, "value": json.loads(record["value"])}) == 3
    # bytes that are not text at all
    db.write_bytes(good.encode() + b"\x80\xff\n")
    assert run(argv) == 3
    # a correctly hashed record whose stratum lives on another moduli space:
    # the class declares (1, 1), its stratum is the two-leg loop of (1, 2)
    key = {"g": 1, "n": 1, "monomial": "kappa1"}
    foreign = boundary_divisor_class(1, 2, ("irr",)).to_json()["terms"]
    value = {"g": 1, "n": 1, "terms": foreign}
    record = {"key": key, "value": value, "provenance": ["hand-made"],
              "sha256": _record_hash(key, value)}
    db.write_text(json.dumps(record) + "\n")
    argv_11 = ["boundary-expression", "--genus", "1", "--markings", "1",
               "--monomial", "kappa1", "--db", str(db)]
    assert run(argv_11) == 3
    # a correctly hashed, well-formed record whose whole class lives on
    # another moduli space than its key names
    value = boundary_divisor_class(0, 4, ("sep", 0, (1, 2))).to_json()
    record = {"key": key, "value": value, "provenance": ["hand-made"],
              "sha256": _record_hash(key, value)}
    db.write_text(json.dumps(record) + "\n")
    assert run(argv_11) == 3
    # correctly hashed records that are malformed deeper down: a zero
    # denominator, a half-edge pair with one half or with three, a leg label
    # given twice, a kappa entry that is no mapping
    def zero_denominator(term):
        term["coeff"] = "1/0"

    def lone_half_edge(term):
        term["graph"]["edges"][0] = term["graph"]["edges"][0][:1]

    def third_half_edge(term):
        term["graph"]["edges"][0].append([0, 2])

    def leg_label_twice(term):
        term["graph"]["legs"].append(term["graph"]["legs"][0])

    def bare_kappa(term):
        term["decoration"]["kappa"] = [5]

    # and numbers that are not ints where a stored class holds ints: a leg
    # label, a leg vertex, an edge end, and psi and kappa exponents
    def float_leg_label(term):
        term["graph"]["legs"][0][0] = 1.0

    def bool_leg_label(term):
        term["graph"]["legs"][0][0] = True

    def float_leg_vertex(term):
        term["graph"]["legs"][0][1] = 0.0

    def float_edge_end(term):
        term["graph"]["edges"][0][0][0] = 0.0

    def float_leg_psi(term):
        term["decoration"]["psi_legs"] = [0.0]

    def float_edge_psi(term):
        term["decoration"]["psi_edges"] = [[0.0, 0]]

    def float_kappa_exponent(term):
        term["decoration"]["kappa"] = [{"1": 1.0}]

    for corrupt in (zero_denominator, lone_half_edge, third_half_edge,
                    leg_label_twice, bare_kappa, float_leg_label, bool_leg_label,
                    float_leg_vertex, float_edge_end, float_leg_psi,
                    float_edge_psi, float_kappa_exponent):
        value = boundary_divisor_class(1, 1, ("irr",)).to_json()
        corrupt(value["terms"][0])
        record = {"key": key, "value": value, "provenance": ["hand-made"],
                  "sha256": _record_hash(key, value)}
        db.write_text(json.dumps(record) + "\n")
        assert run(argv_11) == 3, corrupt.__name__
    # correctly hashed v2 records whose coefficients are not the Fraction
    # text a stored class holds: a polynomial in ramification variables, and
    # a bare JSON number
    key = {"g": 0, "n": 5, "monomial": "psi1"}
    argv_05 = ["boundary-expression", "--genus", "0", "--markings", "5",
               "--monomial", "psi1", "--db", str(db)]
    for coeff in ({"vars": ["a1"], "poly": "1*a1"}, 1):
        value = boundary_divisor_class(0, 5, ("sep", 0, (1, 2))).to_json()
        value["terms"][0]["coeff"] = coeff
        text = _canonical(value)
        record = {"v": 2, "key": key, "provenance": ["hand-made"],
                  "sha256": _text_hash(key, ["hand-made"], text), "value": text}
        db.write_text(json.dumps(record) + "\n")
        assert run(argv_05) == 3, coeff
    # a correctly hashed v2 record whose two vertices have genus 1/2: the
    # banana graph then has genus 2 and passed for a stratum of (2, 2)
    key = {"g": 2, "n": 2, "monomial": "psi1^2*psi2^2"}
    term = {"graph": {"vertices": [0.5, 0.5], "legs": [[1, 0], [2, 1]],
                      "edges": [[[0, 0], [1, 0]], [[0, 1], [1, 1]]]},
            "decoration": {"kappa": [{}, {}], "psi_legs": [0, 0],
                           "psi_edges": [[0, 0], [0, 0]]},
            "coeff": "1"}
    text = _canonical({"g": 2, "n": 2, "terms": [term]})
    record = {"v": 2, "key": key, "provenance": ["hand-made"],
              "sha256": _text_hash(key, ["hand-made"], text), "value": text}
    db.write_text(json.dumps(record) + "\n")
    assert run(["boundary-expression", "--genus", "2", "--markings", "2",
                "--monomial", "psi1^2*psi2^2", "--db", str(db)]) == 3
    # correctly hashed records whose provenance is not a list of strings,
    # whose key is not two ints and a monomial string, or whose class has a
    # g or n that is not an int: each read back as it was, or a float or
    # bool key matching the int key
    record = json.loads(good.splitlines()[-1])
    key, text = record["key"], record["value"]

    def v2(key, provenance, text):
        return {"v": 2, "key": key, "provenance": provenance,
                "sha256": _text_hash(key, provenance, text), "value": text}

    for provenance in ("abc", {"x": 1}, [1, 2]):
        assert alone(v2(key, provenance, text)) == 3, provenance
        value = json.loads(text)
        assert alone({"key": key, "value": value, "provenance": provenance,
                      "sha256": _record_hash(key, value)}) == 3, provenance
    for field, bad in (("g", 0.0), ("g", False), ("n", 4.0), ("monomial", 1)):
        assert alone(v2({**key, field: bad}, ["hand-made"], text)) == 3, (field, bad)
    for field, bad in (("g", 0.0), ("g", False), ("n", 4.0), ("n", True)):
        other = _canonical({**json.loads(text), field: bad})
        db.write_text(json.dumps(v2(key, ["hand-made"], other)) + "\n")
        assert run(argv) == 3, (field, bad)


def test_append_after_a_last_line_without_newline(tmp_path):
    # a store first ends the last line when it lacks its newline; the file
    # then holds the bytes the same requests write to a fresh database
    db, fresh = tmp_path / "db.jsonl", tmp_path / "fresh.jsonl"
    for path in (db, fresh):
        assert run(["boundary-expression", "--genus", "0", "--markings", "4",
                    "--monomial", "psi1", "--db", str(path)]) == 0
    db.write_bytes(db.read_bytes()[:-1])
    for path in (db, db, fresh):
        assert run(["boundary-expression", "--genus", "0", "--markings", "5",
                    "--monomial", "psi1^2", "--db", str(path)]) == 0
    assert db.read_bytes() == fresh.read_bytes()


# Each process stores `count` records of one ~20 KB class on M0,8 (every
# separating divisor through leg 1), scaled per record, under keys of its leg.
# Both start storing once both have built the class, so their appends overlap.
STORE_MANY = """
import itertools, os, sys, time
from tautring.relations import BoundaryExpression, RelationDatabase
from tautring.strata import TautClass, boundary_divisor_class
path, leg, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
value = TautClass(0, 8)
for size in range(1, 6):
    for rest in itertools.combinations(range(2, 9), size):
        value = value + boundary_divisor_class(0, 8, ("sep", 0, (1, *rest)))
open(f"{path}.ready{leg}", "w").close()
for _ in range(3000):
    if all(os.path.exists(f"{path}.ready{other}") for other in (1, 2)):
        break
    time.sleep(0.01)
db = RelationDatabase(path)
for k in range(1, count + 1):
    db.store(0, 8, f"psi{leg}^{k}", BoundaryExpression(value * k, ["stored"]))
"""


def test_concurrent_stores_from_two_processes_keep_every_line(tmp_path):
    db, count = tmp_path / "db.jsonl", 150
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    workers = [subprocess.Popen([sys.executable, "-c", STORE_MANY, str(db),
                                 str(leg), str(count)], env=env)
               for leg in (1, 2)]
    assert [worker.wait(timeout=300) for worker in workers] == [0, 0]
    lines = db.read_bytes().splitlines()
    assert len(lines) == 2 * count
    assert min(map(len, lines)) > 10_000
    reopened = RelationDatabase(str(db))
    assert len(reopened.records) == 2 * count
    value = reopened.get(0, 8, "psi1^1").value
    assert len(value.terms) == 2 ** 7 - 8 - 1
    for leg, k in itertools.product((1, 2), range(1, count + 1)):
        assert reopened.get(0, 8, f"psi{leg}^{k}").value == value * k


def test_unusable_path_exits_one(tmp_path, capsys):
    argv = ["boundary-expression", "--genus", "0", "--markings", "4",
            "--monomial", "psi1"]
    missing = tmp_path / "missing"
    # a directory as the database, a database and an output in a missing
    # directory
    for flags, name in ((["--db", str(tmp_path)], tmp_path),
                        (["--db", str(missing / "db.jsonl")], missing / "db.jsonl"),
                        (["--out", str(missing / "o.json")], missing / "o.json")):
        assert run(argv + flags) == 1, flags
        assert f"cannot access {name}: " in capsys.readouterr().err


def test_unusable_path_fails_before_computing(tmp_path, capsys, monkeypatch):
    def computing(*args, **kwargs):
        raise AssertionError("computed before the path was checked")

    monkeypatch.setattr(cli, "boundary_expression", computing)
    monkeypatch.setattr(cli, "dr_relation_coefficient", computing)
    missing = tmp_path / "missing"
    be = ["boundary-expression", "--genus", "0", "--markings", "4",
          "--monomial", "psi1"]
    for argv, name in ((be + ["--db", str(missing / "db.jsonl")], missing / "db.jsonl"),
                       (be + ["--out", str(missing / "o.json")], missing / "o.json"),
                       (["verify-m11", "--out", str(missing / "m.json")], missing / "m.json")):
        assert run(argv) == 1, argv
        assert f"cannot access {name}: " in capsys.readouterr().err
    assert not missing.exists()


def test_pipeline_error_exits_two_with_one_line(tmp_path, capsys, monkeypatch):
    # an internal structural check that fails is a mismatch, not a traceback
    def failing(*args, **kwargs):
        raise RelationPipelineError("base step expected 24")

    monkeypatch.setattr(cli, "boundary_expression", failing)
    assert run(["boundary-expression", "--genus", "1", "--markings", "1",
                "--monomial", "psi1", "--db", str(tmp_path / "db.jsonl")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the progress line, then the error's one line
    assert captured.err.splitlines() == ["boundary expression for psi1 on (1,1)",
                                         "internal check failed: base step expected 24"]


def test_out_directory_fails_before_computing(tmp_path, capsys, monkeypatch):
    def computing(*args, **kwargs):
        raise AssertionError("computed before the output was checked")

    monkeypatch.setattr(cli, "boundary_expression", computing)
    monkeypatch.setattr(cli, "dr_relation_coefficient", computing)
    be = ["boundary-expression", "--genus", "0", "--markings", "5",
          "--monomial", "psi1^2"]
    for argv in (be, ["verify-m11"]):
        assert run(argv + ["--out", str(tmp_path)]) == 1, argv
        assert f"cannot access {tmp_path}: " in capsys.readouterr().err


def test_verify_m11(tmp_path):
    out = tmp_path / "verify.json"
    code = run(["verify-m11", "--out", str(out)])
    assert code == 0
    data = read_json(out)
    assert data["failures"] == 0
    assert all(check["pass"] for check in data["checks"])


def test_request_on_a_lemma_database_exits_three(tmp_path, capsys):
    # psi1^2 on (1,5) is an elimination key: a genus-1 request refuses the
    # lemma's record rather than return another expression than its own
    db = tmp_path / "lemma.jsonl"
    psi_boundary_lemma(1, RelationDatabase(str(db)))
    capsys.readouterr()
    assert run(["boundary-expression", "--genus", "1", "--markings", "5",
                "--monomial", "psi1^2", "--db", str(db)]) == 3
    err = capsys.readouterr().err
    assert "psi1^2" in err and "Traceback" not in err, err
