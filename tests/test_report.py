"""Report records: schema shape, ordering, determinism."""

from __future__ import annotations

import json

from mpmath import mp, mpf

from cotmoments.report import CheckRecord, VerificationReport


def _sample_report():
    rep = VerificationReport("demo", config={"digits": 20})
    rep.add_exact("b/second", "x = y", 3, 3)
    rep.add_numeric("a/first", "u ~ v", mpf("1.5"), mpf("1.5000001"), mpf("1e-3"))
    rep.add_exact("c/third", "p = q", 1, 2)
    return rep


def test_add_exact_flags():
    rep = VerificationReport("t")
    assert rep.add_exact("i", "a", 5, 5) is True
    assert rep.add_exact("j", "a", 5, 6) is False
    ok, bad = rep.checks
    assert ok.passed and ok.diff == "0" and ok.tol == "exact"
    assert not bad.passed and bad.diff == "1"


def test_add_numeric_boundary_inclusive():
    rep = VerificationReport("t")
    # diff exactly equal to tol counts as a pass
    assert rep.add_numeric("i", "a", mpf(2), mpf(1), mpf(1)) is True
    assert rep.add_numeric("j", "a", mpf(2), mpf(1), mpf("0.5")) is False


def test_numeric_diff_has_three_significant_digits():
    # lhs, rhs and tol keep the caller's format; the diff keeps 3 digits, so
    # noise in its lower digits leaves the body unchanged
    fmt = lambda v: mp.nstr(v, 30)
    rep = VerificationReport("t")
    with mp.workdps(40):
        third = mpf(1) / 3
        rep.add_numeric("i", "a", third, third + mpf("4.3547901629e-33"),
                        mpf("1e-20") / 3, fmt=fmt)
        rep.add_numeric("j", "a", third, third, mpf(1), fmt=fmt)
        rep.add_numeric("k", "a", 1 + mpf("0.0009996"), 1, mpf(1), fmt=fmt)
        assert [(c.lhs, c.rhs, c.tol) for c in rep.checks[:1]] == [
            (fmt(third), fmt(third + mpf("4.3547901629e-33")), fmt(mpf("1e-20") / 3))]
    assert [c.diff for c in rep.checks] == ["4.35e-33", "0.0", "0.001"]


def test_counts_and_failing():
    rep = _sample_report()
    assert rep.pass_count == 2
    assert rep.fail_count == 1
    assert not rep.all_passed
    assert [c.id for c in rep.failing()] == ["c/third"]


def test_as_dict_schema_and_sorting():
    d = _sample_report().as_dict()
    assert set(d) == {"suite", "config", "checks", "summary"}
    assert d["summary"] == {"pass": 2, "fail": 1}
    ids = [c["id"] for c in d["checks"]]
    assert ids == sorted(ids)  # sorted regardless of insertion order
    rec = d["checks"][0]
    assert set(rec) == {"id", "anchor", "lhs", "rhs", "diff", "tol", "pass"}


def test_meta_is_isolated():
    rep = _sample_report()
    base = rep.to_json()
    stamped = rep.to_json(meta={"generated_at": "2026-01-01T00:00:00Z"})
    assert "meta" not in json.loads(base)
    d = json.loads(stamped)
    assert d["meta"]["generated_at"] == "2026-01-01T00:00:00Z"
    d.pop("meta")
    assert d == json.loads(base)


def test_json_is_deterministic():
    a = _sample_report().to_json()
    b = _sample_report().to_json()
    assert a == b  # byte-identical


def test_extend_merges_checks_and_config():
    outer = VerificationReport("all", config={})
    inner = _sample_report()
    outer.extend(inner)
    assert len(outer.checks) == 3
    assert outer.config["demo"] == {"digits": 20}
    other = VerificationReport("demo2", config={"n": 5})
    other.add_exact("z/only", "r = s", 0, 0)
    outer.extend(other, prefix="renamed")
    assert outer.config["renamed"] == {"n": 5}
    assert len(outer.checks) == 4


def test_record_roundtrip():
    rec = CheckRecord(id="x", anchor="a", lhs="1", rhs="2", diff="1",
                      tol="exact", passed=False)
    d = rec.as_dict()
    assert d["pass"] is False and d["id"] == "x"
