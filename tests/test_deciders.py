from itertools import combinations

import pytest

from ddcp import approx, deciders, endalg
from ddcp.quiver import Algebra, Interval
from ddcp.derived import DerivedObject
from ddcp.deciders import (
    check_ddcp,
    check_ddcp_derived,
    check_module_dcp,
    check_tilting_complex,
    check_tilting_module,
    verify_homology_corners,
)
from ddcp.classify import make_T, make_V
from ddcp.endalg import end_of, is_hereditary


def obj(alg, *pairs):
    return DerivedObject(alg, [(Interval(a, b), s) for a, b, s in pairs])


def ms(*ivs):
    out = {}
    for a, b in ivs:
        iv = Interval(a, b)
        out[iv] = out.get(iv, 0) + 1
    return out


def V_multiset(n, m):
    out = {Interval(k, n): 1 for k in range(1, m + 1)}
    out.update({Interval(1, k): 1 for k in range(m, n)})
    return out


def test_module_dcp_families():
    alg = Algebra(3)
    for m in (1, 2, 3):
        assert check_module_dcp(alg, V_multiset(3, m))


def test_module_dcp_failures():
    alg = Algebra(3)
    assert not check_module_dcp(alg, ms((1, 1), (2, 2), (3, 3)))
    assert not check_module_dcp(alg, {})


def test_module_dcp_duplicates_use_add_closure():
    alg = Algebra(3)
    doubled = {iv: 2 for iv in V_multiset(3, 2)}
    assert bool(check_module_dcp(alg, doubled)) == bool(
        check_module_dcp(alg, V_multiset(3, 2))
    )


def test_tilting_module_examples():
    alg = Algebra(3)
    assert check_tilting_module(alg, ms((1, 3), (2, 3), (3, 3)))  # regular
    assert check_tilting_module(alg, ms((1, 1), (1, 2), (1, 3)))  # co-regular
    assert not check_tilting_module(alg, V_multiset(3, 2))


def test_tilting_module_precondition():
    alg = Algebra(3)
    rep = check_tilting_module(alg, ms((3, 3), (1, 3), (1, 1)))
    assert not rep.applicable
    assert not rep.verdict
    assert any("hereditary" in r for r in rep.reasons)


def test_tilting_module_builds_one_endomorphism_algebra(monkeypatch):
    calls = []

    def counted(x):
        calls.append(x)
        return endalg.end_of(x)

    monkeypatch.setattr(deciders, "end_of", counted)
    monkeypatch.setattr(approx, "end_of", counted)
    assert check_tilting_module(Algebra(3), ms((1, 3), (2, 3), (3, 3)))
    assert len(calls) == 1


def test_ddcp_families_all_routes():
    for n in (2, 3):
        alg = Algebra(n)
        for m in range(1, n + 1):
            x = make_V(alg, m)
            assert check_ddcp(x)
            assert check_ddcp_derived(x)
        for i in range(1, n):
            x = make_T(alg, i)
            assert check_ddcp(x)
            assert check_ddcp_derived(x)


def test_ddcp_failure_simples():
    alg = Algebra(3)
    x = obj(alg, (1, 1, 0), (2, 2, 0), (3, 3, 0))
    r1 = check_ddcp(x)
    r2 = check_ddcp_derived(x)
    assert r1.applicable and not r1.verdict
    assert r2.applicable and not r2.verdict


def test_ddcp_precondition_reporting():
    alg = Algebra(2)
    non_basic = obj(alg, (1, 2, 0), (1, 2, 0))
    r = check_ddcp(non_basic)
    assert not r.applicable and not r.verdict
    assert any("basic" in reason for reason in r.reasons)
    non_hered = DerivedObject(
        Algebra(3), [(Interval(3, 3), 0), (Interval(1, 3), 0), (Interval(1, 1), 0)]
    )
    r = check_ddcp(non_hered)
    assert not r.applicable
    assert any("hereditary" in reason for reason in r.reasons)


def test_tilting_split_families():
    for n in (2, 3, 4):
        alg = Algebra(n)
        for i in range(1, n):
            assert check_tilting_complex(make_T(alg, i), "derived")
            assert check_tilting_complex(make_T(alg, i), "module")
        for m in range(1, n + 1):
            expected = m in (1, n)
            assert bool(check_tilting_complex(make_V(alg, m), "derived")) == expected
            assert bool(check_tilting_complex(make_V(alg, m), "module")) == expected


def test_tilting_implies_ddcp():
    alg = Algebra(3)
    for x in [make_V(alg, 1), make_V(alg, 3), make_T(alg, 1), make_T(alg, 2)]:
        assert check_tilting_complex(x)
        assert check_ddcp(x)


def test_worked_example_diagnostics():
    # S(1) + I(2) + S(3)[1]: tilting, unique shifts 0, 0, 1, with the
    # middle terms I(2), I(2), S(3) and kernels S(3), S(3), 0
    alg = Algebra(3)
    x = obj(alg, (1, 1, 0), (1, 2, 0), (3, 3, 1))
    assert check_tilting_complex(x, "derived")
    assert check_tilting_complex(x, "module")
    r = check_ddcp(x)
    assert r.verdict
    diag = {p.vertex: p for p in r.projectives}
    assert [diag[e].degrees_found for e in (1, 2, 3)] == [[0], [0], [1]]
    assert diag[1].approx_summands == [(Interval(1, 2), 0)]
    assert diag[2].approx_summands == [(Interval(1, 2), 0)]
    assert diag[3].approx_summands == [(Interval(3, 3), 0)]
    assert diag[1].kernel_intervals == {Interval(3, 3): 1}
    assert diag[2].kernel_intervals == {Interval(3, 3): 1}
    assert diag[3].kernel_intervals == {}


def test_shift_invariance():
    alg = Algebra(3)
    for x in [make_T(alg, 1), make_V(alg, 2), obj(alg, (1, 1, 0), (2, 2, 0), (3, 3, 0))]:
        for k in (-2, 1, 4):
            assert bool(check_ddcp(x)) == bool(check_ddcp(x.shifted(k)))
            assert bool(check_ddcp_derived(x)) == bool(
                check_ddcp_derived(x.shifted(k))
            )
            assert bool(check_tilting_complex(x)) == bool(
                check_tilting_complex(x.shifted(k))
            )


def test_survivors_have_adjacent_shifts():
    for n in (2, 3):
        alg = Algebra(n)
        for i in range(1, n):
            shifts = make_T(alg, i).shifts()
            assert len(shifts) <= 2
            assert shifts == sorted(shifts)
            if len(shifts) == 2:
                assert shifts[1] - shifts[0] == 1


def test_corners_for_families():
    alg = Algebra(3)
    assert verify_homology_corners(make_V(alg, 3))
    assert verify_homology_corners(make_V(alg, 2))
    assert verify_homology_corners(make_T(alg, 1))
    assert verify_homology_corners(obj(alg, (1, 1, 0), (1, 2, 0), (3, 3, 1)))


def test_corners_not_applicable_without_property():
    alg = Algebra(3)
    r = verify_homology_corners(obj(alg, (1, 1, 0), (2, 2, 0), (3, 3, 0)))
    assert not r.applicable


def test_report_schema():
    alg = Algebra(3)
    r = check_ddcp(make_T(alg, 1))
    d = r.as_dict()
    assert set(d) == {"check", "verdict", "applicable", "reasons", "projectives"}
    for p in d["projectives"]:
        assert set(p) == {
            "vertex",
            "degrees_found",
            "approx_summands",
            "kernel_intervals",
            "exact",
            "verdict",
        }


def test_tilting_complex_rejects_unknown_route():
    alg = Algebra(3)
    for x in [
        DerivedObject(alg, []),
        obj(alg, (1, 2, 0), (1, 2, 0)),
        obj(alg, (3, 3, 0), (1, 3, 0), (1, 1, 0)),  # End not hereditary
        make_T(alg, 1),
    ]:
        with pytest.raises(ValueError):
            check_tilting_complex(x, "bogus")


def test_false_verdicts_name_each_failing_projective():
    deciders = [
        check_ddcp,
        check_ddcp_derived,
        lambda x: check_tilting_complex(x, "module"),
        lambda x: check_tilting_complex(x, "derived"),
    ]
    false_reports = 0
    for n in (1, 2, 3):
        alg = Algebra(n)
        atoms = [(iv, s) for s in (0, 1) for iv in alg.intervals()]
        for combo in combinations(atoms, n):
            if min(s for _, s in combo) != 0:
                continue
            x = DerivedObject(alg, combo)
            if not is_hereditary(end_of(x)):
                continue
            for decide in deciders:
                r = decide(x)
                assert r.applicable
                if r.verdict:
                    assert r.reasons == []
                    continue
                false_reports += 1
                failing = [p.vertex for p in r.projectives if not p.verdict]
                assert failing and len(r.reasons) == len(failing), (x, r)
                for e, reason in zip(failing, r.reasons):
                    assert reason.startswith("vertex %d: " % e), (x, reason)
    assert false_reports > 0


def test_false_verdict_reasons_say_what_failed():
    alg = Algebra(3)
    r = check_ddcp(obj(alg, (1, 1, 1)))
    assert not r.verdict
    assert r.reasons == [
        "vertex 1: kernel interval X(2,3) outside add of the shift-2 slice",
        "vertex 2: supported in shifts [], expected exactly one",
        "vertex 3: supported in shifts [], expected exactly one",
    ]
    inexact = obj(alg, (1, 3, 0), (2, 2, 0), (3, 3, 0))
    assert check_ddcp(inexact).reasons == ["vertex 2: sequence not exact"]
    simples = obj(alg, (1, 1, 0), (2, 2, 0), (3, 3, 0))
    derived = check_ddcp_derived(simples).reasons
    assert derived and all("slice of the cone" in r for r in derived)
    cones = check_tilting_complex(simples, "derived").reasons
    assert cones and all("cone is" in r for r in cones)
