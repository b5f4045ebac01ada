import json
import sys
from collections import Counter
from functools import partial
from itertools import combinations
from pathlib import Path

import pytest

from ddcp import approx, deciders, exactmat, reps
from ddcp.quiver import Algebra, InputError, Interval
from ddcp.derived import DerivedMorphism, DerivedObject
from ddcp.deciders import (
    check_ddcp,
    check_ddcp_derived,
    check_module_dcp,
    check_tilting_complex,
    check_tilting_module,
    kernel_interval,
    verify_homology_corners,
)
from ddcp.classify import make_T, make_V
from ddcp.endalg import end_of, is_hereditary
from oracles import (
    dims,
    exact_at_middle_reference,
    exact_with_zero_reference,
    in_slice_reference,
    injective_reference,
    is_exact_at_middle,
    is_exact_sequence_with_zero,
    is_hereditary_reference,
    is_injective,
    kernel_intervals_reference,
    ranks,
    to_rep_morphism,
    validate_morphism,
)


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
    """A multiplicity counts only as present (positive) or absent (zero);
    anything but a non-negative int is rejected, not coerced."""
    alg = Algebra(3)
    doubled = {iv: 2 for iv in V_multiset(3, 2)}
    assert bool(check_module_dcp(alg, doubled)) == bool(
        check_module_dcp(alg, V_multiset(3, 2))
    )
    with_zero = {**V_multiset(3, 2), Interval(2, 2): 0}
    for decide in check_module_dcp, check_tilting_module:
        assert decide(alg, with_zero).as_dict() == decide(
            alg, V_multiset(3, 2)
        ).as_dict()
        for bad in (-1, 1.5, True, "2", None):
            with pytest.raises(InputError, match="multiplicity"):
                decide(alg, {**V_multiset(3, 2), Interval(2, 2): bad})


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


COMPLEX_DECIDERS = [
    check_ddcp,
    check_ddcp_derived,
    lambda x: check_tilting_complex(x, "module"),
    lambda x: check_tilting_complex(x, "derived"),
]


def test_complex_deciders_build_one_endomorphism_algebra(
    end_of_calls, fresh_caches
):
    """The frame reads End(x)'s hereditariness off x's Hom relation, and the
    module route's closed form needs no End, so only the derived route's
    hom_module builds End(x): once per object, however many complex
    deciders ask, when x is applicable and some vertex has one supporting
    shift, and not at all otherwise.  The applicable objects are those
    that are basic with a hereditary End(x) by the table reference
    (is_hereditary_reference).  verify_homology_corners
    builds End(x) once, for its derived tilting test, and no End of a
    corner module."""
    alg = Algebra(3)
    atoms = [(iv, s) for s in (0, 1) for iv in alg.intervals()]
    objects = [DerivedObject(alg, combo) for combo in combinations(atoms, 3)]
    objects.append(obj(alg, (1, 2, 0), (1, 2, 0), (3, 3, 1)))
    seen = Counter()
    for x in objects:
        end_of_calls.clear()
        reports = [decide(x) for decide in COMPLEX_DECIDERS]
        frame = reports[0]
        reached = frame.applicable and any(
            len(pr.degrees_found) == 1 for pr in frame.projectives
        )
        assert end_of_calls == ([x] if reached else []), x
        assert all(r.applicable == frame.applicable for r in reports), x
        assert frame.applicable == (
            x.is_basic() and is_hereditary_reference(end_of(x))
        ), x
        seen[x.is_basic(), frame.applicable, reached] += 1
    assert set(seen) == {
        (False, False, False), (True, False, False), (True, True, False),
        (True, True, True),
    }, seen
    fresh_caches()
    end_of_calls.clear()
    x = make_T(alg, 1)
    assert verify_homology_corners(x)
    assert end_of_calls == [x]


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
        for route in ("bogus", None, ("derived",)):
            with pytest.raises(InputError, match="unknown route"):
                check_tilting_complex(x, route)


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
            if not is_hereditary(x):
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


def check_tilting_module_route(x):
    return check_tilting_complex(x, "module")


def criterion_3_objects():
    """The population of acceptance criterion 3: every shift-normalised
    n-summand object over shifts {0, 1} with hereditary End, n <= 4."""
    for n in (1, 2, 3, 4):
        alg = Algebra(n)
        atoms = [(iv, s) for s in (0, 1) for iv in alg.intervals()]
        for combo in combinations(atoms, n):
            x = DerivedObject(alg, combo)
            if min(s for _, s in combo) == 0 and is_hereditary(x):
                yield x


def in_slice_keys(x):
    """The (algebra, slice intervals, vertex) of every unique-shift vertex
    of a basic x with hereditary End: one in-slice outcome each."""
    return {
        (x.alg, tuple(x.slice(shifts[0])), e)
        for e, shifts in enumerate(deciders._vertex_shifts(x), 1)
        if len(shifts) == 1
    }


def test_kernel_interval_matches_approximation():
    """kernel_interval(x, e, i) is X(b + 1, n), b the largest right end of
    a summand of T0 in the minimal approximation of P(e) by the shift-i
    slice, at every vertex with a unique shift of every criterion-3
    object."""
    expected = {}  # many objects share a slice: one sequence per (e, slice)
    checks = 0
    for x in criterion_3_objects():
        alg = x.alg
        for e, shifts in enumerate(deciders._vertex_shifts(x), 1):
            if len(shifts) != 1:
                continue
            i = shifts[0]
            t = DerivedObject(alg, [(iv, 0) for iv in x.slice(i)])
            if (e, t) not in expected:
                seq = approx.min_left_approx_sequence(obj(alg, (e, alg.n, 0)), t)
                b = max(iv.b for iv, _ in seq.t0.summands)
                expected[e, t] = Interval(b + 1, alg.n) if b < alg.n else None
            assert kernel_interval(x, e, i) == expected[e, t], (x, e)
            checks += 1
    assert checks == 5520


def test_in_slice_outcomes_equal_fresh_sequences(monkeypatch):
    """On every criterion-3 object, each in-slice outcome that a module-route
    report reads -- T0's intervals, its route's exactness and the kernel
    interval -- equals the outcome of a fresh min_left_approx_sequence of
    P(e) by the slice, read by the rank-count reference.  The module route
    builds no approximation sequence: it reads the closed form."""
    def no_sequence(y, t):
        raise AssertionError("the module route built a sequence")

    references = {}  # many objects share a slice: one sequence per key
    checked = 0
    for x in criterion_3_objects():
        with monkeypatch.context() as m:
            m.setattr(deciders, "min_left_approx_sequence", no_sequence)
            reports = check_ddcp(x), check_tilting_complex(x, "module")
        for onto, report in enumerate(reports):
            for pr in report.projectives:
                if len(pr.degrees_found) != 1:
                    continue
                key = x.alg, tuple(x.slice(pr.degrees_found[0])), pr.vertex
                if key not in references:
                    references[key] = in_slice_reference(*key)
                t0, exact, exact_onto, kernel = references[key]
                assert pr.approx_summands == [(iv, 0) for iv in t0], (x, pr)
                assert pr.exact == (exact_onto if onto else exact), (x, pr)
                assert pr.kernel_intervals == (
                    {} if kernel is None else {kernel: 1}
                ), (x, pr)
                checked += 1
    assert checked == 2 * 5520
    assert len(references) == len(set().union(
        *map(in_slice_keys, criterion_3_objects())
    ))


def basic_slices(n):
    """Every basic slice over A_n, as its intervals in summand order."""
    alg = Algebra(n)
    for size in range(1, len(alg.intervals()) + 1):
        yield from combinations(alg.intervals(), size)


def test_in_slice_closed_form_matches_sequence_reference():
    """The closed form of deciders._in_slice equals the rank-count reference
    on a fresh minimal approximation sequence, for every basic slice and
    every vertex at n <= 4: T0's intervals, exactness at T0, exactness with
    g onto, and the kernel of f.  4 121 (slice, vertex) keys, 3 936 of them
    at n = 4, have a vertex some member of the slice covers; at the others
    the sequence is P(e) -> 0 -> 0, with kernel P(e)."""
    covered = Counter()
    uncovered = 0
    outcomes = Counter()
    for n in (1, 2, 3, 4):
        alg = Algebra(n)
        for intervals in basic_slices(n):
            for e in range(1, n + 1):
                closed = deciders._in_slice(alg, intervals, e)
                assert closed == in_slice_reference(alg, intervals, e), (
                    intervals, e
                )
                if any(iv.a <= e <= iv.b for iv in intervals):
                    covered[n] += 1
                    outcomes[closed[1:3]] += 1
                else:
                    uncovered += 1
                    assert closed == ((), True, True, alg.projective(e))
    assert covered == {1: 1, 2: 12, 3: 172, 4: 3936} and uncovered > 0
    # every combination of the two exactness outcomes but onto without exact
    assert set(outcomes) == {(True, True), (True, False), (False, False)}


def small_basic_modules():
    """Every basic module of at most five summands, n <= 4."""
    for n in (1, 2, 3, 4):
        alg = Algebra(n)
        for size in range(6):
            for combo in combinations(alg.intervals(), size):
                yield alg, dict.fromkeys(combo, 1)


def test_module_decider_counts_over_every_basic_module():
    """Over every basic module at n <= 4 (every nonempty set of intervals),
    check_module_dcp holds on exactly the product of 2^j - 1 over
    j = 1..n of them, and check_tilting_module on exactly 2^(n - 1) and
    reports the stated counts not applicable (End not hereditary).
    tests/module_counts.py records the same counts up to n = 6."""
    counts = {}
    for n in (1, 2, 3, 4):
        alg = Algebra(n)
        tally = Counter()
        for size in range(1, len(alg.intervals()) + 1):
            for members in combinations(alg.intervals(), size):
                multiset = dict.fromkeys(members, 1)
                tilting = check_tilting_module(alg, multiset)
                tally["dcp"] += bool(check_module_dcp(alg, multiset))
                tally["tilting"] += tilting.verdict
                tally["not applicable"] += not tilting.applicable
        counts[n] = (tally["dcp"], tally["tilting"], tally["not applicable"])
    assert counts == {1: (1, 1, 0), 2: (3, 2, 1), 3: (21, 4, 29),
                      4: (315, 8, 807)}


MODULE_REFERENCE = (
    Path(__file__).resolve().parents[1] / "perfbench" / "module_reference.json"
)


def test_every_five_summand_module_at_n5_matches_the_reference():
    """Every basic five-summand module at n = 5, all 3003 of them, gets the
    verdict code that the benchmark's reference records for it, in
    combination order: dcp 1/0, then tilting 1/0, or n when
    check_tilting_module is not applicable."""
    verdicts = json.loads(MODULE_REFERENCE.read_text())["verdicts"]
    alg = Algebra(5)
    modules = list(combinations(alg.intervals(), 5))
    assert len(modules) == len(verdicts) == 3003
    codes = Counter()
    for members, want in zip(modules, verdicts):
        multiset = dict.fromkeys(members, 1)
        tilting = check_tilting_module(alg, multiset)
        got = ("1" if check_module_dcp(alg, multiset) else "0") + (
            "n" if not tilting.applicable else "1" if tilting else "0"
        )
        assert got == want, members
        codes[got] += 1
    assert len(codes) > 2


def test_rank_counts_match_subrepresentation_reference():
    """The rank-count reference -- oracles.ranks and dims, and the three
    exactness predicates on them -- gives the answers of the kernel, image
    and cokernel sub-representations of the same maps as representation
    morphisms.  So do the counts it reads, vertex by vertex: rank f_v and
    rank g_v are the dimensions of the image sub-representations, and the
    dims of y, T0 and T1 those of the realised terms.  Checked on the
    in-slice sequence of every unique-shift vertex of the criterion-3
    objects and on the regular sequence of every basic module of at most
    five summands, n <= 4.  Every module-route report, read off the closed
    form, says what the sub-representations of its sequence say: T0, the
    kernel, each route's exactness, and each module decider's reasons."""
    verdicts = {}

    def referenced(seq):
        """The rank reference's verdicts on seq, each checked against the
        sub-representations, and f as a representation morphism."""
        f, g = to_rep_morphism(seq.f), to_rep_morphism(seq.g)
        assert [ranks(seq.f), ranks(seq.g)] + [
            dims(x) for x in (seq.f.src, seq.t0, seq.t1)
        ] == [list(reps.image(h)[0].dims) for h in (f, g)] + [
            list(rep.dims) for rep in (f.src, f.tgt, g.tgt)
        ]
        out = {}
        for rank_test, reference in (
            (is_injective, lambda f, g: injective_reference(f)),
            (is_exact_at_middle, exact_at_middle_reference),
            (is_exact_sequence_with_zero, exact_with_zero_reference),
        ):
            out[rank_test] = rank_test(seq)
            assert out[rank_test] == reference(f, g), (seq, rank_test)
            verdicts.setdefault(rank_test.__name__, set()).add(out[rank_test])
        return f, out

    # (P(e), slice module) -> what the reports of its in-slice sequence must
    # read: T0, the kernel, and each route's exactness
    in_slice = {}
    for x in criterion_3_objects():
        for route in (check_ddcp, check_tilting_module_route):
            for pr in route(x).projectives:
                if len(pr.degrees_found) != 1:
                    continue
                (i,) = pr.degrees_found
                key = (
                    obj(x.alg, (pr.vertex, x.alg.n, 0)),
                    DerivedObject(x.alg, [(iv, 0) for iv in x.slice(i)]),
                )
                if key not in in_slice:
                    seq = approx.min_left_approx_sequence(*key)
                    f, out = referenced(seq)
                    in_slice[key] = (
                        list(seq.t0.summands),
                        kernel_intervals_reference(f),
                        {
                            check_ddcp: out[is_exact_at_middle],
                            check_tilting_module_route:
                                out[is_exact_sequence_with_zero],
                        },
                    )
                t0, kernel, exact = in_slice[key]
                assert pr.approx_summands == t0
                assert pr.kernel_intervals == kernel
                assert pr.exact == exact[route]
    for alg, multiset in small_basic_modules():
        regular = obj(alg, *[(e, alg.n, 0) for e in range(1, alg.n + 1)])
        t = DerivedObject(alg, [(iv, 0) for iv in multiset])
        _, out = referenced(approx.min_left_approx_sequence(regular, t))
        injective = (out[is_injective], deciders._NOT_INJECTIVE)
        assert check_module_dcp(alg, multiset).reasons == [
            reason for ok, reason in (
                injective,
                (out[is_exact_at_middle],
                 "sequence not exact at the middle term"),
            ) if not ok
        ]
        tilting = check_tilting_module(alg, multiset)
        if tilting.applicable:
            assert tilting.reasons == [
                reason for ok, reason in (
                    injective,
                    (out[is_exact_sequence_with_zero],
                     "sequence not exact (middle or surjectivity)"),
                ) if not ok
            ]
    assert verdicts == {
        "is_injective": {True, False},
        "is_exact_at_middle": {True, False},
        "is_exact_sequence_with_zero": {True, False},
    }


def test_module_route_does_no_elimination(monkeypatch):
    """Neither route builds a matrix: the module route decides on the
    approximation sequence it built, the derived route reduces sparse cone
    differentials.  So no rref, which rank, solve and nullspace all go
    through, no Mat and no RepMorphism."""
    counts = Counter()
    rref = exactmat.rref
    mat_init = exactmat.Mat.__init__
    init = reps.RepMorphism.__init__

    def counting_rref(m):
        counts["rref"] += 1
        return rref(m)

    def counting_mat_init(self, *args):
        counts["Mat"] += 1
        mat_init(self, *args)

    def counting_init(self, *args):
        counts["RepMorphism"] += 1
        init(self, *args)

    for name, module in list(sys.modules.items()):
        if name.startswith("ddcp") and getattr(module, "rref", None) is rref:
            monkeypatch.setattr(module, "rref", counting_rref)
    monkeypatch.setattr(exactmat.Mat, "__init__", counting_mat_init)
    monkeypatch.setattr(reps.RepMorphism, "__init__", counting_init)
    for alg, multiset in small_basic_modules():
        check_module_dcp(alg, multiset)
        check_tilting_module(alg, multiset)
    for x in criterion_3_objects():
        check_ddcp(x)
        check_tilting_module_route(x)
        check_ddcp_derived(x)
        check_tilting_complex(x, "derived")
    assert counts == Counter()
    # the counters do see the references, which eliminate
    alg = Algebra(2)
    reps.kernel(
        reps.rep_morphism(alg, [Interval(1, 2)], [Interval(1, 1)], {(0, 0): 1})
    )
    assert counts["rref"] and counts["Mat"] and counts["RepMorphism"]


def deciders_per_object():
    """For each object of criterion 3 and each small basic module, the
    deciders a route-agreement check asks about it, as calls."""
    for x in criterion_3_objects():
        yield [partial(decide, x) for decide in COMPLEX_DECIDERS]
    for alg, multiset in small_basic_modules():
        yield [
            partial(decide, alg, multiset)
            for decide in (check_module_dcp, check_tilting_module)
        ]


def test_shared_work_is_built_once_and_leaves_reports_unchanged(
    monkeypatch, end_of_calls, fresh_caches
):
    """Each report is the one a fresh computation gives, whichever deciders
    were asked about the object before it: in order, in reverse order, and
    asked again.  A caller editing a report's reasons, degrees_found,
    approx_summands or kernel_intervals leaves every later report as it
    was.  Asking every complex decider about one object builds one
    approximation sequence per unique-shift vertex, and End(x) once when
    there is one, for the derived route; the module route builds neither.  The four complex deciders share
    one frame, which the memo holds: x is asked is_basic once, no sequence
    asks it of its own target (End(t) answers it), and the hereditary rule
    (is_hereditary) is asked about x once.  The module deciders build no
    End, no sequence and no memo entry, and ask the hereditary rule about
    the module once per tilting test."""
    sequences = []
    build = deciders.min_left_approx_sequence

    def recording(y, t):
        sequences.append((y, t))
        return build(y, t)

    basic_asked = []
    is_basic = DerivedObject.is_basic

    def recording_basic(x):
        basic_asked.append(x)
        return is_basic(x)

    hereditary_asked = []
    hereditary = deciders.is_hereditary

    def recording_hereditary(x):
        hereditary_asked.append(x)
        return hereditary(x)

    monkeypatch.setattr(deciders, "min_left_approx_sequence", recording)
    monkeypatch.setattr(DerivedObject, "is_basic", recording_basic)
    monkeypatch.setattr(deciders, "is_hereditary", recording_hereditary)
    for calls in deciders_per_object():
        fresh = []
        for decide in calls:
            fresh_caches()
            fresh.append(decide().as_dict())
        fresh_caches()
        end_of_calls.clear()
        sequences.clear()
        basic_asked.clear()
        hereditary_asked.clear()
        for decide, expected in zip(calls + calls, fresh + fresh):
            report = decide()
            assert report.as_dict() == expected
            report.reasons.append("edited")
            for pr in report.projectives:
                pr.degrees_found.append(7)
                pr.approx_summands.append((Interval(1, 1), 7))
                pr.kernel_intervals[Interval(1, 1)] = 7
        if len(calls) == len(COMPLEX_DECIDERS):
            (x,) = calls[0].args
            unique = [s for s in deciders._vertex_shifts(x) if len(s) == 1]
            assert len(sequences) == len(unique)
            assert end_of_calls == ([x] if unique else [])
            assert basic_asked == [x]
            assert hereditary_asked == [x]
            # the memo never holds more than the last object's work
            assert deciders._memo.cache_info().currsize == 1
        else:
            alg, multiset = calls[0].args
            t = DerivedObject(alg, [(iv, 0) for iv in multiset])
            assert end_of_calls == [] and hereditary_asked == [t, t]
            assert sequences == [] and basic_asked == []
            assert deciders._memo.cache_info().currsize == 0
        fresh_caches()
        assert [decide().as_dict() for decide in calls[::-1]] == fresh[::-1]


def test_objects_taken_as_checked_equal_checked_ones(monkeypatch):
    """Every object the deciders build from a checked one without checking
    it -- each P(e)[i], cone, T0 and T1 of the four complex deciders on
    every shift-normalised object at n <= 4 -- equals the object the public
    constructor builds from its summands, and hashes as it does, also when
    its own hash was read and kept first.  Each sequence's f and g, built
    as checked too, equal the morphisms the public constructor builds from
    their entries, keep nonzero Fraction entries and join summands with a
    morphism space."""
    built = []
    maps = []
    build = deciders.min_left_approx_sequence
    make_cone = deciders.cone

    def recording(y, t):
        seq = build(y, t)
        built.extend([y, t, seq.t0, seq.t1])
        maps.extend([seq.f, seq.g])
        return seq

    def recording_cone(g):
        built.append(make_cone(g))
        return built[-1]

    monkeypatch.setattr(deciders, "min_left_approx_sequence", recording)
    monkeypatch.setattr(deciders, "cone", recording_cone)

    def check_built():
        for c in built:
            kept = hash(c)
            checked = DerivedObject(c.alg, c.summands)
            assert checked == c and c == checked, c
            assert hash(checked) == kept == hash(c), c
        built.clear()
        for f in maps:
            checked = DerivedMorphism(f.src, f.tgt, f.entries)
            assert checked.entries == f.entries and f.alg == checked.alg, f
            validate_morphism(f)
        maps.clear()

    checks = Counter()
    for n in (1, 2, 3, 4):
        alg = Algebra(n)
        atoms = [(iv, s) for s in (0, 1) for iv in alg.intervals()]
        for combo in combinations(atoms, n):
            if min(s for _, s in combo) == 0:
                x = DerivedObject(alg, combo)
                for decide in COMPLEX_DECIDERS:
                    decide(x)
                checks[n] += len(built)
                check_built()
    assert checks == {1: 5, 2: 70, 3: 1285, 4: 26240}, checks
    # a kept hash is the hash of the value, whichever object kept it
    alg = Algebra(3)
    x = obj(alg, (2, 3, 1), (1, 1, 0), (2, 2, 0))
    kept = hash(x)
    y = obj(alg, (1, 1, 0), (2, 2, 0), (2, 3, 1))
    assert x == y and hash(y) == kept == hash(x)
    assert x._select([0, 2]) == obj(alg, (1, 1, 0), (2, 3, 1))
    assert hash(x._select([0, 2])) == hash(obj(alg, (2, 3, 1), (1, 1, 0)))
