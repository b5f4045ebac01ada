import sys
from collections import Counter
from functools import partial
from itertools import combinations

import pytest

from ddcp import approx, deciders, exactmat, reps
from ddcp.quiver import Algebra, InputError, Interval
from ddcp.derived import DerivedObject
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
    exact_at_middle_reference,
    exact_with_zero_reference,
    injective_reference,
    kernel_intervals_reference,
    to_rep_morphism,
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


def test_tilting_module_builds_one_endomorphism_algebra(end_of_calls):
    assert check_tilting_module(Algebra(3), ms((1, 3), (2, 3), (3, 3)))
    assert len(end_of_calls) == 1


def slice_modules(x):
    """Each shift slice of x as a module at shift 0."""
    return {
        DerivedObject(x.alg, [(iv, 0) for iv, s in x.summands if s == i])
        for i in x.shifts()
    }


def test_complex_deciders_build_one_endomorphism_algebra(end_of_calls):
    """End(x) is built first and once per basic object, however many complex
    deciders ask, and not at all when the object is not basic.  After it
    come the Ends of the slices the module route asks for, each built at
    most once, by end_of as for any other object.  verify_homology_corners
    builds End(x) and the Ends of both slices once for both of its complex
    deciders, plus End of each corner module once for both module
    deciders."""
    alg = Algebra(3)
    atoms = [(iv, s) for s in (0, 1) for iv in alg.intervals()]
    objects = [DerivedObject(alg, combo) for combo in combinations(atoms, 3)]
    objects.append(obj(alg, (1, 2, 0), (1, 2, 0), (3, 3, 1)))
    for x in objects:
        end_of_calls.clear()
        for decide in COMPLEX_DECIDERS:
            decide(x)
        if not x.is_basic():
            assert end_of_calls == [], x
            continue
        first, *slices = end_of_calls
        assert first == x
        assert len(set(slices)) == len(slices), x
        assert set(slices) <= slice_modules(x), x
    end_of_calls.clear()
    x = make_T(alg, 1)
    assert verify_homology_corners(x)
    assert end_of_calls[:3] == [
        x, obj(alg, (1, 1, 0)), obj(alg, (2, 2, 0), (2, 3, 0))
    ]
    assert len(end_of_calls) == 5


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
            if min(s for _, s in combo) == 0 and is_hereditary(end_of(x)):
                yield x


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


def small_basic_modules():
    """Every basic module of at most five summands, n <= 4."""
    for n in (1, 2, 3, 4):
        alg = Algebra(n)
        for size in range(6):
            for combo in combinations(alg.intervals(), size):
                yield alg, dict.fromkeys(combo, 1)


def test_rank_counts_match_subrepresentation_reference(monkeypatch):
    """The forest-count exactness tests and the closed-form kernel interval
    give the answers of the kernel, image and cokernel sub-representations
    of the same maps as representation morphisms, on the hereditary-End
    objects of criterion 3 and on basic modules of at most five summands,
    n <= 4.  So do the counts the tests read, vertex by vertex: rank f_v
    and rank g_v are the dimensions of the image sub-representations, and
    the dims of y, T0 and T1 those of the realised terms."""
    verdicts = {}
    kernels = []
    references = {}  # many objects share a sequence: build each reference once

    def checked(rank_test, reference):
        def test(seq):
            key = rank_test, repr((seq.f, seq.g))
            if key not in references:
                f, g = to_rep_morphism(seq.f), to_rep_morphism(seq.g)
                references[key] = (
                    kernel_intervals_reference(f),
                    reference(f, g),
                    [list(reps.image(h)[0].dims) for h in (f, g)]
                    + [list(rep.dims) for rep in (f.src, f.tgt, g.tgt)],
                )
            kernel, verdict, counts = references[key]
            kernels.append(kernel)
            assert [seq.f_ranks, seq.g_ranks, *seq.dims] == counts
            assert rank_test(seq) == verdict
            verdicts.setdefault(rank_test.__name__, set()).add(verdict)
            return verdict

        return test

    for rank_test, reference in (
        (approx.is_injective, lambda f, g: injective_reference(f)),
        (approx.is_exact_at_middle, exact_at_middle_reference),
        (approx.is_exact_sequence_with_zero, exact_with_zero_reference),
    ):
        monkeypatch.setattr(
            deciders, rank_test.__name__, checked(rank_test, reference)
        )
    for x in criterion_3_objects():
        for route in (check_ddcp, check_tilting_module_route):
            kernels.clear()
            report = route(x)
            assert kernels == [
                pr.kernel_intervals
                for pr in report.projectives
                if len(pr.degrees_found) == 1
            ]
    for alg, multiset in small_basic_modules():
        check_module_dcp(alg, multiset)
        check_tilting_module(alg, multiset)
    assert verdicts == {
        "is_injective": {True, False},
        "is_exact_at_middle": {True, False},
        "is_exact_sequence_with_zero": {True, False},
    }


def test_each_sequence_counts_its_ranks_once(monkeypatch):
    """Asked about one object, the four complex deciders count rank f_v and
    rank g_v of each in-slice sequence at most once each, and both module
    deciders those of the one regular sequence: the predicates read the
    counts the sequence keeps.  The same holds for the dims of each
    sequence's terms y, T0 and T1, and the module deciders count the dims
    of the regular sequence's three terms exactly once.  Checked on the
    criterion-3 objects and on basic modules of at most five summands,
    n <= 4."""
    built, ranked, dimmed = [], [], []
    build, ranks, dims = (
        approx.min_left_approx_sequence, approx._ranks, approx._dims
    )

    def recording_build(*args):
        built.append(build(*args))
        return built[-1]

    def recording(calls, count):
        def record(h):
            calls.append(h)
            return count(h)

        return record

    monkeypatch.setattr(deciders, "min_left_approx_sequence", recording_build)
    monkeypatch.setattr(approx, "_ranks", recording(ranked, ranks))
    monkeypatch.setattr(approx, "_dims", recording(dimmed, dims))

    def counted(decide):
        built.clear()
        ranked.clear()
        dimmed.clear()
        decide()
        maps = {id(h) for seq in built for h in (seq.f, seq.g)}
        terms = {id(x) for seq in built for x in (seq.f.src, seq.t0, seq.t1)}
        # the lists keep every map and term alive, so equal ids mean the
        # same one
        for calls, kept in (ranked, maps), (dimmed, terms):
            assert len({id(h) for h in calls}) == len(calls)
            assert {id(h) for h in calls} <= kept
        return len(ranked), len(dimmed), len(built)

    total = 0
    for x in criterion_3_objects():
        total += counted(lambda: [
            check_ddcp(x),
            check_ddcp_derived(x),
            check_tilting_complex(x, "module"),
            check_tilting_complex(x, "derived"),
        ])[0]
    for alg, multiset in small_basic_modules():
        rank_count, dim_count, sequences = counted(lambda: [
            check_module_dcp(alg, multiset),
            check_tilting_module(alg, multiset),
        ])
        assert sequences == 1 and dim_count == 3
        total += rank_count
    assert total > 0


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
    was.  Asking every decider about one object builds End(x) once, and one
    approximation sequence per route and unique-shift vertex (for a module,
    the regular module's once), and the End of each slice the module route
    asks for at most once.  The four complex deciders share one frame: x is
    asked is_basic once, no sequence asks it of its own target (End(t)
    answers it), and End(x) is asked is_hereditary once."""
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

    def recording_hereditary(c):
        hereditary_asked.append(c)
        return hereditary(c)

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
        x, *slices = end_of_calls
        assert len(set(slices)) == len(slices)
        if len(calls) == len(COMPLEX_DECIDERS):
            assert set(slices) <= slice_modules(x)
            unique = [s for s in deciders._vertex_shifts(x) if len(s) == 1]
            assert len(sequences) == 2 * len(unique)
            assert basic_asked == [x]
            assert hereditary_asked == [end_of(x)]
        else:
            assert slices == []
            assert len(sequences) == 1
            assert basic_asked == []
        fresh_caches()
        assert [decide().as_dict() for decide in calls[::-1]] == fresh[::-1]
    # the memo never holds more than the last object's work
    assert deciders._memo.cache_info().currsize == 1


def test_objects_taken_as_checked_equal_checked_ones(monkeypatch):
    """Every object the deciders build from a checked one without checking
    it -- each slice, P(e), P(e)[i], cone, T0 and T1 of the four complex
    deciders on every shift-normalised object at n <= 4, and the regular
    module of the module deciders -- equals the object the public
    constructor builds from its summands, and hashes as it does, also when
    its own hash was read and kept first."""
    built = []
    build = deciders.min_left_approx_sequence
    make_cone = deciders.cone

    def recording(y, t):
        seq = build(y, t)
        built.extend([y, t, seq.t0, seq.t1])
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
    for alg, multiset in small_basic_modules():
        check_module_dcp(alg, multiset)
        checks["modules"] += len(built)
        check_built()
    assert all(checks.values()) and checks[4] > 10000, checks
    # a kept hash is the hash of the value, whichever object kept it
    alg = Algebra(3)
    x = obj(alg, (2, 3, 1), (1, 1, 0), (2, 2, 0))
    kept = hash(x)
    y = obj(alg, (1, 1, 0), (2, 2, 0), (2, 3, 1))
    assert x == y and hash(y) == kept == hash(x)
    assert x._select([0, 2]) == obj(alg, (1, 1, 0), (2, 3, 1))
    assert hash(x._select([0, 2])) == hash(obj(alg, (2, 3, 1), (1, 1, 0)))
