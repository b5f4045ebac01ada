"""Acceptance suite: one test per advertised guarantee, each emitting a
single PASS line on success (failures surface through the assertions)."""

import json
import random
import time
from itertools import combinations, product

from ddcp.quiver import Algebra, Interval, ext_dim, hom_dim
from ddcp.derived import (
    DerivedMorphism,
    DerivedObject,
    graded_hom,
)
from ddcp.endalg import end_of
from ddcp.approx import min_left_approx_sequence
from ddcp.deciders import (
    check_ddcp,
    check_ddcp_derived,
    check_module_dcp,
    check_tilting_complex,
    verify_homology_corners,
)
from ddcp.classify import enumerate_and_classify, make_T, make_V, zero_path_audit
from ddcp.cli import EXIT_OK, run
from ddcp import reps
from oracles import (
    brute_ext_dim,
    chain_homotopy_compose,
    compose,
    is_exact_at_middle,
    is_exact_sequence_with_zero,
    is_hereditary_reference,
    is_injective,
    to_rep_morphism,
)


def report(num, text):
    print("ACCEPTANCE %d: PASS — %s" % (num, text))


def expected_labels(n):
    return sorted(
        ["V_%d" % m for m in range(1, n + 1)]
        + ["T_%d" % i for i in range(1, n)]
    )


def test_criterion_1_classification(capsys):
    t0 = time.time()
    assert run(["classify", "--n", "3", "--format", "json"]) == EXIT_OK
    elapsed3 = time.time() - t0
    data = json.loads(capsys.readouterr().out)
    assert data["lambda"] == 5
    assert sorted(s["label"] for s in data["survivors"]) == expected_labels(3)
    assert elapsed3 < 1.0
    t0 = time.time()
    for n in (1, 2, 4, 5):
        result = enumerate_and_classify(Algebra(n))
        assert result.lambda_count == 2 * n - 1
        assert sorted(result.matched.values()) == expected_labels(n)
    elapsed5 = time.time() - t0
    assert elapsed5 < 300.0
    with capsys.disabled():
        report(
            1,
            "classification matches the constructive families for n <= 5 "
            "(n=3 in %.2fs, remaining sizes in %.2fs)" % (elapsed3, elapsed5),
        )


def test_criterion_2_two_shift_bound(capsys):
    t0 = time.time()
    for n in (1, 2, 3, 4):
        result = enumerate_and_classify(Algebra(n), degree_window=3)
        assert result.lambda_count == 2 * n - 1
        for x in result.survivors:
            assert len(x.shifts()) <= 2
    elapsed = time.time() - t0
    assert elapsed < 120.0
    with capsys.disabled():
        report(
            2,
            "window-3 search finds no survivor with three shifts, n <= 4 "
            "(%.2fs)" % elapsed,
        )


def test_criterion_3_decider_cross_agreement(capsys):
    checked = 0
    for n in (1, 2, 3, 4):
        alg = Algebra(n)
        atoms = [(iv, s) for s in (0, 1) for iv in alg.intervals()]
        for combo in combinations(atoms, n):
            if min(s for _, s in combo) != 0:
                continue
            x = DerivedObject(alg, combo)
            if not is_hereditary_reference(end_of(x)):
                continue
            checked += 1
            assert bool(check_ddcp(x)) == bool(check_ddcp_derived(x)), x
            assert bool(check_tilting_complex(x, "module")) == bool(
                check_tilting_complex(x, "derived")
            ), x
    with capsys.disabled():
        report(
            3,
            "module and derived routes agree on %d hereditary-End "
            "candidates, n <= 4" % checked,
        )


def test_criterion_4_reference_sequences(capsys):
    for n in (2, 3, 4):
        alg = Algebra(n)
        regular = DerivedObject(
            alg, [(alg.projective(k), 0) for k in range(1, n + 1)]
        )
        for m in range(1, n + 1):
            seq = min_left_approx_sequence(regular, make_V(alg, m))
            expected_t0 = {Interval(m, n): n - m + 1}
            expected_t0.update({Interval(k, n): 1 for k in range(1, m)})
            assert seq.t0.slice(0) == expected_t0
            assert seq.t1.slice(0) == {
                Interval(1, k): 1 for k in range(m, n)
            }
            assert is_injective(seq) and is_exact_at_middle(seq)
        for i in range(1, n):
            tail = DerivedObject(
                alg, [(alg.projective(k), 0) for k in range(i + 1, n + 1)]
            )
            shifted_slice = DerivedObject(
                alg,
                [(alg.interval(i + 1, j), 0) for j in range(i + 1, n + 1)],
            )
            seq = min_left_approx_sequence(tail, shifted_slice)
            assert seq.t0.slice(0) == {Interval(i + 1, n): n - i}
            assert seq.t1.slice(0) == {
                Interval(i + 1, j): 1 for j in range(i + 1, n)
            }
            assert is_injective(seq) and is_exact_sequence_with_zero(seq)

            head = DerivedObject(
                alg, [(alg.projective(k), 0) for k in range(1, i + 1)]
            )
            zero_slice = DerivedObject(
                alg, [(alg.interval(k, i), 0) for k in range(1, i + 1)]
            )
            seq = min_left_approx_sequence(head, zero_slice)
            assert seq.t0.slice(0) == {
                Interval(k, i): 1 for k in range(1, i + 1)
            }
            assert seq.t1.is_zero()
            f = to_rep_morphism(seq.f)
            ker, _ = reps.kernel(f)
            assert reps.interval_decompose(ker) == {Interval(i + 1, n): i}
            cok, _ = reps.cokernel(f)
            assert cok.total_dim() == 0
    with capsys.disabled():
        report(4, "reference approximation sequences reproduced for n <= 4")


def test_criterion_5_tilting_split(capsys):
    for n in (2, 3, 4, 5):
        alg = Algebra(n)
        for i in range(1, n):
            assert check_tilting_complex(make_T(alg, i))
        for m in range(1, n + 1):
            verdict = bool(check_tilting_complex(make_V(alg, m)))
            assert verdict == (m in (1, n))
            assert check_module_dcp(alg, make_V(alg, m).slice(0))
    with capsys.disabled():
        report(
            5,
            "tilting verdict splits the families exactly and all one-shift "
            "family members have the centraliser property, n <= 5",
        )


def test_criterion_6_worked_example(capsys):
    alg = Algebra(3)
    x = DerivedObject(
        alg,
        [(Interval(1, 1), 0), (Interval(1, 2), 0), (Interval(3, 3), 1)],
    )
    assert check_tilting_complex(x, "derived")
    assert check_tilting_complex(x, "module")
    r = check_ddcp(x)
    assert r.verdict
    diag = {p.vertex: p for p in r.projectives}
    assert [diag[e].degrees_found for e in (1, 2, 3)] == [[0], [0], [1]]
    assert diag[1].approx_summands == [(Interval(1, 2), 0)]
    assert diag[1].kernel_intervals == {Interval(3, 3): 1}
    assert diag[2].approx_summands == [(Interval(1, 2), 0)]
    assert diag[2].kernel_intervals == {Interval(3, 3): 1}
    assert diag[3].approx_summands == [(Interval(3, 3), 0)]
    assert diag[3].kernel_intervals == {}
    with capsys.disabled():
        report(6, "worked three-summand example passes with the stated diagnostics")


def test_criterion_7_oracle_equivalence(capsys):
    pairs = 0
    for n in (1, 2, 3, 4):
        alg = Algebra(n)
        for src, tgt in product(alg.intervals(), alg.intervals()):
            brute = len(
                reps.morphism_space(
                    reps.realize(alg, [src]), reps.realize(alg, [tgt])
                )
            )
            assert hom_dim(alg, src, tgt) == brute
            assert ext_dim(alg, src, tgt) == brute_ext_dim(alg, src, tgt)
        for x_iv, y_iv, z_iv in product(alg.intervals(), repeat=3):
            for d1, d2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
                x = DerivedObject(alg, [(x_iv, 0)])
                y = DerivedObject(alg, [(y_iv, d1)])
                z = DerivedObject(alg, [(z_iv, d1 + d2)])
                if not graded_hom(x, y) or not graded_hom(y, z):
                    continue
                f = DerivedMorphism(x, y, {(0, 0): 1})
                g = DerivedMorphism(y, z, {(0, 0): 1})
                assert (
                    compose(f, g).entries
                    == chain_homotopy_compose(f, g).entries
                )
                pairs += 1
    with capsys.disabled():
        report(
            7,
            "composition agrees with the chain-homotopy oracle on %d "
            "composable pairs and the Hom/Ext rules with brute force, n <= 4"
            % pairs,
        )


def test_criterion_8_corner_verification(capsys):
    count = 0
    for n in (1, 2, 3, 4, 5):
        result = enumerate_and_classify(Algebra(n))
        for x in result.survivors:
            assert verify_homology_corners(x), x
            count += 1
    with capsys.disabled():
        report(8, "corner restrictions verified on all %d survivors, n <= 5" % count)


def test_criterion_9_property_suite(capsys):
    rng = random.Random(20260823)
    for _ in range(1000):
        alg = Algebra(rng.randint(1, 6))
        ms = {}
        for iv in alg.intervals():
            if rng.random() < 0.35:
                ms[iv] = rng.randint(1, 3)
        rep = reps.realize_multiset(alg, ms)
        assert reps.interval_decompose(rep) == ms
    alg = Algebra(3)
    samples = [
        make_T(alg, 1),
        make_V(alg, 2),
        DerivedObject(alg, [(Interval(k, k), 0) for k in (1, 2, 3)]),
    ]
    for x in samples:
        for k in (-3, 2):
            assert bool(check_ddcp(x)) == bool(check_ddcp(x.shifted(k)))
            assert bool(check_ddcp_derived(x)) == bool(
                check_ddcp_derived(x.shifted(k))
            )
            assert bool(check_tilting_complex(x)) == bool(
                check_tilting_complex(x.shifted(k))
            )
    for n in (1, 2, 3, 4, 5):
        assert zero_path_audit(Algebra(n), n)
    with capsys.disabled():
        report(
            9,
            "1000 decomposition round trips, decider shift invariance, and "
            "vanishing of length-n composites, n <= 5",
        )
