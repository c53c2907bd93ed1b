"""Kernel-orbit enumeration, the intersection certificate, and fiber sizes."""

import numpy as np
import pytest

from handlebody.groups import cyclic
from handlebody.homs import Epimorphism, evaluate
from handlebody.kernel_orbit import (KernelClassCapExceeded,
                                     fiber_group_order,
                                     intersection_avoids_c0, kernel_equal,
                                     kernel_orbit, precompose)
from handlebody.orbit import BASE_PATH, generate_c0
from handlebody.twists import apply, commutator_base, sigma
from handlebody.words import parse_word


def _abelian_theta():
    K = cyclic(3)
    g = K.generators[0]
    return Epimorphism(K, (g, g, g, g))


def test_precompose_is_composition(heis3, orbit3):
    x, y = heis3.generators
    theta = Epimorphism(heis3, (x, y, y, x))
    for j in (1, 3, 8):
        f = sigma(j)
        composed = precompose(theta, f)
        for w in list(orbit3)[:12]:
            assert evaluate(composed, w) == evaluate(theta, apply(f, w))


def test_kernel_equal_uses_target_automorphisms(group55):
    from handlebody.kernel_orbit import _aut_perms
    perms = _aut_perms(group55, group55.presentation)
    a, b = group55.generators
    th1 = Epimorphism(group55, (a, b, group55.inverse(b),
                                group55.mult(b, group55.inverse(a))))
    assert kernel_equal(th1, th1, perms)
    # Post-composing with a target automorphism preserves the kernel.
    a2 = group55.power(a, 2)
    th2 = Epimorphism(group55, (a2, b, group55.inverse(b),
                                group55.mult(b, group55.inverse(a2))))
    assert kernel_equal(th1, th2, perms)


def test_kernel_orbit_abelian_count():
    reps, perms = kernel_orbit(_abelian_theta())
    assert len(reps) == 40
    assert all(isinstance(r, Epimorphism) for r in reps)
    # Distinct classes really have distinct kernels.
    for i in range(0, 40, 13):
        for j in range(i + 1, 40, 13):
            assert not kernel_equal(reps[i], reps[j], perms)


def test_kernel_orbit_class_cap():
    with pytest.raises(KernelClassCapExceeded,
                       match="kernel orbit exceeded class cap 5"):
        kernel_orbit(_abelian_theta(), class_cap=5)


def test_intersection_counterexample_for_abelian(orbit3):
    reps, _ = kernel_orbit(_abelian_theta())
    report = intersection_avoids_c0(reps, orbit3)
    assert report.avoids is False
    assert report.depth == 3
    # The base commutator lies in every abelian kernel.
    assert report.counterexample == commutator_base()
    assert report.counterexample_path == BASE_PATH
    rep0 = reps[0]
    assert evaluate(rep0, report.counterexample) == 0


def test_intersection_avoids_for_seed_free_set(group55, orbit3):
    theta = Epimorphism(group55, (group55.generators[0],
                                  group55.generators[1],
                                  group55.inverse(group55.generators[1]),
                                  group55.mult(group55.generators[1],
                                               group55.inverse(
                                                   group55.generators[0]))))
    # Only the seed class: with no witness in a depth-0 set the kernel
    # classes all avoid it.
    report = intersection_avoids_c0([theta], generate_c0(depth=0))
    assert report.avoids is True
    assert report.counterexample is None
    assert report.survivors[-1] == 0


def test_fiber_group_order_abelian():
    reps, _ = kernel_orbit(_abelian_theta())
    assert fiber_group_order(reps) == 81
    # A cap too small for the closure reports absence honestly.
    assert fiber_group_order(reps, closure_cap=10) is None


def test_fiber_group_order_single_class():
    reps, _ = kernel_orbit(_abelian_theta())
    one = fiber_group_order(reps[:1])
    assert one == 3  # a single diagonal class generates one copy
