"""Cube-family counting: face numbers, skeleton defects, generating series."""

from math import comb

import pytest

from ripstone.errors import ParameterError
from ripstone.cubeseries import _main_series, face_count, skeleton_betti_top, verify_cube_vr2

MAIN_HEAD = (0, 0, 0, 1, 9, 49, 209, 769, 2561)


def et(n, k):
    # reduced top betti of the k-skeleton, extended by 0 below dimension 0
    # and above dimension n (where the series' coefficients read 0)
    return 0 if not 0 <= k <= n else skeleton_betti_top(n, k)


def test_face_count_goldens():
    assert face_count(0, 0) == 1
    assert face_count(3, 0) == 8
    assert face_count(3, 1) == 12
    assert face_count(3, 2) == 6
    assert face_count(3, 3) == 1
    assert face_count(4, 3) == 8
    assert face_count(5, 2) == 2**3 * comb(5, 2)


def test_face_count_matches_closed_form_and_recurrence():
    for n in range(13):
        for k in range(13):
            direct = face_count(n, k)
            assert direct == (comb(n, k) * 2 ** (n - k) if k <= n else 0)
    for n in range(12):
        for k in range(12):
            assert face_count(n + 1, k + 1) == 2 * face_count(n, k + 1) + face_count(n, k)


def test_skeleton_betti_goldens():
    assert skeleton_betti_top(3, 1) == 5
    assert skeleton_betti_top(3, 2) == 1
    assert skeleton_betti_top(4, 2) == 7  # from euler characteristic 16 - 32 + 24
    assert skeleton_betti_top(4, 4) == 0  # the full cube is contractible
    assert skeleton_betti_top(0, 0) == 0


def test_skeleton_betti_from_euler_characteristic():
    for n in range(9):
        for k in range(n + 1):
            chi = sum((-1) ** i * face_count(n, i) for i in range(k + 1))
            assert skeleton_betti_top(n, k) == (-1) ** k * (chi - 1)


def test_two_variable_identities():
    for n in range(11):
        for k in range(n + 1):
            lhs = et(n, k) + et(n, k - 1)
            assert lhs == face_count(n, k) - (1 if k == 0 else 0)
    for n in range(1, 11):
        for k in range(n):
            assert et(n, k) - et(n - 1, k) == face_count(n - 1, k)


def test_main_series():
    assert tuple(_main_series(8)) == MAIN_HEAD
    # main = 2 alpha_3 - beta_2: the series against the counts it generates
    main = _main_series(64)
    for n in range(65):
        assert main[n] == 2 * face_count(n, 3) - et(n, 2)


def test_series_guards():
    with pytest.raises(ParameterError):
        _main_series(65)
    with pytest.raises(ParameterError):
        _main_series(-1)
    with pytest.raises(ParameterError):
        face_count(-1, 0)
    with pytest.raises(ParameterError):
        face_count(0, -1)
    with pytest.raises(ParameterError):
        skeleton_betti_top(2, 3)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_direct_verification_of_small_cubes(n):
    report = verify_cube_vr2(n)
    assert report.passed
    assert len(report.rows) >= 3


def test_direct_verification_guards():
    with pytest.raises(ParameterError):
        verify_cube_vr2(1)
    with pytest.raises(ParameterError):
        verify_cube_vr2(6)
