import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import linoptlearn as ll
from linoptlearn.core import GROUP_TOL
from linoptlearn.junta import StageRecord
from linoptlearn.errors import (
    DimensionMismatch,
    InvalidParameter,
    MalformedBlocks,
    ModeIndexOutOfRange,
    NonUnitaryInput,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def test_symplectic_form_invariants():
    for m in (1, 2, 5):
        omega = ll.symplectic_form(m)
        assert np.array_equal(omega.T, -omega)
        assert np.array_equal(omega @ omega, -np.eye(2 * m))


def test_realify_identity():
    out = ll.realify(np.eye(3, dtype=complex))
    assert np.array_equal(out.entries, np.eye(6))


def test_realify_imaginary_identity():
    out = ll.realify(1j * np.eye(2))
    assert np.array_equal(out.entries, ll.symplectic_form(2))


def test_realify_random_haar_satisfies_invariants():
    g = ll.haar_unitary(3, np.random.default_rng(7))
    o = ll.realify(g).entries
    eye = np.eye(6)
    omega = ll.symplectic_form(3)
    assert np.linalg.norm(o.T @ o - eye) < 1e-12
    assert np.linalg.norm(o.T @ omega @ o - omega) < 1e-12


def test_realify_rejects_non_unitary():
    with pytest.raises(NonUnitaryInput):
        ll.realify(2.0 * np.eye(2, dtype=complex))


def test_complexify_identity_and_inverse_examples():
    assert np.array_equal(ll.complexify(np.eye(4)).entries, np.eye(2))
    got = ll.complexify(ll.symplectic_form(2)).entries
    assert np.array_equal(got, 1j * np.eye(2))


def test_complexify_roundtrip_exact():
    rng = np.random.default_rng(11)
    for _ in range(100):
        o = ll.random_linear_optical(3, rng)
        back = ll.realify(ll.complexify(o))
        assert np.array_equal(back.entries, o.entries)


def test_complexify_rejects_malformed_blocks():
    bad = np.eye(4)
    bad[3, 3] = 2.0
    with pytest.raises((MalformedBlocks, DimensionMismatch, InvalidParameter)):
        ll.complexify(bad)


def test_random_linear_optical_single_mode_is_rotation():
    o = ll.random_linear_optical(1, seed=3).entries
    c, s = o[0, 0], o[0, 1]
    assert np.allclose(o, np.array([[c, s], [-s, c]]))
    assert abs(c * c + s * s - 1.0) < 1e-12


def test_random_linear_optical_deterministic():
    a = ll.random_linear_optical(8, seed=123)
    b = ll.random_linear_optical(8, seed=123)
    assert np.array_equal(a.entries, b.entries)


def test_haar_first_moment():
    rng = np.random.default_rng(2024)
    draws = 10000
    acc = 0.0
    for _ in range(draws):
        g = ll.haar_unitary(4, rng)
        acc += abs(g[0, 0]) ** 2
    mean = acc / draws
    # Var(|G_11|^2) = (M-1)/(M^2 (M+1)) for Haar; M = 4.
    sigma = np.sqrt(3.0 / (16.0 * 5.0) / draws)
    assert abs(mean - 0.25) < 3.0 * sigma


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, modes=st.integers(min_value=1, max_value=5))
def test_group_closure_and_homomorphism(seed, modes):
    rng = np.random.default_rng(seed)
    g1 = ll.haar_unitary(modes, rng)
    g2 = ll.haar_unitary(modes, rng)
    omega = ll.symplectic_form(modes)
    prod = (ll.realify(g1) @ ll.realify(g2)).entries
    assert np.linalg.norm(prod.T @ prod - np.eye(2 * modes)) < 1e-10
    assert np.linalg.norm(prod.T @ omega @ prod - omega) < 1e-10
    assert np.abs(prod - ll.realify(g1 @ g2).entries).max() < 1e-12
    assert np.array_equal(ll.realify(g1.conj().T).entries, ll.realify(g1).inverse().entries)


def test_embed_junta_full_and_empty():
    o = ll.random_linear_optical(3, seed=9)
    spec = ll.JuntaSpec(3, (1, 2, 3), o)
    assert np.array_equal(ll.embed_junta(spec).entries, o.entries)
    empty = ll.JuntaSpec(4, (), ll.SymplecticOrthogonal(np.zeros((0, 0))))
    assert np.array_equal(ll.embed_junta(empty).entries, np.eye(8))


def test_embed_junta_identity_rows_and_probe_fidelity():
    spec, embedded = ll.random_junta(8, 4, seed=21, junta_modes=(3, 4, 5, 8))
    eye = np.eye(16)
    for mode in (1, 2, 6, 7):
        for idx in (mode - 1, 8 + mode - 1):
            assert np.array_equal(embedded.entries[idx], eye[idx])
            assert np.array_equal(embedded.entries[:, idx], eye[:, idx])
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = np.zeros(16)
        for mode in (1, 2, 6, 7):
            x[mode - 1], x[8 + mode - 1] = rng.standard_normal(2)
        assert ll.fidelity(x, embedded, np.eye(16)) == 1.0


def test_junta_spec_mode_range():
    inner = ll.random_linear_optical(1, seed=1)
    with pytest.raises(ModeIndexOutOfRange):
        ll.JuntaSpec(4, (5,), inner)


def test_fidelity_trivial_cases():
    o = ll.random_linear_optical(3, seed=13)
    x = np.random.default_rng(1).standard_normal(6)
    assert ll.fidelity(x, o, o) == 1.0
    other = ll.random_linear_optical(3, seed=14)
    assert ll.fidelity(np.zeros(6), o, other) == 1.0


def test_fidelity_worked_example():
    plus = ll.realify(np.eye(1, dtype=complex))
    minus = ll.SymplecticOrthogonal(-plus.entries)
    x = np.array([np.sqrt(2.0), 0.0])
    assert abs(ll.fidelity(x, plus, minus) - np.exp(-4.0)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, modes=st.integers(min_value=1, max_value=4))
def test_fidelity_symmetry_and_left_invariance(seed, modes):
    rng = np.random.default_rng(seed)
    o_u = ll.random_linear_optical(modes, rng)
    o_v = ll.random_linear_optical(modes, rng)
    q = ll.random_linear_optical(modes, rng)
    x = rng.standard_normal(2 * modes)
    f = ll.fidelity(x, o_u, o_v)
    assert f == ll.fidelity(x, o_v, o_u)
    assert abs(f - ll.fidelity(x, q @ o_u, q @ o_v)) < 1e-12


def test_fidelity_energy_bound():
    rng = np.random.default_rng(23)
    for _ in range(50):
        o_u = ll.random_linear_optical(3, rng)
        o_v = ll.random_linear_optical(3, rng)
        x = rng.standard_normal(6)
        energy = float(x @ x) / 2.0
        lhs = np.sqrt(1.0 - ll.fidelity(x, o_u, o_v))
        assert lhs <= np.sqrt(energy) * ll.spectral_distance(o_u, o_v) + 1e-12


def test_fidelity_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        ll.fidelity(np.zeros(4), ll.random_linear_optical(2, 1), ll.random_linear_optical(3, 1))


def test_symplectic_orthogonal_rejects_plain_orthogonal():
    # A permutation that swaps q_1 with p_1 only is orthogonal but not symplectic.
    bad = np.eye(4)[[2, 1, 0, 3]]
    with pytest.raises((InvalidParameter, MalformedBlocks)):
        ll.SymplecticOrthogonal(bad)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
def test_serialization_roundtrips(modes, seed):
    o = ll.random_linear_optical(modes, seed)
    assert np.array_equal(ll.from_json(ll.SymplecticOrthogonal, ll.to_json(o)).entries, o.entries)
    g = ll.complexify(o)
    assert np.array_equal(ll.from_json(ll.ComplexTransfer, ll.to_json(g)).entries, g.entries)


def test_widened_tolerance_survives_the_codec():
    # realify widens the group tolerance for a transfer that passes the
    # unitarity gate inexactly (squared residual ~1e-7 here); decoding must
    # validate at that tolerance, not at GROUP_TOL.
    o = ll.realify(ll.haar_unitary(3, np.random.default_rng(5)) * (1 + 1e-4))
    assert o.tol > GROUP_TOL
    back = ll.from_json(ll.SymplecticOrthogonal, json.loads(json.dumps(ll.to_json(o))))
    assert np.array_equal(back.entries, o.entries) and back.tol == o.tol


FLOATS = st.floats(allow_nan=False, allow_infinity=False)
COUNTS = st.integers(min_value=0, max_value=2**40)
MODE_TUPLES = st.lists(st.integers(min_value=1, max_value=9), max_size=4).map(tuple)


def _complex_transfer(draw):
    size = draw(st.integers(min_value=1, max_value=3))
    numbers = st.complex_numbers(allow_nan=False, allow_infinity=False)
    return ll.ComplexTransfer(draw(hnp.arrays(complex, (size, size), elements=numbers)))


def _stage_record(draw):
    return StageRecord(
        stage=draw(COUNTS),
        family_size=draw(COUNTS),
        minimum=draw(FLOATS),
        selected=draw(st.lists(MODE_TUPLES, max_size=3).map(tuple)),
        candidates=draw(st.lists(st.tuples(MODE_TUPLES, FLOATS), max_size=3).map(tuple)),
        training_size=draw(COUNTS),
        energy=draw(FLOATS),
    )


# One builder per record type, each drawing a valid instance.
RECORD_BUILDERS = {
    "SymplecticOrthogonal": lambda draw: ll.random_linear_optical(draw(st.integers(1, 4)), draw(SEEDS)),
    "ComplexTransfer": _complex_transfer,
    "JuntaSpec": lambda draw: ll.random_junta(draw(st.integers(2, 5)), draw(st.integers(1, 2)), draw(SEEDS))[0],
    "TrainingSet": lambda draw: ll.sample_training_set(
        draw(st.sampled_from(list(ll.Scheme))),
        draw(st.integers(1, 3)),
        draw(st.integers(1, 4)),
        draw(st.floats(min_value=0.0, max_value=16.0)),
        seed=draw(st.none() | SEEDS),
    ),
    "RiskReport": lambda draw: ll.RiskReport(
        draw(FLOATS), draw(hnp.arrays(float, st.integers(0, 4), elements=FLOATS)), draw(st.none() | COUNTS)
    ),
    "OptimResult": lambda draw: ll.OptimResult(
        _complex_transfer(draw), draw(FLOATS), draw(FLOATS), draw(st.booleans()),
        draw(COUNTS), draw(COUNTS), draw(st.none() | MODE_TUPLES),
    ),
    "StageRecord": _stage_record,
    "JuntaReport": lambda draw: ll.JuntaReport(
        draw(MODE_TUPLES), tuple(_stage_record(draw) for _ in range(draw(st.integers(0, 2)))),
        _complex_transfer(draw), draw(FLOATS), draw(FLOATS), draw(COUNTS),
    ),
    "BoundReport": lambda draw: ll.BoundReport(
        draw(st.sampled_from(list(ll.Scheme))), draw(COUNTS), draw(COUNTS), draw(FLOATS), draw(FLOATS),
        draw(FLOATS), draw(st.lists(FLOATS, max_size=4).map(tuple)), draw(FLOATS), draw(COUNTS),
    ),
}


def _types(value):
    """The tree of Python types in a decoded value, through records and tuples."""
    if dataclasses.is_dataclass(value):
        return type(value), [_types(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, tuple):
        return tuple, [_types(item) for item in value]
    if isinstance(value, np.ndarray):
        return np.ndarray, value.dtype, value.shape
    return type(value)


@pytest.mark.parametrize("name", sorted(RECORD_BUILDERS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_codec_roundtrips_every_record(name, data):
    record = RECORD_BUILDERS[name](data.draw)
    text = json.dumps(ll.to_json(record))
    back = ll.from_json(type(record), json.loads(text))
    assert type(back).__name__ == name
    assert json.dumps(ll.to_json(back)) == text
    assert _types(back) == _types(record)


def test_codec_keys_are_field_names():
    spec, _ = ll.random_junta(4, 2, seed=3)
    data = ll.to_json(spec)
    assert list(data) == ["mode_count", "junta_modes", "inner"]
    assert list(data["inner"]) == ["entries", "tol"]
    assert ll.to_json(ll.complexify(spec.inner))["entries"].keys() == {"re", "im"}
    assert ll.to_json(ll.Scheme.ERM2) == "ERM2"


def test_random_junta_rejects_size_outside_mode_count():
    for size in (0, 5):
        with pytest.raises(InvalidParameter):
            ll.random_junta(4, size, seed=0)


def test_junta_spec_json_roundtrip():
    spec, _ = ll.random_junta(6, 3, seed=2)
    back = ll.from_json(ll.JuntaSpec, ll.to_json(spec))
    assert back.mode_count == spec.mode_count
    assert back.junta_modes == spec.junta_modes
    assert np.array_equal(back.inner.entries, spec.inner.entries)
