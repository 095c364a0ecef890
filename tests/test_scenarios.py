from fractions import Fraction

import pytest

from epgate import models, spectra
from epgate.matrices import ExactPolynomial
from epgate.models import DimensionError, DomainError, ModelId
from epgate.scenarios import (
    ROW_LABELS,
    hamiltonian_at,
    sample_path,
    scenario_path,
)
from epgate.spectra import char_poly_tridiagonal, ladder_d, ladder_roots
from helpers import REFERENCE_SAMPLES


# ---------------------------------------------------------------------------
# pointwise values
# ---------------------------------------------------------------------------

def test_hamiltonian_at_left_of_ep():
    assert hamiltonian_at(1, 3, Fraction(-1, 2)) == \
        models.bh_hamiltonian(3, Fraction(1, 2))


def test_hamiltonian_at_ep_is_jordan_for_row_2():
    assert hamiltonian_at(2, 3, 0) == models.jordan_block(3, 0)


def test_hamiltonian_at_reversed_row():
    assert hamiltonian_at(6, 4, Fraction(1, 2)) == \
        models.bh_hamiltonian(4, Fraction(1, 2))


def test_hamiltonian_at_right_of_ep():
    assert hamiltonian_at(3, 3, Fraction(1, 8)) == \
        models.ao_hamiltonian(3, Fraction(1, 8))
    assert hamiltonian_at(4, 3, Fraction(-1, 8)) == \
        models.ao_hamiltonian(3, Fraction(1, 8))


def test_row_labels():
    path = scenario_path(2, 3)
    assert path.label == "Jordan-block match"
    assert ROW_LABELS[1] == "BH to AO-like"
    assert ROW_LABELS[6] == "AO-like to BH"
    assert ROW_LABELS[5] == ROW_LABELS[2]


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_matching_at_the_interface():
    for n in range(2, 7):
        for row in range(1, 7):
            path = scenario_path(row, n)
            assert path.left_family(Fraction(0)) == path.ep_matrix
            assert path.right_family(Fraction(0)) == path.ep_matrix


def test_time_reversal_pairing():
    times = [Fraction(-1, 2), Fraction(-1, 8), Fraction(0), Fraction(1, 8),
             Fraction(1, 4)]
    for n in (2, 4):
        for row in range(1, 7):
            for t in times:
                assert hamiltonian_at(row, n, t) == \
                    hamiltonian_at(7 - row, n, -t)


def test_parametrization_is_affine():
    path = scenario_path(1, 3)
    assert path.parametrization.left_name == "z"
    assert path.parametrization.left(Fraction(-1, 4)) == Fraction(3, 4)
    assert path.parametrization.right_name == "lambda"
    assert path.parametrization.right(Fraction(1, 4)) == Fraction(1, 4)
    reversed_path = scenario_path(6, 3)
    assert reversed_path.parametrization.left_name == "lambda"
    assert reversed_path.parametrization.left(Fraction(-1, 4)) == Fraction(1, 4)
    assert reversed_path.parametrization.right(Fraction(1, 4)) == Fraction(3, 4)


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

def test_domain_left_boundary():
    # z = 1 + t stays within the unit interval: t = -2 maps to the opposite EP
    assert hamiltonian_at(1, 3, -2) == models.bh_hamiltonian(3, -1)
    with pytest.raises(DomainError):
        hamiltonian_at(1, 3, Fraction(-9, 4))
    with pytest.raises(DomainError):
        hamiltonian_at(6, 3, Fraction(9, 4))


# each forward row's (complex-symmetric, real asymmetric) family names
_SIDES = {1: ("bh_hamiltonian", "ao_in_bh_frame"),
          2: ("bh_in_jordan_basis", "ao_in_jordan_basis"),
          3: ("bh_in_ao_frame", "ao_hamiltonian")}


@pytest.mark.parametrize("row", range(1, 7))
def test_sign_edges_of_the_time_maps(row):
    # the domain edges are read from the sign of t's numerator: z = 1 + t at
    # t = 0 (z = 1, one-sided) and t = -2 (z = -1) are in the domain, one
    # step of 1/64 past z = -1 is refused, and so is lambda = -1/64; rows
    # 4-6 run the same maps at -t
    n, sign = 4, (1 if row <= 3 else -1)
    bh_name, ao_name = _SIDES[min(row, 7 - row)]
    path = scenario_path(row, n)
    param = path.parametrization
    bh_side, ao_side, lam_map = (
        (path.left_family, path.right_family, param.right) if row <= 3
        else (path.right_family, path.left_family, param.left))
    assert bh_side(Fraction(0)) == REFERENCE_SAMPLES[bh_name](n, Fraction(1))
    assert ao_side(Fraction(0)) == REFERENCE_SAMPLES[ao_name](n, Fraction(0))
    assert hamiltonian_at(row, n, -2 * sign) == \
        REFERENCE_SAMPLES[bh_name](n, Fraction(-1))
    with pytest.raises(DomainError) as info:
        hamiltonian_at(row, n, sign * Fraction(-129, 64))
    assert str(info.value) == (
        "t = -129/64 leaves the unit parameter interval "
        "(the opposite exceptional point sits at z = -1)")
    with pytest.raises(DomainError) as info:
        lam_map(sign * Fraction(-1, 64))
    assert str(info.value) == "t = -1/64 gives a negative oscillator parameter"


def test_domain_right_boundary():
    # over-damped oscillator parameter
    with pytest.raises(DomainError):
        hamiltonian_at(3, 3, 1)
    with pytest.raises(DomainError):
        hamiltonian_at(4, 6, Fraction(-3, 4))


def test_invalid_row():
    with pytest.raises(DomainError):
        scenario_path(0, 3)
    with pytest.raises(DomainError):
        hamiltonian_at(9, 3, 0)


@pytest.mark.parametrize("row", range(1, 7))
def test_dimension_one_rejected_at_every_time(row):
    with pytest.raises(DimensionError):
        scenario_path(row, 1)
    for t in (Fraction(-1, 4), 0, Fraction(1, 4)):
        with pytest.raises(DimensionError):
            hamiltonian_at(row, 1, t)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_path_bundles():
    samples = sample_path(1, 2, [Fraction(-1, 2), Fraction(0), Fraction(1, 4)])
    assert [s.t for s in samples] == [Fraction(-1, 2), 0, Fraction(1, 4)]
    assert samples[1].char_poly == ExactPolynomial.power(2)
    assert all(len(s.roots) == 2 for s in samples)


def test_sample_path_single_ep_sample():
    (sample,) = sample_path(2, 2, [Fraction(0)])
    assert sample.matrix == models.jordan_block(2, 0)
    assert sample.roots == (0j, 0j)  # the ladder at d = 0, not a float scatter


def test_sample_path_row_5_interface():
    samples = sample_path(5, 3, [Fraction(-1, 4), Fraction(0), Fraction(1, 4)])
    assert samples[1].matrix == models.jordan_block(3, 0)
    # off-interface samples share the exact characteristic polynomial with
    # the untransformed families they conjugate
    left = models.ao_hamiltonian(3, Fraction(1, 4)).char_poly()
    assert samples[0].char_poly == left


def test_sample_path_builds_its_path_once(monkeypatch):
    from epgate import scenarios
    calls = []
    original = scenarios.scenario_path

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(scenarios, "scenario_path", counted)
    sample_path(2, 4, [Fraction(-1, 4), Fraction(0), Fraction(1, 8)])
    assert calls == [(2, 4)]


# each row's interface constructor and the parameter it is read at
_INTERFACE = {1: ("bh_hamiltonian", 1), 2: ("jordan_block", 0),
              3: ("ao_hamiltonian", 0)}


@pytest.mark.parametrize("row", range(1, 7))
def test_sample_path_builds_the_interface_only_at_t_zero(monkeypatch, row):
    ts = [Fraction(-1, 4), Fraction(1, 8)]
    warm = sample_path(row, 4, ts)  # fills the pencil caches unpatched
    name, at = _INTERFACE[min(row, 7 - row)]
    original = getattr(models, name)

    def refuse_interface(n, p):
        if p == at:
            raise RuntimeError("interface matrix built")
        return original(n, p)

    monkeypatch.setattr(models, name, refuse_interface)
    assert [s.matrix for s in sample_path(row, 4, ts)] == \
        [s.matrix for s in warm]
    # a t = 0 sample reads the interface, through the patched constructor
    with pytest.raises(RuntimeError, match="interface matrix built"):
        sample_path(row, 4, [Fraction(0)])
    with pytest.raises(RuntimeError, match="interface matrix built"):
        scenario_path(row, 4).ep_matrix


def test_sample_path_propagates_domain_error():
    with pytest.raises(DomainError):
        sample_path(1, 3, [Fraction(-3)])


# the ladder polynomial a sample reports is the dense Faddeev-LeVerrier
# polynomial of the sampled matrix
@pytest.mark.parametrize("t", [Fraction(-1, 4), Fraction(0), Fraction(1, 8)],
                         ids=str)
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("row", range(1, 7))
def test_sample_char_poly_is_dense_char_poly(row, n, t):
    (sample,) = sample_path(row, n, [t])
    assert sample.matrix.char_poly() == sample.char_poly


def _sampled_family(row, t):
    """The model and parameter of the side a sample at t is read from,
    written out from the row table: t <= 0 is the left side."""
    bh_left = row <= 3
    if (t <= 0) == bh_left:
        return ModelId.BH, (1 + t if bh_left else 1 - t)
    return ModelId.AO, (t if bh_left else -t)


@pytest.mark.parametrize("row", range(1, 7))
def test_sample_is_the_recurrence_of_its_family(row):
    # the identity each sample reads from the once-per-(N, model) proof
    # instead of re-proving it
    for n in (2, 3, 4, 5, 8, 12):
        ts = [Fraction(0), Fraction(1, 64), Fraction(-1, 64),
              Fraction(5, 16), Fraction(-5, 16)]
        if n <= 5:  # the 2^-40 coupling radicands split only at small N
            ts += [Fraction(1, 2 ** 40), Fraction(-1, 2 ** 40)]
        for sample in sample_path(row, n, ts):
            model, param = _sampled_family(row, sample.t)
            assert sample.char_poly == \
                char_poly_tridiagonal(n, model, param), (n, sample.t)
            assert sample.roots == ladder_roots(n, ladder_d(
                model, models.checked_parameter(n, model, param))), \
                (n, sample.t)


def test_sample_path_proves_each_ladder_once(monkeypatch):
    # jacobi_data is read only by the proof on this path: D + 1 reads per
    # model, D = 8 for BH and 4 for AO, and none once the proofs are cached
    calls = []
    original = models.jacobi_data

    def counted(n, model, p):
        calls.append((n, model))
        return original(n, model, p)

    monkeypatch.setattr(models, "jacobi_data", counted)
    ts = [Fraction(-1, 4), Fraction(0), Fraction(1, 8), Fraction(1, 4)]
    sample_path(2, 8, ts)
    assert sorted(calls, key=str) == sorted(
        [(8, ModelId.BH)] * 9 + [(8, ModelId.AO)] * 5, key=str)
    calls.clear()
    sample_path(2, 8, ts)
    sample_path(5, 8, ts)
    assert calls == []


@pytest.mark.parametrize("row", range(1, 7))
def test_sample_path_maps_each_time_to_its_parameter_once(monkeypatch, row):
    # one time-map call per sample, and the one parameter it gives is what
    # the side constructor and the certified spectrum both read
    from epgate import scenarios
    ts = [Fraction(-1, 4), Fraction(-1, 64), Fraction(1, 64), Fraction(1, 8)]
    sample_path(row, 4, ts + [Fraction(0)])  # warm: no pencil builds below
    mapped, built, certified = [], [], []

    def counted(original, out, time_map=False):
        # records a time map's result, or the parameter a reader is given
        def wrapper(*args):
            result = original(*args)
            out.append(result if time_map else args[-1])
            return result
        return wrapper

    for name in ("_z_forward", "_lam_forward"):
        monkeypatch.setattr(scenarios, name, counted(
            getattr(scenarios, name), mapped, time_map=True))
    for name in _SIDES[min(row, 7 - row)]:
        monkeypatch.setattr(models, name,
                            counted(getattr(models, name), built))
    monkeypatch.setattr(spectra, "certified_spectrum",
                        counted(spectra.certified_spectrum, certified))
    sample_path(row, 4, ts)
    assert len(mapped) == len(built) == len(certified) == len(ts)
    for p, b, c in zip(mapped, built, certified):
        assert b is p and c is p
    # t = 0 maps once too, and reads the interface instead of a side
    mapped.clear()
    sample_path(row, 4, [Fraction(0)])
    assert len(mapped) == 1


_FRACTION_ORDER = ("__lt__", "__le__", "__gt__", "__ge__")


def test_warm_sample_path_makes_no_fraction_comparison(monkeypatch):
    # a warm sample reads every sign and domain edge from integer
    # numerators and denominators; a Fraction comparison on the per-sample
    # path is a regression of its cost
    ts = [Fraction(-31, 64), Fraction(-1, 16), Fraction(0), Fraction(1, 64),
          Fraction(1, 2)]
    for row in range(1, 7):
        sample_path(row, 8, ts)
    calls = []

    def counted(name):
        original = getattr(Fraction, name)

        def wrapper(self, other):
            calls.append(name)
            return original(self, other)
        return wrapper

    for name in _FRACTION_ORDER:
        monkeypatch.setattr(Fraction, name, counted(name))
    assert Fraction(1, 2) < 1 and calls == ["__lt__"]  # the patch counts
    calls.clear()
    for row in range(1, 7):
        sample_path(row, 8, ts)
    assert calls == []
