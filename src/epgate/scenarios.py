"""Time-parametrized families crossing the exceptional point.

Six scenario rows pair a t < 0 Hamiltonian family with a t > 0 family so
that both one-sided limits at t = 0 coincide exactly with a designated
interface matrix.  Rows 1-3 run the complex-symmetric model into the real
asymmetric one (z = 1 + t on the left, lambda = t on the right); rows 4-6
are their time reversals (lambda = -t, z = 1 - t), so
``hamiltonian_at(row, n, t) == hamiltonian_at(7 - row, n, -t)``.

The affine parametrizations are one representative of an equivalence class
of monotone reparametrizations; they are fixed here for determinism.
Limits are evaluated by exact substitution at t = 0, which is the limit
because every family is continuous in its parameter there.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction

from . import models, spectra
from .matrices import ExactMatrix, ExactPolynomial
from .models import DomainError, ModelId
from .radicals import RadicalSum

ROW_LABELS = {
    1: "BH to AO-like",
    2: "Jordan-block match",
    3: "BH-like to AO",
    4: "AO to BH-like",
    5: "Jordan-block match",
    6: "AO-like to BH",
}


@dataclass(frozen=True)
class Parametrization:
    """Affine maps from scenario time to the model parameters."""

    left_name: str
    left: Callable[[Fraction], Fraction]
    right_name: str
    right: Callable[[Fraction], Fraction]


@dataclass(frozen=True)
class ScenarioPath:
    """One scenario row at a fixed dimension: two one-parameter families
    glued at an exceptional-point interface matrix.  ``interface`` builds
    that matrix; it is built only when ``ep_matrix`` is read.  A side is
    its family's constructor at the parameter that t maps to."""

    row: int
    N: int
    label: str
    interface: Callable[[], ExactMatrix]
    left_side: Callable[[Fraction], ExactMatrix]
    right_side: Callable[[Fraction], ExactMatrix]
    parametrization: Parametrization

    @property
    def ep_matrix(self) -> ExactMatrix:
        return self.interface()

    def left_family(self, t: Fraction) -> ExactMatrix:
        return self.left_side(self.parametrization.left(t))

    def right_family(self, t: Fraction) -> ExactMatrix:
        return self.right_side(self.parametrization.right(t))


@dataclass(frozen=True)
class PathSample:
    t: Fraction
    matrix: ExactMatrix
    char_poly: ExactPolynomial
    roots: tuple[complex, ...]


def _z_forward(t: Fraction) -> Fraction:
    p, q = t.numerator, t.denominator
    if p > 0 or p < -2 * q:  # z = 1 + t outside [-1, 1]
        raise DomainError(f"t = {t} leaves the unit parameter interval "
                          "(the opposite exceptional point sits at z = -1)")
    return Fraction(p + q, q)


def _lam_forward(t: Fraction) -> Fraction:
    if t.numerator < 0:
        raise DomainError(f"t = {t} gives a negative oscillator parameter")
    return t


def _reversed(f: Callable) -> Callable:
    """f run backwards in time: t -> f(-t)."""
    return lambda t: f(-t)


# Rows 1-3 as (interface matrix, complex-symmetric side, real asymmetric
# side); rows 4-6 are built as their time reversals.  Each takes n, a side
# also its model parameter, and looks its constructor up in ``models`` when
# called, so a patched one is seen.
_ROWS = {
    1: (lambda n: models.bh_hamiltonian(n, 1),
        lambda n, z: models.bh_hamiltonian(n, z),
        lambda n, lam: models.ao_in_bh_frame(n, lam)),
    2: (lambda n: models.jordan_block(n, 0),
        lambda n, z: models.bh_in_jordan_basis(n, z),
        lambda n, lam: models.ao_in_jordan_basis(n, lam)),
    3: (lambda n: models.ao_hamiltonian(n, 0),
        lambda n, z: models.bh_in_ao_frame(n, z),
        lambda n, lam: models.ao_hamiltonian(n, lam)),
}


def scenario_path(row: int, n: int) -> ScenarioPath:
    """Build one scenario row at dimension n, its interface matrix the
    exceptional-point member both families reach at t = 0."""
    if row not in ROW_LABELS:
        raise DomainError(f"scenario row must be 1..6, got {row}")
    models._check_dimension(n)
    interface, bh_side, ao_side = _ROWS[min(row, 7 - row)]
    param = Parametrization("z", _z_forward, "lambda", _lam_forward)
    left = lambda z: bh_side(n, z)
    right = lambda lam: ao_side(n, lam)
    if row > 3:
        # row 7 - row run backwards: the sides swap and t becomes -t
        param = Parametrization(param.right_name, _reversed(param.right),
                                param.left_name, _reversed(param.left))
        left, right = right, left
    return ScenarioPath(row=row, N=n, label=ROW_LABELS[row],
                        interface=lambda: interface(n),
                        left_side=left, right_side=right,
                        parametrization=param)


def hamiltonian_at(row: int, n: int, t) -> ExactMatrix:
    """The scenario Hamiltonian at time t: the left family for t < 0, the
    interface matrix at t = 0, the right family for t > 0."""
    path = scenario_path(row, n)
    t, side, _, p = _at(path, t)
    return side(p) if t.numerator else path.ep_matrix


def _at(path: ScenarioPath, t) -> tuple[Fraction, Callable, ModelId,
                                          Fraction]:
    """(t, side, model, p): t as a Fraction, its side's family (the left
    side's for t <= 0, the right side's for t > 0), that family's model, and
    the parameter p that t maps to."""
    t = models._as_fraction(t)
    param = path.parametrization
    name, to_param, side = (
        (param.left_name, param.left, path.left_side) if t.numerator <= 0
        else (param.right_name, param.right, path.right_side))
    return t, side, ModelId.BH if name == "z" else ModelId.AO, to_param(t)


def check_sample(path: ScenarioPath, t) -> None:
    """Raise every error that sampling ``path`` at t can raise, without
    building the sample: t's side parameter, ``spectra.checked_ladder_d``
    there and, on an oscillator side, the split of the radicand of the
    family's scalar sqrt(1 - damping), through the lru-cached
    ``squarefree_decompose`` that the sample reads it from again."""
    _, _, model, p = _at(path, t)
    d = spectra.checked_ladder_d(path.N, model, p)
    if model is ModelId.AO:  # d is the damping
        RadicalSum.sqrt_rational(1 - d)


def path_samples(path: ScenarioPath, t_values) -> Iterator[PathSample]:
    """Sample a scenario path at the given times, each sample made when the
    next one is asked for: exact matrix, exact characteristic polynomial,
    and its closed-form roots.

    Each t is mapped once to its side's parameter, read by the side's
    constructor (the interface matrix at t = 0) and by
    ``spectra.certified_spectrum``: the sl(2) ladder of the family the
    sample is similar to, with its roots, proved to be the family's
    polynomial once per (n, model)."""
    for t in t_values:
        t, side, model, p = _at(path, t)
        matrix = side(p) if t.numerator else path.ep_matrix
        poly, roots = spectra.certified_spectrum(path.N, model, p)
        yield PathSample(t=t, matrix=matrix, char_poly=poly, roots=roots)


def sample_path(row: int, n: int, t_values) -> list[PathSample]:
    """``path_samples`` of the scenario row at dimension n, as a list."""
    return list(path_samples(scenario_path(row, n), t_values))
