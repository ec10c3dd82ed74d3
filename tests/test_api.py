"""The public API: the names miclab exports and the signatures of its
functions and dataclasses.  ROADMAP.md freezes them; a change here changes
the API and has to be made on purpose."""

import dataclasses
import inspect

import miclab
from miclab.errors import MicLabError

EXPORTS = [
    "DEFAULT_TOL", "DualBasis", "Effect", "Mic", "MicKind", "MicLabError", "Povm",
    "SpectraHistogram", "ToleranceConfig", "appleby_mic", "born_probabilities",
    "dual_basis", "equiangular_mic", "example_seven_orthogonal", "gram", "is_unbiased",
    "mic_from_matrices", "near_orthogonal_family", "orthocross_mic", "plateau_metric",
    "random_mic", "reconstruct_state", "sic_mic", "sic_qubit", "spectra_study",
    "tensorhedron_mic", "tolerances_from_env", "validate_mic", "validate_povm", "wh_mic",
]

TOL = "tol: 'ToleranceConfig' = ToleranceConfig(rank_tol=1e-09, hermitian_tol=1e-12, zero_tol=1e-10)"

# every exported function and dataclass; MicKind and MicLabError take their
# signatures from the standard library and are pinned below by content
SIGNATURES = {
    "DualBasis": "(dim: 'int', stack: 'np.ndarray') -> None",
    "Effect": "(matrix: 'np.ndarray', weight: 'float') -> None",
    "Mic": "(dim: 'int', stack: 'np.ndarray', traces: 'np.ndarray', gram: 'np.ndarray') -> None",
    "Povm": "(dim: 'int', stack: 'np.ndarray', traces: 'np.ndarray') -> None",
    "SpectraHistogram": "(kind: 'MicKind', d: 'int', bin_width: 'Fraction', counts: 'np.ndarray', n_samples: 'int', seed: 'int') -> None",
    "ToleranceConfig": "(rank_tol: 'float' = 1e-09, hermitian_tol: 'float' = 1e-12, zero_tol: 'float' = 1e-10) -> None",
    "appleby_mic": f"(d: 'int', {TOL}) -> 'Mic'",
    "born_probabilities": f"(rho, povm: 'Povm', {TOL}) -> 'np.ndarray'",
    "dual_basis": f"(mic: 'Mic', {TOL}) -> 'DualBasis'",
    "equiangular_mic": f"(sic: 'Mic', beta: 'float', {TOL}) -> 'Mic'",
    "example_seven_orthogonal": f"({TOL}) -> 'Mic'",
    "gram": f"(povm: 'Povm', {TOL}) -> 'np.ndarray'",
    "is_unbiased": "(mic: 'Mic', tol: 'float' = 1e-09) -> 'bool'",
    "mic_from_matrices": f"(effects, {TOL}) -> 'Mic'",
    "near_orthogonal_family": f"(a_basis, b: 'Mic', t: 'float', {TOL}) -> 'Mic'",
    "orthocross_mic": f"(d: 'int', {TOL}) -> 'Mic'",
    "plateau_metric": "(h: 'SpectraHistogram') -> 'float'",
    "random_mic": f"(kind: 'MicKind', d: 'int', rng: 'np.random.Generator', {TOL}) -> 'Mic'",
    "reconstruct_state": f"(p, mic: 'Mic', {TOL}) -> 'np.ndarray'",
    "sic_mic": f"(d: 'int', {TOL}) -> 'Mic'",
    "sic_qubit": f"({TOL}) -> 'Mic'",
    "spectra_study": "(kind: 'MicKind', d: 'int', n_samples: 'int', bin_width, seed: 'int', workers: 'int' = 1) -> 'SpectraHistogram'",
    "tensorhedron_mic": f"(component: 'Mic', n: 'int', {TOL}) -> 'Mic'",
    "tolerances_from_env": "() -> 'ToleranceConfig'",
    "validate_mic": f"(povm: 'Povm', {TOL}) -> 'Mic'",
    "validate_povm": f"(effects, {TOL}) -> 'Povm'",
    "wh_mic": f"(rho, overlap_tol: 'float' = 1e-08, {TOL}) -> 'Mic'",
}


def test_exported_names():
    assert miclab.__all__ == EXPORTS


def test_exported_signatures():
    for name in EXPORTS:
        obj = getattr(miclab, name)
        if inspect.isfunction(obj) or dataclasses.is_dataclass(obj) and isinstance(obj, type):
            assert str(inspect.signature(obj)) == SIGNATURES.pop(name), name
    assert not SIGNATURES


def test_exported_constants_and_types():
    assert miclab.DEFAULT_TOL == miclab.ToleranceConfig()
    assert [k.value for k in miclab.MicKind] == ["generic", "generic-rank1", "wh", "wh-rank1"]
    assert miclab.MicLabError is MicLabError and issubclass(MicLabError, Exception)
