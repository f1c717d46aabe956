"""Factor extraction from the feature correlation matrix.

Principal-component extraction: eigendecompose the correlation matrix of
the z-scored features and keep components whose eigenvalue exceeds 1 (the
Kaiser rule), floored at one component. Scores are the normalized data
projected onto the retained eigenvectors and are fed to clustering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ValidationError
from .features import FeatureMatrix, correlation_matrix

# An eigenvalue must beat 1 by more than this to count as "greater than 1".
_KAISER_TOL = 1e-9
_NEAR_UNITY_TOL = 1e-6


def check_factor_count(factors: int, n_features: int) -> None:
    if not 1 <= factors <= n_features:
        raise ValidationError(f"factors must lie in 1..{n_features}, got {factors}")


def check_factor_cities(n_cities: int) -> None:
    if n_cities < 3:
        raise ValidationError("factor extraction needs at least 3 cities")


@dataclass(frozen=True)
class FactorModel:
    eigenvalues: tuple[float, ...]
    retained: int
    loadings: np.ndarray  # features x retained, eigenvector * sqrt(eigenvalue)
    scores: np.ndarray  # cities x retained
    feature_names: tuple[str, ...]
    warnings: tuple[str, ...]


def extract_factors(matrix: FeatureMatrix, retained_override: int | None = None) -> FactorModel:
    """Eigendecomposition of the feature correlation matrix with Kaiser retention.

    ``retained_override`` bypasses the Kaiser rule when set. Constant
    (flagged-zero) columns yield an exact unit eigenvalue on the padded
    diagonal and therefore never pass the strict rule.
    """
    if matrix.normalization != "zscore":
        raise ValidationError("factor extraction requires a z-scored matrix")
    values = matrix.values
    if not np.all(np.isfinite(values)):
        raise DataError("feature matrix contains non-finite values")
    n_cities, n_features = values.shape
    check_factor_cities(n_cities)

    corr = correlation_matrix(values)
    eigvals, eigvecs = np.linalg.eigh(corr)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]

    warnings: list[str] = []
    if n_features > n_cities:
        warnings.append(
            f"rank deficient: {n_features} features from only {n_cities} cities"
        )
    near_unity = [i for i, v in enumerate(eigvals) if abs(v - 1.0) <= _NEAR_UNITY_TOL]
    if near_unity:
        warnings.append(
            "eigenvalues within 1e-6 of 1 at positions " + ", ".join(map(str, near_unity))
        )

    if retained_override is not None:
        check_factor_count(retained_override, n_features)
        retained = retained_override
    else:
        retained = int(np.sum(eigvals > 1.0 + _KAISER_TOL))
        if retained == 0:
            retained = 1
            warnings.append("no eigenvalue exceeds 1; retaining a single component")

    kept = eigvecs[:, :retained].copy()
    for j in range(retained):
        pivot = int(np.argmax(np.abs(kept[:, j])))
        if kept[pivot, j] < 0:
            kept[:, j] = -kept[:, j]
    loadings = kept * np.sqrt(np.clip(eigvals[:retained], 0.0, None))
    scores = values @ kept
    return FactorModel(
        eigenvalues=tuple(float(v) for v in eigvals),
        retained=retained,
        loadings=loadings,
        scores=scores,
        feature_names=matrix.feature_names,
        warnings=tuple(warnings),
    )
