"""Material parameter catalog and sampling distributions.

The catalog is the fixed register of the 41 scalar material parameters of the
bonded composite/metal bend specimen: the aluminum substrate set, the resin
set instantiated twice (cohesive layers between plies, and the metal/composite
interface), four woven-ply sets, and the shared in-plane shear set.  All other
modules address parameters by catalog name and rely on the catalog ordering
for array layouts.

A SamplingDistribution maps unit-cube designs into parameter space.  The two
stock choices vary every parameter around its catalog mean: a +/-20% uniform
box, and independent normals with 10% standard deviation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

# group name -> expected cardinality
GROUPS = {
    "metal": 5,
    "resin_cohesive": 6,
    "resin_interface": 6,
    "lamina_ebx1200": 4,
    "lamina_elt1800": 4,
    "lamina_h7500": 4,
    "lamina_h7781": 4,
    "lamina_shear": 8,
}


@dataclass(frozen=True)
class ParameterSpec:
    """One catalog entry: identifier, group, catalog mean, display units."""

    name: str
    group: str
    mean: float
    units: str

    def __post_init__(self):
        if not self.name.isidentifier():
            raise ValueError(f"parameter name {self.name!r} is not an identifier")
        if self.group not in GROUPS:
            raise ValueError(f"unknown group {self.group!r} for parameter {self.name!r}")
        if not np.isfinite(self.mean):
            raise ValueError(f"parameter {self.name!r}: non-finite mean")


class ParameterCatalog:
    """Immutable ordered collection of ParameterSpec entries.

    Lookup by name or integer position; iteration follows construction order,
    which is the canonical column order for design matrices and datasets.
    """

    def __init__(self, specs: Iterable[ParameterSpec]):
        self._specs = tuple(specs)
        self._index = {}
        for i, spec in enumerate(self._specs):
            if spec.name in self._index:
                raise ValueError(f"duplicate parameter name {spec.name!r}")
            self._index[spec.name] = i
        counts: dict[str, int] = {}
        for spec in self._specs:
            counts[spec.group] = counts.get(spec.group, 0) + 1
        for group, want in GROUPS.items():
            have = counts.get(group, 0)
            if have != want:
                raise ValueError(
                    f"group {group!r} has {have} parameters, expected {want}"
                )
        means = np.array([s.mean for s in self._specs], dtype=float)
        means.setflags(write=False)
        self._means = means

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[ParameterSpec]:
        return iter(self._specs)

    def __getitem__(self, key: str | int) -> ParameterSpec:
        if isinstance(key, str):
            try:
                return self._specs[self._index[key]]
            except KeyError:
                raise KeyError(f"unknown parameter {key!r}") from None
        return self._specs[key]

    def index(self, name: str) -> int:
        """Column position of a parameter name."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown parameter {name!r}") from None

    def indices(self, names: Iterable[str]) -> np.ndarray:
        return np.array([self.index(n) for n in names], dtype=int)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self._specs)

    @property
    def means(self) -> np.ndarray:
        """Catalog means in column order (read-only view)."""
        return self._means


# (name, group, mean, units) rows in canonical column order.
_TABLE = [
    # aluminum substrate
    ("E", "metal", 10.1, "msi"),
    ("nu", "metal", 0.29, "-"),
    ("A", "metal", 29.8, "ksi"),
    ("B", "metal", 103.6, "ksi"),
    ("Aln", "metal", 0.607, "-"),
    # resin, cohesive-layer instance
    ("EC", "resin_cohesive", 10.0, "msi"),
    ("XT", "resin_cohesive", 7.6, "ksi"),
    ("XS", "resin_cohesive", 4.9, "ksi"),
    ("GI", "resin_cohesive", 7.6, "lbf-in/in^2"),
    ("GII", "resin_cohesive", 16.6, "lbf-in/in^2"),
    ("BK", "resin_cohesive", 2.6, "-"),
    # resin, metal/composite interface instance
    ("EiC", "resin_interface", 10.0, "msi"),
    ("XiT", "resin_interface", 7.6, "ksi"),
    ("XiS", "resin_interface", 4.9, "ksi"),
    ("GiI", "resin_interface", 7.6, "lbf-in/in^2"),
    ("GiII", "resin_interface", 16.6, "lbf-in/in^2"),
    ("BiK", "resin_interface", 2.6, "-"),
    # +/-45 double-bias fabric
    ("E1200", "lamina_ebx1200", 2.8, "msi"),
    ("X1200", "lamina_ebx1200", 53.0, "ksi"),
    ("V1200", "lamina_ebx1200", 0.15, "-"),
    ("G1200", "lamina_ebx1200", 150.0, "lbs/in"),
    # 0/90 stitched fabric
    ("E1800", "lamina_elt1800", 2.8, "msi"),
    ("X1800", "lamina_elt1800", 53.0, "ksi"),
    ("V1800", "lamina_elt1800", 0.15, "-"),
    ("G1800", "lamina_elt1800", 150.0, "lbs/in"),
    # plain-weave cloth, bond side
    ("E7500", "lamina_h7500", 2.83, "msi"),
    ("X7500", "lamina_h7500", 46.7, "ksi"),
    ("V7500", "lamina_h7500", 0.15, "-"),
    ("G7500", "lamina_h7500", 100.0, "lbs/in"),
    # satin-weave cloth, outer surface
    ("E7781", "lamina_h7781", 4.4, "msi"),
    ("X7781", "lamina_h7781", 70.0, "ksi"),
    ("V7781", "lamina_h7781", 0.15, "-"),
    ("G7781", "lamina_h7781", 100.0, "lbs/in"),
    # shared in-plane shear set
    ("GS", "lamina_shear", 0.8, "msi"),
    ("SS", "lamina_shear", 5.16, "ksi"),
    ("alpha12", "lamina_shear", 0.2767, "-"),
    ("d12", "lamina_shear", 0.714, "-"),
    ("epsilon", "lamina_shear", 0.02, "-"),
    ("sigmaY", "lamina_shear", 5.16, "ksi"),
    ("C", "lamina_shear", 0.65, "msi"),
    ("P", "lamina_shear", 0.729, "-"),
]


def build_catalog() -> ParameterCatalog:
    """Construct the canonical 41-parameter catalog."""
    return ParameterCatalog(ParameterSpec(*row) for row in _TABLE)


# each names the SamplingDistribution constructor it selects
DISTRIBUTIONS = ("uniform_pm20", "normal_10std")


@dataclass(frozen=True)
class SamplingDistribution:
    """Per-parameter marginal distribution family around catalog means.

    Fractions are multipliers of the mean: the uniform kind spans
    [lo_frac * mean, hi_frac * mean]; the normal kind is
    N(mean_frac * mean, (std_frac * mean)^2).  Unit designs map through
    the inverse CDF, so stratified designs stay stratified in probability.
    """

    kind: str
    lo_frac: float = 0.0
    hi_frac: float = 0.0
    mean_frac: float = 1.0
    std_frac: float = 0.0

    def __post_init__(self):
        if self.kind not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.is_bounded and not self.lo_frac < self.hi_frac:
            raise ValueError("uniform distribution needs lo_frac < hi_frac")
        if not self.is_bounded and self.std_frac <= 0.0:
            raise ValueError("normal distribution needs std_frac > 0")

    @classmethod
    def uniform_pm20(cls) -> "SamplingDistribution":
        return cls("uniform_pm20", lo_frac=0.8, hi_frac=1.2)

    @classmethod
    def normal_10std(cls) -> "SamplingDistribution":
        return cls("normal_10std", std_frac=0.1)

    @property
    def is_bounded(self) -> bool:
        return self.kind == "uniform_pm20"

    def bounds(self, catalog: ParameterCatalog) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) support arrays in catalog order; bounded kinds only."""
        if not self.is_bounded:
            raise ValueError(f"{self.kind} has unbounded support")
        means = catalog.means
        return self.lo_frac * means, self.hi_frac * means

    def transform(self, unit: np.ndarray, catalog: ParameterCatalog, columns=None) -> np.ndarray:
        """Map a unit-cube design (n, d) or point (d,) into parameter space.

        Columns correspond to catalog order (d = len(catalog)), or to the
        catalog indices in columns when the design varies only those.  Each
        column maps through its own marginal, so a column's values do not
        depend on which other columns are mapped with it.
        """
        u = np.asarray(unit, dtype=float)
        if np.any(u < 0.0) or np.any(u > 1.0):
            raise ValueError("unit design has coordinates outside [0, 1]")
        d = u.shape[-1]
        cols = slice(None) if columns is None else np.asarray(columns, dtype=np.intp)
        means = catalog.means[cols]
        if d != means.size:
            raise ValueError(f"design has {d} columns, expected {means.size}")
        if self.is_bounded:
            lo, hi = self.bounds(catalog)
            lo, hi = lo[cols], hi[cols]
            return lo + u * (hi - lo)
        # clip away exact 0/1 so the quantile stays finite
        tiny = np.finfo(float).tiny
        q = np.clip(u, tiny, 1.0 - 1e-16)
        return self.mean_frac * means + (self.std_frac * means) * _normal_quantile(q)


# Wichura's AS241 (PPND16), Applied Statistics 37 (1988) 477-484: three
# rational approximations to the standard normal quantile, numerator and
# denominator coefficients highest power first.
_AS241_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_AS241_NEAR_TAIL = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0),
)
_AS241_FAR_TAIL = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)


def _rational(coefs, r):
    num, den = coefs
    return np.polyval(num, r) / np.polyval(den, r)


def _normal_quantile(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile of p in (0, 1) by AS241, within 4 ulp.

    Each of the three branches runs only on the elements it covers: the
    centre |p - 1/2| <= 0.425, then the tails split at r = sqrt(-log(min(p,
    1 - p))) = 5.
    """
    q = p - 0.5
    out = np.empty_like(q)
    central = np.abs(q) <= 0.425
    qc = q[central]
    out[central] = qc * _rational(_AS241_CENTRAL, 0.180625 - qc * qc)
    tail = ~central
    qt = q[tail]
    pt = p[tail]
    r = np.sqrt(-np.log(np.where(qt < 0.0, pt, 1.0 - pt)))
    z = np.empty_like(r)
    near = r <= 5.0
    z[near] = _rational(_AS241_NEAR_TAIL, r[near] - 1.6)
    z[~near] = _rational(_AS241_FAR_TAIL, r[~near] - 5.0)
    out[tail] = np.copysign(z, qt)
    return out
