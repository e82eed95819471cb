"""Direct and summed reduced-dimension surrogate workflows.

Two routes lead from a sampled dataset to a total-energy predictor.  The
direct route trains one network on all catalog inputs, screens the data for
the dominant parameters, and refits a reduced network over only those
(default four).  The summed route builds one reduced model per damage
mechanism (at most three inputs each), resamples the disbond subspace where
the base design leaves it starved, gates the disbond contribution with a
ruled-surface engagement test, and predicts the total as the sum of the five
mechanism models.

Either way the result is queried with full catalog vectors; coordinates that
were not retained are never read, so perturbing them changes the prediction
by exactly zero.  Nested-subset uncertainty sweeps track how the predicted
mean and spread respond as parameters are released one at a time, and the
comparison report scores both routes on held-out rows, overall and inside
the disbond-engaged region.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .bend import BendSpecimen, simulate_dataset
from .catalog import ParameterCatalog, SamplingDistribution
from .dataset import ENERGY_COLUMNS, MECHANISMS, Dataset
from .errors import SchemaError
from .sampling import sample_lhs, sample_lss
from .sensitivity import ScreeningResult, screen_fdr_logworth
from .surrogate import (
    NetworkSpec,
    SurrogateModel,
    TrainReport,
    _NEAR_ZERO_FRACTION,
    _require_keys,
    deserialize_model,
    serialize_model,
    train_surrogate,
)

__all__ = [
    "MechanismRDSM",
    "EngagementGate",
    "SummedRDSM",
    "DirectFit",
    "MechanismFit",
    "SummedFit",
    "SubspaceSample",
    "UQRow",
    "UQReport",
    "ApproachStats",
    "ComparisonSection",
    "ComparisonReport",
    "engagement_mask",
    "fit_direct",
    "fit_mechanism",
    "fit_summed",
    "resample_subspace",
    "uq_sweep",
    "compare_approaches",
    "split_holdout",
]

# engagement threshold: a mechanism counts as engaged on a row when it
# contributes at least this fraction of the row's total energy
ENGAGEMENT_FRACTION = 0.03

# default hidden layers, learning rate, and (train, test) split per mechanism
_MECHANISM_NETWORKS = {
    "PL": ((65, 70), 0.001, (0.9, 0.1)),
    "DL": ((55, 55), 0.001, (0.9, 0.1)),
    "DC": ((50,), 0.001, (0.9, 0.1)),
    "DI": ((16, 16), 0.0015, (0.8, 0.2)),
    "PM": ((60, 80), 0.001, (0.9, 0.1)),
}

# how many parameters the disbond resampling varies: the top of the disbond
# screening ladder well past the retention drop, since the engaged region is
# identified with far less certainty than the dominant parameters themselves
_SUBSPACE_VARIED = 12

_MANIFEST_NAME = "manifest.json"
_MECHANISM_FORMAT = "rdsm-mechanism"
_MECHANISM_VERSION = 1
_SUMMED_FORMAT = "rdsm-summed"
_SUMMED_VERSION = 1


class MechanismRDSM:
    """Reduced surrogate for one energy column, queried with full vectors.

    The model depends only on retained_params; every other coordinate is
    frozen at the baseline.  Two surrogate shapes are supported: a reduced
    network over exactly the retained columns (they are gathered and the
    rest never read), and a full-width network (non-retained columns are
    overwritten with baseline values before evaluation).  Either way a
    perturbation of a non-retained coordinate changes the output by exactly
    zero.
    """

    def __init__(
        self,
        mechanism: str,
        retained_params,
        surrogate: SurrogateModel,
        baseline,
        catalog: ParameterCatalog,
    ):
        if mechanism not in ENERGY_COLUMNS:
            raise ValueError(f"unknown energy column {mechanism!r}")
        retained = tuple(retained_params)
        if not retained:
            raise ValueError("need at least one retained parameter")
        if len(set(retained)) != len(retained):
            raise ValueError("retained parameters contain duplicates")
        cols = catalog.indices(retained)
        d = surrogate.spec.input_dim
        if d not in (len(retained), len(catalog)):
            raise ValueError(
                f"surrogate takes {d} inputs; expected {len(retained)} (reduced) "
                f"or {len(catalog)} (full width)"
            )
        base = np.array(baseline, dtype=float)
        if base.shape != (len(catalog),):
            raise ValueError(f"baseline must have {len(catalog)} coordinates")
        if not np.all(np.isfinite(base)):
            raise ValueError("baseline contains non-finite values")
        base.setflags(write=False)
        cols.setflags(write=False)
        self.mechanism = mechanism
        self.retained_params = retained
        self.surrogate = surrogate
        self.baseline = base
        self.catalog = catalog
        self._cols = cols
        self._reduced = d == len(retained)

    def predict(self, x) -> np.ndarray:
        """Predictions for (n, d) full catalog vectors."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != len(self.catalog):
            raise ValueError(
                f"input has {x.shape[1]} columns, catalog has {len(self.catalog)}"
            )
        if self._reduced:
            return self.surrogate.predict(x[:, self._cols])
        full = np.tile(self.baseline, (x.shape[0], 1))
        full[:, self._cols] = x[:, self._cols]
        return self.surrogate.predict(full)

    # -- persistence ---------------------------------------------------------
    def save(self, path) -> None:
        """Write a self-contained JSON artifact for this model."""
        doc = {
            "format": _MECHANISM_FORMAT,
            "version": _MECHANISM_VERSION,
            "mechanism": self.mechanism,
            "retained_params": list(self.retained_params),
            "catalog_names": list(self.catalog.names),
            "baseline": self.baseline.tolist(),
            "model": json.loads(serialize_model(self.surrogate)),
        }
        Path(path).write_text(json.dumps(doc, indent=2), encoding="utf-8")

    @classmethod
    def load(cls, path, catalog: ParameterCatalog) -> "MechanismRDSM":
        path = Path(path)
        if not path.is_file():
            raise SchemaError(f"no model file at {path}")
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SchemaError(f"malformed model file: {exc}") from None
        _require_keys(
            doc,
            {
                "format",
                "version",
                "mechanism",
                "retained_params",
                "catalog_names",
                "baseline",
                "model",
            },
            "mechanism model",
        )
        if doc["format"] != _MECHANISM_FORMAT:
            raise SchemaError(f"unsupported format {doc['format']!r}")
        if doc["version"] != _MECHANISM_VERSION:
            raise SchemaError(f"unsupported version {doc['version']!r}")
        if tuple(doc["catalog_names"]) != catalog.names:
            raise SchemaError("model catalog does not match the given catalog")
        model = deserialize_model(json.dumps(doc["model"]))
        try:
            return cls(
                doc["mechanism"],
                tuple(doc["retained_params"]),
                model,
                doc["baseline"],
                catalog,
            )
        except (KeyError, ValueError) as exc:
            raise SchemaError(f"invalid mechanism model: {exc}") from None


# edge endpoints of the engagement boundary at the two extreme heights,
# each written as (p, xs): edge A carries the nonzero-p vertices, edge B
# runs along p = 0
_EDGE_A = ((0.4, 0.0), (0.85, 0.3))  # z = 0 endpoint, z = 1 endpoint
_EDGE_B = ((0.0, 0.5), (0.0, 1.0))

_GATE_VERTICES = tuple(
    (*edge[z], float(z)) for z in (0, 1) for edge in (_EDGE_A, _EDGE_B)
)


@dataclass(frozen=True)
class EngagementGate:
    """Ruled-surface test for disbond engagement in normalized coordinates.

    The four boundary vertices are not coplanar, so the boundary is the
    ruled surface that sweeps a straight line between two edges: at height
    z (the third coordinate) the line runs from (0.4 + 0.45 z, 0.3 z) to
    (0, 0.5 + 0.5 z) in the (p, xs) plane.  Points on the (1, 1) side are
    engaged, and the boundary itself counts as engaged: wrongly reporting
    zero energy is the worse failure.  axes names the catalog parameters
    that feed the three coordinates.
    """

    axes: tuple[str, str, str] = ("P", "XiS", "GiII")

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        if len(self.axes) != 3 or len(set(self.axes)) != 3:
            raise ValueError("gate needs three distinct axis names")

    @property
    def vertices(self) -> tuple[tuple[float, float, float], ...]:
        return _GATE_VERTICES

    def boundary_margin(self, p_norm, xs_norm, giii_norm) -> np.ndarray | float:
        """Signed distance surrogate: positive on the engaged side, zero on
        the boundary.  All coordinates must lie in [0, 1]."""
        p = np.asarray(p_norm, dtype=float)
        xs = np.asarray(xs_norm, dtype=float)
        z = np.asarray(giii_norm, dtype=float)
        for name, v in (("p_norm", p), ("xs_norm", xs), ("giii_norm", z)):
            if np.any(v < 0.0) or np.any(v > 1.0) or not np.all(np.isfinite(v)):
                raise ValueError(f"gate coordinate {name} outside [0, 1]")
        a = _EDGE_A[0][0] + (_EDGE_A[1][0] - _EDGE_A[0][0]) * z  # p at edge A
        b = _EDGE_A[0][1] + (_EDGE_A[1][1] - _EDGE_A[0][1]) * z  # xs at edge A
        c = _EDGE_B[0][1] + (_EDGE_B[1][1] - _EDGE_B[0][1]) * z  # xs at edge B
        # line through (a, b) and (0, c); both a and c - b stay positive on
        # [0, 1], so the margin grows toward (1, 1)
        margin = a * xs + (c - b) * p - a * c
        if margin.ndim == 0:
            return float(margin)
        return margin

    def engaged(self, p_norm, xs_norm, giii_norm):
        """True where the point is on the engaged side (boundary included)."""
        return self.boundary_margin(p_norm, xs_norm, giii_norm) >= 0.0


class SummedRDSM:
    """Total-energy predictor summing five mechanism models, disbond gated.

    The disbond term is zeroed exactly on rows the gate calls nonengaged.
    The total is always accumulated in the fixed order PL + DL + DC + DI +
    PM, so re-summing a breakdown reproduces the total bit for bit.  Gate
    coordinates are the gate-axis columns normalized over the sampling
    box; query points beyond the box are gated as if projected onto its
    surface.
    """

    def __init__(
        self,
        members,
        gate: EngagementGate,
        catalog: ParameterCatalog,
        dist: SamplingDistribution,
    ):
        members = dict(members)
        if set(members) != set(MECHANISMS):
            raise ValueError(f"members must cover exactly {sorted(MECHANISMS)}")
        for name, member in members.items():
            if member.mechanism != name:
                raise ValueError(
                    f"member under key {name!r} models {member.mechanism!r}"
                )
            if member.catalog.names != catalog.names:
                raise ValueError(f"member {name!r} is bound to a different catalog")
        if not dist.is_bounded:
            raise ValueError("gate normalization needs a bounded distribution")
        axis_cols = catalog.indices(gate.axes)
        lo, hi = dist.bounds(catalog)
        baseline = np.array(catalog.means, dtype=float)
        baseline.setflags(write=False)
        self.members = MappingProxyType(members)
        self.gate = gate
        self.catalog = catalog
        self.dist = dist
        self.baseline = baseline
        self._axis_cols = axis_cols
        self._axis_lo = lo[axis_cols]
        self._axis_span = hi[axis_cols] - lo[axis_cols]

    def _check_rows(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != len(self.catalog):
            raise ValueError(
                f"input has {x.shape[1]} columns, catalog has {len(self.catalog)}"
            )
        return x

    def gate_coordinates(self, x) -> np.ndarray:
        """Normalized (n, 3) gate coordinates, clipped into the unit cube."""
        x = self._check_rows(x)
        u = (x[:, self._axis_cols] - self._axis_lo) / self._axis_span
        return np.clip(u, 0.0, 1.0)

    def engaged(self, x) -> np.ndarray:
        u = self.gate_coordinates(x)
        return self.gate.engaged(u[:, 0], u[:, 1], u[:, 2])

    def predict_breakdown(self, x) -> dict[str, np.ndarray]:
        """Per-mechanism predictions with the disbond term already gated."""
        x = self._check_rows(x)
        parts = {name: self.members[name].predict(x) for name in MECHANISMS}
        parts["DI"] = np.where(self.engaged(x), parts["DI"], 0.0)
        return parts

    def predict(self, x) -> np.ndarray:
        parts = self.predict_breakdown(x)
        total = parts[MECHANISMS[0]]
        for name in MECHANISMS[1:]:
            total = total + parts[name]
        return total

    # -- persistence ---------------------------------------------------------
    def save(self, directory) -> None:
        """Write one model file per mechanism plus a manifest."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format": _SUMMED_FORMAT,
            "version": _SUMMED_VERSION,
            "catalog_names": list(self.catalog.names),
            "distribution": {
                "kind": self.dist.kind,
                "lo_frac": self.dist.lo_frac,
                "hi_frac": self.dist.hi_frac,
                "mean_frac": self.dist.mean_frac,
                "std_frac": self.dist.std_frac,
            },
            "gate": {
                "axes": list(self.gate.axes),
                "vertices": [list(v) for v in self.gate.vertices],
            },
            "baseline": self.baseline.tolist(),
            "mechanisms": {
                name: {
                    "file": f"{name}.json",
                    "retained_params": list(member.retained_params),
                }
                for name, member in self.members.items()
            },
        }
        for name, member in self.members.items():
            (directory / f"{name}.json").write_bytes(serialize_model(member.surrogate))
        (directory / _MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2), encoding="utf-8"
        )

    @classmethod
    def load(cls, directory, catalog: ParameterCatalog) -> "SummedRDSM":
        directory = Path(directory)
        path = directory / _MANIFEST_NAME
        if not path.is_file():
            raise SchemaError(f"no {_MANIFEST_NAME} in {directory}")
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SchemaError(f"malformed manifest: {exc}") from None
        _require_keys(
            doc,
            {
                "format",
                "version",
                "catalog_names",
                "distribution",
                "gate",
                "baseline",
                "mechanisms",
            },
            "manifest",
        )
        if doc["format"] != _SUMMED_FORMAT:
            raise SchemaError(f"unsupported format {doc['format']!r}")
        if doc["version"] != _SUMMED_VERSION:
            raise SchemaError(f"unsupported version {doc['version']!r}")
        if tuple(doc["catalog_names"]) != catalog.names:
            raise SchemaError("manifest catalog does not match the given catalog")
        _require_keys(
            doc["distribution"],
            {"kind", "lo_frac", "hi_frac", "mean_frac", "std_frac"},
            "distribution",
        )
        try:
            dist = SamplingDistribution(**doc["distribution"])
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"invalid distribution: {exc}") from None
        _require_keys(doc["gate"], {"axes", "vertices"}, "gate")
        try:
            gate = EngagementGate(axes=tuple(doc["gate"]["axes"]))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"invalid gate: {exc}") from None
        if tuple(tuple(v) for v in doc["gate"]["vertices"]) != _GATE_VERTICES:
            raise SchemaError("manifest gate vertices do not match the fixed geometry")
        if set(doc["mechanisms"]) != set(MECHANISMS):
            raise SchemaError(
                f"manifest mechanisms must cover exactly {sorted(MECHANISMS)}"
            )
        members = {}
        for name in MECHANISMS:
            entry = doc["mechanisms"][name]
            _require_keys(entry, {"file", "retained_params"}, f"mechanism {name}")
            model_path = directory / entry["file"]
            if not model_path.is_file():
                raise SchemaError(f"missing model file {entry['file']!r} for {name}")
            model = deserialize_model(model_path.read_bytes())
            try:
                members[name] = MechanismRDSM(
                    name, tuple(entry["retained_params"]), model, doc["baseline"], catalog
                )
            except (KeyError, ValueError) as exc:
                raise SchemaError(f"invalid mechanism {name}: {exc}") from None
        try:
            return cls(members, gate, catalog, dist)
        except (KeyError, ValueError) as exc:
            raise SchemaError(f"invalid manifest contents: {exc}") from None


# -- fitting ------------------------------------------------------------------


@dataclass(frozen=True)
class DirectFit:
    """Direct-route artifacts: full-width model, screen, reduced model."""

    full_model: SurrogateModel
    screening: ScreeningResult
    rdsm: MechanismRDSM


@dataclass(frozen=True)
class MechanismFit:
    """One mechanism's fit outcome; rdsm is None when data cannot support
    a model and resampling the mechanism's subspace is required."""

    mechanism: str
    rdsm: MechanismRDSM | None
    screening: ScreeningResult | None
    needs_resampling: bool
    note: str = ""


@dataclass(frozen=True)
class SummedFit:
    """Summed-route artifacts: the assembled model plus per-mechanism fits."""

    summed: SummedRDSM
    fits: dict[str, MechanismFit]
    disbond_base_screening: ScreeningResult | None
    subspace: "SubspaceSample | None"

    def __post_init__(self):
        object.__setattr__(self, "fits", MappingProxyType(dict(self.fits)))


def _default_network(mechanism: str, input_dim: int, seed: int) -> NetworkSpec:
    hidden, rate, split = _MECHANISM_NETWORKS.get(mechanism, ((60, 80), 0.001, (0.9, 0.1)))
    return NetworkSpec(
        input_dim=input_dim,
        hidden_layers=hidden,
        learning_rate=rate,
        split=split,
        seed=seed,
    )


def _nonempty_retained(screening: ScreeningResult) -> tuple[tuple[str, ...], str]:
    """Retention with a floor of one parameter: an energy that varies has a
    best single predictor even when nothing clears the significance bar."""
    if screening.retained:
        return screening.retained, ""
    top = screening.entries[0].name
    return (top,), f"no parameter cleared the significance floor; kept {top}"


def fit_direct(
    dataset: Dataset,
    network: NetworkSpec | None = None,
    max_retained: int = 4,
    query_mode: str = "retrained",
    seed: int = 0,
) -> DirectFit:
    """Fit the direct route: full-width network, screen, reduced refit.

    query_mode picks how the reduced model answers queries: "retrained"
    fits a fresh network on just the retained columns; "frozen_full"
    reuses the full-width network with non-retained inputs pinned at the
    catalog means.
    """
    if len(dataset) < 100:
        raise ValueError(f"need at least 100 rows, got {len(dataset)}")
    if query_mode not in ("retrained", "frozen_full"):
        raise ValueError(f"unknown query_mode {query_mode!r}")
    catalog = dataset.catalog
    if network is None:
        network = NetworkSpec(input_dim=len(catalog), seed=seed)
    elif network.input_dim != len(catalog):
        raise ValueError(
            f"network takes {network.input_dim} inputs, catalog has {len(catalog)}"
        )
    ts = dataset.energy("TS")
    full_model = train_surrogate(network, dataset.inputs, ts)
    screening = screen_fdr_logworth(
        dataset.inputs, ts, catalog.names, "TS", max_k=max_retained
    )
    retained, _ = _nonempty_retained(screening)
    if query_mode == "retrained":
        reduced_spec = replace(network, input_dim=len(retained))
        model = train_surrogate(reduced_spec, dataset.input_columns(retained), ts)
    else:
        model = full_model
    rdsm = MechanismRDSM("TS", retained, model, catalog.means, catalog)
    return DirectFit(full_model=full_model, screening=screening, rdsm=rdsm)


def fit_mechanism(
    dataset: Dataset,
    mechanism: str,
    network: NetworkSpec | None = None,
    max_retained: int = 3,
    seed: int = 0,
) -> MechanismFit:
    """Screen one mechanism energy and fit a reduced model on the survivors.

    A mechanism that never varies over the dataset cannot be screened or
    fitted; the result then carries no model and asks for resampling of the
    mechanism's subspace instead.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    y = dataset.energy(mechanism)
    if np.ptp(y) == 0.0:
        return MechanismFit(
            mechanism=mechanism,
            rdsm=None,
            screening=None,
            needs_resampling=True,
            note=f"{mechanism} is constant over the dataset",
        )
    catalog = dataset.catalog
    screening = screen_fdr_logworth(
        dataset.inputs, y, catalog.names, mechanism, max_k=max_retained
    )
    retained, note = _nonempty_retained(screening)
    if network is None:
        network = _default_network(mechanism, len(retained), seed)
    elif network.input_dim != len(retained):
        raise ValueError(
            f"network takes {network.input_dim} inputs but {len(retained)} "
            "parameters were retained"
        )
    model = train_surrogate(network, dataset.input_columns(retained), y)
    rdsm = MechanismRDSM(mechanism, retained, model, catalog.means, catalog)
    return MechanismFit(
        mechanism=mechanism,
        rdsm=rdsm,
        screening=screening,
        needs_resampling=False,
        note=note,
    )


@dataclass(frozen=True)
class SubspaceSample:
    """Focused design outcome: all simulated rows plus the engaged subset."""

    dataset: Dataset
    engaged_mask: np.ndarray
    fitting: Dataset
    varied_params: tuple[str, ...]
    threshold: float
    threshold_mode: str

    @property
    def empty(self) -> bool:
        """True when no row crossed the engagement threshold."""
        return len(self.fitting) == 0


def engagement_mask(
    dataset: Dataset,
    mechanism: str,
    threshold: float = ENGAGEMENT_FRACTION,
    threshold_mode: str = "relative",
) -> np.ndarray:
    """Rows where the mechanism is engaged.

    "relative" keeps rows whose mechanism energy reaches the threshold as a
    fraction of the row's total; "absolute" compares the energy itself
    against the threshold.  Equality counts as engaged.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if threshold_mode not in ("relative", "absolute"):
        raise ValueError(f"unknown threshold_mode {threshold_mode!r}")
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    y = dataset.energy(mechanism)
    if threshold_mode == "relative":
        ts = dataset.energy("TS")
        return (ts > 0.0) & (y >= threshold * ts)
    return y >= threshold


def _subspace_design(design, names, catalog, dist, pinned) -> np.ndarray:
    """Rows varying the named columns over a unit design, the rest pinned."""
    cols = catalog.indices(names)
    unit = np.full((design.shape[0], len(catalog)), 0.5)
    unit[:, cols] = design
    x = dist.transform(unit, catalog)
    frozen = np.setdiff1d(np.arange(len(catalog)), cols)
    x[:, frozen] = pinned[frozen]
    return x


def resample_subspace(
    specimen: BendSpecimen,
    varied_params,
    n: int,
    seed: int,
    dist: SamplingDistribution | None = None,
    mechanism: str = "DI",
    threshold: float = ENGAGEMENT_FRACTION,
    threshold_mode: str = "relative",
    threads: int = 1,
) -> SubspaceSample:
    """Simulate a design that varies only the named parameters.

    Every other column is held exactly at its catalog mean.  Rows where the
    mechanism falls below the engagement threshold (by default, under 3% of
    the row's total energy; "absolute" compares the raw energy against the
    threshold instead) are tagged and left out of the fitting subset.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if threshold_mode not in ("relative", "absolute"):
        raise ValueError(f"unknown threshold_mode {threshold_mode!r}")
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    varied = tuple(varied_params)
    if not varied:
        raise ValueError("need at least one varied parameter")
    if len(set(varied)) != len(varied):
        raise ValueError("varied parameters contain duplicates")
    catalog = specimen.catalog
    if dist is None:
        dist = SamplingDistribution.uniform_pm20()
    design = sample_lhs(n, len(varied), seed).values
    x = _subspace_design(design, varied, catalog, dist, catalog.means)
    ds = simulate_dataset(x, specimen, threads=threads)
    mask = engagement_mask(ds, mechanism, threshold, threshold_mode)
    mask.setflags(write=False)
    return SubspaceSample(
        dataset=ds,
        engaged_mask=mask,
        fitting=ds.subset(mask),
        varied_params=varied,
        threshold=threshold,
        threshold_mode=threshold_mode,
    )


def _constant_member(
    mechanism: str, value: float, catalog: ParameterCatalog, anchor: str
) -> MechanismRDSM:
    """Degenerate member predicting one constant; placeholder single input."""
    spec = NetworkSpec(input_dim=1, hidden_layers=(1,), epochs=1, scaling="identity")
    weights = [np.zeros((1, 1)), np.zeros((1, 1))]
    biases = [np.zeros(1), np.zeros(1)]
    report = TrainReport(0.0, math.nan, 0, 0, 0, 0, True, 0, (), ())
    model = SurrogateModel(
        spec, weights, biases, np.zeros(1), np.ones(1), value, value, report
    )
    return MechanismRDSM(mechanism, (anchor,), model, catalog.means, catalog)


def fit_summed(
    dataset: Dataset,
    specimen: BendSpecimen,
    dist: SamplingDistribution | None = None,
    gate: EngagementGate | None = None,
    seed: int = 0,
    resample_n: int = 3277,
    threshold: float = ENGAGEMENT_FRACTION,
    threshold_mode: str = "relative",
    threads: int = 1,
) -> SummedFit:
    """Fit the summed route end to end.

    The four broadly engaged mechanisms are screened and fitted on the base
    dataset.  The disbond energy is mostly zero there, so its model comes
    from a focused design instead: the top of the disbond screening ladder
    names the varied parameters, the source model simulates the subspace,
    rows under the engagement threshold are dropped, and the survivors are
    rescreened and fitted.  A mechanism whose data cannot support a model
    enters the sum as a flagged constant so the assembly stays usable.
    """
    if len(dataset) < 100:
        raise ValueError(f"need at least 100 rows, got {len(dataset)}")
    catalog = dataset.catalog
    if specimen.catalog.names != catalog.names:
        raise ValueError("specimen and dataset use different catalogs")
    if dist is None:
        dist = SamplingDistribution.uniform_pm20()
    if gate is None:
        gate = EngagementGate()
    catalog.indices(gate.axes)  # unknown axis names fail here

    fits: dict[str, MechanismFit] = {}
    members: dict[str, MechanismRDSM] = {}
    for mech in ("PL", "DL", "DC", "PM"):
        fit = fit_mechanism(dataset, mech, seed=seed)
        if fit.rdsm is None:
            constant = float(dataset.energy(mech)[0])
            members[mech] = _constant_member(mech, constant, catalog, catalog.names[0])
        else:
            members[mech] = fit.rdsm
        fits[mech] = fit

    # disbond route: rank drivers on the base data, vary the top of the
    # ladder in a focused design, then screen and fit on the engaged rows
    y_di = dataset.energy("DI")
    if np.ptp(y_di) > 0.0:
        base_screen = screen_fdr_logworth(
            dataset.inputs, y_di, catalog.names, "DI", max_k=3
        )
        varied = tuple(
            e.name for e in base_screen.entries[:_SUBSPACE_VARIED] if not e.zero_variance
        )
    else:
        base_screen = None
        varied = tuple(
            dict.fromkeys(
                list(gate.axes)
                + [p for f in fits.values() if f.rdsm for p in f.rdsm.retained_params]
            )
        )
    subspace = resample_subspace(
        specimen,
        varied,
        resample_n,
        seed,
        dist=dist,
        mechanism="DI",
        threshold=threshold,
        threshold_mode=threshold_mode,
        threads=threads,
    )
    if len(subspace.fitting) >= 30:
        fits["DI"] = fit_mechanism(subspace.fitting, "DI", seed=seed)
        level = float(subspace.fitting.energy("DI")[0])  # used if DI never varies
    else:
        note = (
            "disbond never crossed the engagement threshold"
            if subspace.empty
            else f"only {len(subspace.fitting)} engaged rows; need 30 to screen"
        )
        fits["DI"] = MechanismFit("DI", None, base_screen, True, note)
        level = 0.0
    members["DI"] = fits["DI"].rdsm or _constant_member("DI", level, catalog, gate.axes[0])

    summed = SummedRDSM(members, gate, catalog, dist)
    return SummedFit(
        summed=summed,
        fits=fits,
        disbond_base_screening=base_screen,
        subspace=subspace,
    )


# -- uncertainty sweep ----------------------------------------------------------


@dataclass(frozen=True)
class UQRow:
    """Prediction statistics with one parameter subset varied."""

    params: tuple[str, ...]
    mean: float
    std: float


@dataclass(frozen=True)
class UQReport:
    """Nested-subset sweep: rows plus consecutive symmetric differences.

    diffs[i] holds the percent differences (mean, std) between rows[i] and
    rows[i + 1], each as 100 |b - a| / midpoint(|a|, |b|).
    """

    rows: tuple[UQRow, ...]
    diffs: tuple[tuple[float, float], ...]
    n_samples: int
    distribution: str
    seed: int


def _symmetric_pct(a: float, b: float) -> float:
    mid = (abs(a) + abs(b)) / 2.0
    if mid == 0.0:
        return 0.0
    return 100.0 * abs(b - a) / mid


def uq_sweep(
    rdsm,
    varied_subsets,
    n: int = 5000,
    seed: int = 0,
    dist: SamplingDistribution | None = None,
    strata_per_dim: int | None = None,
) -> UQReport:
    """Sweep nested parameter subsets and record the prediction spread.

    Each subset is varied over a Latin stratified design of n rows while
    every other parameter sits at the model baseline; the predictor must
    accept full catalog vectors.  Subsets must be nested, each a strict
    extension of the one before; the first may be empty, which evaluates
    the baseline alone.
    """
    subsets = [tuple(s) for s in varied_subsets]
    if not subsets:
        raise ValueError("need at least one parameter subset")
    if n < 2:
        raise ValueError(f"need at least 2 rows per subset for a spread, got {n}")
    catalog = rdsm.catalog
    baseline = np.asarray(rdsm.baseline, dtype=float)
    if dist is None:
        dist = SamplingDistribution.normal_10std()
    previous: set[str] = set()
    for i, subset in enumerate(subsets):
        if len(set(subset)) != len(subset):
            raise ValueError(f"subset {i} contains duplicates")
        catalog.indices(subset)
        if i > 0 and not (previous < set(subset)):
            raise ValueError(f"subset {i} does not extend subset {i - 1}")
        previous = set(subset)

    rows = []
    for i, subset in enumerate(subsets):
        if not subset:
            mean = float(rdsm.predict(baseline[None, :])[0])
            rows.append(UQRow(params=(), mean=mean, std=0.0))
            continue
        design = sample_lss(n, len(subset), seed + i, strata_per_dim).values
        x = _subspace_design(design, subset, catalog, dist, baseline)
        preds = np.asarray(rdsm.predict(x), dtype=float)
        rows.append(
            UQRow(
                params=subset,
                mean=float(np.mean(preds)),
                std=float(np.std(preds, ddof=1)),
            )
        )
    diffs = tuple(
        (_symmetric_pct(a.mean, b.mean), _symmetric_pct(a.std, b.std))
        for a, b in zip(rows, rows[1:])
    )
    return UQReport(
        rows=tuple(rows),
        diffs=diffs,
        n_samples=n,
        distribution=dist.kind,
        seed=seed,
    )


# -- comparison ------------------------------------------------------------------


@dataclass(frozen=True)
class ApproachStats:
    """Error and prediction statistics for one predictor on one row set."""

    mae_pct: float
    mae_pct_std: float
    pred_mean: float
    pred_std: float
    n_excluded: int


@dataclass(frozen=True)
class ComparisonSection:
    """One row set scored for both routes, with the truth for reference."""

    n_rows: int
    truth_mean: float
    truth_std: float
    direct: ApproachStats
    summed: ApproachStats


@dataclass(frozen=True)
class ComparisonReport:
    """Direct-vs-summed scores on all rows and on the gate-engaged subset.

    engaged is None when no validation row is gate-engaged.
    """

    all_rows: ComparisonSection
    engaged: ComparisonSection | None
    n_validation: int


def _std1(values: np.ndarray) -> float:
    return float(np.std(values, ddof=1)) if values.size > 1 else math.nan


def _approach_stats(truth: np.ndarray, preds: np.ndarray, scale: float) -> ApproachStats:
    # the trainer's near-zero cut: rows whose truth is below that fraction of
    # the truth range are excluded from percent errors
    include = np.abs(truth) >= _NEAR_ZERO_FRACTION * scale
    errors = (
        100.0 * np.abs(preds[include] - truth[include]) / np.abs(truth[include])
    )
    return ApproachStats(
        mae_pct=float(np.mean(errors)) if errors.size else math.nan,
        mae_pct_std=_std1(errors),
        pred_mean=float(np.mean(preds)),
        pred_std=_std1(preds),
        n_excluded=int(np.count_nonzero(~include)),
    )


def _section(truth, preds_direct, preds_summed, scale) -> ComparisonSection:
    return ComparisonSection(
        n_rows=int(truth.size),
        truth_mean=float(np.mean(truth)),
        truth_std=_std1(truth),
        direct=_approach_stats(truth, preds_direct, scale),
        summed=_approach_stats(truth, preds_summed, scale),
    )


def compare_approaches(
    direct,
    summed: SummedRDSM,
    validation: Dataset,
    train_keys=None,
) -> ComparisonReport:
    """Score both routes on a validation set, overall and gate-engaged.

    direct may be any predictor over full catalog vectors; summed must be a
    SummedRDSM since its gate defines the engaged subset.  When train_keys
    (the training set's Dataset.row_keys()) is given, a validation row whose
    content matches a training row is rejected: held-out means held out.
    """
    if len(validation) == 0:
        raise ValueError("empty validation set")
    if train_keys is not None:
        train_keys = set(train_keys)
        shared = sum(k in train_keys for k in validation.row_keys())
        if shared:
            raise ValueError(f"{shared} validation rows were used for training")
    truth = validation.energy("TS")
    preds_direct = np.asarray(direct.predict(validation.inputs), dtype=float)
    preds_summed = np.asarray(summed.predict(validation.inputs), dtype=float)
    scale = float(np.ptp(truth))
    if scale == 0.0:
        scale = float(np.max(np.abs(truth)))
    all_rows = _section(truth, preds_direct, preds_summed, scale)
    mask = summed.engaged(validation.inputs)
    engaged = None
    if np.any(mask):
        engaged = _section(truth[mask], preds_direct[mask], preds_summed[mask], scale)
    return ComparisonReport(
        all_rows=all_rows,
        engaged=engaged,
        n_validation=len(validation),
    )


# -- dataset plumbing -------------------------------------------------------------


def split_holdout(dataset: Dataset, n: int, seed: int) -> tuple[Dataset, Dataset]:
    """Randomly split off n rows; returns (remaining, held_out)."""
    if not 0 < n < len(dataset):
        raise ValueError(f"cannot hold out {n} of {len(dataset)} rows")
    perm = np.random.default_rng(seed).permutation(len(dataset))
    held = np.sort(perm[:n])
    rest = np.sort(perm[n:])
    return dataset.subset(rest), dataset.subset(held)
