"""Direct and summed reduced-dimension surrogate workflows.

Two routes lead from a sampled dataset to a total-energy predictor, and each
reduced model in them is built one way: screen the energy, keep the head of
its logworth ladder up to its cap in MAX_RETAINED, and fit a network on those
columns.  The direct route reduces the total after training one network on
all catalog inputs.  The summed route reduces each damage mechanism,
resamples the disbond subspace where the base design leaves it starved, gates
the disbond contribution with a ruled-surface engagement test, and predicts
the total as the sum of the five mechanism models.

Either way the result is queried with full catalog vectors; coordinates that
were not retained are never read, so perturbing them changes the prediction
by exactly zero.  Nested-subset uncertainty sweeps track how the predicted
mean and spread respond as parameters are released one at a time, and the
comparison report scores both routes on held-out rows, overall and inside
the disbond-engaged region.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, replace
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .bend import BendSpecimen, simulate_dataset
from .catalog import ParameterCatalog, SamplingDistribution
from .dataset import ENERGY_COLUMNS, MECHANISMS, Dataset
from .errors import SchemaError, fields_doc, fields_from, json_numbers, json_value, read_document
from .errors import require_keys
from .sampling import sample_lhs, sample_lss
from .sensitivity import SCREEN_MIN_ROWS, ScreeningResult, screen_fdr_logworth
from .surrogate import (
    NetworkSpec,
    SurrogateModel,
    TrainReport,
    deserialize_model,
    percent_error_rows,
    serialize_model,
    train_surrogate,
)

# engagement threshold: a mechanism counts as engaged on a row when it
# contributes at least this fraction of the row's total energy
ENGAGEMENT_FRACTION = 0.03

FIT_MIN_ROWS = 100  # fewest rows either route fits on
# retention cap of each energy's screen: the total and each mechanism
MAX_RETAINED = MappingProxyType({"TS": 4, **dict.fromkeys(MECHANISMS, 3)})
RESAMPLE_N = 3277  # rows in the summed route's focused disbond design

# default hidden layers, learning rate, and (train, test) split per mechanism
_MECHANISM_NETWORKS = {
    "PL": ((65, 70), 0.002, (0.9, 0.1)),
    "DL": ((55, 55), 0.002, (0.9, 0.1)),
    "DC": ((50,), 0.002, (0.9, 0.1)),
    "DI": ((16, 16), 0.003, (0.8, 0.2)),
    "PM": ((60, 80), 0.002, (0.9, 0.1)),
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
        others = np.delete(np.arange(len(catalog)), cols)
        self._pinned = (others, base[others])

    @property
    def support(self) -> tuple[int, ...]:
        """Sorted catalog columns predict reads: the retained ones."""
        return tuple(sorted(int(i) for i in self._cols))

    @property
    def terms(self) -> tuple:
        """predict as one (support, fn) term; combine takes its output as is."""
        return ((self.support, self.predict),)

    combine = staticmethod(operator.itemgetter(0))

    def predict(self, x) -> np.ndarray:
        """Predictions for (n, d) full catalog vectors."""
        x = _catalog_rows(x, self.catalog)
        if self._reduced:
            return self.surrogate.predict(x[:, self._cols])
        return self.surrogate.predict(x, pinned=self._pinned)

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
        keys = {"mechanism", "retained_params", "baseline", "model"}
        doc = _read_artifact(
            Path(path), "model file", keys, _MECHANISM_FORMAT, _MECHANISM_VERSION, catalog
        )
        model = deserialize_model(doc["model"])
        retained, baseline = doc["retained_params"], doc["baseline"]
        return _load_member(doc["mechanism"], retained, model, baseline, catalog, "mechanism model")


def _catalog_rows(x, catalog: ParameterCatalog) -> np.ndarray:
    """x as an (n, d) array of full catalog vectors."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != len(catalog):
        raise ValueError(f"input has {x.shape[1]} columns, catalog has {len(catalog)}")
    return x


def _load_member(mechanism, retained, model, baseline, catalog, what) -> MechanismRDSM:
    """A saved member from its JSON fields; a bad field is a SchemaError
    naming what."""
    try:
        names = json_value(retained, list, "retained_params")
        names = tuple(json_value(name, str, "retained_params") for name in names)
        return MechanismRDSM(mechanism, names, model, json_numbers(baseline, "baseline"), catalog)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise SchemaError(f"invalid {what}: {exc}") from None


def _read_artifact(path: Path, what, keys, fmt, version, catalog) -> dict:
    """A saved model document: keys plus format, version, and the names of
    the catalog it was fitted over, which must be the given catalog's."""
    if not path.is_file():
        raise SchemaError(f"no {what} at {path}")
    doc = read_document(path.read_bytes(), what, {"catalog_names", *keys}, fmt, version)
    if doc["catalog_names"] != list(catalog.names):
        raise SchemaError(f"{what} catalog does not match the given catalog")
    return doc


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
    coordinates are the gate-axis columns normalized over the uniform_pm20
    box (the means +-20%); query points beyond the box are gated as if
    projected onto its surface.
    """

    def __init__(self, members, gate: EngagementGate, catalog: ParameterCatalog):
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
        dist = SamplingDistribution.uniform_pm20()
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

    @property
    def terms(self) -> tuple:
        """(support, fn) pairs that combine into predict: the members in
        MECHANISMS order, then the gate as (its axis columns, engaged)."""
        members = [self.members[name] for name in MECHANISMS]
        gate = (tuple(sorted(int(i) for i in self._axis_cols)), self.engaged)
        return (*((m.support, m.predict) for m in members), gate)

    def gate_coordinates(self, x) -> np.ndarray:
        """Normalized (n, 3) gate coordinates, clipped into the unit cube."""
        x = _catalog_rows(x, self.catalog)
        u = (x[:, self._axis_cols] - self._axis_lo) / self._axis_span
        return np.clip(u, 0.0, 1.0)

    def engaged(self, x) -> np.ndarray:
        u = self.gate_coordinates(x)
        return self.gate.engaged(u[:, 0], u[:, 1], u[:, 2])

    @staticmethod
    def _gated(values) -> dict[str, np.ndarray]:
        *parts, engaged = values
        parts = dict(zip(MECHANISMS, parts))
        parts["DI"] = np.where(engaged, parts["DI"], 0.0)
        return parts

    def combine(self, values) -> np.ndarray:
        """The total from the terms' outputs, summed PL + DL + DC + DI + PM in
        this fixed order with the disbond term gated."""
        return functools.reduce(operator.add, self._gated(values).values())

    def predict_breakdown(self, x) -> dict[str, np.ndarray]:
        """Per-mechanism predictions with the disbond term already gated."""
        return self._gated([fn(x) for _, fn in self.terms])

    def predict(self, x) -> np.ndarray:
        return self.combine([fn(x) for _, fn in self.terms])

    # -- persistence ---------------------------------------------------------
    def save(self, directory) -> None:
        """Write one model file per mechanism plus a manifest."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format": _SUMMED_FORMAT,
            "version": _SUMMED_VERSION,
            "catalog_names": list(self.catalog.names),
            "distribution": fields_doc(self.dist),
            "gate": {
                **fields_doc(self.gate),
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
        keys = {"distribution", "gate", "baseline", "mechanisms"}
        doc = _read_artifact(
            directory / _MANIFEST_NAME, "manifest", keys, _SUMMED_FORMAT, _SUMMED_VERSION, catalog
        )
        # a kind leaves some fields unread, so each field must be the box's own
        box = SamplingDistribution.uniform_pm20()
        if fields_from(SamplingDistribution, doc["distribution"], "distribution") != box:
            raise SchemaError("manifest distribution must be the uniform_pm20 box")
        require_keys(doc["gate"], {"axes", "vertices"}, "gate")
        gate = fields_from(EngagementGate, {"axes": doc["gate"]["axes"]}, "gate")
        vertices = doc["gate"]["vertices"]  # a JSON bool compares equal to 0 or 1
        if vertices != [list(v) for v in _GATE_VERTICES] or any(
            type(c) is bool for v in vertices for c in v
        ):
            raise SchemaError("manifest gate vertices do not match the fixed geometry")
        require_keys(doc["mechanisms"], set(MECHANISMS), "manifest mechanisms")
        members = {}
        for name in MECHANISMS:
            entry = doc["mechanisms"][name]
            require_keys(entry, {"file", "retained_params"}, f"mechanism {name}")
            file = entry["file"]
            if not isinstance(file, str):
                raise SchemaError(
                    f"mechanism {name} file must be a string, got {type(file).__name__}"
                )
            # a bare name, so no member is read from outside the directory
            if Path(file).name != file or not (directory / file).is_file():
                raise SchemaError(f"mechanism {name} file {file!r} names no file in {directory}")
            model = deserialize_model((directory / file).read_bytes())
            members[name] = _load_member(
                name, entry["retained_params"], model, doc["baseline"], catalog, f"mechanism {name}"
            )
        try:
            return cls(members, gate, catalog)
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
    """One energy's reduced fit outcome; rdsm is None when data cannot
    support a model and resampling the mechanism's subspace is required."""

    mechanism: str
    rdsm: MechanismRDSM | None
    screening: ScreeningResult | None
    note: str = ""


@dataclass(frozen=True)
class SummedFit:
    """Summed-route artifacts: the assembled model plus per-mechanism fits."""

    summed: SummedRDSM
    fits: dict[str, MechanismFit]
    disbond_base_screening: ScreeningResult | None
    subspace: SubspaceSample

    def __post_init__(self):
        object.__setattr__(self, "fits", MappingProxyType(dict(self.fits)))


def _reduced_fit(dataset, energy, network, max_k, full_model=None) -> MechanismFit:
    """Screen one energy and fit network, narrowed to the retained columns,
    on them; full_model, if given, answers instead with the rest pinned.  At
    least the top entry is kept: an energy that varies has a best single
    predictor even when nothing clears the significance floor."""
    catalog, y = dataset.catalog, dataset.energy(energy)
    screening = screen_fdr_logworth(dataset.inputs, y, catalog.names, max_k=max_k)
    retained, note = screening.retained, ""
    if not retained:
        retained = (screening.entries[0].name,)
        note = f"no parameter cleared the significance floor; kept {retained[0]}"
    model = full_model
    if model is None:
        reduced = replace(network, input_dim=len(retained))
        model = train_surrogate(reduced, dataset.input_columns(retained), y)
    rdsm = MechanismRDSM(energy, retained, model, catalog.means, catalog)
    return MechanismFit(energy, rdsm, screening, note)


def fit_direct(
    dataset: Dataset,
    network: NetworkSpec | None = None,
    max_retained: int = MAX_RETAINED["TS"],
    query_mode: str = "retrained",
    seed: int = 0,
) -> DirectFit:
    """Fit the direct route: full-width network, screen, reduced refit.

    max_retained caps the screen, at MAX_RETAINED["TS"] by default.
    query_mode picks how the reduced model answers queries: "retrained"
    fits a fresh network on just the retained columns; "frozen_full"
    reuses the full-width network with non-retained inputs pinned at the
    catalog means.
    """
    if len(dataset) < FIT_MIN_ROWS:
        raise ValueError(f"need at least {FIT_MIN_ROWS} rows, got {len(dataset)}")
    if query_mode not in ("retrained", "frozen_full"):
        raise ValueError(f"unknown query_mode {query_mode!r}")
    catalog = dataset.catalog
    if network is None:
        network = NetworkSpec(input_dim=len(catalog), seed=seed)
    elif network.input_dim != len(catalog):
        raise ValueError(
            f"network takes {network.input_dim} inputs, catalog has {len(catalog)}"
        )
    full_model = train_surrogate(network, dataset.inputs, dataset.energy("TS"))
    frozen = full_model if query_mode == "frozen_full" else None
    fit = _reduced_fit(dataset, "TS", network, max_retained, frozen)
    return DirectFit(full_model=full_model, screening=fit.screening, rdsm=fit.rdsm)


def fit_mechanism(
    dataset: Dataset,
    mechanism: str,
    seed: int = 0,
) -> MechanismFit:
    """Screen one mechanism energy and fit a reduced model on the survivors,
    at most MAX_RETAINED[mechanism] of them.

    A mechanism that never varies over the dataset cannot be screened or
    fitted; the result then carries no model and asks for resampling of the
    mechanism's subspace instead.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if np.ptp(dataset.energy(mechanism)) == 0.0:
        return MechanismFit(mechanism, None, None, f"{mechanism} is constant over the dataset")
    hidden, rate, split = _MECHANISM_NETWORKS[mechanism]
    width = len(dataset.catalog)  # _reduced_fit narrows it to the retained columns
    network = NetworkSpec(width, hidden_layers=hidden, learning_rate=rate, split=split, seed=seed)
    return _reduced_fit(dataset, mechanism, network, MAX_RETAINED[mechanism])


@dataclass(frozen=True)
class SubspaceSample:
    """Focused design outcome: the simulated rows, which of them engaged the
    disbond, and the parameters the design varied."""

    dataset: Dataset
    engaged_mask: np.ndarray
    varied_params: tuple[str, ...]


def _check_engagement(mechanism: str, threshold: float, threshold_mode: str) -> None:
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if threshold_mode not in ("relative", "absolute"):
        raise ValueError(f"unknown threshold_mode {threshold_mode!r}")
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")


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
    _check_engagement(mechanism, threshold, threshold_mode)
    y = dataset.energy(mechanism)
    if threshold_mode == "relative":
        ts = dataset.energy("TS")
        return (ts > 0.0) & (y >= threshold * ts)
    return y >= threshold


def _subspace_design(design, names, catalog, dist, pinned) -> np.ndarray:
    """Rows varying the named columns over a unit design, the rest pinned."""
    cols = catalog.indices(names)
    x = np.tile(pinned, (design.shape[0], 1))
    x[:, cols] = dist.transform(design, catalog, columns=cols)
    return x


def resample_subspace(
    specimen: BendSpecimen,
    varied_params,
    n: int,
    seed: int,
    threshold: float = ENGAGEMENT_FRACTION,
    threshold_mode: str = "relative",
    threads: int = 1,
) -> SubspaceSample:
    """Simulate a design that varies only the named parameters.

    The named parameters span the +/-20% uniform box and every other column
    is held exactly at its catalog mean.  engaged_mask marks the rows where
    the disbond reaches the engagement threshold (by default, 3% of the
    row's total energy; "absolute" compares the raw energy against the
    threshold instead).
    """
    _check_engagement("DI", threshold, threshold_mode)
    varied = tuple(varied_params)
    if not varied:
        raise ValueError("need at least one varied parameter")
    if len(set(varied)) != len(varied):
        raise ValueError("varied parameters contain duplicates")
    catalog = specimen.catalog
    design = sample_lhs(n, len(varied), seed)
    box = SamplingDistribution.uniform_pm20()
    x = _subspace_design(design, varied, catalog, box, catalog.means)
    ds = simulate_dataset(x, specimen, threads=threads)
    mask = engagement_mask(ds, "DI", threshold, threshold_mode)
    mask.setflags(write=False)
    return SubspaceSample(dataset=ds, engaged_mask=mask, varied_params=varied)


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


def _disbond_varied(dataset: Dataset, gate: EngagementGate, fits) -> tuple:
    """The base data's disbond screen (None when DI never varies there) and
    the parameters the focused design varies: the top of that screen's
    ladder, else the gate axes, then the other members' retained ones."""
    y_di = dataset.energy("DI")
    if np.ptp(y_di) == 0.0:
        retained = [p for f in fits.values() if f.rdsm for p in f.rdsm.retained_params]
        return None, tuple(dict.fromkeys(list(gate.axes) + retained))
    cap = MAX_RETAINED["DI"]
    screen = screen_fdr_logworth(dataset.inputs, y_di, dataset.catalog.names, max_k=cap)
    return screen, tuple(e.name for e in screen.entries[:_SUBSPACE_VARIED] if not e.zero_variance)


def fit_summed(
    dataset: Dataset,
    specimen: BendSpecimen,
    seed: int = 0,
    resample_n: int = RESAMPLE_N,
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
    if len(dataset) < FIT_MIN_ROWS:
        raise ValueError(f"need at least {FIT_MIN_ROWS} rows, got {len(dataset)}")
    _check_engagement("DI", threshold, threshold_mode)
    catalog = dataset.catalog
    if specimen.catalog.names != catalog.names:
        raise ValueError("specimen and dataset use different catalogs")
    gate = EngagementGate()

    fits: dict[str, MechanismFit] = {}
    members: dict[str, MechanismRDSM] = {}
    for mech in ("PL", "DL", "DC", "PM", "DI"):  # the order manifest.json lists
        data, anchor = dataset, catalog.names[0]
        if mech == "DI":
            base_screen, varied = _disbond_varied(dataset, gate, fits)
            subspace = resample_subspace(
                specimen,
                varied,
                resample_n,
                seed,
                threshold=threshold,
                threshold_mode=threshold_mode,
                threads=threads,
            )
            data, anchor = subspace.dataset.subset(subspace.engaged_mask), gate.axes[0]
        if len(data) >= SCREEN_MIN_ROWS:
            fits[mech] = fit_mechanism(data, mech, seed=seed)
            level = float(data.energy(mech)[0])  # the constant, should mech never vary
        else:  # only the disbond's engaged rows can be this few
            note = (
                "disbond never crossed the engagement threshold"
                if len(data) == 0
                else f"only {len(data)} engaged rows; need {SCREEN_MIN_ROWS} to screen"
            )
            fits[mech] = MechanismFit(mech, None, base_screen, note)
            level = 0.0
        members[mech] = fits[mech].rdsm or _constant_member(mech, level, catalog, anchor)

    summed = SummedRDSM(members, gate, catalog)
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
        design = sample_lss(n, len(subset), seed + i, strata_per_dim)
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
    return UQReport(rows=tuple(rows), diffs=diffs)


# -- comparison ------------------------------------------------------------------


@dataclass(frozen=True)
class ApproachStats:
    """Error and prediction statistics for one predictor on one row set;
    the percent errors are nan when no row carries one."""

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


def _std1(values: np.ndarray) -> float:
    return float(np.std(values, ddof=1)) if values.size > 1 else math.nan


def _approach_stats(truth: np.ndarray, preds: np.ndarray, include) -> ApproachStats:
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


def _section(truth, preds_direct, preds_summed, include) -> ComparisonSection:
    return ComparisonSection(
        n_rows=int(truth.size),
        truth_mean=float(np.mean(truth)),
        truth_std=_std1(truth),
        direct=_approach_stats(truth, preds_direct, include),
        summed=_approach_stats(truth, preds_summed, include),
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
    # the trainer's near-zero rule, scaled by all validation truths
    include = percent_error_rows(truth, truth)
    all_rows = _section(truth, preds_direct, preds_summed, include)
    mask = summed.engaged(validation.inputs)
    engaged = None
    if np.any(mask):
        engaged = _section(truth[mask], preds_direct[mask], preds_summed[mask], include[mask])
    return ComparisonReport(
        all_rows=all_rows,
        engaged=engaged,
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
