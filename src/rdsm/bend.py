"""Desk-scale source model: a bonded composite/metal strip under a pure
bending ramp, resolved into mechanism energies.

The specimen is a 12-ply woven overlay on the tension side of an aluminum
substrate, with 11 cohesive layers between plies and one cohesive interface
at the bond line.  A curvature ramp imposes a linear strain profile about the
elastic transformed-section neutral axis, and each material point responds
through the laws in constitutive.py:

- ply fiber direction: effective-stress initiation and exponential damage,
  dissipating fiber fracture energy (DL);
- ply matrix shear: elastic/power-hardening plasticity with logarithmic shear
  damage, dissipating matrix shear energy (PL); the ply's matrix fails once
  its plastic shear strain or shear damage reaches the catalog limits;
- cohesive layers: triangular mixed-mode separation driven by the shear-strain
  jump across the bonded pair, dissipating delamination energy (DC);
- bond-line interface: the same law driven by the inner ply's shear strain
  plus the accumulated plastic slip of the overlay, dissipating disbond
  energy (DI);
- substrate: symmetric power-law plasticity through the thickness (PM).

Separation drivers are kinematic proxies: inter-ply strain jumps scaled by
ply thickness and documented coupling constants from the specimen config.
The shipped default config is calibrated so that, at catalog means, substrate
plasticity dominates and the interface stays just below initiation, which
keeps disbond energy zero over most of the sampling support.

Every state variable advances through max() or nonnegative increments, so
damage and dissipated energies are nondecreasing along the ramp.  The total
is reported as the exact five-term sum.

A step runs one kernel per mechanism.  Each evaluates its law only at the
points the law reaches that step (the radial-return solve at flowing points,
with the flow stresses carried as state; damage where a stress ratio reaches
1; dissipation at initiated cohesive points) and adds exact zeros for the
rest, so the energies are the bits of evaluating every law everywhere.

Rows are independent.  simulate_batch runs a batch as near-equal blocks of
at most 2048 rows and holds one block's state at a time (per worker process
under threads > 1), so the state's memory does not grow with the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .catalog import ParameterCatalog, SamplingDistribution
from .constitutive import (
    bk_mixed_mode_gc,
    cdm_damage_evolution,
    cdm_initiation_energy,
    cdm_margin,
    cdm_shear_damage,
    czm_damage,
    czm_dissipated,
    jc_stress,
)
from .dataset import Dataset
from .errors import AdmissibilityError, NumericalFailureError, SchemaError
from .errors import json_value, read_document

# fabric kind -> (modulus, strength, poisson, fracture energy) catalog names
FABRICS = {
    "ebx1200": ("E1200", "X1200", "V1200", "G1200"),
    "elt1800": ("E1800", "X1800", "V1800", "G1800"),
    "h7500": ("E7500", "X7500", "V7500", "G7500"),
    "h7781": ("E7781", "X7781", "V7781", "G7781"),
}

# catalog units -> psi; every other unit enters the model as cataloged
_PSI_PER_UNIT = {"msi": 1.0e6, "ksi": 1.0e3}


def _psi_factor(spec) -> float:
    return _PSI_PER_UNIT.get(spec.units, 1.0)


def _mean_psi(catalog: ParameterCatalog, name: str, frac: float = 1.0) -> float:
    """A catalog mean times frac, in psi for a stress."""
    spec = catalog[name]
    return spec.mean * frac * _psi_factor(spec)

# specimen config key -> (BendSpecimen field, conversion); the config's other
# keys are read by name in load_specimen_config
_CONFIG_FIELDS = {
    "ply_thickness_in": ("ply_thickness", float),
    "metal_thickness_in": ("metal_thickness", float),
    "width_in": ("width", float),
    "gauge_length_in": ("gauge_length", float),
    "metal_sublayers": ("metal_sublayers", int),
    "curvature_max_per_in": ("kappa_max", float),
    "curvature_steps": ("n_steps", int),
    "cohesive_shear_coupling": ("cohesive_shear_coupling", float),
    "cohesive_peel_coupling": ("cohesive_peel_coupling", float),
    "damage_slip_amplification": ("damage_slip_amplification", float),
    "interface_shear_coupling": ("interface_shear_coupling", float),
    "interface_slip_coupling": ("interface_slip_coupling", float),
    "interface_peel_coupling": ("interface_peel_coupling", float),
    "interface_damage_feedback": ("interface_damage_feedback", float),
    "cohesive_process_length_in": ("cohesive_process_length", float),
    "interface_process_length_in": ("interface_process_length", float),
}


@dataclass(frozen=True)
class BendSpecimen:
    """Geometry, schedule, and proxy couplings for the bend source model."""

    catalog: ParameterCatalog
    stacking: tuple[str, ...]
    ply_thickness: float
    metal_thickness: float
    width: float
    gauge_length: float
    metal_sublayers: int
    kappa_max: float
    n_steps: int
    shear_fraction: tuple[float, ...]
    characteristic_length: float
    cohesive_shear_coupling: float
    cohesive_peel_coupling: float
    damage_slip_amplification: float
    interface_shear_coupling: float
    interface_slip_coupling: float
    interface_peel_coupling: float
    interface_damage_feedback: float
    cohesive_process_length: float
    interface_process_length: float

    def __post_init__(self):
        if len(self.stacking) != 12:
            raise ValueError(f"stacking must list 12 plies, got {len(self.stacking)}")
        for kind in self.stacking:
            if kind not in FABRICS:
                raise ValueError(f"unknown fabric kind {kind!r}")
        if len(self.shear_fraction) != 12:
            raise ValueError("shear_fraction must align with the 12 plies")
        for name, v in (
            ("ply_thickness", self.ply_thickness),
            ("metal_thickness", self.metal_thickness),
            ("width", self.width),
            ("gauge_length", self.gauge_length),
            ("kappa_max", self.kappa_max),
            ("characteristic_length", self.characteristic_length),
        ):
            if not v > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.metal_sublayers < 1 or self.n_steps < 1:
            raise ValueError("metal_sublayers and curvature steps must be >= 1")
        # admissibility of the ply damage law at catalog means
        for i, kind in enumerate(self.stacking):
            e, x, _, g = (_mean_psi(self.catalog, name) for name in FABRICS[kind])
            if cdm_margin(g, x, e, self.characteristic_length) <= 0.0:
                raise AdmissibilityError(
                    "characteristic length too large for the ply damage law",
                    layer=f"ply {i} ({kind})",
                )

    # --- geometry -------------------------------------------------------
    @property
    def composite_thickness(self) -> float:
        return 12 * self.ply_thickness

    @property
    def ply_mid_y(self) -> np.ndarray:
        """Ply mid-heights, outer tension face at y = 0, metal above."""
        return (np.arange(12) + 0.5) * self.ply_thickness

    @property
    def metal_mid_y(self) -> np.ndarray:
        t = self.metal_thickness / self.metal_sublayers
        return self.composite_thickness + (np.arange(self.metal_sublayers) + 0.5) * t


def _resolve_lc(catalog: ParameterCatalog, stacking: tuple[str, ...], safety: float) -> float:
    """Largest characteristic length keeping every ply admissible with a
    safety factor at the worst corner of the +/-20% sampling box."""
    box = SamplingDistribution.uniform_pm20()
    lo_f, hi_f = box.lo_frac, box.hi_frac
    lc = np.inf
    for kind in set(stacking):
        e_name, x_name, _, g_name = FABRICS[kind]
        x_hi, e_lo, g_lo = (_mean_psi(catalog, name, f) for name, f in
                            ((x_name, hi_f), (e_name, lo_f), (g_name, lo_f)))
        # where cdm_margin(g_lo, x_hi, e_lo, safety * lc) reaches zero
        lc = min(lc, g_lo / (safety * cdm_initiation_energy(x_hi, e_lo)))
    return float(lc)


def load_specimen_config(source, catalog: ParameterCatalog) -> BendSpecimen:
    """Build a specimen from a JSON config (a path, the file's bytes, or
    the parsed dict).

    Unknown keys and malformed JSON, undecodable bytes included, are schema
    errors.  A null characteristic length resolves to the largest admissible
    value with the configured safety factor.
    """
    if not isinstance(source, (bytes, dict)):
        source = Path(source).read_bytes()
    cfg = read_document(
        source,
        "specimen config",
        {
            "stacking",
            "shear_fraction",
            "characteristic_length_in",
            "lc_safety_factor",
            *_CONFIG_FIELDS,
        },
        "rdsm-specimen",
        1,
    )
    sf_map = cfg["shear_fraction"]
    if not isinstance(sf_map, dict) or set(sf_map) - set(FABRICS):
        raise SchemaError("shear_fraction must map fabric kinds to fractions")
    try:
        stacking = json_value(cfg["stacking"], list, "stacking")
        stacking = tuple(json_value(k, str, "stacking") for k in stacking)
        shear_fraction = tuple(json_value(sf_map[k], float, "shear_fraction") for k in stacking)
        lc = cfg["characteristic_length_in"]
        if lc is None:
            safety = json_value(cfg["lc_safety_factor"], float, "lc_safety_factor")
            if not safety > 0.0:
                raise ValueError("lc_safety_factor must be positive")
            lc = _resolve_lc(catalog, stacking, safety)
        lc = json_value(lc, float, "characteristic_length_in")
        values = {
            field: json_value(cfg[key], kind, key) for key, (field, kind) in _CONFIG_FIELDS.items()
        }
    except KeyError as exc:
        raise SchemaError(f"shear_fraction missing fabric {exc.args[0]!r}") from None
    except (OverflowError, TypeError) as exc:
        raise SchemaError(f"invalid specimen config: {exc}") from None
    return BendSpecimen(
        catalog=catalog,
        stacking=stacking,
        shear_fraction=shear_fraction,
        characteristic_length=lc,
        **values,
    )


DEFAULT_SPECIMEN = resources.files("rdsm.data").joinpath("default_specimen.json")


def default_specimen(catalog: ParameterCatalog) -> BendSpecimen:
    """The shipped calibrated specimen config."""
    return load_specimen_config(DEFAULT_SPECIMEN.read_bytes(), catalog)


_NEWTON_CAP = 50  # steps per solve; the catalog's points converge in at most 7
_NEWTON_TOL = 4.0 * np.finfo(float).eps  # a point stops once its step is below this times v


def _newton_power(v, moving, top, weight, shift, scale, pw, gain):
    """Newton on v, in place, for weight*(top - base**(pw + 1)) = v, base = (v - shift)/scale.

    gain*base**pw is the slope of weight*base**(pw + 1) in v.  With pw >= 0 the
    residual is concave and decreasing, so from at or above the root the iterates
    fall onto it with no bracket.  Each point stops once its own step is a few
    ulp, so its root ignores the rest of the batch; the caller passes only the
    flowing points, and every iteration runs over all of them, since gathering
    the still-moving ones costs more than it saves.  Returns v, base**(pw + 1),
    slope.
    """
    base, q, step, slope = (np.empty_like(v) for _ in range(4))
    still = np.empty_like(moving)
    for _ in range(_NEWTON_CAP + 1):
        np.subtract(v, shift, out=base)
        np.maximum(base, 0.0, out=base)
        base /= scale
        np.power(base, pw, out=q)
        if not moving.any():
            return v, base * q, gain * q
        # step = (weight*(top - base*q) - v) / (gain*q + 1), zero where stopped
        np.multiply(base, q, out=step)
        np.subtract(top, step, out=step)
        step *= weight
        step -= v
        np.multiply(gain, q, out=slope)
        slope += 1.0
        step /= slope
        np.putmask(step, np.logical_not(moving, out=still), 0.0)
        v += step
        np.abs(step, out=step)
        np.multiply(v, _NEWTON_TOL, out=q)
        moving &= np.greater(step, q, out=still)
    raise NumericalFailureError(f"return map still moving after {_NEWTON_CAP} Newton steps")


def _solve_power_hardening(total, stiffness, y0, coef, expo, lo):
    """Root e in [lo, total] of stiffness*(total - e) = y0 + coef*e**expo.

    Newton on the flow stress s from the elastic trial stiffness*(total - lo),
    which the caller passes only above the flow stress, or on e from e = total
    where expo > 1; NumericalFailureError after _NEWTON_CAP steps.  e is read
    off s through the hardening curve or the elastic line, whichever is flatter.
    """
    s, e, ratio = _newton_power(stiffness * (total - lo), expo <= 1.0, total, stiffness, y0, coef,
                                1.0 / expo - 1.0, stiffness / (expo * coef))
    e = np.where(ratio > 1.0, total - s / stiffness, e)
    if (convex := expo > 1.0).any():  # Newton on e: (c/k)*((k*t - y)/c - e**n) = e
        t, k, y, c, n = (x[convex] for x in (total, stiffness, y0, coef, expo))
        e[convex] = _newton_power(t.copy(), n > 1, (k * t - y) / c, c / k, 0, 1, n - 1, c * n / k)[0]
    return np.clip(e, lo, total)


# Points are addressed by flat index into C-contiguous (n, m) arrays, whose
# ravel() is a view: writing through it is about twice as fast as put, which
# checks every index.
def _row_sums(shape, idx, values) -> np.ndarray:
    """Row sums of an (n, m) array of zeros holding values at the flat
    indices idx: the bits of summing the increments of every point, since
    the points outside idx add exact zeros."""
    full = np.zeros(shape)
    full.ravel()[idx] = values
    return full.sum(axis=1)


def _return_map(strain, eps_p, flow, stiffness, y0, coef, expo, failed=None):
    """One power-hardening return-map step over (n, m) points, in place.

    eps_p and flow are state carried from step to step: the plastic strain
    and its flow stress y0 + coef*eps_p**expo, evaluated once at the start
    and then only where a point flows, since neither moves elsewhere.
    stiffness and the hardening constants are (n,) per row, gathered by row
    at the flowing points.  Points flow where the elastic trial stress
    exceeds the flow stress, unless failed.  Updates eps_p and flow and
    returns the trial stress, the flat indices of the flowing points and the
    trapezoid plastic work per row.  eps_p and flow must be C-contiguous,
    since they are written through ravel() views.
    """
    if not (eps_p.flags.c_contiguous and flow.flags.c_contiguous):
        raise ValueError("return map state must be C-contiguous")
    trial = np.subtract(strain, eps_p)
    trial *= stiffness[:, None]
    plastic = np.greater(trial, flow)
    if failed is not None:
        plastic &= ~failed
    idx = np.flatnonzero(plastic)
    work = np.zeros(strain.shape[0])
    if idx.size:
        rows = idx // strain.shape[1]
        lo, f_old = eps_p.take(idx), flow.take(idx)
        k, y, c, n = stiffness[rows], y0[rows], coef[rows], expo[rows]
        e = _solve_power_hardening(strain.take(idx), k, y, c, n, lo)
        f_new = jc_stress(e, y, c, n)
        eps_p.ravel()[idx] = e
        flow.ravel()[idx] = f_new
        work = _row_sums(strain.shape, idx, 0.5 * (f_old + f_new) * (e - lo))
    return trial, idx, work


def _feedback_separation(r, h, d0, df, fb):
    """Separation x = r*(1 + fb*D(max(h, x))) at initiated points, per point.

    D is the triangular law's damage with lengths d0 < df and largest
    separation so far h.  x is the fixed point that iterating the map from
    max(h, d0) reaches.  Where r*(1 + fb*D(h)) <= h that is the first iterate,
    and h does not move; otherwise it is the smallest root at or above
    max(h, d0) of (df - d0)*x**2 - r*(df - d0 + fb*df)*x + r*fb*df*d0, taken
    in the cancellation-free form, or, with no such root up to df, the failed
    point's r*(1 + fb).
    """
    stay = r * (1.0 + fb * czm_damage(h, d0, df))
    a, b, c = df - d0, r * (df - d0 + fb * df), r * fb * df * d0
    q = 0.5 * (b + np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0)))
    lo, start = c / q, np.maximum(h, d0)
    x = np.where(lo >= start, lo, q / a)
    x = np.where((x >= start) & (x <= df), x, r * (1.0 + fb))
    return np.where(stay <= h, stay, x)


class _CohesiveBank:
    """Vectorized state for a set of cohesive points sharing resin properties.

    Mode mix, initiation separation, and mixed toughness freeze where the
    quadratic criterion first trips on the straight segment from the
    previous step's drivers to the current ones, not at the end of the step:
    the two agree only on a proportional path, and fiber damage turns the
    cohesive layers' path.  The initiation traction is k * delta0_m,
    recomputed where it is needed.  A point has initiated exactly where delta_f_m is
    nonzero: it is 0 before, and the admissibility check keeps it above
    delta0_m > 0 after.
    """

    def __init__(self, n, m, k, t0_n, t0_s, gc_i, gc_ii, exponent, label, feedback=0.0):
        self.k = k  # (n,) penalty stiffness
        self.t0_n = t0_n
        self.t0_s = t0_s
        self.gc_i = gc_i
        self.gc_ii = gc_ii
        self.exponent = exponent
        self.label = label
        self.feedback = feedback  # separation amplification per unit damage
        shape = (n, m)
        self.delta_max = np.zeros(shape)
        self.delta0_m = np.zeros(shape)
        self.delta_f_m = np.zeros(shape)
        self.dissipated = np.zeros(shape)
        self.prev_n = self.prev_s = np.zeros(shape)  # the last step's drivers

    def advance(self, delta_n, delta_s):
        """Advance to new separations; returns the dissipation increment per point.

        delta_n and delta_s are (n, m), and are kept, not copied, as the
        start of the next step's segment.  Points initiate on the segment
        from the last drivers to these, and the criterion is evaluated only
        where a point has not initiated.
        Separation, damage and dissipation move only at initiated points, so
        they are computed there alone; every other point's increment is an
        exact zero.

        A positive feedback coefficient amplifies an initiated point's
        separation r = hypot(delta_n, delta_s) by its own damage, solved
        implicitly in the step (_feedback_separation), so initiated points
        race toward full failure while uninitiated points are untouched.
        delta_max only ever grows, so the amplification preserves
        monotonicity.
        """
        shape, m = delta_s.shape, delta_s.shape[1]
        idx = np.flatnonzero(self.delta_f_m == 0.0)
        rows = idx // m
        k, t0_n, t0_s = self.k[rows], self.t0_n[rows], self.t0_s[rows]
        wn, ws = k * delta_n.take(idx) / t0_n, k * delta_s.take(idx) / t0_s
        hit = np.square(ws) + wn**2 >= 1.0
        if hit.any():
            fresh, rows, k = idx[hit], rows[hit], k[hit]
            # the criterion trips on the segment from the last step's drivers:
            # in traction-scaled drivers u + t*v, |u + t*v|**2 = 1 reads
            # a*t**2 + 2*b*t = c, with c = 1 - |u|**2 > 0 since u had not
            # initiated; the drivers only grow along the ramp, so b >= 0 and
            # the root below is cancellation-free
            pn, ps = self.prev_n.take(fresh), self.prev_s.take(fresh)
            un, us = k * pn / t0_n[hit], k * ps / t0_s[hit]
            vn, vs = wn[hit] - un, ws[hit] - us
            a, b, c = vn * vn + vs * vs, un * vn + us * vs, 1.0 - (np.square(us) + un**2)
            t = np.minimum(c / (b + np.sqrt(b * b + a * c)), 1.0)
            dn = pn + t * (delta_n.take(fresh) - pn)
            ds = ps + t * (delta_s.take(fresh) - ps)
            d0 = np.hypot(dn, ds)
            shear_sq = (ds / d0) ** 2
            # the BK mix reads only G_II + G_III, so all shear goes to mode II
            gcm = bk_mixed_mode_gc(
                1.0 - shear_sq, shear_sq, 0.0, self.gc_i[rows], self.gc_ii[rows], self.exponent[rows]
            )
            t0m = k * d0
            dfm = 2.0 * gcm / t0m
            if np.any(dfm <= d0):
                j = int(np.argmax(dfm <= d0))
                raise AdmissibilityError(
                    "cohesive toughness below initiation energy",
                    layer=f"{self.label} {fresh[j] % m}",
                )
            self.delta0_m.ravel()[fresh] = d0
            self.delta_f_m.ravel()[fresh] = dfm
        inc = np.zeros(shape)
        idx = np.flatnonzero(self.delta_f_m)
        if idx.size:
            h, d0, dfm = (a.take(idx) for a in (self.delta_max, self.delta0_m, self.delta_f_m))
            x = np.hypot(delta_n.take(idx), delta_s.take(idx))
            if self.feedback:
                x = _feedback_separation(x, h, d0, dfm, self.feedback)
            d_max = np.maximum(h, x)
            new_diss = czm_dissipated(d_max, self.k[idx // m] * d0, d0, dfm)
            inc.ravel()[idx] = new_diss - self.dissipated.take(idx)
            self.delta_max.ravel()[idx] = d_max
            self.dissipated.ravel()[idx] = new_diss
        self.prev_n, self.prev_s = delta_n, delta_s
        return inc


def _ply_columns(specimen: BendSpecimen, col) -> tuple[np.ndarray, ...]:
    """(n, 12) ply modulus, strength, poisson and fracture energy, taking
    each catalog column by name from col."""
    return tuple(
        np.column_stack([col(FABRICS[k][j]) for k in specimen.stacking]) for j in range(4)
    )


def _checked_inputs(specimen: BendSpecimen, x) -> np.ndarray:
    """x as a 2-D float array in catalog units, or the first fault, naming
    the sample by its row in x: a wrong column count, a non-finite value, a
    nonpositive hardening exponent, or a ply whose damage law has no margin
    over one characteristic length (the sample with the least margin)."""
    cat = specimen.catalog
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != len(cat):
        raise ValueError(f"inputs must have {len(cat)} columns, got {x.shape[1]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("inputs contain non-finite values")
    for name in ("P", "Aln"):  # hardening exponents; 0.0**n is inf for n < 0
        bad = np.flatnonzero(x[:, cat.index(name)] <= 0.0)
        if bad.size:
            raise ValueError(f"sample {bad[0]}: hardening exponent {name} must be positive")
    e_p, x_p, _, gf_p = _ply_columns(
        specimen, lambda name: x[:, cat.index(name)] * _psi_factor(cat[name])
    )
    margin = cdm_margin(gf_p, x_p, e_p, specimen.characteristic_length)
    if np.any(margin <= 0.0):
        i, j = np.unravel_index(int(np.argmin(margin)), margin.shape)
        raise AdmissibilityError(
            f"sample {i}: ply fracture energy below the elastic energy over "
            "one characteristic length",
            layer=f"ply {j} ({specimen.stacking[j]})",
        )
    return x


class BendState:
    """Mutable batch state advanced by one curvature step at a time.

    Exposed so tests can assert step-to-step monotonicity of damage and
    dissipation; simulate_batch drives one block of rows at a time to
    kappa_max.
    """

    def __init__(self, specimen: BendSpecimen, x: np.ndarray):
        cat = specimen.catalog
        x = _checked_inputs(specimen, x) * [_psi_factor(spec) for spec in cat]  # stresses in psi
        self.specimen = specimen
        self.n = x.shape[0]
        col = lambda name: x[:, cat.index(name)]

        # substrate
        self.e_m = col("E")
        self.nu_m = col("nu")
        self.a_m = col("A")
        self.b_m = col("B")
        self.n_m = col("Aln")

        # plies; balanced fabric, one in-plane direction resolved
        self.e_p, self.x_p, self.v_p, self.gf_p = _ply_columns(specimen, col)

        lc = specimen.characteristic_length

        # shared matrix shear set
        self.gs = col("GS")
        self.ss = col("SS")
        self.alpha12 = col("alpha12")
        self.d12_max = col("d12")
        self.eps_max = col("epsilon")
        self.sig_y = col("sigmaY")
        self.c_h = col("C")
        self.p_h = col("P")

        # cohesive banks (11 inter-ply layers, 1 bond-line interface)
        self.coh = _CohesiveBank(
            self.n, 11, col("EC") / lc, col("XT"), col("XS"), col("GI"), col("GII"), col("BK"),
            label="cohesive layer",
        )
        self.iface = _CohesiveBank(
            self.n, 1, col("EiC") / lc, col("XiT"), col("XiS"), col("GiI"), col("GiII"), col("BiK"),
            label="interface", feedback=specimen.interface_damage_feedback,
        )

        # elastic transformed-section neutral axis (undamaged moduli)
        sp = specimen
        ea_ply = self.e_p * sp.ply_thickness
        ea_metal = self.e_m * sp.metal_thickness
        y_metal_c = sp.composite_thickness + sp.metal_thickness / 2.0
        self.ybar = (ea_ply @ sp.ply_mid_y + ea_metal * y_metal_c) / (
            ea_ply.sum(axis=1) + ea_metal
        )

        self.sf = np.asarray(sp.shear_fraction)
        self.vol_ply = sp.ply_thickness * sp.width * sp.gauge_length
        self.vol_metal = (
            sp.metal_thickness / sp.metal_sublayers * sp.width * sp.gauge_length
        )
        self.area_coh = sp.width * sp.cohesive_process_length
        self.area_int = sp.width * sp.interface_process_length

        # evolving state; the flow stresses are the power laws at the plastic
        # strains, carried so that a step evaluates them only where points flow
        self.step = 0
        self.d11 = np.zeros((self.n, 12))
        self.d12 = np.zeros((self.n, 12))
        self.eps12_p = np.zeros((self.n, 12))
        self.flow12 = jc_stress(self.eps12_p, self.sig_y[:, None], self.c_h[:, None], self.p_h[:, None])
        self.sig12_eff = np.zeros((self.n, 12))
        self.failed = np.zeros((self.n, 12), dtype=bool)
        self.eps_p_m = np.zeros((self.n, sp.metal_sublayers))
        self.flow_m = jc_stress(self.eps_p_m, self.a_m[:, None], self.b_m[:, None], self.n_m[:, None])
        self.energy = {k: np.zeros(self.n) for k in ("PL", "DL", "DC", "DI", "PM")}

    def advance_step(self) -> None:
        """Advance the ramp by one curvature increment.

        Each kernel runs its law only at the points the law reaches this
        step (fiber or shear stress ratio at least 1, flowing points,
        initiated cohesive points) and adds exact zeros for the rest, so the
        energies are the bits of evaluating every law at every point.  Each
        kernel's temporaries are freed when it returns, so the substrate's
        solve runs beside no ply array.
        """
        sp = self.specimen
        if self.step >= sp.n_steps:
            raise RuntimeError("ramp already complete")
        kappa_new = sp.kappa_max * (self.step + 1) / sp.n_steps
        kappa_mid = sp.kappa_max * (self.step + 0.5) / sp.n_steps
        eps = np.subtract(self.ybar[:, None], sp.ply_mid_y)
        eps *= kappa_new
        abs_eps = np.abs(eps)
        self._fiber_damage(abs_eps, kappa_mid)
        self._matrix_shear(abs_eps)
        gamma_tot = np.multiply(self.sf, eps, out=eps)  # signed total shear proxy per ply
        self._cohesive_layers(gamma_tot, abs_eps, kappa_new)
        self._interface(gamma_tot, abs_eps)
        del eps, abs_eps, gamma_tot
        self._substrate(kappa_new)
        self.step += 1

    def _fiber_damage(self, abs_eps, kappa_mid) -> None:
        """Ply fiber damage (DL), where the fiber stress ratio reaches 1."""
        sp = self.specimen
        k11 = np.multiply(self.e_p, abs_eps)
        k11 /= self.x_p
        hit = np.flatnonzero(k11 >= 1.0)
        if not hit.size:
            return
        e_p, d_old = self.e_p.take(hit), self.d11.take(hit)
        d_new = np.maximum(
            d_old,
            cdm_damage_evolution(
                k11.take(hit), self.x_p.take(hit), e_p, self.gf_p.take(hit),
                sp.characteristic_length,
            ),
        )
        rows, cols = np.divmod(hit, 12)
        eps_mid = kappa_mid * (self.ybar[rows] - sp.ply_mid_y[cols])
        release = 0.5 * e_p * eps_mid**2
        self.energy["DL"] += _row_sums(k11.shape, hit, (d_new - d_old) * release) * self.vol_ply
        self.d11.ravel()[hit] = d_new

    def _matrix_shear(self, abs_eps) -> None:
        """Ply matrix shear plasticity and damage (PL), then matrix failure."""
        trial, flowing, work = _return_map(
            np.multiply(self.sf, abs_eps), self.eps12_p, self.flow12,
            self.gs, self.sig_y, self.c_h, self.p_h, self.failed,
        )
        self.energy["PL"] += work * self.vol_ply

        # effective shear stress: on the yield surface while flowing,
        # elastic trial otherwise; frozen at failure
        sig_eff = np.maximum(trial, 0.0, out=trial)
        sig_eff.ravel()[flowing] = self.flow12.take(flowing)
        np.copyto(sig_eff, self.sig12_eff, where=self.failed)

        k12 = np.divide(sig_eff, self.ss[:, None])
        hit = np.flatnonzero((k12 >= 1.0) & ~self.failed)
        if hit.size:
            rows = hit // 12
            d_old = self.d12.take(hit)
            d_new = np.maximum(
                d_old, cdm_shear_damage(k12.take(hit), self.alpha12[rows], self.d12_max[rows])
            )
            sig_mid = 0.5 * (self.sig12_eff.take(hit) + sig_eff.take(hit))
            inc = (d_new - d_old) * (sig_mid**2 / (2.0 * self.gs[rows]))
            self.energy["PL"] += _row_sums(k12.shape, hit, inc) * self.vol_ply
            self.d12.ravel()[hit] = d_new
        self.sig12_eff = sig_eff
        if self.step == 0:  # a point with eps_max <= 0 fails before it flows
            self.failed |= (self.eps12_p >= self.eps_max[:, None]) | (
                self.d12 >= self.d12_max[:, None] - 1e-15
            )
            return
        # after the first step only a point whose eps12_p or d12 moved, one
        # that flowed or reached the damage law, can newly fail
        moved = np.concatenate((flowing, hit))
        rows = moved // 12
        self.failed.ravel()[moved] |= (self.eps12_p.take(moved) >= self.eps_max[rows]) | (
            self.d12.take(moved) >= self.d12_max[rows] - 1e-15
        )

    def _cohesive_layers(self, gamma_tot, abs_eps, kappa) -> None:
        """Inter-ply cohesive layers (DC), driven by the strain jumps."""
        sp = self.specimen
        jump = np.subtract(gamma_tot[:, :-1], gamma_tot[:, 1:])
        np.abs(jump, out=jump)
        pair = self.d11[:, :-1] + self.d11[:, 1:]
        dmg_amp = sp.damage_slip_amplification * pair * 0.5 * (
            abs_eps[:, :-1] + abs_eps[:, 1:]
        ) * 0.5
        delta_s = sp.cohesive_shear_coupling * sp.ply_thickness * (jump + dmg_amp)
        peel = kappa * sp.ply_thickness * (1.0 + sp.damage_slip_amplification * 0.5 * pair)
        delta_n = sp.cohesive_peel_coupling * sp.ply_thickness * peel
        self.energy["DC"] += self.coh.advance(delta_n, delta_s).sum(axis=1) * self.area_coh

    def _interface(self, gamma_tot, abs_eps) -> None:
        """Bond-line interface (DI), driven by the inner ply and the slip."""
        sp = self.specimen
        slip = self.eps12_p.mean(axis=1)
        delta_s = (
            sp.interface_shear_coupling * sp.ply_thickness * np.abs(gamma_tot[:, -1])
            + sp.interface_slip_coupling * sp.composite_thickness * slip
        )
        mismatch = np.abs(self.nu_m - self.v_p[:, -1])
        delta_n = sp.interface_peel_coupling * sp.ply_thickness * mismatch * abs_eps[:, -1]
        self.energy["DI"] += (
            self.iface.advance(delta_n[:, None], delta_s[:, None]).sum(axis=1) * self.area_int
        )

    def _substrate(self, kappa) -> None:
        """Substrate plasticity (PM) through the metal sublayers."""
        eps_m = np.subtract(self.ybar[:, None], self.specimen.metal_mid_y)
        eps_m *= kappa
        np.abs(eps_m, out=eps_m)
        work = _return_map(eps_m, self.eps_p_m, self.flow_m, self.e_m, self.a_m, self.b_m, self.n_m)[2]
        self.energy["PM"] += work * self.vol_metal

    def run(self) -> np.ndarray:
        """Drive the ramp to completion; returns (n, 6) energies, which
        simulate_batch checks for non-finite values."""
        while self.step < self.specimen.n_steps:
            self.advance_step()
        return self.energies()

    def energies(self) -> np.ndarray:
        pl, dl, dc = self.energy["PL"], self.energy["DL"], self.energy["DC"]
        di, pm = self.energy["DI"], self.energy["PM"]
        return np.column_stack([pl, dl, dc, di, pm, pl + dl + dc + di + pm])


# the most rows one BendState holds: its state, about 40 (n, 12) arrays, and
# one step's temporaries peak near 10 MB for a full block.  2048 keeps the
# 1555-row paper design in one block and runs the 3277-row disbond resample
# as two; at the 32-step ramp, 1024-row blocks save about 2 MB of peak RSS
# but take those two simulations from about 0.31 to 0.35 s (2 cores)
_SIMULATE_ROWS = 2048


def simulate_batch(X: np.ndarray, specimen: BendSpecimen, threads: int = 1) -> np.ndarray:
    """Run a batch of samples; returns (n, 6) energies in row order.

    The whole batch is checked first, so a fault names its row in X before
    any step runs.  The rows then run as max(threads, ceil(n / 2048))
    near-equal blocks, one BendState each: in this process, one block's
    state at a time, or mapped over `threads` worker processes, each holding
    one block's state at a time.  A batch of fewer than 2 * threads rows
    runs in this process as if threads were 1.  Rows are independent, so
    the energies are the same bits for any block split or thread count.
    """
    X = _checked_inputs(specimen, X)
    n = X.shape[0]
    if n < 2 * threads:
        threads = 1
    blocks = np.array_split(X, max(threads, -(-n // _SIMULATE_ROWS)))
    if threads <= 1:
        parts = [_simulate_block(specimen, block) for block in blocks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_simulate_block, [specimen] * len(blocks), blocks))
    out = np.concatenate(parts)
    if not np.all(np.isfinite(out)):
        i, j = np.unravel_index(int(np.argmin(np.isfinite(out))), out.shape)
        raise NumericalFailureError(f"non-finite intermediate at sample {i}, energy column {j}")
    return out


def _simulate_block(specimen, X):
    return BendState(specimen, X).run()


def simulate_dataset(
    X: np.ndarray, specimen: BendSpecimen, threads: int = 1
) -> Dataset:
    """Batch-simulate and wrap as a dataset."""
    energies = simulate_batch(X, specimen, threads=threads)
    return Dataset(specimen.catalog, np.atleast_2d(X), energies)
