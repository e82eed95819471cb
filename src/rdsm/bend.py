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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .catalog import ParameterCatalog, SamplingDistribution
from .constitutive import (
    bk_mixed_mode_gc,
    cdm_damage_evolution,
    cdm_shear_damage,
    czm_dissipated,
    jc_stress,
)
from .dataset import Dataset
from .errors import AdmissibilityError, NumericalFailureError, SchemaError

__all__ = [
    "FABRICS",
    "BendSpecimen",
    "load_specimen_config",
    "default_specimen",
    "simulate_batch",
    "simulate_dataset",
]

# fabric kind -> (modulus, strength, poisson, fracture energy) catalog names
FABRICS = {
    "ebx1200": ("E1200", "X1200", "V1200", "G1200"),
    "elt1800": ("E1800", "X1800", "V1800", "G1800"),
    "h7500": ("E7500", "X7500", "V7500", "G7500"),
    "h7781": ("E7781", "X7781", "V7781", "G7781"),
}

_PSI_PER_MSI = 1.0e6
_PSI_PER_KSI = 1.0e3

_CONFIG_KEYS = {
    "format",
    "version",
    "stacking",
    "ply_thickness_in",
    "metal_thickness_in",
    "width_in",
    "gauge_length_in",
    "metal_sublayers",
    "curvature_max_per_in",
    "curvature_steps",
    "shear_fraction",
    "characteristic_length_in",
    "lc_safety_factor",
    "cohesive_shear_coupling",
    "cohesive_peel_coupling",
    "damage_slip_amplification",
    "interface_shear_coupling",
    "interface_slip_coupling",
    "interface_peel_coupling",
    "interface_damage_feedback",
    "cohesive_process_length_in",
    "interface_process_length_in",
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
            e_name, x_name, _, g_name = FABRICS[kind]
            x = self.catalog[x_name].mean * _PSI_PER_KSI
            e = self.catalog[e_name].mean * _PSI_PER_MSI
            u0 = x * x / (2.0 * e)
            if self.catalog[g_name].mean - u0 * self.characteristic_length <= 0.0:
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
        x_hi = catalog[x_name].mean * hi_f * _PSI_PER_KSI
        e_lo = catalog[e_name].mean * lo_f * _PSI_PER_MSI
        g_lo = catalog[g_name].mean * lo_f
        u0_hi = x_hi * x_hi / (2.0 * e_lo)
        lc = min(lc, g_lo / (safety * u0_hi))
    return float(lc)


def load_specimen_config(source, catalog: ParameterCatalog) -> BendSpecimen:
    """Build a specimen from a JSON config (path, file object, or dict).

    Unknown keys and malformed JSON are schema errors.  A null
    characteristic length resolves to the largest admissible value with the
    configured safety factor.
    """
    try:
        if isinstance(source, dict):
            cfg = dict(source)
        elif hasattr(source, "read"):
            cfg = json.load(source)
        else:
            with open(source) as fh:
                cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed specimen config: {exc}") from None
    if not isinstance(cfg, dict):
        raise SchemaError("specimen config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise SchemaError(f"unknown specimen config keys {sorted(unknown)!r}")
    missing = _CONFIG_KEYS - set(cfg)
    if missing:
        raise SchemaError(f"missing specimen config keys {sorted(missing)!r}")
    if cfg["format"] != "rdsm-specimen" or cfg["version"] != 1:
        raise SchemaError(
            f"unsupported specimen config format {cfg['format']!r} v{cfg['version']!r}"
        )
    stacking = tuple(cfg["stacking"])
    sf_map = cfg["shear_fraction"]
    if not isinstance(sf_map, dict) or set(sf_map) - set(FABRICS):
        raise SchemaError("shear_fraction must map fabric kinds to fractions")
    try:
        shear_fraction = tuple(float(sf_map[kind]) for kind in stacking)
    except KeyError as exc:
        raise SchemaError(f"shear_fraction missing fabric {exc.args[0]!r}") from None
    lc = cfg["characteristic_length_in"]
    if lc is None:
        lc = _resolve_lc(catalog, stacking, float(cfg["lc_safety_factor"]))
    return BendSpecimen(
        catalog=catalog,
        stacking=stacking,
        ply_thickness=float(cfg["ply_thickness_in"]),
        metal_thickness=float(cfg["metal_thickness_in"]),
        width=float(cfg["width_in"]),
        gauge_length=float(cfg["gauge_length_in"]),
        metal_sublayers=int(cfg["metal_sublayers"]),
        kappa_max=float(cfg["curvature_max_per_in"]),
        n_steps=int(cfg["curvature_steps"]),
        shear_fraction=shear_fraction,
        characteristic_length=float(lc),
        cohesive_shear_coupling=float(cfg["cohesive_shear_coupling"]),
        cohesive_peel_coupling=float(cfg["cohesive_peel_coupling"]),
        damage_slip_amplification=float(cfg["damage_slip_amplification"]),
        interface_shear_coupling=float(cfg["interface_shear_coupling"]),
        interface_slip_coupling=float(cfg["interface_slip_coupling"]),
        interface_peel_coupling=float(cfg["interface_peel_coupling"]),
        interface_damage_feedback=float(cfg["interface_damage_feedback"]),
        cohesive_process_length=float(cfg["cohesive_process_length_in"]),
        interface_process_length=float(cfg["interface_process_length_in"]),
    )


def default_specimen(catalog: ParameterCatalog) -> BendSpecimen:
    """The shipped calibrated specimen config."""
    with resources.files("rdsm.data").joinpath("default_specimen.json").open() as fh:
        return load_specimen_config(fh, catalog)


def _solve_power_hardening(total, stiffness, y0, coef, expo, lo):
    """Root of stiffness*(total - e) = y0 + coef*e**expo, bisected on [lo, total].

    All arguments are equal-shape arrays; caller guarantees the bracket
    (elastic trial above current flow stress).
    """
    lo = lo.copy()
    hi = total.copy()
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        f = stiffness * (total - mid) - y0 - coef * mid**expo
        above = f > 0.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def _return_map(strain, eps_p, stiffness, y0, coef, expo, active):
    """One power-hardening return-map step over (n, m) points.

    stiffness and the hardening constants are (n, 1) columns; points flow
    only where active and the elastic trial stress exceeds the current flow
    stress.  Returns the trial stress, the plastic mask, the new plastic
    strain, the new flow stress and the trapezoid plastic work per row.
    """
    trial = stiffness * (strain - eps_p)
    flow_old = jc_stress(eps_p, y0, coef, expo)
    plastic = active & (trial > flow_old)
    eps_p_new = eps_p.copy()
    if np.any(plastic):
        idx = np.nonzero(plastic)
        eps_p_new[idx] = _solve_power_hardening(
            strain[idx],
            np.broadcast_to(stiffness, strain.shape)[idx],
            np.broadcast_to(y0, strain.shape)[idx],
            np.broadcast_to(coef, strain.shape)[idx],
            np.broadcast_to(expo, strain.shape)[idx],
            eps_p[idx],
        )
    flow_new = jc_stress(eps_p_new, y0, coef, expo)
    work = (
        np.where(plastic, 0.5 * (flow_old + flow_new) * (eps_p_new - eps_p), 0.0)
    ).sum(axis=1)
    return trial, plastic, eps_p_new, flow_new, work


class _CohesiveBank:
    """Vectorized state for a set of cohesive points sharing resin properties.

    Mode mix, initiation separation, and mixed toughness freeze at the
    loading direction seen when the quadratic criterion first trips.
    """

    def __init__(
        self, n, m, k, t0_n, t0_s, gc_i, gc_ii, exponent, shear_split, label, feedback=0.0
    ):
        self.k = k  # (n,) penalty stiffness
        self.t0_n = t0_n
        self.t0_s = t0_s
        self.gc_i = gc_i
        self.gc_ii = gc_ii
        self.exponent = exponent
        self.shear_split = shear_split  # True: split shear 50/50 into II/III
        self.label = label
        self.feedback = feedback  # driver amplification per unit damage
        shape = (n, m)
        self.initiated = np.zeros(shape, dtype=bool)
        self.delta_max = np.zeros(shape)
        self.delta0_m = np.zeros(shape)
        self.delta_f_m = np.zeros(shape)
        self.t0_m = np.zeros(shape)
        self.gc_m = np.zeros(shape)
        self.dissipated = np.zeros(shape)

    def damage(self):
        """Stiffness-loss damage of the triangular law at the current state."""
        d = np.clip(self.delta_max, self.delta0_m, self.delta_f_m)
        span = np.where(self.delta_f_m > self.delta0_m, self.delta_f_m - self.delta0_m, 1.0)
        frac = self.delta_f_m * (d - self.delta0_m) / (np.maximum(d, 1e-300) * span)
        return np.where(self.initiated, np.clip(frac, 0.0, 1.0), 0.0)

    def advance(self, delta_n, delta_s):
        """Advance to new separations; returns the dissipation increment per point.

        A positive feedback coefficient amplifies the incoming driver by
        (1 + feedback * damage), so initiated points race toward full failure
        while uninitiated points are untouched.  delta_max only ever grows, so
        the amplification preserves monotonicity.
        """
        if self.feedback:
            amp = 1.0 + self.feedback * self.damage()
            delta_n = delta_n * amp
            delta_s = delta_s * amp
        k = self.k[:, None]
        delta_m = np.hypot(delta_n, delta_s)
        quad = (k * delta_n / self.t0_n[:, None]) ** 2 + (
            k * delta_s / self.t0_s[:, None]
        ) ** 2
        fresh = (~self.initiated) & (quad >= 1.0)
        if np.any(fresh):
            rows, cols = np.nonzero(fresh)
            dm = delta_m[rows, cols]
            q = quad[rows, cols]
            shear_sq = np.where(dm > 0.0, (delta_s[rows, cols] / np.where(dm > 0.0, dm, 1.0)) ** 2, 0.0)
            if self.shear_split:
                g_ii = shear_sq / 2.0
                g_iii = shear_sq / 2.0
            else:
                g_ii = shear_sq
                g_iii = np.zeros_like(shear_sq)
            gcm = bk_mixed_mode_gc(
                1.0 - shear_sq,
                g_ii,
                g_iii,
                self.gc_i[rows],
                self.gc_ii[rows],
                self.exponent[rows],
            )
            d0 = dm / np.sqrt(q)
            t0m = self.k[rows] * d0
            dfm = 2.0 * gcm / t0m
            if np.any(dfm <= d0):
                j = int(np.argmax(dfm <= d0))
                raise AdmissibilityError(
                    "cohesive toughness below initiation energy",
                    layer=f"{self.label} {cols[j]}",
                )
            self.delta0_m[rows, cols] = d0
            self.t0_m[rows, cols] = t0m
            self.delta_f_m[rows, cols] = dfm
            self.gc_m[rows, cols] = gcm
            self.initiated[rows, cols] = True
        self.delta_max = np.where(
            self.initiated, np.maximum(self.delta_max, delta_m), self.delta_max
        )
        new_diss = np.where(
            self.initiated,
            czm_dissipated(self.delta_max, self.t0_m, self.delta0_m, self.delta_f_m),
            0.0,
        )
        inc = new_diss - self.dissipated
        self.dissipated = new_diss
        return inc


class BendState:
    """Mutable batch state advanced by one curvature step at a time.

    Exposed so tests can assert step-to-step monotonicity of damage and
    dissipation; simulate_batch drives it to kappa_max.
    """

    def __init__(self, specimen: BendSpecimen, x: np.ndarray, n_steps: int | None = None):
        cat = specimen.catalog
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != len(cat):
            raise ValueError(f"inputs must have {len(cat)} columns, got {x.shape[1]}")
        if not np.all(np.isfinite(x)):
            raise ValueError("inputs contain non-finite values")
        self.specimen = specimen
        self.n = x.shape[0]
        self.n_steps = specimen.n_steps if n_steps is None else int(n_steps)
        if self.n_steps < 1:
            raise ValueError("curvature steps must be >= 1")
        col = lambda name: x[:, cat.index(name)]

        # substrate (psi)
        self.e_m = col("E") * _PSI_PER_MSI
        self.nu_m = col("nu")
        self.a_m = col("A") * _PSI_PER_KSI
        self.b_m = col("B") * _PSI_PER_KSI
        self.n_m = col("Aln")

        # plies (psi); balanced fabric, one in-plane direction resolved
        self.e_p = np.column_stack([col(FABRICS[k][0]) for k in specimen.stacking]) * _PSI_PER_MSI
        self.x_p = np.column_stack([col(FABRICS[k][1]) for k in specimen.stacking]) * _PSI_PER_KSI
        self.v_p = np.column_stack([col(FABRICS[k][2]) for k in specimen.stacking])
        self.gf_p = np.column_stack([col(FABRICS[k][3]) for k in specimen.stacking])

        lc = specimen.characteristic_length
        self.u0_p = self.x_p**2 / (2.0 * self.e_p)
        margin = self.gf_p - self.u0_p * lc
        if np.any(margin <= 0.0):
            i, j = np.unravel_index(int(np.argmin(margin)), margin.shape)
            raise AdmissibilityError(
                f"sample {i}: ply fracture energy below the elastic energy over "
                "one characteristic length",
                layer=f"ply {j} ({specimen.stacking[j]})",
            )

        # shared matrix shear set (psi)
        self.gs = col("GS") * _PSI_PER_MSI
        self.ss = col("SS") * _PSI_PER_KSI
        self.alpha12 = col("alpha12")
        self.d12_max = col("d12")
        self.eps_max = col("epsilon")
        self.sig_y = col("sigmaY") * _PSI_PER_KSI
        self.c_h = col("C") * _PSI_PER_MSI
        self.p_h = col("P")

        # cohesive banks (11 inter-ply layers, 1 bond-line interface)
        self.coh = _CohesiveBank(
            self.n,
            11,
            col("EC") * _PSI_PER_MSI / lc,
            col("XT") * _PSI_PER_KSI,
            col("XS") * _PSI_PER_KSI,
            col("GI"),
            col("GII"),
            col("BK"),
            shear_split=False,
            label="cohesive layer",
        )
        self.iface = _CohesiveBank(
            self.n,
            1,
            col("EiC") * _PSI_PER_MSI / lc,
            col("XiT") * _PSI_PER_KSI,
            col("XiS") * _PSI_PER_KSI,
            col("GiI"),
            col("GiII"),
            col("BiK"),
            shear_split=True,
            label="interface",
            feedback=specimen.interface_damage_feedback,
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

        # evolving state
        self.step = 0
        self.kappa = 0.0
        self.d11 = np.zeros((self.n, 12))
        self.d12 = np.zeros((self.n, 12))
        self.eps12_p = np.zeros((self.n, 12))
        self.sig12_eff = np.zeros((self.n, 12))
        self.failed = np.zeros((self.n, 12), dtype=bool)
        self.eps_p_m = np.zeros((self.n, sp.metal_sublayers))
        self.energy = {k: np.zeros(self.n) for k in ("PL", "DL", "DC", "DI", "PM")}

    # -- drivers ---------------------------------------------------------
    def _ply_strain(self, kappa):
        return kappa * (self.ybar[:, None] - self.specimen.ply_mid_y[None, :])

    def advance_step(self) -> None:
        """Advance the ramp by one curvature increment."""
        if self.step >= self.n_steps:
            raise RuntimeError("ramp already complete")
        sp = self.specimen
        kappa_new = sp.kappa_max * (self.step + 1) / self.n_steps
        kappa_mid = sp.kappa_max * (self.step + 0.5) / self.n_steps

        eps = self._ply_strain(kappa_new)
        eps_mid = self._ply_strain(kappa_mid)
        abs_eps = np.abs(eps)

        # --- ply fiber damage (DL) ---------------------------------------
        k11 = self.e_p * abs_eps / self.x_p
        hit = k11 >= 1.0
        d_new = self.d11.copy()
        if np.any(hit):
            d_new[hit] = np.maximum(
                self.d11[hit],
                cdm_damage_evolution(
                    k11[hit],
                    self.x_p[hit],
                    self.e_p[hit],
                    self.gf_p[hit],
                    sp.characteristic_length,
                ),
            )
        release = 0.5 * self.e_p * eps_mid**2
        self.energy["DL"] += ((d_new - self.d11) * release).sum(axis=1) * self.vol_ply
        self.d11 = d_new

        # --- ply matrix shear (PL) ----------------------------------------
        gs = self.gs[:, None]
        trial, plastic, eps_p_new, flow_new, work = _return_map(
            self.sf[None, :] * abs_eps,
            self.eps12_p,
            gs,
            self.sig_y[:, None],
            self.c_h[:, None],
            self.p_h[:, None],
            ~self.failed,
        )
        self.energy["PL"] += work * self.vol_ply

        # effective shear stress: on the yield surface while flowing,
        # elastic trial otherwise; frozen at failure
        sig_eff = np.where(plastic, flow_new, np.where(self.failed, self.sig12_eff, np.maximum(trial, 0.0)))

        k12 = sig_eff / self.ss[:, None]
        dmg_hit = (~self.failed) & (k12 >= 1.0)
        d12_new = self.d12.copy()
        if np.any(dmg_hit):
            cand = cdm_shear_damage(
                k12[dmg_hit],
                np.broadcast_to(self.alpha12[:, None], k12.shape)[dmg_hit],
                np.broadcast_to(self.d12_max[:, None], k12.shape)[dmg_hit],
            )
            d12_new[dmg_hit] = np.maximum(self.d12[dmg_hit], cand)
        sig_mid = 0.5 * (self.sig12_eff + sig_eff)
        self.energy["PL"] += (
            (d12_new - self.d12) * (sig_mid**2 / (2.0 * gs))
        ).sum(axis=1) * self.vol_ply
        self.d12 = d12_new
        self.eps12_p = eps_p_new
        self.sig12_eff = sig_eff
        self.failed |= (self.eps12_p >= self.eps_max[:, None]) | (
            self.d12 >= self.d12_max[:, None] - 1e-15
        )

        # --- cohesive layers (DC) -----------------------------------------
        gamma_tot = self.sf[None, :] * eps  # signed total shear proxy per ply
        jump = np.abs(gamma_tot[:, :-1] - gamma_tot[:, 1:])
        dmg_amp = sp.damage_slip_amplification * (
            self.d11[:, :-1] + self.d11[:, 1:]
        ) * 0.5 * (np.abs(eps[:, :-1]) + np.abs(eps[:, 1:])) * 0.5
        delta_s = sp.cohesive_shear_coupling * sp.ply_thickness * (jump + dmg_amp)
        peel = kappa_new * sp.ply_thickness * (
            1.0 + sp.damage_slip_amplification * 0.5 * (self.d11[:, :-1] + self.d11[:, 1:])
        )
        delta_n = sp.cohesive_peel_coupling * sp.ply_thickness * peel
        self.energy["DC"] += self.coh.advance(delta_n, delta_s).sum(axis=1) * self.area_coh

        # --- bond-line interface (DI) -------------------------------------
        slip = self.eps12_p.mean(axis=1)
        delta_s_i = (
            sp.interface_shear_coupling * sp.ply_thickness * np.abs(gamma_tot[:, -1])
            + sp.interface_slip_coupling * sp.composite_thickness * slip
        )
        mismatch = np.abs(self.nu_m - self.v_p[:, -1])
        delta_n_i = (
            sp.interface_peel_coupling * sp.ply_thickness * mismatch * np.abs(eps[:, -1])
        )
        self.energy["DI"] += (
            self.iface.advance(delta_n_i[:, None], delta_s_i[:, None]).sum(axis=1)
            * self.area_int
        )

        # --- substrate plasticity (PM) ------------------------------------
        eps_m = np.abs(kappa_new * (self.ybar[:, None] - sp.metal_mid_y[None, :]))
        _, _, self.eps_p_m, _, work_m = _return_map(
            eps_m,
            self.eps_p_m,
            self.e_m[:, None],
            self.a_m[:, None],
            self.b_m[:, None],
            self.n_m[:, None],
            True,
        )
        self.energy["PM"] += work_m * self.vol_metal

        self.step += 1
        self.kappa = kappa_new

    def run(self) -> np.ndarray:
        """Drive the ramp to completion; returns (n, 6) energies."""
        while self.step < self.n_steps:
            self.advance_step()
        return self.energies()

    def energies(self) -> np.ndarray:
        pl, dl, dc = self.energy["PL"], self.energy["DL"], self.energy["DC"]
        di, pm = self.energy["DI"], self.energy["PM"]
        ts = pl + dl + dc + di + pm
        out = np.column_stack([pl, dl, dc, di, pm, ts])
        if not np.all(np.isfinite(out)):
            i, j = np.unravel_index(int(np.argmin(np.isfinite(out))), out.shape)
            raise NumericalFailureError(f"sample {i}, energy column {j}")
        return out


def simulate_batch(
    X: np.ndarray, specimen: BendSpecimen, n_steps: int | None = None, threads: int = 1
) -> np.ndarray:
    """Run a batch of samples; rows are independent, so chunked execution
    under `threads` workers returns identical values to the serial path."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if threads <= 1 or X.shape[0] < 2 * threads:
        return BendState(specimen, X, n_steps).run()
    from concurrent.futures import ProcessPoolExecutor

    chunks = np.array_split(np.arange(X.shape[0]), threads)
    out = np.empty((X.shape[0], 6))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        futures = [
            pool.submit(_simulate_chunk, specimen, X[c], n_steps) for c in chunks if len(c)
        ]
        for c, fut in zip([c for c in chunks if len(c)], futures):
            out[c] = fut.result()
    return out


def _simulate_chunk(specimen, X, n_steps):
    return BendState(specimen, X, n_steps).run()


def simulate_dataset(
    X: np.ndarray, specimen: BendSpecimen, threads: int = 1
) -> Dataset:
    """Batch-simulate and wrap as a toy-model dataset."""
    energies = simulate_batch(X, specimen, threads=threads)
    return Dataset(specimen.catalog, np.atleast_2d(X), energies, provenance="toy_model")
