//! The 0.09 µm component power model (Table 1 of the paper).
//!
//! Table 1 lists the maximum power of the emulated components at 500 MHz:
//!
//! | component                  | max power |
//! |----------------------------|-----------|
//! | RISC32-streaming (Conf1)   | 0.5 W     |
//! | RISC32-ARM11 (Conf2)       | 0.27 W    |
//! | D-cache 8 kB / 2-way       | 43 mW     |
//! | I-cache 8 kB / DM          | 11 mW     |
//! | Memory 32 kB               | 15 mW     |
//!
//! The model scales dynamic power with utilisation and the `f · V²` factor of
//! the active operating point, and adds a temperature-dependent leakage term
//! (leakage grows roughly exponentially with temperature, which is one of the
//! motivations for thermal balancing cited in the paper's introduction).

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::ArchError;
use crate::freq::{Frequency, OperatingPoint, Voltage};
use crate::units::{Celsius, Watts};

/// Reference frequency of Table 1 (500 MHz).
pub const REFERENCE_FREQUENCY_MHZ: f64 = 500.0;

/// Reference voltage paired with the 500 MHz figures (1.2 V at 90 nm).
pub const REFERENCE_VOLTAGE: f64 = 1.2;

/// Fraction of the maximum component power attributed to leakage at the
/// reference temperature. Typical for 90 nm designs.
pub const LEAKAGE_FRACTION_AT_REFERENCE: f64 = 0.15;

/// Reference temperature at which the leakage fraction is specified.
pub const LEAKAGE_REFERENCE_CELSIUS: f64 = 60.0;

/// Exponential leakage sensitivity: leakage doubles roughly every 25 °C.
pub const LEAKAGE_DOUBLING_CELSIUS: f64 = 25.0;

/// Processor configuration from Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CoreClass {
    /// `RISC32-streaming (Conf1)` — 0.5 W max at 500 MHz.
    Risc32Streaming,
    /// `RISC32-ARM11 (Conf2)` — 0.27 W max at 500 MHz.
    Risc32Arm11,
}

impl CoreClass {
    /// Maximum core power at the 500 MHz / 1.2 V reference point.
    pub fn max_power(self) -> Watts {
        match self {
            CoreClass::Risc32Streaming => Watts::new(0.5),
            CoreClass::Risc32Arm11 => Watts::new(0.27),
        }
    }
}

impl fmt::Display for CoreClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreClass::Risc32Streaming => write!(f, "RISC32-streaming (Conf1)"),
            CoreClass::Risc32Arm11 => write!(f, "RISC32-ARM11 (Conf2)"),
        }
    }
}

/// Non-processor components of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComponentKind {
    /// 8 kB two-way data cache (43 mW max).
    DCache,
    /// 8 kB direct-mapped instruction cache (11 mW max).
    ICache,
    /// 32 kB scratchpad / private memory (15 mW max).
    Memory32k,
    /// Shared memory bank (modelled with the same 15 mW/32 kB density).
    SharedMemory,
}

impl ComponentKind {
    /// Maximum power of the component at the reference operating point.
    pub fn max_power(self) -> Watts {
        match self {
            ComponentKind::DCache => Watts::from_milli(43.0),
            ComponentKind::ICache => Watts::from_milli(11.0),
            ComponentKind::Memory32k => Watts::from_milli(15.0),
            ComponentKind::SharedMemory => Watts::from_milli(15.0),
        }
    }
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComponentKind::DCache => write!(f, "DCache 8kB/2way"),
            ComponentKind::ICache => write!(f, "ICache 8kB/DM"),
            ComponentKind::Memory32k => write!(f, "Memory 32kB"),
            ComponentKind::SharedMemory => write!(f, "Shared memory"),
        }
    }
}

/// Parameters of the power model.
///
/// All defaults reproduce Table 1; the builder-style setters allow ablation
/// studies (e.g. disabling leakage) without touching the rest of the stack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    reference: OperatingPoint,
    leakage_fraction: f64,
    leakage_reference: Celsius,
    leakage_doubling: f64,
    idle_fraction: f64,
}

impl PowerModel {
    /// Creates the Table 1 power model with default leakage parameters.
    pub fn new() -> Self {
        PowerModel {
            reference: OperatingPoint::new(
                Frequency::from_mhz(REFERENCE_FREQUENCY_MHZ),
                Voltage::new(REFERENCE_VOLTAGE),
            ),
            leakage_fraction: LEAKAGE_FRACTION_AT_REFERENCE,
            leakage_reference: Celsius::new(LEAKAGE_REFERENCE_CELSIUS),
            leakage_doubling: LEAKAGE_DOUBLING_CELSIUS,
            idle_fraction: 0.05,
        }
    }

    /// Overrides the leakage fraction (share of max power that is leakage at
    /// the reference temperature). Useful for ablations.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] when the fraction is outside `[0, 1)`.
    pub fn with_leakage_fraction(mut self, fraction: f64) -> Result<Self, ArchError> {
        if !(0.0..1.0).contains(&fraction) {
            return Err(ArchError::InvalidConfig(format!(
                "leakage fraction {fraction} must be in [0, 1)"
            )));
        }
        self.leakage_fraction = fraction;
        Ok(self)
    }

    /// Overrides the fraction of dynamic power burnt by an idle (but clocked)
    /// component, modelling clock-tree and idle-loop activity.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] when the fraction is outside `[0, 1]`.
    pub fn with_idle_fraction(mut self, fraction: f64) -> Result<Self, ArchError> {
        if !(0.0..=1.0).contains(&fraction) {
            return Err(ArchError::InvalidConfig(format!(
                "idle fraction {fraction} must be in [0, 1]"
            )));
        }
        self.idle_fraction = fraction;
        Ok(self)
    }

    /// The reference operating point (500 MHz / 1.2 V) of Table 1.
    pub fn reference(&self) -> OperatingPoint {
        self.reference
    }

    /// The idle activity fraction.
    pub fn idle_fraction(&self) -> f64 {
        self.idle_fraction
    }

    /// Dynamic power of a component with `max_power` rating running at
    /// `point` with the given `utilization` (0–1).
    ///
    /// A halted component (zero frequency) burns no dynamic power. An idle
    /// but clocked component burns `idle_fraction` of its scaled max power.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidUtilization`] when `utilization` is outside
    /// `[0, 1]`.
    pub fn dynamic_power(
        &self,
        max_power: Watts,
        point: OperatingPoint,
        utilization: f64,
    ) -> Result<Watts, ArchError> {
        if !(0.0..=1.0).contains(&utilization) {
            return Err(ArchError::InvalidUtilization(utilization));
        }
        if point.frequency == Frequency::ZERO {
            return Ok(Watts::ZERO);
        }
        let scale = point.dynamic_scale(&self.reference);
        let max_dynamic = max_power.as_watts() * (1.0 - self.leakage_fraction);
        let activity = self.idle_fraction + (1.0 - self.idle_fraction) * utilization;
        Ok(Watts::new(max_dynamic * scale * activity))
    }

    /// Temperature-dependent leakage power of a component.
    ///
    /// Leakage is `leakage_fraction · max_power` at the reference temperature
    /// and doubles every [`LEAKAGE_DOUBLING_CELSIUS`] degrees. Leakage scales
    /// with the supply voltage but not with frequency, and is burnt even by an
    /// idle component as long as it is powered (a halted core still leaks —
    /// the Stop&Go policy in the paper gates the clock, not the supply).
    pub fn leakage_power(&self, max_power: Watts, voltage: Voltage, temperature: Celsius) -> Watts {
        let base = max_power.as_watts() * self.leakage_fraction;
        let v_scale = if REFERENCE_VOLTAGE > 0.0 {
            voltage.as_volts() / REFERENCE_VOLTAGE
        } else {
            1.0
        };
        let delta_t = temperature.as_celsius() - self.leakage_reference.as_celsius();
        // Spelled `exp2` rather than `powf(2.0, ..)`: optimized builds already
        // lower a literal base-2 powf to exp2 (so release output is unchanged
        // bit for bit), and debug builds skip the generic pow path — this runs
        // once per block per simulation step.
        let t_scale = (delta_t / self.leakage_doubling).exp2();
        Watts::new(base * v_scale * t_scale)
    }

    /// Total (dynamic + leakage) power of a component.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidUtilization`] when `utilization` is outside
    /// `[0, 1]`.
    pub fn total_power(
        &self,
        max_power: Watts,
        point: OperatingPoint,
        utilization: f64,
        temperature: Celsius,
    ) -> Result<Watts, ArchError> {
        let dynamic = self.dynamic_power(max_power, point, utilization)?;
        let leakage = self.leakage_power(max_power, point.voltage, temperature);
        Ok(dynamic + leakage)
    }

    /// Convenience: total power of a processor of class `class`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidUtilization`] when `utilization` is outside
    /// `[0, 1]`.
    pub fn core_power(
        &self,
        class: CoreClass,
        point: OperatingPoint,
        utilization: f64,
        temperature: Celsius,
    ) -> Result<Watts, ArchError> {
        self.total_power(class.max_power(), point, utilization, temperature)
    }

    /// Convenience: total power of a non-processor component.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidUtilization`] when `utilization` is outside
    /// `[0, 1]`.
    pub fn component_power(
        &self,
        kind: ComponentKind,
        point: OperatingPoint,
        utilization: f64,
        temperature: Celsius,
    ) -> Result<Watts, ArchError> {
        self.total_power(kind.max_power(), point, utilization, temperature)
    }

    /// Precomputes the operating-point-dependent factors of
    /// [`total_power`](Self::total_power) so callers evaluating several
    /// components at the *same* point (the four blocks of a tile, every step)
    /// pay for the divisions once. Feed the result to
    /// [`total_power_with`](Self::total_power_with).
    pub fn point_scales(&self, point: OperatingPoint) -> PointScales {
        let voltage_scale = if REFERENCE_VOLTAGE > 0.0 {
            point.voltage.as_volts() / REFERENCE_VOLTAGE
        } else {
            1.0
        };
        PointScales {
            dynamic_scale: point.dynamic_scale(&self.reference),
            voltage_scale,
            zero_frequency: point.frequency == Frequency::ZERO,
        }
    }

    /// [`total_power`](Self::total_power) with the point-dependent factors
    /// precomputed by [`point_scales`](Self::point_scales). The arithmetic
    /// mirrors [`dynamic_power`](Self::dynamic_power) +
    /// [`leakage_power`](Self::leakage_power) operation for operation, so the
    /// two paths produce bit-identical results (asserted by the
    /// `cached_scales_match_direct_path` test).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidUtilization`] when `utilization` is outside
    /// `[0, 1]`.
    pub fn total_power_with(
        &self,
        max_power: Watts,
        scales: &PointScales,
        utilization: f64,
        temperature: Celsius,
    ) -> Result<Watts, ArchError> {
        if !(0.0..=1.0).contains(&utilization) {
            return Err(ArchError::InvalidUtilization(utilization));
        }
        Ok(self.power_at(max_power, scales, utilization, temperature))
    }

    /// The arithmetic of [`total_power_with`](Self::total_power_with) without
    /// its range check: the per-step power pass calls it with utilisations
    /// that are already in `[0, 1]` (validated on set, or clamped).
    #[inline]
    pub fn power_at(
        &self,
        max_power: Watts,
        scales: &PointScales,
        utilization: f64,
        temperature: Celsius,
    ) -> Watts {
        debug_assert!((0.0..=1.0).contains(&utilization));
        let dynamic = if scales.zero_frequency {
            Watts::ZERO
        } else {
            let max_dynamic = max_power.as_watts() * (1.0 - self.leakage_fraction);
            let activity = self.idle_fraction + (1.0 - self.idle_fraction) * utilization;
            Watts::new(max_dynamic * scales.dynamic_scale * activity)
        };
        let base = max_power.as_watts() * self.leakage_fraction;
        let delta_t = temperature.as_celsius() - self.leakage_reference.as_celsius();
        let t_scale = (delta_t / self.leakage_doubling).exp2();
        let leakage = Watts::new(base * scales.voltage_scale * t_scale);
        dynamic + leakage
    }
}

/// Operating-point-dependent factors of the power model, precomputed once
/// per point by [`PowerModel::point_scales`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointScales {
    /// `(f/f_ref) · (V/V_ref)²` of the point.
    pub dynamic_scale: f64,
    /// `V/V_ref` of the point (leakage voltage scaling).
    pub voltage_scale: f64,
    /// Whether the point is clock-gated (no dynamic power at all).
    pub zero_frequency: bool,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_scales_match_direct_path() {
        let model = PowerModel::new();
        let scale = crate::freq::DvfsScale::paper_default();
        let mut points: Vec<OperatingPoint> = scale.points().to_vec();
        points.push(OperatingPoint::new(Frequency::ZERO, Voltage::new(1.0)));
        for point in points {
            let scales = model.point_scales(point);
            for kind in [
                ComponentKind::ICache,
                ComponentKind::DCache,
                ComponentKind::Memory32k,
                ComponentKind::SharedMemory,
            ] {
                for utilization in [0.0, 0.3, 0.97, 1.0] {
                    for temp in [25.0, 45.0, 61.3, 95.0] {
                        let direct = model
                            .total_power(kind.max_power(), point, utilization, Celsius::new(temp))
                            .unwrap();
                        let cached = model
                            .total_power_with(
                                kind.max_power(),
                                &scales,
                                utilization,
                                Celsius::new(temp),
                            )
                            .unwrap();
                        assert_eq!(
                            direct.as_watts().to_bits(),
                            cached.as_watts().to_bits(),
                            "{kind:?} at {point} u={utilization} t={temp}"
                        );
                    }
                }
            }
        }
        // Out-of-range utilization is rejected on both paths.
        let scales = model.point_scales(reference_point());
        assert!(model
            .total_power_with(Watts::new(0.5), &scales, 1.5, Celsius::new(45.0))
            .is_err());
    }

    #[test]
    fn exp2_matches_powf_base_two() {
        // `leakage_power` uses `exp2` as a faster spelling of the model's
        // `2^(ΔT/doubling)`. Optimized builds lower a literal base-2 `powf`
        // to `exp2` anyway, so the spelling cannot change release output;
        // this guards the two staying equivalent within float tolerance on
        // every build profile (unoptimized libm `pow` may differ in the last
        // ulp). The grid covers far more than the plausible ΔT/doubling
        // range (roughly [-10, 10] for die temperatures).
        let mut x = -60.0f64;
        while x <= 60.0 {
            let a = x.exp2();
            let b = 2f64.powf(x);
            assert!(
                ((a - b) / b).abs() < 1e-14,
                "exp2({x}) = {a:e} deviates from powf(2, {x}) = {b:e}"
            );
            x += 0.000317;
        }
    }

    fn reference_point() -> OperatingPoint {
        OperatingPoint::new(
            Frequency::from_mhz(REFERENCE_FREQUENCY_MHZ),
            Voltage::new(REFERENCE_VOLTAGE),
        )
    }

    #[test]
    fn table1_max_power_values() {
        assert_eq!(CoreClass::Risc32Streaming.max_power(), Watts::new(0.5));
        assert_eq!(CoreClass::Risc32Arm11.max_power(), Watts::new(0.27));
        assert_eq!(ComponentKind::DCache.max_power(), Watts::from_milli(43.0));
        assert_eq!(ComponentKind::ICache.max_power(), Watts::from_milli(11.0));
        assert_eq!(
            ComponentKind::Memory32k.max_power(),
            Watts::from_milli(15.0)
        );
        assert_eq!(
            ComponentKind::SharedMemory.max_power(),
            Watts::from_milli(15.0)
        );
    }

    #[test]
    fn display_names_match_table1() {
        assert!(CoreClass::Risc32Streaming.to_string().contains("Conf1"));
        assert!(CoreClass::Risc32Arm11.to_string().contains("ARM11"));
        assert!(ComponentKind::DCache.to_string().contains("DCache"));
        assert!(ComponentKind::ICache.to_string().contains("ICache"));
        assert!(ComponentKind::Memory32k.to_string().contains("32kB"));
        assert!(ComponentKind::SharedMemory.to_string().contains("Shared"));
    }

    #[test]
    fn full_utilization_at_reference_recovers_table1() {
        let model = PowerModel::new();
        let p = model
            .core_power(
                CoreClass::Risc32Streaming,
                reference_point(),
                1.0,
                Celsius::new(LEAKAGE_REFERENCE_CELSIUS),
            )
            .unwrap();
        // dynamic = 0.85 * 0.5, leakage = 0.15 * 0.5 => 0.5 W total.
        assert!((p.as_watts() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn dynamic_power_scales_with_utilization() {
        let model = PowerModel::new();
        let point = reference_point();
        let low = model
            .dynamic_power(Watts::new(0.5), point, 0.2)
            .unwrap()
            .as_watts();
        let high = model
            .dynamic_power(Watts::new(0.5), point, 0.8)
            .unwrap()
            .as_watts();
        assert!(high > low);
        // idle component still burns the idle fraction.
        let idle = model
            .dynamic_power(Watts::new(0.5), point, 0.0)
            .unwrap()
            .as_watts();
        assert!(idle > 0.0);
        assert!(idle < low);
    }

    #[test]
    fn dynamic_power_scales_with_operating_point() {
        let model = PowerModel::new();
        let full = reference_point();
        let half = OperatingPoint::new(Frequency::from_mhz(250.0), Voltage::new(1.2));
        let p_full = model
            .dynamic_power(Watts::new(0.5), full, 1.0)
            .unwrap()
            .as_watts();
        let p_half = model
            .dynamic_power(Watts::new(0.5), half, 1.0)
            .unwrap()
            .as_watts();
        assert!((p_half - p_full / 2.0).abs() < 1e-9);
        // Halted core: no dynamic power.
        let halted = OperatingPoint::new(Frequency::ZERO, Voltage::new(1.2));
        assert_eq!(
            model.dynamic_power(Watts::new(0.5), halted, 1.0).unwrap(),
            Watts::ZERO
        );
    }

    #[test]
    fn dynamic_power_rejects_bad_utilization() {
        let model = PowerModel::new();
        assert_eq!(
            model.dynamic_power(Watts::new(0.5), reference_point(), 1.2),
            Err(ArchError::InvalidUtilization(1.2))
        );
        assert_eq!(
            model.dynamic_power(Watts::new(0.5), reference_point(), -0.1),
            Err(ArchError::InvalidUtilization(-0.1))
        );
    }

    #[test]
    fn leakage_grows_with_temperature() {
        let model = PowerModel::new();
        let v = Voltage::new(REFERENCE_VOLTAGE);
        let at_ref = model
            .leakage_power(Watts::new(0.5), v, Celsius::new(LEAKAGE_REFERENCE_CELSIUS))
            .as_watts();
        let hotter = model
            .leakage_power(
                Watts::new(0.5),
                v,
                Celsius::new(LEAKAGE_REFERENCE_CELSIUS + LEAKAGE_DOUBLING_CELSIUS),
            )
            .as_watts();
        assert!((at_ref - 0.075).abs() < 1e-9);
        assert!((hotter - 2.0 * at_ref).abs() < 1e-9);
        // Leakage also scales with voltage.
        let low_v = model
            .leakage_power(
                Watts::new(0.5),
                Voltage::new(0.6),
                Celsius::new(LEAKAGE_REFERENCE_CELSIUS),
            )
            .as_watts();
        assert!((low_v - at_ref * 0.5).abs() < 1e-9);
    }

    #[test]
    fn builder_setters_validate() {
        assert!(PowerModel::new().with_leakage_fraction(0.3).is_ok());
        assert!(PowerModel::new().with_leakage_fraction(1.0).is_err());
        assert!(PowerModel::new().with_leakage_fraction(-0.1).is_err());
        assert!(PowerModel::new().with_idle_fraction(0.0).is_ok());
        assert!(PowerModel::new().with_idle_fraction(1.0).is_ok());
        assert!(PowerModel::new().with_idle_fraction(1.1).is_err());
    }

    #[test]
    fn zero_leakage_model_has_no_leakage() {
        let model = PowerModel::new().with_leakage_fraction(0.0).unwrap();
        let leak = model.leakage_power(Watts::new(0.5), Voltage::new(1.2), Celsius::new(100.0));
        assert_eq!(leak, Watts::ZERO);
    }

    #[test]
    fn component_power_helper_matches_total_power() {
        let model = PowerModel::new();
        let point = reference_point();
        let t = Celsius::new(55.0);
        let a = model
            .component_power(ComponentKind::DCache, point, 0.5, t)
            .unwrap();
        let b = model
            .total_power(ComponentKind::DCache.max_power(), point, 0.5, t)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(model.reference().frequency, Frequency::from_mhz(500.0));
        assert!(model.idle_fraction() > 0.0);
        assert_eq!(PowerModel::default(), PowerModel::new());
    }
}
