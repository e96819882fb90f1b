//! End-to-end activation waveform: the reproduction of the paper's Figure 6.
//!
//! Combines [`CellModel`] and [`SenseAmpModel`] into the full
//! bitline-voltage-versus-time trajectory of a row activation, for a cell of
//! any age, and derives the two quantities the paper reads off this plot:
//! the *ready-to-access* time (`tRCD` opportunity) and the *fully restored*
//! time (`tRAS` opportunity).

use crate::{consts, CellModel, SenseAmpModel};

/// Full activation model for one DRAM cell/bitline pair.
///
/// # Example
///
/// ```
/// use bitline::ActivationModel;
///
/// let m = ActivationModel::calibrated();
/// // Figure 6 anchors: 10 ns vs 14.5 ns ready-to-access.
/// assert!((m.ready_time_ns(0.0) - 10.0).abs() < 1e-9);
/// assert!((m.ready_time_ns(64.0) - 14.5).abs() < 1e-9);
/// // tRAS opportunity: 9.6 ns.
/// let red = m.restore_time_ns(64.0) - m.restore_time_ns(0.0);
/// assert!((red - 9.6).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ActivationModel {
    cell: CellModel,
    senseamp: SenseAmpModel,
}

/// One `(time_ns, bitline_voltage_v)` sample of an activation waveform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveformPoint {
    /// Time since the ACT command, in nanoseconds.
    pub time_ns: f64,
    /// Bitline voltage, in volts.
    pub voltage_v: f64,
}

impl ActivationModel {
    /// Creates the model with the calibrated sub-models.
    pub fn calibrated() -> Self {
        Self {
            cell: CellModel::calibrated(),
            senseamp: SenseAmpModel::calibrated(),
        }
    }

    /// Creates a model from explicit sub-models.
    pub fn new(cell: CellModel, senseamp: SenseAmpModel) -> Self {
        Self { cell, senseamp }
    }

    /// Time after ACT at which the bitline reaches the ready-to-access
    /// level for a cell of age `age_ms`, in nanoseconds.
    pub fn ready_time_ns(&self, age_ms: f64) -> f64 {
        consts::T_CHARGE_SHARE_NS
            + self
                .senseamp
                .regeneration_time_ns(self.cell.sharing_deviation_v(age_ms))
    }

    /// Time after ACT at which the cell is fully restored for a cell of age
    /// `age_ms`, in nanoseconds.
    pub fn restore_time_ns(&self, age_ms: f64) -> f64 {
        self.ready_time_ns(age_ms)
            + self
                .senseamp
                .restore_time_ns(self.cell.charge_deficit(age_ms))
    }

    /// `tRCD` reduction opportunity versus the worst-case (64 ms) cell, in
    /// nanoseconds.
    pub fn trcd_reduction_ns(&self, age_ms: f64) -> f64 {
        (self.ready_time_ns(consts::REFRESH_WINDOW_MS) - self.ready_time_ns(age_ms)).max(0.0)
    }

    /// `tRAS` reduction opportunity versus the worst-case (64 ms) cell, in
    /// nanoseconds.
    pub fn tras_reduction_ns(&self, age_ms: f64) -> f64 {
        (self.restore_time_ns(consts::REFRESH_WINDOW_MS) - self.restore_time_ns(age_ms)).max(0.0)
    }

    /// Bitline voltage `t_ns` nanoseconds after the ACT command for a cell
    /// of age `age_ms`, in volts.
    ///
    /// The waveform has four regions: precharge ramp during charge sharing,
    /// regenerative growth, rail approach during restore, and flat at the
    /// restored level.
    ///
    /// # Panics
    ///
    /// Panics if `t_ns` or `age_ms` is negative.
    pub fn bitline_voltage_v(&self, age_ms: f64, t_ns: f64) -> f64 {
        assert!(t_ns >= 0.0, "time cannot be negative");
        let v_pre = consts::V_PRECHARGE;
        let v_share = self.cell.shared_bitline_v(age_ms);
        if t_ns < consts::T_CHARGE_SHARE_NS {
            // Linear ramp from the precharge level to the shared level.
            return v_pre + (v_share - v_pre) * (t_ns / consts::T_CHARGE_SHARE_NS);
        }
        let t_ready = self.ready_time_ns(age_ms);
        if t_ns < t_ready {
            let dev = self.senseamp.deviation_at_ns(
                self.cell.sharing_deviation_v(age_ms),
                t_ns - consts::T_CHARGE_SHARE_NS,
            );
            return v_pre + dev;
        }
        let t_restore = self.restore_time_ns(age_ms);
        if t_ns < t_restore {
            // Exponential approach from V_READY to VDD, pinned so that the
            // restored level is crossed exactly at t_restore.
            let span = t_restore - t_ready;
            let gap0 = consts::VDD - consts::V_READY;
            let gap_end = consts::VDD - consts::V_RESTORED;
            let tau = span / (gap0 / gap_end).ln();
            return consts::VDD - gap0 * (-(t_ns - t_ready) / tau).exp();
        }
        consts::V_RESTORED
    }

    /// Samples the activation waveform on `[0, t_end_ns]` with `n` points
    /// (endpoints included) for a cell of age `age_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn waveform(&self, age_ms: f64, t_end_ns: f64, n: usize) -> Vec<WaveformPoint> {
        assert!(n >= 2, "need at least two samples");
        (0..n)
            .map(|i| {
                let t = t_end_ns * i as f64 / (n - 1) as f64;
                WaveformPoint {
                    time_ns: t,
                    voltage_v: self.bitline_voltage_v(age_ms, t),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_annotated_reductions() {
        let m = ActivationModel::calibrated();
        assert!((m.trcd_reduction_ns(0.0) - 4.5).abs() < 1e-9);
        assert!((m.tras_reduction_ns(0.0) - 9.6).abs() < 1e-9);
    }

    #[test]
    fn reductions_vanish_at_the_refresh_window() {
        let m = ActivationModel::calibrated();
        assert_eq!(m.trcd_reduction_ns(consts::REFRESH_WINDOW_MS), 0.0);
        assert_eq!(m.tras_reduction_ns(consts::REFRESH_WINDOW_MS), 0.0);
    }

    #[test]
    fn ready_time_is_monotone_in_age() {
        let m = ActivationModel::calibrated();
        let mut prev = 0.0;
        for i in 0..=64 {
            let t = m.ready_time_ns(i as f64);
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn waveform_is_monotone_nondecreasing() {
        let m = ActivationModel::calibrated();
        for &age in &[0.0, 1.0, 16.0, 64.0] {
            let wf = m.waveform(age, 40.0, 400);
            for pair in wf.windows(2) {
                assert!(
                    pair[1].voltage_v >= pair[0].voltage_v - 1e-12,
                    "dip at t={} for age {age}",
                    pair[1].time_ns
                );
            }
        }
    }

    #[test]
    fn waveform_crosses_ready_level_at_ready_time() {
        let m = ActivationModel::calibrated();
        for &age in &[0.0, 32.0, 64.0] {
            let t = m.ready_time_ns(age);
            let v = m.bitline_voltage_v(age, t);
            assert!((v - consts::V_READY).abs() < 1e-6, "age {age}: v = {v}");
        }
    }

    #[test]
    fn waveform_reaches_restored_level() {
        let m = ActivationModel::calibrated();
        let t = m.restore_time_ns(64.0);
        let v = m.bitline_voltage_v(64.0, t + 1.0);
        assert!((v - consts::V_RESTORED).abs() < 1e-9);
    }

    #[test]
    fn fresh_cell_always_faster_than_stale() {
        let m = ActivationModel::calibrated();
        for t in 1..40 {
            let t = t as f64;
            assert!(m.bitline_voltage_v(0.0, t) >= m.bitline_voltage_v(64.0, t) - 1e-12);
        }
    }
}
