#![warn(missing_docs)]

//! The energy model behind Fig. 12 of the paper.
//!
//! For a given workload and hardware configuration, "the energy consumption
//! directly depends on the cycles MAC units have been active and the number
//! of accesses to SRAM and DRAM" (Sec. IV-A). Four components are modeled,
//! in *relative* energy units (1.0 = one MAC operation):
//!
//! * **MAC** — one unit per useful multiply-accumulate.
//! * **Idle PE** — the cost of clocking/powering a provisioned PE for a
//!   cycle in which it does no useful work. This is the term that lets a
//!   faster (partitioned) configuration "steal runtime from powering the
//!   massive compute array": a monolithic array that finishes late pays
//!   idle energy on every PE for every extra cycle.
//! * **SRAM** — per on-chip scratchpad access.
//! * **DRAM** — per off-chip access; the dominant per-access cost.
//!
//! The default constants follow the widely used Eyeriss-style ratios
//! (SRAM ≈ 6×, DRAM ≈ 200× a MAC; idle ≈ 0.1×). The paper does not publish
//! its constants; Fig. 12's qualitative behaviour (monolithic wins at small
//! MAC budgets, partitioning wins at large ones) depends only on the
//! ordering `DRAM ≫ SRAM ≫ MAC > idle`, which any reasonable choice
//! preserves — see DESIGN.md.

/// Relative per-event energy constants.
///
/// ```
/// use scalesim_energy::EnergyModel;
///
/// let model = EnergyModel::default();
/// let e = model.evaluate(1_000_000, 1_200_000, 30_000, 4_000);
/// assert!(e.dram > e.sram); // 4k DRAM accesses cost more than 30k SRAM
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy of one MAC operation (the unit).
    pub mac: f64,
    /// Energy of one PE sitting idle for one cycle.
    pub idle_pe: f64,
    /// Energy of one SRAM access.
    pub sram: f64,
    /// Energy of one DRAM access.
    pub dram: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            mac: 1.0,
            idle_pe: 0.1,
            sram: 6.0,
            dram: 200.0,
        }
    }
}

impl EnergyModel {
    /// Evaluates the model.
    ///
    /// * `mac_ops` — useful MACs performed.
    /// * `pe_cycles` — total provisioned PE-cycles
    ///   (`PEs × runtime`, summed over partitions). Must be ≥ `mac_ops`;
    ///   the difference is idle time.
    /// * `sram_accesses` — total SRAM reads + writes.
    /// * `dram_accesses` — total DRAM reads + writes.
    ///
    /// # Panics
    ///
    /// Panics if `pe_cycles < mac_ops` (more work than provisioned cycles
    /// is physically impossible and indicates an accounting bug upstream).
    pub fn evaluate(
        &self,
        mac_ops: u64,
        pe_cycles: u64,
        sram_accesses: u64,
        dram_accesses: u64,
    ) -> EnergyBreakdown {
        assert!(
            pe_cycles >= mac_ops,
            "pe_cycles ({pe_cycles}) must cover mac_ops ({mac_ops})"
        );
        let idle_cycles = pe_cycles - mac_ops;
        EnergyBreakdown {
            mac: self.mac * mac_ops as f64,
            idle: self.idle_pe * idle_cycles as f64,
            sram: self.sram * sram_accesses as f64,
            dram: self.dram * dram_accesses as f64,
        }
    }
}

/// Energy by component, in MAC-equivalent units.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Useful compute energy.
    pub mac: f64,
    /// Idle (provisioned-but-unused PE-cycle) energy.
    pub idle: f64,
    /// On-chip memory access energy.
    pub sram: f64,
    /// Off-chip access energy.
    pub dram: f64,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> f64 {
        self.mac + self.idle + self.sram + self.dram
    }

    /// Sums another breakdown into this one (e.g. across partitions or
    /// layers).
    pub fn accumulate(&mut self, other: &EnergyBreakdown) {
        self.mac += other.mac;
        self.idle += other.idle;
        self.sram += other.sram;
        self.dram += other.dram;
    }

    /// Fraction of the total spent on off-chip traffic.
    pub fn dram_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0.0 {
            0.0
        } else {
            self.dram / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_preserve_the_required_ordering() {
        let m = EnergyModel::default();
        assert!(m.dram > m.sram);
        assert!(m.sram > m.mac);
        assert!(m.mac > m.idle_pe);
    }

    #[test]
    fn evaluate_splits_components() {
        let m = EnergyModel::default();
        let e = m.evaluate(100, 150, 10, 2);
        assert_eq!(e.mac, 100.0);
        assert_eq!(e.idle, 5.0); // 50 idle cycles * 0.1
        assert_eq!(e.sram, 60.0);
        assert_eq!(e.dram, 400.0);
        assert_eq!(e.total(), 565.0);
    }

    #[test]
    #[should_panic(expected = "must cover")]
    fn impossible_occupancy_panics() {
        EnergyModel::default().evaluate(100, 50, 0, 0);
    }

    #[test]
    fn accumulate_sums_componentwise() {
        let m = EnergyModel::default();
        let mut a = m.evaluate(10, 10, 1, 1);
        let b = m.evaluate(20, 30, 2, 0);
        a.accumulate(&b);
        assert_eq!(a.mac, 30.0);
        assert_eq!(a.idle, 1.0);
        assert_eq!(a.sram, 18.0);
        assert_eq!(a.dram, 200.0);
    }

    #[test]
    fn dram_fraction_handles_zero_total() {
        assert_eq!(EnergyBreakdown::default().dram_fraction(), 0.0);
        let e = EnergyModel::default().evaluate(0, 0, 0, 5);
        assert_eq!(e.dram_fraction(), 1.0);
    }

    #[test]
    fn idle_term_penalizes_slow_monolithic_configs() {
        // Same work, same memory traffic; config B takes 4x the runtime on
        // the same PE count -> strictly more energy via the idle term.
        let m = EnergyModel::default();
        let fast = m.evaluate(1000, 2000, 100, 10);
        let slow = m.evaluate(1000, 8000, 100, 10);
        assert!(slow.total() > fast.total());
    }
}
