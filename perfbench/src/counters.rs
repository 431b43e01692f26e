//! Simulator counters read from the process-global metric registry,
//! taken as deltas around a repetition.

use scalesim::telemetry_names as names;

#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Demand-stream elements fed to the DRAM model.
    pub demand_elements: u64,
    /// Run-length records the DRAM model walked.
    pub demand_runs: u64,
    /// Layer simulations that ran the cold path.
    pub layer_misses: u64,
    /// Layer simulations answered by the layer-result cache.
    pub layer_hits: u64,
}

impl Counters {
    pub fn read() -> Counters {
        let registry = scalesim_telemetry::global();
        // Get-or-create: the help text only matters if the simulator has
        // not registered the counter yet, and must then match its own.
        let get = |name: &str, help: &str| registry.counter(name, help).get();
        Counters {
            demand_elements: get(
                names::DEMAND_ELEMENTS,
                "Demand-stream elements fed to the DRAM model.",
            ),
            demand_runs: get(
                names::DEMAND_RUNS,
                "Run-length records the DRAM model walked.",
            ),
            layer_misses: get(
                names::LAYER_CACHE_MISSES,
                "Layer simulations that ran the full cold path.",
            ),
            layer_hits: get(
                names::LAYER_CACHE_HITS,
                "Layer simulations answered from the layer-result cache.",
            ),
        }
    }

    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            demand_elements: self.demand_elements - before.demand_elements,
            demand_runs: self.demand_runs - before.demand_runs,
            layer_misses: self.layer_misses - before.layer_misses,
            layer_hits: self.layer_hits - before.layer_hits,
        }
    }

    pub fn layer_cache_hit_rate(&self) -> f64 {
        crate::metrics::ratio(
            self.layer_hits as f64,
            (self.layer_hits + self.layer_misses) as f64,
        )
    }
}
