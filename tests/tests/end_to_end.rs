//! End-to-end runs of the full simulator over the built-in workloads.

use scalesim::{ArrayShape, Dataflow, PartitionGrid, SimConfig, Simulator};
use scalesim_topology::{networks, parse_topology_csv, topology_to_csv, Layer};

fn fast_config() -> SimConfig {
    SimConfig::builder()
        .array(ArrayShape::square(32))
        .sram_kb(128, 128, 64)
        .build()
}

#[test]
fn alexnet_full_run_is_sane() {
    let sim = Simulator::new(fast_config());
    let net = networks::alexnet();
    let report = sim.run_topology(&net);

    assert_eq!(report.layers().len(), 8);
    assert_eq!(report.total_macs(), net.total_macs());
    for layer in report.layers() {
        assert!(layer.total_cycles > 0);
        // DRAM traffic can never exceed SRAM traffic (every interface
        // transfer feeds/drains the SRAM).
        assert!(layer.dram.total_accesses() <= layer.sram.total());
        assert!(layer.energy.total() > 0.0);
        assert!(layer.compute_utilization > 0.0 && layer.compute_utilization <= 1.0);
    }
    // FC layers on OS dataflow are famously underutilized (S_R = 1).
    let fc = report.layer("FC7").unwrap();
    let conv = report.layer("Conv3").unwrap();
    assert!(fc.compute_utilization < conv.compute_utilization);
}

#[test]
fn yolo_tiny_all_dataflows_conserve_work() {
    let net = networks::yolo_tiny();
    let mut cycles = Vec::new();
    for df in Dataflow::ALL {
        let config = SimConfig {
            dataflow: df,
            ..fast_config()
        };
        let report = Simulator::new(config).run_topology(&net);
        assert_eq!(report.total_macs(), net.total_macs(), "{df:?}");
        cycles.push(report.total_cycles());
    }
    // Different dataflows genuinely schedule differently on these layers.
    assert!(cycles.iter().any(|&c| c != cycles[0]));
}

#[test]
fn language_models_report_reasonable_bandwidth() {
    // The compact half of Table IV; the giant GEMMs (GNMT2, DB0, TF0) run
    // in the release-mode figure harnesses, not in the test suite.
    let subset = networks::language_models()
        .filtered(|l| matches!(l.name(), "GNMT3" | "DB1" | "TF1" | "NCF0" | "NCF1"));
    let sim = Simulator::new(SimConfig::default());
    let report = sim.run_topology(&subset);
    assert_eq!(report.layers().len(), 5);
    // GEMMs have no window reuse: every unique A element must come over
    // the interface at least once.
    for (layer_report, layer) in report.layers().iter().zip(&subset) {
        let shape = layer.shape();
        assert!(
            layer_report.dram.reads_a >= shape.m * shape.k,
            "{} read too little",
            layer.name()
        );
        assert!(layer_report.required_bandwidth() > 0.0);
    }
}

#[test]
fn monolithic_equals_one_by_one_grid() {
    let layer = networks::language_model("NCF1").unwrap();
    let mono = Simulator::new(fast_config()).run_layer(&layer);
    let grid = Simulator::new(fast_config())
        .with_grid(PartitionGrid::new(1, 1))
        .run_layer(&layer);
    assert_eq!(mono, grid);
}

#[test]
fn csv_report_round_trips_row_count() {
    let sim = Simulator::new(fast_config());
    let report = sim.run_topology(&networks::alexnet());
    let csv = report.to_csv();
    assert_eq!(csv.lines().count(), 1 + report.layers().len());
    // Spot-check one row's cycle column.
    let row = csv.lines().nth(1).unwrap();
    let cols: Vec<&str> = row.split(',').collect();
    assert_eq!(cols[0], "Conv1");
    assert_eq!(
        cols[1].parse::<u64>().unwrap(),
        report.layers()[0].total_cycles
    );
}

#[test]
fn topology_files_survive_the_full_pipeline() {
    // Serialize a built-in network, parse it back, simulate both, compare.
    let original = networks::yolo_tiny();
    let parsed = parse_topology_csv(original.name(), &topology_to_csv(&original)).unwrap();
    let sim = Simulator::new(fast_config());
    let a = sim.run_topology(&original);
    let b = sim.run_topology(&parsed);
    assert_eq!(a, b);
}

#[test]
fn repeated_runs_are_deterministic_despite_thread_pool() {
    // The 16 partition tiles run in turn on this thread and fold in tile
    // order; repeated runs (cold, then layer-cache hits) must agree.
    let layer = networks::language_model("GNMT3").unwrap();
    let sim = Simulator::new(fast_config()).with_grid(PartitionGrid::new(4, 4));
    let first = sim.run_layer(&layer);
    for _ in 0..3 {
        assert_eq!(sim.run_layer(&layer), first);
    }
}

#[test]
fn trace_export_matches_simulated_horizon_for_all_dataflows() {
    let layer = Layer::gemm("t", 20, 9, 14);
    for df in Dataflow::ALL {
        let config = SimConfig {
            dataflow: df,
            ..fast_config()
        };
        let sim = Simulator::new(config);
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        let report = sim.write_traces(&layer, &mut reads, &mut writes).unwrap();
        let writes = String::from_utf8(writes).unwrap();
        let last_write_cycle = writes
            .lines()
            .filter_map(|l| l.split(',').next()?.parse::<u64>().ok())
            .max()
            .unwrap();
        assert_eq!(last_write_cycle + 1, report.total_cycles, "{df:?}");
    }
}
