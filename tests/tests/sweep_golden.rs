//! Byte-identity against a committed sweep golden.
//!
//! `examples/ws_is_conv.plan` sweeps yolo_tiny under all three dataflows
//! on a monolithic array and a 2x2 grid at small SRAM — the layers whose
//! weight- and input-stationary demand streams are the most fragmented.
//! Its CSV must reproduce `tests/golden/ws_is_conv.csv` byte for byte, so
//! any change to the demand producers, the DRAM model or the CSV writer
//! that moves a single figure fails here.

use scalesim::sweep::{CsvSink, SweepEngine, SweepPlan};

#[test]
fn ws_is_conv_sweep_matches_golden_csv() {
    let plan = SweepPlan::parse_named(
        include_str!("../../examples/ws_is_conv.plan"),
        "examples/ws_is_conv.plan",
    )
    .expect("plan parses");
    let mut csv = CsvSink::new(Vec::new());
    SweepEngine::new(64)
        .run_streaming(&plan, 2, &mut csv)
        .expect("plan runs");
    let csv = String::from_utf8(csv.into_inner()).expect("CSV is UTF-8");
    assert_eq!(csv, include_str!("../golden/ws_is_conv.csv"));
}
