//! The model half of the paper-scale figure gate: on the Figure 10 model,
//! RAHTM (`RahtmConfig::fast()`) has the lowest communication time of the
//! line-up on every benchmark. Release builds run the paper's 16K scale
//! (a few seconds); debug builds run the 1K mini scale.

use rahtm_bench::experiments::{run_figures, MappingKind, Scale};
use rahtm_core::RahtmConfig;

#[test]
fn rahtm_has_the_lowest_fig10_comm_time() {
    let scale = if cfg!(debug_assertions) {
        Scale::mini()
    } else {
        Scale::paper()
    };
    let mappings = MappingKind::paper_lineup(&scale, RahtmConfig::fast());
    let rows = run_figures(&scale, &mappings);
    for bench in ["BT", "SP", "CG"] {
        let cells: Vec<_> = rows.iter().filter(|r| r.bench == bench).collect();
        assert_eq!(cells.len(), mappings.len());
        let rahtm = cells
            .iter()
            .find(|r| r.mapping == "RAHTM")
            .expect("RAHTM is in the line-up");
        for other in cells.iter().filter(|r| r.mapping != "RAHTM") {
            assert!(
                rahtm.comm_time < other.comm_time,
                "{} at {}: RAHTM {:.1} us vs {} {:.1} us",
                bench,
                scale.name,
                rahtm.comm_time,
                other.mapping,
                other.comm_time
            );
        }
    }
}
