//! Golden fleet report: the merged JSONL of a small fixed fleet is pinned
//! byte for byte.
//!
//! The fleet path streams every device through the online statistics and
//! merges integer shard aggregates, so the report is a pure function of
//! the spec — any byte of drift here means a generator, a streaming
//! statistic, the seed-derivation tree, or the JSON renderer changed,
//! which must be a conscious decision.
//!
//! To regenerate after an intentional change, run with
//! `LPMEM_GOLDEN_PRINT=1` (e.g. `LPMEM_GOLDEN_PRINT=1 cargo test --test
//! fleet_golden -- --nocapture`) and paste the printed lines over
//! `GOLDEN`.

use lpmem_bench::experiments::SEED;
use lpmem_bench::fleet::{run_fleet, FleetSpec};
use lpmem_core::WorkloadMix;

/// A fleet small enough to pin yet sharded enough (4 shards) to exercise
/// the merge path.
fn golden_spec() -> FleetSpec {
    let mut spec = FleetSpec::new(WorkloadMix::uniform());
    spec.devices = 64;
    spec.events_per_device = 64;
    spec.base_seed = SEED;
    spec.shard_devices = 16;
    spec.samples = 4;
    spec
}

/// The exact merged report bytes.
const GOLDEN: &str = r#"{"kind":"fleet","devices":64,"events_per_device":64,"events":4096,"mix":"uniform","seed":2003,"block_size":64,"spatial_window":64,"ws_window":64,"samples":4}
{"kind":"class","class":"hot-cold","devices":10,"events":640,"cold":595,"reuses":45,"dist_sum":689,"near_pairs":7,"pairs":630,"ws_windows":10,"ws_distinct_sum":595,"ws_max":62,"max_footprint":62,"mean_stack_distance":15.311111111111112,"spatial_locality":0.011111111111111112,"ws_mean":59.5,"dist_hist":"2,2,5,9,9,13,5,0,0,0,0,0,0,0,0,0,0,0"}
{"kind":"class","class":"strided","devices":17,"events":1088,"cold":480,"reuses":608,"dist_sum":0,"near_pairs":1071,"pairs":1071,"ws_windows":17,"ws_distinct_sum":480,"ws_max":64,"max_footprint":64,"mean_stack_distance":0,"spatial_locality":1,"ws_mean":28.235294117647058,"dist_hist":"608,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0"}
{"kind":"class","class":"phased","devices":14,"events":896,"cold":59,"reuses":837,"dist_sum":4,"near_pairs":877,"pairs":882,"ws_windows":14,"ws_distinct_sum":59,"ws_max":5,"max_footprint":5,"mean_stack_distance":0.0047789725209080045,"spatial_locality":0.9943310657596371,"ws_mean":4.214285714285714,"dist_hist":"835,0,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0"}
{"kind":"class","class":"chase","devices":9,"events":576,"cold":550,"reuses":26,"dist_sum":459,"near_pairs":1,"pairs":567,"ws_windows":9,"ws_distinct_sum":550,"ws_max":64,"max_footprint":64,"mean_stack_distance":17.653846153846153,"spatial_locality":0.001763668430335097,"ws_mean":61.111111111111114,"dist_hist":"1,2,3,4,3,8,5,0,0,0,0,0,0,0,0,0,0,0"}
{"kind":"class","class":"phase-scatter","devices":14,"events":896,"cold":730,"reuses":166,"dist_sum":3087,"near_pairs":13,"pairs":882,"ws_windows":14,"ws_distinct_sum":730,"ws_max":58,"max_footprint":58,"mean_stack_distance":18.596385542168676,"spatial_locality":0.01473922902494331,"ws_mean":52.142857142857146,"dist_hist":"9,10,8,16,37,48,38,0,0,0,0,0,0,0,0,0,0,0"}
{"kind":"sample","priority":85694755390316688,"device":52,"class":"strided","drift":9,"cold":16,"reuses":48,"dist_sum":0,"near_pairs":63,"ws_max":16,"profile":"0x10190,0x10100,0x10380,0x10080"}
{"kind":"sample","priority":460268872863269044,"device":38,"class":"phase-scatter","drift":8,"cold":52,"reuses":12,"dist_sum":255,"near_pairs":3,"ws_max":52,"profile":"0x47dc,0x19c,0x579c,0x55c0"}
{"kind":"sample","priority":597384210855788684,"device":1,"class":"strided","drift":8,"cold":64,"reuses":0,"dist_sum":0,"near_pairs":63,"ws_max":64,"profile":"0x10b00,0x10780,0x107c0,0x10500"}
{"kind":"sample","priority":1076429718696050452,"device":27,"class":"hot-cold","drift":5,"cold":59,"reuses":5,"dist_sum":97,"near_pairs":0,"ws_max":59,"profile":"0x26a0,0x18dfc,0x20cc,0x18a9c"}
"#;

#[test]
fn fleet_report_matches_golden_bytes() {
    let jsonl = run_fleet(&golden_spec(), 2)
        .expect("golden spec is valid")
        .jsonl();
    if std::env::var_os("LPMEM_GOLDEN_PRINT").is_some() {
        println!("--- paste between the GOLDEN quotes (escape as needed) ---");
        print!("{jsonl}");
        return;
    }
    assert_eq!(
        jsonl, GOLDEN,
        "fleet golden drift; regenerate with LPMEM_GOLDEN_PRINT=1"
    );
}
