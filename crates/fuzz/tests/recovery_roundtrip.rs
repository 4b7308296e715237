//! The durability differential (store PR satellite): sampled fuzz cases
//! save their populated store to disk, recover it through the
//! snapshot + WAL path, and require the recovered store to reproduce the
//! baseline answer set for the original query and every equivalent.
//! These tests pin the sampling contract and run the round-trip
//! explicitly on handcrafted cases from both verdict families.

use sqo_fuzz::oracle::{run_inputs_full, CaseStatus};
use sqo_fuzz::spec::CaseInputs;
use sqo_fuzz::RECOVERY_SAMPLE;
use sqo_objdb::GenericConfig;
use std::collections::BTreeMap;

const ODL: &str = "interface C0 { extent C0; attribute long a0_0; };";
const IC: &str = "ic F0: A1 >= 100 <- c0(OID, A1).";

fn inputs(oql: &str) -> CaseInputs {
    CaseInputs {
        odl: ODL.to_string(),
        ics: vec![IC.to_string()],
        population: GenericConfig {
            counts: vec![("C0".to_string(), 8)],
            int_ranges: BTreeMap::from([("a0_0".to_string(), (100, 200))]),
            str_domains: BTreeMap::new(),
            unique_attrs: Default::default(),
            links_per_object: 1,
            seed: 7,
        },
        oql: oql.to_string(),
        sibling_oql: None,
    }
}

#[test]
fn recovery_roundtrip_passes_on_equivalents_case() {
    // `a0_0 < 150` is satisfiable under the IC, so the verdict carries
    // equivalents; with recovery on, each of them (and the baseline) is
    // re-evaluated against the recovered store.
    let case = inputs("select x0 from x0 in C0 where x0.a0_0 < 150");
    match run_inputs_full(&case, true).expect("case valid") {
        CaseStatus::Pass(info) => assert!(!info.contradiction),
        CaseStatus::Mismatch(m) => panic!("recovery round-trip flagged: {m:?}"),
    }
}

#[test]
fn recovery_roundtrip_passes_on_contradiction_case() {
    // A sound contradiction: the recovered store must stay empty for the
    // baseline query too.
    let case = inputs("select x0 from x0 in C0 where x0.a0_0 < 50");
    let status = run_inputs_full(&case, true).expect("case valid");
    match status {
        CaseStatus::Pass(info) => {
            assert!(info.contradiction);
            assert_eq!(info.baseline_rows, 0);
        }
        CaseStatus::Mismatch(m) => panic!("recovery round-trip flagged: {m:?}"),
    }
}

#[test]
fn recovery_sampling_covers_generated_seeds() {
    // The driver samples every RECOVERY_SAMPLE-th seed; the contract the
    // acceptance sweep relies on is that seed 0 (and so a quarter of any
    // 0..N range) pays for the durability round-trip.
    let sampled = (0..100u64)
        .filter(|s| s.is_multiple_of(RECOVERY_SAMPLE))
        .count();
    assert!((0..100u64).any(|s| s.is_multiple_of(RECOVERY_SAMPLE)));
    assert_eq!(sampled, 25);
}
