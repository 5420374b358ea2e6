//! Tier-1 slice of the membership sweep-floor differential: `cargo test
//! -q` at the workspace root runs only this package's suites, so the
//! lock that guards `GroupState`'s flat peer table and the floor-gated
//! expiry and distress scans against a full-walk `BTreeMap` model is
//! re-run here at a fixed budget. The generator and the check live with
//! the membership crate, whose `tests/floors.rs` runs them wide.

use proptest::prelude::*;

#[path = "../crates/membership/tests/common/floors.rs"]
mod floors;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn peer_table_and_gates_match_full_walk_model(ops in floors::arb_ops()) {
        floors::check(&ops)?;
    }
}
