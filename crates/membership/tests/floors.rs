//! `GroupState`'s flat peer table and sweep floors against a full-walk
//! `BTreeMap` model, at the default case budget. The generator and the
//! check are in `common/floors.rs`; the workspace root re-runs a
//! fixed-budget slice of them in tier-1.

use proptest::prelude::*;

#[path = "common/floors.rs"]
mod floors;

proptest! {
    #[test]
    fn peer_table_and_gates_match_full_walk_model(ops in floors::arb_ops()) {
        floors::check(&ops)?;
    }
}
