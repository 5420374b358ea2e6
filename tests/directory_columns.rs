//! Tier-1 slice of the directory differential: `cargo test -q` at the
//! workspace root runs only this package's suites, so the lock that
//! holds the columnar `Directory` (every node's whole view of the
//! cluster) to the `BTreeMap` directory it replaced is re-run here at a
//! fixed budget. The generator, the check and the model live with the
//! directory crate, whose `tests/columns.rs` runs them wide.

use proptest::prelude::*;

#[path = "../crates/directory/tests/common/columns.rs"]
mod columns;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn columns_match_map_model(script in columns::arb_script()) {
        columns::check(&script)?;
    }
}
