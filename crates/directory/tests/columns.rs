//! The columnar `Directory` against the `BTreeMap` directory it
//! replaced, wide. The generator, the check and the model are in
//! `common/`; the workspace root re-runs a fixed-budget slice of them
//! in tier-1.

use proptest::prelude::*;

#[path = "common/columns.rs"]
mod columns;

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn columns_match_map_model(script in columns::arb_script()) {
        columns::check(&script)?;
    }
}
