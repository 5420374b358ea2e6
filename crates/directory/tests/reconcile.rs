//! `Directory::reconcile_digest`'s ordered merge against the per-entry
//! reference, wide. The generator and the check are in
//! `common/reconcile.rs`; the workspace root re-runs a fixed-budget
//! slice of them in tier-1.

use proptest::prelude::*;

#[path = "common/reconcile.rs"]
mod reconcile;

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn merge_matches_per_entry_reference(case in reconcile::arb_case()) {
        reconcile::check(&case)?;
    }
}
