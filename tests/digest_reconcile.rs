//! Tier-1 slice of the anti-entropy reconcile differential: `cargo test
//! -q` at the workspace root runs only this package's suites, so the
//! lock that guards `Directory::reconcile_digest` (the one-walk merge
//! every digest receiver runs) against the per-entry reference is re-run
//! here at a fixed budget. The generator and the check live with the
//! directory crate, whose `tests/reconcile.rs` runs them wide.

use proptest::prelude::*;

#[path = "../crates/directory/tests/common/reconcile.rs"]
mod reconcile;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn merge_matches_per_entry_reference(case in reconcile::arb_case()) {
        reconcile::check(&case)?;
    }
}
