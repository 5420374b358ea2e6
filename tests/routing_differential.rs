//! Tier-1 slice of the request-routing differential: `cargo test -q` at
//! the workspace root runs only this package's suites, so the lock that
//! guards `Directory::providers` (the typed scan every router resolves
//! through) against `lookup_service` is re-run here at a fixed budget.
//! The generator and the check live with the directory crate, whose
//! `tests/model.rs` runs them wide.

use proptest::prelude::*;

#[path = "../crates/directory/tests/common/routing.rs"]
mod routing;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn providers_match_lookup_service(
        ops in routing::arb_ops(),
        name in routing::NAME,
        partition in 0u16..7,
    ) {
        routing::check(&routing::build(&ops), &name, partition)?;
    }
}
