//! Tier-1 run of the codec lock: `cargo test -q` at the workspace root
//! runs only this package's suites, and the two decoders' agreement —
//! same values, same `DecodeError`s, `encoded_len == encode().len()` —
//! is what lets the engine size a packet without encoding it and lets
//! the decoder hand one payload to every holder. The suite lives with
//! the wire crate, where `ci/smoke.sh wire-fuzz` runs it at 512 cases;
//! here the file is taken as it stands, at its own default budget (its
//! generators are private to it, and nine properties over frames of a
//! few hundred bytes cost a fraction of a second).

#[path = "../crates/wire/tests/fuzz_codec.rs"]
mod fuzz_codec;
