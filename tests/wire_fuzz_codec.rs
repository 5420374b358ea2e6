//! The codec lock under its root test ids (`fuzz_codec::…`): the two
//! decoders' agreement — same values, same `DecodeError`s,
//! `encoded_len == encode().len()`. Tier-1 also runs the wire crate's
//! `tests/fuzz_codec.rs` itself as a workspace default member; this copy
//! keeps the ids the root package has always reported until ROADMAP
//! item 13 retires them. Taken as it stands, at its own default budget.

#[path = "../crates/wire/tests/fuzz_codec.rs"]
mod fuzz_codec;
