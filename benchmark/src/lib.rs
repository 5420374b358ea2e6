//! The repo's performance ledger: five workloads measured end to end
//! from outside, per-layer numbers from spans and micro loops, and a
//! `compare` that applies each metric's bound. See `README.md`.

pub mod catalog;
pub mod compare;
pub mod host;
pub mod json;
pub mod ledger;
pub mod micro;
pub mod trace;
pub mod workloads;
