//! # tamp-neptune — clustering middleware substrate (paper §2)
//!
//! A minimal reconstruction of the parts of the Neptune framework the
//! membership service plugs into: **service providers** that register
//! `(service, partition)` instances and process requests, and **consumer
//! gateways** that route each request to an appropriate instance using
//! the yellow pages — location-transparent invocation, failure shielding
//! via the membership directory, and random-polling load balancing \[20\].
//! Every consumer routes through one [`Router`] and records into one
//! per-second [`Timeline`].
//!
//! The prototype search engine of the paper's Fig. 1 / Fig. 14 is built
//! from these pieces in [`search`]: protocol gateways call partitioned,
//! replicated index servers and document servers; when the local document
//! service fails, requests fail over to a remote data center through the
//! membership proxies (`tamp-proxy`).

mod gateway;
mod provider;
pub mod router;
pub mod search;
pub mod timeline;

pub use gateway::{GatewayConfig, GatewayNode, Step, StepMode, Workflow};
pub use provider::{ProviderConfig, ProviderNode, POLL_PAYLOAD, RESPONSE_SIZE};
pub use router::{Dispatch, LoadBalance, Route, RouteConfig, Router};
pub use timeline::{Cell, Timeline, TimelineHandle};
